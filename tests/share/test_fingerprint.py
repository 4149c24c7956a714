"""Fingerprint determinism: the clustering contract's foundation.

A stream's drift fingerprint must be a pure function of (scenario,
duration) -- identical across processes, worker counts, numeric policies,
and cell seeds -- or clusters would silently differ between a ``--jobs 8``
sweep and a serial one.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.exec.shard import SystemCell
from repro.numeric import NUMERIC, use_policy
from repro.share.fingerprint import (
    cell_fingerprint,
    feature_fingerprint,
    fingerprint_distance,
    schedule_fingerprint,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestScheduleFingerprint:
    def test_deterministic_within_process(self):
        a = schedule_fingerprint("S4", 240.0)
        b = schedule_fingerprint("S4", 240.0)
        assert a == b
        assert a.digest() == b.digest()
        assert a.source == "schedule"

    def test_seed_independent(self):
        # Two cameras at one intersection: same scenario, different cell
        # seeds.  Their fingerprints are identical by construction.
        cells = [
            SystemCell(
                "DaCapo-Spatiotemporal", "resnet18_wrn50", "S4", s, 240.0
            )
            for s in range(4)
        ]
        digests = {cell_fingerprint(cell).digest() for cell in cells}
        assert len(digests) == 1

    @pytest.mark.parametrize("policy", NUMERIC.values, ids=lambda p: p.name)
    def test_numeric_policy_independent(self, policy):
        baseline = schedule_fingerprint("ES1", 180.0).digest()
        with use_policy(policy):
            assert schedule_fingerprint("ES1", 180.0).digest() == baseline

    def test_scenarios_differ(self):
        assert (
            schedule_fingerprint("S1", 240.0).digest()
            != schedule_fingerprint("S4", 240.0).digest()
        )

    def test_cross_process_deterministic(self):
        # The digest a spawned interpreter computes matches this one's --
        # the property that keeps clusters identical on spawn/subprocess/
        # queue workers.
        here = schedule_fingerprint("S4", 240.0).digest()
        script = (
            "from repro.share.fingerprint import schedule_fingerprint\n"
            "print(schedule_fingerprint('S4', 240.0).digest())"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == here


class TestFeatureFingerprint:
    def test_quantized_and_stable(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(600, 8))
        times = np.linspace(0.0, 180.0, 600, endpoint=False)
        a = feature_fingerprint(features, times)
        b = feature_fingerprint(features + 1e-9, times)
        assert a.source == "features"
        assert a == b  # sub-grid jitter quantizes away

    def test_empty_stream_and_empty_segment(self):
        # Zero-length stream: no tokens at all.
        assert feature_fingerprint(np.empty((0, 4)), np.empty(0)).tokens == ()
        # A gap inside a stream hashes to the fixed sentinel token.
        times = np.array([10.0, 130.0])  # nothing lands in [60, 120)
        fp = feature_fingerprint(np.ones((2, 4)), times)
        assert fp.tokens[1] == "empty"


class TestDistance:
    def test_identity_and_range(self):
        a = schedule_fingerprint("S4", 240.0)
        b = schedule_fingerprint("S1", 240.0)
        assert fingerprint_distance(a, a) == 0.0
        assert 0.0 <= fingerprint_distance(a, b) <= 1.0

    def test_source_mismatch_is_max(self):
        a = schedule_fingerprint("S4", 240.0)
        b = feature_fingerprint(
            np.zeros((10, 2)), np.linspace(0, 240, 10, endpoint=False)
        )
        assert fingerprint_distance(a, b) == 1.0
