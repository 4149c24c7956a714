"""Pins on what the policy mechanism must never move.

Old ``--out`` directories resume only while both journal fingerprints
keep their bytes, mixed-version fleets interoperate only while the
``shard`` message keeps its bytes, and warm caches stay warm only while
the stream-artifact and pretrain cache keys keep theirs.  The values below
were taken from the tree before the policies were carried as one
:class:`~repro.exec.shard.PolicySet`, and before float32 was removed; a
change that moves any of them breaks resume, the wire or the caches.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.batching import ON
from repro.data import build_scenario, stream_key
from repro.exec import PolicySet, protocol
from repro.exec.shard import CellJob, ShardSpec, SystemCell
from repro.learn import MLPClassifier
from repro.learn.cache import CACHE_ENV, store_pretrained
from repro.numeric import FLOAT64, use_policy
from repro.service.session import session_fingerprint
from repro.share.policy import CLUSTER, use_sharing
from repro.sweep import compile_plan, load_spec
from repro.sweep.run import plan_fingerprint

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize(
    "example, sharing, expected",
    [
        ("fleet_shared.toml", "off", "c88ba7dce5031108"),
        ("fleet_shared.toml", "cluster", "b313c7d552ec8579"),
        ("fleet_service.toml", "off", "9d689079061ba752"),
        ("fleet_service.toml", "cluster", "6cb6112916e204ab"),
    ],
)
def test_plan_fingerprint(example, sharing, expected):
    # fleet_service.toml inherits the ambient dtype: pin it.
    with use_policy("float64"):
        plan = compile_plan(load_spec(EXAMPLES / example))
    with use_sharing(sharing):
        assert plan_fingerprint(plan) == expected


@pytest.mark.parametrize(
    "policies, window_s, expected",
    [
        (
            PolicySet(FLOAT64),
            60.0,
            "a3d5c846d4ddd754afcec3634b80f8231e4fc9929ecd07ef28464e43c8edeb8a",
        ),
        (
            PolicySet(FLOAT64, CLUSTER),
            60.0,
            "a769b7b55fd949641cf3b95649706b25025498a0af13ebed9c1bad71e3d22d8e",
        ),
        (
            PolicySet(FLOAT64),
            10.0,
            "c48bdcf6086a52aa6630d7aa53d93d74ac7730c947d89efccb3a9676818849fb",
        ),
    ],
)
def test_session_fingerprint(policies, window_s, expected):
    assert session_fingerprint(policies, window_s) == expected


CELLS = (
    SystemCell("DaCapo-Spatiotemporal", "resnet18_wrn50", "S1", 0, 300.0),
    SystemCell("OrinHigh-Ekya", "resnet18_wrn50", "S4", 1, None),
)


@pytest.mark.parametrize(
    "spec, expected",
    [
        (
            ShardSpec(
                "k1", tuple(map(CellJob, CELLS)), (0, 1), PolicySet(FLOAT64)
            ),
            "d320a1f39e189e05",
        ),
        (
            ShardSpec(
                "k2",
                tuple(map(CellJob, CELLS)),
                (0, 1),
                PolicySet(FLOAT64, CLUSTER, ON),
                profile=True,
                cache_root="/c",
            ),
            "58c0267d71acb8c3",
        ),
    ],
    ids=["default-policies", "every-policy-set"],
)
def test_shard_request_bytes(spec, expected):
    line = protocol.encode_message(protocol.encode_shard_request(spec))
    assert hashlib.sha256(line.encode()).hexdigest()[:16] == expected
    assert protocol.decode_shard_spec(protocol.decode_message(line)) == spec


def test_stream_artifact_key():
    assert stream_key(build_scenario("S4", duration_s=300.0), 0) == (
        "1051f1aeb8ab4f352c903132791247b1ccedb540da5884c59baaf500d0f4e4b6"
    )


def test_pretrain_cache_file_name(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    mlp = MLPClassifier.create(4, (3,), 2, np.random.default_rng(0))
    store_pretrained("student", "resnet18", 0, 0, mlp, "k")
    assert [path.name for path in tmp_path.iterdir()] == [
        "student-resnet18-g0-s0-v2-t1-f64-pk.npz"
    ]
