"""The bit-identity contract against the frozen reference digests.

Tier-1 recomputes the cheap ``smoke`` case under every numeric policy, and
the ``fig2`` case, and compares them with their freeze; the heavyweight ``full`` (the 29-entry
fixed-seed set) and ``fig9`` (108 cells at 1200 s) cases run when
``REPRO_FULL_DIGESTS=1``.  Every file under ``tests/reference/`` is
exactly what the registry's one writer renders, and belongs to a case.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.exec.shard import PolicySet
from repro.numeric import NUMERIC
from repro.reference import (
    CASES,
    REFERENCE_DIR,
    expected_digest,
    main,
    mismatches,
    render,
)
from repro.share.policy import CLUSTER

#: Every declared policy, by name.
policies = pytest.mark.parametrize(
    "policy", NUMERIC.values, ids=lambda p: p.name
)

FULL = os.environ.get("REPRO_FULL_DIGESTS", "") == "1"


@policies
def test_smoke_digests_match_reference(policy):
    assert mismatches("smoke", PolicySet(numeric=policy)) == []


def test_fig2_digests_match_reference():
    # Figure 2's six resnet18_wrn50 bars at 300 s, frozen through the
    # Figure 2 cell type they used to run as.
    assert mismatches("fig2", PolicySet()) == []


@pytest.mark.skipif(
    not FULL, reason="set REPRO_FULL_DIGESTS=1 for the full digest sweep"
)
@pytest.mark.parametrize("section", ["full", "fig9"])
@policies
def test_full_sections_match_reference(policy, section):
    assert mismatches(section, PolicySet(numeric=policy)) == []


def test_every_file_is_a_case_file_in_the_writers_rendering():
    # The bytes of each frozen file are what ``render`` makes of its own
    # parsed payload, so regenerating it can reproduce it exactly.
    declared = {
        name for case in CASES.values() for name, _ in case.sections.values()
    }
    files = sorted(REFERENCE_DIR.glob("*.json"))
    assert {path.name for path in files} == declared
    for path in files:
        text = path.read_text()
        assert render(json.loads(text)) == text, path.name


def test_a_policy_the_case_does_not_declare_is_refused():
    # Under sharing, the full grid's seeds share clusters: its digests
    # hold only with sharing off, and the lookup says so.
    cell = CASES["full"].cells[0]
    assert expected_digest("full", cell, PolicySet())
    with pytest.raises(ConfigurationError, match="declares off"):
        expected_digest("full", cell, PolicySet(sharing=CLUSTER))
    with pytest.raises(ConfigurationError, match="no digest for"):
        expected_digest("smoke", cell, PolicySet())
    with pytest.raises(ConfigurationError, match="unknown reference case"):
        expected_digest("fig10", cell, PolicySet())


def test_the_command_needs_an_output_directory(capsys):
    # Regenerating never writes into tests/reference/ by default.
    with pytest.raises(SystemExit) as info:
        main(["--case", "smoke"])
    assert info.value.code == 2
    assert "--out" in capsys.readouterr().err
