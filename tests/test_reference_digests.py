"""The bit-identity contract against the frozen reference digests.

Tier-1 recomputes the cheap ``smoke`` section under every numeric policy
and compares against the checked-in file; the heavyweight ``full`` (the
29-entry fixed-seed set) and ``fig9`` (108 cells at 1200 s) sections run
when ``REPRO_FULL_DIGESTS=1``.  The float64 file is pre-refactor ground
truth and must never change.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.numeric import NUMERIC, use_policy
from repro.reference import compute_section, reference_path

#: Every declared policy, by name.
policies = pytest.mark.parametrize(
    "policy", NUMERIC.values, ids=lambda p: p.name
)

FULL = os.environ.get("REPRO_FULL_DIGESTS", "") == "1"


def load_reference(policy):
    path = reference_path(policy.name)
    assert path.is_file(), f"missing reference file {path}"
    payload = json.loads(path.read_text())
    assert payload["policy"] == policy.name
    return payload


@policies
def test_smoke_digests_match_reference(policy):
    reference = load_reference(policy)["smoke"]
    with use_policy(policy):
        computed = compute_section("smoke")
    assert set(computed) == set(reference)
    mismatched = [
        key for key in reference
        if computed[key]["digest"] != reference[key]["digest"]
    ]
    assert not mismatched, (
        f"{policy.name} runs no longer match their frozen digests: "
        f"{mismatched}"
    )


@pytest.mark.skipif(
    not FULL, reason="set REPRO_FULL_DIGESTS=1 for the full digest sweep"
)
@pytest.mark.parametrize("section", ["full", "fig9"])
@policies
def test_full_sections_match_reference(policy, section):
    reference = load_reference(policy)[section]
    with use_policy(policy):
        computed = compute_section(section)
    assert set(computed) == set(reference)
    mismatched = [
        key for key in reference
        if computed[key]["digest"] != reference[key]["digest"]
    ]
    assert not mismatched, f"{policy.name}/{section}: {mismatched}"
