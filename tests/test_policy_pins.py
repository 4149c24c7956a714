"""Pins on what the policy mechanism must never move.

Old ``--out`` directories resume only while both journal fingerprints
keep their bytes, and mixed-version fleets interoperate only while the
``shard`` message keeps its bytes.  The values below were taken from the
tree before the policies were carried as one
:class:`~repro.exec.shard.PolicySet`; a change that moves any of them
breaks resume or the wire.
"""

import hashlib
from pathlib import Path

import pytest

from repro.batching import ON
from repro.exec import PolicySet, protocol
from repro.exec.shard import CellJob, ShardSpec, SystemCell
from repro.numeric import FLOAT32, FLOAT64, use_policy
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
            PolicySet(FLOAT32),
            10.0,
            "aaac71a5ea0d776adaf25ece84b8bb06cd87ddb1b39208ec50fd4b587d83a775",
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
                PolicySet(FLOAT32, CLUSTER, ON),
                profile=True,
                cache_root="/c",
            ),
            "6ac545228cef4563",
        ),
    ],
    ids=["default-policies", "every-policy-set"],
)
def test_shard_request_bytes(spec, expected):
    line = protocol.encode_message(protocol.encode_shard_request(spec))
    assert hashlib.sha256(line.encode()).hexdigest()[:16] == expected
    assert protocol.decode_shard_spec(protocol.decode_message(line)) == spec
