"""Property-based tests (hypothesis) for the shard-message decoders.

Every encoded shard request and shard result must round-trip exactly, and
a message with any one field replaced by an arbitrary JSON value must
either decode or raise :class:`ProtocolError` -- never a raw exception,
which would escape the transports' retry handling as a traceback.  A
replaced *scalar* field must moreover never be coerced: it decodes to
exactly the value sent, or is refused.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.phases import PhaseKind, PhaseRecord
from repro.core.results import RunResult
from repro.errors import ProtocolError
from repro.exec import (
    CellJob,
    CellOutcome,
    PolicySet,
    ShardResult,
    ShardSpec,
    SystemCell,
    protocol,
)
from repro.exec.shard import POLICY_KNOBS
from repro.reference import run_digest

SPEC_FIELDS = (
    "v", "kind", "id", "cells", "policy", "profile", "cache_root",
    "sharing", "batch", "jobs",
)
RESULT_FIELDS = ("v", "kind", "id", "results", "profile", "outcomes", "wall_s")
JOB_FIELDS = (
    "cluster", "snapshot", "emit_snapshot", "cluster_state",
    "emit_cluster_state", "unknown",
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

# Snapshot-like payloads travel as opaque JSON objects; NaN would make an
# exact round trip compare unequal, so they stay finite here.
finite_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
objects = st.dictionaries(st.text(max_size=8), finite_json, max_size=4)

names = st.text(max_size=12)
seeds = st.integers(-(2**40), 2**40)
durations = st.none() | st.floats(allow_nan=False)
cells = st.builds(SystemCell, names, names, names, seeds, durations)


jobs = st.builds(
    CellJob,
    cells,
    cluster=st.none() | names,
    snapshot=st.none() | objects,
    emit_snapshot=st.booleans(),
    cluster_state=st.none() | objects,
    emit_cluster_state=st.booleans(),
)


policy_sets = st.builds(
    PolicySet,
    **{
        name: st.sampled_from(knob.values)
        for name, knob in POLICY_KNOBS.items()
    },
)


@st.composite
def shard_specs(draw):
    spec_jobs = tuple(draw(st.lists(jobs, max_size=4)))
    return ShardSpec(
        key=draw(names),
        jobs=spec_jobs,
        indices=tuple(range(len(spec_jobs))),
        policies=draw(policy_sets),
        profile=draw(st.booleans()),
        cache_root=draw(st.none() | names),
    )


def run_result(seed: int, frames: int) -> RunResult:
    rng = np.random.default_rng(seed)
    times = np.sort(rng.random(frames)) * 10.0
    return RunResult(
        system="DaCapo-Spatiotemporal",
        scenario="S1",
        pair="resnet18_wrn50",
        times=times,
        correct=rng.random(frames) < 0.7,
        dropped=rng.random(frames) < 0.1,
        phases=(
            PhaseRecord(PhaseKind.LABEL, 0.0, 2.5, samples=frames),
            PhaseRecord(PhaseKind.RETRAIN, 2.5, 10.0, drift_detected=True),
        ),
        duration_s=10.0,
        energy_j=float(rng.random()),
        average_power_w=float(rng.random()),
    )


@st.composite
def shard_results(draw):
    results = tuple(
        run_result(seed, frames)
        for seed, frames in draw(
            st.lists(
                st.tuples(st.integers(0, 99), st.integers(0, 5)), max_size=3
            )
        )
    )
    return ShardResult(
        key=draw(names),
        outcomes=tuple(
            CellOutcome(
                result,
                snapshot=draw(st.none() | objects),
                cluster_state=draw(st.none() | objects),
            )
            for result in results
        ),
        profile=draw(st.none() | objects),
        wall_s=draw(
            st.none() | st.floats(min_value=0.0, allow_infinity=False)
        ),
    )


def wire(message: dict) -> dict:
    """A message as the peer parses it off the wire."""
    return protocol.decode_message(protocol.encode_message(message))


@given(shard_specs())
@settings(max_examples=100, deadline=None)
def test_shard_spec_round_trips(spec):
    decoded = protocol.decode_shard_spec(
        wire(protocol.encode_shard_request(spec))
    )
    assert decoded == spec


@given(shard_results())
@settings(max_examples=50, deadline=None)
def test_shard_result_round_trips(result):
    decoded = protocol.decode_shard_result(
        wire(protocol.encode_shard_result(result))
    )
    assert [run_digest(r) for r in decoded.results] == [
        run_digest(r) for r in result.results
    ]
    assert [(o.snapshot, o.cluster_state) for o in decoded.outcomes] == [
        (o.snapshot, o.cluster_state) for o in result.outcomes
    ]
    assert (decoded.key, decoded.profile, decoded.wall_s) == (
        result.key, result.profile, result.wall_s
    )


def decodes_or_refuses(decode, message: dict) -> None:
    try:
        decode(wire(message))
    except ProtocolError:
        pass


@given(shard_specs(), st.sampled_from(SPEC_FIELDS), json_values)
@settings(max_examples=200, deadline=None)
def test_spec_with_any_field_replaced_decodes_or_refuses(spec, field, value):
    message = protocol.encode_shard_request(spec)
    message[field] = value
    decodes_or_refuses(protocol.decode_shard_spec, message)


#: How each scalar field of a ``shard`` message reads back off a decoded
#: spec.
SCALAR_FIELDS = {
    "id": lambda spec: spec.key,
    "policy": lambda spec: spec.policies.numeric.name,
    "profile": lambda spec: spec.profile,
    "cache_root": lambda spec: spec.cache_root,
    "sharing": lambda spec: spec.policies.sharing.name,
    "batch": lambda spec: spec.policies.batch.name,
}


@given(
    shard_specs(),
    st.sampled_from(sorted(SCALAR_FIELDS)),
    json_values | st.sampled_from(
        [value.name for knob in POLICY_KNOBS.values() for value in knob.values]
        + ["float32", "fp64", "on", "yes", "FLOAT64"]
    ),
)
@settings(max_examples=300, deadline=None)
def test_scalar_field_decodes_exactly_or_refuses(spec, field, value):
    message = protocol.encode_shard_request(spec)
    message[field] = value
    try:
        decoded = protocol.decode_shard_spec(wire(message))
    except ProtocolError:
        return
    got = SCALAR_FIELDS[field](decoded)
    assert type(got) is type(value) and got == value


@given(
    shard_specs().filter(lambda spec: spec.jobs),
    st.data(),
    st.sampled_from(JOB_FIELDS),
    json_values,
)
@settings(max_examples=200, deadline=None)
def test_job_entry_with_any_field_replaced_decodes_or_refuses(
    spec, data, field, value
):
    message = protocol.encode_shard_request(spec)
    entries = message.setdefault("jobs", [{} for _ in spec.jobs])
    index = data.draw(st.integers(0, len(entries) - 1))
    entries[index][field] = value
    decodes_or_refuses(protocol.decode_shard_spec, message)


@given(shard_results(), st.sampled_from(RESULT_FIELDS), json_values)
@settings(max_examples=200, deadline=None)
def test_result_with_any_field_replaced_decodes_or_refuses(
    result, field, value
):
    message = protocol.encode_shard_result(result)
    message[field] = value
    decodes_or_refuses(protocol.decode_shard_result, message)
