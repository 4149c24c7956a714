"""The versioned JSON-lines shard protocol spoken between parent and worker.

One message per line, UTF-8 JSON, over any byte-stream transport -- the
:class:`~repro.exec.backends.SubprocessWorkerBackend` uses local pipes, and
because shard payloads carry their policies and cache root explicitly
(and the artifact store's content-addressed disk tier makes streams
location-transparent on a shared filesystem), the identical byte stream
works over ``ssh host python -m repro worker``.

Two framings share the one encoding:

- **Request/response** (:func:`write_message` / :func:`read_message`):
  newline-delimited over a live pipe; what the subprocess backend speaks.
- **Store-and-forward** (:func:`write_message_file` /
  :func:`read_message_file`): one message per file, posted by atomic
  rename; what the pull-model queue backend (:mod:`repro.exec.queue`)
  speaks.  Same bytes, so a ``result`` posted to a queue decodes through
  the very codepath a piped ``result`` does -- bit-exact either way.

Message kinds (every message carries ``"v": PROTOCOL_VERSION``):

- ``hello``    worker -> parent, once at startup: ``{pid}``.  The parent
  rejects a version mismatch before dispatching anything.
- ``shard``    parent -> worker: ``{id, cells, policy, profile,
  cache_root}``, plus ``sharing`` / ``batch`` when not ``"off"`` (the
  spec's :class:`~repro.exec.shard.PolicySet` by canonical names), plus a
  per-cell ``jobs`` list aligned with ``cells`` whose entries hold the
  set fields of each :class:`~repro.exec.shard.CellJob` (``cluster``,
  ``snapshot``, ``emit_snapshot``, ``cluster_state``,
  ``emit_cluster_state``).  An unset field is omitted from its entry,
  and the list is omitted when every entry is empty -- so a plain sweep
  shard carries no per-cell fields at all.
- ``result``   worker -> parent: ``{id, results, profile}``, plus a
  per-cell ``outcomes`` list aligned with ``results`` holding each
  :class:`~repro.exec.shard.CellOutcome`'s set ``snapshot`` /
  ``cluster_state`` (omitted under the same rule), plus the worker's
  observed ``wall_s``.
- ``error``    worker -> parent: the shard raised; ``{id, error,
  traceback}``.  The worker stays alive and keeps serving.
- ``shutdown`` parent -> worker: drain and exit 0.

Version 2 replaced version 1's singular and plural snapshot and cluster
fields with the per-cell lists; :func:`decode_message` refuses a peer
speaking any other version with :class:`~repro.errors.ProtocolError`.

Bit-identity contract: :func:`encode_result` / :func:`decode_result` must
round-trip a :class:`~repro.core.results.RunResult` *exactly* -- the frozen
reference digests are checked against decoded results.  Arrays therefore
ship as base64 raw bytes tagged with dtype and shape (never as JSON number
lists, whose parse would be lossy for exotic dtypes and 10x the size), and
scalar floats ride as plain JSON numbers, which Python serializes via
``repr`` and re-parses to the identical double.

Payload encoding tolerates numpy scalars (``np.float64``/``np.int64``/
``np.bool_`` leak easily into cell fields built from numpy-derived
sweeps); they are coerced to the equivalent Python scalars on encode, so a
round-tripped cell compares equal to one built from Python literals.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import IO

import numpy as np

from repro.arrays import decode_array, encode_array
from repro.core.phases import decode_phase, encode_phase
from repro.core.results import RunResult
from repro.core.runner import SystemCell
from repro.errors import ProtocolError, ScheduleError
from repro.exec.shard import (
    POLICY_KNOBS,
    CellJob,
    CellOutcome,
    PolicySet,
    ShardResult,
    ShardSpec,
)
from repro.journal import write_durable

__all__ = [
    "PROTOCOL_VERSION",
    "decode_cell",
    "decode_message",
    "decode_result",
    "decode_shard_result",
    "decode_shard_spec",
    "encode_cell",
    "encode_message",
    "encode_result",
    "encode_shard_request",
    "encode_shard_result",
    "read_message",
    "read_message_file",
    "write_message",
    "write_message_file",
]

#: Bump on any incompatible message-shape change; parent and worker refuse
#: to talk across versions.
PROTOCOL_VERSION = 2


class _PayloadEncoder(json.JSONEncoder):
    """JSON encoder accepting the numpy scalars that leak into payloads."""

    def default(self, obj):
        if isinstance(obj, np.bool_):
            return bool(obj)
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        return super().default(obj)


def encode_result(result: RunResult) -> dict:
    """A :class:`RunResult` as a JSON-safe dict (bit-exact round trip)."""
    return {
        "system": result.system,
        "scenario": result.scenario,
        "pair": result.pair,
        "times": encode_array(np.asarray(result.times)),
        "correct": encode_array(np.asarray(result.correct)),
        "dropped": encode_array(np.asarray(result.dropped)),
        "phases": [encode_phase(phase) for phase in result.phases],
        "duration_s": float(result.duration_s),
        "energy_j": float(result.energy_j),
        "average_power_w": float(result.average_power_w),
    }


def decode_result(payload: dict) -> RunResult:
    """The inverse of :func:`encode_result`."""
    try:
        return RunResult(
            system=payload["system"],
            scenario=payload["scenario"],
            pair=payload["pair"],
            times=decode_array(payload["times"]),
            correct=decode_array(payload["correct"]),
            dropped=decode_array(payload["dropped"]),
            phases=tuple(decode_phase(phase) for phase in payload["phases"]),
            duration_s=payload["duration_s"],
            energy_j=payload["energy_j"],
            average_power_w=payload["average_power_w"],
        )
    except (KeyError, ValueError, TypeError, ScheduleError) as exc:
        raise ProtocolError(f"malformed result payload: {exc}")


_CELL_FIELDS = ("system", "pair", "scenario", "seed", "duration_s")


def encode_cell(cell: SystemCell) -> dict:
    """A grid cell as a JSON-safe dict (numpy scalars coerced)."""
    if not isinstance(cell, SystemCell):
        raise ProtocolError(f"unknown grid cell type {type(cell)!r}")
    return {
        "type": "system",
        "system": cell.system,
        "pair": cell.pair,
        "scenario": cell.scenario,
        "seed": int(cell.seed),
        "duration_s": (
            None if cell.duration_s is None else float(cell.duration_s)
        ),
    }


def _type_name(value) -> str:
    """The type of a decoded JSON value, for error messages."""
    return "null" if value is None else type(value).__name__


def _cell_fields(payload: dict) -> dict:
    """The fields of a cell payload, each of its expected type.

    Names are strings, the seed an int, and the duration null or a number.
    """
    try:
        fields = {name: payload[name] for name in _CELL_FIELDS}
    except KeyError as exc:
        raise ProtocolError(f"malformed cell payload: missing {exc}")
    for name, value in fields.items():
        if name == "seed":
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif name == "duration_s":
            ok = value is None or (
                isinstance(value, (int, float)) and not isinstance(value, bool)
            )
        else:
            ok = isinstance(value, str)
        if not ok:
            raise ProtocolError(
                f"malformed cell payload: {name} has the wrong type "
                f"({_type_name(value)})"
            )
    return fields


def decode_cell(payload: dict) -> SystemCell:
    """The inverse of :func:`encode_cell`."""
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"cell payload must be an object, not {_type_name(payload)}"
        )
    kind = payload.get("type")
    if kind != "system":
        raise ProtocolError(f"unknown cell type {kind!r}")
    return SystemCell(**_cell_fields(payload))


#: Each per-cell field on the wire, with its JSON type.  An entry holds
#: only the fields that are set: None and False are omitted.
_JOB_FIELDS = {
    "cluster": str,
    "snapshot": dict,
    "emit_snapshot": bool,
    "cluster_state": dict,
    "emit_cluster_state": bool,
}
_OUTCOME_FIELDS = {"snapshot": dict, "cluster_state": dict}


def _per_cell_entries(items, fields: dict) -> list[dict] | None:
    """Each item's set fields, or None when no item sets any."""
    entries = [
        {
            name: value
            for name in fields
            if (value := getattr(item, name)) is not None
            and value is not False
        }
        for item in items
    ]
    return entries if any(entries) else None


#: Each :class:`PolicySet` field's message key.  ``policy`` is always sent,
#: the others only when not at their default: the off path keeps its bytes.
_POLICY_KEYS = {"numeric": "policy", "sharing": "sharing", "batch": "batch"}


def _encode_policies(policies: PolicySet) -> dict:
    wire = {}
    for name, key in _POLICY_KEYS.items():
        value = getattr(policies, name)
        if key == "policy" or value != POLICY_KNOBS[name].default:
            wire[key] = value.name
    return wire


def _decode_policies(message: dict) -> PolicySet:
    """Canonical names only (no aliases); an absent key is the default."""
    values = {}
    for name, key in _POLICY_KEYS.items():
        knob = POLICY_KNOBS[name]
        wanted = message.get(key, knob.default.name)
        if not isinstance(wanted, str) or wanted not in knob.by_name:
            raise ProtocolError(
                f"malformed message: {key} must be one of "
                f"{', '.join(knob.by_name)}, not {wanted!r}"
            )
        values[name] = knob.by_name[wanted]
    return PolicySet(**values)


def encode_shard_request(spec: ShardSpec) -> dict:
    """The ``shard`` message dispatching one :class:`ShardSpec`."""
    policies = _encode_policies(spec.policies)
    message = {
        "v": PROTOCOL_VERSION,
        "kind": "shard",
        "id": spec.key,
        "cells": [encode_cell(cell) for cell in spec.cells],
        "policy": policies.pop("policy"),
        "profile": bool(spec.profile),
        "cache_root": spec.cache_root,
        **policies,
    }
    jobs = _per_cell_entries(spec.jobs, _JOB_FIELDS)
    if jobs is not None:
        message["jobs"] = jobs
    return message


def _list(message: dict, name: str) -> list:
    """A list-valued message field; absent means empty."""
    value = message.get(name, [])
    if not isinstance(value, list):
        raise ProtocolError(
            f"malformed message: {name} must be a list, "
            f"not {_type_name(value)}"
        )
    return value


def _field(message: dict, name: str, kind: type, default):
    """A message field of JSON type ``kind``; absent means ``default``."""
    value = message.get(name, default)
    if not isinstance(value, kind):
        raise ProtocolError(
            f"malformed message: {name} must be {kind.__name__}, "
            f"not {_type_name(value)}"
        )
    return value


def _optional(message: dict, name: str, kind: type):
    """An optional message field: absent or null, else a ``kind``."""
    value = message.get(name)
    if value is not None and not isinstance(value, kind):
        raise ProtocolError(
            f"malformed message: {name} must be {kind.__name__} or null, "
            f"not {_type_name(value)}"
        )
    return value


def _per_cell(message: dict, name: str, count: int, fields: dict) -> list:
    """An optional per-cell list: ``count`` objects of known, typed fields.

    Absent means every entry is empty.
    """
    if message.get(name) is None:
        return [{}] * count
    entries = _list(message, name)
    if len(entries) != count or not all(
        isinstance(entry, dict)
        and all(
            key in fields and isinstance(value, fields[key])
            for key, value in entry.items()
        )
        for entry in entries
    ):
        raise ProtocolError(
            f"malformed message: {name} must hold one valid entry per "
            f"cell ({count})"
        )
    return entries


def decode_shard_spec(message: dict) -> ShardSpec:
    """A worker-side :class:`ShardSpec` from a ``shard`` message.

    Worker-side indices are synthetic (the parent keeps the real grid
    positions); only identity, jobs, and execution context cross the
    wire.  A field of the wrong JSON type, a policy that is not a
    canonical name, or a per-cell list that does not match the cells
    raises :class:`ProtocolError` -- nothing is coerced.
    """
    cells = tuple(decode_cell(entry) for entry in _list(message, "cells"))
    entries = _per_cell(message, "jobs", len(cells), _JOB_FIELDS)
    return ShardSpec(
        key=_field(message, "id", str, ""),
        jobs=tuple(
            CellJob(cell, **entry) for cell, entry in zip(cells, entries)
        ),
        indices=tuple(range(len(cells))),
        policies=_decode_policies(message),
        profile=_field(message, "profile", bool, False),
        cache_root=_optional(message, "cache_root", str),
    )


def encode_shard_result(result: ShardResult) -> dict:
    """The ``result`` message for one completed shard."""
    message = {
        "v": PROTOCOL_VERSION,
        "kind": "result",
        "id": result.key,
        "results": [encode_result(run) for run in result.results],
        "profile": result.profile,
    }
    outcomes = _per_cell_entries(result.outcomes, _OUTCOME_FIELDS)
    if outcomes is not None:
        message["outcomes"] = outcomes
    if result.wall_s is not None:
        message["wall_s"] = float(result.wall_s)
    return message


def decode_shard_result(message: dict) -> ShardResult:
    """A parent-side :class:`ShardResult` from a ``result`` message.

    A field of the wrong JSON type (``id`` included), per-cell outcomes
    that do not match the results, or a ``wall_s`` that is not a finite
    float >= 0 raises :class:`ProtocolError`.
    """
    results = tuple(
        decode_result(entry) for entry in _list(message, "results")
    )
    entries = _per_cell(message, "outcomes", len(results), _OUTCOME_FIELDS)
    wall_s = message.get("wall_s")
    # The encoder always writes a float; NaN fails the comparison.
    if wall_s is not None and not (
        isinstance(wall_s, float) and 0.0 <= wall_s < math.inf
    ):
        raise ProtocolError(
            "malformed message: wall_s must be a finite float >= 0"
        )
    return ShardResult(
        key=_field(message, "id", str, ""),
        outcomes=tuple(
            CellOutcome(run, **entry) for run, entry in zip(results, entries)
        ),
        profile=_optional(message, "profile", dict),
        wall_s=wall_s,
    )


def encode_message(message: dict) -> str:
    """One protocol message as a single JSON line (no embedded newlines)."""
    return json.dumps(
        message, cls=_PayloadEncoder, separators=(",", ":")
    )


def decode_message(line: str) -> dict:
    """Parse and version-check one protocol line."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"undecodable protocol line: {exc}")
    if not isinstance(message, dict) or "kind" not in message:
        raise ProtocolError("protocol message must be an object with 'kind'")
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this process speaks {PROTOCOL_VERSION}"
        )
    return message


def write_message(stream: IO[str], message: dict) -> None:
    """Write one message line and flush (pipes are request/response)."""
    stream.write(encode_message(message) + "\n")
    stream.flush()


def read_message(stream: IO[str]) -> dict | None:
    """Read the next message line; None only on true EOF.

    Blank lines are skipped, not conflated with EOF: an ssh-wrapped
    channel can emit empty keepalive lines mid-conversation, and
    misreading one as "worker exited" would retire a healthy worker.
    """
    while True:
        line = stream.readline()
        if not line:
            return None
        line = line.strip()
        if line:
            return decode_message(line)


def write_message_file(path: str | Path, message: dict) -> Path:
    """Store-and-forward framing: one message per file, atomically.

    The queue transport's variant of :func:`write_message`: the identical
    JSON-lines encoding (results round-trip bit-exactly either way), but
    framed as a whole file whose *appearance* is the delivery event.  The
    message lands by :func:`repro.journal.write_durable` (temp file in the
    same directory, fsync, rename, directory fsync) -- a reader can never
    observe a partial message, and a writer killed mid-post leaves only a
    ``.tmp`` file the queue ignores.
    """
    data = (encode_message(message) + "\n").encode()
    write_durable(path, lambda handle: handle.write(data))
    return Path(path)


def read_message_file(path: str | Path) -> dict | None:
    """Read one store-and-forward message file; None if it is not there.

    Raises :class:`ProtocolError` for a file that exists but does not
    parse or speaks the wrong protocol version -- a *corrupt* message
    must surface as a typed failure, never be skipped as if undelivered.
    """
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        return None
    line = text.strip()
    if not line:
        raise ProtocolError(f"message file {path} is empty")
    return decode_message(line.splitlines()[0])
