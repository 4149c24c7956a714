"""Deterministic fault injection: the dispatch layer's correctness tool.

Fault tolerance that is only exercised by real outages is fault tolerance
that silently rots.  A :class:`FaultPlan` is a small JSON document
describing *which* faults to inject (and how many times), armed on the
filesystem so that exactly-once semantics hold across an entire fleet of
worker processes, local or remote.

Fault kinds (:data:`FAULT_KINDS`):

- ``die-once``            the claiming worker ``os._exit``\\ s mid-shard --
  the SIGKILL/OOM shape.  Detected as pipe-EOF (subprocess), a broken
  pool (process), or an expired lease (queue).
- ``hang``                the claiming worker goes silent without dying --
  the wedged-ssh/stalled-host shape.  Detected by the
  ``REPRO_SHARD_TIMEOUT`` watchdog (subprocess) or lease expiry (queue).
- ``slow-worker``         the claiming worker sleeps a seeded delay, then
  completes normally.  Must *not* trip any failure path; exists so tests
  can check that a straggler trips none.
- ``corrupt-result``      the worker completes the shard but mangles its
  reply (seeded choice of truncation or byte garbling).  The parent must
  reject the reply before journaling and retry the shard elsewhere.
- ``torn-journal-write``  the *parent* is "killed" halfway through
  appending a journal line: the prefix is written and flushed, then the
  run aborts.  ``--resume`` must cut the torn tail.
- ``daemon-kill``         the resident fleet daemon ``os._exit``\\ s
  immediately *after* fsyncing a session-journal window record -- the
  hardest instant for crash recovery, because the restart must treat that
  window as done and everything in flight after it as never-happened.
  Target a specific window via ``match`` (contexts look like
  ``<stream key>|w<index>``).

Arming and claiming:

:func:`save_plan` writes the plan JSON *and* an adjacent token directory
(``<plan>.tokens/``) holding one file per scheduled firing.  Every
injection site calls back into this module; firing a fault requires
*claiming* a token via ``os.unlink``, which the filesystem makes atomic
and exactly-once across any number of processes.  Workers find the plan
through ``$REPRO_FAULT_PLAN`` (inherited or shipped via the worker
environment).  A one-entry ``die-once`` plan is the single-kill drill:
its token directory is empty afterwards exactly when one worker died.

Determinism: which *worker* claims a given token depends on scheduling,
but every observable fault behavior -- the slow-worker delay, the
corruption mode, the torn prefix length -- derives from
``sha256(seed, entry, firing)``, so a plan replays the same faults with
the same parameters every run, and the final documents are required to
be bit-identical to a fault-free run's.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = [
    "DIE_EXIT_CODE",
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "FaultEntry",
    "FaultPlan",
    "corrupt_reply",
    "daemon_fault",
    "journal_fault",
    "load_plan",
    "on_claim",
    "reply_fault",
    "save_plan",
    "tokens_dir",
]

#: Environment variable naming the armed fault-plan JSON file.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: The recognized fault kinds, in documentation order.
FAULT_KINDS = (
    "die-once",
    "hang",
    "slow-worker",
    "corrupt-result",
    "torn-journal-write",
    "daemon-kill",
)

#: Exit status of a worker killed by ``die-once`` (distinctive in logs).
DIE_EXIT_CODE = 13

#: How long a ``hang`` sleeps: effectively forever next to any sane
#: watchdog/lease TTL, finite so an unsupervised test cannot wedge a box.
HANG_SLEEP_S = 3600.0

#: The corruption modes ``corrupt-result`` chooses among (seeded).
CORRUPT_MODES = ("truncate", "garble")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class FaultEntry:
    """One scheduled fault.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        times: How many firings to arm (one token each).
        match: Substring the injection-site context (shard key or journal
            line) must contain for this entry to be eligible; empty
            matches everything.
        delay_s: Fixed delay for ``slow-worker`` (None = seeded default).
    """

    kind: str
    times: int = 1
    match: str = ""
    delay_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {', '.join(FAULT_KINDS)}"
            )
        if not _is_int(self.times) or self.times < 1:
            raise ConfigurationError(
                f"fault times must be an int >= 1, got {self.times!r}"
            )
        if not isinstance(self.match, str):
            raise ConfigurationError(
                f"fault match must be a string, got {self.match!r}"
            )
        delay = self.delay_s
        if delay is not None and not (
            isinstance(delay, (int, float))
            and not isinstance(delay, bool)
            and 0 <= delay < math.inf
        ):
            raise ConfigurationError(
                "fault delay_s must be null or a finite number >= 0, "
                f"got {delay!r}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of faults to inject into one run."""

    entries: tuple[FaultEntry, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not _is_int(self.seed):
            raise ConfigurationError(
                f"fault plan seed must be an int, got {self.seed!r}"
            )

    @staticmethod
    def from_mapping(data: dict) -> "FaultPlan":
        """Validate and build a plan from parsed JSON."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        raw_entries = data.get("entries", [])
        if not isinstance(raw_entries, list) or not raw_entries:
            raise ConfigurationError(
                "fault plan needs a non-empty 'entries' list"
            )
        entries = []
        for raw in raw_entries:
            if isinstance(raw, str):
                raw = {"kind": raw}
            if not isinstance(raw, dict):
                raise ConfigurationError(
                    f"fault entry must be an object or kind string, got {raw!r}"
                )
            unknown = set(raw) - {"kind", "times", "match", "delay_s"}
            if unknown:
                raise ConfigurationError(
                    f"unknown fault entry fields: {', '.join(sorted(unknown))}"
                )
            entries.append(FaultEntry(**{"kind": "", **raw}))
        return FaultPlan(entries=tuple(entries), seed=data.get("seed", 0))

    def as_mapping(self) -> dict:
        return {
            "seed": self.seed,
            "entries": [
                {
                    "kind": entry.kind,
                    "times": entry.times,
                    "match": entry.match,
                    "delay_s": entry.delay_s,
                }
                for entry in self.entries
            ],
        }


def tokens_dir(plan_path: str | Path) -> Path:
    """Where a plan's claim tokens live (adjacent to the plan file)."""
    plan_path = Path(plan_path)
    return plan_path.with_name(plan_path.name + ".tokens")


def save_plan(plan: FaultPlan, path: str | Path) -> Path:
    """Write the plan JSON and arm its claim tokens; returns the path.

    Arming writes one token file per scheduled firing under
    :func:`tokens_dir`.  Re-saving re-arms: leftover tokens from a
    previous run are cleared first, so a plan never fires stale faults.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(plan.as_mapping(), indent=2) + "\n")
    tokens = tokens_dir(path)
    if tokens.exists():
        for stale in tokens.iterdir():
            stale.unlink()
    tokens.mkdir(parents=True, exist_ok=True)
    for index, entry in enumerate(plan.entries):
        for firing in range(entry.times):
            (tokens / f"{index:03d}.{firing:03d}.token").touch()
    return path


def load_plan(path: str | Path) -> FaultPlan:
    """Parse and validate a fault-plan JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"fault plan {path} does not exist")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"fault plan {path} is not valid JSON: {exc}")
    return FaultPlan.from_mapping(data)


def _active_plan() -> tuple[FaultPlan, Path] | None:
    """The armed plan named by ``$REPRO_FAULT_PLAN``, if any."""
    raw = os.environ.get(FAULT_PLAN_ENV, "").strip()
    if not raw:
        return None
    path = Path(raw)
    return load_plan(path), path


def _fraction(seed: int, index: int, firing: int, salt: str) -> float:
    """A deterministic value in [0, 1) for one (entry, firing) pair."""
    digest = hashlib.sha256(
        f"{seed}|{index}|{firing}|{salt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _claim(plan_path: Path, index: int, firing: int) -> bool:
    """Atomically claim one firing token; True exactly once fleet-wide."""
    token = tokens_dir(plan_path) / f"{index:03d}.{firing:03d}.token"
    try:
        os.unlink(token)
    except OSError:
        return False
    return True


def _claim_kind(kinds: tuple[str, ...], context: str):
    """Claim the first armed firing among ``kinds`` matching ``context``.

    Returns ``(entry, index, firing)`` or None.  Tokens are probed in
    plan order, lowest firing first, so a plan fires its entries in the
    order they were written.
    """
    active = _active_plan()
    if active is None:
        return None
    plan, path = active
    for index, entry in enumerate(plan.entries):
        if entry.kind not in kinds:
            continue
        if entry.match and entry.match not in context:
            continue
        for firing in range(entry.times):
            if _claim(path, index, firing):
                return plan, entry, index, firing
    return None


def on_claim(context: str) -> None:
    """The worker-side injection point, called as a shard is claimed.

    Fires at most one of ``die-once`` / ``hang`` / ``slow-worker`` per
    claim.  The queue worker calls it before its heartbeat starts, so a
    hang sends no heartbeat -- a genuinely wedged process stops beating
    too, and a hang that kept beating would never be detected.
    """
    claimed = _claim_kind(("die-once", "hang", "slow-worker"), context)
    if claimed is None:
        return
    plan, entry, index, firing = claimed
    if entry.kind == "die-once":
        os._exit(DIE_EXIT_CODE)
    if entry.kind == "hang":
        time.sleep(HANG_SLEEP_S)
        # Unreachable under any sane watchdog/TTL; if truly unsupervised,
        # wake up and keep serving rather than leaking a zombie forever.
        return
    # slow-worker: a seeded straggler delay, then business as usual.
    delay = entry.delay_s
    if delay is None:
        delay = 0.05 + 0.25 * _fraction(plan.seed, index, firing, "slow")
    time.sleep(delay)


def reply_fault(context: str) -> str | None:
    """Claim a ``corrupt-result`` firing; returns the corruption mode.

    The mode (one of :data:`CORRUPT_MODES`) is a seeded choice, so a
    given plan corrupts the same way every run.  None when nothing fires.
    """
    claimed = _claim_kind(("corrupt-result",), context)
    if claimed is None:
        return None
    plan, _entry, index, firing = claimed
    pick = _fraction(plan.seed, index, firing, "corrupt")
    return CORRUPT_MODES[int(pick * len(CORRUPT_MODES))]


def corrupt_reply(message: dict, mode: str) -> dict:
    """Apply one corruption mode to an encoded ``result`` message.

    ``truncate`` drops the final per-cell result (the parent's
    length-vs-spec check must catch it); ``garble`` replaces a result's
    array payload with bytes that are not base64 (the decode must fail
    before anything reaches a journal).  Both leave the message *well-
    formed JSON* -- the dangerous corruptions are the ones that still
    parse.
    """
    message = dict(message)
    results = list(message.get("results", ()))
    if mode == "truncate" and results:
        message["results"] = results[:-1]
        return message
    if results:
        first = dict(results[0])
        times = dict(first.get("times", {}))
        times["data"] = "!!not-base64!!"
        first["times"] = times
        results[0] = first
        message["results"] = results
        return message
    # Nothing to mangle (empty shard): make the payload shape invalid.
    message["results"] = [{"corrupt": True}]
    return message


def daemon_fault(context: str = "") -> None:
    """Claim a ``daemon-kill`` firing; dies abruptly when one is armed.

    Called by the session journal immediately after a window record is
    fully fsynced: the ``os._exit`` is the SIGKILL shape (no atexit, no
    finally blocks, no flushing), landing at the exact instant recovery
    is hardest.  A no-op when no plan is armed or nothing matches.
    """
    claimed = _claim_kind(("daemon-kill",), context)
    if claimed is None:
        return
    os._exit(DIE_EXIT_CODE)


def journal_fault(context: str = "") -> float | None:
    """Claim a ``torn-journal-write`` firing.

    Returns the seeded fraction of the line to write before "dying"
    (in (0, 1)), or None when nothing fires.  The journal writes that
    prefix, flushes it to disk, and aborts the run -- exactly the state
    a kill mid-``write`` leaves behind.
    """
    claimed = _claim_kind(("torn-journal-write",), context)
    if claimed is None:
        return None
    plan, _entry, index, firing = claimed
    return 0.1 + 0.8 * _fraction(plan.seed, index, firing, "torn")
