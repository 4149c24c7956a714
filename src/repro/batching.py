"""The batching policy: an explicit opt-in for multi-cell batched kernels.

Batching changes *how* the numpy work of co-sharded cells is dispatched
(K same-geometry cells advance per stacked call) without changing a single
output bit -- the batched primitives are verified slice-for-slice identical
to the serial ones.  It is still an opt-in, because an off-path that is
byte-identical to the pre-batching tree is part of the contract.  The
policy is one :class:`~repro.knobs.Knob`, :data:`BATCH` (``REPRO_BATCH``,
``--batch``; README "Policies"), with two values:

- :data:`OFF` -- the default.  Every cell runs its own serial phase loop;
  no batching code executes at all.
- :data:`ON` -- the opt-in.  The shard planner groups geometry-compatible
  cells, and the batched driver (:mod:`repro.exec.batched`) runs each
  group's cells in lockstep lanes, stacking identically-shaped
  forward/train requests into one numpy call.  Per-cell results are
  bit-identical to the serial path, so batching never selects a section
  of the reference registry (:mod:`repro.reference`): a batched run
  checks against the same frozen digests as a serial one.

This module also owns the *lane* plumbing the batched driver uses to
intercept model compute: each cell of a batch group runs on its own lane
thread, and ``MLPClassifier.forward`` / ``train_sgd`` consult
:func:`current_lane` at their top.  When no lane is installed (the default
everywhere outside the batched driver) the check is one thread-local read
and the serial code runs unchanged.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.knobs import Knob, Switch

__all__ = [
    "BATCH",
    "BATCH_ENV",
    "BATCH_POLICIES",
    "BatchPolicy",
    "OFF",
    "ON",
    "active_batching",
    "current_lane",
    "lane_scope",
    "resolve_batching",
    "suspend_lane",
    "use_batching",
]

#: Environment variable selecting the process-wide batching policy.
BATCH_ENV = "REPRO_BATCH"

#: A batching policy: its canonical name (the value ``REPRO_BATCH`` takes
#: and shard specs carry over the wire) and whether batching is on.
BatchPolicy = Switch

OFF = BatchPolicy(name="off", enabled=False)

ON = BatchPolicy(name="on", enabled=True)

#: The batching knob, with its accepted spellings (environment values, CLI
#: args).
BATCH = Knob(
    BATCH_ENV,
    OFF,
    label="batching policy",
    aliases={
        "": OFF,
        "off": OFF,
        "0": OFF,
        "no": OFF,
        "none": OFF,
        "false": OFF,
        "on": ON,
        "1": ON,
        "yes": ON,
        "true": ON,
        "batch": ON,
        "batched": ON,
    },
)

#: Supported policies by canonical name.
BATCH_POLICIES: dict[str, BatchPolicy] = BATCH.by_name

resolve_batching = BATCH.resolve
active_batching = BATCH.active
use_batching = BATCH.use


# -- lane plumbing --------------------------------------------------------
#
# A lane is the batched driver's per-cell execution context.  It lives in
# thread-local storage (one lane thread per cell), not a ContextVar: lane
# threads copy the parent's context for policy isolation, and a ContextVar
# set in the copied context would leak into every nested context manager.

_tls = threading.local()


def current_lane():
    """The batch lane intercepting this thread's model compute, if any.

    Returns ``None`` on every thread the batched driver did not start, and
    on lane threads while the conductor is executing a batched round (the
    round's own numpy calls must run the real serial kernels, not
    re-intercept themselves).
    """
    if getattr(_tls, "suspended", False):
        return None
    return getattr(_tls, "lane", None)


@contextmanager
def lane_scope(lane):
    """Install ``lane`` as this thread's interception point."""
    previous = getattr(_tls, "lane", None)
    _tls.lane = lane
    try:
        yield lane
    finally:
        _tls.lane = previous


@contextmanager
def suspend_lane():
    """Run a block with lane interception disabled on this thread."""
    previous = getattr(_tls, "suspended", False)
    _tls.suspended = True
    try:
        yield
    finally:
        _tls.suspended = previous
