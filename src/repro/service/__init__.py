"""The resident fleet service: a supervised daemon over live camera streams.

Everything below :mod:`repro.sweep` is *batch*: a sweep starts, finishes,
and emits a document.  A production fleet is a **resident process** -- a
daemon that owns a pool of camera streams, admits new scenarios while
running, retires finished ones, and keeps running across faults.  This
package is that daemon, in four pieces:

- :mod:`repro.service.pacing` -- a real-time frame clock: windows of
  stream time *arrive* at stream rate (scaled by a ``--speedup`` factor so
  tests run fast) instead of as fast as numpy can generate them, and every
  stream tracks its deadline slack per window.
- :mod:`repro.service.degrade` -- the explicit degradation ladder invoked
  when window work misses its real-time deadline: skip the retrain window,
  then serve the stale student, then shed frames with per-stream drop
  accounting.  Every transition is journaled and reported; none is an
  exception.
- :mod:`repro.service.session` -- the long-lived session journal: a
  multi-record stream (admit / window / degrade / retire / event) in the
  same :class:`repro.journal.Journal` file the sweep journal uses, so
  SIGKILLing the daemon and restarting it resumes every admitted stream
  from its last completed window with bit-identical results for
  completed windows.
- :mod:`repro.service.control` + :mod:`repro.service.daemon` -- the
  supervisor loop dispatching per-window work through the existing
  :class:`~repro.exec.scheduler.Scheduler` (any backend, ``queue:N``
  included), plus a stdlib-only HTTP/JSON control plane exposing live
  state and admit/retire/drain commands.

CLI: ``python -m repro serve <spec> [--backend queue:N] [--control PORT]
[--speedup X]`` -- see the README "Fleet service" section.
"""

from repro.service.daemon import FleetService, ServiceConfig, StreamState
from repro.service.degrade import (
    DegradationLadder,
    DegradeLevel,
    Transition,
)
from repro.service.pacing import FrameClock, StreamPacer
from repro.service.session import (
    SESSION_VERSION,
    SessionJournal,
    session_fingerprint,
    session_path,
)

__all__ = [
    "DegradationLadder",
    "DegradeLevel",
    "FleetService",
    "FrameClock",
    "SESSION_VERSION",
    "ServiceConfig",
    "SessionJournal",
    "StreamPacer",
    "StreamState",
    "Transition",
    "session_fingerprint",
    "session_path",
]
