"""A shard worker with the benchmark's tracing installed.

The traced run points ``REPRO_WORKER_CMD`` here, which the subprocess and
queue backends both honour, so their workers run this instead of
``python -m repro worker`` (arguments such as ``--queue DIR`` pass
through).  It stamps process start and the end of the program's imports,
wraps the same targets as the parent, and at exit writes its spans to
``$TRACE_DIR/<pid>.jsonl`` for the parent to merge.
"""

import time

STARTED = time.monotonic()

import atexit  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

from repro.exec.worker import worker_main  # noqa: E402
from repro.learn import ops  # noqa: E402

IMPORTED = time.monotonic()

from layers import TARGETS  # noqa: E402
from trace import END, PARENT, START, THREAD, Tracer, clock  # noqa: E402


def _flush(tracer: Tracer, installed: float, dispatches: int) -> None:
    """Write this worker's spans; idle is the time after set-up that no
    top-level span of the serving thread covers."""
    tracer.uninstall()
    finish = clock()
    main = threading.main_thread().ident
    busy = sum(
        span[END] - span[START]
        for span in tracer.spans
        if span[PARENT] is None and span[THREAD] == main
    )
    tracer.write(
        os.path.join(os.environ["TRACE_DIR"], f"{os.getpid()}.jsonl"),
        {
            "role": "worker",
            "pid": os.getpid(),
            "start": STARTED,
            "imported": IMPORTED,
            "exit": finish,
            "idle_s": finish - installed - busy,
            "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "dispatches": ops.dispatch_count() - dispatches,
            "absent": tracer.absent,
        },
    )


if __name__ == "__main__":
    tracer = Tracer()
    tracer.install(TARGETS)
    atexit.register(_flush, tracer, clock(), ops.dispatch_count())
    sys.exit(worker_main(sys.argv[1:]))
