"""The entry points above every transport: pick a backend, run a grid.

:func:`run_cells` runs grid cells and :func:`parallel_map` maps a
function; both pick their backend here, in precedence order:

1. an explicit ``backend=`` argument (``"serial"``, ``"process[:N]"``,
   ``"subprocess[:N]"``, ``"queue[:N]"``, or a constructed
   :class:`~repro.exec.backends.ExecutionBackend`);
2. the :data:`~repro.exec.backends.BACKEND` knob: an override installed
   with :func:`~repro.exec.backends.use_backend` (what the CLI's
   ``--backend`` flag does), then the ``REPRO_BACKEND`` environment
   variable;
3. the historical default -- serial when ``jobs <= 1`` or the grid has a
   single cell, the process pool otherwise.

Whatever the transport, results are **identical** to the serial path:
cells seed their own RNGs, shards group by stream signature so workers
share materialized streams, and submission order is restored -- the
frozen reference digests are verified across every backend.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence

from repro.core.results import RunResult
from repro.core.runner import SystemCell
from repro.errors import ConfigurationError
from repro.exec.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    SubprocessWorkerBackend,
    active_backend_spec,
    parse_backend,
    usable_cpus,
)
from repro.exec.queue import QueueBackend
from repro.exec.scheduler import execute_cells
from repro.exec.shard import PolicySet
from repro.knobs import positive_int_env

__all__ = [
    "JOBS_ENV",
    "default_jobs",
    "make_backend",
    "parallel_map",
    "resolve_backend",
    "resolve_jobs",
    "run_cells",
]

#: Environment variable pinning the default worker count (CI, remote
#: workers) without per-command ``--jobs`` flags.
JOBS_ENV = "REPRO_JOBS"


def default_jobs() -> int:
    """The default worker count: ``$REPRO_JOBS`` if set, else
    :func:`~repro.exec.backends.usable_cpus`.

    ``REPRO_JOBS`` must be a positive integer
    (:class:`ConfigurationError` otherwise); it exists so CI and remote
    workers can pin parallelism fleet-wide.
    """
    pinned = positive_int_env(JOBS_ENV)
    if pinned is not None:
        return pinned
    return usable_cpus()


def resolve_jobs(jobs: int) -> int:
    """A ``--jobs`` value as a worker count: 0 means :func:`default_jobs`."""
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    return jobs or default_jobs()


def make_backend(
    spec: str,
    default_workers: int = 1,
    queue_dir: str | None = None,
) -> ExecutionBackend:
    """Instantiate a backend from ``"kind[:N]"``.

    ``default_workers`` (typically the caller's resolved ``jobs``) fills
    in when the spec carries no ``:N`` of its own.  ``queue_dir`` pins
    the queue backend's directory (None = a private temp queue); other
    kinds ignore it.
    """
    kind, workers = parse_backend(spec)
    if workers is None:
        workers = max(1, default_workers)
    if kind == "serial":
        return SerialBackend()
    if kind == "process":
        return ProcessPoolBackend(workers)
    if kind == "queue":
        return QueueBackend(workers, directory=queue_dir)
    return SubprocessWorkerBackend(workers)


def resolve_backend(backend, jobs: int, num_cells: int, queue_dir: str | None = None):
    """Apply the selection precedence once, for every entry point.

    Precedence: explicit ``backend`` (spec string or instance) > the
    :data:`~repro.exec.backends.BACKEND` knob (override >
    ``$REPRO_BACKEND``) > the historical default (serial at ``jobs <= 1``
    or a single-cell grid, the local process pool above).  Returns
    ``(instance, planning worker count, owned)`` -- ``owned`` tells the
    caller whether it must ``close()`` the instance (specs are
    instantiated here; caller-constructed instances stay the caller's to
    manage).  ``queue_dir`` routes a spec-instantiated queue backend's
    directory (the sweep runner pins it under ``--out`` so external
    workers can find it).
    """
    spec = backend if backend is not None else active_backend_spec()
    if spec is None:
        spec = "serial" if jobs <= 1 or num_cells <= 1 else "process"
    if isinstance(spec, str):
        instance = make_backend(spec, default_workers=jobs, queue_dir=queue_dir)
        owned = True
    else:
        instance = spec
        owned = False
    workers = getattr(instance, "workers", 1)
    return instance, max(1, workers), owned


def run_cells(
    cells: Sequence[SystemCell],
    jobs: int = 1,
    backend=None,
) -> list[RunResult]:
    """Run grid cells on the selected backend; results keep cell order.

    Args:
        cells: The grid, in the order results should come back.
        jobs: Worker processes; 1 runs serially in this process and 0
            means "all cores" (:func:`default_jobs`).  A backend spec
            carrying its own ``:N`` takes precedence.
        backend: Optional backend spec string or instance; None consults
            the ambient selection (see module docstring).

    Returns:
        One :class:`RunResult` per cell, aligned with ``cells`` --
        bit-identical on every backend at any worker count.

    Raises:
        ConfigurationError: Invalid jobs/backend/cell types.
        ShardFailure: A shard could not be completed after the
            scheduler's bounded retries (e.g. workers kept dying); the
            failure names the affected cells.
    """
    cells = list(cells)
    instance, workers, owned = resolve_backend(
        backend, resolve_jobs(jobs), len(cells)
    )
    try:
        return execute_cells(cells, backend=instance, workers=workers)
    finally:
        if owned:
            instance.close()


def _policy_call(payload: tuple) -> object:
    """Run one mapped call under the parent's policies (worker side)."""
    policies, fn, item = payload
    with policies.use():
        return fn(item)


def parallel_map(
    fn: Callable, items: Iterable, jobs: int = 1
) -> list:
    """Order-preserving map, in-process or across worker processes.

    Args:
        fn: A module-level (pickleable) callable of one argument.
        items: Inputs, in the order results should come back.
        jobs: Worker processes; 1 maps in-process, 0 means "all cores".

    Lightweight experiments (Table II/III rows, the ablation sweeps) fan
    out through this rather than hand-rolling executors; results are
    identical at any jobs count.  The ambient backend selection applies
    with one caveat: arbitrary callables cannot cross the JSON shard
    protocol, so ``subprocess`` and ``queue`` degrade to the local
    process pool here (``serial`` forces in-process, and a ``:N`` pins
    the worker count).
    The parent's active :class:`~repro.exec.shard.PolicySet` is
    re-installed around every mapped call, so policy overrides survive
    into spawn-started workers exactly as they do for ``run_cells``.
    """
    jobs = resolve_jobs(jobs)
    spec = active_backend_spec()
    if spec is not None:
        kind, workers = parse_backend(spec)
        if kind == "serial":
            jobs = 1
        elif workers is not None:
            jobs = workers
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    policies = PolicySet.active()
    payloads = [(policies, fn, item) for item in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(_policy_call, payloads, chunksize=1))
