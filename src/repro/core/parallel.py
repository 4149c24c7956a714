"""Parallel experiment runner: the stable facade over ``repro.exec``.

Historically this module owned the whole dispatch story -- cell
dataclasses, stream-signature sharding, and a hard-coded
``ProcessPoolExecutor``.  That machinery now lives in :mod:`repro.exec`
as pluggable execution backends (serial / process pool / subprocess
workers speaking a JSON-lines protocol, ssh-able) behind a retrying
scheduler; this module keeps the two entry points every experiment calls
and re-exports the cell/planning names it always provided.

Backend selection, in precedence order:

1. an explicit ``backend=`` argument (``"serial"``, ``"process[:N]"``,
   ``"subprocess[:N]"``, or a constructed
   :class:`~repro.exec.backends.ExecutionBackend`);
2. the :data:`~repro.exec.backends.BACKEND` knob: an override installed
   with :func:`repro.exec.use_backend` (what the CLI's ``--backend`` flag
   does), then the ``REPRO_BACKEND`` environment variable;
3. the historical default -- serial when ``jobs <= 1`` or the grid has a
   single cell, the process pool otherwise.

Whatever the transport, results are **identical** to the serial path:
cells seed their own RNGs, shards group by stream signature so workers
share materialized streams, and submission order is restored -- the
frozen reference digests are verified across every backend.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence

from repro.core.results import RunResult
from repro.errors import ConfigurationError

# NOTE: of repro.exec, only repro.exec.shard may be imported up here.
# ``repro.core.__init__`` imports this module, and every ``repro.exec``
# module imports some ``repro.core`` submodule -- so on a cold
# ``import repro.exec`` this module executes while ``repro.exec.backends``
# is still half-initialized.  The backend/scheduler imports therefore
# happen lazily inside the functions that need them.
from repro.exec.shard import (
    Fig2Cell,
    PolicySet,
    SystemCell,
    plan_shards,
    run_cell as _run_cell,  # noqa: F401  (compat: tests/callers import it)
    stream_signature,
    warm_model_caches,
)
from repro.knobs import positive_int_env

__all__ = [
    "Fig2Cell",
    "JOBS_ENV",
    "SystemCell",
    "default_jobs",
    "parallel_map",
    "plan_shards",
    "run_cells",
    "stream_signature",
    "warm_model_caches",
]

#: Environment variable pinning the default worker count (CI, remote
#: workers) without per-command ``--jobs`` flags.
JOBS_ENV = "REPRO_JOBS"


def default_jobs() -> int:
    """The default worker count: ``$REPRO_JOBS`` if set, else usable CPUs.

    ``REPRO_JOBS`` must be a positive integer
    (:class:`ConfigurationError` otherwise); it exists so CI and remote
    workers can pin parallelism fleet-wide.  The CPU fallback uses
    ``sched_getaffinity``, which respects container/cgroup CPU masks that
    ``os.cpu_count`` does not; oversubscribing a quota-limited container
    with host-count workers is slower than running serially.
    """
    pinned = positive_int_env(JOBS_ENV)
    if pinned is not None:
        return pinned
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux
        return max(1, os.cpu_count() or 1)


def run_cells(
    cells: Sequence[SystemCell | Fig2Cell],
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
    from repro.exec.backends import resolve_backend
    from repro.exec.scheduler import execute_cells

    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = default_jobs()
    cells = list(cells)
    instance, workers, owned = resolve_backend(backend, jobs, len(cells))
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
    from repro.exec.backends import active_backend_spec, parse_backend

    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = default_jobs()
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
