"""Command-line interface: ``python -m repro``.

Subcommands:

- ``list`` -- show available experiments, systems, scenarios, and pairs.
- ``experiment <id>`` -- run one paper artifact and print its report.
- ``run <system> <pair> <scenario>`` -- run one system and print a summary.
- ``sweep <spec.toml>`` -- run a declarative fleet sweep (``--plan`` prices
  it without running; ``--out DIR`` saves JSON/CSV artifacts plus the
  completion journal ``--resume`` reads to skip already-finished shards).
- ``serve <spec.toml> --out DIR`` -- resident fleet service: pace the
  spec's streams against a real-time clock (``--speedup``), degrade
  deliberately when oversubscribed, journal every window crash-safely,
  and expose an HTTP/JSON control plane (``--control PORT``).  Restart
  on the same ``--out`` to resume; see README "Fleet service".
- ``worker`` -- (internal) shard worker speaking the JSON-lines protocol
  on stdio; launched by the subprocess backend, locally or over ssh.
  With ``--queue DIR`` it pulls from a file-system job queue instead --
  attachable to a running ``sweep --backend queue`` from any host that
  shares the filesystem.  SIGTERM/SIGINT exit gracefully, releasing the
  current shard/lease.
- ``tune <pair>`` -- offline hyperparameter search (section VI-D).

``--backend serial|process[:N]|subprocess[:N]|queue[:N]`` (on
``experiment`` and ``sweep``; also via ``$REPRO_BACKEND``) selects the
execution transport; results are bit-identical on every backend at any
worker count.  The queue backend is the fault-tolerant pull model:
workers lease shards and heartbeat, and a SIGKILLed or wedged worker's
lease expires (``$REPRO_LEASE_TTL``) so its shard is re-enqueued --
see README "Fault tolerance".

Exit statuses: configuration errors (unknown names, malformed sweep
specs, invalid ``--jobs``/``--backend`` values) exit 2 with a one-line
message instead of a traceback; execution failures (a shard that could
not be completed after the scheduler's bounded retries -- e.g. workers
kept dying) exit 3, naming the affected cells.

``--profile`` (on ``experiment`` and ``run``) prints a phase-level
wall-time breakdown (materialize / pretrain / label / retrain / inference)
after the report.  It composes with ``--jobs N``: worker shards profile
themselves and the parent merges their snapshots, so the totals are CPU
seconds across every process.

The run-wide policies -- numeric dtype (``REPRO_DTYPE``), sharing
(``--sharing``), batching (``--batch``) and backend (``--backend``) --
each resolve CLI flag > spec key > environment variable > default; see
README "Policies".  Every command but ``list`` and ``worker`` resolves
the first three once before it starts, so a bad value of their variables
exits 2 before any work.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path

from repro import profiling
from repro.batching import BATCH, use_batching
from repro.core import SYSTEM_BUILDERS, build_system, run_on_scenario
from repro.core.tuning import tune_hyperparameters
from repro.data.scenarios import SCENARIO_NAMES
from repro.errors import ConfigurationError, ExecutionError
from repro.exec import resolve_backend, resolve_jobs, use_backend
from repro.experiments import (
    EXPERIMENTS,
    run_experiment,
    supports_jobs,
)
from repro.models import MODEL_PAIRS
from repro.numeric import NUMERIC, use_policy
from repro.share.policy import SHARING, use_sharing
from repro.sweep import compile_plan, load_spec, run_sweep, write_outputs


def _cmd_list(_args: argparse.Namespace) -> int:
    print("experiments:", ", ".join(sorted(EXPERIMENTS)))
    print("systems:    ", ", ".join(SYSTEM_BUILDERS))
    print("scenarios:  ", ", ".join(SCENARIO_NAMES))
    print("pairs:      ", ", ".join(MODEL_PAIRS))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.duration is not None:
        kwargs["duration_s"] = args.duration
    if args.jobs is not None:
        if not supports_jobs(args.id):
            print(
                f"experiment {args.id!r} does not support --jobs; "
                "running serially",
                file=sys.stderr,
            )
        else:
            kwargs["jobs"] = args.jobs
    if args.backend is not None and not supports_jobs(args.id):
        print(
            f"experiment {args.id!r} does not route through the "
            "execution backends; running serially",
            file=sys.stderr,
        )
    profiler = profiling.enable() if args.profile else None
    try:
        # The ambient override is how the transport reaches runners that
        # simply call run_cells(cells, jobs=...): no per-runner plumbing.
        with use_backend(args.backend) if args.backend else nullcontext():
            result = run_experiment(args.id, **kwargs)
    finally:
        if profiler is not None:
            profiling.disable()
    print(result.report)
    if profiler is not None:
        print()
        print(profiler.report())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    profiler = profiling.enable() if args.profile else None
    try:
        system = build_system(args.system, args.pair, seed=args.seed)
        result = run_on_scenario(
            system, args.scenario, seed=args.seed, duration_s=args.duration
        )
    finally:
        if profiler is not None:
            profiling.disable()
    for key, value in result.summary().items():
        print(f"{key:22s} {value}")
    if profiler is not None:
        print()
        print(profiler.report())
    return 0


@contextmanager
def _policy_overrides(args: argparse.Namespace, spec_sharing: str | None):
    """Install the sharing and batching overrides a command runs under.

    Precedence, per knob: the CLI flag (``--sharing`` / ``--batch``) > the
    spec's ``[sweep] sharing`` key > the environment > the default (the
    last two need no override installed).
    """
    sharing = args.sharing if args.sharing is not None else spec_sharing
    with ExitStack() as stack:
        if sharing is not None:
            stack.enter_context(use_sharing(sharing))
        if args.batch is not None:
            stack.enter_context(use_batching(args.batch))
        yield


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    plan = compile_plan(spec)
    # Resolved here so --plan rejects an invalid --jobs too instead of
    # silently pricing at one worker.
    jobs = resolve_jobs(args.jobs if args.jobs is not None else 1)
    with _policy_overrides(args, spec.sharing):
        if args.plan:
            # Price the plan through the same backend resolution the real
            # run uses (explicit --backend > ambient REPRO_BACKEND >
            # default): garbage exits 2 exactly as it would without --plan,
            # and the printed worker count matches the executed estimate.
            # Backends construct lazily, so pricing spawns nothing.
            instance, plan_workers, owned = resolve_backend(
                args.backend, jobs, plan.num_cells
            )
            if owned:
                instance.close()
            print(plan.describe(jobs=plan_workers), end="")
            return 0
        profiler = profiling.enable() if args.profile else None
        try:
            result = run_sweep(
                plan,
                jobs=jobs,
                backend=args.backend,
                out_dir=args.out,
                resume=args.resume,
            )
        finally:
            if profiler is not None:
                profiling.disable()
    print(result.report)
    if profiler is not None:
        print()
        print(profiler.report())
    if args.out is not None:
        for path in write_outputs(result, args.out):
            print(f"wrote {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the service pulls in the HTTP control plane and
    # signal handling that no batch command needs.
    from repro.service.daemon import FleetService, ServiceConfig

    spec = load_spec(args.spec)
    (group,) = compile_plan(spec).groups
    cells = list(group.cells)
    config = ServiceConfig(
        out_dir=args.out,
        window_s=args.window,
        speedup=args.speedup,
        backend=args.backend,
        jobs=args.jobs if args.jobs is not None else 1,
        control_port=args.control,
        degrade=not args.no_degrade,
        stay=args.stay,
    )
    print(
        f"serving {len(cells)} stream(s) out={args.out} "
        f"speedup={args.speedup:g} window={args.window:g}s",
        flush=True,
    )
    with use_policy(group.policy), _policy_overrides(args, spec.sharing):
        service = FleetService(config, cells)
        code = service.run()
    print(f"session journal: {args.out}/session.jsonl")
    return code


def _cmd_worker(args: argparse.Namespace) -> int:
    # Imported lazily: the stdio worker loop owns stdio and is only ever
    # useful as a child of a backend (or attached to a queue directory).
    from repro.exec.worker import worker_main

    argv = []
    if args.queue is not None:
        argv += ["--queue", str(args.queue)]
    if args.drain:
        argv += ["--drain"]
    return worker_main(argv)


def _cmd_tune(args: argparse.Namespace) -> int:
    outcome = tune_hyperparameters(
        args.pair, duration_s=args.duration or 300.0, seed=args.seed
    )
    print(f"best score: {outcome.best_score:.3f}")
    print(f"best config: {outcome.best}")
    print(f"trials evaluated: {len(outcome.trials)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DaCapo (ISCA 2024) reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments/systems/scenarios/pairs")

    p_exp = sub.add_parser("experiment", help="run one paper artifact")
    p_exp.add_argument("id", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--duration", type=float, default=None,
                       help="stream seconds for end-to-end experiments")
    p_exp.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes for grid experiments; 0 uses "
                            "all cores (results are identical at any "
                            "worker count)")
    p_exp.add_argument("--profile", action="store_true",
                       help="print a phase-level wall-time breakdown "
                            "(aggregates worker processes when combined "
                            "with --jobs)")
    p_exp.add_argument("--backend", default=None, metavar="KIND[:N]",
                       help="execution backend: serial, process[:N], "
                            "subprocess[:N], or queue[:N] (results are "
                            "bit-identical on every backend)")

    p_run = sub.add_parser("run", help="run one system on one scenario")
    p_run.add_argument("system", choices=list(SYSTEM_BUILDERS))
    p_run.add_argument("pair", choices=list(MODEL_PAIRS))
    p_run.add_argument("scenario", choices=list(SCENARIO_NAMES))
    p_run.add_argument("--duration", type=float, default=None)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--profile", action="store_true",
                       help="print a phase-level wall-time breakdown")

    p_sweep = sub.add_parser(
        "sweep", help="run a declarative fleet sweep from a TOML/JSON spec"
    )
    p_sweep.add_argument("spec", type=Path,
                         help="sweep spec file (.toml or .json); shipped "
                              "examples live under examples/")
    p_sweep.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="worker processes per policy group; 0 uses "
                              "all cores (results are identical at any "
                              "worker count)")
    p_sweep.add_argument("--profile", action="store_true",
                         help="print a phase-level wall-time breakdown "
                              "(aggregates worker processes)")
    p_sweep.add_argument("--out", type=Path, default=None, metavar="DIR",
                         help="directory for JSON/CSV artifacts "
                              "(per-cell rows, aggregate rows, report)")
    p_sweep.add_argument("--plan", action="store_true",
                         help="print the compiled plan and cost estimate "
                              "without running anything")
    p_sweep.add_argument("--backend", default=None, metavar="KIND[:N]",
                         help="execution backend: serial, process[:N], "
                              "subprocess[:N], or queue[:N] -- the "
                              "fault-tolerant pull model; with --out DIR "
                              "the queue lives at DIR/queue so external "
                              "workers can attach (results are "
                              "bit-identical on every backend)")
    p_sweep.add_argument("--sharing", default=None, metavar="POLICY",
                         help="cross-camera sharing policy (off/cluster); "
                              "overrides the spec's [sweep] sharing and "
                              "$REPRO_SHARING")
    p_sweep.add_argument("--batch", default=None, metavar="POLICY",
                         help="batched multi-cell execution (off/on): "
                              "advance geometry-compatible cells in "
                              "lockstep, K cells per numpy call, with "
                              "bit-identical per-cell results; overrides "
                              "$REPRO_BATCH")
    p_sweep.add_argument("--resume", action="store_true",
                         help="skip shards already recorded in the "
                              "completion journal under --out DIR "
                              "(requires --out; the finished document is "
                              "identical to an uninterrupted run)")

    p_serve = sub.add_parser(
        "serve",
        help="resident fleet service: pace a spec's streams in real "
             "time (windowed, with degradation and crash-safe resume); "
             "restart on the same --out to resume",
    )
    p_serve.add_argument("spec", type=Path,
                         help="sweep spec file (.toml or .json) naming "
                              "the streams (see "
                              "examples/fleet_service.toml)")
    p_serve.add_argument("--out", type=Path, required=True, metavar="DIR",
                         help="service directory: session journal, final "
                              "state snapshot, and (queue backend) the "
                              "queue directory; reusing it resumes the "
                              "session")
    p_serve.add_argument("--window", type=float, default=60.0, metavar="S",
                         help="window length in stream seconds "
                              "(default 60)")
    p_serve.add_argument("--speedup", type=float, default=0.0, metavar="X",
                         help="stream seconds per wall second; 1 is real "
                              "time, 0 (default) is eager -- windows "
                              "release on completion, no deadlines")
    p_serve.add_argument("--backend", default=None, metavar="KIND[:N]",
                         help="execution backend: serial, process[:N], "
                              "subprocess[:N], or queue[:N] (queue lives "
                              "at OUT/queue so external workers can "
                              "attach)")
    p_serve.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="worker count when --backend carries no :N "
                              "(default 1)")
    p_serve.add_argument("--control", type=int, default=None,
                         metavar="PORT",
                         help="serve the HTTP/JSON control plane on this "
                              "loopback port (0 = ephemeral; the bound "
                              "port is written to OUT/control.port)")
    p_serve.add_argument("--no-degrade", action="store_true",
                         help="pin every stream at NORMAL: deadline "
                              "misses become plain lateness, every "
                              "window is still computed fresh")
    p_serve.add_argument("--stay", action="store_true",
                         help="keep serving after all streams retire "
                              "(admit more over the control plane); "
                              "default exits when idle")
    p_serve.add_argument("--sharing", default=None, metavar="POLICY",
                         help="cross-camera sharing policy (off/cluster); "
                              "overrides the spec's [sweep] sharing and "
                              "$REPRO_SHARING")
    p_serve.add_argument("--batch", default=None, metavar="POLICY",
                         help="batched multi-cell execution (off/on): "
                              "co-windowed same-geometry streams "
                              "dispatch as one batched shard instead of "
                              "K singletons, bit-identically; overrides "
                              "$REPRO_BATCH")

    p_worker = sub.add_parser(
        "worker",
        help="(internal) shard worker: JSON-lines protocol on stdio, or "
             "pull-model with --queue DIR (attachable to a running "
             "sweep from any host sharing the filesystem)",
    )
    p_worker.add_argument("--queue", type=Path, default=None, metavar="DIR",
                          help="pull shards from this queue directory "
                               "instead of stdio (a sweep run with "
                               "--backend queue --out DIR queues under "
                               "DIR/queue)")
    p_worker.add_argument("--drain", action="store_true",
                          help="with --queue: exit once no pending work "
                               "remains")

    p_tune = sub.add_parser("tune", help="offline hyperparameter search")
    p_tune.add_argument("pair", choices=list(MODEL_PAIRS))
    p_tune.add_argument("--duration", type=float, default=None)
    p_tune.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "experiment": _cmd_experiment,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "worker": _cmd_worker,
        "tune": _cmd_tune,
    }
    try:
        if args.command not in ("list", "worker"):
            # Refuse a bad policy variable now, not where a cell first
            # looks it up after minutes of pretraining.
            for knob in (NUMERIC, SHARING, BATCH):
                knob.active()
        return handlers[args.command](args)
    except ConfigurationError as exc:
        # A bad name, spec, or --jobs value is an operator mistake, not a
        # crash: one line on stderr, conventional usage-error status.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except ExecutionError as exc:
        # The configuration was fine but the dispatch layer could not
        # complete a shard (workers kept dying, protocol fault, injected
        # abort).  The ShardFailure message names the affected cells.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # Downstream consumer (head, a pager) closed the pipe mid-report.
        # Repoint stdout at devnull so the interpreter's exit-time flush
        # does not raise a second traceback, and exit like SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
