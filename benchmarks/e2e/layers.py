"""What the traced run wraps, and how its spans become per-layer metrics.

Layer names are ``src/repro`` modules.  Every target is a public function
or method called at a layer boundary; a few private ones (worker spawn,
journal compaction) are named where no public call marks the boundary,
and simply show up as absent if a refactor removes them.

``PER_LAYER`` lists the metrics a traced run prints, in order, with
units; ``BENCHMARK.json`` declares the same list.  A layer a workload
never calls reports 0, which is the prediction for that workload (the
README's table says which layer should be near zero where).
"""

from __future__ import annotations

import json

from stats import percentile
from trace import Target, within

__all__ = ["PER_LAYER", "TARGETS", "layer_metrics", "window_phases"]


def _elements(args, kwargs, result):
    return {"elems": int(getattr(args[0], "size", 0))}


def _bank_members(args, kwargs, result):
    return {"members": len(args[0].models)}


def _group_members(args, kwargs, result):
    return {"members": len(args[0])}


def _bytes_out(args, kwargs, result):
    return {"bytes": len(result)}


def _bytes_in(args, kwargs, result):
    return {"bytes": len(args[0])}


def _json_bytes(args, kwargs, result):
    return {"bytes": len(json.dumps(result, separators=(",", ":")))}


def _hit(args, kwargs, result):
    return {"hit": result is not None}


def _dispatch(args, kwargs, result):
    backend, specs = args[0], args[1]
    done = [outcome for outcome in result if hasattr(outcome, "results")]
    return {
        "slots": min(getattr(backend, "workers", 1), len(specs)),
        "shards": len(specs),
        "exec_s": sum(outcome.wall_s or 0.0 for outcome in done),
        "failures": len(result) - len(done),
    }


def _scheduled_cells(args, kwargs, result):
    return {
        "cells": [
            [cell.scenario, cell.seed, cell.duration_s]
            for spec in args[1]
            for cell in spec.cells
        ]
    }


def _window(args, kwargs, result):
    return {"stream": args[1], "index": args[2], "mode": args[3]}


def _commit_span(name):
    """Also trace the commit callback of the phase ``do_label``/``do_retrain``
    return: that callback, run later by the phase loop, does the work."""

    def rewrap(tracer, result):
        step = result[0]
        if step is not None and step.commit is not None:
            step.commit = tracer.wrap(step.commit, name)
        return result

    return rewrap


_RATES = ("inference_rate", "labeling_rate", "training_rate")
_PLATFORMS = (
    "repro.platform.dacapo.DaCapoPlatform",
    "repro.platform.dacapo.DaCapoTimeShared",
    "repro.platform.gpu.GpuPlatform",
)
#: Codec functions only: the pipe framings (``write_message``,
#: ``read_message``) block on the peer, which is transport time.
_PROTOCOL = "repro.exec.protocol."
_JOURNAL = "repro.service.session.SessionJournal."
_CLUSTER = "repro.share.runtime.ClusterRuntime."

TARGETS: tuple[Target, ...] = (
    Target("repro.data.stream.ScenarioStream.materialize", "data.materialize"),
    Target(
        "repro.learn.quantized.effective_quantize", "mx.quantize", _elements
    ),
    Target("repro.learn.mlp.MLPClassifier.forward", "learn.forward"),
    Target("repro.learn.mlp.MLPClassifier.train_step", "learn.train"),
    Target("repro.learn.train.train_sgd", "learn.train"),
    Target(
        "repro.learn.mlp.BatchedMLPBank.forward", "learn.batched",
        _bank_members,
    ),
    Target(
        "repro.learn.train.train_sgd_batched", "learn.batched",
        _group_members,
    ),
    *(
        Target(f"{platform}.{rate}", "platform.rate")
        for platform in _PLATFORMS
        for rate in _RATES
    ),
    Target("repro.core.runner.build_system", "core.build"),
    Target(
        "repro.core.system.CLSystemBase.do_label", "core.label",
        rewrap=_commit_span("core.label"),
    ),
    Target(
        "repro.core.system.CLSystemBase.do_retrain", "core.retrain",
        rewrap=_commit_span("core.retrain"),
    ),
    Target("repro.core.system.RunExecution.run_to_end", "core.loop"),
    Target(
        "repro.core.snapshot.encode_run_snapshot", "snapshot.encode",
        _json_bytes,
    ),
    Target("repro.core.snapshot.decode_run_snapshot", "snapshot.decode"),
    *(
        Target(_PROTOCOL + name, "protocol.encode")
        for name in (
            "encode_result", "encode_cell", "encode_shard_request",
            "encode_shard_result", "write_message_file",
        )
    ),
    Target(_PROTOCOL + "encode_message", "protocol.encode", _bytes_out),
    *(
        Target(_PROTOCOL + name, "protocol.decode")
        for name in (
            "decode_result", "decode_cell", "decode_shard_spec",
            "decode_shard_result", "read_message_file",
        )
    ),
    Target(_PROTOCOL + "decode_message", "protocol.decode", _bytes_in),
    Target(
        "repro.exec.scheduler.Scheduler.run", "transport.schedule",
        _scheduled_cells,
    ),
    Target("repro.exec.backends.SerialBackend.run", "transport.run", _dispatch),
    Target(
        "repro.exec.backends.SubprocessWorkerBackend.run", "transport.run",
        _dispatch,
    ),
    Target("repro.exec.queue.QueueBackend.run", "transport.run", _dispatch),
    Target("repro.exec.backends._WorkerHandle.__init__", "transport.spawn"),
    Target(
        "repro.exec.queue.QueueBackend._maintain_workers", "transport.spawn"
    ),
    Target("repro.exec.backends.SubprocessWorkerBackend.close",
           "transport.close"),
    Target("repro.exec.queue.QueueBackend.close", "transport.close"),
    Target("repro.exec.shard.execute_shard", "worker.execute"),
    Target("repro.exec.faults.on_claim", "worker.claim"),
    Target("repro.exec.batched.BatchConductor.submit", "batched.wait"),
    Target("repro.exec.batched.run_lane_jobs", "batched.lanes"),
    Target(_CLUSTER + "activate", "share.activate"),
    Target(_CLUSTER + "shared_labels", "share.shared_labels", _hit),
    Target(_CLUSTER + "publish_labels", "share.publish_labels"),
    Target(_CLUSTER + "adopt_student", "share.adopt_student"),
    Target(_CLUSTER + "reusable_retrain", "share.reusable_retrain", _hit),
    Target(_CLUSTER + "publish_retrain", "share.publish_retrain"),
    Target("repro.exec.scheduler.SweepJournal.record", "sweep_journal"),
    Target(_JOURNAL + "record_window", "journal.window", _window),
    Target(_JOURNAL + "record_snapshot", "journal.snapshot"),
    Target(_JOURNAL + "record_cluster", "journal.cluster"),
    Target(_JOURNAL + "record_event", "journal.event"),
    Target(_JOURNAL + "_compact", "journal.compact"),
)

#: (metric, unit, better) in print order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("data.materialize.s", "s", "lower"),
    ("data.materialize.calls", "count", "lower"),
    ("data.materialize.setup_s", "s", "lower"),
    ("mx.quantize.s", "s", "lower"),
    ("mx.quantize.calls", "count", "lower"),
    ("mx.quantize.elems", "count", "lower"),
    ("learn.forward.s", "s", "lower"),
    ("learn.train.s", "s", "lower"),
    ("learn.calls", "count", "lower"),
    ("learn.dispatches", "count", "lower"),
    ("learn.batched.s", "s", "lower"),
    ("learn.batched.calls", "count", "lower"),
    ("platform.rate.s", "s", "lower"),
    ("platform.rate.calls", "count", "lower"),
    ("core.build.s", "s", "lower"),
    ("core.label.s", "s", "lower"),
    ("core.retrain.s", "s", "lower"),
    ("core.loop.s", "s", "lower"),
    ("core.retrain.mx_share", "ratio", "lower"),
    ("snapshot.encode.s", "s", "lower"),
    ("snapshot.decode.s", "s", "lower"),
    ("snapshot.calls", "count", "lower"),
    ("snapshot.bytes", "B", "lower"),
    ("protocol.encode.s", "s", "lower"),
    ("protocol.decode.s", "s", "lower"),
    ("protocol.bytes", "B", "lower"),
    ("transport.overhead_s", "s", "lower"),
    ("transport.worker_import_s", "s", "lower"),
    ("transport.worker_idle_s", "s", "lower"),
    ("transport.workers_spawned", "count", "lower"),
    ("transport.shards", "count", "lower"),
    ("transport.retries", "count", "lower"),
    ("transport.worker_peak_rss_mib", "MiB", "lower"),
    ("batched.wait_s", "s", "lower"),
    ("batched.requests", "count", "lower"),
    ("batched.stacked_ratio", "ratio", "higher"),
    ("share.s", "s", "lower"),
    ("share.calls", "count", "lower"),
    ("share.label_reuse_ratio", "ratio", "higher"),
    ("share.retrain_reuse_ratio", "ratio", "higher"),
    ("sweep_journal.s", "s", "lower"),
    ("sweep_journal.calls", "count", "lower"),
    ("journal.window.s", "s", "lower"),
    ("journal.snapshot.s", "s", "lower"),
    ("journal.calls", "count", "lower"),
    ("journal.max_record_s", "s", "lower"),
    ("journal.bytes", "B", "lower"),
    ("window.queue_p50_s", "s", "lower"),
    ("window.queue_p90_s", "s", "lower"),
    ("window.compute_p50_s", "s", "lower"),
    ("window.compute_p90_s", "s", "lower"),
    ("window.journal_p50_s", "s", "lower"),
    ("window.journal_p90_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layer(spans, prefix: str) -> tuple[float, int]:
    """Self seconds and calls of every span named ``prefix`` or ``prefix.*``."""
    seconds, calls = 0.0, 0
    for span in spans:
        name = span["name"]
        if name == prefix or name.startswith(prefix + "."):
            seconds += span["self"]
            calls += 1
    return seconds, calls


def _named(spans, name: str) -> list[dict]:
    return [span for span in spans if span["name"] == name]


def _attr_sum(spans, key: str) -> float:
    return sum(span.get("attrs", {}).get(key, 0) for span in spans)


def _retrain_mx_share(files) -> float:
    """MX seconds under retrain spans over inclusive retrain seconds."""
    mx = retrain = 0.0
    for spans in files:
        in_retrain = within(spans, "core.retrain")
        for span, nested in zip(spans, in_retrain):
            if span["name"] == "mx.quantize" and nested:
                mx += span["self"]
            elif span["name"] == "core.retrain" and not nested:
                retrain += span["end"] - span["start"]
    return _ratio(mx, retrain)


def window_phases(windows, spans) -> dict[str, list[float]]:
    """Queue, compute and journal seconds of each served window.

    ``windows`` maps ``(stream key, index)`` to ``(arrival, (scenario,
    seed, end))``.  A window's phases run from its scheduled arrival to
    the ``Scheduler.run`` call holding its cell, from there to that call's
    return (where its completion is posted), and from there to the return
    of its ``record_window``; they sum to the window's latency.
    """
    dispatched = {}
    for span in _named(spans, "transport.schedule"):
        for scenario, seed, end in span.get("attrs", {}).get("cells", ()):
            dispatched[(scenario, seed, end)] = (span["start"], span["end"])
    durable = {
        (span["attrs"]["stream"], span["attrs"]["index"]): span["end"]
        for span in _named(spans, "journal.window")
    }
    phases = {"queue": [], "compute": [], "journal": []}
    for key, (arrival, cell) in windows.items():
        if key not in durable or tuple(cell) not in dispatched:
            continue
        entered, returned = dispatched[tuple(cell)]
        phases["queue"].append(entered - arrival)
        phases["compute"].append(returned - entered)
        phases["journal"].append(durable[key] - returned)
    return phases


def layer_metrics(files, workers, *, dispatches, journal_bytes,
                  setup_spans, phases, trace_overhead) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from one traced timed section.

    Args:
        files: Span lists of the timed section, one per process.
        workers: Meta records of the worker processes started in it.
        dispatches: numpy dispatches counted in the benchmark process.
        journal_bytes: Final session journal size (0 without one).
        setup_spans: Spans of the benchmark process's set-up.
        phases: :func:`window_phases` output (empty lists without windows).
        trace_overhead: Traced over untraced operation median.
    """
    spans = [span for spans in files for span in spans]
    out: dict[str, float] = {}

    def put_layer(prefix: str) -> None:
        out[prefix + ".s"], out[prefix + ".calls"] = _layer(spans, prefix)

    put_layer("data.materialize")
    out["data.materialize.setup_s"] = _layer(
        setup_spans, "data.materialize"
    )[0]
    put_layer("mx.quantize")
    out["mx.quantize.elems"] = _attr_sum(
        _named(spans, "mx.quantize"), "elems"
    )
    forward, forward_calls = _layer(spans, "learn.forward")
    train, train_calls = _layer(spans, "learn.train")
    out["learn.forward.s"] = forward
    out["learn.train.s"] = train
    out["learn.calls"] = forward_calls + train_calls
    out["learn.dispatches"] = dispatches + sum(
        meta.get("dispatches", 0) for meta in workers
    )
    put_layer("learn.batched")
    put_layer("platform.rate")
    for part in ("build", "label", "retrain", "loop"):
        out[f"core.{part}.s"] = _layer(spans, f"core.{part}")[0]
    out["core.retrain.mx_share"] = _retrain_mx_share(files)

    encode, encodes = _layer(spans, "snapshot.encode")
    decode, decodes = _layer(spans, "snapshot.decode")
    out["snapshot.encode.s"] = encode
    out["snapshot.decode.s"] = decode
    out["snapshot.calls"] = encodes + decodes
    out["snapshot.bytes"] = _attr_sum(
        _named(spans, "snapshot.encode"), "bytes"
    )
    out["protocol.encode.s"] = _layer(spans, "protocol.encode")[0]
    out["protocol.decode.s"] = _layer(spans, "protocol.decode")[0]
    out["protocol.bytes"] = _attr_sum(
        _named(spans, "protocol.encode") + _named(spans, "protocol.decode"),
        "bytes",
    )

    runs = _named(spans, "transport.run")
    out["transport.overhead_s"] = sum(
        span["attrs"]["slots"] * (span["end"] - span["start"])
        - span["attrs"]["exec_s"]
        for span in runs
    )
    out["transport.worker_import_s"] = sum(
        meta["imported"] - meta["start"] for meta in workers
    )
    out["transport.worker_idle_s"] = sum(meta["idle_s"] for meta in workers)
    out["transport.workers_spawned"] = len(workers)
    out["transport.shards"] = _attr_sum(runs, "shards")
    out["transport.retries"] = _attr_sum(runs, "failures")
    out["transport.worker_peak_rss_mib"] = max(
        (meta["maxrss_kib"] / 1024.0 for meta in workers), default=0.0
    )

    wait, requests = _layer(spans, "batched.wait")
    out["batched.wait_s"] = wait
    out["batched.requests"] = requests
    stacked = _attr_sum(_named(spans, "learn.batched"), "members")
    out["batched.stacked_ratio"] = _ratio(stacked, requests)

    put_layer("share")
    for metric, name in (("label", "shared_labels"),
                         ("retrain", "reusable_retrain")):
        lookups = _named(spans, f"share.{name}")
        out[f"share.{metric}_reuse_ratio"] = _ratio(
            _attr_sum(lookups, "hit"), len(lookups)
        )
    put_layer("sweep_journal")

    records = [span for span in spans if span["name"].startswith("journal.")
               and span["name"] != "journal.compact"]
    for part in ("window", "snapshot"):
        out[f"journal.{part}.s"] = sum(
            span["end"] - span["start"]
            for span in _named(spans, f"journal.{part}")
        )
    out["journal.calls"] = len(records)
    out["journal.max_record_s"] = max(
        (span["end"] - span["start"] for span in records), default=0.0
    )
    out["journal.bytes"] = journal_bytes

    for phase in ("queue", "compute", "journal"):
        samples = phases.get(phase, [])
        for q in (50, 90):
            out[f"window.{phase}_p{q}_s"] = (
                percentile(samples, q) if samples else 0.0
            )
    out["unattributed_s"] = _layer(spans, "op")[0]
    out["trace_overhead"] = trace_overhead
    return {name: out[name] for name, _, _ in PER_LAYER}
