"""The in-process cluster state: label sharing, warm starts, delta merging.

One :class:`ClusterRuntime` holds everything a cluster's members reuse:

- **Shared teacher labels** -- the first member to label a (domain token,
  time slot) publishes the sampled features and teacher labels; neighbors
  hitting the same (token, slot) adopt them instead of running the teacher.
- **Warm starts** -- the first member's pretrained student becomes the
  cluster *base*; later members start from the cluster's freshest weights
  (so a new camera inherits everything its neighbors already learned).
- **Per-domain weight deltas** -- after a retrain, a member publishes its
  weights as a delta against the base, keyed by the domain token it
  retrained in.  A neighbor entering the same domain substitutes
  ``base + delta`` for its own retrain (DAM's adapter reuse); when two
  members publish diverging deltas for one domain, they are blended
  ``(1 - alpha) * old + alpha * new`` (DAM's merge rule, ``alpha`` =
  :data:`~repro.share.policy.MERGE_ALPHA`) instead of either winning
  outright.

A runtime exists only under :data:`~repro.share.policy.CLUSTER`, the one
enabled sharing policy, so all three reuse paths are always on.

The runtime is installed with :meth:`ClusterRuntime.activate` around one
cell's execution; the hooks in ``core/system.py`` and ``learn/student.py``
consult :func:`active_cluster_runtime` and do nothing when it is ``None``
-- the default off-path runs zero sharing code.

For the service layer, :func:`encode_cluster_state` /
:func:`decode_cluster_state` round-trip the *weight* state (base, freshest,
deltas, counters) through the session journal so a cluster's windows share
learning across daemon restarts.  The label cache is deliberately not
journaled (it is large and only worth sharing in-process); label reuse
still applies whenever a cluster's cells are co-located on one shard,
which the cluster-aware planner guarantees for sweeps.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.arrays import decode_state, encode_state
from repro.errors import ConfigurationError, SnapshotError
from repro.share.fingerprint import cell_fingerprint
from repro.share.policy import CLUSTER, MERGE_ALPHA

__all__ = [
    "ClusterRuntime",
    "active_cluster_runtime",
    "decode_cluster_state",
    "encode_cluster_state",
]

#: Version tag of the journaled cluster-state payload.
CLUSTER_STATE_VERSION = 1

_runtime: ContextVar["ClusterRuntime | None"] = ContextVar(
    "repro_cluster_runtime", default=None
)


def active_cluster_runtime() -> "ClusterRuntime | None":
    """The cluster runtime active for the current cell, if any."""
    return _runtime.get()


def _state_delta(state, base):
    """Per-layer ``state - base`` (same snapshot structure)."""
    return (
        [w - bw for w, bw in zip(state[0], base[0])],
        [b - bb for b, bb in zip(state[1], base[1])],
    )


def _state_add(base, delta):
    """Per-layer ``base + delta`` (same snapshot structure)."""
    return (
        [bw + dw for bw, dw in zip(base[0], delta[0])],
        [bb + db for bb, db in zip(base[1], delta[1])],
    )


def _state_blend(old, new, alpha: float):
    """Per-layer ``(1 - alpha) * old + alpha * new``."""
    return (
        [(1.0 - alpha) * ow + alpha * nw for ow, nw in zip(old[0], new[0])],
        [(1.0 - alpha) * ob + alpha * nb for ob, nb in zip(old[1], new[1])],
    )


def _state_shapes(state):
    return tuple(w.shape for w in state[0]) + tuple(b.shape for b in state[1])


@dataclass
class _DeltaEntry:
    """One published per-domain weight delta."""

    member: str
    slot: int
    delta: tuple


def _fresh_counters() -> dict[str, int]:
    return {
        "labels_computed": 0,
        "labels_shared": 0,
        "retrains_run": 0,
        "retrains_reused": 0,
        "retrain_samples": 0,
        "retrain_samples_reused": 0,
        "warm_starts": 0,
        "merges": 0,
    }


@dataclass
class ClusterRuntime:
    """Mutable shared state of one camera cluster.

    Created per cluster per shard (sweep path) or decoded from the session
    journal per window (service path).  Not thread-safe: a cluster's cells
    run sequentially on one shard by construction.
    """

    cluster_id: str
    segment_s: float = 60.0
    base_model: str | None = None
    base: tuple | None = None
    freshest: tuple | None = None
    deltas: dict[str, _DeltaEntry] = field(default_factory=dict)
    labels: dict[tuple[str, int], tuple] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=_fresh_counters)

    _member: str | None = None
    _tokens: tuple[str, ...] = ()

    @contextmanager
    def activate(self, cell):
        """Install this runtime for the execution of one member cell."""
        fingerprint = cell_fingerprint(cell)
        duration = (
            "def" if cell.duration_s is None else f"{cell.duration_s:g}"
        )
        self._member = f"{cell.scenario}/s{cell.seed}/{duration}"
        self._tokens = fingerprint.tokens
        self.segment_s = fingerprint.segment_s
        token = _runtime.set(self)
        try:
            yield self
        finally:
            _runtime.reset(token)
            self._member = None
            self._tokens = ()

    def _slot(self, t0: float) -> int:
        return int(t0 // self.segment_s)

    def _token_at(self, t0: float) -> str | None:
        if not self._tokens:
            return None
        index = min(self._slot(t0), len(self._tokens) - 1)
        return self._tokens[index]

    # -- teacher-label sharing -------------------------------------------

    def shared_labels(self, t0: float):
        """A neighbor's (features, labels) for this (domain, slot), or None."""
        domain = self._token_at(t0)
        if domain is None:
            return None
        entry = self.labels.get((domain, self._slot(t0)))
        if entry is None or entry[0] == self._member:
            return None
        _, x, y = entry
        self.counters["labels_shared"] += len(x)
        return x, y

    def publish_labels(self, t0: float, x, y) -> None:
        """Record a freshly computed teacher labeling for neighbors."""
        self.counters["labels_computed"] += len(x)
        domain = self._token_at(t0)
        if domain is None:
            return
        key = (domain, self._slot(t0))
        if key not in self.labels:
            self.labels[key] = (self._member, x, y)

    # -- student warm starts and per-domain delta reuse ------------------

    def adopt_student(self, model_name: str, mlp) -> None:
        """Warm-start a freshly built student from cluster state.

        The first member's pretrain becomes the cluster base (the common
        origin all deltas are expressed against); later members of the
        same architecture start from the freshest published weights.
        """
        if self.base is None:
            self.base = mlp.snapshot()
            self.base_model = model_name
            return
        if model_name != self.base_model or self.freshest is None:
            return
        if _state_shapes(self.freshest) != _state_shapes(mlp.snapshot()):
            return
        mlp.restore(self.freshest)
        self.counters["warm_starts"] += 1

    def reusable_retrain(self, t0: float, samples: int):
        """A neighbor's weights for this domain, or None to retrain.

        Returns ``base + delta`` for the current domain token when a
        neighbor has published one -- the DAM adapter substitution.
        """
        if self.base is None:
            return None
        domain = self._token_at(t0)
        if domain is None:
            return None
        entry = self.deltas.get(domain)
        if entry is None or entry.member == self._member:
            return None
        state = _state_add(self.base, entry.delta)
        self.counters["retrains_reused"] += 1
        self.counters["retrain_samples_reused"] += samples
        return state

    def publish_retrain(self, t0: float, state, samples: int) -> None:
        """Publish a member's post-retrain weights as a per-domain delta."""
        self.counters["retrains_run"] += 1
        self.counters["retrain_samples"] += samples
        if self.base is None:
            return
        if _state_shapes(state) != _state_shapes(self.base):
            return
        self.freshest = state
        domain = self._token_at(t0)
        if domain is None:
            return
        delta = _state_delta(state, self.base)
        existing = self.deltas.get(domain)
        if existing is not None and existing.member != self._member:
            delta = _state_blend(existing.delta, delta, MERGE_ALPHA)
            self.counters["merges"] += 1
        self.deltas[domain] = _DeltaEntry(
            member=self._member or "?", slot=self._slot(t0), delta=delta
        )


def encode_cluster_state(runtime: ClusterRuntime) -> dict:
    """The journal-able weight state of a cluster (labels excluded)."""
    payload: dict = {
        "version": CLUSTER_STATE_VERSION,
        "policy": CLUSTER.name,
        "cluster": runtime.cluster_id,
        "segment_s": runtime.segment_s,
        "base_model": runtime.base_model,
        "counters": dict(runtime.counters),
    }
    if runtime.base is not None:
        payload["base"] = encode_state(runtime.base)
    if runtime.freshest is not None:
        payload["freshest"] = encode_state(runtime.freshest)
    payload["deltas"] = {
        domain: {
            "member": entry.member,
            "slot": entry.slot,
            "state": encode_state(entry.delta),
        }
        for domain, entry in runtime.deltas.items()
    }
    return payload


def decode_cluster_state(payload: dict) -> ClusterRuntime:
    """Rebuild a cluster runtime from a journaled state payload.

    Strict: a field of the wrong type or value is refused, never coerced,
    so a state that decodes re-encodes to the payload it came from.  A
    state journaled under a policy that shares nothing is refused.
    """
    try:
        version = payload["version"]
        if type(version) is not int or version != CLUSTER_STATE_VERSION:
            raise SnapshotError(
                f"cluster state version {version!r} != {CLUSTER_STATE_VERSION}"
            )
        if payload["policy"] != CLUSTER.name:
            raise SnapshotError(f"cluster state under {payload['policy']!r}")
        runtime = ClusterRuntime(
            cluster_id=payload["cluster"],
            segment_s=payload.get("segment_s", 60.0),
            base_model=payload.get("base_model"),
        )
        counters = payload.get("counters", runtime.counters)
        deltas = payload.get("deltas", {})
        _require(isinstance(runtime.cluster_id, str), "cluster")
        _require(
            type(runtime.segment_s) is float
            and 0.0 < runtime.segment_s < float("inf"),
            "segment_s",
        )
        _require(
            runtime.base_model is None or isinstance(runtime.base_model, str),
            "base_model",
        )
        _require(
            isinstance(counters, dict)
            and counters.keys() == runtime.counters.keys()
            and all(
                type(count) is int and count >= 0
                for count in counters.values()
            ),
            "counters",
        )
        runtime.counters.update(counters)
        _require(isinstance(deltas, dict), "deltas")
        if "base" in payload:
            runtime.base = decode_state(payload["base"])
        if "freshest" in payload:
            runtime.freshest = decode_state(payload["freshest"])
        for domain, entry in deltas.items():
            _require(
                isinstance(entry, dict)
                and entry.keys() == {"member", "slot", "state"}
                and isinstance(entry["member"], str)
                and type(entry["slot"]) is int,
                f"delta {domain!r}",
            )
            runtime.deltas[domain] = _DeltaEntry(
                member=entry["member"],
                slot=entry["slot"],
                delta=decode_state(entry["state"]),
            )
        return runtime
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise SnapshotError(f"malformed cluster state: {exc}") from exc


def _require(ok: bool, field: str) -> None:
    if not ok:
        raise SnapshotError(f"malformed cluster state: bad {field}")
