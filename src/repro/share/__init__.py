"""Cross-camera work sharing: fingerprints, clusters, and reuse runtime.

A fleet of correlated cameras (same scenario schedule, different sensor
seeds) currently pays N full label+retrain bills for N cameras.  This
package makes that cost sublinear, ECCO-style:

- :mod:`repro.share.policy` -- the explicit opt-in :data:`SHARING` knob
  (default :data:`OFF` keeps the bit-identical reference path) and the
  clustering and merge constants of its one enabled value.
- :mod:`repro.share.fingerprint` -- cheap, deterministic drift signatures
  per stream (domain schedule tokens, with a feature-statistics fallback).
- :mod:`repro.share.cluster` -- threshold clustering of fingerprints into
  camera clusters, stable under camera-order permutation.
- :mod:`repro.share.runtime` -- the in-process cluster state: shared
  teacher labels, warm-started student weights, and DAM-style per-domain
  weight-delta merging, plus the encode/decode used to journal cluster
  state across service windows.
"""

from repro.share.policy import (
    CLUSTER,
    OFF,
    SHARING_ENV,
    SHARING_POLICIES,
    SharingPolicy,
    active_sharing,
    resolve_sharing,
    use_sharing,
)
from repro.share.fingerprint import (
    StreamFingerprint,
    cell_fingerprint,
    feature_fingerprint,
    fingerprint_distance,
    schedule_fingerprint,
)
from repro.share.cluster import (
    ClusterAssignment,
    ClusterTracker,
    cluster_cells,
    describe_clusters,
)
from repro.share.runtime import (
    ClusterRuntime,
    active_cluster_runtime,
    decode_cluster_state,
    encode_cluster_state,
)

__all__ = [
    "CLUSTER",
    "OFF",
    "SHARING_ENV",
    "SHARING_POLICIES",
    "ClusterAssignment",
    "ClusterRuntime",
    "ClusterTracker",
    "SharingPolicy",
    "StreamFingerprint",
    "active_cluster_runtime",
    "active_sharing",
    "cell_fingerprint",
    "cluster_cells",
    "decode_cluster_state",
    "describe_clusters",
    "encode_cluster_state",
    "feature_fingerprint",
    "fingerprint_distance",
    "resolve_sharing",
    "schedule_fingerprint",
    "use_sharing",
]
