"""The sharing policy: an explicit opt-in for cross-camera work reuse.

Sharing changes *what work runs* (which teacher labelings and student
retrains actually execute), so unlike the numeric policy it can never be a
silent default: the frozen reference digests were all taken with every cell
independent.  The policy is one :class:`~repro.knobs.Knob`,
:data:`SHARING` (``REPRO_SHARING``, ``--sharing``, or ``sharing = ...`` in a
sweep spec's ``[sweep]`` table; README "Policies"), with two values:

- :data:`OFF` -- the default.  Every (scenario, seed) cell is executed
  independently; the path is bit-identical to the frozen reference digests
  (no sharing code runs at all, the hooks see no active runtime).
- :data:`CLUSTER` -- the opt-in.  Streams are fingerprinted and clustered
  (fingerprint distance at most :data:`THRESHOLD`); within a cluster,
  teacher labels are computed once and shared, retrains warm-start from the
  cluster's freshest student weights or substitute a neighbor's per-domain
  weight delta, and diverged deltas are merged DAM-style
  (:data:`MERGE_ALPHA`).  This path freezes its *own* digests
  (``tests/reference/digests_sharing.json``).

``CLUSTER`` is the only enabled value, so the reuse machinery
(:mod:`repro.share.cluster`, :mod:`repro.share.runtime`) reads its
constants from here rather than from the policy value.
"""

from __future__ import annotations

from repro.knobs import Knob, Switch

__all__ = [
    "CLUSTER",
    "MERGE_ALPHA",
    "OFF",
    "SHARING",
    "SHARING_ENV",
    "SHARING_POLICIES",
    "SharingPolicy",
    "THRESHOLD",
    "active_sharing",
    "resolve_sharing",
    "use_sharing",
]

#: Environment variable selecting the process-wide sharing policy.
SHARING_ENV = "REPRO_SHARING"

#: Maximum fingerprint distance (fraction of mismatching domain-schedule
#: segments, in [0, 1]) for two streams to join the same cluster.
THRESHOLD = 0.35

#: Blend weight of the *newer* delta when two members publish diverging
#: per-domain deltas.
MERGE_ALPHA = 0.5

#: A sharing policy: its canonical name (the value ``REPRO_SHARING`` takes
#: and shard specs carry over the wire) and whether reuse is on.
SharingPolicy = Switch

OFF = SharingPolicy(name="off", enabled=False)

CLUSTER = SharingPolicy(name="cluster", enabled=True)

#: The sharing knob, with its accepted spellings (environment values, CLI
#: args, spec keys).
SHARING = Knob(
    SHARING_ENV,
    OFF,
    label="sharing policy",
    aliases={
        "": OFF,
        "off": OFF,
        "0": OFF,
        "no": OFF,
        "none": OFF,
        "false": OFF,
        "independent": OFF,
        "cluster": CLUSTER,
        "on": CLUSTER,
        "1": CLUSTER,
        "yes": CLUSTER,
        "true": CLUSTER,
        "shared": CLUSTER,
    },
)

#: Supported policies by canonical name.
SHARING_POLICIES: dict[str, SharingPolicy] = SHARING.by_name

resolve_sharing = SHARING.resolve
active_sharing = SHARING.active
use_sharing = SHARING.use
