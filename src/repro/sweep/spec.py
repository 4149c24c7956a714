"""Declarative sweep specs: a camera fleet as a validated cross-product.

DaCapo's evaluation runs one camera at a time, but the spatiotemporal-
sharing argument is a *fleet* story: many cameras learning continuously at
once.  A :class:`SweepSpec` describes such a fleet declaratively -- the
cross-product of systems x pairs x scenarios x seeds x durations x numeric
policies -- so grid experiments stop being hand-coded per figure and become
data (a TOML or JSON file) that the planner (:mod:`repro.sweep.plan`)
compiles into :class:`~repro.core.runner.SystemCell` lists.

File schema (TOML shown; JSON uses the same keys)::

    [sweep]
    name = "fig9"              # required: [A-Za-z0-9_-]+, names the outputs
    title = "Figure 9 fleet"   # optional

    [axes]
    systems   = ["DaCapo-Spatiotemporal", "OrinHigh-Ekya"]
    pairs     = ["resnet18_wrn50"]
    scenarios = ["S1", "S4"]
    seeds     = [0, 1]          # optional, default [0]
    durations = [600.0]         # optional, default: scenario default length
    policies  = ["float64"]     # optional, default: the ambient policy

    [[override]]                # per-axis overrides, applied in file order
    match = { scenario = ["S4"] }
    durations = [300.0]

    [aggregate]
    group_by    = ["policy", "system"]          # default
    percentiles = [50, 90]                      # default
    metrics     = ["accuracy", "drop_rate", "retrain_s", "label_s"]

Axes expand in a fixed documented order -- policy, pair, system, scenario,
seed, duration -- and an override may match on any axes and replace the
value lists of axes *later* in that order (the planner validates this),
e.g. "scenario S4 runs at 300 s with seeds 0-3".
Matching earlier-only axes keeps expansion a proper cross-product per
prefix, so a spec can never produce duplicate cells.

Every name is validated against the live registries
(:data:`~repro.core.runner.SYSTEM_BUILDERS`,
:data:`~repro.models.zoo.MODEL_PAIRS`,
:data:`~repro.data.scenarios.SCENARIO_NAMES`,
:data:`~repro.numeric.POLICIES`) at load time, so a typo fails in
milliseconds instead of minutes into a fleet run.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.runner import SYSTEM_BUILDERS
from repro.data.scenarios import SCENARIO_NAMES
from repro.errors import ConfigurationError
from repro.models.zoo import MODEL_PAIRS
from repro.numeric import resolve_policy
from repro.share.policy import resolve_sharing

__all__ = [
    "AXIS_ORDER",
    "METRICS",
    "ROW_KEYS",
    "SweepOverride",
    "SweepSpec",
    "load_spec",
    "spec_from_mapping",
]

#: Axis expansion order (earlier axes may be matched by an override; only
#: later axes may be overridden).
AXIS_ORDER = ("policy", "pair", "system", "scenario", "seed", "duration")

#: Identity columns of a per-cell result row (the legal ``group_by``
#: targets -- see :mod:`repro.sweep.aggregate`).
ROW_KEYS = ("policy", "system", "pair", "scenario", "seed", "duration_s")

#: Metrics the aggregation layer can reduce.
METRICS = ("accuracy", "drop_rate", "retrain_s", "label_s", "energy_j")

#: Spec-file (plural) to internal (singular) axis names.
_AXIS_KEYS: dict[str, str] = {
    "policies": "policy",
    "pairs": "pair",
    "systems": "system",
    "scenarios": "scenario",
    "seeds": "seed",
    "durations": "duration",
}

_DEFAULT_GROUP_BY = ("policy", "system")
_DEFAULT_PERCENTILES = (50.0, 90.0)
_DEFAULT_METRICS = ("accuracy", "drop_rate", "retrain_s", "label_s")


@dataclass(frozen=True)
class SweepOverride:
    """One per-axis override: when ``match`` binds, replace axis values.

    Attributes:
        match: ``(axis, accepted values)`` pairs; the override applies to a
            cell iff every matched axis is bound to one of its values.
        axes: ``(axis, replacement values)`` pairs for axes strictly later
            in the expansion order than every matched axis.
    """

    match: tuple[tuple[str, tuple], ...]
    axes: tuple[tuple[str, tuple], ...]

    def applies(self, bound: dict) -> bool:
        """Whether this override matches the bound axis prefix."""
        return all(bound.get(axis) in values for axis, values in self.match)


@dataclass(frozen=True)
class SweepSpec:
    """A validated fleet description (see the module docstring for schema).

    Attributes:
        name: Sweep id; names reports and output files.
        title: Human-readable title.
        axes: Internal axis name -> value tuple.  ``duration`` may be
            ``(None,)`` (scenario default length); ``policy`` may be ``()``
            (resolve the ambient policy at plan time).
        overrides: Per-axis overrides, applied in order (last match wins).
        group_by: Per-cell row columns the aggregation groups on.
        percentiles: Percentiles reported per metric.
        metrics: Metrics reduced by the aggregation layer.
        sharing: Cross-camera sharing policy name (``[sweep] sharing``),
            or None to defer to the ambient policy (``--sharing`` /
            ``$REPRO_SHARING`` / off).  Canonicalized at validation.
    """

    name: str
    title: str
    axes: dict[str, tuple] = field(default_factory=dict)
    overrides: tuple[SweepOverride, ...] = ()
    group_by: tuple[str, ...] = _DEFAULT_GROUP_BY
    percentiles: tuple[float, ...] = _DEFAULT_PERCENTILES
    metrics: tuple[str, ...] = _DEFAULT_METRICS
    sharing: str | None = None

    def __post_init__(self) -> None:
        if self.sharing is not None:
            if not isinstance(self.sharing, str):
                raise ConfigurationError(
                    "sweep spec: 'sharing' must be a policy name string"
                )
            object.__setattr__(
                self, "sharing", resolve_sharing(self.sharing).name
            )
        _validate_spec(self)


def _fail(source: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"sweep spec {source}: {message}")


def _as_tuple(value, key: str, source: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise _fail(source, f"{key!r} must be a list, got {type(value).__name__}")
    return tuple(value)


_NAME_VALIDATORS: dict[str, tuple] = {
    "system": tuple(SYSTEM_BUILDERS),
    "pair": tuple(MODEL_PAIRS),
    "scenario": tuple(SCENARIO_NAMES),
}


def _check_axis_values(axis: str, values: tuple, source: str) -> tuple:
    """Validate (and canonicalize) one axis' value list."""
    if len(values) == 0:
        raise _fail(source, f"axis {axis!r} must not be empty")
    if axis == "policy":
        try:
            values = tuple(resolve_policy(v).name for v in values)
        except ConfigurationError as exc:
            raise _fail(source, str(exc))
    elif axis == "seed":
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise _fail(
                    source, f"seeds must be non-negative integers, got {v!r}"
                )
    elif axis == "duration":
        checked = []
        for v in values:
            if v is None:
                checked.append(None)
                continue
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v <= 0:
                raise _fail(
                    source, f"durations must be positive seconds, got {v!r}"
                )
            checked.append(float(v))
        values = tuple(checked)
    else:
        known = _NAME_VALIDATORS[axis]
        for v in values:
            if v not in known:
                raise _fail(
                    source,
                    f"unknown {axis} {v!r}; known: {', '.join(known)}",
                )
    if len(set(values)) != len(values):
        raise _fail(source, f"axis {axis!r} has duplicate values: {values}")
    return values


def _canonical_match_value(axis: str, value):
    """Normalize a match value the way its axis' own values normalize.

    Policy aliases become canonical names ("fp64" -> "float64"; an
    unresolvable alias is left as-is for the never-fires check to report)
    and numeric durations become floats, so matches compare equal to the
    canonicalized axis values they target.
    """
    if axis == "policy":
        try:
            return resolve_policy(value).name
        except ConfigurationError:
            return value
    if axis == "duration" and isinstance(value, (int, float)) and not (
        isinstance(value, bool)
    ):
        return float(value)
    return value


def _validate_spec(spec: SweepSpec) -> None:
    source = f"{spec.name!r}" if spec.name else "<unnamed>"
    if not spec.name or not all(
        c.isalnum() or c in "_-" for c in spec.name
    ):
        raise _fail(
            source, f"name must be non-empty [A-Za-z0-9_-]+, got {spec.name!r}"
        )
    for axis in spec.axes:
        if axis not in AXIS_ORDER:
            raise _fail(
                source,
                f"unknown axis {axis!r} "
                f"(expected one of: {', '.join(AXIS_ORDER)})",
            )
    for axis in AXIS_ORDER:
        if axis in ("policy", "seed", "duration"):
            continue  # defaulted below
        if axis not in spec.axes:
            raise _fail(source, f"missing required axis {axis!r}")
    # Fill defaults, then re-validate every axis in place.
    spec.axes.setdefault("seed", (0,))
    spec.axes.setdefault("duration", (None,))
    spec.axes.setdefault("policy", ())
    for axis, values in spec.axes.items():
        if axis == "policy" and len(values) == 0:
            continue  # ambient policy, resolved at plan time
        spec.axes[axis] = _check_axis_values(axis, tuple(values), source)

    # First pass: validate every override's replacement values (storing
    # back the canonical forms -- float durations, canonical policy names
    # -- so cells never carry uncanonicalized values) and collect the full
    # set of values each axis can ever take (base plus values introduced
    # by overrides) -- a later override may legitimately match on a value
    # only an earlier override introduced.
    possible: dict[str, set] = {
        axis: set(values) for axis, values in spec.axes.items()
    }
    canonical_overrides = []
    for index, override in enumerate(spec.overrides):
        where = f"override[{index}]"
        if not override.match:
            raise _fail(source, f"{where}: empty match")
        if not override.axes:
            raise _fail(source, f"{where}: overrides no axes")
        new_axes = []
        for axis, values in override.axes:
            if axis not in AXIS_ORDER:
                raise _fail(source, f"{where}: unknown axis {axis!r}")
            values = _check_axis_values(
                axis, tuple(values), f"{source} {where}"
            )
            new_axes.append((axis, values))
            possible.setdefault(axis, set()).update(values)
        new_match = tuple(
            (axis, tuple(_canonical_match_value(axis, v) for v in values))
            for axis, values in override.match
        )
        canonical_overrides.append(
            SweepOverride(match=new_match, axes=tuple(new_axes))
        )
    # The dataclass is frozen; overrides are replaced wholesale with their
    # canonicalized twins (same shape, normalized values).
    object.__setattr__(spec, "overrides", tuple(canonical_overrides))
    # Second pass: matches must name reachable values and only override
    # axes later in the expansion order.
    for index, override in enumerate(spec.overrides):
        where = f"override[{index}]"
        last_match = -1
        for axis, values in override.match:
            if axis not in AXIS_ORDER:
                raise _fail(source, f"{where}: unknown match axis {axis!r}")
            for v in values:
                if v not in possible[axis]:
                    raise _fail(
                        source,
                        f"{where}: match value {v!r} never occurs on the "
                        f"{axis!r} axis (base or overridden values: "
                        f"{tuple(sorted(possible[axis], key=repr))!r}) -- "
                        "it would never fire",
                    )
            last_match = max(last_match, AXIS_ORDER.index(axis))
        for axis, _ in override.axes:
            if AXIS_ORDER.index(axis) <= last_match:
                raise _fail(
                    source,
                    f"{where}: cannot override {axis!r} -- overridden axes "
                    "must come after every matched axis in the expansion "
                    f"order ({', '.join(AXIS_ORDER)})",
                )

    for column in spec.group_by:
        if column not in ROW_KEYS:
            raise _fail(
                source,
                f"group_by column {column!r} is not a row key "
                f"(known: {', '.join(ROW_KEYS)})",
            )
    if len(set(spec.group_by)) != len(spec.group_by):
        raise _fail(source, f"group_by has duplicates: {spec.group_by}")
    for q in spec.percentiles:
        if not isinstance(q, (int, float)) or isinstance(q, bool) or not (
            0 <= q <= 100
        ):
            raise _fail(source, f"percentiles must be in [0, 100], got {q!r}")
    for metric in spec.metrics:
        if metric not in METRICS:
            raise _fail(
                source,
                f"unknown metric {metric!r} (known: {', '.join(METRICS)})",
            )
    if not spec.metrics:
        raise _fail(source, "metrics must not be empty")


def _parse_override(entry: dict, index: int, source: str) -> SweepOverride:
    if not isinstance(entry, dict):
        raise _fail(source, f"override[{index}] must be a table")
    entry = dict(entry)
    raw_match = entry.pop("match", None)
    if not isinstance(raw_match, dict) or not raw_match:
        raise _fail(
            source,
            f"override[{index}] needs a non-empty 'match' table "
            "(axis = value or [values])",
        )
    match = []
    for key, value in raw_match.items():
        axis = _AXIS_KEYS.get(key, key)
        values = value if isinstance(value, (list, tuple)) else [value]
        match.append((axis, tuple(values)))
    axes = []
    for key, value in entry.items():
        axis = _AXIS_KEYS.get(key)
        if axis is None:
            raise _fail(
                source,
                f"override[{index}]: unknown key {key!r} "
                f"(expected 'match' or one of: {', '.join(_AXIS_KEYS)})",
            )
        axes.append((axis, _as_tuple(value, key, source)))
    return SweepOverride(match=tuple(match), axes=tuple(axes))


def spec_from_mapping(data: dict, source: str = "<mapping>") -> SweepSpec:
    """Build and validate a :class:`SweepSpec` from a parsed TOML/JSON dict."""
    if not isinstance(data, dict):
        raise _fail(source, "top level must be a table/object")
    data = dict(data)
    head = data.pop("sweep", {})
    raw_axes = data.pop("axes", {})
    if "override" in data and "overrides" in data:
        raise _fail(
            source,
            "use either 'override' or 'overrides' for the override "
            "tables, not both",
        )
    raw_overrides = data.pop("override", None)
    if raw_overrides is None:
        raw_overrides = data.pop("overrides", [])
    raw_aggregate = data.pop("aggregate", {})
    if data:
        raise _fail(
            source,
            f"unknown top-level keys: {', '.join(sorted(data))} "
            "(expected sweep / axes / override / aggregate)",
        )
    for section, value in (("sweep", head), ("axes", raw_axes),
                           ("aggregate", raw_aggregate)):
        if not isinstance(value, dict):
            raise _fail(source, f"section [{section}] must be a table")
    if not isinstance(raw_overrides, (list, tuple)):
        raise _fail(source, "[[override]] must be an array of tables")

    head = dict(head)
    name = head.pop("name", None)
    if not isinstance(name, str) or not name:
        raise _fail(source, "[sweep] needs a non-empty string 'name'")
    title = head.pop("title", name)
    sharing = head.pop("sharing", None)
    if sharing is not None and not isinstance(sharing, str):
        raise _fail(source, "[sweep] 'sharing' must be a policy name string")
    if head:
        raise _fail(
            source, f"unknown [sweep] keys: {', '.join(sorted(head))}"
        )

    axes: dict[str, tuple] = {}
    for key, value in raw_axes.items():
        axis = _AXIS_KEYS.get(key)
        if axis is None:
            raise _fail(
                source,
                f"unknown axis key {key!r} "
                f"(expected one of: {', '.join(_AXIS_KEYS)})",
            )
        axes[axis] = _as_tuple(value, key, source)

    overrides = tuple(
        _parse_override(entry, index, source)
        for index, entry in enumerate(raw_overrides)
    )

    agg = dict(raw_aggregate)
    group_by = tuple(_as_tuple(
        agg.pop("group_by", list(_DEFAULT_GROUP_BY)), "group_by", source
    ))
    percentiles = tuple(
        float(q) if isinstance(q, (int, float)) and not isinstance(q, bool)
        else q
        for q in _as_tuple(
            agg.pop("percentiles", list(_DEFAULT_PERCENTILES)),
            "percentiles", source,
        )
    )
    metrics = tuple(_as_tuple(
        agg.pop("metrics", list(_DEFAULT_METRICS)), "metrics", source
    ))
    if agg:
        raise _fail(
            source, f"unknown [aggregate] keys: {', '.join(sorted(agg))}"
        )

    return SweepSpec(
        name=name,
        title=title,
        axes=axes,
        overrides=overrides,
        group_by=group_by,
        percentiles=percentiles,
        metrics=metrics,
        sharing=sharing,
    )


def load_spec(path: str | Path) -> SweepSpec:
    """Load and validate a sweep spec from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"sweep spec not found: {path}")
    suffix = path.suffix.lower()
    try:
        if suffix == ".toml":
            data = tomllib.loads(path.read_text())
        elif suffix == ".json":
            data = json.loads(path.read_text())
        else:
            raise ConfigurationError(
                f"sweep spec {path}: unsupported suffix {suffix!r} "
                "(expected .toml or .json)"
            )
    except (tomllib.TOMLDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"sweep spec {path}: parse error: {exc}")
    return spec_from_mapping(data, source=str(path))
