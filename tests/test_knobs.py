"""One suite for every run-wide knob: spellings, environment, overrides.

The numeric dtype, cross-camera sharing, lockstep batching and the
execution backend all resolve through one :class:`repro.knobs.Knob`
chain -- override > environment variable > default -- so one suite,
parametrized over the four, checks each: its accepted spellings, its
default and declared values, a blank or garbage variable, a garbage
override (with the exact error text the CLI prints), and -- for each knob
with two values -- overrides that beat the variable, nest and restore.
Every test clears all four variables first, so the suite passes whatever
the environment sets.
"""

import pytest

import repro.batching
import repro.exec.backends
import repro.numeric
import repro.share.policy
from repro.batching import BATCH, ON
from repro.batching import OFF as BATCH_OFF
from repro.errors import ConfigurationError
from repro.exec.backends import BACKEND, parse_backend
from repro.numeric import FLOAT64, NUMERIC
from repro.share.policy import CLUSTER, SHARING
from repro.share.policy import OFF as SHARING_OFF

KNOBS = {
    "numeric": NUMERIC,
    "sharing": SHARING,
    "batch": BATCH,
    "backend": BACKEND,
}

#: Accepted spellings of each knob and the value each resolves to.
SPELLINGS = {
    "numeric": [
        ("float64", FLOAT64),
        ("FP64", FLOAT64),
        ("double", FLOAT64),
        ("f64", FLOAT64),
        (" 64 ", FLOAT64),
        ("", FLOAT64),
    ],
    "sharing": [
        *((alias, SHARING_OFF) for alias in (
            "", "off", "0", "no", "none", "false", "independent",
        )),
        *((alias, CLUSTER) for alias in (
            "cluster", "on", "1", "yes", "true", "shared", "CLUSTER",
        )),
    ],
    "batch": [
        *((alias, BATCH_OFF) for alias in (
            "", "off", "0", "no", "none", "false",
        )),
        *((alias, ON) for alias in (
            "on", "1", "yes", "true", "batch", "batched",
        )),
    ],
    "backend": [
        ("serial", "serial"),
        ("process:4", "process:4"),
        (" subprocess:2 ", "subprocess:2"),
        ("queue", "queue"),
    ],
}

#: Each knob's canonical values and default.
DECLARED = {
    "numeric": ((FLOAT64,), FLOAT64),
    "sharing": ((SHARING_OFF, CLUSTER), SHARING_OFF),
    "batch": ((BATCH_OFF, ON), BATCH_OFF),
    "backend": ((), None),
}

#: A garbage spelling of each knob and the exact error it raises.
GARBAGE = {
    "numeric": (
        "float32",
        "unknown numeric policy 'float32' "
        "(set REPRO_DTYPE to one of: float64)",
    ),
    "sharing": (
        "bogus",
        "unknown sharing policy 'bogus' "
        "(set REPRO_SHARING to one of: cluster, off)",
    ),
    "batch": (
        "sideways",
        "unknown batching policy 'sideways' "
        "(set REPRO_BATCH to one of: off, on)",
    ),
    "backend": (
        "quantum",
        "unknown backend 'quantum'; known: serial, process, subprocess, "
        "queue",
    ),
}

#: Two distinct values of each two-valued knob (by spelling), for override
#: nesting.
PAIRS = {
    "sharing": ("cluster", "off"),
    "batch": ("on", "off"),
    "backend": ("process:4", "serial"),
}

#: The module-level names each knob keeps importable.
BINDINGS = {
    "numeric": (repro.numeric, "resolve_policy", "active_policy",
                "use_policy"),
    "sharing": (repro.share.policy, "resolve_sharing", "active_sharing",
                "use_sharing"),
    "batch": (repro.batching, "resolve_batching", "active_batching",
              "use_batching"),
    "backend": (repro.exec.backends, None, "active_backend_spec",
                "use_backend"),
}

names = pytest.mark.parametrize("name", sorted(KNOBS))


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for knob in KNOBS.values():
        monkeypatch.delenv(knob.env, raising=False)


def spellings():
    return [
        pytest.param(name, spelling, value, id=f"{name}-{spelling!r}")
        for name in sorted(SPELLINGS)
        for spelling, value in SPELLINGS[name]
    ]


def assert_same(got, expected):
    # Declared values resolve to the declared instance; backend specs are
    # strings.
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got is expected


@pytest.mark.parametrize("name, spelling, value", spellings())
def test_spelling_resolves(name, spelling, value):
    assert_same(KNOBS[name].resolve(spelling), value)


@pytest.mark.parametrize("name, spelling, value", spellings())
def test_spelling_selects_through_env(name, spelling, value, monkeypatch):
    monkeypatch.setenv(KNOBS[name].env, spelling)
    assert_same(KNOBS[name].active(), value)


@names
def test_default_and_declared_values(name):
    knob = KNOBS[name]
    values, default = DECLARED[name]
    assert knob.values == values
    assert knob.default is default
    assert knob.resolve(None) is default
    assert knob.active() is default
    for value in values:
        assert knob.resolve(value) is value


@names
@pytest.mark.parametrize("blank", ["", "   "])
def test_blank_env_gives_default(name, blank, monkeypatch):
    monkeypatch.setenv(KNOBS[name].env, blank)
    assert KNOBS[name].active() is KNOBS[name].default


@names
def test_garbage_env_raises_pinned_text(name, monkeypatch):
    spelling, text = GARBAGE[name]
    monkeypatch.setenv(KNOBS[name].env, spelling)
    with pytest.raises(ConfigurationError) as excinfo:
        KNOBS[name].active()
    assert str(excinfo.value) == text


@names
def test_garbage_override_raises_pinned_text(name):
    spelling, text = GARBAGE[name]
    knob = KNOBS[name]
    with pytest.raises(ConfigurationError) as excinfo:
        with knob.use(spelling):
            pass
    assert str(excinfo.value) == text
    assert knob.active() is knob.default


@names
@pytest.mark.parametrize("garbage", [5, ["x"], {"a": 1}])
def test_non_string_garbage_is_a_configuration_error(name, garbage):
    with pytest.raises(ConfigurationError):
        KNOBS[name].resolve(garbage)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_override_beats_env_nests_and_restores(name, monkeypatch):
    knob = KNOBS[name]
    first, second = (knob.resolve(spelling) for spelling in PAIRS[name])
    monkeypatch.setenv(knob.env, PAIRS[name][0])
    assert knob.active() == first
    with knob.use(PAIRS[name][1]) as installed:
        assert installed == second
        assert knob.active() == second
        with knob.use(PAIRS[name][0]):
            assert knob.active() == first
        assert knob.active() == second
    assert knob.active() == first


@names
def test_public_names_are_the_knob(name):
    module, resolve, active, use = BINDINGS[name]
    knob = KNOBS[name]
    if resolve is not None:
        assert getattr(module, resolve) == knob.resolve
    assert getattr(module, active) == knob.active
    assert getattr(module, use) == knob.use


@pytest.mark.parametrize(
    "spec, text",
    [
        (
            "quantum",
            "unknown backend 'quantum'; known: serial, process, "
            "subprocess, queue",
        ),
        ("serial:2", "the serial backend takes no worker count"),
        ("process:x", "backend worker count must be an integer, got 'x'"),
        ("queue:0", "backend worker count must be >= 1, got 0"),
        (5, "backend spec must be a string, got 5"),
    ],
)
def test_parse_backend_messages(spec, text):
    with pytest.raises(ConfigurationError) as excinfo:
        parse_backend(spec)
    assert str(excinfo.value) == text
