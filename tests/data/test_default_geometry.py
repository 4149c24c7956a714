"""The frozen default geometry, and a program that imports no scipy.

Every run samples from one geometry, feature dim 24 and seed 20240614.
``src/repro/data/default_geometry.py`` holds it as the exact bytes that
scipy's ``expm`` and ``qr`` build, so scipy is needed only to build another
geometry or to check this one.  After a change to how the geometry is
built, regenerate the table with scipy installed:

    PYTHONPATH=src python tests/data/test_default_geometry.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.arrays import decode_array, encode_array
from repro.data.distributions import (
    FEATURE_DIM,
    _GEOMETRY_SEED,
    _ROTATED,
    DomainModel,
    _build_geometry,
    _geometry,
)
from repro.errors import ConfigurationError

SRC = Path(__file__).resolve().parents[2] / "src"
TABLE = SRC / "repro" / "data" / "default_geometry.py"

#: Base64 characters per line of the table.
_WIDTH = 64

_HEADER = '''"""The default data geometry, frozen: feature dim {dim}, seed {seed}.

Every run samples from this geometry.  Its class means and attribute
rotations are the exact float64 bytes that scipy's ``expm`` and ``qr``
build in :func:`repro.data.distributions._build_geometry`, in the
:mod:`repro.arrays` codec.  :func:`repro.data.distributions._geometry`
reads them on first use, so a run needs no scipy.

Generated, do not edit: ``PYTHONPATH=src python
tests/data/test_default_geometry.py`` rewrites this file from a scipy
rebuild, and the tests in that file check the two agree byte for byte.
"""

'''


def _payload(array, indent: str) -> list[str]:
    encoded = encode_array(array)
    data = encoded["data"]
    return [
        f'{indent}"dtype": "{encoded["dtype"]}",',
        f'{indent}"shape": {encoded["shape"]},',
        f'{indent}"data": (',
        *(
            f'{indent}    "{data[start:start + _WIDTH]}"'
            for start in range(0, len(data), _WIDTH)
        ),
        f"{indent}),",
    ]


def render(means, rotations) -> str:
    """The table module's source for a (means, rotations) geometry."""
    lines = [
        f"#: The {tuple(means.shape)} class means.",
        "MEANS = {",
        *_payload(means, "    "),
        "}",
        "",
        "#: Each attribute's rotation, by the attribute's member name.",
        "ROTATIONS = {",
    ]
    for attribute, _ in _ROTATED:
        lines += [
            f'    "{attribute.name}": {{',
            *_payload(rotations[attribute], "        "),
            "    },",
        ]
    lines.append("}")
    header = _HEADER.format(dim=FEATURE_DIM, seed=_GEOMETRY_SEED)
    return header + "\n".join(lines) + "\n"


def test_table_is_a_scipy_rebuild_byte_for_byte():
    pytest.importorskip("scipy")
    from repro.data import default_geometry

    means, rotations = _build_geometry(FEATURE_DIM, _GEOMETRY_SEED)
    assert decode_array(default_geometry.MEANS).tobytes() == means.tobytes()
    for attribute, _ in _ROTATED:
        frozen = decode_array(default_geometry.ROTATIONS[attribute.name])
        assert frozen.tobytes() == rotations[attribute].tobytes(), attribute
    assert TABLE.read_text() == render(means, rotations)


def test_the_default_geometry_needs_no_scipy(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    means, rotations = _geometry.__wrapped__(FEATURE_DIM, _GEOMETRY_SEED)
    model = DomainModel()
    assert means.tobytes() == model._means.tobytes()
    assert not means.flags.writeable
    for attribute, _ in _ROTATED:
        rotation = rotations[attribute]
        assert rotation.tobytes() == model._rotations[attribute].tobytes()
        assert not rotation.flags.writeable


def test_another_geometry_without_scipy_names_scipy(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    with pytest.raises(ConfigurationError, match="scipy") as raised:
        DomainModel(geometry_seed=_GEOMETRY_SEED + 1)
    assert str(raised.value) == (
        f"the geometry with feature_dim={FEATURE_DIM} and "
        f"geometry_seed={_GEOMETRY_SEED + 1} is built with scipy, which is "
        f"not installed; only the default ({FEATURE_DIM}, {_GEOMETRY_SEED}) "
        "ships as a frozen table"
    )


#: Imports a run-time stack in a fresh interpreter, then every module.
_IMPORT_PROBE = """
import importlib, json, pkgutil, sys

import repro.core, repro.data.stream, repro.exec.worker
from repro.data.distributions import _geometry

after_worker = {
    "geometries": _geometry.cache_info().currsize,
    "table": "repro.data.default_geometry" in sys.modules,
    "scipy": "scipy" in sys.modules,
}
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
after_all = {
    "geometries": _geometry.cache_info().currsize,
    "scipy": "scipy" in sys.modules,
}
print(json.dumps([after_worker, after_all]))
"""


def test_importing_the_program_builds_no_geometry_and_loads_no_scipy():
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout) == [
        {"geometries": 0, "table": False, "scipy": False},
        {"geometries": 0, "scipy": False},
    ]


if __name__ == "__main__":
    TABLE.write_text(render(*_build_geometry(FEATURE_DIM, _GEOMETRY_SEED)))
    print(f"wrote {TABLE}")
