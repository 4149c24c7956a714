"""The reference registry: every frozen digest, one lookup, one writer.

The bit-identity contract is the frozen :func:`run_digest` values in
``tests/reference/``: runs must keep matching them, and a change that
moves one names it and says why.  Each case in :data:`CASES` lists its
cells and, for each sharing policy its digests hold under, the file and
section that store them.  Batching never selects a section: it is
bit-identical by contract.

- ``smoke``: the six systems on one short S4 stream, plus that stream;
  each system founds its own cluster, so it holds with sharing too.
- ``full`` and ``fig9``: the 29-entry fixed-seed set and the 108-cell
  Figure 9 grid at 1200 s, checked when ``REPRO_FULL_DIGESTS=1``.
- ``sharing``: ``examples/fleet_shared.toml``'s four correlated cameras,
  sharing off and on.
- ``service`` and ``service-shared``: every window of an eager service
  session over ``examples/fleet_service.toml``'s three streams, sharing
  off and on.

Readers ask :func:`expected_digest`; :func:`mismatches` recomputes a
whole case.  One command writes every file, into a named directory (a
file already there keeps its other sections)::

    PYTHONPATH=src python -m repro.reference --case NAME --out DIR

Compare the result with ``tests/reference/`` and copy it over only for an
intentional, named refreeze.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.core.results import run_digest, stream_digest
from repro.data.scenarios import build_scenario
from repro.errors import ConfigurationError
from repro.exec.run import run_cells
from repro.exec.shard import PolicySet, SystemCell, cell_key, cell_label
from repro.service import FleetService, ServiceConfig
from repro.service.pacing import window_count
from repro.share.policy import SHARING

__all__ = [
    "CASES",
    "REFERENCE_DIR",
    "Case",
    "expected_digest",
    "main",
    "mismatches",
    "reference_path",
    "render",
    "run_digest",
]

#: Where the frozen files live.
REFERENCE_DIR = Path(__file__).resolve().parents[2] / "tests" / "reference"

#: The one numeric policy, as the files name it.
_POLICY = "float64"

#: Each file's fixed top-level fields beside its sections.  The float64
#: file keys a cell as ``system|pair|scenario|seedN|Ns`` and stores
#: ``{"digest", "accuracy"}``; the others key it by its ``cell_key``
#: (``|wN`` appended per window) and store the bare digest.
_FLOAT64 = "digests_float64.json"
_HEADERS = {
    _FLOAT64: {"version": 1, "policy": _POLICY, "digest_namespace": "f64"},
    "digests_sharing.json": {"policy": _POLICY, "sharing": "cluster"},
    "digests_service.json": {"policy": _POLICY, "window_s": 60.0},
    "digests_service_shared.json": {
        "policy": _POLICY, "sharing": "cluster", "window_s": 60.0
    },
}


@dataclass(frozen=True)
class Case:
    """A set of cells whose digests are frozen.

    ``sections`` maps each sharing policy name the digests hold under to
    ``(file name, path of keys to the section)``.  ``streams`` are
    ``(scenario, seed, duration_s)`` raw streams pinned beside the cells.
    A service case sets ``window_s``: its digests are the windows of one
    eager session.
    """

    cells: tuple[SystemCell, ...]
    sections: dict[str, tuple[str, tuple[str, ...]]]
    streams: tuple[tuple[str, int, float], ...] = ()
    window_s: float | None = None

    def windows(self) -> list[tuple[SystemCell, int]]:
        """Every ``(cell, window index)`` a service case freezes."""
        return [
            (cell, index)
            for cell in self.cells
            for index in range(window_count(cell.duration_s, self.window_s))
        ]


_SYSTEMS = (
    "OrinLow-Ekya",
    "OrinHigh-Ekya",
    "OrinHigh-EOMU",
    "DaCapo-Ekya",
    "DaCapo-Spatial",
    "DaCapo-Spatiotemporal",
)
_PAIR = "resnet18_wrn50"
_DACAPO = "DaCapo-Spatiotemporal"
_SERVICE_CELLS = tuple(
    SystemCell(_DACAPO, _PAIR, scenario, seed, 120.0)
    for scenario, seed in (("S1", 0), ("S4", 0), ("S4", 1))
)

#: Every frozen case, by name.
CASES: dict[str, Case] = {
    "smoke": Case(
        tuple(SystemCell(s, _PAIR, "S4", 0, 300.0) for s in _SYSTEMS),
        {"off": (_FLOAT64, ("smoke",)), "cluster": (_FLOAT64, ("smoke",))},
        streams=(("S4", 0, 300.0),),
    ),
    "full": Case(
        tuple(
            SystemCell(system, _PAIR, scenario, seed, 600.0)
            for system in _SYSTEMS
            for scenario in ("S1", "S4")
            for seed in (0, 1)
        )
        + (SystemCell(_DACAPO, _PAIR, "S4", 0, 1200.0),),
        {"off": (_FLOAT64, ("full",))},
        streams=tuple(
            (scenario, seed, 1200.0)
            for scenario in ("S1", "S4")
            for seed in (0, 1)
        ),
    ),
    "fig9": Case(
        tuple(
            SystemCell(system, pair, scenario, 0, 1200.0)
            for pair in (_PAIR, "vit_b32_b16", "resnet34_wrn101")
            for system in _SYSTEMS
            for scenario in ("S1", "S2", "S3", "S4", "S5", "S6")
        ),
        {"off": (_FLOAT64, ("fig9",))},
    ),
    "sharing": Case(
        tuple(
            SystemCell(_DACAPO, _PAIR, "S4", seed, 240.0) for seed in range(4)
        ),
        {
            "off": ("digests_sharing.json", ("digests", "independent")),
            "cluster": ("digests_sharing.json", ("digests", "shared")),
        },
    ),
    "service": Case(
        _SERVICE_CELLS,
        {"off": ("digests_service.json", ("windows",))},
        window_s=60.0,
    ),
    "service-shared": Case(
        _SERVICE_CELLS,
        {"cluster": ("digests_service_shared.json", ("windows",))},
        window_s=60.0,
    ),
}


def _where(case: str, sharing: str) -> tuple[Case, str, tuple]:
    """The case, and the file and section holding it under ``sharing``."""
    if case not in CASES:
        raise ConfigurationError(
            f"unknown reference case {case!r}; known: {', '.join(CASES)}"
        )
    found = CASES[case]
    if sharing not in found.sections:
        raise ConfigurationError(
            f"reference case {case!r} holds no digests under sharing "
            f"{sharing!r}; it declares {', '.join(found.sections)}"
        )
    return (found, *found.sections[sharing])


def _key(name: str, cell: SystemCell, window: int | None = None) -> str:
    if name == _FLOAT64:
        return (
            f"{cell.system}|{cell.pair}|{cell.scenario}"
            f"|seed{cell.seed}|{cell.duration_s:g}s"
        )
    key = cell_key(_POLICY, cell)
    return key if window is None else f"{key}|w{window}"


def _digest(name: str, entry) -> str | None:
    return entry["digest"] if entry and name == _FLOAT64 else entry


def _frozen(name: str, path: tuple) -> dict:
    section = json.loads((REFERENCE_DIR / name).read_text())
    for part in path:
        section = section[part]
    return section


def expected_digest(
    case: str,
    cell: SystemCell,
    policies: PolicySet,
    window: int | None = None,
) -> str:
    """The frozen digest of ``cell`` (or its window) in ``case``.

    ``policies.sharing`` selects the section; batching never does.

    Raises:
        ConfigurationError: The case is unknown, declares no digests
            under ``policies.sharing``, or holds none for this cell or
            window.
    """
    _, name, path = _where(case, policies.sharing.name)
    digest = _digest(name, _frozen(name, path).get(_key(name, cell, window)))
    if digest is None:
        what = cell_label(cell) + ("" if window is None else f" w{window}")
        raise ConfigurationError(
            f"reference case {case!r} holds no digest for {what}"
        )
    return digest


def _compute(found: Case, name: str, policies: PolicySet) -> dict:
    """A case's section recomputed under ``policies``, as stored."""
    with policies.use():
        if found.window_s is not None:
            return _serve(found, name)
        results = run_cells(found.cells, jobs=1)
    entries: dict = {}
    for cell, result in zip(found.cells, results):
        digest = run_digest(result)
        entries[_key(name, cell)] = (
            {"digest": digest, "accuracy": result.average_accuracy()}
            if name == _FLOAT64
            else digest
        )
    for scenario, seed, duration_s in found.streams:
        stream = build_scenario(scenario, duration_s=duration_s)
        entries[f"stream|{scenario}|seed{seed}|{duration_s:g}s"] = {
            "digest": stream_digest(stream.materialize(seed))
        }
    return entries


def _serve(found: Case, name: str) -> dict[str, str]:
    """The window digests of one eager session over a case's cells."""
    with tempfile.TemporaryDirectory() as out:
        config = ServiceConfig(out_dir=out, window_s=found.window_s)
        service = FleetService(config, list(found.cells))
        service.run()
        streams = service.journal.streams
        return {
            _key(name, cell, index):
                streams[cell_key(_POLICY, cell)].windows[index]["digest"]
            for cell, index in found.windows()
        }


def mismatches(case: str, policies: PolicySet) -> list[str]:
    """Recompute ``case`` under ``policies``: the keys whose digest
    differs from the freeze, or is missing on either side."""
    found, name, path = _where(case, policies.sharing.name)
    frozen = _frozen(name, path)
    computed = _compute(found, name, policies)
    return sorted(
        key
        for key in frozen.keys() | computed.keys()
        if _digest(name, frozen.get(key)) != _digest(name, computed.get(key))
    )


def render(payload: dict) -> str:
    """The one serialization every reference file is written in."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def reference_path(policy_name: str) -> Path:
    """The digest file of one numeric policy (the ``float64`` file)."""
    return REFERENCE_DIR / f"digests_{policy_name}.json"


def main(argv: list[str] | None = None) -> int:
    """Recompute one case, under each sharing policy it declares, into a
    directory; a file already there keeps its other sections."""
    parser = argparse.ArgumentParser(
        prog="repro.reference",
        description="recompute one reference case's digests into a "
        "directory (compare it with tests/reference/)",
    )
    parser.add_argument("--case", required=True, choices=list(CASES))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for sharing in CASES[args.case].sections:
        found, name, path = _where(args.case, sharing)
        target = args.out / name
        payload = json.loads(target.read_text()) if target.is_file() else {}
        payload.update(_HEADERS[name])
        node = payload
        for part in path[:-1]:
            node = node.setdefault(part, {})
        policies = PolicySet(sharing=SHARING.by_name[sharing])
        node[path[-1]] = _compute(found, name, policies)
        args.out.mkdir(parents=True, exist_ok=True)
        target.write_text(render(payload))
        print(f"wrote {target} (sharing {sharing})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
