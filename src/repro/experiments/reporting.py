"""Plain-text reporting helpers shared by all experiments."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ExperimentResult", "format_table", "format_series"]


@dataclass(frozen=True)
class ExperimentResult:
    """The output of one experiment.

    Attributes:
        name: Experiment id (e.g. ``"fig9"``).
        title: Human-readable title.
        rows: Tabular data (list of dicts with homogeneous keys).
        report: Formatted text report, ready to print or save.
        extras: Free-form auxiliary data (time series, parameters).
    """

    name: str
    title: str
    rows: list[dict]
    report: str
    extras: dict = field(default_factory=dict)


def format_table(rows: list[dict], floatfmt: str = ".3f") -> str:
    """Render homogeneous dict rows as an aligned text table."""
    if not rows:
        return "(no rows)\n"
    headers = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != headers:
            raise ConfigurationError("rows must share the same columns")

    def fmt(value: object) -> str:
        # np.floating covers float32 scalars, which are not ``float``
        # subclasses (float64 is) -- without it, they print raw numpy
        # reprs instead of honoring floatfmt.
        if isinstance(value, (float, np.floating)):
            return format(float(value), floatfmt)
        if value is None:
            return "-"
        return str(value)

    body = [[fmt(row[h]) for h in headers] for row in rows]
    widths = [
        max(len(h), *(len(line[i]) for line in body))
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    out = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        sep,
    ]
    for line in body:
        out.append(" | ".join(v.ljust(w) for v, w in zip(line, widths)))
    return "\n".join(out) + "\n"


def format_series(
    times: np.ndarray,
    series: dict[str, np.ndarray],
    width: int = 60,
    value_fmt: str = ".2f",
) -> str:
    """Render named time series as columns (one row per time point).

    Long series are downsampled to at most ``width`` rows; the first and
    final time points are always included.
    """
    times = np.asarray(times)
    if len(times) == 0:
        return "(empty series)\n"
    # Ceil stride over the *span* of indices: a floor stride emits up to
    # ~2x width rows (e.g. 119 points at width 60 -> stride 1 -> 119 rows).
    # With stride = ceil((n-1)/(width-1)), arange yields at most ``width``
    # picks, and appending the final index can only exceed that if
    # floor((n-1)/stride) = width-1 with a nonzero remainder -- impossible,
    # since stride*(width-1) >= n-1.
    span = len(times) - 1
    if width <= 1:
        picked = np.array([span])
    else:
        stride = max(1, -(-span // (width - 1)))
        picked = np.arange(0, len(times), stride)
        if picked[-1] != span:
            picked = np.append(picked, span)
    names = list(series)
    header = "time_s".ljust(8) + " | " + " | ".join(
        n.rjust(max(8, len(n))) for n in names
    )
    lines = [header, "-" * len(header)]
    for i in picked:
        cells = []
        for n in names:
            cells.append(
                format(float(series[n][i]), value_fmt).rjust(max(8, len(n)))
            )
        lines.append(f"{times[i]:<8.0f} | " + " | ".join(cells))
    return "\n".join(lines) + "\n"
