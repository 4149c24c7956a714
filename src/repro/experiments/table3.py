"""Table III: specifications of the evaluated DNN models."""

from __future__ import annotations

from repro.experiments.reporting import ExperimentResult, format_table
from repro.models import MODEL_PAIRS, get_model

__all__ = ["run_table3", "PAPER_TABLE3"]

#: The paper's published numbers: (params in millions, GFLOPs).
PAPER_TABLE3: dict[str, tuple[float, float]] = {
    "resnet18": (11.7, 1.82),
    "resnet34": (21.8, 3.67),
    "vit_b_32": (88.2, 4.37),
    "wide_resnet50_2": (68.9, 11.43),
    "vit_b_16": (86.6, 16.87),
    "wide_resnet101_2": (126.9, 22.80),
}


def _model_row(name: str) -> dict:
    """One Table III row."""
    roles = {}
    for pair in MODEL_PAIRS.values():
        roles[pair.student] = "Student"
        roles[pair.teacher] = "Teacher"
    paper_params, paper_gflops = PAPER_TABLE3[name]
    model = get_model(name)
    return {
        "type": roles[name],
        "name": name,
        "params_M": model.params / 1e6,
        "paper_params_M": paper_params,
        "gflops": model.gflops,
        "paper_gflops": paper_gflops,
    }


def run_table3() -> ExperimentResult:
    """Reproduce Table III from the architectural specs, with paper deltas."""
    rows = [_model_row(name) for name in PAPER_TABLE3]
    report = (
        "Table III: evaluated DNN models (measured vs paper)\n"
        + format_table(rows, floatfmt=".2f")
    )
    return ExperimentResult(
        name="table3",
        title="DNN model specifications (Table III)",
        rows=rows,
        report=report,
    )
