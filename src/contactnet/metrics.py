"""Ensemble aggregation and model-quality measures.

The headline measure is the L1 area between mean compartment curves, summed
over S, I and R with unit time steps.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

CURVE_SUM_TOL = 1e-12
IDENTITY_TOL = 1e-12
QUADRATURES = ("trapezoid", "rectangle")


@dataclass(frozen=True)
class MeanCurves:
    """Mean S/I/R fractions over time for one ensemble.

    n_runs is the ensemble size (0 marks analytically exact curves);
    population is the node count the fractions refer to.
    """

    s_frac: np.ndarray
    i_frac: np.ndarray
    r_frac: np.ndarray
    n_runs: int
    population: int

    def __post_init__(self):
        arrays = []
        for name in ("s_frac", "i_frac", "r_frac"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            arrays.append(arr)
        lengths = {len(a) for a in arrays}
        if len(lengths) != 1 or 0 in lengths:
            raise ValueError("compartment curves must share a positive length")
        if self.population < 1:
            raise ValueError("population must be positive")
        if self.n_runs < 0:
            raise ValueError("n_runs must be nonnegative")
        stack = np.stack(arrays)
        if not np.all(np.isfinite(stack)):
            raise ValueError("curve entries must be finite")
        if stack.min() < -1e-9 or stack.max() > 1 + 1e-9:
            raise ValueError("curve entries must be fractions in [0, 1]")
        total = stack.sum(axis=0)
        if np.max(np.abs(total - 1.0)) > CURVE_SUM_TOL:
            raise ValueError("compartment fractions must sum to 1 at every time")

    def __len__(self):
        return len(self.s_frac)


def counts_to_curves(totals: np.ndarray, runs: int, population: int) -> MeanCurves:
    """Mean curves from S/I/R count sums (rows of `totals`) over `runs` runs."""
    denom = runs * population
    return MeanCurves(totals[0] / denom, totals[1] / denom, totals[2] / denom,
                      runs, population)


def area_between(a: MeanCurves, b: MeanCurves, quadrature: str = "trapezoid") -> float:
    """Sum over compartments of the integral of |a - b| over time (unit steps).

    Returns exactly 0 when the curves agree within 1e-12 everywhere. The
    default trapezoid rule can be swapped for a left-sum rectangle rule.
    """
    if quadrature not in QUADRATURES:
        raise ValueError(f"unknown quadrature {quadrature!r}")
    if len(a) != len(b):
        raise ValueError("curves must have the same length")
    if a.population != b.population:
        raise ValueError("curves must refer to the same population")
    diffs = [
        np.abs(a.s_frac - b.s_frac),
        np.abs(a.i_frac - b.i_frac),
        np.abs(a.r_frac - b.r_frac),
    ]
    if max(d.max() for d in diffs) <= IDENTITY_TOL:
        return 0.0
    total = 0.0
    for d in diffs:
        if quadrature == "trapezoid":
            total += float((d[:-1] + d[1:]).sum() / 2.0)
        else:
            total += float(d[:-1].sum())
    return total


# ---------------------------------------------------------------------------
# quality table

@dataclass(frozen=True)
class QualityRow:
    model_name: str
    area: float
    neg_log_likelihood_per_pair: float
    parameter_count: int

    def __post_init__(self):
        if self.area < 0:
            raise ValueError("area must be nonnegative")


_MEASURES = ("area", "neg_log_likelihood_per_pair", "parameter_count")


def _minima(rows: list[QualityRow]) -> dict[str, float]:
    return {m: min(getattr(r, m) for r in rows) for m in _MEASURES}


def quality_table(rows: list[QualityRow]) -> dict:
    """JSON-able fragment: one entry per row, with the per-measure minima marked."""
    rows = list(rows)
    minima = _minima(rows) if rows else {}
    return {"rows": [
        {
            "model": r.model_name,
            "area": r.area,
            "neg_log_likelihood_per_pair": r.neg_log_likelihood_per_pair,
            "parameter_count": r.parameter_count,
            "is_minimum": {m: getattr(r, m) == minima[m] for m in _MEASURES},
        }
        for r in rows
    ]}


def _fmt_measure(value: float, minimum: float, integer: bool = False) -> str:
    if math.isinf(value):
        text = "inf"
    elif integer:
        text = str(int(value))
    else:
        text = f"{value:.6f}"
    if value == minimum:
        text += " *"
    return text


def render_quality_table(rows: list[QualityRow]) -> str:
    """Aligned-text rendering; '*' marks the best (lowest) value per measure."""
    rows = list(rows)
    minima = _minima(rows) if rows else {}
    table = [["model", "area_between_sir_curves", "neg_log_likelihood_per_pair",
              "parameter_count"]]
    for r in rows:
        table.append([
            r.model_name,
            _fmt_measure(r.area, minima["area"]),
            _fmt_measure(r.neg_log_likelihood_per_pair, minima["neg_log_likelihood_per_pair"]),
            _fmt_measure(float(r.parameter_count), minima["parameter_count"], integer=True),
        ])
    widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in table]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# curve CSV round-trip

def write_curves_csv(curves: MeanCurves, stream) -> None:
    """Dump mean curves as CSV with a provenance comment header."""
    stream.write(f"# population={curves.population} n_runs={curves.n_runs}\n")
    stream.write("t,s,i,r\n")
    for t in range(len(curves)):
        s, i, r = float(curves.s_frac[t]), float(curves.i_frac[t]), float(curves.r_frac[t])
        stream.write(f"{t},{s!r},{i!r},{r!r}\n")


def read_curves_csv(lines) -> MeanCurves:
    """Parse the write_curves_csv format back into MeanCurves."""
    it = iter(lines)
    try:
        head = next(it).strip()
    except StopIteration:
        raise ParseError("empty curves file", 1) from None
    if not head.startswith("#"):
        raise ParseError("expected '# population=... n_runs=...' comment header", 1)
    meta = {}
    for token in head.lstrip("#").split():
        if "=" in token:
            key, _, val = token.partition("=")
            meta[key] = val
    try:
        population = int(meta["population"])
        n_runs = int(meta["n_runs"])
    except (KeyError, ValueError):
        raise ParseError("header must carry integer population= and n_runs=", 1) from None
    reader = csv.DictReader(it)
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["t", "s", "i", "r"]:
        raise ParseError("expected column header t,s,i,r", 2)
    s, i, r = [], [], []
    for lineno, row in enumerate(reader, start=3):
        try:
            if int(row["t"]) != lineno - 3:
                raise ParseError("time indices must be consecutive from 0", lineno)
            s.append(float(row["s"]))
            i.append(float(row["i"]))
            r.append(float(row["r"]))
        except (TypeError, ValueError):
            raise ParseError("malformed curve row", lineno) from None
    if not s:
        raise ParseError("curves file holds no rows", 3)
    try:
        return MeanCurves(np.array(s), np.array(i), np.array(r), n_runs, population)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
