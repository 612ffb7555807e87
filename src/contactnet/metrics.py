"""Ensemble aggregation and model-quality measures.

The headline measure is the L1 area between mean compartment curves, summed
over S, I and R with unit time steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import DataError, ParseError
from .graph import _DECIMAL, _read_csv_rows
from .schema import Declared, integer

CURVE_SUM_TOL = 1e-12
IDENTITY_TOL = 1e-12
QUADRATURES = ("trapezoid", "rectangle")


@dataclass(frozen=True)
class MeanCurves(Declared):
    """Mean S/I/R fractions over time for one ensemble.

    fractions has rows S, I and R and one column per time step; n_runs is the
    ensemble size (0 marks analytically exact curves); population is the node
    count the fractions refer to.
    """

    fractions: np.ndarray
    n_runs: Annotated[int, 0]
    population: int

    def __post_init__(self):
        super().__post_init__()
        # a copy, so freezing it leaves the caller's array writable
        frac = np.array(self.fractions, dtype=float, order="C")
        frac.setflags(write=False)
        object.__setattr__(self, "fractions", frac)
        if frac.ndim != 2 or frac.shape[0] != 3 or frac.shape[1] == 0:
            raise ValueError("fractions must be 3 rows (S, I, R) of a positive length")
        if self.population < 1:
            raise ValueError("population must be positive")
        if not np.all(np.isfinite(frac)):
            raise ValueError("curve entries must be finite")
        if frac.min() < -1e-9 or frac.max() > 1 + 1e-9:
            raise ValueError("curve entries must be fractions in [0, 1]")
        if np.max(np.abs(frac.sum(axis=0) - 1.0)) > CURVE_SUM_TOL:
            raise ValueError("compartment fractions must sum to 1 at every time")

    def __len__(self):
        return self.fractions.shape[1]


def counts_to_curves(totals: np.ndarray, runs: int, population: int) -> MeanCurves:
    """Mean curves from S/I/R count sums (rows of `totals`) over `runs` runs."""
    runs = integer(runs, "runs", 1)
    return MeanCurves(totals / (runs * population), runs, population)


def area_between(a: MeanCurves, b: MeanCurves, quadrature: str = "trapezoid") -> float:
    """Sum over compartments of the integral of |a - b| over time (unit steps).

    Returns exactly 0 when the curves agree within 1e-12 everywhere. The
    default trapezoid rule can be swapped for a left-sum rectangle rule.
    """
    if quadrature not in QUADRATURES:
        raise ValueError(f"unknown quadrature {quadrature!r}")
    if len(a) != len(b):
        raise DataError(f"curves disagree on length: {len(a)} vs {len(b)}")
    if a.population != b.population:
        raise DataError(f"curves disagree on population: {a.population} vs {b.population}")
    diffs = np.abs(a.fractions - b.fractions)
    if diffs.max() <= IDENTITY_TOL:
        return 0.0
    total = 0.0
    for d in diffs:  # S, I, R, each summed on its own
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


def quality_table(rows: list[QualityRow]) -> dict:
    """JSON-able fragment: one entry per row, with the per-measure minima marked."""
    rows = list(rows)
    minima = {m: min(getattr(r, m) for r in rows) for m in _MEASURES} if rows else {}
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


def _fmt_measure(value: float, integer: bool = False) -> str:
    if math.isinf(value):
        return "inf"
    return str(int(value)) if integer else f"{value:.6f}"


def render_quality_table(rows: list[QualityRow]) -> str:
    """Aligned-text rendering of quality_table(rows); ' *' marks each is_minimum cell."""
    table = [["model", "area_between_sir_curves", "neg_log_likelihood_per_pair",
              "parameter_count"]]
    for entry in quality_table(rows)["rows"]:
        table.append([entry["model"]] + [
            _fmt_measure(entry[m], integer=m == "parameter_count")
            + (" *" if entry["is_minimum"][m] else "")
            for m in _MEASURES
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
    for t, (s, i, r) in enumerate(curves.fractions.T.tolist()):
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
    population, n_runs = meta.get("population", ""), meta.get("n_runs", "")
    if not (_DECIMAL.fullmatch(population) and _DECIMAL.fullmatch(n_runs)):
        raise ParseError("header must carry integer population= and n_runs=", 1)
    rows = []
    for lineno, (t, *fractions) in _read_csv_rows(it, ("t", "s", "i", "r"), exact=True,
                                                  header_line=2):
        try:
            if t == str(len(rows)):  # the row index, as write_curves_csv writes it
                rows.append([float(x) for x in fractions])
                continue
        except ValueError:
            raise ParseError("malformed curve row", lineno) from None
        raise ParseError("time indices must be consecutive from 0", lineno)
    if not rows:
        raise ParseError("curves file holds no rows", 3)
    try:
        return MeanCurves(np.transpose(rows), int(n_runs), int(population))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
