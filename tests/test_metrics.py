"""Curve aggregation, the area mismatch metric, and the model quality table."""

import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactnet import (
    DataError,
    MeanCurves,
    ParseError,
    QualityRow,
    area_between,
    counts_to_curves,
    quality_table,
    read_curves_csv,
    render_quality_table,
    write_curves_csv,
)


def curves(s, i, r, n_runs=1, population=10):
    return MeanCurves(np.array([s, i, r], float), n_runs, population)


def random_curves(rng, length, population=10):
    fractions = rng.dirichlet(np.ones(3), size=length)
    return MeanCurves(fractions.T, 1, population)


def test_curves_validation():
    with pytest.raises(ValueError):
        curves([1.0, 0.9], [0.0, 0.0], [0.0, 0.0])  # leaks mass at t=1
    with pytest.raises(ValueError):
        curves([1.0], [0.0, 0.0], [0.0])
    with pytest.raises(ValueError):
        curves([], [], [])
    with pytest.raises(ValueError):
        curves([1.0, math.nan], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        curves([1.0, math.inf], [0.0, -math.inf], [0.0, 0.0])
    with pytest.raises(ValueError):
        MeanCurves(np.array([[0.5, 0.5], [0.5, 0.5]]), 1, 10)  # no R row
    raw = np.array([[1.0], [0.0], [0.0]])
    assert MeanCurves(raw, 1, 10).fractions is not raw and raw.flags.writeable


def test_counts_to_curves_worked_example():
    # two runs on 4 nodes: S counts (3, 1) and (3, 3), I counts (1, 3) and (1, 1)
    mc = counts_to_curves(np.array([[6, 4], [2, 4], [0, 0]]), 2, 4)
    assert mc.fractions.tolist() == [[0.75, 0.5], [0.25, 0.5], [0.0, 0.0]]
    assert mc.n_runs == 2
    assert mc.population == 4
    assert mc.fractions.flags.c_contiguous and not mc.fractions.flags.writeable
    # zero runs is an error, not a division by zero
    with pytest.raises(ValueError):
        counts_to_curves(np.array([[4], [0], [0]]), 0, 4)


def test_area_constant_offset_is_quadrature_invariant():
    a = curves([0.7] * 11, [0.2] * 11, [0.1] * 11)
    b = curves([1.0] * 11, [0.0] * 11, [0.0] * 11)
    # per-step discrepancy 0.3 + 0.2 + 0.1 over ten unit intervals
    assert area_between(a, b) == pytest.approx(6.0)
    assert area_between(a, b, "rectangle") == pytest.approx(6.0)


def test_area_single_interval_quadratures_differ():
    a = curves([1.0, 0.9], [0.0, 0.1], [0.0, 0.0])
    b = curves([1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
    # discrepancy is 0 at t=0 and 0.2 at t=1
    assert area_between(a, b) == pytest.approx(0.1)
    assert area_between(a, b, "rectangle") == 0.0
    with pytest.raises(ValueError):
        area_between(a, b, quadrature="simpson")


def test_area_snaps_tiny_differences_to_exact_zero():
    a = curves([1.0, 0.5], [0.0, 0.25], [0.0, 0.25])
    b = curves([1.0, 0.5 - 1e-13], [0.0, 0.25 + 1e-13], [0.0, 0.25])
    result = area_between(a, b)
    assert result == 0.0
    assert math.copysign(1.0, result) == 1.0
    assert area_between(a, a) == 0.0


def test_area_requires_matching_length_and_population():
    a = curves([1.0, 0.9], [0.0, 0.1], [0.0, 0.0])
    longer = curves([1.0, 0.9, 0.8], [0.0, 0.1, 0.2], [0.0, 0.0, 0.0])
    other_pop = curves([1.0, 0.9], [0.0, 0.1], [0.0, 0.0], population=7)
    with pytest.raises(DataError, match="disagree on length: 2 vs 3"):
        area_between(a, longer)
    with pytest.raises(DataError, match="disagree on population: 10 vs 7"):
        area_between(a, other_pop)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), length=st.integers(2, 12),
       quadrature=st.sampled_from(["trapezoid", "rectangle"]))
def test_area_is_a_pseudometric(seed, length, quadrature):
    rng = np.random.default_rng(seed)
    a, b, c = (random_curves(rng, length) for _ in range(3))
    ab = area_between(a, b, quadrature)
    assert ab >= 0.0
    assert ab == area_between(b, a, quadrature)
    assert area_between(a, a, quadrature) == 0.0
    ac = area_between(a, c, quadrature)
    bc = area_between(b, c, quadrature)
    assert ac <= ab + bc + 1e-12
    # fractions live on the simplex, so discrepancies never exceed 2 per step
    assert ab <= 2.0 * (length - 1) + 1e-12


def test_quality_table_marks_minima():
    rows = [
        QualityRow("er", 1.82, 0.597, 1),
        QualityRow("degree", 1.43, 0.504, 201),
        QualityRow("sbm", 0.73, 0.496, 207),
        QualityRow("dcsbm", 0.71, 0.385, 408),
    ]
    table = quality_table(rows)
    flags = {row["model"]: row["is_minimum"] for row in table["rows"]}
    assert flags["dcsbm"]["area"] is True
    assert flags["dcsbm"]["neg_log_likelihood_per_pair"] is True
    assert flags["er"]["parameter_count"] is True
    assert flags["sbm"]["area"] is False

    text = render_quality_table(rows)
    assert "model" in text.splitlines()[0]
    assert "0.710000 *" in text
    assert "0.385000 *" in text
    # non-minimal cells carry no marker
    assert "1.820000 *" not in text


def test_quality_table_renders_an_infinite_score_as_inf():
    rows = [QualityRow("er", 0.9, 0.5, 1), QualityRow("dcsbm", 0.4, math.inf, 8)]
    flags = {row["model"]: row["is_minimum"] for row in quality_table(rows)["rows"]}
    assert flags["dcsbm"]["neg_log_likelihood_per_pair"] is False
    assert flags["er"]["neg_log_likelihood_per_pair"] is True
    lines = render_quality_table(rows).splitlines()
    assert [re.split(r" {2,}", line) for line in lines[1:]] == [
        ["er", "0.900000", "0.500000 *", "1 *"],
        ["dcsbm", "0.400000 *", "inf", "8"],
    ]


def test_quality_table_ties_mark_every_minimum():
    rows = [QualityRow("a", 0.5, 0.1, 3), QualityRow("b", 0.5, 0.2, 3)]
    table = quality_table(rows)
    assert all(row["is_minimum"]["area"] for row in table["rows"])
    assert all(row["is_minimum"]["parameter_count"] for row in table["rows"])


def test_rendered_marks_are_quality_table_flags():
    # a tie on area, an infinite likelihood beside a finite minimum, a unique count minimum
    rows = [QualityRow("a", 0.5, math.inf, 3), QualityRow("b", 0.5, 0.2, 2),
            QualityRow("c", 0.7, 0.3, 4)]
    entries = quality_table(rows)["rows"]
    cells = [re.split(r" {2,}", line)[1:] for line in render_quality_table(rows).splitlines()[1:]]
    measures = ("area", "neg_log_likelihood_per_pair", "parameter_count")
    assert [[cell.endswith(" *") for cell in row] for row in cells] == [
        [entry["is_minimum"][m] for m in measures] for entry in entries]
    assert [row[0] for row in cells] == ["0.500000 *", "0.500000 *", "0.700000"]
    assert [row[1] for row in cells] == ["inf", "0.200000 *", "0.300000"]


def test_curves_csv_round_trip_is_bit_exact():
    mc = curves([1.0, 2 / 3, 1 / 3], [0.0, 1 / 3, 1 / 3], [0.0, 0.0, 1 / 3],
                n_runs=17, population=9)
    buf = io.StringIO()
    write_curves_csv(mc, buf)
    text = buf.getvalue()
    assert text.startswith("# population=9 n_runs=17\nt,s,i,r\n")
    back = read_curves_csv(text.splitlines())
    assert np.array_equal(back.fractions, mc.fractions)
    assert back.fractions.flags.c_contiguous and not back.fractions.flags.writeable
    assert back.population == 9 and back.n_runs == 17


def test_curves_csv_rejects_malformed_input():
    with pytest.raises(ParseError):
        read_curves_csv(["t,s,i,r", "0,1.0,0.0,0.0"])  # missing metadata header
    with pytest.raises(ParseError):
        read_curves_csv(["# population=4 n_runs=1", "t,s,i,r", "0,1.0,0.0"])
    with pytest.raises(ParseError):
        read_curves_csv(["# population=4 n_runs=1", "t,s,i,r", "0,nan,0.0,0.0"])
    with pytest.raises(ParseError):
        read_curves_csv(["# population=4 n_runs=1", "t,s,i,r", "0,inf,0.0,0.0"])
    with pytest.raises(ParseError, match="^line 4: time indices must be consecutive from 0$"):
        read_curves_csv(["# population=4 n_runs=1", "t,s,i,r", "0,1.0,0.0,0.0",
                         "2,1.0,0.0,0.0"])
    with pytest.raises(ParseError, match="^line 3: malformed curve row$"):
        read_curves_csv(["# population=4 n_runs=1", "t,s,i,r", "0,one,0.0,0.0"])
