"""Edge-probability models: fitting, likelihood, sampling, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactnet import (
    DcsbmModel,
    ErModel,
    FitError,
    Graph,
    ParseError,
    Partition,
    fit_dcsbm,
    fit_degree,
    fit_er,
    fit_sbm,
    load_model,
    log_likelihood_per_pair,
    sample_graph,
    save_model,
)
from contactnet.models import DEGREE_SUM_TOL, model_from_dict, model_to_dict

K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
P3 = Graph(3, [(0, 1), (1, 2)])
STAR4 = Graph(4, [(0, 1), (0, 2), (0, 3)])
# the DC-SBM worked example: two blocks of two, one edge inside each, one across
DC_GRAPH = Graph(4, [(0, 1), (0, 2), (2, 3)])
DC_PART = Partition.from_assignments(DC_GRAPH, np.array([0, 0, 1, 1]))


def expected_edge_sum(model):
    return model.probability_matrix().sum() / 2.0


def expected_block_sums(model, assignments, k):
    p = model.probability_matrix()
    sums = np.zeros((k, k))
    n = len(assignments)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = sorted((assignments[i], assignments[j]))
            sums[a, b] += p[i, j]
    return sums


def test_fit_er_worked_examples():
    assert fit_er(K3).p == 1.0
    assert fit_er(P3).p == pytest.approx(2 / 3)
    assert fit_er(Graph(5)).p == 0.0
    assert expected_edge_sum(fit_er(P3)) == pytest.approx(2.0, abs=1e-12)


def test_fit_degree_exact_sum_on_a_star():
    # star on 4 nodes: scale solves 3*(3a) + 3*a = 3, so a = 1/4
    model = fit_degree(STAR4)
    assert model.mode == "exact_sum"
    assert not model.capped
    assert model.scale == pytest.approx(0.25)
    p = model.probability_matrix()
    assert p[0, 1] == pytest.approx(0.75)
    assert p[1, 2] == pytest.approx(0.25)
    assert abs(expected_edge_sum(model) - 3.0) <= DEGREE_SUM_TOL


def test_fit_degree_chung_lu_on_a_star():
    model = fit_degree(STAR4, mode="chung_lu")
    assert model.scale == pytest.approx(1 / 6)
    p = model.probability_matrix()
    assert p[0, 1] == pytest.approx(0.5)
    assert p[1, 2] == pytest.approx(1 / 6)


def test_fit_degree_exact_sum_handles_capping():
    # double star: the hub-hub product must be capped at 1, the remaining
    # mass solves 1 + 63a = 7
    hubs = [(0, 1)]
    leaves = [(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]
    g = Graph(8, hubs + leaves)
    model = fit_degree(g)
    assert model.capped
    assert model.scale == pytest.approx(2 / 21, abs=1e-9)
    assert model.probability_matrix()[0, 1] == 1.0
    assert abs(expected_edge_sum(model) - 7.0) <= DEGREE_SUM_TOL


def test_degree_model_on_regular_graph_matches_er():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    er = fit_er(c5)
    deg = fit_degree(c5)
    assert np.allclose(deg.probability_matrix(), er.probability_matrix())
    assert log_likelihood_per_pair(deg, c5) == pytest.approx(
        log_likelihood_per_pair(er, c5))


def test_chung_lu_per_node_sums_follow_closed_form():
    rng = np.random.default_rng(3)
    pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    g = Graph(12, [p for p in pairs if rng.random() < 0.25])
    model = fit_degree(g, mode="chung_lu")
    if model.capped:
        pytest.skip("sampled a capped instance; closed form needs uncapped")
    two_m = 2 * g.n_edges
    row_sums = model.probability_matrix().sum(axis=1)
    d = g.degrees.astype(float)
    assert np.allclose(row_sums, d * (two_m - d) / two_m, atol=1e-12)


def test_fit_degree_rejects_edgeless_graphs_and_bad_modes():
    with pytest.raises(FitError):
        fit_degree(Graph(3))
    with pytest.raises(ValueError):
        fit_degree(P3, mode="almost")


def test_fit_sbm_worked_example():
    g = Graph(4, [(0, 1), (0, 2)])
    part = Partition.from_assignments(g, np.array([0, 0, 1, 1]))
    model = fit_sbm(g, part)
    assert model.k == 2
    assert model.block_probs[0, 0] == 1.0
    assert model.block_probs[0, 1] == pytest.approx(0.25)
    assert model.block_probs[1, 1] == 0.0
    p = model.probability_matrix()
    assert p[0, 1] == 1.0
    assert p[0, 3] == pytest.approx(0.25)
    assert p[2, 3] == 0.0
    sums = expected_block_sums(model, [0, 0, 1, 1], 2)
    assert sums[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert sums[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_fit_sbm_defines_empty_pairs_as_zero():
    part = Partition.from_assignments(P3, np.array([0, 1, 1]))
    model = fit_sbm(P3, part)
    # the singleton block has no internal pair; its rate must be 0, not NaN
    assert model.block_probs[0, 0] == 0.0
    assert np.all(np.isfinite(model.block_probs))


def test_fit_dcsbm_worked_example_exact_mode():
    model = fit_dcsbm(DC_GRAPH, DC_PART)
    assert model.mode == "exact"
    assert model.degree_share == pytest.approx([2 / 3, 1 / 3, 2 / 3, 1 / 3])
    assert model.block_rates[0, 0] == pytest.approx(4.5)
    assert model.block_rates[1, 1] == pytest.approx(4.5)
    assert model.block_rates[0, 1] == pytest.approx(1.0)
    p = model.probability_matrix()
    assert p[0, 1] == pytest.approx(1.0)
    assert p[0, 2] == pytest.approx((2 / 3) * (2 / 3) * 1.0)
    sums = expected_block_sums(model, [0, 0, 1, 1], 2)
    assert np.allclose(sums, [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)


def test_fit_dcsbm_plugin_mode_uses_raw_block_counts():
    model = fit_dcsbm(DC_GRAPH, DC_PART, mode="plugin")
    assert model.mode == "plugin"
    assert model.block_rates.tolist() == [[1.0, 1.0], [0.0, 1.0]] or \
        model.block_rates[0, 0] == 1.0
    assert model.probability_matrix()[0, 1] == pytest.approx(2 / 9)


def test_fit_dcsbm_rejects_zero_degree_blocks():
    # a block with no edge endpoints has undefined degree shares
    g = Graph(4, [(0, 1)])
    part = Partition.from_assignments(g, np.array([0, 0, 1, 1]))
    with pytest.raises(FitError):
        fit_dcsbm(g, part)


def test_parameter_counts_follow_block_count_and_size():
    assert fit_er(P3).parameter_count() == 1
    assert fit_degree(P3).parameter_count() == 3
    g = Graph(6, [(0, 1), (2, 3), (4, 5), (1, 2)])
    part3 = Partition.from_assignments(g, np.array([0, 0, 1, 1, 2, 2]))
    assert fit_sbm(g, part3).parameter_count() == 6 + 6
    assert fit_dcsbm(g, part3).parameter_count() == 12 + 6
    # block-rate matrices are symmetric: k(k+1)/2 free entries
    n, k = 126, 3
    share = np.full(n, 1.0 / 42)
    model = DcsbmModel(n, tuple(str(i) for i in range(n)),
                       np.repeat(np.arange(k), 42), k,
                       share, np.ones((k, k)), "plugin")
    assert model.parameter_count() == 2 * n + k * (k + 1) // 2


@pytest.mark.parametrize("builder", [
    lambda: fit_er(P3),
    lambda: fit_degree(STAR4),
    lambda: fit_degree(STAR4, mode="chung_lu"),
    lambda: fit_sbm(DC_GRAPH, DC_PART),
    lambda: fit_dcsbm(DC_GRAPH, DC_PART),
    lambda: fit_dcsbm(DC_GRAPH, DC_PART, mode="plugin"),
])
def test_serialization_round_trip_is_bit_exact(builder, tmp_path):
    model = builder()
    again = model_from_dict(model_to_dict(model))
    assert type(again) is type(model)
    assert np.array_equal(again.probability_matrix(), model.probability_matrix())
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert np.array_equal(loaded.probability_matrix(), model.probability_matrix())
    assert loaded.labels == model.labels


def test_model_deserialization_rejects_garbage(tmp_path):
    with pytest.raises(ValueError):
        model_from_dict({"variant": "hypergraph", "n_nodes": 2, "labels": ["a", "b"]})
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_model(str(path))


def test_sampling_respects_degenerate_probabilities():
    rng = np.random.default_rng(0)
    full = sample_graph(fit_er(K3), rng)
    assert full.n_edges == 3
    empty = sample_graph(ErModel(6, tuple("abcdef"), 0.0), rng)
    assert empty.n_edges == 0
    assert empty.labels == tuple("abcdef")


def test_sampling_matches_probabilities_in_frequency():
    model = ErModel(10, tuple(str(i) for i in range(10)), 0.5)
    rng = np.random.default_rng(11)
    total = sum(sample_graph(model, rng).n_edges for _ in range(2000))
    # Binomial(90000, .5): five sigma is roughly 750
    assert abs(total - 45000) < 750


def test_sampling_is_deterministic_per_seed():
    model = fit_degree(STAR4, mode="chung_lu")
    a = sample_graph(model, np.random.default_rng(42))
    b = sample_graph(model, np.random.default_rng(42))
    assert a == b


def test_log_likelihood_worked_examples():
    assert log_likelihood_per_pair(fit_er(K3), K3) == 0.0
    assert log_likelihood_per_pair(fit_er(Graph(4)), Graph(4)) == 0.0
    expected = (2 * math.log(2 / 3) + math.log(1 / 3)) / 3
    assert log_likelihood_per_pair(fit_er(P3), P3) == pytest.approx(expected)
    # impossible observations send the likelihood to -inf
    assert log_likelihood_per_pair(ErModel(2, ("a", "b"), 0.0), Graph(2, [(0, 1)])) == -math.inf
    assert log_likelihood_per_pair(ErModel(2, ("a", "b"), 1.0), Graph(2)) == -math.inf


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 9),
    bits=st.integers(0, 2 ** 36 - 1),
    alt_p=st.floats(0.01, 0.99),
)
def test_fit_er_maximizes_likelihood(n, bits, alt_p):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph(n, [p for idx, p in enumerate(pairs) if bits >> idx & 1])
    fitted = fit_er(g)
    rival = ErModel(n, g.labels, alt_p)
    assert log_likelihood_per_pair(fitted, g) >= log_likelihood_per_pair(rival, g) - 1e-12
