"""Edge-probability models: fitting, likelihood, sampling, serialization."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactnet import (
    ConfigError,
    DcsbmModel,
    DegreeModel,
    ErModel,
    FitError,
    Graph,
    ParseError,
    Partition,
    SbmModel,
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
from dense import probability_matrix

K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
P3 = Graph(3, [(0, 1), (1, 2)])
STAR4 = Graph(4, [(0, 1), (0, 2), (0, 3)])
# the DC-SBM worked example: two blocks of two, one edge inside each, one across
DC_GRAPH = Graph(4, [(0, 1), (0, 2), (2, 3)])
DC_PART = Partition(np.array([0, 0, 1, 1]), 2)


def expected_edge_sum(model):
    return probability_matrix(model).sum() / 2.0


def expected_block_sums(model, assignments, k):
    p = probability_matrix(model)
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
    p = probability_matrix(model)
    assert p[0, 1] == pytest.approx(0.75)
    assert p[1, 2] == pytest.approx(0.25)
    assert abs(expected_edge_sum(model) - 3.0) <= DEGREE_SUM_TOL


def test_fit_degree_chung_lu_on_a_star():
    model = fit_degree(STAR4, mode="chung_lu")
    assert model.scale == pytest.approx(1 / 6)
    p = probability_matrix(model)
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
    assert model.scale.hex() == "0x1.8618618600000p-4"
    assert probability_matrix(model)[0, 1] == 1.0
    assert abs(expected_edge_sum(model) - 7.0) <= DEGREE_SUM_TOL


def test_degree_model_on_regular_graph_matches_er():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    er = fit_er(c5)
    deg = fit_degree(c5)
    assert np.allclose(probability_matrix(deg), probability_matrix(er))
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
    row_sums = probability_matrix(model).sum(axis=1)
    d = g.degrees.astype(float)
    assert np.allclose(row_sums, d * (two_m - d) / two_m, atol=1e-12)


def test_fit_degree_rejects_edgeless_graphs_and_bad_modes():
    with pytest.raises(FitError):
        fit_degree(Graph(3))
    with pytest.raises(ValueError):
        fit_degree(P3, mode="almost")


def test_fit_sbm_worked_example():
    g = Graph(4, [(0, 1), (0, 2)])
    part = Partition(np.array([0, 0, 1, 1]), 2)
    model = fit_sbm(g, part)
    assert model.k == 2
    assert model.block_probs[0, 0] == 1.0
    assert model.block_probs[0, 1] == pytest.approx(0.25)
    assert model.block_probs[1, 1] == 0.0
    p = probability_matrix(model)
    assert p[0, 1] == 1.0
    assert p[0, 3] == pytest.approx(0.25)
    assert p[2, 3] == 0.0
    sums = expected_block_sums(model, [0, 0, 1, 1], 2)
    assert sums[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert sums[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_fit_sbm_defines_empty_pairs_as_zero():
    part = Partition(np.array([0, 1, 1]), 2)
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
    p = probability_matrix(model)
    assert p[0, 1] == pytest.approx(1.0)
    assert p[0, 2] == pytest.approx((2 / 3) * (2 / 3) * 1.0)
    sums = expected_block_sums(model, [0, 0, 1, 1], 2)
    assert np.allclose(sums, [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)


def test_fit_dcsbm_plugin_mode_uses_raw_block_counts():
    model = fit_dcsbm(DC_GRAPH, DC_PART, mode="plugin")
    assert model.mode == "plugin"
    assert model.block_rates.tolist() == [[1.0, 1.0], [0.0, 1.0]] or \
        model.block_rates[0, 0] == 1.0
    assert probability_matrix(model)[0, 1] == pytest.approx(2 / 9)


def test_block_fits_count_blocks_on_the_graph_they_fit():
    # a partition carries no counts: each fit counts its blocks on the graph it fits
    part = Partition(np.array([0, 0, 1, 1]), 2)
    across = Graph(4, [(0, 2), (1, 3), (0, 3)])
    sbm = fit_sbm(across, part)
    assert sbm.block_probs.tolist() == [[0.0, 0.75], [0.75, 0.0]]
    assert math.isfinite(log_likelihood_per_pair(sbm, across))
    for mode in ("exact", "plugin"):
        assert fit_dcsbm(across, part, mode).block_rates.tolist() == [[0.0, 3.0], [3.0, 0.0]]
    with pytest.raises(ValueError):
        fit_sbm(Graph(5, [(0, 1)]), part)
    with pytest.raises(ValueError):
        fit_dcsbm(Graph(5, [(0, 1)]), part)


def test_fit_dcsbm_rejects_zero_degree_blocks():
    # a block with no edge endpoints has undefined degree shares
    g = Graph(4, [(0, 1)])
    part = Partition(np.array([0, 0, 1, 1]), 2)
    with pytest.raises(FitError):
        fit_dcsbm(g, part)


def test_parameter_counts_follow_block_count_and_size():
    assert fit_er(P3).parameter_count() == 1
    assert fit_degree(P3).parameter_count() == 3
    g = Graph(6, [(0, 1), (2, 3), (4, 5), (1, 2)])
    part3 = Partition(np.array([0, 0, 1, 1, 2, 2]), 3)
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
    assert np.array_equal(probability_matrix(again), probability_matrix(model))
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert np.array_equal(probability_matrix(loaded), probability_matrix(model))
    assert loaded.labels == model.labels


def test_model_deserialization_rejects_garbage(tmp_path):
    with pytest.raises(ValueError):
        model_from_dict({"variant": "hypergraph", "n_nodes": 2, "labels": ["a", "b"]})
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_model(str(path))


def test_model_documents_follow_field_order():
    labels = ["0", "1", "2", "3"]
    assert list(model_to_dict(fit_er(STAR4))) == ["variant", "n_nodes", "labels", "p"]
    doc = model_to_dict(fit_degree(STAR4))
    assert doc == {"variant": "degree", "n_nodes": 4, "labels": labels,
                   "scale": doc["scale"], "degrees": [3, 1, 1, 1], "mode": "exact_sum"}
    assert list(doc) == ["variant", "n_nodes", "labels", "scale", "degrees", "mode"]
    assert list(model_to_dict(fit_sbm(DC_GRAPH, DC_PART))) == [
        "variant", "n_nodes", "labels", "assignments", "k", "block_probs"]
    assert list(model_to_dict(fit_dcsbm(DC_GRAPH, DC_PART))) == [
        "variant", "n_nodes", "labels", "assignments", "k", "degree_share", "block_rates",
        "mode"]


def test_model_documents_in_the_old_key_order_still_load():
    # files written before the documents followed field order carry `mode` third
    doc = {"variant": "dcsbm", "n_nodes": 4, "labels": ["0", "1", "2", "3"],
           "mode": "exact", "assignments": [0, 0, 1, 1], "k": 2,
           "degree_share": [2 / 3, 1 / 3, 2 / 3, 1 / 3],
           "block_rates": [[4.5, 1.0], [1.0, 4.5]]}
    model = model_from_dict(doc)
    assert np.array_equal(probability_matrix(model),
                          probability_matrix(fit_dcsbm(DC_GRAPH, DC_PART)))
    assert sample_graph(model, np.random.default_rng(3)).n_nodes == 4
    # an integer stands for a float and is read as one
    zero = model_from_dict({"variant": "er", "n_nodes": 3, "labels": ["a", "b", "c"], "p": 0})
    assert zero.p == 0.0 and isinstance(zero.p, float)
    assert sample_graph(zero, np.random.default_rng(0)).n_edges == 0


def test_model_documents_are_read_strictly():
    base = model_to_dict(fit_degree(STAR4))
    for key, value, message in [
        ("scale", "0.1", "model.scale must be a number, got '0.1'"),
        ("n_nodes", 4.7, "model.n_nodes must be an integer, got 4.7"),
        ("labels", "abcd", "model.labels must be a JSON array"),
        ("labels", ["0", "1", "2", 3], "model.labels[3] must be a string, got 3"),
        ("scale", math.nan, "invalid model: scale must be finite and positive"),
        ("scale", math.inf, "invalid model: scale must be finite and positive"),
        ("degrees", [2.9, 1, 1, 1], "invalid model: degrees must hold only integers"),
        ("degrees", [True, 1, 1, 1], "invalid model: degrees must hold only integers"),
        ("mode", "plugin", "model.mode must be one of exact_sum, chung_lu, got 'plugin'"),
        ("extra", 1, "unknown key(s) in model: extra"),
    ]:
        with pytest.raises(ConfigError) as info:
            model_from_dict(dict(base, **{key: value}))
        assert str(info.value) == message
    for doc in ([], {"n_nodes": 4}, dict(base, variant=True), dict(base, variant="ER")):
        with pytest.raises(ValueError):
            model_from_dict(doc)
    sbm = model_to_dict(fit_sbm(DC_GRAPH, DC_PART))
    with pytest.raises(ConfigError, match="model.k must be an integer, got True"):
        model_from_dict(dict(sbm, k=True))


def test_model_classes_validate_their_fields():
    labels = ("a", "b", "c")
    # float fields are coerced, so an integer probability samples like a float one
    assert sample_graph(ErModel(3, labels, 1), np.random.default_rng(0)).n_edges == 3
    assert DegreeModel(3, labels, 1, [1, 1, 0], "chung_lu").scale == 1.0
    for build in [
        lambda: ErModel(3, ("a", "a", "b"), 0.5),  # duplicate labels
        lambda: DegreeModel(3, labels, math.nan, [1, 1, 0], "chung_lu"),
        lambda: DegreeModel(3, labels, 0.5, [1.5, 1, 0], "chung_lu"),
        lambda: DegreeModel(3, labels, 0.5, np.array([True, True, False]), "chung_lu"),
        lambda: SbmModel(3, labels, ["0", "0", "0"], 1, [[0.5]]),
        lambda: SbmModel(3, labels, [[0, 0], [0]], 1, [[0.5]]),  # ragged
        lambda: SbmModel(3, labels, [0, 0, 0], 1, [[math.nan]]),
        lambda: SbmModel(3, labels, [0, 0, 0], 10 ** 30, [[0.5]]),
        lambda: DcsbmModel(2, ("a", "b"), [0, 0], 1, [0.5, 0.5], [[math.inf]], "exact"),
        lambda: DcsbmModel(2, ("a", "b"), [0, 0], 1, [math.nan, 0.5], [[1.0]], "exact"),
        lambda: DcsbmModel(2, ("a", "b"), [0, 10 ** 30], 1, [0.5, 0.5], [[1.0]], "exact"),
    ]:
        with pytest.raises(ValueError):
            build()


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


def test_fits_and_pair_vectors_build_no_square_array():
    # a random sparse graph on 2000 nodes, 4 communities, an uncapped degree fit
    n = 2000
    rng = np.random.default_rng(5)
    ends = rng.integers(0, n, size=(8000, 2))
    g = Graph(n, ends[ends[:, 0] != ends[:, 1]])
    part = Partition(np.arange(n) % 4, 4)
    budget = 1.5 * 8 * math.comb(n, 2)
    for fit in (fit_er, fit_degree, lambda g: fit_sbm(g, part), lambda g: fit_dcsbm(g, part)):
        tracemalloc.start()
        try:
            model = fit(g)
            model.pair_probabilities()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not model.capped
        assert peak < budget, (model.variant, peak / (8 * math.comb(n, 2)))


# ---------------------------------------------------------------------------
# the pair vector against reference copies of the N x N code it replaced

def reference_raw_matrix(model):
    """Each variant's formula over all N x N pairs, as the models computed it before."""
    if model.variant == "er":
        return np.full((model.n_nodes, model.n_nodes), model.p)
    if model.variant == "degree":
        d = model.degrees.astype(float)
        return model.scale * np.outer(d, d)
    a = model.assignments
    if model.variant == "sbm":
        return model.block_probs[a][:, a]
    return np.outer(model.degree_share, model.degree_share) * model.block_rates[a][:, a]


def reference_probability_matrix(model):
    m = reference_raw_matrix(model)
    np.fill_diagonal(m, 0.0)
    capped = bool(np.any(m > 1.0))
    np.minimum(m, 1.0, out=m)
    return m, capped


def reference_sample_edges(model, rng):
    rows, cols = np.triu_indices(model.n_nodes, 1)
    probs = reference_probability_matrix(model)[0][rows, cols]
    keep = rng.random(len(probs)) < probs
    return np.column_stack((rows[keep], cols[keep]))


def reference_log_likelihood_per_pair(model, g):
    n = g.n_nodes
    rows, cols = np.triu_indices(n, 1)
    probs = reference_probability_matrix(model)[0][rows, cols]
    present = np.zeros((n, n), dtype=bool)
    if g.n_edges:
        present[g.edges[:, 0], g.edges[:, 1]] = True
    present = present[rows, cols]
    with np.errstate(divide="ignore"):
        terms = np.where(present, np.log(probs), np.log1p(-probs))
    return float(terms.sum() / math.comb(n, 2))


def models_of_every_kind(n, seed):
    """Each variant with random parameters, some pairs at probability 0 or 1, and
    a degree model and a dcsbm whose raw values exceed 1 (capped)."""
    rng = np.random.default_rng(seed)
    labels = tuple(str(i) for i in range(n))
    k = min(n, 3)
    assign = np.arange(n) % k
    blocks = rng.random((k, k))
    blocks[0, -1] = 0.0
    blocks[-1, -1] = 1.0
    blocks = np.triu(blocks) + np.triu(blocks, 1).T
    degrees = rng.integers(0, 6, n)
    weight = rng.random(n) + 0.01
    share = weight / np.bincount(assign, weights=weight)[assign]
    rates = rng.random((k, k)) * n
    rates = rates + rates.T
    models = [
        ErModel(n, labels, float(rng.random())),
        ErModel(n, labels, 1.0),
        DegreeModel(n, labels, 0.02, degrees, "exact_sum"),
        DegreeModel(n, labels, 0.5, degrees, "chung_lu"),
        SbmModel(n, labels, assign, k, blocks),
        DcsbmModel(n, labels, assign, k, share, rates, "plugin"),
        DcsbmModel(n, labels, assign, k, share, rates * n, "exact"),
    ]
    if n >= 2:
        g = sample_graph(models[4], rng)
        part = Partition(assign, k)
        models += [fit_er(g), fit_sbm(g, part)]
        if g.n_edges:
            models.append(fit_degree(g))
        if np.all(np.bincount(assign, weights=g.degrees) > 0):
            models.append(fit_dcsbm(g, part))
    return models


SIZES = (1, 2, 3, 57, 201)


@pytest.mark.parametrize("n", SIZES)
def test_probability_matrix_and_capped_match_the_reference(n):
    capped = []
    for model in models_of_every_kind(n, seed=n):
        matrix, was_capped = reference_probability_matrix(model)
        assert np.array_equal(probability_matrix(model), matrix)
        assert model.capped == was_capped
        capped.append(was_capped)
        assert np.array_equal(model.pair_probabilities(), matrix[np.triu_indices(n, 1)])
        assert not model.pair_probabilities().flags.writeable
    if n >= 3:
        assert any(capped) and not all(capped)


@pytest.mark.parametrize("n", SIZES)
def test_sampling_matches_the_reference_sampler(n):
    for seed in range(4):
        for model in models_of_every_kind(n, seed):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            g = sample_graph(model, rng)
            edges = reference_sample_edges(model, ref_rng)
            assert np.array_equal(g.edges, edges)
            assert g.edges.dtype == np.int64
            assert g.labels == model.labels
            assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", SIZES[1:])
def test_log_likelihood_matches_the_reference_bit_for_bit(n):
    rng = np.random.default_rng(n)
    infinite = 0
    for model in models_of_every_kind(n, seed=n):
        own = sample_graph(model, rng)
        dense = Graph(n, np.argwhere(np.triu(rng.random((n, n)) < 0.3, 1)))
        for g in (own, dense, Graph(n)):
            value = log_likelihood_per_pair(model, g)
            assert value == reference_log_likelihood_per_pair(model, g)
            infinite += value == -math.inf
    assert infinite > 0
    # p = 0 on an observed edge and p = 1 on an absent pair
    for p, g in ((0.0, Graph(n, [(0, n - 1)])), (1.0, Graph(n))):
        model = ErModel(n, tuple(map(str, range(n))), p)
        assert log_likelihood_per_pair(model, g) == -math.inf
        assert reference_log_likelihood_per_pair(model, g) == -math.inf


_IDENTITY_RATES = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("call, message", [
    (lambda: log_likelihood_per_pair(ErModel(3, ("a", "b", "c"), 0.5), Graph(2)),
     "model and graph disagree on the node count"),
    (lambda: log_likelihood_per_pair(ErModel(1, ("a",), 0.5), Graph(1)),
     "log-likelihood per pair needs at least 2 nodes"),
    (lambda: ErModel(0, (), 0.5), "model needs at least one node"),
    (lambda: ErModel(3.0, ("a", "b", "c"), 0.5), "n_nodes must be an integer, got 3.0"),
    (lambda: ErModel(True, ("a",), 0.5), "n_nodes must be an integer, got True"),
    (lambda: ErModel(2, ("a", "a"), 0.5), "node labels must be unique"),
    (lambda: SbmModel(2, ("a", "b"), [0, 1], 2, [[0.5, 0.5]]), "block_probs must be k x k"),
    (lambda: DcsbmModel(2, ("a", "b"), [0, 1], 2, [1.0], _IDENTITY_RATES, "exact"),
     "degree_share must be a nonnegative vector of length n_nodes"),
    (lambda: DcsbmModel(2, ("a", "b"), [0, 1], 2, [1.0, 1.0], [[1.0, 2.0], [0.0, 1.0]],
                        "exact"),
     "block_rates must be a symmetric nonnegative k x k matrix"),
    (lambda: DcsbmModel(2, ("a", "b"), [0, 1], 2, [1.0, 1.0], _IDENTITY_RATES, "fast"),
     "mode must be one of exact, plugin, got 'fast'"),
], ids=["node-counts-disagree", "one-node-likelihood", "no-nodes", "float-node-count",
        "boolean-node-count", "repeated-label",
        "block-probs-not-k-by-k", "short-degree-share", "asymmetric-block-rates",
        "unknown-dcsbm-mode"])
def test_refusals_raise_their_class_and_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert (type(info.value), str(info.value)) == (ValueError, message)
