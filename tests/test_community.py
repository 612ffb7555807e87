"""Spectral clustering pipeline and its numerical building blocks."""

import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactnet import (
    FitError,
    Graph,
    NumericError,
    Partition,
    SpectralConfig,
    block_counts,
    spectral_cluster,
    write_partition_csv,
)
from contactnet.community import (
    kmeans,
    regularized_laplacian,
    select_k_eigengap,
    symmetric_eigendecomposition,
)


def disjoint_cliques(sizes):
    edges, offset = [], 0
    for size in sizes:
        edges += [(offset + i, offset + j) for i in range(size) for j in range(i + 1, size)]
        offset += size
    return Graph(offset, edges)


def test_partition_counts_worked_example():
    g = Graph(4, [(0, 1), (0, 2), (2, 3)])
    part = Partition(np.array([0, 0, 1, 1]), 2)
    assert part.k == 2
    edges, pairs = block_counts(g, part)
    # count matrices are returned symmetric
    assert edges.tolist() == [[1, 1], [1, 1]]
    assert pairs.tolist() == [[1, 4], [4, 1]]
    assert edges.dtype == pairs.dtype == np.int64
    # the counts come from the graph passed in, not the one the partition was built on
    cross = Graph(4, [(0, 2), (1, 3), (0, 3)])
    assert block_counts(cross, part)[0].tolist() == [[0, 3], [3, 0]]
    with pytest.raises(ValueError):
        block_counts(Graph(5, [(0, 1)]), part)


def test_partition_is_its_assignment_vector():
    assert [f.name for f in dataclasses.fields(Partition)] == ["assignments", "k"]
    part = Partition([1, 0, 1], 2)
    assert part.assignments.tolist() == [1, 0, 1]
    assert not part.assignments.flags.writeable
    assert part == Partition(np.array([1, 0, 1]), 2)
    for assign, k in [([], 1), ([[0, 1]], 2), ([0, 1], 0), ([0, 2], 2), ([0, 0], 2)]:
        with pytest.raises(ValueError):
            Partition(assign, k)


def test_partition_leaves_the_callers_vector_writable():
    a = np.array([0, 1, 0])
    part = Partition(a, 2)
    assert not part.assignments.flags.writeable
    a[0] = 1
    assert part.assignments.tolist() == [0, 1, 0]


def test_partition_validates_assignments():
    g = Graph(3, [(0, 1)])
    # a partition knows no graph: a wrong length is refused where it meets one
    with pytest.raises(ValueError, match="partition length must equal the node count"):
        block_counts(g, Partition(np.array([0, 1]), 2))
    with pytest.raises(ValueError, match="community index out of range"):
        Partition(np.array([0, -1, 0]), 2)
    with pytest.raises(ValueError, match="every community must be non-empty"):
        Partition(np.array([0, 2, 0]), 3)  # label 1 skipped


def test_partition_csv_layout():
    g = Graph(3, [(0, 1)], labels=("alice", "bob", "carol"))
    part = Partition(np.array([0, 0, 1]), 2)
    buf = io.StringIO()
    write_partition_csv(part, g.labels, buf)
    assert buf.getvalue() == "node_label,community_index\nalice,0\nbob,0\ncarol,1\n"


def test_partition_csv_quotes_labels_with_separators():
    labels = ("a,x", 'q"t', "s p")
    part = Partition(np.array([0, 1, 1]), 2)
    buf = io.StringIO()
    write_partition_csv(part, labels, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows == [["node_label", "community_index"], ["a,x", "0"], ['q"t', "1"], ["s p", "1"]]


def test_regularized_laplacian_worked_examples():
    edge = Graph(2, [(0, 1)])
    assert np.allclose(regularized_laplacian(edge, 0.0), [[0, 1], [1, 0]])
    assert np.allclose(regularized_laplacian(edge, 1.0), [[0, 0.5], [0.5, 0]])
    lonely = Graph(3, [(0, 1)])
    with pytest.raises(NumericError):
        regularized_laplacian(lonely, 0.0)
    lap = regularized_laplacian(lonely, 1.0)
    assert np.allclose(lap[2], 0.0)
    assert lap[0, 1] == pytest.approx(0.5)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(2, 30), isolated=st.integers(1, 5),
       regularization=st.floats(0.0, 1e6, exclude_min=True))
def test_regularized_laplacian_is_symmetric_bit_for_bit(data, n, isolated, regularization):
    # symmetric_eigendecomposition relies on this instead of checking it
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    lap = regularized_laplacian(Graph(n + isolated, edges), regularization)
    assert np.array_equal(lap, lap.T)


def test_eigendecomposition_residuals_and_order():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(12, 12))
    m = (m + m.T) / 2
    values, vectors = symmetric_eigendecomposition(m)
    # signed descending order; magnitude ordering is applied downstream
    assert np.all(np.diff(values) <= 1e-12)
    for idx in range(len(values)):
        residual = m @ vectors[:, idx] - values[idx] * vectors[:, idx]
        assert np.linalg.norm(residual) < 1e-8
        assert np.linalg.norm(vectors[:, idx]) == pytest.approx(1.0)


def test_eigengap_worked_examples():
    assert select_k_eigengap([1.0, 0.98, 0.40, 0.35], k_max=3) == 2
    assert select_k_eigengap([1.0, 0.2, 0.1], k_max=2) == 1
    # equal gaps resolve toward the smaller k
    assert select_k_eigengap([1.0, 0.6, 0.2], k_max=2) == 1
    # magnitudes, not signed values
    assert select_k_eigengap([1.0, -0.9, 0.1], k_max=2) == 2
    with pytest.raises(ValueError):
        select_k_eigengap([1.0, 0.5], k_max=2)


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(9)
    blob = lambda center: rng.normal(center, 0.05, size=(20, 2))
    points = np.vstack([blob((0, 0)), blob((4, 4)), blob((8, 0))])
    labels = kmeans(points, 3, rng=np.random.default_rng(1))
    groups = [set(labels[i * 20:(i + 1) * 20]) for i in range(3)]
    assert all(len(g) == 1 for g in groups)
    assert len(set.union(*groups)) == 3


def test_kmeans_degenerate_k():
    points = np.arange(10, dtype=float).reshape(5, 2)
    assert set(kmeans(points, 1, rng=np.random.default_rng(0))) == {0}
    assert sorted(kmeans(points, 5, rng=np.random.default_rng(0))) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        kmeans(points, 6, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        kmeans(points, 0, rng=np.random.default_rng(0))


def test_kmeans_needs_an_rng():
    # every stream derives from a seed: an omitted or None rng is not OS entropy
    points = np.arange(10, dtype=float).reshape(5, 2)
    with pytest.raises(TypeError):
        kmeans(points, 2)
    with pytest.raises(TypeError, match="kmeans needs an rng"):
        kmeans(points, 2, rng=None)


def test_kmeans_is_deterministic_per_seed():
    rng = np.random.default_rng(2)
    points = rng.normal(size=(40, 3))
    a = kmeans(points, 4, rng=np.random.default_rng(7))
    b = kmeans(points, 4, rng=np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_kmeans_with_fewer_distinct_points_than_clusters_uses_every_label():
    # k-means++ finds every distance 0 after two centroids, and Lloyd's step
    # leaves the third cluster empty until it is reseeded
    points = np.array([[0.0, 0.0]] * 4 + [[1.0, 0.0]] * 4)
    a = kmeans(points, 3, rng=np.random.default_rng(5))
    b = kmeans(points, 3, rng=np.random.default_rng(5))
    assert sorted(set(a.tolist())) == [0, 1, 2]
    assert np.array_equal(a, b)


def test_spectral_cluster_more_communities_than_cliques_is_a_valid_partition():
    g = disjoint_cliques([5, 5, 5, 5])
    part = spectral_cluster(g, SpectralConfig(k_fixed=6))
    assert part.k == 6
    assert part.assignments.shape == (g.n_nodes,)
    assert sorted(set(part.assignments.tolist())) == list(range(6))


def test_spectral_cluster_refuses_an_edgeless_graph_only_under_the_default_regularization():
    # the default regularization, the average degree, is 0 without edges
    with pytest.raises(FitError, match="edgeless"):
        spectral_cluster(Graph(4))
    assert spectral_cluster(Graph(4), SpectralConfig(regularization=1.0)).k >= 1


def test_spectral_cluster_splits_disjoint_cliques():
    g = disjoint_cliques([10, 10])
    part = spectral_cluster(g)
    assert part.k == 2
    assert part.assignments.tolist() == [0] * 10 + [1] * 10


def test_spectral_cluster_single_clique_is_one_community():
    part = spectral_cluster(disjoint_cliques([12]))
    assert part.k == 1
    assert set(part.assignments) == {0}


def test_spectral_cluster_canonical_labels_by_first_member():
    # communities are numbered by their smallest member index
    g = disjoint_cliques([3, 3, 3])
    part = spectral_cluster(g, SpectralConfig(k_fixed=3))
    assert part.assignments.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_spectral_cluster_k_fixed_overrides_eigengap():
    g = disjoint_cliques([8, 8])
    part = spectral_cluster(g, SpectralConfig(k_fixed=4))
    assert part.k == 4


def test_spectral_cluster_planted_partition_recovery():
    rng = np.random.default_rng(31)
    n, half = 40, 20
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            same = (i < half) == (j < half)
            if rng.random() < (0.6 if same else 0.05):
                edges.append((i, j))
    part = spectral_cluster(Graph(n, edges))
    assert part.k == 2
    assert part.assignments.tolist() == [0] * half + [1] * half


def test_spectral_cluster_config_validation():
    g = disjoint_cliques([4, 4])
    with pytest.raises(ValueError):
        spectral_cluster(g, SpectralConfig(k_max=8))  # k_max must stay below N
    with pytest.raises(FitError, match="at least 2 nodes"):
        spectral_cluster(Graph(1))
    with pytest.raises(ValueError):
        SpectralConfig(kmeans_restarts=0)
    with pytest.raises(ValueError):
        SpectralConfig(eigenvalue_order="random")
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        SpectralConfig(seed=-1)


def test_spectral_cluster_is_deterministic():
    rng = np.random.default_rng(17)
    pairs = [(i, j) for i in range(30) for j in range(i + 1, 30)]
    g = Graph(30, [p for p in pairs if rng.random() < 0.2])
    a = spectral_cluster(g)
    b = spectral_cluster(g)
    assert a.k == b.k
    assert np.array_equal(a.assignments, b.assignments)


@pytest.mark.parametrize("call, message", [
    (lambda: SpectralConfig(k_max=0), "k_max must be at least 1"),
    (lambda: SpectralConfig(k_fixed=0), "k_fixed must be at least 1"),
    (lambda: SpectralConfig(kmeans_max_iters=0), "kmeans_max_iters must be at least 1"),
    (lambda: Partition([], 1), "cannot partition an empty graph"),
], ids=["k-max-0", "k-fixed-0", "max-iters-0", "empty-graph-partition"])
def test_refusals_raise_their_class_and_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert (type(info.value), str(info.value)) == (ValueError, message)
