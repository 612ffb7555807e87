"""Graph container, file loaders, and basic network statistics."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contactnet import (
    Graph,
    ParseError,
    UndefinedStatisticError,
    clustering_coefficient,
    degree_stats,
    density,
    load_attendance,
    load_contacts,
    load_edge_list,
    read_graph,
    write_edge_list,
)
import contactnet.graph as graph_module
from contactnet.graph import MAX_NODES
from dense import dense_adjacency


def test_edges_are_canonicalized():
    # duplicates collapse, endpoints are sorted, rows are sorted
    g = Graph(4, [(2, 1), (1, 2), (3, 0), (0, 1)])
    assert g.n_nodes == 4
    assert g.n_edges == 3
    assert g.edges.tolist() == [[0, 1], [0, 3], [1, 2]]
    assert g.degrees.tolist() == [2, 2, 1, 1]


def test_graph_rejects_bad_edges_and_labels():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError, match="at most"):
        Graph(MAX_NODES + 1, [(0, 1)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1)], labels=("a", "a"))
    with pytest.raises(ValueError):
        Graph(2, labels=("only-one",))


@pytest.mark.parametrize("edges", [
    [(0.5, 1.7)], np.array([[0.9, 2.2]]), [(True, False)], [("0", "2")],
])
def test_graph_refuses_endpoints_that_are_not_integers(edges):
    # each would otherwise be coerced to some other edge, e.g. (0.5, 1.7) to (0, 1)
    with pytest.raises(ValueError, match="must be integers"):
        Graph(3, edges)


def test_graph_accepts_empty_and_any_integer_endpoints():
    for empty in ([], (), np.empty((0, 2)), np.empty(0, dtype=float)):
        assert Graph(3, empty).n_edges == 0
    for edges in ([(2, 0)], iter([(2, 0)]), np.array([[2, 0]], dtype=np.uint8),
                  np.array([[0, 2]], dtype=np.int32)):
        g = Graph(3, edges)
        assert g.edges.tolist() == [[0, 2]] and g.edges.dtype == np.int64


def test_graph_builds_from_int64_edges_without_copying_them():
    # sampled graphs arrive as sorted int64 pairs; the keys, their sort and the
    # rebuilt pairs need 2.5 edge arrays, and a copy of the input would add one
    n = 600
    rows, cols = np.triu_indices(n, 1)
    edges = np.column_stack((rows, cols)).astype(np.int64)
    for writable in (True, False):
        edges.setflags(write=writable)
        tracemalloc.start()
        try:
            g = Graph(n, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n_edges == len(edges) and not g.edges.flags.writeable
        assert edges.flags.writeable == writable
        assert peak < 3 * edges.nbytes, peak / edges.nbytes


def test_adjacency_and_neighbors():
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    dense = dense_adjacency(g)
    assert dense.tolist() == [
        [0, 1, 0, 0],
        [1, 0, 1, 1],
        [0, 1, 0, 0],
        [0, 1, 0, 0],
    ]
    assert sorted(g.neighbors(1).tolist()) == [0, 2, 3]
    assert g.neighbors(0).tolist() == [1]
    assert [0, 1] in g.edges.tolist() and [1, 0] not in g.edges.tolist()
    assert [0, 2] not in g.edges.tolist()


def test_equality_ignores_edge_input_order():
    a = Graph(3, [(0, 1), (1, 2)], labels=("x", "y", "z"))
    b = Graph(3, [(1, 2), (1, 0)], labels=("x", "y", "z"))
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph(3, [(0, 1)], labels=("x", "y", "z"))


def test_default_labels_are_indices():
    g = Graph(3, [(0, 1)])
    assert g.labels == ("0", "1", "2")
    assert g.labels.index("1") == 1


def test_edge_list_round_trip_is_exact_for_labeled_edges():
    # loader indexes labels by first appearance, matching the writer's order
    g = Graph(3, [(0, 1), (0, 2)], labels=("a", "b", "c"))
    buf = io.StringIO()
    write_edge_list(g, buf)
    assert buf.getvalue().startswith("%N 3\n")
    assert load_edge_list(buf.getvalue().splitlines()) == g


def test_edge_list_round_trip_keeps_isolated_node_counts():
    # isolated labels are not representable in the format; the header keeps
    # the count and the loader invents names for the padding
    g = Graph(4, [(0, 2)], labels=("a", "b", "c", "d"))
    buf = io.StringIO()
    write_edge_list(g, buf)
    again = load_edge_list(buf.getvalue().splitlines())
    assert again.n_nodes == 4
    assert again.n_edges == 1
    assert sorted(again.degrees.tolist()) == sorted(g.degrees.tolist())


def test_edge_list_header_pads_with_synthetic_labels():
    g = load_edge_list("%N 4\nx y\n".splitlines())
    assert g.labels == ("x", "y", "2", "3")
    assert g.n_edges == 1
    # synthetic names dodge collisions with real labels
    g2 = load_edge_list("%N 3\n0 2\n".splitlines())
    assert g2.labels == ("0", "2", "_2")


def test_edge_list_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        load_edge_list(["a b c"])
    with pytest.raises(ParseError):
        load_edge_list(["%N notanumber", "a b"])
    with pytest.raises(ParseError):
        load_edge_list(["%N 1", "a b"])  # header smaller than observed nodes


def test_edge_list_ignores_comments_and_blank_lines():
    g = load_edge_list(["# header comment", "", "a b", "  ", "b c"])
    assert g.n_nodes == 3
    assert g.n_edges == 2


def test_contacts_loader_deduplicates_repeat_events():
    rows = "time,node_a,node_b\n1,a,b\n1,b,a\n2,a,c\n"
    g = load_contacts(rows.splitlines())
    assert g.labels == ("a", "b", "c")
    assert g.edges.tolist() == [[0, 1], [0, 2]]


def test_attendance_loader_projects_cooccurrence():
    rows = "event_id,person\ne1,a\ne1,b\ne1,c\ne2,b\ne2,d\ne3,z\n"
    g = load_attendance(rows.splitlines())
    assert g.labels == ("a", "b", "c", "d", "z")
    # e1 yields a triangle, e2 one edge, e3 an isolated attendee
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2], [1, 3]]


def _first_appearance(labels):
    order = []
    for label in labels:
        if label not in order:
            order.append(label)
    return tuple(order)


def _label_pairs(g):
    return {frozenset((g.labels[i], g.labels[j])) for i, j in g.edges}


_PEOPLE = st.sampled_from(["a", "b", "c", "d", "e"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_PEOPLE, _PEOPLE), max_size=12))
def test_contacts_loader_matches_a_brute_force_reference(contacts):
    lines = ["time,node_a,node_b"] + [f"{t},{a},{b}" for t, (a, b) in enumerate(contacts)]
    loops = [t for t, (a, b) in enumerate(contacts) if a == b]
    if loops:
        t = loops[0]
        message = f"^line {t + 2}: contact joins node '{contacts[t][0]}' to itself$"
        with pytest.raises(ParseError, match=message):
            load_contacts(lines)
        return
    g = load_contacts(lines)
    assert g.labels == _first_appearance(x for pair in contacts for x in pair)
    pairs = {frozenset(pair) for pair in contacts}
    assert _label_pairs(g) == pairs and g.n_edges == len(pairs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["e1", "e2", "e3"]), _PEOPLE), max_size=12))
def test_attendance_loader_matches_a_brute_force_reference(records):
    g = load_attendance(["event_id,person"] + [f"{e},{p}" for e, p in records])
    assert g.labels == _first_appearance(p for _, p in records)
    cliques = set()
    for event, _ in records:
        attendees = {p for e, p in records if e == event}
        cliques |= {frozenset((a, b)) for a in attendees for b in attendees if a != b}
    assert _label_pairs(g) == cliques and g.n_edges == len(cliques)


def _padded_one_by_one(labels, declared):
    """The %N padding as load_edge_list once spelled it: one label at a time."""
    labels = list(labels)
    taken = set(labels)
    for i in range(len(labels), declared):
        name = str(i)
        while name in taken:
            name = "_" + name
        labels.append(name)
        taken.add(name)
    return tuple(labels)


# labels that collide with padding names and with each other's padded forms
_DIGIT_LABELS = st.builds(lambda m, i: "_" * m + str(i), st.integers(0, 3), st.integers(0, 15)) \
    | st.sampled_from(["a", "07", "-1"])


@settings(max_examples=300, deadline=None)
@given(st.lists(_DIGIT_LABELS, unique=True, max_size=10), st.integers(0, 30))
@example(["5", "_5", "__5", "a"], 3)
def test_header_padding_matches_the_label_by_label_loop(labels, extra):
    # a chain of edges makes the labels appear in list order; one label alone cannot
    labels = labels if len(labels) > 1 else []
    declared = len(labels) + extra
    lines = [f"%N {declared}\n"] + [f"{a} {b}\n" for a, b in zip(labels, labels[1:])]
    assert load_edge_list(lines).labels == _padded_one_by_one(labels, declared)


def test_csv_loaders_reject_missing_columns():
    with pytest.raises(ParseError):
        load_contacts("time,node_a\n1,a\n".splitlines())
    with pytest.raises(ParseError):
        load_attendance("event_id\ne1\n".splitlines())


def test_read_graph_validates_format_before_io(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("%N 2\na b\n")
    assert read_graph(str(path)).n_edges == 1
    with pytest.raises(ValueError):
        read_graph(str(path), fmt="parquet")


def test_density_worked_examples():
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert density(k4) == 1.0
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert density(p3) == pytest.approx(2 / 3)
    with pytest.raises(UndefinedStatisticError):
        density(Graph(1))


def test_degree_stats_on_a_star():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    stats = degree_stats(g)
    assert stats.degrees.tolist() == [4, 1, 1, 1, 1]
    assert stats.average == pytest.approx(8 / 5)
    assert stats.maximum == 4
    with pytest.raises(UndefinedStatisticError):
        degree_stats(Graph(0))


def test_clustering_coefficient_worked_example():
    # K4 minus one edge: two triangles sharing the two degree-3 nodes
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    local = clustering_coefficient(g, "average_local")
    assert local == pytest.approx((1.0 + 1.0 + 2 / 3 + 2 / 3) / 4)
    assert clustering_coefficient(g, "global_transitivity") == pytest.approx(0.75)


def test_clustering_degenerate_cases():
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert clustering_coefficient(triangle, "average_local") == 1.0
    assert clustering_coefficient(triangle, "global_transitivity") == 1.0
    path = Graph(3, [(0, 1), (1, 2)])
    assert clustering_coefficient(path, "average_local") == 0.0
    assert clustering_coefficient(path, "global_transitivity") == 0.0
    assert clustering_coefficient(Graph(0), "average_local") == 0.0
    assert clustering_coefficient(Graph(2, [(0, 1)]), "global_transitivity") == 0.0
    with pytest.raises(ValueError):
        clustering_coefficient(triangle, "median_local")


def test_statistics_match_combinatorial_definitions():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = rng.random(len(pairs)) < 0.2
        g = Graph(n, [p for p, keep in zip(pairs, mask) if keep])
        m = g.n_edges
        assert density(g) == pytest.approx(m / math.comb(n, 2))
        assert degree_stats(g).average == pytest.approx(2 * m / n)


@pytest.mark.parametrize("seed", range(8))
def test_canonical_edges_match_sort_then_unique(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    edges = rng.integers(0, n, (int(rng.integers(1, 300)), 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    # reversed duplicates of half the rows, shuffled in
    edges = rng.permutation(np.concatenate((edges, edges[: len(edges) // 2, ::-1])))
    reference = np.unique(np.sort(edges, axis=1), axis=0)
    g = Graph(n, edges)
    assert np.array_equal(g.edges, reference)
    assert g.edges.dtype == reference.dtype
    assert g == Graph(n, reference)


def test_node_cap_keeps_edge_keys_inside_int64():
    assert MAX_NODES ** 2 <= np.iinfo(np.int64).max < (MAX_NODES + 1) ** 2


def _random_graph(rng, n, p):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, [pair for pair in pairs if rng.random() < p])


def test_arcs_hold_both_directions_in_csr_order():
    rng = np.random.default_rng(11)
    for g in [Graph(0), Graph(3)] + [_random_graph(rng, int(rng.integers(1, 30)), 0.3)
                                     for _ in range(30)]:
        tails, heads = g.arcs
        both = np.concatenate((g.edges, g.edges[:, ::-1]))
        assert np.array_equal(np.column_stack((tails, heads)), both[np.lexsort(both.T[::-1])])
        assert not tails.flags.writeable and not heads.flags.writeable
        assert np.array_equal(dense_adjacency(g).sum(axis=1), g.degrees)
        for i in range(g.n_nodes):
            assert g.neighbors(i).tolist() == sorted(
                int(b if a == i else a) for a, b in g.edges if i in (a, b))


def _brute_force_triangles(g):
    """Triangles at each node by intersecting the neighbour sets of every edge's ends."""
    nbrs = [set() for _ in range(g.n_nodes)]
    for i, j in g.edges.tolist():
        nbrs[i].add(j)
        nbrs[j].add(i)
    tri = np.zeros(g.n_nodes)
    for i, j in g.edges.tolist():
        for k in nbrs[i] & nbrs[j]:
            tri[[i, j, k]] += 1
    return tri / 3  # each triangle is found once from each of its edges


def _triangle_cases():
    rng = np.random.default_rng(2005)
    for _ in range(300):
        yield _random_graph(rng, int(rng.integers(0, 30)), float(rng.random()))
    # a star with extra random edges among the leaves: the hub ranks last
    for n in (5, 40, 200):
        extra = rng.integers(1, n, (n, 2))
        yield Graph(n, [(0, i) for i in range(1, n)] + [tuple(e) for e in extra if e[0] != e[1]])
    for n in (3, 4, 12):
        yield Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    # isolated nodes around a dense core
    yield Graph(10, [(2, 5), (5, 7), (2, 7), (7, 9), (2, 9), (5, 9)])
    yield Graph(6)


def test_graph_is_frozen_and_counts_its_triangles_once():
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    with pytest.raises(AttributeError):
        g.n_nodes = 5
    assert g.triangles is g.triangles and not g.triangles.flags.writeable
    assert g.triangles.tolist() == [1, 1, 1, 0]


@pytest.mark.parametrize("block", [graph_module.WEDGE_BLOCK, 1, 7])
def test_triangles_match_brute_force(block, monkeypatch):
    monkeypatch.setattr(graph_module, "WEDGE_BLOCK", block)
    for g in _triangle_cases():
        assert np.array_equal(g.triangles, _brute_force_triangles(g)), g


def test_graph_accepts_numpy_integer_node_counts():
    g = Graph(np.int64(3), [(0, 2)])
    assert type(g.n_nodes) is int and g.n_nodes == 3


@pytest.mark.parametrize("call, error, message", [
    (lambda: Graph(-1), ValueError, "n_nodes must be nonnegative"),
    (lambda: Graph(3.7), ValueError, "n_nodes must be an integer, got 3.7"),
    (lambda: Graph(True), ValueError, "n_nodes must be an integer, got True"),
    (lambda: Graph("5"), ValueError, "n_nodes must be an integer, got '5'"),
    (lambda: Graph(3, [[0, 1, 2]]), ValueError, "edges must be pairs of node indices"),
    (lambda: Graph(3).neighbors(5), ValueError, "node index 5 out of range"),
    (lambda: Graph(2, labels=("a",)), ValueError, "label count must equal n_nodes"),
    (lambda: Graph(2, labels=("a", "a")), ValueError, "node labels must be unique"),
    (lambda: load_edge_list(["%N 3 4\n"]), ParseError,
     "line 1: header needs exactly one count, got 2 tokens"),
], ids=["negative-node-count", "float-node-count", "bool-node-count", "string-node-count",
        "triple-edge", "neighbors-out-of-range", "one-label-for-two",
        "repeated-label", "two-count-header"])
def test_refusals_raise_their_class_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
