"""Static unweighted contact graphs: construction from raw inputs and summary statistics."""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np
from scipy import sparse

from .errors import ParseError, UndefinedStatisticError

_TOKEN_SPLIT = re.compile(r"[,\s]+")
_HEADER_TAG = "%N"


@dataclass(frozen=True)
class ContactEvent:
    """One timed contact between two people. The timestamp is opaque; only the pair matters."""

    time: str
    node_a: str
    node_b: str

    def __post_init__(self):
        if self.node_a == self.node_b:
            raise ValueError(f"contact joins node {self.node_a!r} to itself")


@dataclass(frozen=True)
class AttendanceRecord:
    """One person present at one event; co-attendees are treated as pairwise contacts."""

    event_id: str
    person: str

    def __post_init__(self):
        if not self.event_id or not self.person:
            raise ValueError("attendance record needs non-empty event and person labels")


class Graph:
    """Immutable undirected graph with dense 0-based node indices.

    Edges are stored canonically as a lexicographically sorted (M, 2) integer
    array with i < j in every row; duplicates (including reversed duplicates)
    collapse during construction. Nodes carry string labels, index -> label.
    """

    def __init__(self, n_nodes: int, edges=(), labels: tuple[str, ...] | None = None):
        n_nodes = int(n_nodes)
        if n_nodes < 0:
            raise ValueError("n_nodes must be nonnegative")
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
        if arr.size == 0:
            arr = np.empty((0, 2), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be pairs of node indices")
        if arr.size:
            if arr.min() < 0 or arr.max() >= n_nodes:
                raise ValueError("edge endpoint out of range")
            if np.any(arr[:, 0] == arr[:, 1]):
                raise ValueError("self-loops are not allowed")
            arr = np.sort(arr, axis=1)
            arr = np.unique(arr, axis=0)
        arr.setflags(write=False)

        if labels is None:
            labels = tuple(str(i) for i in range(n_nodes))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n_nodes:
                raise ValueError("label count must equal n_nodes")
            if len(set(labels)) != n_nodes:
                raise ValueError("node labels must be unique")

        self._n_nodes = n_nodes
        self._edges = arr
        self._labels = labels

    @property
    def n_nodes(self) -> int:
        return self._n_nodes

    @property
    def n_edges(self) -> int:
        return self._edges.shape[0]

    @property
    def edges(self) -> np.ndarray:
        """Read-only (M, 2) array, rows sorted lexicographically, i < j per row."""
        return self._edges

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self._labels)}

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset((int(i), int(j)) for i, j in self._edges)

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self._edges.ravel(), minlength=self._n_nodes).astype(np.int64)
        deg.setflags(write=False)
        return deg

    @cached_property
    def _csr(self) -> sparse.csr_matrix:
        m = self.n_edges
        data = np.ones(2 * m, dtype=np.int64)
        rows = self._edges.ravel()
        cols = self._edges[:, ::-1].ravel()
        a = sparse.csr_matrix((data, (rows, cols)), shape=(self._n_nodes, self._n_nodes))
        a.sort_indices()
        return a

    def adjacency_matrix(self, dense: bool = False):
        """Adjacency as scipy CSR (default) or a dense float array."""
        if dense:
            return self._csr.toarray().astype(float)
        return self._csr

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor indices of node i."""
        if not 0 <= i < self._n_nodes:
            raise ValueError(f"node index {i} out of range")
        a = self._csr
        return a.indices[a.indptr[i]:a.indptr[i + 1]].astype(np.int64)

    def has_edge(self, i: int, j: int) -> bool:
        if i > j:
            i, j = j, i
        return (i, j) in self.edge_set

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n_nodes == other._n_nodes
            and self._labels == other._labels
            and np.array_equal(self._edges, other._edges)
        )

    def __hash__(self):
        return hash((self._n_nodes, self._labels, self._edges.tobytes()))

    def __repr__(self):
        return f"Graph(n_nodes={self._n_nodes}, n_edges={self.n_edges})"


# ---------------------------------------------------------------------------
# loaders

def load_edge_list(lines: Iterable[str]) -> Graph:
    """Build a Graph from edge-list text.

    One edge per line, two labels separated by commas or whitespace. Lines
    starting with '#' are comments. An optional header '%N <count>' declares
    the node count, preserving isolated nodes. Labels map to indices in
    first-appearance order.
    """
    label_order: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    declared: int | None = None
    declared_line = 0

    def index_of(label: str) -> int:
        idx = label_order.get(label)
        if idx is None:
            idx = len(label_order)
            label_order[label] = idx
        return idx

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = [t for t in _TOKEN_SPLIT.split(line) if t]
        if tokens and tokens[0] == _HEADER_TAG:
            if declared is not None:
                raise ParseError("duplicate node-count header", lineno)
            if len(tokens) != 2:
                raise ParseError(f"header needs exactly one count, got {len(tokens) - 1} tokens", lineno)
            try:
                declared = int(tokens[1])
            except ValueError:
                raise ParseError(f"node count {tokens[1]!r} is not an integer", lineno) from None
            if declared < 0:
                raise ParseError("node count must be nonnegative", lineno)
            declared_line = lineno
            continue
        if len(tokens) != 2:
            raise ParseError(f"expected 2 node labels, got {len(tokens)}", lineno)
        a, b = tokens
        if a == b:
            raise ParseError(f"self-loop on node {a!r}", lineno)
        edges.append((index_of(a), index_of(b)))

    labels = list(label_order)
    if declared is not None:
        if declared < len(labels):
            raise ParseError(
                f"header declares {declared} nodes but {len(labels)} distinct labels appear",
                declared_line,
            )
        # pad isolated nodes with synthetic labels that cannot collide
        taken = set(labels)
        for i in range(len(labels), declared):
            name = str(i)
            while name in taken:
                name = "_" + name
            labels.append(name)
            taken.add(name)
    return Graph(len(labels), edges, labels=tuple(labels))


def check_edge_list_labels(labels) -> None:
    """Raise ValueError if some label cannot be written as an edge-list token."""
    for lab in labels:
        if not lab or lab.startswith(("%", "#")) or _TOKEN_SPLIT.search(lab):
            raise ValueError(f"label {lab!r} cannot be written to an edge list")


def write_edge_list(g: Graph, stream) -> None:
    """Write a Graph in the edge-list format understood by load_edge_list."""
    check_edge_list_labels(g.labels)
    stream.write(f"{_HEADER_TAG} {g.n_nodes}\n")
    for i, j in g.edges:
        stream.write(f"{g.labels[i]} {g.labels[j]}\n")


def _read_csv_rows(lines: Iterable[str], required: tuple[str, ...]):
    reader = csv.DictReader(lines)
    try:
        if reader.fieldnames is None:
            raise ParseError("empty file, expected a CSV header", 1)
        fields = [f.strip() for f in reader.fieldnames]
        missing = [c for c in required if c not in fields]
        if missing:
            raise ParseError(f"missing required column(s): {', '.join(missing)}", 1)
        for row in reader:
            values = {}
            for col in required:
                val = row.get(col)
                if val is None or not val.strip():
                    raise ParseError(f"empty value in column {col!r}", reader.line_num)
                values[col] = val.strip()
            yield reader.line_num, values
    except csv.Error as exc:
        raise ParseError(str(exc), reader.reader.line_num) from None


def load_contacts(lines: Iterable[str]) -> list[ContactEvent]:
    """Parse a contact-event CSV with columns time,node_a,node_b."""
    events = []
    for lineno, row in _read_csv_rows(lines, ("time", "node_a", "node_b")):
        try:
            events.append(ContactEvent(row["time"], row["node_a"], row["node_b"]))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    return events


def load_attendance(lines: Iterable[str]) -> list[AttendanceRecord]:
    """Parse an attendance CSV with columns event_id,person."""
    records = []
    for lineno, row in _read_csv_rows(lines, ("event_id", "person")):
        try:
            records.append(AttendanceRecord(row["event_id"], row["person"]))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    return records


def contacts_to_graph(events: list[ContactEvent]) -> Graph:
    """Static graph with an edge wherever at least one contact occurred, times collapsed."""
    label_order: dict[str, int] = {}
    edges = []
    for ev in events:
        ia = label_order.setdefault(ev.node_a, len(label_order))
        ib = label_order.setdefault(ev.node_b, len(label_order))
        edges.append((ia, ib))
    return Graph(len(label_order), edges, labels=tuple(label_order))


def attendance_to_graph(records: list[AttendanceRecord]) -> Graph:
    """Union of per-event cliques: all distinct attendees of an event are pairwise connected."""
    label_order: dict[str, int] = {}
    by_event: dict[str, list[int]] = {}
    for rec in records:
        idx = label_order.setdefault(rec.person, len(label_order))
        attendees = by_event.setdefault(rec.event_id, [])
        if idx not in attendees:
            attendees.append(idx)
    edges = []
    for attendees in by_event.values():
        for pos, i in enumerate(attendees):
            for j in attendees[pos + 1:]:
                edges.append((i, j))
    return Graph(len(label_order), edges, labels=tuple(label_order))


def read_graph(path: str, fmt: str = "edge_list") -> Graph:
    """Load a graph file in one of the supported formats."""
    if fmt not in ("edge_list", "contacts", "attendance"):
        raise ValueError(f"unknown graph format {fmt!r}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if fmt == "edge_list":
            return load_edge_list(fh)
        if fmt == "contacts":
            return contacts_to_graph(load_contacts(fh))
        return attendance_to_graph(load_attendance(fh))


# ---------------------------------------------------------------------------
# summary statistics

class DegreeStats(NamedTuple):
    degrees: np.ndarray
    average: float
    maximum: int


def density(g: Graph) -> float:
    """Edge count over possible pairs, M / C(N,2)."""
    if g.n_nodes < 2:
        raise UndefinedStatisticError("density needs at least 2 nodes")
    return g.n_edges / math.comb(g.n_nodes, 2)


def degree_stats(g: Graph) -> DegreeStats:
    if g.n_nodes == 0:
        raise UndefinedStatisticError("average degree is undefined for an empty graph")
    deg = g.degrees
    return DegreeStats(deg, 2 * g.n_edges / g.n_nodes, int(deg.max()))


def _triangles_per_node(g: Graph) -> np.ndarray:
    a = g.adjacency_matrix()
    return np.asarray((a @ a).multiply(a).sum(axis=1), dtype=float).ravel() / 2.0


def clustering_coefficient(g: Graph, mode: str = "average_local") -> float:
    """Clustering coefficient.

    mode 'average_local': mean over nodes of triangles_at_node / C(deg, 2),
    nodes of degree < 2 contributing 0. mode 'global_transitivity':
    3 * triangles / connected triples. Degenerate graphs return 0.
    """
    if mode not in ("average_local", "global_transitivity"):
        raise ValueError(f"unknown clustering mode {mode!r}")
    n = g.n_nodes
    if n == 0 or g.n_edges == 0:
        return 0.0
    tri = _triangles_per_node(g)
    deg = g.degrees.astype(float)
    wedges = deg * (deg - 1) / 2.0
    if mode == "average_local":
        local = np.divide(tri, wedges, out=np.zeros(n), where=wedges > 0)
        return float(local.mean())
    total_wedges = wedges.sum()
    if total_wedges == 0:
        return 0.0
    return float(tri.sum() / total_wedges)
