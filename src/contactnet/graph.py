"""Static unweighted contact graphs: construction from raw inputs and summary statistics."""

from __future__ import annotations

import csv
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Annotated, Iterable, NamedTuple

import numpy as np

from .errors import ParseError, UndefinedStatisticError
from .schema import Declared, integer, read_array

_TOKEN_SPLIT = re.compile(r"[,\s]+")
_DECIMAL = re.compile(r"-?[0-9]{1,19}")  # an integer as the package writes one, int64-sized
_HEADER_TAG = "%N"
# the largest node count whose edge keys i * n + j fit in int64
MAX_NODES = 3_037_000_499
# wedges closed per vectorised step of the triangle count, to bound its memory
WEDGE_BLOCK = 1 << 16
CLUSTERING_MODES = ("average_local", "global_transitivity")


def check_labels(labels: tuple[str, ...], n_nodes: int) -> None:
    """Refuse node labels unless there is one per node and no two are equal."""
    if len(labels) != n_nodes:
        raise ValueError("label count must equal n_nodes")
    if len(set(labels)) != n_nodes:
        raise ValueError("node labels must be unique")


@dataclass(frozen=True, eq=False)
class Graph(Declared):
    """Immutable undirected graph with dense 0-based node indices.

    Edges are stored canonically as a read-only, lexicographically sorted
    (M, 2) integer array with i < j in every row; duplicates (including
    reversed duplicates) collapse during construction. Nodes carry string
    labels, index -> label; by default each node's index.
    """

    n_nodes: Annotated[int, 0]
    edges: np.ndarray = ()
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        super().__post_init__()
        n_nodes = self.n_nodes
        if n_nodes > MAX_NODES:
            raise ValueError(f"n_nodes must be at most {MAX_NODES}")
        edges = self.edges if isinstance(self.edges, np.ndarray) else list(self.edges)
        arr = read_array(edges, "edge endpoints must be integers", integer=True, copy=False)
        if arr.size == 0:
            arr = np.empty((0, 2), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be pairs of node indices")
        if arr.size:
            if arr.min() < 0 or arr.max() >= n_nodes:
                raise ValueError("edge endpoint out of range")
            if np.any(arr[:, 0] == arr[:, 1]):
                raise ValueError("self-loops are not allowed")
            # one int64 key per edge, min * n + max, sorted and deduplicated; a
            # stable sort is linear on edges that arrive sorted, as sampled ones do
            key = np.minimum(arr[:, 0], arr[:, 1]) * n_nodes + np.maximum(arr[:, 0], arr[:, 1])
            key = np.sort(key, kind="stable")
            key = key[np.concatenate(([True], key[1:] != key[:-1]))]
            arr = np.column_stack(np.divmod(key, n_nodes))
        arr.setflags(write=False)

        if self.labels is None:
            object.__setattr__(self, "labels", tuple(str(i) for i in range(n_nodes)))
        else:
            check_labels(self.labels, n_nodes)
        object.__setattr__(self, "edges", arr)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.edges.ravel(), minlength=self.n_nodes).astype(np.int64)
        deg.setflags(write=False)
        return deg

    @cached_property
    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Both directions of every edge as read-only (tails, heads), sorted by
        (tail, head): CSR order, so node i's neighbours are one slice of heads."""
        n = self.n_nodes
        i, j = self.edges[:, 0], self.edges[:, 1]
        tails, heads = np.divmod(np.sort(np.concatenate((i * n + j, j * n + i))), n)
        tails.setflags(write=False)
        heads.setflags(write=False)
        return tails, heads

    @cached_property
    def triangles(self) -> np.ndarray:
        """Triangles at each node, as exact integers in a read-only float array.

        Each edge points at its end of higher (degree, index) rank, so every
        triangle is one wedge of out-neighbours at its lowest-ranked corner (the
        "forward" algorithm of Schank & Wagner 2005). Each wedge is closed by a
        search in the sorted edge keys, WEDGE_BLOCK wedges at a time.
        """
        n = self.n_nodes
        tails, heads = self.arcs
        deg = self.degrees
        forward = (deg[tails] < deg[heads]) | ((deg[tails] == deg[heads]) & (tails < heads))
        tails, heads = tails[forward], heads[forward]
        # the wedges an out-arc opens with the later out-arcs of its tail; heads
        # ascend within a tail, so wedge (v, w) has v < w and closing key v * n + w
        later = np.cumsum(np.bincount(tails, minlength=n))[tails] - np.arange(tails.size) - 1
        opened = np.cumsum(later)
        # a sentinel above every key, so each search lands on an entry
        edge_keys = np.append(self.edges[:, 0] * n + self.edges[:, 1], n * n)
        tri = np.zeros(n)
        start = 0
        while start < tails.size:
            stop = int(np.searchsorted(opened, opened[start] - later[start] + WEDGE_BLOCK, "right"))
            stop = max(stop, start + 1)
            count = later[start:stop]
            ends = np.cumsum(count)
            # arc p opens wedges with the arcs at p + 1 .. p + count[p]
            shift = np.arange(start + 1, stop + 1) - ends + count
            second = np.arange(ends[-1]) + np.repeat(shift, count)
            w = heads[second]
            key = np.repeat(heads[start:stop] * n, count) + w
            closed = edge_keys[np.searchsorted(edge_keys, key)] == key
            # closed wedges per opening arc, at its tail and at its head
            closed_before = np.zeros(closed.size + 1, dtype=np.int64)
            np.cumsum(closed, out=closed_before[1:])
            per_arc = closed_before[ends] - closed_before[ends - count]
            tri += np.bincount(tails[start:stop], per_arc, n)
            tri += np.bincount(heads[start:stop], per_arc, n)
            tri += np.bincount(w[closed], minlength=n)
            start = stop
        tri.setflags(write=False)
        return tri

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor indices of node i, a read-only view."""
        i = integer(i, "node index")
        if not 0 <= i < self.n_nodes:
            raise ValueError(f"node index {i} out of range")
        tails, heads = self.arcs
        lo, hi = np.searchsorted(tails, (i, i + 1))
        return heads[lo:hi]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and self.labels == other.labels
            and np.array_equal(self.edges, other.edges)
        )

    def __hash__(self):
        return hash((self.n_nodes, self.labels, self.edges.tobytes()))

    def __repr__(self):
        return f"Graph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


# ---------------------------------------------------------------------------
# loaders

def load_edge_list(lines: Iterable[str]) -> Graph:
    """Build a Graph from edge-list text.

    One edge per line, two labels separated by commas or whitespace. Lines
    starting with '#' are comments. An optional header '%N <count>' declares
    the node count, preserving isolated nodes. Labels map to indices in
    first-appearance order.
    """
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    declared: int | None = None
    declared_line = 0

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
            if not _DECIMAL.fullmatch(tokens[1]):
                raise ParseError(f"node count {tokens[1]!r} is not an integer", lineno)
            declared = int(tokens[1])
            if declared < 0:
                raise ParseError("node count must be nonnegative", lineno)
            if declared > MAX_NODES:
                raise ParseError(f"node count must be at most {MAX_NODES}", lineno)
            declared_line = lineno
            continue
        if len(tokens) != 2:
            raise ParseError(f"expected 2 node labels, got {len(tokens)}", lineno)
        a, b = tokens
        if a == b:
            raise ParseError(f"self-loop on node {a!r}", lineno)
        edges.append((index.setdefault(a, len(index)), index.setdefault(b, len(index))))

    labels = list(index)
    if declared is not None:
        if declared < len(labels):
            raise ParseError(
                f"header declares {declared} nodes but {len(labels)} distinct labels appear",
                declared_line,
            )
        # pad isolated nodes with labels str(i), underscored until no file label
        # equals them (padded labels never collide: "_" * m + str(i) is unique to i)
        start = len(labels)
        padding = list(map(str, range(start, declared)))
        taken = set(labels)
        for name in taken.intersection(padding):
            padded = name
            while padded in taken:
                padded = "_" + padded
            padding[int(name) - start] = padded
        labels += padding
    return Graph(len(labels), np.array(edges, dtype=np.int64), labels=tuple(labels))


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


def _read_csv_rows(lines: Iterable[str], required: tuple[str, ...], exact: bool = False,
                   header_line: int = 1):
    """Yield (line number, values of the `required` columns in that order) per CSV row.

    The header, on line `header_line`, must name every required column, and
    with `exact` nothing else, in that order. A repeated header name, a row
    with more fields than the header and an empty required value are refused
    with the line number the csv reader is at, so blank lines count.
    """
    reader = csv.DictReader(lines)
    offset = header_line - 1
    try:
        header = reader.fieldnames
        names = [f.strip() for f in header or ()]
        if exact and names != list(required):
            raise ParseError(f"expected column header {','.join(required)}", header_line)
        if header is None:
            raise ParseError("empty file, expected a CSV header", header_line)
        repeated = [c for c, count in Counter(names).items() if count > 1]
        if repeated:
            raise ParseError(f"repeated column name(s): {', '.join(repeated)}", header_line)
        missing = [c for c in required if c not in names]
        if missing:
            raise ParseError(f"missing required column(s): {', '.join(missing)}", header_line)
        reader.fieldnames = names
        for row in reader:
            lineno = reader.line_num + offset
            if None in row:
                raise ParseError(f"row has {len(names) + len(row[None])} fields, "
                                 f"header has {len(names)}", lineno)
            values = []
            for col in required:
                val = row[col]
                if val is None or not val.strip():
                    raise ParseError(f"empty value in column {col!r}", lineno)
                values.append(val.strip())
            yield lineno, values
    except csv.Error as exc:
        raise ParseError(str(exc), reader.line_num + offset) from None


def load_contacts(lines: Iterable[str]) -> Graph:
    """Graph of a time,node_a,node_b contact CSV: an edge per pair in contact, times collapsed."""
    index: dict[str, int] = {}
    edges = []
    for lineno, (_, a, b) in _read_csv_rows(lines, ("time", "node_a", "node_b")):
        if a == b:
            raise ParseError(f"contact joins node {a!r} to itself", lineno)
        edges.append((index.setdefault(a, len(index)), index.setdefault(b, len(index))))
    return Graph(len(index), np.array(edges, dtype=np.int64), labels=tuple(index))


def load_attendance(lines: Iterable[str]) -> Graph:
    """Graph of an event_id,person CSV: the union of cliques of each event's distinct attendees."""
    index: dict[str, int] = {}
    events: dict[str, dict[int, None]] = {}  # attendees in insertion order, repeats once
    for _, (event, person) in _read_csv_rows(lines, ("event_id", "person")):
        events.setdefault(event, {})[index.setdefault(person, len(index))] = None
    edges = [pair for attendees in events.values() for pair in combinations(attendees, 2)]
    return Graph(len(index), np.array(edges, dtype=np.int64), labels=tuple(index))


# the dataset formats, each read from text lines straight into a Graph
READERS = {"edge_list": load_edge_list, "contacts": load_contacts, "attendance": load_attendance}


def read_graph(path: str, fmt: str = "edge_list") -> Graph:
    """Load a graph file in one of the formats of READERS."""
    reader = READERS.get(fmt)
    if reader is None:
        raise ValueError(f"unknown graph format {fmt!r}")
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return reader(fh)


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


def clustering_coefficient(g: Graph, mode: str = "average_local") -> float:
    """Clustering coefficient.

    mode 'average_local': mean over nodes of triangles_at_node / C(deg, 2),
    nodes of degree < 2 contributing 0. mode 'global_transitivity':
    3 * triangles / connected triples. Degenerate graphs return 0.
    """
    if mode not in CLUSTERING_MODES:
        raise ValueError(f"unknown clustering mode {mode!r}")
    n = g.n_nodes
    if n == 0 or g.n_edges == 0:
        return 0.0
    tri = g.triangles
    deg = g.degrees.astype(float)
    wedges = deg * (deg - 1) / 2.0
    if mode == "average_local":
        local = np.divide(tri, wedges, out=np.zeros(n), where=wedges > 0)
        return float(local.mean())
    total_wedges = wedges.sum()
    if total_wedges == 0:
        return 0.0
    return float(tri.sum() / total_wedges)
