"""Community estimation: regularized spectral clustering with eigengap model selection."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from .errors import FitError, NumericError
from .graph import Graph
from .schema import Declared, read_array
from .seeding import derived_rng

ZERO_ROW_TOL = 1e-12
EIGENVALUE_ORDERS = ("abs", "value")


def read_assignments(assignments, k: int, n_nodes: int | None = None) -> np.ndarray:
    """`assignments` as a read-only int64 copy: a non-empty vector of integer
    labels in 0..k-1 using every label, of length `n_nodes` if given."""
    assign = read_array(assignments, "community labels must be integers", integer=True)
    if assign.ndim != 1 or (n_nodes is not None and assign.size != n_nodes):
        raise ValueError("assignments must be a vector of one label per node")
    if assign.size == 0:
        raise ValueError("cannot partition an empty graph")
    if k < 1 or assign.min() < 0 or assign.max() >= k:
        raise ValueError("community index out of range")
    if len(np.unique(assign)) != k:
        raise ValueError("every community must be non-empty")
    return assign


@dataclass(frozen=True, eq=False)
class Partition(Declared):
    """Community assignment of N nodes into k groups: what clustering decides.

    A partition is its assignment vector and nothing about any graph. The
    block edge and pair counts belong to the graph a model is fitted to, so
    `block_counts(g, partition)` counts them on that graph.
    """

    assignments: np.ndarray
    k: int

    def __post_init__(self):
        super().__post_init__()
        # a read-only copy, so the caller's array stays writable
        object.__setattr__(self, "assignments", read_assignments(self.assignments, self.k))

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.k == other.k and np.array_equal(self.assignments, other.assignments)


def block_counts(g: Graph, partition: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Observed edges and possible pairs of g between the blocks of `partition`.

    Returns two symmetric k x k int64 matrices: edges[a, b] counts g's edges
    between communities a and b (within a on the diagonal); pairs[a, b] is
    n_a * n_b off the diagonal and C(n_a, 2) on it.
    """
    assign = partition.assignments
    if len(assign) != g.n_nodes:
        raise ValueError("partition length must equal the node count")
    k = partition.k
    edges = np.zeros((k, k), dtype=np.int64)
    np.add.at(edges, (assign[g.edges[:, 0]], assign[g.edges[:, 1]]), 1)
    edges = edges + edges.T - np.diag(np.diag(edges))
    sizes = np.bincount(assign, minlength=k)
    pairs = np.outer(sizes, sizes)
    np.fill_diagonal(pairs, sizes * (sizes - 1) // 2)
    return edges, pairs


def write_partition_csv(partition: Partition, labels, stream) -> None:
    """Dump a partition as node_label,community_index rows, quoting labels as CSV needs."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("node_label", "community_index"))
    writer.writerows(zip(labels, partition.assignments.tolist()))


@dataclass(frozen=True)
class SpectralConfig(Declared):
    """Knobs for spectral_cluster. None values fall back to size-dependent defaults.

    regularization defaults to the average degree; k_max defaults to
    min(20, N // 4). eigenvalue_order 'abs' ranks eigenvalues by magnitude,
    'value' by plain descending value.
    """

    regularization: float | None = None
    k_max: Annotated[int, 1] | None = None
    k_fixed: Annotated[int, 1] | None = None
    kmeans_restarts: Annotated[int, 1] = 10
    kmeans_max_iters: Annotated[int, 1] = 100
    seed: Annotated[int, 0] = 0
    eigenvalue_order: Literal[EIGENVALUE_ORDERS] = "abs"

    def __post_init__(self):
        super().__post_init__()
        if self.regularization is not None and not (
            math.isfinite(self.regularization) and self.regularization >= 0
        ):
            raise ValueError("regularization must be finite and nonnegative")


def regularized_laplacian(g: Graph, regularization: float) -> np.ndarray:
    """D^{-1/2} A D^{-1/2} with D = diag(degree + regularization), regularization >= 0.
    Symmetric bit for bit: lap[i, j] and lap[j, i] are the same IEEE product."""
    scale = g.degrees.astype(float) + regularization
    if np.any(scale == 0):
        raise NumericError(
            "zero regularization with an isolated node makes the degree scaling singular"
        )
    inv_sqrt = 1.0 / np.sqrt(scale)
    tails, heads = g.arcs
    lap = np.zeros((g.n_nodes, g.n_nodes))
    lap[tails, heads] = inv_sqrt[tails] * inv_sqrt[heads]
    return lap


def symmetric_eigendecomposition(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns of the symmetric
    float array `m`, such as regularized_laplacian builds; eigh reads its lower triangle."""
    values, vectors = np.linalg.eigh(m)
    return values[::-1], vectors[:, ::-1]


def select_k_eigengap(eigenvalues, k_max: int) -> int:
    """Community count by the eigengap heuristic.

    eigenvalues are assumed sorted descending by absolute value; returns the
    k in 1..k_max maximizing |lambda_k| - |lambda_{k+1}|, ties toward smaller k.
    """
    vals = np.abs(np.asarray(eigenvalues, dtype=float))
    if k_max >= len(vals):
        raise ValueError("k_max must be smaller than the number of eigenvalues")
    gaps = vals[:k_max] - vals[1:k_max + 1]
    return int(np.argmax(gaps)) + 1


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centroids[c] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[c]) ** 2).sum(axis=1))
    return centroids


def _kmeans_once(points: np.ndarray, k: int, max_iters: int, rng: np.random.Generator):
    n = len(points)
    centroids = _kmeans_pp_init(points, k, rng)
    assign = None
    for _ in range(max_iters):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)  # argmin breaks ties toward the lowest centroid index
        counts = np.bincount(new_assign, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            # reseed each empty cluster with the point farthest from its centroid
            own = d2[np.arange(n), new_assign].copy()
            for c in empties:
                far = int(np.argmax(own))
                centroids[c] = points[far]
                new_assign[far] = c
                own[far] = -1.0
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = points[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    diffs = points - centroids[assign]
    wcss = float((diffs * diffs).sum())
    return assign, wcss


def kmeans(points, k: int, restarts: int = 10, max_iters: int = 100, *, rng) -> np.ndarray:
    """Lloyd's k-means of the (n, d) `points` with k-means++ seeding; best of `restarts`
    (>= 1) runs of at most `max_iters` (>= 1) Lloyd steps each, by WCSS.

    Deterministic given `rng`, a numpy Generator (the kind `derived_rng` makes),
    which is required; None is refused, as it would draw from OS entropy. Restart
    r draws from `rng`'s r-th spawned stream, and ties in WCSS go to the earlier restart.
    """
    points = np.asarray(points, dtype=float)
    if k < 1 or k > len(points):
        raise ValueError("k must be between 1 and the number of points")
    if rng is None:
        raise TypeError("kmeans needs an rng: None would draw from OS entropy")
    best_assign = None
    best_wcss = np.inf
    for stream in rng.spawn(restarts):
        assign, wcss = _kmeans_once(points, k, max_iters, stream)
        if wcss < best_wcss:
            best_wcss = wcss
            best_assign = assign
    return best_assign


def spectral_cluster(g: Graph, config: SpectralConfig = SpectralConfig()) -> Partition:
    """Full pipeline: regularized Laplacian, eigengap K selection, row-normalized
    eigenvector embedding, k-means. Pure function of (g, config)."""
    n = g.n_nodes
    if n < 2:
        raise FitError("spectral clustering needs at least 2 nodes")
    regularization = config.regularization
    if regularization is None:
        if g.n_edges == 0:
            raise FitError("spectral clustering's default regularization, the average "
                           "degree, is 0 on an edgeless graph")
        regularization = 2 * g.n_edges / n  # average degree
    lap = regularized_laplacian(g, regularization)
    values, vectors = symmetric_eigendecomposition(lap)
    order = np.arange(n)
    if config.eigenvalue_order == "abs":
        order = np.argsort(-np.abs(values), kind="stable")
        values = values[order]
    if config.k_fixed is not None:
        if config.k_fixed > n:
            raise ValueError("k_fixed cannot exceed the node count")
        k = config.k_fixed
    else:
        if config.k_max is not None:
            k_max = config.k_max  # out-of-range values error in select_k_eigengap
        else:
            k_max = max(1, min(20, n // 4, n - 1))
        k = select_k_eigengap(values, k_max)
    # k-means must see a C-contiguous embedding: its partition depends on the layout
    embedding = np.ascontiguousarray(vectors[:, order[:k]])
    norms = np.sqrt((embedding ** 2).sum(axis=1))
    keep = norms >= ZERO_ROW_TOL
    embedding[keep] /= norms[keep, None]
    embedding[~keep] = 0.0
    assign = kmeans(
        embedding,
        k,
        restarts=config.kmeans_restarts,
        max_iters=config.kmeans_max_iters,
        rng=derived_rng(config.seed),
    )
    # number the communities in the order of their smallest member index
    _, first, inverse = np.unique(assign, return_index=True, return_inverse=True)
    return Partition(np.argsort(np.argsort(first))[inverse], len(first))
