"""Edge-probability network models: fitting, sampling, likelihood, serialization.

Four variants share one contract: a symmetric per-pair edge probability.
  er      one global probability
  degree  probability proportional to the product of endpoint degrees
  sbm     probability depends only on the endpoints' communities
  dcsbm   block rate modulated by per-node degree shares within communities
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from .community import Partition, block_counts, read_assignments
from .errors import FitError, NumericError, ParseError
from .graph import Graph, check_labels
from .schema import Declared, from_json, read_array, to_json, write_json

DEGREE_SUM_TOL = 1e-9
DEGREE_MODES = ("exact_sum", "chung_lu")
DCSBM_MODES = ("exact", "plugin")


@dataclass(frozen=True, eq=False)
class EdgeProbabilityModel(Declared):
    """Fields and behavior shared by all variants. Each variant declares its own
    parameters after `n_nodes` and `labels`, and states its formula in `_rows()`,
    which returns row(i): the raw values of the pairs (i, j) for j > i, in ascending j.
    The rows fill one cached vector of the pairs i < j, which samples and likelihoods read."""

    n_nodes: int
    labels: tuple[str, ...]

    variant = ""

    def __post_init__(self):
        super().__post_init__()
        if self.n_nodes < 1:
            raise ValueError("model needs at least one node")
        check_labels(self.labels, self.n_nodes)

    def pair_probabilities(self) -> np.ndarray:
        """Probabilities of the pairs i < j in lexicographic order (read-only, cached)."""
        return self._pairs[0]

    @property
    def capped(self) -> bool:
        """True when some pair's raw formula value exceeded 1 and was capped."""
        return self._pairs[1]

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, bool]:
        p = _pair_vector(self.n_nodes, self._rows())
        capped = bool(np.any(p > 1.0))
        np.minimum(p, 1.0, out=p)
        p.setflags(write=False)
        return p, capped

    def parameter_count(self) -> int:
        raise NotImplementedError

    def _rows(self):
        raise NotImplementedError


def _pair_starts(n: int) -> np.ndarray:
    """Position of pair (i, i + 1) in the lexicographic list of pairs i < j, for each i."""
    i = np.arange(n)
    return i * (2 * n - i - 1) // 2


def _pair_vector(n: int, row) -> np.ndarray:
    """The lexicographic vector of the pairs i < j, filled row by row from row(i)."""
    starts = _pair_starts(n)
    out = np.empty(starts[-1])  # row n - 1 is empty, so it starts at C(n, 2)
    for i in range(n - 1):
        out[starts[i]:starts[i + 1]] = row(i)
    return out


@dataclass(frozen=True, eq=False)
class ErModel(EdgeProbabilityModel):
    p: float

    variant = "er"

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "p", float(self.p))
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be a probability")

    def parameter_count(self) -> int:
        return 1

    def _rows(self):
        return lambda i: np.full(self.n_nodes - i - 1, self.p)


@dataclass(frozen=True, eq=False)
class DegreeModel(EdgeProbabilityModel):
    """p(i, j) = min(1, scale * d_i * d_j) for the observed degree vector d."""

    scale: float
    degrees: np.ndarray
    mode: Literal[DEGREE_MODES]

    variant = "degree"

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "degrees", read_array(
            self.degrees, "degrees must hold only integers", integer=True))
        if self.degrees.shape != (self.n_nodes,) or self.degrees.min() < 0:
            raise ValueError("degrees must be a nonnegative vector of length n_nodes")
        if not 0.0 < self.scale < math.inf:
            raise ValueError("scale must be finite and positive")

    def parameter_count(self) -> int:
        return self.n_nodes

    def _rows(self):
        d = self.degrees.astype(float)
        return lambda i: self.scale * (d[i] * d[i + 1:])


@dataclass(frozen=True, eq=False)
class SbmModel(EdgeProbabilityModel):
    """p(i, j) = block_probs[c_i, c_j] for community assignments c."""

    assignments: np.ndarray
    k: int
    block_probs: np.ndarray

    variant = "sbm"

    def __post_init__(self):
        super().__post_init__()
        assignments = read_assignments(self.assignments, self.k, self.n_nodes)
        bp = read_array(self.block_probs, "block_probs must hold only finite numbers")
        object.__setattr__(self, "assignments", assignments)
        object.__setattr__(self, "block_probs", bp)
        if bp.shape != (self.k, self.k):
            raise ValueError("block_probs must be k x k")
        if bp.min() < 0 or bp.max() > 1 or not np.array_equal(bp, bp.T):
            raise ValueError("block_probs must be a symmetric matrix of probabilities")

    def parameter_count(self) -> int:
        return self.n_nodes + self.k * (self.k + 1) // 2

    def _rows(self):
        a = self.assignments
        return lambda i: self.block_probs[a[i], a[i + 1:]]


@dataclass(frozen=True, eq=False)
class DcsbmModel(EdgeProbabilityModel):
    """p(i, j) = min(1, degree_share_i * degree_share_j * block_rates[c_i, c_j]).

    degree_share holds each node's share of its community's total degree and
    sums to 1 within every community. mode records how the block rates were
    estimated ('plugin': raw block edge counts; 'exact': within-block rates
    normalized so expected block edge counts match the observed ones).
    """

    assignments: np.ndarray
    k: int
    degree_share: np.ndarray
    block_rates: np.ndarray
    mode: Literal[DCSBM_MODES]

    variant = "dcsbm"

    def __post_init__(self):
        super().__post_init__()
        assignments = read_assignments(self.assignments, self.k, self.n_nodes)
        share = read_array(self.degree_share, "degree_share must hold only finite numbers")
        br = read_array(self.block_rates, "block_rates must hold only finite numbers")
        object.__setattr__(self, "assignments", assignments)
        object.__setattr__(self, "degree_share", share)
        object.__setattr__(self, "block_rates", br)
        if self.degree_share.shape != (self.n_nodes,) or self.degree_share.min() < 0:
            raise ValueError("degree_share must be a nonnegative vector of length n_nodes")
        sums = np.bincount(self.assignments, weights=self.degree_share, minlength=self.k)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValueError("degree_share must sum to 1 within every community")
        if br.shape != (self.k, self.k) or br.min() < 0 or not np.array_equal(br, br.T):
            raise ValueError("block_rates must be a symmetric nonnegative k x k matrix")

    def parameter_count(self) -> int:
        return 2 * self.n_nodes + self.k * (self.k + 1) // 2

    def _rows(self):
        a, s = self.assignments, self.degree_share
        return lambda i: (s[i] * s[i + 1:]) * self.block_rates[a[i], a[i + 1:]]


VARIANTS = {cls.variant: cls for cls in (ErModel, DegreeModel, SbmModel, DcsbmModel)}


# ---------------------------------------------------------------------------
# fitting

def fit_er(g: Graph) -> ErModel:
    """One shared probability: observed edge count over possible pairs."""
    if g.n_nodes < 2:
        raise FitError("er model needs at least 2 nodes")
    return ErModel(g.n_nodes, g.labels, g.n_edges / math.comb(g.n_nodes, 2))


def _capped_sum_scale(degrees: np.ndarray, target: int) -> float:
    """Scale s with sum over pairs of min(1, s*d_i*d_j) = target, by bisection."""
    d = degrees[degrees > 0].astype(float)
    products = _pair_vector(len(d), lambda i: d[i] * d[i + 1:])
    uncapped = target / products.sum()
    if uncapped * products.max() <= 1.0:
        return uncapped

    def capped_sum(scale):
        return float(np.minimum(1.0, scale * products).sum())

    lo, hi = 0.0, 1.0  # integer degrees make every product >= 1, so capped_sum(1) >= target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = capped_sum(mid)
        if abs(val - target) <= DEGREE_SUM_TOL:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
    raise NumericError("bisection for the degree-model scale did not converge in 200 iterations")


def fit_degree(g: Graph, mode: str = "exact_sum") -> DegreeModel:
    """Pair probability proportional to the product of observed degrees.

    mode 'exact_sum' (default) picks the scale so capped probabilities sum to
    the observed edge count; 'chung_lu' uses the closed form 1 / (2M).
    """
    m = g.n_edges
    if m == 0:
        raise FitError("degree model is undefined on an edgeless graph")
    if mode == "chung_lu":
        scale = 1.0 / (2.0 * m)
    else:
        scale = _capped_sum_scale(g.degrees, m)
    return DegreeModel(g.n_nodes, g.labels, scale, g.degrees, mode)


def fit_sbm(g: Graph, partition: Partition) -> SbmModel:
    """Per-block edge probability: g's edges between two blocks over the pairs there.

    The blocks are counted on g itself (`block_counts`), so the partition is
    only an assignment vector and may come from any graph of g's size.
    """
    edges, pairs = block_counts(g, partition)
    probs = np.divide(edges.astype(float), pairs.astype(float),
                      out=np.zeros(edges.shape), where=pairs > 0)
    return SbmModel(g.n_nodes, g.labels, partition.assignments, partition.k, probs)


def fit_dcsbm(g: Graph, partition: Partition, mode: str = "exact") -> DcsbmModel:
    """Degree-corrected block model.

    Each node gets its share of its community's total degree in g. Block
    rates are g's block edge counts (`block_counts`, so the partition is only
    an assignment vector); in 'exact' mode (default) the diagonal is
    renormalized so expected within-block edge counts match the observed ones
    (the raw plug-in understates them).
    """
    rates = block_counts(g, partition)[0].astype(float)
    assign = partition.assignments
    deg = g.degrees.astype(float)
    totals = np.bincount(assign, weights=deg, minlength=partition.k)
    if np.any(totals == 0):
        dead = int(np.flatnonzero(totals == 0)[0])
        raise FitError(f"community {dead} has total degree 0, degree shares are undefined")
    share = deg / totals[assign]
    if mode == "exact":
        for a in range(partition.k):
            members = share[assign == a]
            s1 = members.sum()
            s2 = (members ** 2).sum()
            pair_weight = (s1 * s1 - s2) / 2.0
            m_aa = rates[a, a]
            if pair_weight > 0:
                rates[a, a] = m_aa / pair_weight
            else:
                rates[a, a] = 0.0  # singleton block, no within pairs and no within edges
    return DcsbmModel(g.n_nodes, g.labels, assign, partition.k, share, rates, mode)


# ---------------------------------------------------------------------------
# generic operations

def sample_graph(model: EdgeProbabilityModel, rng) -> Graph:
    """Draw a graph: each pair i < j included independently with its model probability.

    One uniform per pair, in lexicographic pair order; the pair is an edge
    when its uniform is below the pair's probability. So the result is a pure
    function of (model, seed). `rng` is a numpy Generator, the kind `derived_rng` makes.
    """
    probs = model.pair_probabilities()
    kept = np.flatnonzero(rng.random(len(probs)) < probs)
    starts = _pair_starts(model.n_nodes)
    rows = np.searchsorted(starts, kept, side="right") - 1
    cols = kept - starts[rows] + rows + 1
    return Graph(model.n_nodes, np.column_stack((rows, cols)), labels=model.labels)


def log_likelihood_per_pair(model: EdgeProbabilityModel, g: Graph) -> float:
    """Bernoulli log-likelihood of g under the model, averaged over node pairs.

    Uses the 0*ln(0) = 0 convention and returns -inf when the model assigns
    probability 0 to an observed edge (or 1 to an absent one).
    """
    if model.n_nodes != g.n_nodes:
        raise ValueError("model and graph disagree on the node count")
    n = g.n_nodes
    if n < 2:
        raise ValueError("log-likelihood per pair needs at least 2 nodes")
    probs = model.pair_probabilities()
    present = np.zeros(len(probs), dtype=bool)
    rows, cols = g.edges.T
    present[_pair_starts(n)[rows] + cols - rows - 1] = True
    with np.errstate(divide="ignore"):
        terms = np.where(present, np.log(probs), np.log1p(-probs))
    return float(terms.sum() / math.comb(n, 2))


# ---------------------------------------------------------------------------
# serialization (JSON, bit-exact float round-trip)

def model_to_dict(model: EdgeProbabilityModel) -> dict:
    """The model's JSON form: its variant, then its fields in declared order."""
    return {"variant": model.variant, **to_json(model)}


def model_from_dict(data) -> EdgeProbabilityModel:
    """Build a model from its JSON form, strictly; errors name the key path."""
    if not isinstance(data, dict):
        raise ValueError("model must be a JSON object")
    rest = dict(data)
    variant = rest.pop("variant", None)
    if not isinstance(variant, str) or variant not in VARIANTS:
        raise ValueError(f"model.variant must be one of {', '.join(VARIANTS)}, got {variant!r}")
    return from_json(VARIANTS[variant], rest, "model")


def save_model(model: EdgeProbabilityModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(model_to_dict(model), fh)


def load_model(path: str) -> EdgeProbabilityModel:
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return model_from_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ParseError(f"model file is not valid JSON: {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ParseError(str(exc)) from None
