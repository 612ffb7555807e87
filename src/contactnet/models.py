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

import numpy as np

from .community import Partition
from .errors import FitError, NumericError, ParseError
from .graph import Graph

DEGREE_SUM_TOL = 1e-9
DEGREE_MODES = ("exact_sum", "chung_lu")
DCSBM_MODES = ("exact", "plugin")


class EdgeProbabilityModel:
    """Behavior shared by all variants; subclasses define _matrix."""

    variant = ""

    def probability_matrix(self) -> np.ndarray:
        """Full N x N symmetric probability matrix with a zero diagonal (read-only)."""
        return self._built[0]

    @property
    def capped(self) -> bool:
        """True when some pair's raw formula value exceeded 1 and was capped."""
        return self._built[1]

    @cached_property
    def _built(self) -> tuple[np.ndarray, bool]:
        m = self._matrix()
        np.fill_diagonal(m, 0.0)
        capped = bool(np.any(m > 1.0))
        np.minimum(m, 1.0, out=m)
        m.setflags(write=False)
        return m, capped

    def parameter_count(self) -> int:
        raise NotImplementedError

    def _matrix(self) -> np.ndarray:
        raise NotImplementedError


def _as_readonly(arr, dtype) -> np.ndarray:
    out = np.asarray(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def _validate_common(model) -> None:
    if model.n_nodes < 1:
        raise ValueError("model needs at least one node")
    if len(model.labels) != model.n_nodes:
        raise ValueError("label count must equal n_nodes")


def _validate_assignments(assign: np.ndarray, k: int, n: int) -> None:
    if assign.shape != (n,):
        raise ValueError("assignment vector length must equal n_nodes")
    if k < 1 or assign.min() < 0 or assign.max() >= k:
        raise ValueError("community index out of range")
    if np.any(np.bincount(assign, minlength=k) == 0):
        raise ValueError("every community must be non-empty")


@dataclass(frozen=True, eq=False)
class ErModel(EdgeProbabilityModel):
    n_nodes: int
    labels: tuple[str, ...]
    p: float

    variant = "er"

    def __post_init__(self):
        _validate_common(self)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be a probability")

    def parameter_count(self) -> int:
        return 1

    def _matrix(self):
        return np.full((self.n_nodes, self.n_nodes), self.p)


@dataclass(frozen=True, eq=False)
class DegreeModel(EdgeProbabilityModel):
    """p(i, j) = min(1, scale * d_i * d_j) for the observed degree vector d."""

    n_nodes: int
    labels: tuple[str, ...]
    scale: float
    degrees: np.ndarray
    mode: str

    variant = "degree"

    def __post_init__(self):
        _validate_common(self)
        object.__setattr__(self, "degrees", _as_readonly(self.degrees, np.int64))
        if self.degrees.shape != (self.n_nodes,) or self.degrees.min() < 0:
            raise ValueError("degrees must be a nonnegative vector of length n_nodes")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.mode not in DEGREE_MODES:
            raise ValueError(f"unknown degree mode {self.mode!r}")

    def parameter_count(self) -> int:
        return self.n_nodes

    def _matrix(self):
        d = self.degrees.astype(float)
        return self.scale * np.outer(d, d)


@dataclass(frozen=True, eq=False)
class SbmModel(EdgeProbabilityModel):
    """p(i, j) = block_probs[c_i, c_j] for community assignments c."""

    n_nodes: int
    labels: tuple[str, ...]
    assignments: np.ndarray
    k: int
    block_probs: np.ndarray

    variant = "sbm"

    def __post_init__(self):
        _validate_common(self)
        object.__setattr__(self, "assignments", _as_readonly(self.assignments, np.int64))
        object.__setattr__(self, "block_probs", _as_readonly(self.block_probs, float))
        _validate_assignments(self.assignments, self.k, self.n_nodes)
        bp = self.block_probs
        if bp.shape != (self.k, self.k):
            raise ValueError("block_probs must be k x k")
        if bp.min() < 0 or bp.max() > 1 or not np.array_equal(bp, bp.T):
            raise ValueError("block_probs must be a symmetric matrix of probabilities")

    def parameter_count(self) -> int:
        return self.n_nodes + self.k * (self.k + 1) // 2

    def _matrix(self):
        return self.block_probs[self.assignments][:, self.assignments].copy()


@dataclass(frozen=True, eq=False)
class DcsbmModel(EdgeProbabilityModel):
    """p(i, j) = min(1, degree_share_i * degree_share_j * block_rates[c_i, c_j]).

    degree_share holds each node's share of its community's total degree and
    sums to 1 within every community. mode records how the block rates were
    estimated ('plugin': raw block edge counts; 'exact': within-block rates
    normalized so expected block edge counts match the observed ones).
    """

    n_nodes: int
    labels: tuple[str, ...]
    assignments: np.ndarray
    k: int
    degree_share: np.ndarray
    block_rates: np.ndarray
    mode: str

    variant = "dcsbm"

    def __post_init__(self):
        _validate_common(self)
        object.__setattr__(self, "assignments", _as_readonly(self.assignments, np.int64))
        object.__setattr__(self, "degree_share", _as_readonly(self.degree_share, float))
        object.__setattr__(self, "block_rates", _as_readonly(self.block_rates, float))
        _validate_assignments(self.assignments, self.k, self.n_nodes)
        if self.degree_share.shape != (self.n_nodes,) or self.degree_share.min() < 0:
            raise ValueError("degree_share must be a nonnegative vector of length n_nodes")
        sums = np.bincount(self.assignments, weights=self.degree_share, minlength=self.k)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValueError("degree_share must sum to 1 within every community")
        br = self.block_rates
        if br.shape != (self.k, self.k) or br.min() < 0 or not np.array_equal(br, br.T):
            raise ValueError("block_rates must be a symmetric nonnegative k x k matrix")
        if self.mode not in DCSBM_MODES:
            raise ValueError(f"unknown dcsbm mode {self.mode!r}")

    def parameter_count(self) -> int:
        return 2 * self.n_nodes + self.k * (self.k + 1) // 2

    def _matrix(self):
        rates = self.block_rates[self.assignments][:, self.assignments]
        return np.outer(self.degree_share, self.degree_share) * rates


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
    iu = np.triu_indices(len(d), 1)
    products = d[iu[0]] * d[iu[1]]
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
    if mode not in DEGREE_MODES:
        raise ValueError(f"unknown degree mode {mode!r}")
    m = g.n_edges
    if m == 0:
        raise FitError("degree model is undefined on an edgeless graph")
    if mode == "chung_lu":
        scale = 1.0 / (2.0 * m)
    else:
        scale = _capped_sum_scale(g.degrees, m)
    return DegreeModel(g.n_nodes, g.labels, scale, g.degrees, mode)


def fit_sbm(g: Graph, partition: Partition) -> SbmModel:
    """Per-block edge probability: observed block edges over possible block pairs."""
    if len(partition.assignments) != g.n_nodes:
        raise ValueError("partition length must equal the node count")
    sizes = partition.community_sizes
    if np.any(sizes == 0):
        empty = int(np.flatnonzero(sizes == 0)[0])
        raise FitError(f"community {empty} is empty")
    edges = partition.block_edge_counts.astype(float)
    pairs = partition.block_pair_counts.astype(float)
    probs = np.divide(edges, pairs, out=np.zeros_like(edges), where=pairs > 0)
    return SbmModel(g.n_nodes, g.labels, partition.assignments, partition.k, probs)


def fit_dcsbm(g: Graph, partition: Partition, mode: str = "exact") -> DcsbmModel:
    """Degree-corrected block model.

    Each node gets its share of its community's total degree. Block rates are
    the observed block edge counts; in 'exact' mode (default) the diagonal is
    renormalized so expected within-block edge counts match the observed ones
    (the raw plug-in understates them).
    """
    if mode not in DCSBM_MODES:
        raise ValueError(f"unknown dcsbm mode {mode!r}")
    if len(partition.assignments) != g.n_nodes:
        raise ValueError("partition length must equal the node count")
    assign = partition.assignments
    deg = g.degrees.astype(float)
    totals = np.bincount(assign, weights=deg, minlength=partition.k)
    if np.any(totals == 0):
        dead = int(np.flatnonzero(totals == 0)[0])
        raise FitError(f"community {dead} has total degree 0, degree shares are undefined")
    share = deg / totals[assign]
    rates = partition.block_edge_counts.astype(float)
    if mode == "exact":
        rates = rates.copy()
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
    return DcsbmModel(
        g.n_nodes, g.labels, assign, partition.k, share, rates, mode
    )


# ---------------------------------------------------------------------------
# generic operations

def sample_graph(model: EdgeProbabilityModel, rng) -> Graph:
    """Draw a graph: each pair i < j included independently with its model probability.

    Pairs are consumed in lexicographic order, so the result is a pure
    function of (model, seed). Accepts a Generator or a seed.
    """
    rng = np.random.default_rng(rng)
    n = model.n_nodes
    rows, cols = np.triu_indices(n, 1)
    probs = model.probability_matrix()[rows, cols]
    keep = rng.random(len(probs)) < probs
    edges = np.column_stack((rows[keep], cols[keep]))
    return Graph(n, edges, labels=model.labels)


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
    rows, cols = np.triu_indices(n, 1)
    probs = model.probability_matrix()[rows, cols]
    present = np.zeros((n, n), dtype=bool)
    if g.n_edges:
        present[g.edges[:, 0], g.edges[:, 1]] = True
    present = present[rows, cols]
    with np.errstate(divide="ignore"):
        terms = np.where(present, np.log(probs), np.log1p(-probs))
    return float(terms.sum() / math.comb(n, 2))


# ---------------------------------------------------------------------------
# serialization (JSON, bit-exact float round-trip)

def model_to_dict(model: EdgeProbabilityModel) -> dict:
    data = {
        "variant": model.variant,
        "n_nodes": model.n_nodes,
        "labels": list(model.labels),
    }
    if isinstance(model, ErModel):
        data["p"] = model.p
    elif isinstance(model, DegreeModel):
        data["mode"] = model.mode
        data["scale"] = model.scale
        data["degrees"] = model.degrees.tolist()
    elif isinstance(model, SbmModel):
        data["assignments"] = model.assignments.tolist()
        data["k"] = model.k
        data["block_probs"] = model.block_probs.tolist()
    elif isinstance(model, DcsbmModel):
        data["mode"] = model.mode
        data["assignments"] = model.assignments.tolist()
        data["k"] = model.k
        data["degree_share"] = model.degree_share.tolist()
        data["block_rates"] = model.block_rates.tolist()
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return data


def model_from_dict(data: dict) -> EdgeProbabilityModel:
    try:
        variant = data["variant"]
        n = int(data["n_nodes"])
        labels = tuple(data["labels"])
        if variant == "er":
            return ErModel(n, labels, float(data["p"]))
        if variant == "degree":
            return DegreeModel(n, labels, float(data["scale"]), data["degrees"], data["mode"])
        if variant == "sbm":
            return SbmModel(n, labels, data["assignments"], int(data["k"]), data["block_probs"])
        if variant == "dcsbm":
            return DcsbmModel(
                n, labels, data["assignments"], int(data["k"]),
                data["degree_share"], data["block_rates"], data["mode"],
            )
    except KeyError as exc:
        raise ValueError(f"model document is missing field {exc}") from None
    raise ValueError(f"unknown model variant {variant!r}")


def save_model(model: EdgeProbabilityModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path: str) -> EdgeProbabilityModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"model file is not valid JSON: {exc}") from None
    try:
        return model_from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from None
