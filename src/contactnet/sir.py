"""Discrete-time stochastic SIR dynamics on a fixed contact graph.

Chain-binomial semantics: per transition, every susceptible node with k
infectious neighbors is infected with probability 1 - (1 - beta)^k and every
infectious node recovers with probability gamma, both evaluated synchronously
against the time-t state. A node may transmit and recover within the same
transition; a node infected at t+1 cannot recover before the next transition.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .metrics import MeanCurves

ORACLE_MAX_NODES = 8
ORACLE_MAX_STEPS = 6


@dataclass(frozen=True)
class SirParams:
    infection_probability: float = 0.025
    recovery_probability: float = 0.025
    steps: int = 30
    initial_infectious: int = 1

    def __post_init__(self):
        for name in ("infection_probability", "recovery_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.initial_infectious < 0:
            raise ValueError("initial_infectious must be nonnegative")


@dataclass(frozen=True)
class Trajectory:
    """Compartment counts after t transitions, t = 0 .. steps."""

    s_counts: np.ndarray
    i_counts: np.ndarray
    r_counts: np.ndarray

    def __post_init__(self):
        for name in ("s_counts", "i_counts", "r_counts"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not len(self.s_counts) == len(self.i_counts) == len(self.r_counts):
            raise ValueError("compartment count vectors must share a length")

    def __len__(self):
        return len(self.s_counts)

    @property
    def population(self) -> int:
        return int(self.s_counts[0] + self.i_counts[0] + self.r_counts[0])


def _resolve_initial(g: Graph, params: SirParams, rng, initial_nodes):
    n = g.n_nodes
    if initial_nodes is not None:
        init = np.unique(np.asarray(list(initial_nodes), dtype=np.int64))
        if init.size and (init.min() < 0 or init.max() >= n):
            raise ValueError("initial node index out of range")
        return init
    if params.initial_infectious > n:
        raise ValueError("initial_infectious cannot exceed the node count")
    return rng.choice(n, size=params.initial_infectious, replace=False)


def simulate_sir(g: Graph, params: SirParams, rng, initial_nodes=None) -> Trajectory:
    """One stochastic trajectory. Accepts a Generator or a seed.

    The initial infectious set is drawn uniformly without replacement unless
    initial_nodes pins it. Random draws are consumed in fixed node-index
    order, so the trajectory is a pure function of (g, params, seed).
    """
    if g.n_nodes < 1:
        raise ValueError("simulation needs at least one node")
    rng = np.random.default_rng(rng)
    n = g.n_nodes
    init = _resolve_initial(g, params, rng, initial_nodes)

    is_s = np.ones(n, dtype=bool)
    is_i = np.zeros(n, dtype=bool)
    is_r = np.zeros(n, dtype=bool)
    is_s[init] = False
    is_i[init] = True

    steps = params.steps
    s_counts = np.empty(steps + 1, dtype=np.int64)
    i_counts = np.empty(steps + 1, dtype=np.int64)
    r_counts = np.empty(steps + 1, dtype=np.int64)
    s_counts[0] = n - len(init)
    i_counts[0] = len(init)
    r_counts[0] = 0

    adjacency = g.adjacency_matrix()
    beta = params.infection_probability
    gamma = params.recovery_probability
    survive = 1.0 - beta

    for t in range(steps):
        if not i_counts[t]:
            # absorbed: no randomness left to consume
            s_counts[t + 1:] = s_counts[t]
            i_counts[t + 1:] = 0
            r_counts[t + 1:] = r_counts[t]
            break
        contacts = adjacency @ is_i.astype(np.int64)
        p_infect = 1.0 - survive ** contacts
        new_i = is_s & (rng.random(n) < p_infect)
        new_r = is_i & (rng.random(n) < gamma)
        is_s &= ~new_i
        is_i = (is_i & ~new_r) | new_i
        is_r |= new_r
        s_counts[t + 1] = np.count_nonzero(is_s)
        i_counts[t + 1] = np.count_nonzero(is_i)
        r_counts[t + 1] = n - s_counts[t + 1] - i_counts[t + 1]
    return Trajectory(s_counts, i_counts, r_counts)


def write_trajectories_csv(trajectories, stream) -> None:
    """Dump trajectories as run,t,S,I,R rows."""
    stream.write("run,t,S,I,R\n")
    for run, traj in enumerate(trajectories):
        for t in range(len(traj)):
            stream.write(
                f"{run},{t},{traj.s_counts[t]},{traj.i_counts[t]},{traj.r_counts[t]}\n"
            )


# ---------------------------------------------------------------------------
# exact enumeration oracle

def exact_sir_expected_curves(g: Graph, params: SirParams, initial_set) -> MeanCurves:
    """Exact expected compartment fractions by forward propagation of the full
    joint state distribution, under the same transition semantics as
    simulate_sir. Enumeration over {S,I,R}^N: enforced to N <= 8, steps <= 6.
    """
    n = g.n_nodes
    if n < 1:
        raise ValueError("oracle needs at least one node")
    if n > ORACLE_MAX_NODES or params.steps > ORACLE_MAX_STEPS:
        raise ValueError(
            f"exact enumeration is limited to N <= {ORACLE_MAX_NODES} "
            f"and steps <= {ORACLE_MAX_STEPS}"
        )
    init = set(int(v) for v in initial_set)
    if any(v < 0 or v >= n for v in init):
        raise ValueError("initial node index out of range")
    neighbors = [tuple(int(x) for x in g.neighbors(v)) for v in range(n)]
    beta = params.infection_probability
    gamma = params.recovery_probability

    S, I, R = 0, 1, 2
    start = tuple(I if v in init else S for v in range(n))
    dist: dict[tuple[int, ...], float] = {start: 1.0}

    steps = params.steps
    expected = np.zeros((3, steps + 1))

    def record(t):
        for state, prob in dist.items():
            expected[0, t] += prob * state.count(S)
            expected[1, t] += prob * state.count(I)
            expected[2, t] += prob * state.count(R)

    record(0)
    for t in range(1, steps + 1):
        new_dist: dict[tuple[int, ...], float] = defaultdict(float)
        for state, prob in dist.items():
            outcomes = []
            for v in range(n):
                comp = state[v]
                if comp == S:
                    k = sum(1 for u in neighbors[v] if state[u] == I)
                    p = 1.0 - (1.0 - beta) ** k
                    branch = [(S, 1.0 - p), (I, p)]
                elif comp == I:
                    branch = [(I, 1.0 - gamma), (R, gamma)]
                else:
                    branch = [(R, 1.0)]
                outcomes.append([(c, q) for c, q in branch if q > 0.0])
            for combo in itertools.product(*outcomes):
                q = prob
                for _, branch_p in combo:
                    q *= branch_p
                new_dist[tuple(c for c, _ in combo)] += q
        dist = dict(new_dist)
        record(t)

    expected /= n
    return MeanCurves(expected[0], expected[1], expected[2], n_runs=0, population=n)
