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
    return rng.choice(n, size=params.initial_infectious, replace=False)


def check_runnable(g: Graph, params: SirParams, initial_nodes=None) -> None:
    """Raise ValueError unless simulate_sir can start a run of `params` on `g`."""
    if g.n_nodes < 1:
        raise ValueError("simulation needs at least one node")
    if initial_nodes is None and params.initial_infectious > g.n_nodes:
        raise ValueError("initial_infectious cannot exceed the node count")


def simulate_sir(g: Graph, params: SirParams, rng, initial_nodes=None) -> Trajectory:
    """One stochastic trajectory. Accepts a Generator or a seed.

    The initial infectious set is drawn uniformly without replacement unless
    initial_nodes pins it. Stream contract: the run draws one
    `rng.choice(n, initial_infectious, replace=False)` for the seeds (none when
    initial_nodes is given), then 2n uniforms per transition from one
    `rng.random` call. The first n decide infection and the last n recovery,
    both in node-index order. Nothing is drawn once no node is infectious. So
    the trajectory is a pure function of (g, params, seed).
    """
    check_runnable(g, params, initial_nodes)
    rng = np.random.default_rng(rng)
    n = g.n_nodes
    init = _resolve_initial(g, params, rng, initial_nodes)

    # node v is susceptible at state[v] and infectious at state[n + v], the
    # layout of the 2n uniforms each transition draws
    state = np.zeros(2 * n, dtype=bool)
    susceptible, infectious = state[:n], state[n:]
    susceptible[:] = True
    susceptible[init] = False
    infectious[init] = True

    steps = params.steps
    s_counts = np.empty(steps + 1, dtype=np.int64)
    i_counts = np.empty(steps + 1, dtype=np.int64)
    s_now, i_now = n - len(init), len(init)
    s_counts[0], i_counts[0] = s_now, i_now

    adjacency = g.adjacency_matrix()
    # infection probability by number of infectious neighbours; entry 0 is 0
    p_by_contacts = 1.0 - (1.0 - params.infection_probability) ** np.arange(
        int(g.degrees.max()) + 1
    )
    # rates[:n] is rebuilt from the contacts; rates[n:] stays gamma. Masked by
    # state they give the thresholds; 0 never fires, as draws lie in [0, 1)
    rates = np.full(2 * n, params.recovery_probability)
    threshold = np.empty(2 * n)
    draws = np.empty(2 * n)
    fired = np.empty(2 * n, dtype=bool)
    moved = True

    for t in range(steps):
        if not i_now:
            # absorbed: no randomness left to consume
            s_counts[t + 1:] = s_now
            i_counts[t + 1:] = 0
            break
        # thresholds depend only on the state: rebuild them only after a change
        if moved:
            rates[:n] = p_by_contacts[adjacency @ infectious]
            np.multiply(rates, state, out=threshold)
        rng.random(out=draws)
        np.less(draws, threshold, out=fired)
        moved = np.count_nonzero(fired)
        if moved:
            infected = np.count_nonzero(fired[:n])
            s_now -= infected
            i_now += infected - (moved - infected)
            state ^= fired  # infected leave S, recovered leave I
            infectious |= fired[:n]
        s_counts[t + 1] = s_now
        i_counts[t + 1] = i_now
    return Trajectory(s_counts, i_counts, n - s_counts - i_counts)


TRAJECTORY_HEADER = "run,t,S,I,R\n"


def write_trajectory_rows(stream, run: int, traj: Trajectory) -> None:
    """Write one run's counts as the run,t,S,I,R rows under TRAJECTORY_HEADER."""
    counts = zip(traj.s_counts.tolist(), traj.i_counts.tolist(), traj.r_counts.tolist())
    stream.write("".join(f"{run},{t},{s},{i},{r}\n" for t, (s, i, r) in enumerate(counts)))


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
