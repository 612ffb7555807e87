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
from functools import lru_cache
from typing import Annotated, NamedTuple

import numpy as np

from .errors import ConfigError, DataError
from .graph import Graph
from .metrics import MeanCurves
from .schema import Declared, read_array

ORACLE_MAX_NODES = 8
ORACLE_MAX_STEPS = 6


@dataclass(frozen=True)
class SirParams(Declared):
    infection_probability: float = 0.025
    recovery_probability: float = 0.025
    steps: Annotated[int, 0] = 30
    initial_infectious: Annotated[int, 0] = 1

    def __post_init__(self):
        super().__post_init__()
        for name in ("infection_probability", "recovery_probability"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


class Trajectory(NamedTuple):
    """Compartment counts after t transitions, t = 0 .. steps."""

    s_counts: np.ndarray
    i_counts: np.ndarray
    r_counts: np.ndarray


def _initial_indices(nodes, n: int) -> np.ndarray:
    """The distinct node indices (integers in 0..n-1) in the iterable `nodes`, sorted."""
    init = np.unique(read_array(list(nodes), "initial nodes must be integers", integer=True))
    if init.size and (init[0] < 0 or init[-1] >= n):
        raise ValueError("initial node index out of range")
    return init


def _resolve_initial(g: Graph, params: SirParams, rng, initial_nodes):
    n = g.n_nodes
    if initial_nodes is not None:
        return _initial_indices(initial_nodes, n)
    if params.initial_infectious == 1:
        # the bounded draw choice(n, 1, replace=False) makes, from the same bits,
        # at a fifth of its cost; a numpy scalar has .size and indexes like an array
        return rng.integers(n)
    return rng.choice(n, size=params.initial_infectious, replace=False)


@lru_cache(maxsize=64)
def _infection_table(beta, max_degree: int) -> np.ndarray:
    """Infection probability by number of infectious neighbours, 0 .. max_degree
    (entry 0 is 0), shared read-only by every run with this beta and degree bound."""
    table = 1.0 - (1.0 - beta) ** np.arange(max_degree + 1)
    table.setflags(write=False)
    return table


def check_runnable(g: Graph, params: SirParams, initial_nodes=None) -> None:
    """Raise DataError for a graph no run can start on, ConfigError for more
    initial infectious nodes than `g` has."""
    if g.n_nodes < 1:
        raise DataError("simulation needs at least one node")
    if initial_nodes is None and params.initial_infectious > g.n_nodes:
        raise ConfigError("initial_infectious cannot exceed the node count")


def simulate_sir(g: Graph, params: SirParams, rng, initial_nodes=None) -> Trajectory:
    """One stochastic trajectory drawn from `rng`, a numpy Generator (`derived_rng` makes one).

    The initial infectious set is drawn uniformly without replacement unless
    initial_nodes pins it. Stream contract: the run draws one
    `rng.choice(n, initial_infectious, replace=False)` for the seeds (none when
    initial_nodes is given; one seed is drawn as `rng.integers(n)`, the same
    draw from the same bits), then 2n uniforms per transition from one
    `rng.random` call. The first n decide infection and the last n recovery,
    both in node-index order. Nothing is drawn once no node is infectious. So
    the trajectory is a pure function of (g, params, seed).
    """
    check_runnable(g, params, initial_nodes)
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
    # rows S, I and R; R follows from S and I once the run ends
    counts = np.empty((3, steps + 1), dtype=np.int64)
    s_counts, i_counts, r_counts = counts
    s_now, i_now = n - init.size, init.size
    s_counts[0], i_counts[0] = s_now, i_now

    tails, heads = g.arcs
    p_by_contacts = _infection_table(params.infection_probability, int(g.degrees.max()))
    # rates[:n] is rebuilt from the contacts; rates[n:] stays gamma. Masked by
    # state they give the thresholds; 0 never fires, as draws lie in [0, 1)
    rates = np.full(2 * n, params.recovery_probability)
    threshold = np.empty(2 * n)
    draws = np.empty(2 * n)
    fired = np.empty(2 * n, dtype=bool)
    infected_now = fired[:n]
    moved = True

    for t in range(steps):
        if not i_now:
            # absorbed: no randomness left to consume
            s_counts[t + 1:] = s_now
            i_counts[t + 1:] = 0
            break
        # thresholds depend only on the state: rebuild them only after a change
        if moved:
            # infectious neighbours per node: the heads of arcs out of infectious tails
            rates[:n] = p_by_contacts[np.bincount(heads[infectious[tails]], minlength=n)]
            np.multiply(rates, state, out=threshold)
        rng.random(out=draws)
        np.less(draws, threshold, out=fired)
        moved = np.count_nonzero(fired)
        if moved:
            infected = np.count_nonzero(infected_now)
            s_now -= infected
            i_now += infected - (moved - infected)
            state ^= fired  # infected leave S, recovered leave I
            infectious |= infected_now
        s_counts[t + 1] = s_now
        i_counts[t + 1] = i_now
    r_counts[:] = n - s_counts - i_counts
    return Trajectory(*counts)


TRAJECTORY_HEADER = "run,t,S,I,R\n"


_ROW = "{},{},{},{},{}\n".format


# one entry: an ensemble's runs share their length, and the strings of a long
# run are not kept past the next length
@lru_cache(maxsize=1)
def _t_strings(length: int) -> tuple[str, ...]:
    return tuple(map(str, range(length)))


def write_trajectory_rows(stream, run: int, traj: Trajectory) -> None:
    """Write one run's counts as the run,t,S,I,R rows under TRAJECTORY_HEADER,
    in one write.

    The rows that repeat the last row's S, I and R to the end (an absorbed
    epidemic's tail, where only t changes) are written in one join.
    """
    s_list, i_list, r_list = (row.tolist() for row in traj)
    end = tail = len(s_list)
    if end:
        tail -= 1
        s, i, r = s_list[tail], i_list[tail], r_list[tail]
        while tail and s_list[tail - 1] == s and i_list[tail - 1] == i and r_list[tail - 1] == r:
            tail -= 1
    text = "".join(map(_ROW, itertools.repeat(run, tail), range(tail), s_list, i_list, r_list))
    if tail < end:
        prefix, suffix = f"{run},", f",{s},{i},{r}\n"
        text += prefix + (suffix + prefix).join(_t_strings(end)[tail:]) + suffix
    stream.write(text)


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
    init = set(_initial_indices(initial_set, n).tolist())
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
    return MeanCurves(expected, n_runs=0, population=n)
