"""Chain-binomial SIR dynamics: stochastic runs and the exact small-system solver."""

import io

import numpy as np
import pytest

from contactnet import (
    Graph,
    SirParams,
    Trajectory,
    counts_to_curves,
    derived_rng,
    exact_sir_expected_curves,
    simulate_ensemble,
    simulate_sir,
    write_trajectory_rows,
)
from contactnet.sir import ORACLE_MAX_NODES, ORACLE_MAX_STEPS, TRAJECTORY_HEADER

P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
K2 = Graph(2, [(0, 1)])


def test_default_parameters():
    params = SirParams()
    assert params.infection_probability == 0.025
    assert params.recovery_probability == 0.025
    assert params.steps == 30
    assert params.initial_infectious == 1


def test_parameter_validation():
    with pytest.raises(ValueError):
        SirParams(infection_probability=1.5)
    with pytest.raises(ValueError):
        SirParams(recovery_probability=-0.1)
    with pytest.raises(ValueError):
        SirParams(steps=-1)
    with pytest.raises(ValueError):
        SirParams(initial_infectious=-1)
    assert len(simulate_sir(K2, SirParams(steps=0), np.random.default_rng(0))) == 1
    with pytest.raises(ValueError):
        simulate_sir(K2, SirParams(initial_infectious=5), np.random.default_rng(0))
    with pytest.raises(ValueError):
        simulate_ensemble(K2, SirParams(), 0, (0,))


def test_certain_infection_travels_as_a_wavefront():
    params = SirParams(1.0, 0.0, steps=3)
    t = simulate_sir(P4, params, np.random.default_rng(0), initial_nodes=[0])
    assert t.i_counts.tolist() == [1, 2, 3, 4]
    assert t.s_counts.tolist() == [3, 2, 1, 0]
    assert t.r_counts.tolist() == [0, 0, 0, 0]


def test_nodes_can_transmit_and_recover_in_one_step():
    # fresh infections never recover in the step that created them
    params = SirParams(1.0, 1.0, steps=2)
    t = simulate_sir(K2, params, np.random.default_rng(0), initial_nodes=[0])
    assert t.s_counts.tolist() == [1, 0, 0]
    assert t.i_counts.tolist() == [1, 1, 0]
    assert t.r_counts.tolist() == [0, 1, 2]


def test_recovery_without_spread():
    params = SirParams(0.0, 1.0, steps=4)
    t = simulate_sir(P4, params, np.random.default_rng(1), initial_nodes=[1, 3])
    assert t.s_counts.tolist() == [2, 2, 2, 2, 2]
    assert t.i_counts.tolist() == [2, 0, 0, 0, 0]
    assert t.r_counts.tolist() == [0, 2, 2, 2, 2]


def test_trajectory_length_and_population():
    t = simulate_sir(P4, SirParams(steps=7), np.random.default_rng(2))
    assert len(t) == 8
    assert t.population == 4


def test_conservation_and_monotonicity_hold_on_random_runs():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 25))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, [p for p in pairs if rng.random() < 0.3])
        params = SirParams(float(rng.random()), float(rng.random()),
                           steps=int(rng.integers(1, 15)),
                           initial_infectious=int(rng.integers(1, n + 1)))
        t = simulate_sir(g, params, rng)
        total = t.s_counts + t.i_counts + t.r_counts
        assert np.all(total == n)
        assert np.all(np.diff(t.s_counts) <= 0)
        assert np.all(np.diff(t.r_counts) >= 0)
        # absorption: after extinction every later state is identical
        gone = np.flatnonzero(t.i_counts == 0)
        if gone.size:
            first = gone[0]
            assert np.all(t.i_counts[first:] == 0)
            assert np.all(t.s_counts[first:] == t.s_counts[first])


def test_same_seed_gives_identical_runs():
    params = SirParams(0.4, 0.3, steps=10)
    a = simulate_sir(P4, params, np.random.default_rng(99))
    b = simulate_sir(P4, params, np.random.default_rng(99))
    assert np.array_equal(a.i_counts, b.i_counts)
    assert np.array_equal(a.s_counts, b.s_counts)


def test_ensemble_runs_reproduce_single_run_streams(tmp_path):
    params = SirParams(0.5, 0.2, steps=6)
    path = tmp_path / "runs.csv"
    totals = simulate_ensemble(P4, params, 5, (123,), path)
    expected = io.StringIO()
    expected.write(TRAJECTORY_HEADER)
    for r in range(5):
        write_trajectory_rows(expected, r, simulate_sir(P4, params, derived_rng(123, r)))
    assert path.read_text(encoding="utf-8") == expected.getvalue()
    assert np.array_equal(totals, simulate_ensemble(P4, params, 5, (123,)))


def test_trajectory_csv_layout():
    t = Trajectory(np.array([1, 0]), np.array([1, 1]), np.array([0, 1]))
    buf = io.StringIO()
    buf.write(TRAJECTORY_HEADER)
    write_trajectory_rows(buf, 0, t)
    write_trajectory_rows(buf, 1, t)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "run,t,S,I,R"
    assert lines[1] == "0,0,1,1,0"
    assert lines[3] == "1,0,1,1,0"


def test_trajectory_csv_text():
    assert TRAJECTORY_HEADER == "run,t,S,I,R\n"
    short = Trajectory(np.array([2]), np.array([1]), np.array([0]))
    long = Trajectory(np.array([2, 1, 1]), np.array([1, 1, 0]), np.array([0, 1, 2]))
    buf = io.StringIO()
    buf.write(TRAJECTORY_HEADER)
    write_trajectory_rows(buf, 0, short)
    write_trajectory_rows(buf, 1, long)
    assert buf.getvalue() == (
        "run,t,S,I,R\n0,0,2,1,0\n1,0,2,1,0\n1,1,1,1,1\n1,2,1,0,2\n"
    )


def _reference_sir_counts(g, params, rng, initial_nodes=None):
    """Reference step loop: two rng.random(n) calls per transition and the
    infection pressure recomputed at every step. simulate_sir must match it
    count for count and draw for draw."""
    n = g.n_nodes
    if initial_nodes is None:
        init = rng.choice(n, size=params.initial_infectious, replace=False)
    else:
        init = np.unique(np.asarray(list(initial_nodes), dtype=np.int64))
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
    survive = 1.0 - params.infection_probability
    gamma = params.recovery_probability
    for t in range(steps):
        if not i_counts[t]:
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
    return s_counts, i_counts, r_counts


def test_simulation_matches_reference_loop():
    rng = np.random.default_rng(808)
    graphs = [Graph(1), Graph(5), K2, P4]
    for _ in range(40):
        n = int(rng.integers(2, 40))
        density = float(rng.choice([0.05, 0.2, 0.6]))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graphs.append(Graph(n, [p for p in pairs if rng.random() < density]))
    for g in graphs:
        n = g.n_nodes
        for _ in range(8):
            beta, gamma = (float(rng.choice([0.0, 1.0, rng.random()])) for _ in range(2))
            steps = int(rng.choice([0, rng.integers(1, 12), 40]))
            params = SirParams(beta, gamma, steps=steps,
                               initial_infectious=int(rng.choice([0, 1, n, rng.integers(0, n + 1)])))
            pinned = None
            if rng.random() < 0.25:
                pinned = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist()
            seed = int(rng.integers(2**32))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            t = simulate_sir(g, params, ours, initial_nodes=pinned)
            s, i, r = _reference_sir_counts(g, params, theirs, initial_nodes=pinned)
            assert np.array_equal(t.s_counts, s)
            assert np.array_equal(t.i_counts, i)
            assert np.array_equal(t.r_counts, r)
            # same draws consumed, none after absorption
            assert ours.bit_generator.state == theirs.bit_generator.state


def test_exact_solver_isolated_node_decays_geometrically():
    g = Graph(1)
    curves = exact_sir_expected_curves(g, SirParams(0.9, 0.5, steps=2), [0])
    assert curves.i_frac.tolist() == pytest.approx([1.0, 0.5, 0.25])
    assert curves.r_frac.tolist() == pytest.approx([0.0, 0.5, 0.75])
    assert curves.s_frac.tolist() == [0.0, 0.0, 0.0]


def test_exact_solver_triangle_one_step():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    curves = exact_sir_expected_curves(g, SirParams(0.5, 0.5, steps=1), [0])
    assert curves.s_frac[1] == pytest.approx(1 / 3)
    assert curves.i_frac[1] == pytest.approx(1 / 2)
    assert curves.r_frac[1] == pytest.approx(1 / 6)


def test_exact_solver_is_constant_without_dynamics():
    g = Graph(4, [(0, 1), (2, 3)])
    curves = exact_sir_expected_curves(g, SirParams(0.0, 0.0, steps=3), [0])
    assert np.allclose(curves.i_frac, 0.25)
    assert np.allclose(curves.s_frac, 0.75)


def test_exact_solver_refuses_large_systems():
    assert ORACLE_MAX_NODES == 8
    assert ORACLE_MAX_STEPS == 6
    with pytest.raises(ValueError):
        exact_sir_expected_curves(Graph(9), SirParams(steps=2), [0])
    with pytest.raises(ValueError):
        exact_sir_expected_curves(Graph(2, [(0, 1)]), SirParams(steps=7), [0])


def test_simulation_means_approach_exact_solution():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    params = SirParams(0.5, 0.5, steps=2)
    exact = exact_sir_expected_curves(g, params, [0])
    runs = [simulate_sir(g, params, derived_rng(7, r), initial_nodes=[0])
            for r in range(20000)]
    totals = np.sum([[t.s_counts, t.i_counts, t.r_counts] for t in runs], axis=0)
    mean = counts_to_curves(totals, len(runs), g.n_nodes)
    assert np.allclose(mean.s_frac, exact.s_frac, atol=0.02)
    assert np.allclose(mean.i_frac, exact.i_frac, atol=0.02)
    assert np.allclose(mean.r_frac, exact.r_frac, atol=0.02)
