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
    write_trajectories_csv,
)
from contactnet.sir import ORACLE_MAX_NODES, ORACLE_MAX_STEPS

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


def test_ensemble_runs_reproduce_single_run_streams():
    params = SirParams(0.5, 0.2, steps=6)
    totals, runs = simulate_ensemble(P4, params, 5, (123,), keep=True)
    assert len(runs) == 5
    for r, t in enumerate(runs):
        solo = simulate_sir(P4, params, derived_rng(123, r))
        assert np.array_equal(t.s_counts, solo.s_counts)
        assert np.array_equal(t.i_counts, solo.i_counts)
        assert np.array_equal(t.r_counts, solo.r_counts)
    summed = np.sum([[t.s_counts, t.i_counts, t.r_counts] for t in runs], axis=0)
    assert np.array_equal(totals, summed)
    unkept, none = simulate_ensemble(P4, params, 5, (123,))
    assert none is None
    assert np.array_equal(unkept, totals)


def test_trajectory_csv_layout():
    t = Trajectory(np.array([1, 0]), np.array([1, 1]), np.array([0, 1]))
    buf = io.StringIO()
    write_trajectories_csv([t, t], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "run,t,S,I,R"
    assert lines[1] == "0,0,1,1,0"
    assert lines[3] == "1,0,1,1,0"


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
