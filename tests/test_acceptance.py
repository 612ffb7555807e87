"""Release acceptance: nine end-to-end checks with pinned tolerances and budgets.

Every check prints one `criterion N (slug): PASS/FAIL in Xs` line (visible with
pytest -s or in failure output) and must finish inside its time budget.
"""

import contextlib
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from contactnet import (
    DatasetSpec,
    DcsbmModel,
    EnsembleConfig,
    ExperimentConfig,
    Graph,
    MeanCurves,
    Partition,
    SirParams,
    SpectralConfig,
    area_between,
    block_counts,
    counts_to_curves,
    dataset_stats,
    derived_rng,
    exact_sir_expected_curves,
    fit_degree,
    fit_er,
    fit_sbm,
    fit_dcsbm,
    log_likelihood_per_pair,
    run_experiment,
    sample_graph,
    simulate_sir,
    spectral_cluster,
    write_edge_list,
)
from contactnet.models import DEGREE_SUM_TOL
from dense import dense_adjacency, probability_matrix

REFERENCE_ENV_VAR = "CONTACTNET_REFERENCE_EDGELIST"


@contextlib.contextmanager
def criterion(num, slug, budget_seconds):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        within = elapsed <= budget_seconds
        status = "PASS" if ok and within else "FAIL"
        print(f"criterion {num} ({slug}): {status} in {elapsed:.1f}s "
              f"(budget {budget_seconds:.0f}s)", flush=True)
    assert within, f"criterion {num} exceeded its {budget_seconds:.0f}s budget"


def random_graph(rng, n, p):
    rows, cols = np.triu_indices(n, 1)
    mask = rng.random(rows.size) < p
    return Graph(n, np.column_stack((rows[mask], cols[mask])).tolist())


def random_partition(rng, g, k, need_degree=False):
    """Random assignment where every community is nonempty (and, on request,
    holds a positive-degree anchor so degree shares are defined)."""
    assign = rng.integers(0, k, size=g.n_nodes)
    pool = np.flatnonzero(g.degrees > 0) if need_degree else np.arange(g.n_nodes)
    anchors = rng.choice(pool, size=k, replace=False)
    assign[anchors] = np.arange(k)
    return assign


def block_expected_edges(model, assign, k):
    """Expected edge count between (and within) communities under the model."""
    onehot = np.zeros((len(assign), k))
    onehot[np.arange(len(assign)), assign] = 1.0
    full = onehot.T @ probability_matrix(model) @ onehot
    return np.where(np.eye(k, dtype=bool), full / 2.0, full)


def test_criterion_1_fit_exactness():
    with criterion(1, "fit-exactness", 30.0):
        rng = np.random.default_rng(101)
        uncapped_dcsbm = 0
        for _ in range(200):
            n = int(rng.integers(5, 101))
            g = random_graph(rng, n, float(rng.uniform(0.05, 0.5)))
            while g.n_edges == 0:
                g = random_graph(rng, n, float(rng.uniform(0.05, 0.5)))
            m = g.n_edges
            pairs = math.comb(n, 2)

            er = fit_er(g)
            assert abs(er.p * pairs - m) <= 1e-12 * max(1.0, m)

            deg = fit_degree(g)
            total = probability_matrix(deg).sum() / 2.0
            assert abs(total - m) <= DEGREE_SUM_TOL

            positive = int(np.count_nonzero(g.degrees))
            k = int(rng.integers(1, min(6, positive) + 1))
            assign = random_partition(rng, g, k, need_degree=True)
            part = Partition(assign, k)
            observed = block_counts(g, part)[0]

            sbm = fit_sbm(g, part)
            assert np.allclose(block_expected_edges(sbm, assign, k), observed,
                               rtol=1e-9, atol=1e-9)

            dc = fit_dcsbm(g, part)
            if not dc.capped:
                uncapped_dcsbm += 1
                assert np.allclose(block_expected_edges(dc, assign, k), observed,
                                   rtol=1e-9, atol=1e-9)
        # capping must stay the exception, or the exactness claim is untested
        assert uncapped_dcsbm >= 150


def test_criterion_2_likelihood_nesting():
    with criterion(2, "likelihood-nesting", 10.0):
        rng = np.random.default_rng(202)
        for _ in range(100):
            n = int(rng.integers(5, 61))
            g = random_graph(rng, n, float(rng.uniform(0.05, 0.6)))
            k = int(rng.integers(1, min(5, n) + 1))
            part = Partition(random_partition(rng, g, k), k)
            ll_er = log_likelihood_per_pair(fit_er(g), g)
            ll_sbm = log_likelihood_per_pair(fit_sbm(g, part), g)
            assert ll_sbm >= ll_er - 1e-12


def test_criterion_3_oracle_agreement():
    with criterion(3, "oracle-agreement", 60.0):
        params = SirParams(0.5, 0.5, steps=2)
        k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        for g in (k3, p4):
            exact = exact_sir_expected_curves(g, params, [0])
            runs = [simulate_sir(g, params, derived_rng(33, r), initial_nodes=[0])
                    for r in range(100_000)]
            sampled = counts_to_curves(np.sum(runs, axis=0), len(runs), g.n_nodes)
            assert np.max(np.abs(sampled.fractions - exact.fractions)) <= 0.01


def test_criterion_4_sir_invariants():
    with criterion(4, "sir-invariants", 30.0):
        rng = np.random.default_rng(404)
        for trial in range(1000):
            n = int(rng.integers(2, 26))
            g = random_graph(rng, n, float(rng.uniform(0.05, 0.6)))
            deterministic = trial % 3 == 0
            if deterministic:
                params = SirParams(1.0, 0.0, steps=n)
                seed = int(rng.integers(0, n))
                t = simulate_sir(g, params, rng, initial_nodes=[seed])
                dist = shortest_path(dense_adjacency(g), method="D",
                                     unweighted=True, indices=seed)
                for step in range(n + 1):
                    assert t.i_counts[step] == np.count_nonzero(dist <= step)
                assert t.s_counts[-1] == np.count_nonzero(np.isinf(dist))
            else:
                params = SirParams(float(rng.random()), float(rng.random()),
                                   steps=int(rng.integers(0, 16)),
                                   initial_infectious=int(rng.integers(1, n + 1)))
                t = simulate_sir(g, params, rng)
            assert np.all(t.s_counts + t.i_counts + t.r_counts == n)
            assert np.all(np.diff(t.s_counts) <= 0)
            assert np.all(np.diff(t.r_counts) >= 0)
            gone = np.flatnonzero(t.i_counts == 0)
            if gone.size:
                first = gone[0]
                assert np.all(t.i_counts[first:] == 0)
                assert np.all(t.s_counts[first:] == t.s_counts[first])
                assert np.all(t.r_counts[first:] == t.r_counts[first])


def test_criterion_5_planted_recovery():
    with criterion(5, "planted-recovery", 60.0):
        n, half = 60, 30
        rows, cols = np.triu_indices(n, 1)
        same = (rows < half) == (cols < half)
        probs = np.where(same, 0.5, 0.05)
        successes = 0
        for s in range(100):
            rng = derived_rng(505, s)
            mask = rng.random(rows.size) < probs
            g = Graph(n, np.column_stack((rows[mask], cols[mask])).tolist())
            part = spectral_cluster(g)
            if part.k == 2 and part.assignments.tolist() == [0] * half + [1] * half:
                successes += 1
        assert successes >= 95, f"exact recovery in only {successes}/100 seeds"


def ranking_ground_truth():
    """Three dense communities with mild degree decay and sparse cross-links."""
    sizes = (70, 66, 64)
    shares = []
    for size in sizes:
        weights = np.arange(1, size + 1) ** -0.3
        shares.append(weights / weights.sum())
    rates = np.full((3, 3), 4.0)
    np.fill_diagonal(rates, (560.0, 540.0, 520.0))
    n = sum(sizes)
    return DcsbmModel(n, tuple(f"v{i}" for i in range(n)),
                      np.repeat(np.arange(3), sizes), 3,
                      np.concatenate(shares), rates, "plugin")


def test_criterion_6_model_ranking(tmp_path):
    with criterion(6, "model-ranking", 300.0):
        truth = ranking_ground_truth()
        assert not truth.capped
        g = sample_graph(truth, derived_rng(606, 0))
        dataset = tmp_path / "ground_truth.edges"
        with open(dataset, "w") as fh:
            write_edge_list(g, fh)
        # the community count must be recoverable before the ranking can be
        assert spectral_cluster(g, SpectralConfig()).k == 3

        dcsbm_wins = 0
        degree_beats_sbm = 0
        for seed in range(20):
            config = ExperimentConfig(
                dataset=DatasetSpec(str(dataset)),
                ensemble=EnsembleConfig(actual_runs=500, sampled_networks=20,
                                        runs_per_network=25),
                master_seed=seed,
                output_dir=str(tmp_path / "out"),
            )
            areas = {row.model_name: row.area for row in run_experiment(config).rows}
            dcsbm_wins += areas["dcsbm"] < areas["er"]
            degree_beats_sbm += areas["degree"] < areas["sbm"]
        # recorded for reference; the direction is dataset-dependent
        print(f"  degree<sbm in {degree_beats_sbm}/20 seeds", flush=True)
        assert dcsbm_wins >= 18, f"dcsbm beat er in only {dcsbm_wins}/20 seeds"


def test_criterion_7_area_pseudometric():
    with criterion(7, "area-pseudometric", 5.0):
        rng = np.random.default_rng(707)
        for _ in range(1000):
            length = int(rng.integers(2, 13))
            a, b, c = (
                MeanCurves(f.T, 1, 10)
                for f in (rng.dirichlet(np.ones(3), size=length) for _ in range(3))
            )
            quadrature = "trapezoid" if rng.random() < 0.5 else "rectangle"
            ab = area_between(a, b, quadrature)
            bc = area_between(b, c, quadrature)
            ac = area_between(a, c, quadrature)
            assert ab >= 0.0
            assert ab == area_between(b, a, quadrature)
            assert area_between(a, a, quadrature) == 0.0
            assert ac <= ab + bc + 1e-12
            assert ab <= 2.0 * (length - 1) + 1e-12


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "determinism", 120.0):
        rng = np.random.default_rng(808)
        g = random_graph(rng, 60, 0.12)
        dataset = tmp_path / "det.edges"
        with open(dataset, "w") as fh:
            write_edge_list(g, fh)
        config = ExperimentConfig(
            dataset=DatasetSpec(str(dataset)),
            ensemble=EnsembleConfig(actual_runs=200, sampled_networks=10,
                                    runs_per_network=10),
            sir=SirParams(0.05, 0.05, steps=20),
            master_seed=11,
            output_dir=str(tmp_path / "out"),
            save_trajectories=True,
        )
        snapshots = []
        for _ in range(2):
            run_experiment(config)
            snapshot = {}
            for root, _, files in os.walk(tmp_path / "out"):
                for name in files:
                    path = os.path.join(root, name)
                    snapshot[os.path.relpath(path, tmp_path / "out")] = \
                        Path(path).read_bytes()
            snapshots.append(snapshot)
        assert sorted(snapshots[0]) == sorted(snapshots[1])
        for name in snapshots[0]:
            assert snapshots[0][name] == snapshots[1][name], f"{name} differs"


def test_criterion_9_reference_dataset():
    path = os.environ.get(REFERENCE_ENV_VAR, "")
    if not path:
        pytest.skip(f"set {REFERENCE_ENV_VAR} to the static one-day projection "
                    f"of the public museum-exhibit proximity dataset to enable")
    with criterion(9, "reference-dataset", 30.0):
        stats = dataset_stats(path)
        assert stats["n_nodes"] == 201
        assert abs(stats["density"] - 0.0328) <= 0.0005
        assert abs(stats["average_degree"] - 6.56) <= 0.05
