"""A statistical gate for any change to a random stream.

A change that alters what a seed produces (a new sampler, a reordered draw)
cannot be judged by output digests. The gate judges it by law instead: it runs
both sides many times and fails when some mean differs by more than the noise
allows.

Each compared point gets z = |mean_a - mean_b| / sqrt(var_a / R_a + var_b / R_b).
The gate fails when the largest z exceeds Z_LIMIT, the two-sided Bonferroni
bound at alpha = 1e-3 over 90 points (3 compartments x 30 steps). A point
where both sides have zero variance scores 0 if the means are equal and
infinity if they differ.
"""

import numpy as np

from contactnet import block_counts, derived_rng, sample_graph, simulate_sir

Z_LIMIT = 4.4


def z_scores(diff, var) -> np.ndarray:
    """|diff| / sqrt(var) pointwise; a zero-variance point is 0 or infinity."""
    diff = np.abs(np.asarray(diff, dtype=float))
    var = np.asarray(var, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = diff / np.sqrt(var)
    return np.where(var > 0, z, np.where(diff > 0, np.inf, 0.0))


def gate_z(a, b) -> float:
    """Largest z between the means of two samples, runs along axis 0, over every other index."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    diff = a.mean(axis=0) - b.mean(axis=0)
    var = a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b)
    return float(z_scores(diff, var).max())


def sir_runs(g, params, runs: int, seed_path, simulate=simulate_sir) -> np.ndarray:
    """Per-run S, I and R counts at t >= 1, shape (runs, 3, steps); run r is seeded by (*seed_path, r).

    gate_z of two such arrays compares the mean S, I and R curves at every t >= 1.
    """
    return np.stack([np.asarray(simulate(g, params, derived_rng(*seed_path, r)))[:, 1:]
                     for r in range(runs)])


def sampler_gate_z(model, partition, networks: int, seed_path, sample=sample_graph) -> float:
    """Largest z of the per-block edge counts summed over `networks` sampled networks.

    Pairs are drawn independently, so the sum of the counts of a block has the
    exact mean networks * sum(p) and variance networks * sum(p (1 - p)) over
    the block's pairs; network s is sampled from (*seed_path, s).
    """
    k = partition.k
    rows, cols = np.triu_indices(model.n_nodes, 1)
    ca, cb = partition.assignments[rows], partition.assignments[cols]
    block = np.minimum(ca, cb) * k + np.maximum(ca, cb)
    p = model.pair_probabilities()
    mean = networks * np.bincount(block, weights=p, minlength=k * k)
    var = networks * np.bincount(block, weights=p * (1.0 - p), minlength=k * k)
    observed = sum(block_counts(sample(model, derived_rng(*seed_path, s)), partition)[0]
                   for s in range(networks))
    upper = np.triu(np.ones((k, k), dtype=bool)).ravel()
    return float(z_scores(observed.ravel() - mean, var)[upper].max())
