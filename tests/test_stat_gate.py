"""The statistical gate's power: it passes one law against itself and fails small changes."""

import dataclasses

import numpy as np
import pytest

from contactnet import Partition, SbmModel, SirParams, fit_dcsbm, fit_sbm, sample_graph
from stat_gate import Z_LIMIT, gate_z, sampler_gate_z, sir_runs, z_scores

RUNS = 4000
# three communities of 67 with 40 times the edge rate inside as across, about 600 edges
N = 201
ASSIGN = np.arange(N) % 3
P_ACROSS = 623 / (40 * 3 * 2211 + 3 * 67 * 67)
BLOCK_PROBS = np.where(np.eye(3, dtype=bool), 40 * P_ACROSS, P_ACROSS)
PLANTED = SbmModel(N, tuple(map(str, range(N))), ASSIGN, 3, BLOCK_PROBS)
GRAPH = sample_graph(PLANTED, np.random.default_rng(2024))
PARTITION = Partition(ASSIGN, 3)
PARAMS = SirParams(infection_probability=0.04, recovery_probability=0.08, initial_infectious=3)


def test_zero_variance_points_pass_only_on_equal_means():
    assert z_scores([0.0, 3.0], [0.0, 1.0]).tolist() == [0.0, 3.0]
    assert z_scores([0.5], [0.0]).tolist() == [np.inf]
    same = np.ones((5, 2))
    assert gate_z(same, same) == 0.0
    assert gate_z(same, same + [0, 1]) == np.inf


def test_sir_gate_passes_one_kernel_and_fails_small_parameter_changes():
    actual = sir_runs(GRAPH, PARAMS, RUNS, (7, 0))
    assert actual.shape == (RUNS, 3, PARAMS.steps)

    def z_against(**changes):
        params = dataclasses.replace(PARAMS, **changes)
        return gate_z(actual, sir_runs(GRAPH, params, RUNS, (7, 1)))

    assert z_against() <= Z_LIMIT
    assert z_against(infection_probability=PARAMS.infection_probability * 1.05) > Z_LIMIT
    assert z_against(recovery_probability=PARAMS.recovery_probability * 1.10) > Z_LIMIT


@pytest.mark.parametrize("fit, rates", [(fit_sbm, "block_probs"), (fit_dcsbm, "block_rates")])
def test_sampler_gate_passes_the_sampler_and_fails_inflated_rates(fit, rates):
    model = fit(GRAPH, PARTITION)
    assert sampler_gate_z(model, PARTITION, 200, (3,)) <= Z_LIMIT
    inflated = dataclasses.replace(model, **{rates: getattr(model, rates) * 1.05})
    assert sampler_gate_z(model, PARTITION, 200, (3,),
                          sample=lambda _, rng: sample_graph(inflated, rng)) > Z_LIMIT
