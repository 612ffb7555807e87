"""Every random stream comes from the seed tree: the layers that draw take a
numpy Generator, and a seed path is read by the package's integer rule."""

import numpy as np
import pytest

from contactnet import ErModel, Graph, SirParams, derived_rng, sample_graph, simulate_sir
from contactnet.community import kmeans
from contactnet.harness import simulate_ensemble

TRIANGLE = Graph(3, [(0, 1), (1, 2), (0, 2)])
POINTS = np.arange(10, dtype=float).reshape(5, 2)

DRAWS = {
    "simulate-sir": lambda rng: simulate_sir(TRIANGLE, SirParams(steps=2), rng),
    "sample-graph": lambda rng: sample_graph(ErModel(3, ("a", "b", "c"), 0.5), rng),
    "kmeans": lambda rng: kmeans(POINTS, 2, rng=rng),
}


@pytest.mark.parametrize("draw", DRAWS)
def test_draws_take_a_generator_not_an_integer_seed(draw):
    DRAWS[draw](derived_rng(0))
    with pytest.raises(AttributeError):
        DRAWS[draw](0)


@pytest.mark.parametrize("draw", ["simulate-sir", "sample-graph"])
def test_draws_refuse_none_rather_than_os_entropy(draw):
    with pytest.raises(AttributeError):
        DRAWS[draw](None)


@pytest.mark.parametrize("seed, message", [
    (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
    (-1, "seed must be nonnegative"),
], ids=["float", "bool", "negative"])
def test_ensemble_seed_paths_follow_the_integer_rule(tmp_path, seed, message):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError) as info:
        simulate_ensemble(TRIANGLE, SirParams(steps=2), 2, (seed,), str(path))
    assert (type(info.value), str(info.value)) == (ValueError, message)
    assert not path.exists()
