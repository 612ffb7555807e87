"""One integer rule at every entry point that takes a node count, node index,
community label, community count or integer config field."""

import numpy as np
import pytest

from contactnet import (
    DatasetSpec,
    DcsbmModel,
    DegreeModel,
    EnsembleConfig,
    ErModel,
    ExperimentConfig,
    Graph,
    MeanCurves,
    Partition,
    SbmModel,
    SirParams,
    SpectralConfig,
    counts_to_curves,
    simulate_sir,
)
from contactnet.sir import exact_sir_expected_curves

ONE = object()  # where an entry point's template takes the integer under test

_HALVES = [[0.5, 0.5], [0.5, 0.5]]
_IDENTITY = [[1.0, 0.0], [0.0, 1.0]]
_ALL_SUSCEPTIBLE = np.array([[1.0], [0.0], [0.0]])

# entry points that take one integer; each builds a valid object from 1
SCALARS = {
    "graph-n-nodes": lambda v: Graph(v),
    "model-n-nodes": lambda v: ErModel(v, ("a",), 0.5),
    "sbm-k": lambda v: SbmModel(2, ("a", "b"), [0, 0], v, [[0.5]]),
    "dcsbm-k": lambda v: DcsbmModel(2, ("a", "b"), [0, 0], v, [0.5, 0.5], [[1.0]], "exact"),
    "partition-k": lambda v: Partition([0, 0], v),
    "graph-neighbors": lambda v: Graph(2, [(0, 1)]).neighbors(v),
    "sir-steps": lambda v: SirParams(steps=v),
    "sir-initial-infectious": lambda v: SirParams(initial_infectious=v),
    **{f"spectral-{name}": lambda v, name=name: SpectralConfig(**{name: v})
       for name in ("k_max", "k_fixed", "kmeans_restarts", "kmeans_max_iters", "seed")},
    **{f"ensemble-{name}": lambda v, name=name: EnsembleConfig(**{name: v})
       for name in ("actual_runs", "sampled_networks", "runs_per_network")},
    "master-seed": lambda v: ExperimentConfig(DatasetSpec("graph.edges"), master_seed=v),
    "curves-n-runs": lambda v: MeanCurves(_ALL_SUSCEPTIBLE, v, 1),
    "curves-population": lambda v: MeanCurves(_ALL_SUSCEPTIBLE, 1, v),
    "counts-to-curves-runs": lambda v: counts_to_curves(_ALL_SUSCEPTIBLE, v, 1),
}

# entry points that take integer arrays: a builder and the array it is given,
# with ONE for the entry under test; each builds a valid object with ONE = 1
ARRAYS = {
    "graph-edges": (lambda a: Graph(3, a), [[ONE, 2]]),
    "degree-degrees": (lambda a: DegreeModel(2, ("a", "b"), 0.5, a, "exact_sum"), [ONE, 1]),
    "sbm-assignments": (lambda a: SbmModel(2, ("a", "b"), a, 2, _HALVES), [0, ONE]),
    "dcsbm-assignments": (lambda a: DcsbmModel(2, ("a", "b"), a, 2, [1.0, 1.0], _IDENTITY,
                                               "exact"), [0, ONE]),
    "partition-labels": (lambda a: Partition(a, 2), [0, ONE]),
    "initial-nodes": (lambda a: simulate_sir(Graph(3), SirParams(steps=1), np.random.default_rng(0),
                                             initial_nodes=a), [ONE]),
    "oracle-initial-set": (lambda a: exact_sir_expected_curves(Graph(3), SirParams(steps=1), a),
                           [ONE]),
}

NOT_INTEGERS = {"float": 1.9, "bool": True, "numpy-bool": np.bool_(True), "digit-string": "1",
                "none": None}


def _fill(template, value):
    if template is ONE:
        return value
    if isinstance(template, list):
        return [_fill(item, value) for item in template]
    return template


def _refused(call):
    # by the integer rule itself, in one line, not by some later check it upsets
    with pytest.raises(ValueError, match="integer") as info:
        call()
    assert "\n" not in str(info.value)


# None stands for a size-dependent default here
OPTIONAL = {"spectral-k_max", "spectral-k_fixed"}


@pytest.mark.parametrize("entry, bad", [
    pytest.param(entry, bad, id=f"{entry}-{kind}")
    for entry in SCALARS
    for kind, bad in [*NOT_INTEGERS.items(), ("float-array", np.array([1.0]))]
    if not (bad is None and entry in OPTIONAL)
])
def test_scalar_entry_points_refuse_what_is_not_an_integer(entry, bad):
    _refused(lambda: SCALARS[entry](bad))


@pytest.mark.parametrize("entry", SCALARS)
def test_scalar_entry_points_take_python_and_numpy_integers(entry):
    for good in (1, np.int64(1), np.uint8(1)) + ((None,) if entry in OPTIONAL else ()):
        SCALARS[entry](good)


@pytest.mark.parametrize("bad", NOT_INTEGERS.values(), ids=NOT_INTEGERS)
@pytest.mark.parametrize("entry", ARRAYS)
def test_array_entry_points_refuse_an_element_that_is_not_an_integer(entry, bad):
    build, template = ARRAYS[entry]
    _refused(lambda: build(_fill(template, bad)))


@pytest.mark.parametrize("dtype", [float, np.float32, bool])
@pytest.mark.parametrize("entry", ARRAYS)
def test_array_entry_points_refuse_float_and_boolean_arrays(entry, dtype):
    build, template = ARRAYS[entry]
    _refused(lambda: build(np.array(_fill(template, 1), dtype=dtype)))


@pytest.mark.parametrize("entry", ARRAYS)
def test_array_entry_points_take_integer_lists_and_arrays(entry):
    build, template = ARRAYS[entry]
    for good in (_fill(template, 1), _fill(template, np.int64(1))):
        build(good)
    for dtype in (np.int64, np.int32, np.uint8):
        build(np.array(_fill(template, 1), dtype=dtype))
