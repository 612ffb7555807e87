"""One declared type rule for every config and model field: whatever the Python
API builds, its JSON form reads back equal; whatever it refuses, it refuses
with one ValueError line that names a field."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactnet import (
    DatasetSpec,
    DcsbmModel,
    DegreeModel,
    EnsembleConfig,
    ErModel,
    ExperimentConfig,
    MetricsConfig,
    ModelSpec,
    SbmModel,
    SirParams,
    SpectralConfig,
    config_from_dict,
    config_to_dict,
)
from contactnet.community import EIGENVALUE_ORDERS
from contactnet.graph import CLUSTERING_MODES
from contactnet.harness import AREA_AVERAGING, DATASET_FORMATS, MODEL_VARIANTS
from contactnet.metrics import QUADRATURES
from contactnet.models import DCSBM_MODES, DEGREE_MODES, model_from_dict, model_to_dict

# what a caller may pass by mistake, or by another spelling of a valid value
NEAR_MISSES = st.sampled_from([
    Path("x.edges"), np.float32(0.5), np.float64(0.25), np.int64(2), np.bool_(True), True,
    False, "1", "er", "", None, [], [1], ["a"], (), (1, 2), 1.5, -1, 0, 1, float("nan"),
    10 ** 400,  # an integer no float can hold
])

_PROBABILITY = st.floats(0, 1) | st.integers(0, 1) | st.floats(0, 1).map(np.float64)
_COUNT = st.integers(1, 6) | st.integers(1, 6).map(np.int64)
_SEED = st.integers(0, 2 ** 70)

# the valid values of each config field; a nested config is drawn by `_build`
CONFIG_FIELDS = {
    DatasetSpec: {"path": st.text(max_size=6), "format": st.sampled_from(DATASET_FORMATS)},
    SpectralConfig: {
        "regularization": st.none() | st.floats(0, 10) | st.integers(0, 10),
        "k_max": st.none() | _COUNT,
        "k_fixed": st.none() | _COUNT,
        "kmeans_restarts": _COUNT,
        "kmeans_max_iters": _COUNT,
        "seed": _SEED,
        "eigenvalue_order": st.sampled_from(EIGENVALUE_ORDERS),
    },
    ModelSpec: {
        "variant": st.sampled_from(MODEL_VARIANTS),
        "name": st.text(max_size=4),
        "degree_mode": st.sampled_from(DEGREE_MODES),
        "dcsbm_mode": st.sampled_from(DCSBM_MODES),
    },
    SirParams: {
        "infection_probability": _PROBABILITY,
        "recovery_probability": _PROBABILITY,
        "steps": st.integers(0, 50),
        "initial_infectious": st.integers(0, 5),
    },
    EnsembleConfig: {name: _COUNT
                     for name in ("actual_runs", "sampled_networks", "runs_per_network")},
    MetricsConfig: {
        "quadrature": st.sampled_from(QUADRATURES),
        "clustering_mode": st.sampled_from(CLUSTERING_MODES),
        "area_averaging": st.sampled_from(AREA_AVERAGING),
    },
    ExperimentConfig: {
        "master_seed": _SEED,
        "output_dir": st.text(max_size=6),
        "save_trajectories": st.booleans(),
    },
}
NESTED = {"dataset": DatasetSpec, "spectral": SpectralConfig, "sir": SirParams,
          "ensemble": EnsembleConfig, "metrics": MetricsConfig}

# the words by which a refusal may name a field: its name, or for the node
# count, the model list and the community count the thing they count
FIELD_WORDS = {f.name for cls in [*CONFIG_FIELDS, DcsbmModel, DegreeModel, ErModel, SbmModel]
               for f in dataclasses.fields(cls)} | {"model", "node", "community"}


def _valid(data, cls, name):
    if name == "models":  # one to three specs, as a list or a tuple
        container = data.draw(st.sampled_from([list, tuple]))
        return container(_build(data, ModelSpec) for _ in range(data.draw(st.integers(1, 3))))
    if name in NESTED:
        return _build(data, NESTED[name])
    return data.draw(CONFIG_FIELDS[cls][name])


def _build(data, cls):
    """A `cls` from field values drawn from its valid values and NEAR_MISSES;
    a field left out takes its default, and a nested config is built likewise."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        required = f.default is f.default_factory is dataclasses.MISSING
        # one field in 16 or so takes a near miss, so that most builds hold one at most
        kind = data.draw(st.sampled_from(["valid"] * 9 + ["default"] * (0 if required else 6)
                                         + ["near miss"]))
        if kind == "valid":
            kwargs[f.name] = _valid(data, cls, f.name)
        elif kind == "near miss":
            kwargs[f.name] = data.draw(NEAR_MISSES)
    return cls(**kwargs)


def _refused_by_name(build):
    """build(), or None when it raises a one-line ValueError naming a field."""
    try:
        return build()
    except ValueError as exc:
        message = str(exc)
        assert "\n" not in message
        words = re.findall(r"[a-z_]+", message)
        assert ({w.removesuffix("s") for w in words} | set(words)) & FIELD_WORDS, message
        return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_config_built_in_python_reads_back_equal_from_its_json_form(data):
    config = _refused_by_name(lambda: _build(data, ExperimentConfig))
    if config is not None:
        assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config


def _model_fields(data, n):
    """Valid fields of each model variant on n nodes, one community."""
    share = [1.0 / n] * n
    ints = data.draw(st.sampled_from([list, np.array]))
    return {
        ErModel: {"p": _PROBABILITY},
        DegreeModel: {"scale": st.floats(0.01, 1) | st.integers(1, 2),
                      "degrees": st.just(ints([1] * n)), "mode": st.sampled_from(DEGREE_MODES)},
        SbmModel: {"assignments": st.just(ints([0] * n)), "k": st.just(1) | st.just(np.int64(1)),
                   "block_probs": st.just([[0.5]])},
        DcsbmModel: {"assignments": st.just(ints([0] * n)), "k": st.just(1),
                     "degree_share": st.just(share), "block_rates": st.just([[1.0]]),
                     "mode": st.sampled_from(DCSBM_MODES)},
    }


@settings(max_examples=300, deadline=None)
@given(data=st.data(), cls=st.sampled_from([ErModel, DegreeModel, SbmModel, DcsbmModel]),
       n=st.integers(1, 4))
def test_a_model_built_in_python_reads_back_equal_from_its_json_form(data, cls, n):
    labels = [str(i) for i in range(n)]
    valid = {"n_nodes": st.sampled_from([n, np.int64(n)]),
             "labels": st.sampled_from([tuple(labels), labels]),
             **_model_fields(data, n)[cls]}
    args = [data.draw(NEAR_MISSES if data.draw(st.integers(0, 5)) == 0 else valid[f.name])
            for f in dataclasses.fields(cls)]
    model = _refused_by_name(lambda: cls(*args))
    if model is not None:
        back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert type(back) is cls
        for f in dataclasses.fields(cls):
            assert np.array_equal(getattr(back, f.name), getattr(model, f.name)), f.name


@pytest.mark.parametrize("build, message", [
    (lambda: DatasetSpec(Path("x.edges")), "path must be a string, got PosixPath('x.edges')"),
    (lambda: ExperimentConfig(DatasetSpec("x"), output_dir=Path("out")),
     "output_dir must be a string, got PosixPath('out')"),
    (lambda: SirParams(infection_probability=np.float32(0.5)),
     f"infection_probability must be a number, got {np.float32(0.5)!r}"),
    (lambda: SirParams(infection_probability=True),
     "infection_probability must be a number, got True"),
    (lambda: ExperimentConfig(DatasetSpec("x"), save_trajectories="false"),
     "save_trajectories must be a boolean, got 'false'"),
    (lambda: ErModel(2, (1, 2), 0.5), "labels[0] must be a string, got 1"),
    (lambda: ModelSpec("er", spectral=None), "spectral must be a SpectralConfig, got None"),
    (lambda: SpectralConfig(regularization=10 ** 400),
     f"regularization must be a number, got {10 ** 400}"),
    (lambda: ErModel(2, ("a", "b"), -10 ** 400), f"p must be a number, got {-10 ** 400}"),
    (lambda: MetricsConfig(quadrature="simpson"),
     "quadrature must be one of trapezoid, rectangle, got 'simpson'"),
], ids=["path", "output-dir", "float32-probability", "boolean-probability",
        "string-boolean", "integer-labels", "missing-spectral", "huge-regularization",
        "huge-probability", "unknown-quadrature"])
def test_the_python_api_refuses_what_the_json_form_cannot_hold(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert (type(info.value), str(info.value)) == (ValueError, message)


def test_a_list_is_taken_for_a_tuple_field():
    config = ExperimentConfig(DatasetSpec("x"), models=[ModelSpec("er"), ModelSpec("sbm")])
    assert config.models == (ModelSpec("er"), ModelSpec("sbm"))
    assert ErModel(2, ["a", "b"], 0.5).labels == ("a", "b")
