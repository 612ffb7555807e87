"""Experiment orchestration, config handling, artifacts, and the CLI."""

import contextlib
import copy
import dataclasses
import functools
import importlib.util
import io
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contactnet import (
    ConfigError,
    DataError,
    DatasetSpec,
    EnsembleConfig,
    ExperimentConfig,
    FitError,
    Graph,
    MetricsConfig,
    ModelSpec,
    NumericError,
    ParseError,
    SirParams,
    SpectralConfig,
    cli,
    config_from_dict,
    config_to_dict,
    dataset_stats,
    fit_model,
    load_config,
    load_model,
    read_curves_csv,
    run_experiment,
    write_edge_list,
)
import contactnet.harness as harness
from contactnet.models import model_to_dict

TWO_CLIQUES = Graph(
    12,
    [(i, j) for i in range(6) for j in range(i + 1, 6)]
    + [(6 + i, 6 + j) for i in range(6) for j in range(i + 1, 6)]
    + [(0, 6)],
)


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "two_cliques.edges"
    with open(path, "w") as fh:
        write_edge_list(TWO_CLIQUES, fh)
    return str(path)


def small_config(dataset, out, **overrides):
    base = dict(
        dataset=DatasetSpec(dataset),
        ensemble=EnsembleConfig(actual_runs=24, sampled_networks=3, runs_per_network=4),
        sir=SirParams(0.3, 0.2, steps=6),
        output_dir=out,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_defaults_match_protocol():
    ens = EnsembleConfig()
    assert (ens.actual_runs, ens.sampled_networks, ens.runs_per_network) == (5000, 100, 50)
    cfg = ExperimentConfig(dataset=DatasetSpec("x.edges"))
    assert cfg.master_seed == 0
    assert cfg.dataset.format == "edge_list"
    assert cfg.metrics.quadrature == "trapezoid"
    assert cfg.metrics.clustering_mode == "average_local"
    assert cfg.metrics.area_averaging == "pooled"
    assert cfg.save_trajectories is False
    assert tuple(spec.variant for spec in cfg.models) == ("er", "degree", "sbm", "dcsbm")
    assert cfg.sir == SirParams(0.025, 0.025, 30, 1)


def test_model_spec_validation():
    assert ModelSpec("er").name == "er"
    assert ModelSpec("sbm", name="blocks").name == "blocks"
    for bad_name in ("actual", ".", "..", "a/b", "a\\b"):
        with pytest.raises(ValueError):
            ModelSpec("er", name=bad_name)
    with pytest.raises(ValueError):
        ModelSpec("configuration")
    with pytest.raises(ValueError):
        ModelSpec("degree", degree_mode="greedy")
    with pytest.raises(ValueError):
        ModelSpec("dcsbm", dcsbm_mode="fast")
    with pytest.raises(ValueError):
        ExperimentConfig(DatasetSpec("x"), models=(ModelSpec("er"), ModelSpec("er")))
    with pytest.raises(ValueError):
        ExperimentConfig(DatasetSpec("x"), models=())
    with pytest.raises(ValueError):
        ExperimentConfig(DatasetSpec("x"), metrics=MetricsConfig(quadrature="simpson"))
    with pytest.raises(ValueError):
        EnsembleConfig(actual_runs=0)


def test_config_json_round_trip():
    cfg = ExperimentConfig(
        dataset=DatasetSpec("data.edges"),
        models=(ModelSpec("er"), ModelSpec("dcsbm", name="blocks",
                                           spectral=SpectralConfig(k_fixed=3))),
        sir=SirParams(0.1, 0.05, steps=12, initial_infectious=2),
        ensemble=EnsembleConfig(100, 10, 5),
        master_seed=7,
        metrics=MetricsConfig(quadrature="rectangle", area_averaging="per_network"),
        save_trajectories=True,
    )
    again = config_from_dict(config_to_dict(cfg))
    # the echo pins display names, so canonical forms must agree exactly
    assert config_to_dict(again) == config_to_dict(cfg)
    assert again.models[0].name == "er"
    assert again.models[1].spectral.k_fixed == 3
    assert again.metrics.quadrature == "rectangle"
    assert again.sir == cfg.sir and again.ensemble == cfg.ensemble


def test_config_rejects_unknown_keys():
    good = {"dataset": {"path": "x.edges"}}
    assert config_from_dict(good).dataset.path == "x.edges"
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": {"path": "x"}, "typo": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": {"path": "x", "sep": ","}})
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": {"path": "x"}, "models": [{"variant": "er", "p": 1}]})
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": {"path": "x"},
                          "models": [{"variant": "sbm", "spectral": {"tau": 1}}]})
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": {"path": "x"}, "metrics": {"order": 2}})
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": {}})
    with pytest.raises(ConfigError):
        config_from_dict(["not", "a", "mapping"])
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": {"path": "x"}, "sir": {"steps": -2}})


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{broken")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_dataset_stats_worked_example(tmp_path):
    path = tmp_path / "k4.edges"
    path.write_text("a b\na c\na d\nb c\nb d\nc d\n")
    stats = dataset_stats(str(path))
    assert stats["n_nodes"] == 4
    assert stats["n_edges"] == 6
    assert stats["density"] == 1.0
    assert stats["average_degree"] == 3.0
    assert stats["max_degree"] == 3
    assert stats["clustering_average_local"] == 1.0
    assert stats["clustering_global_transitivity"] == 1.0
    lonely = tmp_path / "one.edges"
    lonely.write_text("%N 1\n")
    assert dataset_stats(str(lonely))["density"] is None


def test_fit_model_routes_every_variant():
    for variant in ("er", "degree", "sbm", "dcsbm"):
        model = fit_model(TWO_CLIQUES, ModelSpec(variant))
        assert model.variant == variant
    sbm = fit_model(TWO_CLIQUES, ModelSpec("sbm"))
    assert sbm.k == 2  # the two cliques are obvious communities


def test_run_experiment_report_and_artifacts(dataset, tmp_path):
    out = str(tmp_path / "out")
    report = run_experiment(small_config(dataset, out))

    assert [row.model_name for row in report.rows] == ["er", "degree", "sbm", "dcsbm"]
    assert all(math.isfinite(row.area) for row in report.rows)
    assert report.wall_clock_seconds is not None
    assert set(report.curves) == {"actual", "er", "degree", "sbm", "dcsbm"}
    assert all(c.fractions.shape == (3, 7) for c in report.curves.values())

    names = sorted(os.listdir(out))
    assert names == ["curves_actual.csv", "curves_dcsbm.csv", "curves_degree.csv",
                     "curves_er.csv", "curves_sbm.csv", "quality_table.txt", "report.json"]
    data = json.loads((tmp_path / "out" / "report.json").read_text())
    assert sorted(data) == ["dataset", "models", "provenance", "quality"]
    assert "wall_clock_seconds" not in json.dumps(data)
    assert data["provenance"]["tool"] == "contactnet"
    assert data["provenance"]["master_seed"] == 0
    assert data["provenance"]["config"] == config_to_dict(small_config(dataset, out))
    assert data["dataset"]["n_nodes"] == 12
    by_name = {entry["name"]: entry for entry in data["models"]}
    assert by_name["sbm"]["communities"] == 2
    assert by_name["er"]["communities"] is None
    assert by_name["degree"]["mode"] == "exact_sum"
    curves = read_curves_csv((tmp_path / "out" / "curves_actual.csv").read_text().splitlines())
    assert curves.n_runs == 24
    assert curves.population == 12


def test_run_experiment_saves_trajectories_when_asked(dataset, tmp_path):
    out = tmp_path / "traj"
    run_experiment(small_config(dataset, str(out), save_trajectories=True))
    assert (out / "trajectories" / "actual.csv").exists()
    for name in ("er", "degree", "sbm", "dcsbm"):
        files = sorted(os.listdir(out / "trajectories" / name))
        assert files == ["network_000.csv", "network_001.csv", "network_002.csv"]


def test_run_experiment_validates_before_simulating(dataset, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("clustered before the epidemic parameters were checked")

    monkeypatch.setattr(harness, "spectral_cluster", refuse)
    bad = small_config(dataset, str(tmp_path / "x"),
                       sir=SirParams(0.3, 0.2, steps=6, initial_infectious=100))
    with pytest.raises(ConfigError, match="initial_infectious"):
        run_experiment(bad)

    empty = tmp_path / "empty.edges"
    empty.write_text("%N 3\n")
    cfg = small_config(str(empty), str(tmp_path / "y"), models=(ModelSpec("degree"),))
    with pytest.raises(FitError):
        run_experiment(cfg)


def test_run_experiment_per_network_averaging(dataset, tmp_path):
    report = run_experiment(small_config(dataset, str(tmp_path / "pn"),
                                         metrics=MetricsConfig(area_averaging="per_network")))
    assert all(row.area >= 0 for row in report.rows)


def _count_calls(monkeypatch, name, counts):
    fn = getattr(harness, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)


def test_run_experiment_fits_each_model_once(dataset, tmp_path, monkeypatch):
    counts = {}
    for name in ("fit_er", "fit_degree", "fit_sbm", "fit_dcsbm", "spectral_cluster"):
        _count_calls(monkeypatch, name, counts)
    run_experiment(small_config(dataset, str(tmp_path / "once")))
    assert counts == {"fit_er": 1, "fit_degree": 1, "fit_sbm": 1, "fit_dcsbm": 1,
                      "spectral_cluster": 1}
    # community models share a clustering only when their spectral configs agree
    counts.clear()
    models = (ModelSpec("sbm"), ModelSpec("dcsbm", spectral=SpectralConfig(k_fixed=2)))
    run_experiment(small_config(dataset, str(tmp_path / "twice"), models=models))
    assert counts == {"fit_sbm": 1, "fit_dcsbm": 1, "spectral_cluster": 2}


def test_run_experiment_simulates_through_module_names(dataset, tmp_path, monkeypatch):
    # the traced benchmark wraps these names; a call that bypasses them drops a layer
    counts = {}
    for name in ("simulate_sir", "derived_rng"):
        _count_calls(monkeypatch, name, counts)
    config = small_config(dataset, str(tmp_path / "calls"))
    run_experiment(config)
    ens = config.ensemble
    sampled = len(config.models) * ens.sampled_networks
    assert counts["simulate_sir"] == ens.actual_runs + sampled * ens.runs_per_network
    assert counts["derived_rng"] == counts["simulate_sir"] + sampled


def test_run_experiment_fit_error_stops_before_any_epidemic(dataset, tmp_path, monkeypatch):
    def failing_fit(*args, **kwargs):
        raise FitError("planted failure")

    counts = {}
    _count_calls(monkeypatch, "simulate_sir", counts)
    monkeypatch.setattr(harness, "fit_dcsbm", failing_fit)
    with pytest.raises(FitError):
        run_experiment(small_config(dataset, str(tmp_path / "fail")))
    assert counts == {}


# ---------------------------------------------------------------------------
# command line

def test_cli_version_and_help(capsys):
    assert cli.main(["--version"]) == 0
    assert "contactnet" in capsys.readouterr().out
    assert cli.main(["--help"]) == 0
    assert "experiment" in capsys.readouterr().out


def test_cli_stats(dataset, capsys):
    assert cli.main(["stats", dataset]) == 0
    out = capsys.readouterr().out
    assert "n_nodes: 12" in out
    assert "n_edges: 31" in out


def test_cli_fit_model_json(dataset, tmp_path, capsys):
    out = tmp_path / "er.json"
    assert cli.main(["fit", dataset, "--model", "er", "-o", str(out)]) == 0
    model = load_model(str(out))
    assert model.variant == "er"
    assert model.p == pytest.approx(31 / 66)
    # without -o the model JSON goes to stdout
    assert cli.main(["fit", dataset, "--model", "er"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["variant"] == "er"
    assert "parameter_count: 1" in captured.err


def test_cli_fit_generic_mode_flag(dataset, tmp_path):
    out = tmp_path / "deg.json"
    assert cli.main(["fit", dataset, "--model", "degree", "--mode", "chung_lu",
                     "-o", str(out)]) == 0
    assert load_model(str(out)).mode == "chung_lu"
    # modes are validated against the chosen variant
    assert cli.main(["fit", dataset, "--model", "degree", "--mode", "plugin"]) == 1
    assert cli.main(["fit", dataset, "--model", "er", "--mode", "exact"]) == 1


def test_cli_fit_partition_out(dataset, tmp_path, capsys):
    part = tmp_path / "part.csv"
    assert cli.main(["fit", dataset, "--model", "sbm", "--k-fixed", "2",
                     "-o", str(tmp_path / "m.json"), "--partition-out", str(part)]) == 0
    lines = part.read_text().splitlines()
    assert lines[0] == "node_label,community_index"
    assert len(lines) == 13
    capsys.readouterr()
    # partitions only exist for block models, and that is refused before any fit
    other = tmp_path / "other.csv"
    assert cli.main(["fit", dataset, "--model", "er",
                     "--partition-out", str(other)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --partition-out applies only to sbm and dcsbm fits\n"
    assert captured.out == ""
    assert not other.exists()


def test_cli_sample_and_simulate_round_trip(dataset, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert cli.main(["fit", dataset, "--model", "dcsbm", "-o", str(model_path)]) == 0
    capsys.readouterr()

    assert cli.main(["sample", str(model_path), "--count", "2", "--seed", "5",
                     "--output-dir", str(tmp_path / "nets")]) == 0
    listed = sorted(os.listdir(tmp_path / "nets"))
    assert [name.endswith(".edges") for name in listed] == [True, True]
    capsys.readouterr()

    curves_out = tmp_path / "curves.csv"
    assert cli.main(["simulate", dataset, "--beta", "0.4", "--gamma", "0.2",
                     "--steps", "8", "--runs", "30", "--seed", "3",
                     "--curves-out", str(curves_out)]) == 0
    curves = read_curves_csv(curves_out.read_text().splitlines())
    assert curves.fractions.shape == (3, 9)
    assert curves.n_runs == 30

    # a fitted model file can stand in for the graph
    assert cli.main(["simulate", str(model_path), "--runs", "10",
                     "--steps", "4", "--seed", "1"]) == 0


def test_cli_evaluate_self_comparison_is_zero(dataset, tmp_path, capsys):
    curves_out = tmp_path / "c.csv"
    assert cli.main(["simulate", dataset, "--runs", "20", "--steps", "5",
                     "--curves-out", str(curves_out)]) == 0
    capsys.readouterr()
    assert cli.main(["evaluate", str(curves_out), str(curves_out)]) == 0
    assert capsys.readouterr().out.strip() == "0.0"


def test_cli_experiment_end_to_end(dataset, tmp_path, capsys):
    cfg = {
        "dataset": {"path": dataset},
        "sir": {"infection_probability": 0.3, "recovery_probability": 0.2, "steps": 5},
        "ensemble": {"actual_runs": 20, "sampled_networks": 2, "runs_per_network": 3},
        "output_dir": str(tmp_path / "res"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["experiment", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert "model" in captured.out
    assert (tmp_path / "res" / "report.json").exists()
    # --output-dir overrides the config value
    assert cli.main(["experiment", str(cfg_path), "--output-dir",
                     str(tmp_path / "res2")]) == 0
    assert (tmp_path / "res2" / "report.json").exists()


def test_cli_exit_codes(dataset, tmp_path, capsys):
    assert cli.main(["stats", str(tmp_path / "missing.edges")]) == 2
    assert cli.main(["frobnicate", dataset]) == 1
    assert cli.main(["fit", dataset, "--model", "hyper"]) == 1

    bad_lines = tmp_path / "bad.edges"
    bad_lines.write_text("a b c\n")
    assert cli.main(["stats", str(bad_lines)]) == 2

    capsys.readouterr()
    assert cli.main(["simulate", dataset, "--runs", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1

    bad_model = tmp_path / "bad.json"
    bad_model.write_text("{nope")
    assert cli.main(["simulate", str(bad_model), "--runs", "2"]) == 2

    bad_cfg = tmp_path / "bad_cfg.json"
    bad_cfg.write_text(json.dumps({"dataset": {"path": dataset}, "typo": True}))
    assert cli.main(["experiment", str(bad_cfg)]) == 1

    # numerical failure: zero regularization with an isolated node
    lonely = tmp_path / "lonely.edges"
    lonely.write_text("%N 3\na b\n")
    assert cli.main(["fit", str(lonely), "--model", "sbm",
                     "--regularization", "0"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("message, err", [
    ("Unable to allocate 2.18 TiB for an array", "error: Unable to allocate 2.18 TiB for an array\n"),
    ("", "error: out of memory\n"),
])
def test_cli_unmet_allocation_is_one_error_line(dataset, capsys, monkeypatch, message, err):
    # the callee only raises: a real huge allocation may succeed under overcommit
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "simulate_ensemble", refuse)
    assert cli.main(["simulate", dataset, "--runs", "1"]) == 1
    assert capsys.readouterr().err == err


class _Stop(Exception):
    """Raised by a captured callee, so the command goes no further."""


def _capture(monkeypatch, name):
    """Make cli.<name> record its positional arguments and stop the command."""
    calls = []

    def stop(*args):
        calls.append(args)
        raise _Stop

    monkeypatch.setattr(cli, name, stop)
    return calls


def _differs_in_every_field(value):
    default = type(value)()
    return all(getattr(value, f.name) != getattr(default, f.name)
               for f in dataclasses.fields(value))


def test_cli_fit_flags_reach_their_spectral_fields(dataset, monkeypatch):
    fits = _capture(monkeypatch, "fit_model")
    # no flag: the library's defaults, and nothing the CLI states itself
    for variant in harness.MODEL_VARIANTS:
        with pytest.raises(_Stop):
            cli.main(["fit", dataset, "--model", variant])
        assert fits.pop()[1] == ModelSpec(variant)
    spectral = SpectralConfig(regularization=0.5, k_max=5, k_fixed=2, kmeans_restarts=3,
                              kmeans_max_iters=7, seed=4, eigenvalue_order="value")
    assert _differs_in_every_field(spectral)
    flags = ["--regularization", "0.5", "--k-max", "5", "--k-fixed", "2",
             "--kmeans-restarts", "3", "--kmeans-max-iters", "7", "--spectral-seed", "4",
             "--eigenvalue-order", "value"]
    for variant, field, mode in [("dcsbm", "dcsbm_mode", "plugin"),
                                 ("degree", "degree_mode", "chung_lu")]:
        with pytest.raises(_Stop):
            cli.main(["fit", dataset, "--model", variant, "--mode", mode, *flags])
        assert fits.pop()[1] == ModelSpec(variant, spectral=spectral, **{field: mode})


def test_cli_simulate_flags_reach_their_sir_fields(dataset, monkeypatch):
    runs = _capture(monkeypatch, "simulate_ensemble")
    with pytest.raises(_Stop):
        cli.main(["simulate", dataset])
    assert runs.pop()[1:] == (SirParams(), 100, (0,), None)
    params = SirParams(infection_probability=0.3, recovery_probability=0.2, steps=7,
                       initial_infectious=2)
    assert _differs_in_every_field(params)
    for beta, gamma in [("--infection-prob", "--recovery-prob"), ("--beta", "--gamma")]:
        with pytest.raises(_Stop):
            cli.main(["simulate", dataset, beta, "0.3", gamma, "0.2", "--steps", "7",
                      "--initial-infectious", "2"])
        assert runs.pop()[1] == params


@pytest.mark.parametrize("error, code", [
    (ConfigError("bad"), 1), (DataError("bad"), 2), (ParseError("bad"), 2),
    (FitError("bad"), 2), (NumericError("bad"), 3),
    (OSError("bad"), 2), (UnicodeDecodeError("utf-8", b"", 0, 1, "bad"), 2),
    (ValueError("bad"), 1), (TypeError("bad"), 1),
])
def test_cli_exits_with_each_error_class_code(dataset, capsys, monkeypatch, error, code):
    def fail(*args):
        raise error

    monkeypatch.setattr(cli, "simulate_ensemble", fail)
    if isinstance(error, (ConfigError, DataError, NumericError)):
        assert error.exit_code == code
    assert cli.main(["simulate", dataset]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("bad_args", [
    ["--initial-infectious", "13"], ["--runs", "0"], ["--seed", "-1"],
])
def test_cli_simulate_failure_writes_no_trajectories(dataset, tmp_path, capsys, bad_args):
    traj = tmp_path / "t.csv"
    assert cli.main(["simulate", dataset, "--trajectories-out", str(traj), *bad_args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not traj.exists()


def test_cli_negative_seed_is_refused_before_anything_is_read(dataset, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert cli.main(["fit", dataset, "--model", "er", "-o", str(model_path)]) == 0
    capsys.readouterr()
    nets = tmp_path / "nets"
    for argv in (["sample", str(model_path), "--seed", "-1", "--output-dir", str(nets)],
                 ["simulate", str(tmp_path / "missing.edges"), "--seed", "-1"]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: argument --seed: must be nonnegative, got -1\n"
        assert captured.out == ""
    assert not nets.exists()


def test_cli_sample_unwritable_label_creates_nothing(tmp_path, capsys):
    contacts = tmp_path / "contacts.csv"
    contacts.write_text("time,node_a,node_b\n1,alice smith,bob\n2,bob,carol\n")
    model_path = tmp_path / "model.json"
    assert cli.main(["fit", str(contacts), "--format", "contacts", "--model", "er",
                     "-o", str(model_path)]) == 0
    capsys.readouterr()
    nets = tmp_path / "nets"
    assert cli.main(["sample", str(model_path), "--output-dir", str(nets)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "alice smith" in captured.err
    assert captured.out == ""
    assert not nets.exists()


@pytest.mark.parametrize("overrides", [
    {"save_trajectories": "false"},
    {"sir": {"steps": 2.5}},
    {"ensemble": {"actual_runs": 2.5}},
    {"master_seed": 1.7},
    {"models": [{"variant": "er", "name": 3}]},
    {"models": [{"variant": "er", "name": "../x"}]},
    {"models": [{"variant": "er", "name": "a/b"}]},
    {"models": [{"variant": "er", "name": "actual"}], "save_trajectories": True},
    {"models": [{"variant": "er", "name": "actual.csv"}], "save_trajectories": True},
    {"output_dir": 5},
    {"output_dir": None},
    {"metrics": []},
    {"models": {"variant": "er"}},
    {"models": "er"},
    {"sir": None},
    {"models": [{"variant": "sbm", "spectral": None}]},
    {"dataset": {"path": 3}},
    {"models": [{"variant": "sbm", "spectral": {"regularization": float("inf")}}]},
    {"models": [{"variant": "sbm", "spectral": {"regularization": float("nan")}}]},
    {"models": [{"variant": "sbm", "spectral": {"seed": -1}}]},
])
def test_cli_experiment_rejects_mistyped_config(dataset, tmp_path, capsys, monkeypatch,
                                               overrides):
    monkeypatch.chdir(tmp_path)  # a misread relative output_dir would appear here
    cfg = {
        "dataset": {"path": dataset},
        "sir": {"steps": 2},
        "ensemble": {"actual_runs": 2, "sampled_networks": 1, "runs_per_network": 1},
        "output_dir": str(tmp_path / "never"),
    }
    cfg.update(overrides)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["experiment", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "never").exists()
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "two_cliques.edges"]


def test_config_errors_name_the_key_path():
    base = {"dataset": {"path": "x.edges"}}
    for overrides, message in [
        ({"models": [{"variant": "sbm", "spectral": None}]},
         "config.models[0].spectral must be a JSON object"),
        ({"models": {"variant": "er"}}, "config.models must be a JSON array"),
        ({"dataset": {"path": 3}}, "config.dataset.path must be a string, got 3"),
        ({"dataset": {"format": "contacts"}}, "config.dataset.path is required"),
        ({"sir": {"steps": True}}, "config.sir.steps must be an integer, got True"),
        ({"models": [{"variant": "er", "p": 1}]}, "unknown key(s) in config.models[0]: p"),
        ({"models": [{"variant": "sbm", "spectral": {"regularization": float("inf")}}]},
         "invalid config.models[0].spectral: regularization must be finite and nonnegative"),
        ({"models": [{"variant": "sbm", "spectral": {"regularization": float("nan")}}]},
         "invalid config.models[0].spectral: regularization must be finite and nonnegative"),
        ({"models": [{"variant": "sbm", "spectral": {"seed": -1}}]},
         "invalid config.models[0].spectral: seed must be nonnegative"),
    ]:
        with pytest.raises(ConfigError) as info:
            config_from_dict(dict(base, **overrides))
        assert str(info.value) == message
    # ints stand for floats, null only where a field may be None, and both echo as given
    cfg = config_from_dict(dict(base, sir={"infection_probability": 1},
                                models=[{"variant": "sbm", "spectral": {"k_max": None}}]))
    assert config_to_dict(cfg)["sir"]["infection_probability"] == 1
    assert cfg.models[0].spectral.k_max is None


def _key_paths(node, prefix=()):
    """Every key path below a JSON value, objects and arrays alike."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


def _tiny_config(tmp):
    graph = os.path.join(tmp, "square.edges")
    with open(graph, "w") as fh:
        fh.write("0 1\n1 2\n2 3\n3 0\n")
    return config_to_dict(ExperimentConfig(
        DatasetSpec(graph),
        sir=SirParams(0.5, 0.3, steps=3),
        ensemble=EnsembleConfig(2, 1, 1),
        output_dir=os.path.join(tmp, "out"),
    ))


_MUTANTS = [None, [], {}, 5, 1.5, "x", True]
_EXTRA_KEY = object()


def _at(node, path):
    return functools.reduce(operator.getitem, path, node)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_experiment_survives_any_one_key_mutation(data):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _tiny_config(tmp)
        paths = list(_key_paths(cfg))
        objects = [()] + [path for path in paths if isinstance(_at(cfg, path), dict)]
        path, mutant = data.draw(st.one_of(
            st.tuples(st.sampled_from(paths), st.sampled_from(_MUTANTS)),
            st.tuples(st.sampled_from(objects), st.just(_EXTRA_KEY)),
        ))
        if mutant is _EXTRA_KEY:
            _at(cfg, path)["unexpected"] = 1
        else:
            _at(cfg, path[:-1])[path[-1]] = mutant
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # a mutated relative output_dir must land in the scratch directory
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["experiment", cfg_path])
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def _run_cli(argv, cwd):
    """cli.main(argv) run in `cwd`; returns the exit code and the stderr text."""
    err = io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(here)
    return code, err.getvalue()


_MODEL_DOCS = {
    variant: model_to_dict(
        fit_model(TWO_CLIQUES, ModelSpec(variant, spectral=SpectralConfig(k_fixed=2))))
    for variant in harness.MODEL_VARIANTS
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_sample_survives_any_one_key_mutation(data):
    doc = copy.deepcopy(_MODEL_DOCS[data.draw(st.sampled_from(harness.MODEL_VARIANTS))])
    paths = list(_key_paths(doc))
    path, mutant = data.draw(st.one_of(
        st.tuples(st.sampled_from([p for p in paths if len(p) == 1]) | st.sampled_from(paths),
                  st.sampled_from(_MUTANTS + [math.nan, math.inf])),
        st.tuples(st.just(()), st.just(_EXTRA_KEY)),
    ))
    if mutant is _EXTRA_KEY:
        doc["unexpected"] = 1
    else:
        _at(doc, path[:-1])[path[-1]] = mutant
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "model.json"), "w") as fh:
            json.dump(doc, fh)
        code, err = _run_cli(["sample", "model.json", "--output-dir", "nets"], tmp)
        written = os.path.exists(os.path.join(tmp, "nets"))
    assert code in (0, 2)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not written


def test_cli_model_file_errors_name_the_key_path(tmp_path, capsys):
    doc = dict(_MODEL_DOCS["degree"], scale="0.1")
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["sample", str(path), "--output-dir", str(tmp_path / "nets")]) == 2
    assert capsys.readouterr().err == "error: model.scale must be a number, got '0.1'\n"
    assert sorted(os.listdir(tmp_path)) == ["model.json"]


_BIG_FIELD = "x" * 140_000  # over the csv module's default field limit of 131072


@pytest.mark.parametrize("fmt, data", [
    ("contacts", f"time,node_a,node_b\n1,a,b\n2,{_BIG_FIELD},c\n".encode()),
    ("attendance", f"event_id,person\n{_BIG_FIELD},p\n".encode()),
    ("curves", f"# population=2 n_runs=1\nt,s,i,r\n0,{_BIG_FIELD},0,0\n".encode()),
    ("edge_list", b"a b\n\xe9 c\n"),
    ("contacts", b"time,node_a,node_b\n1,\xe9,b\n"),
    ("attendance", b"event_id,person\n\xff\xfe,p\n"),
    ("curves", b"# population=2 n_runs=1\nt,s,i,r\n0,1.0,0.0,0.0\xe9\n"),
    ("model", b'{"variant": "er", "labels": ["\xe9"]}'),
    ("edge_list", b"a b\n,,\n"),
], ids=["contacts-field-limit", "attendance-field-limit", "curves-field-limit",
        "edge_list-latin1", "contacts-latin1", "attendance-utf16-bom", "curves-latin1",
        "model-latin1", "edge_list-separators-only"])
def test_cli_unreadable_data_files_exit_2(tmp_path, fmt, data):
    (tmp_path / "data").write_bytes(data)
    argv = {
        "curves": ["evaluate", "data", "data"],
        "model": ["sample", "data", "--output-dir", "nets"],
    }.get(fmt, ["stats", "data", "--format", fmt])
    code, err = _run_cli(argv, tmp_path)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["data"]


_DATA_HEADERS = {
    "edge_list": "%N 3\n",
    "contacts": "time,node_a,node_b\n",
    "attendance": "event_id,person\n",
    "curves": "# population=2 n_runs=1\nt,s,i,r\n",
}
# no token starts with a digit, so no run of tokens declares a huge `%N` node count
_DATA_TOKENS = st.sampled_from(
    ["a", "b", "c", ",", " ", "\t", "\n", "\r\n", "#", "%N 3", '"', "\x00", "0,1.0,0.0,0.0",
     "1,0.5,0.5,0.0", "-1", "0.5", "nan", "t,s,i,r", "x" * 10])


@settings(max_examples=200, deadline=None)
@given(
    fmt=st.sampled_from(tuple(_DATA_HEADERS)),
    headed=st.booleans(),
    body=st.one_of(st.text(), st.binary(), st.lists(_DATA_TOKENS).map("".join)),
)
@example(fmt="contacts", headed=True, body=f"1,a,{_BIG_FIELD}\n")
@example(fmt="curves", headed=True, body=f"0,{_BIG_FIELD},0,0\n")
@example(fmt="contacts", headed=True, body="1,a\x00,b\n")  # csv rejects NUL on 3.10
@example(fmt="attendance", headed=False, body=b"event_id,person\n\xe9,p\n")
@example(fmt="edge_list", headed=False, body=",,\n")
@example(fmt="contacts", headed=False, body="time, node_a, node_b\n1,a,b\n")
@example(fmt="attendance", headed=False, body="event_id, person\ne1,a\n")
@example(fmt="curves", headed=False, body="# population=2 n_runs=1\nt, s, i, r\n0,1.0,0.0,0.0\n")
def test_cli_reads_any_data_text(fmt, headed, body):
    data = body if isinstance(body, bytes) else body.encode("utf-8")
    if headed:
        data = _DATA_HEADERS[fmt].encode() + data
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "data"), "wb") as fh:
            fh.write(data)
        argv = (["evaluate", "data", "data"] if fmt == "curves"
                else ["stats", "data", "--format", fmt])
        code, err = _run_cli(argv, tmp)
    assert code in (0, 1, 2, 3)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1


_CURVES_META = "# population=4 n_runs=2\n"


@pytest.mark.parametrize("argv, plain, padded, rows", [
    (["stats", "data", "--format", "contacts"], "time,node_a,node_b",
     " time ,node_a,\tnode_b ", "1,a,b\n2,c,b\n3,b,a\n"),
    (["stats", "data", "--format", "attendance"], "event_id,person",
     "event_id , person", "e1,a\ne1,b\ne1,c\ne2,d\n"),
    (["evaluate", "data", "reference"], _CURVES_META + "t,s,i,r",
     _CURVES_META + "t, s, i, r", "0,0.5,0.5,0.0\n1,0.25,0.5,0.25\n"),
], ids=["contacts", "attendance", "curves"])
def test_cli_padded_csv_header_reads_like_the_plain_one(tmp_path, capsys, monkeypatch, argv,
                                                        plain, padded, rows):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "reference").write_text(_CURVES_META + "t,s,i,r\n0,1.0,0.0,0.0\n1,0.75,0.25,0.0\n")
    outputs = []
    for header in (plain, padded):
        (tmp_path / "data").write_text(f"{header}\n{rows}")
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


def test_cli_contacts_self_contact_exits_2_with_its_line(tmp_path):
    (tmp_path / "data").write_text("time,node_a,node_b\n1,a,b\n2,c,c\n")
    code, err = _run_cli(["stats", "data", "--format", "contacts"], tmp_path)
    assert (code, err) == (2, "error: line 3: contact joins node 'c' to itself\n")


_VALID_CURVES = _CURVES_META + "t,s,i,r\n0,1.0,0.0,0.0\n"


@pytest.mark.parametrize("argv, text, message", [
    (["stats", "data", "--format", "contacts"], "time,node_a,node_b,node_a\n1,a,b,c\n",
     "line 1: repeated column name(s): node_a"),
    (["stats", "data", "--format", "contacts"], "time,node_a,node_b\n1,a,b,zzz\n",
     "line 2: row has 4 fields, header has 3"),
    (["stats", "data", "--format", "attendance"], "event_id,person,person\ne1,a,b\n",
     "line 1: repeated column name(s): person"),
    (["evaluate", "data", "reference"], _CURVES_META + "t,s,i,r\n0,0.75,0.25,0,9\n",
     "line 3: row has 5 fields, header has 4"),
    (["evaluate", "data", "reference"],
     _CURVES_META + "t,s,i,r\n0,1.0,0.0,0.0\n\n\n1,x,0.0,1.0\n",
     "line 6: malformed curve row"),
], ids=["contacts-repeated-column", "contacts-long-row", "attendance-repeated-column",
        "curves-long-row", "curves-after-blank-lines"])
def test_cli_csv_misreadings_exit_2_with_their_line(tmp_path, argv, text, message):
    (tmp_path / "reference").write_text(_VALID_CURVES)
    (tmp_path / "data").write_text(text)
    code, err = _run_cli(argv, tmp_path)
    assert (code, err) == (2, f"error: {message}\n")


# the experiment configs the table below runs: every model, sbm alone, too many seeds
_EXPERIMENTS = {
    "all.json": {},
    "sbm.json": {"models": [{"variant": "sbm"}]},
    "infect9.json": {"sir": {"initial_infectious": 9}},
}


@pytest.mark.parametrize("graph, argv, code, message", [
    ("%N 0\n", ["simulate", "data"], 2, "simulation needs at least one node"),
    ("%N 0\n", ["fit", "data", "--model", "sbm"], 2, "clustering needs at least 2 nodes"),
    ("%N 0\n", ["experiment", "all.json"], 2, "simulation needs at least one node"),
    ("%N 0\n", ["stats", "data"], 0, None),
    ("%N 1\n", ["fit", "data", "--model", "sbm"], 2, "clustering needs at least 2 nodes"),
    ("%N 1\n", ["fit", "data", "--model", "dcsbm"], 2, "clustering needs at least 2 nodes"),
    ("%N 1\n", ["experiment", "sbm.json"], 2, "clustering needs at least 2 nodes"),
    ("%N 4\n", ["fit", "data", "--model", "sbm"], 2, "is 0 on an edgeless graph"),
    ("%N 4\n", ["experiment", "sbm.json"], 2, "is 0 on an edgeless graph"),
    ("%N 4\n", ["fit", "data", "--model", "sbm", "--regularization", "1"], 0, None),
    ("%N 3\na b\n", ["fit", "data", "--model", "sbm", "--regularization", "0"], 3,
     "zero regularization with an isolated node"),
    ("a b\nb c\nc d\nd a\n", ["simulate", "data", "--initial-infectious", "9"], 1,
     "initial_infectious cannot exceed the node count"),
    ("a b\nb c\nc d\nd a\n", ["experiment", "infect9.json"], 1,
     "initial_infectious cannot exceed the node count"),
    (_CURVES_META + "t,s,i,r\n0,1.0,0.0,0.0\n1,1.0,0.0,0.0\n", ["evaluate", "data", "reference"],
     2, "curves disagree on length: 2 vs 1"),
], ids=["no-nodes-simulate", "no-nodes-fit", "no-nodes-experiment", "no-nodes-stats",
        "one-node-fit-sbm", "one-node-fit-dcsbm", "one-node-experiment", "edgeless-fit",
        "edgeless-experiment", "edgeless-fit-regularized", "isolated-node-fit-unregularized",
        "too-many-seeds-simulate", "too-many-seeds-experiment", "unequal-curves-evaluate"])
def test_cli_unusable_input_exits_alike_from_every_command(tmp_path, graph, argv, code,
                                                           message):
    (tmp_path / "data").write_text(graph)
    (tmp_path / "reference").write_text(_CURVES_META + "t,s,i,r\n0,1.0,0.0,0.0\n")
    for name, fields in _EXPERIMENTS.items():
        cfg = {"dataset": {"path": "data"}, "output_dir": "out",
               "ensemble": {"actual_runs": 2, "sampled_networks": 1, "runs_per_network": 1},
               **fields}
        (tmp_path / name).write_text(json.dumps(cfg))
    got, err = _run_cli(argv, tmp_path)
    assert got == code
    if message is None:
        assert "error:" not in err
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_cli_stats_reads_n_a_for_what_a_graph_with_no_nodes_leaves_undefined(tmp_path, capsys):
    (tmp_path / "data").write_text("%N 0\n")
    assert cli.main(["stats", str(tmp_path / "data")]) == 0
    lines = capsys.readouterr().out.splitlines()
    for key in ("density", "average_degree", "max_degree"):
        assert f"{key}: n/a" in lines
    assert "n_nodes: 0" in lines and "clustering_average_local: 0.0" in lines


@pytest.mark.parametrize("graph, argv, code, message", [
    ("%N 3\n%N 3\n", ["stats", "data"], 2, "line 2: duplicate node-count header"),
    ("%N -1\n", ["stats", "data"], 2, "line 1: node count must be nonnegative"),
    ("a a\n", ["stats", "data"], 2, "line 1: self-loop on node 'a'"),
    ("%N 1\n", ["fit", "data", "--model", "er"], 2, "er model needs at least 2 nodes"),
    ("a b\n", ["sample", "model.json", "--count", "0"], 1, "--count must be at least 1"),
    ("a b\n", ["experiment", "negative_seed.json"], 1, "master_seed must be nonnegative"),
], ids=["duplicate-header", "negative-node-count", "self-loop", "one-node-fit-er",
        "zero-sample-count", "negative-master-seed"])
def test_cli_refuses_malformed_input_with_one_error_line(tmp_path, graph, argv, code, message):
    (tmp_path / "data").write_text(graph)
    (tmp_path / "model.json").write_text(json.dumps(_MODEL_DOCS["er"]))
    (tmp_path / "negative_seed.json").write_text(
        json.dumps({"dataset": {"path": "data"}, "master_seed": -1}))
    got, err = _run_cli(argv, tmp_path)
    assert got == code
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("argv, dest, config_class", [
    (["stats", "g"], "format", DatasetSpec),
    (["fit", "g", "--model", "er"], "format", DatasetSpec),
    (["simulate", "g"], "format", DatasetSpec),
    (["evaluate", "a", "b"], "quadrature", MetricsConfig),
])
def test_cli_defaults_are_the_config_defaults(argv, dest, config_class):
    default = {f.name: f.default for f in dataclasses.fields(config_class)}[dest]
    assert getattr(cli.build_parser().parse_args(argv), dest) == default


def test_package_version_is_the_tool_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        # older setuptools call [tool.setuptools] support beta, and warn about it
        warnings.filterwarnings("ignore", message=r"Support for `\[tool\.setuptools\]`")
        config = pyprojecttoml.read_configuration(os.path.join(ROOT_DIR, "pyproject.toml"))
    assert config["project"]["version"] == harness.TOOL_VERSION


@pytest.mark.parametrize("rows, n_nodes, n_edges", [
    ("e1,a\ne1,b\ne1,a\n", 2, 1),  # a listed twice in e1 adds no edge
    ("e1,a\ne1,b\ne2,c\n", 3, 1),  # c, alone at e2, is an isolated node
], ids=["repeat-attendee", "lone-attendee"])
def test_cli_attendance_counts_each_attendee_once(tmp_path, capsys, rows, n_nodes, n_edges):
    (tmp_path / "data").write_text("event_id,person\n" + rows)
    assert cli.main(["stats", str(tmp_path / "data"), "--format", "attendance"]) == 0
    out = capsys.readouterr().out
    assert f"n_nodes: {n_nodes}\n" in out and f"n_edges: {n_edges}\n" in out


ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(ROOT_DIR, "src")


def _run_python(code, cwd, timeout=120):
    """A fresh interpreter running `code` in `cwd` with the package on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        SRC_DIR, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, timeout=timeout,
                          capture_output=True, text=True)


def test_every_command_runs_without_scipy(dataset, tmp_path):
    cfg = {
        "dataset": {"path": dataset},
        "sir": {"infection_probability": 0.3, "recovery_probability": 0.2, "steps": 5},
        "ensemble": {"actual_runs": 6, "sampled_networks": 2, "runs_per_network": 2},
        "output_dir": "res",
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    commands = [["stats", dataset]]
    commands += [["fit", dataset, "--model", variant, "-o", f"{variant}.json"]
                 for variant in ("er", "degree", "sbm", "dcsbm")]
    commands += [
        ["sample", "dcsbm.json", "--count", "2", "--output-dir", "nets"],
        ["simulate", dataset, "--runs", "3", "--steps", "4", "--trajectories-out", "traj.csv"],
        ["experiment", "cfg.json"],
    ]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from contactnet import cli\n"
        f"codes = [cli.main(argv) for argv in {commands!r}]\n"
        "assert not any(name.startswith('scipy.') for name in sys.modules)\n"
        "print('exit codes:', codes)\n"
    )
    proc = _run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"exit codes: {[0] * len(commands)}", proc.stderr
    assert (tmp_path / "res" / "report.json").exists()
    assert (tmp_path / "traj.csv").read_text().count("\n") == 1 + 3 * 5


def test_cli_rejects_a_huge_declared_node_count_at_the_header(tmp_path):
    (tmp_path / "huge.edges").write_text("%N 10000000000\n")
    # padding up to the count first would grow by gigabytes before the timeout
    proc = _run_python("import sys\nfrom contactnet import cli\n"
                       "sys.exit(cli.main(['stats', 'huge.edges']))", tmp_path, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "line 1" in proc.stderr


PERFBENCH_DIR = os.path.join(ROOT_DIR, "perfbench")


def test_benchmark_trace_hooks_see_every_layer(dataset, tmp_path):
    # the benchmark's per-layer metrics come from wrapping module-level names of
    # harness and community; a call that bypasses one leaves its layer unmeasured
    spec = importlib.util.spec_from_file_location(
        "traced", os.path.join(PERFBENCH_DIR, "traced.py"))
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    cfg = {
        "dataset": {"path": dataset},
        "sir": {"infection_probability": 0.3, "recovery_probability": 0.2, "steps": 5},
        "ensemble": {"actual_runs": 3, "sampled_networks": 2, "runs_per_network": 2},
        "output_dir": "res",
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH_DIR, "traced.py"),
                           "cfg.json", "spans.json"], cwd=tmp_path, env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads((tmp_path / "spans.json").read_text())
    assert trace["unwrapped"] == []
    missing = {name for _, _, name in traced.WRAPPED} - {name for name, *_ in trace["spans"]}
    assert not missing
    # one entry per epidemic: 3 on the actual graph, 2 x 2 for each of the 4 models
    assert len(trace["results"].get("sir.simulate", {}).get("run_steps", ())) == 3 + 4 * 2 * 2
