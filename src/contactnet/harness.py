"""Experiment driver: fit models to a dataset, compare epidemic behavior, emit reports.

The protocol per model: simulate a large ensemble on the actual graph, fit the
model, sample networks from it, run epidemics on every sampled network, then
compare mean curves by the area metric alongside likelihood and parameter
count. All randomness derives from (master_seed, branch, indices), so results
never depend on execution order.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, Literal

import numpy as np

from .community import Partition, SpectralConfig, spectral_cluster
from .errors import ConfigError, UndefinedStatisticError
from .graph import (
    CLUSTERING_MODES,
    READERS,
    Graph,
    clustering_coefficient,
    degree_stats,
    density,
    read_graph,
)
from .metrics import (
    QUADRATURES,
    MeanCurves,
    QualityRow,
    area_between,
    counts_to_curves,
    quality_table,
    render_quality_table,
    write_curves_csv,
)
from .models import (
    DCSBM_MODES,
    DEGREE_MODES,
    VARIANTS,
    fit_dcsbm,
    fit_degree,
    fit_er,
    fit_sbm,
    log_likelihood_per_pair,
    sample_graph,
)
from .schema import Declared, from_json, integer, to_json, write_json
from .seeding import derived_rng
from .sir import TRAJECTORY_HEADER, SirParams, check_runnable, simulate_sir, write_trajectory_rows

TOOL_VERSION = "0.1.0"  # also the package version: pyproject.toml reads it

MODEL_VARIANTS = tuple(VARIANTS)
BLOCK_VARIANTS = ("sbm", "dcsbm")  # fitted to a partition of the nodes
DATASET_FORMATS = tuple(READERS)
AREA_AVERAGING = ("pooled", "per_network")

# seed branches: actual-graph epidemics, network sampling, sampled-network epidemics
_BRANCH_ACTUAL = 0
_BRANCH_SAMPLE = 1
_BRANCH_EPIDEMIC = 2

# the longest file name, in bytes, that common file systems accept
NAME_MAX = 255


@dataclass(frozen=True)
class DatasetSpec(Declared):
    path: str
    format: Literal[DATASET_FORMATS] = "edge_list"


@dataclass(frozen=True)
class ModelSpec(Declared):
    """One model to evaluate; `name` (default: the variant) labels its outputs."""

    variant: Literal[MODEL_VARIANTS]
    name: str = ""
    degree_mode: Literal[DEGREE_MODES] = "exact_sum"
    dcsbm_mode: Literal[DCSBM_MODES] = "exact"
    spectral: SpectralConfig = SpectralConfig()

    def __post_init__(self):
        super().__post_init__()
        if not self.name:
            object.__setattr__(self, "name", self.variant)
        if self.name == "actual":
            raise ValueError("model name 'actual' is reserved for the actual-graph curves")
        if (self.name in (".", "..") or any(c in self.name for c in "/\\\0")
                or len(os.fsencode(f"curves_{self.name}.csv")) > NAME_MAX):
            raise ValueError(f"model name {self.name!r} cannot serve as a file name")


@dataclass(frozen=True)
class EnsembleConfig(Declared):
    actual_runs: Annotated[int, 1] = 5000
    sampled_networks: Annotated[int, 1] = 100
    runs_per_network: Annotated[int, 1] = 50


@dataclass(frozen=True)
class MetricsConfig(Declared):
    quadrature: Literal[QUADRATURES] = "trapezoid"
    clustering_mode: Literal[CLUSTERING_MODES] = "average_local"
    area_averaging: Literal[AREA_AVERAGING] = "pooled"


def _default_models() -> tuple[ModelSpec, ...]:
    return tuple(ModelSpec(v) for v in MODEL_VARIANTS)


@dataclass(frozen=True)
class ExperimentConfig(Declared):
    """The experiment config; fields, nesting and order are those of its JSON form."""

    dataset: DatasetSpec
    models: tuple[ModelSpec, ...] = field(default_factory=_default_models)
    sir: SirParams = SirParams()
    ensemble: EnsembleConfig = EnsembleConfig()
    master_seed: Annotated[int, 0] = 0
    output_dir: str = "results"
    metrics: MetricsConfig = MetricsConfig()
    save_trajectories: bool = False

    def __post_init__(self):
        super().__post_init__()
        if not self.models:
            raise ValueError("at least one model must be configured")
        names = [spec.name for spec in self.models]
        if len(set(names)) != len(names):
            raise ValueError("model names collide; set distinct 'name' fields")
        if self.save_trajectories and "actual.csv" in names:
            raise ValueError("model name 'actual.csv' collides with the actual-graph "
                             "trajectory file; rename the model")


# ---------------------------------------------------------------------------
# config JSON round-trip

def config_from_dict(data) -> ExperimentConfig:
    """Build an ExperimentConfig from its JSON form, strictly."""
    return from_json(ExperimentConfig, data, "config")


def config_to_dict(config: ExperimentConfig) -> dict:
    """Echo a config back into its JSON form (used for provenance)."""
    return to_json(config)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# dataset summary

def _defined(statistic, g: Graph):
    """statistic(g), or None where the statistic is undefined on g."""
    try:
        return statistic(g)
    except UndefinedStatisticError:
        return None


def graph_summary(g: Graph, path: str, fmt: str) -> dict:
    stats = _defined(degree_stats, g)
    return {
        "path": path,
        "format": fmt,
        "n_nodes": g.n_nodes,
        "n_edges": g.n_edges,
        "density": _defined(density, g),
        "clustering_average_local": clustering_coefficient(g, "average_local"),
        "clustering_global_transitivity": clustering_coefficient(g, "global_transitivity"),
        "average_degree": stats and stats.average,
        "max_degree": stats and stats.maximum,
    }


def dataset_stats(path: str, fmt: str = DatasetSpec.format) -> dict:
    """Summary statistics of a dataset file (the fields of a dataset table)."""
    return graph_summary(read_graph(path, fmt), path, fmt)


# ---------------------------------------------------------------------------
# execution

def simulate_ensemble(g: Graph, params: SirParams, runs: int, seed_path, trajectories=None):
    """Summed S/I/R counts over `runs` epidemics; run r seeded by (*seed_path, r).

    Returns one row of count sums per compartment. When `trajectories` names a
    file, every run's run,t,S,I,R rows are written to it as soon as the run
    ends; nothing is opened unless the arguments are valid.
    """
    runs = integer(runs, "runs", 1)
    seed_path = tuple(integer(s, "seed", 0) for s in seed_path)
    check_runnable(g, params)
    totals = np.zeros((3, params.steps + 1), dtype=np.int64)
    # row views, so that each run adds its three rows without stacking them first
    sums = tuple(totals)
    with nullcontext() if trajectories is None else open(
            trajectories, "w", encoding="utf-8") as out:
        if out is not None:
            out.write(TRAJECTORY_HEADER)
        for r in range(runs):
            traj = simulate_sir(g, params, derived_rng(*seed_path, r))
            for total, row in zip(sums, traj):
                total += row
            if out is not None:
                write_trajectory_rows(out, r, traj)
    return totals


def fit_model(g: Graph, spec: ModelSpec, partition: Partition | None = None):
    """Fit the variant named by `spec`. Community variants use `partition`, or
    cluster by `spec.spectral` when none is given."""
    if spec.variant == "er":
        return fit_er(g)
    if spec.variant == "degree":
        return fit_degree(g, mode=spec.degree_mode)
    if partition is None:
        partition = spectral_cluster(g, spec.spectral)
    if spec.variant == "sbm":
        return fit_sbm(g, partition)
    return fit_dcsbm(g, partition, mode=spec.dcsbm_mode)


@dataclass
class ResultsReport:
    dataset: dict
    rows: list[QualityRow]
    model_details: list[dict]
    curves: dict[str, MeanCurves]
    provenance: dict
    wall_clock_seconds: float

    def to_json_dict(self) -> dict:
        # wall clock intentionally left out: report bytes stay deterministic
        return {
            "dataset": self.dataset,
            "quality": quality_table(self.rows),
            "models": self.model_details,
            "provenance": self.provenance,
        }


def _evaluate_model(g, spec, model, model_index, config, actual, trajectory_dir):
    ens = config.ensemble
    seed = config.master_seed
    per_network = [
        simulate_ensemble(
            sample_graph(model, derived_rng(seed, _BRANCH_SAMPLE, model_index, ni)),
            config.sir, ens.runs_per_network, (seed, _BRANCH_EPIDEMIC, model_index, ni),
            trajectory_dir and trajectory_dir / spec.name / f"network_{ni:03d}.csv",
        )
        for ni in range(ens.sampled_networks)
    ]
    totals = sum(per_network)
    pooled = counts_to_curves(totals, ens.sampled_networks * ens.runs_per_network, g.n_nodes)

    quadrature = config.metrics.quadrature
    if config.metrics.area_averaging == "pooled":
        area = area_between(pooled, actual, quadrature=quadrature)
    else:
        areas = [
            area_between(counts_to_curves(sums, ens.runs_per_network, g.n_nodes),
                         actual, quadrature=quadrature)
            for sums in per_network
        ]
        area = float(sum(areas) / len(areas))

    # + 0.0 turns a perfect fit's -0.0 into 0.0
    nll = -log_likelihood_per_pair(model, g) + 0.0
    row = QualityRow(spec.name, area, nll, model.parameter_count())
    details = {
        "name": spec.name,
        "variant": model.variant,
        "mode": getattr(model, "mode", None),
        "capped": model.capped,
        "communities": getattr(model, "k", None),
        "parameter_count": model.parameter_count(),
        "area_between_sir_curves": area,
        "neg_log_likelihood_per_pair": nll,
    }
    return row, pooled, details


def run_experiment(config: ExperimentConfig) -> ResultsReport:
    """Execute the full protocol and write artifacts to config.output_dir."""
    started = time.perf_counter()
    g = read_graph(config.dataset.path, config.dataset.format)
    check_runnable(g, config.sir)

    # fitting first surfaces fit errors before any epidemic runs
    # spectral_cluster is a pure function of (g, config): cluster once per distinct config
    partitions = {sc: spectral_cluster(g, sc) for sc in dict.fromkeys(
        spec.spectral for spec in config.models if spec.variant in BLOCK_VARIANTS)}
    models = [fit_model(g, spec, partitions.get(spec.spectral)) for spec in config.models]

    # an output_dir that cannot be a directory fails here, before any epidemic runs;
    # each ensemble writes its runs' counts under trajectory_dir while it runs
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    trajectory_dir = None
    if config.save_trajectories:
        trajectory_dir = out / "trajectories"
        for spec in config.models:
            (trajectory_dir / spec.name).mkdir(parents=True, exist_ok=True)
    actual_totals = simulate_ensemble(
        g, config.sir, config.ensemble.actual_runs, (config.master_seed, _BRANCH_ACTUAL),
        trajectory_dir and trajectory_dir / "actual.csv",
    )
    actual = counts_to_curves(actual_totals, config.ensemble.actual_runs, g.n_nodes)

    # popped, not iterated, so no model's cached pair probabilities outlive its evaluation
    rows, model_details, curves = [], [], {"actual": actual}
    for mi, spec in enumerate(config.models):
        row, curves[spec.name], details = _evaluate_model(
            g, spec, models.pop(0), mi, config, actual, trajectory_dir)
        rows.append(row)
        model_details.append(details)

    report = ResultsReport(
        dataset=graph_summary(g, config.dataset.path, config.dataset.format),
        rows=rows,
        model_details=model_details,
        curves=curves,
        provenance={
            "tool": "contactnet",
            "version": TOOL_VERSION,
            "master_seed": config.master_seed,
            "config": config_to_dict(config),
        },
        wall_clock_seconds=time.perf_counter() - started,
    )
    write_artifacts(report, config)
    return report


def write_artifacts(report: ResultsReport, config: ExperimentConfig) -> None:
    """Write the report files into config.output_dir, which run_experiment has made."""
    out = Path(config.output_dir)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        write_json(report.to_json_dict(), fh)
    with open(out / "quality_table.txt", "w", encoding="utf-8") as fh:
        fh.write(render_quality_table(report.rows))
    for name, curves in report.curves.items():
        with open(out / f"curves_{name}.csv", "w", encoding="utf-8") as fh:
            write_curves_csv(curves, fh)
