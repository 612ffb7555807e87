"""Experiment driver: fit models to a dataset, compare epidemic behavior, emit reports.

The protocol per model: simulate a large ensemble on the actual graph, fit the
model, sample networks from it, run epidemics on every sampled network, then
compare mean curves by the area metric alongside likelihood and parameter
count. All randomness derives from (master_seed, branch, indices), so results
never depend on execution order.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .community import SpectralConfig, spectral_cluster
from .errors import ConfigError, FitError
from .graph import Graph, clustering_coefficient, degree_stats, density, read_graph
from .metrics import (
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
    fit_dcsbm,
    fit_degree,
    fit_er,
    fit_sbm,
    log_likelihood_per_pair,
    sample_graph,
)
from .seeding import derived_rng
from .sir import SirParams, simulate_sir, write_trajectories_csv

TOOL_VERSION = "0.1.0"

MODEL_VARIANTS = ("er", "degree", "sbm", "dcsbm")
DATASET_FORMATS = ("edge_list", "contacts", "attendance")
AREA_AVERAGING = ("pooled", "per_network")

# seed branches: actual-graph epidemics, network sampling, sampled-network epidemics
_BRANCH_ACTUAL = 0
_BRANCH_SAMPLE = 1
_BRANCH_EPIDEMIC = 2


@dataclass(frozen=True)
class ModelSpec:
    variant: str
    name: str = ""
    degree_mode: str = "exact_sum"
    dcsbm_mode: str = "exact"
    spectral: SpectralConfig = SpectralConfig()

    def __post_init__(self):
        if self.variant not in MODEL_VARIANTS:
            raise ValueError(f"unknown model variant {self.variant!r}")
        if self.degree_mode not in DEGREE_MODES:
            raise ValueError(f"unknown degree mode {self.degree_mode!r}")
        if self.dcsbm_mode not in DCSBM_MODES:
            raise ValueError(f"unknown dcsbm mode {self.dcsbm_mode!r}")

    @property
    def display_name(self) -> str:
        return self.name or self.variant


@dataclass(frozen=True)
class EnsembleConfig:
    actual_runs: int = 5000
    sampled_networks: int = 100
    runs_per_network: int = 50

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be at least 1")


def _default_models() -> tuple[ModelSpec, ...]:
    return tuple(ModelSpec(v) for v in MODEL_VARIANTS)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_path: str
    dataset_format: str = "edge_list"
    models: tuple[ModelSpec, ...] = field(default_factory=_default_models)
    sir: SirParams = SirParams()
    ensemble: EnsembleConfig = EnsembleConfig()
    master_seed: int = 0
    output_dir: str = "results"
    quadrature: str = "trapezoid"
    clustering_mode: str = "average_local"
    area_averaging: str = "pooled"
    save_trajectories: bool = False

    def __post_init__(self):
        if self.dataset_format not in DATASET_FORMATS:
            raise ValueError(f"unknown dataset format {self.dataset_format!r}")
        if not self.models:
            raise ValueError("at least one model must be configured")
        names = [spec.display_name for spec in self.models]
        if len(set(names)) != len(names):
            raise ValueError("model names collide; set distinct 'name' fields")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.quadrature not in ("trapezoid", "rectangle"):
            raise ValueError(f"unknown quadrature {self.quadrature!r}")
        if self.clustering_mode not in ("average_local", "global_transitivity"):
            raise ValueError(f"unknown clustering mode {self.clustering_mode!r}")
        if self.area_averaging not in AREA_AVERAGING:
            raise ValueError(f"unknown area averaging {self.area_averaging!r}")


# ---------------------------------------------------------------------------
# config JSON round-trip

def _take(data: dict, context: str, known: tuple[str, ...]) -> None:
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(sorted(unknown))}")


_TYPE_CHECKS = {
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
}


def _typed(cls, data: dict, context: str):
    """cls(**data), after checking bool, int and float fields against their annotations."""
    for f in fields(cls):
        kind, _, optional = f.type.partition(" | ")
        if f.name not in data or kind not in _TYPE_CHECKS:
            continue
        value = data[f.name]
        check, expected = _TYPE_CHECKS[kind]
        if not check(value) and not (optional == "None" and value is None):
            raise ConfigError(f"{context}.{f.name} must be {expected}, got {value!r}")
    return cls(**data)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from the documented JSON schema, strictly."""
    if not isinstance(data, dict):
        raise ConfigError("experiment config must be a JSON object")
    _take(data, "config", ("dataset", "models", "sir", "ensemble", "master_seed",
                           "output_dir", "metrics", "save_trajectories"))
    try:
        dataset = data.get("dataset")
        if not isinstance(dataset, dict) or "path" not in dataset:
            raise ConfigError("config needs a dataset object with a 'path'")
        _take(dataset, "dataset", ("path", "format"))

        model_specs = []
        for entry in data.get("models", [{"variant": v} for v in MODEL_VARIANTS]):
            _take(entry, "model spec", ("variant", "name", "degree_mode", "dcsbm_mode", "spectral"))
            spectral_data = entry.get("spectral", {})
            _take(spectral_data, "spectral config",
                  tuple(f.name for f in fields(SpectralConfig)))
            kwargs = {k: v for k, v in entry.items() if k != "spectral"}
            spectral = _typed(SpectralConfig, spectral_data, "spectral")
            model_specs.append(ModelSpec(spectral=spectral, **kwargs))

        metrics_data = data.get("metrics", {})
        _take(metrics_data, "metrics", ("quadrature", "clustering_mode", "area_averaging"))

        return _typed(ExperimentConfig, dict(
            dataset_path=str(dataset["path"]),
            dataset_format=dataset.get("format", "edge_list"),
            models=tuple(model_specs),
            sir=_typed(SirParams, data.get("sir", {}), "sir"),
            ensemble=_typed(EnsembleConfig, data.get("ensemble", {}), "ensemble"),
            master_seed=data.get("master_seed", 0),
            output_dir=str(data.get("output_dir", "results")),
            save_trajectories=data.get("save_trajectories", False),
            **{k: metrics_data[k] for k in metrics_data},
        ), "config")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid experiment config: {exc}") from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    """Echo a config back into its JSON schema (used for provenance)."""
    return {
        "dataset": {"path": config.dataset_path, "format": config.dataset_format},
        "models": [
            {
                "variant": spec.variant,
                "name": spec.display_name,
                "degree_mode": spec.degree_mode,
                "dcsbm_mode": spec.dcsbm_mode,
                "spectral": {f.name: getattr(spec.spectral, f.name)
                             for f in fields(SpectralConfig)},
            }
            for spec in config.models
        ],
        "sir": {f.name: getattr(config.sir, f.name) for f in fields(SirParams)},
        "ensemble": {f.name: getattr(config.ensemble, f.name) for f in fields(EnsembleConfig)},
        "master_seed": config.master_seed,
        "output_dir": config.output_dir,
        "metrics": {
            "quadrature": config.quadrature,
            "clustering_mode": config.clustering_mode,
            "area_averaging": config.area_averaging,
        },
        "save_trajectories": config.save_trajectories,
    }


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# dataset summary

def graph_summary(g: Graph, path: str | None = None, fmt: str | None = None) -> dict:
    stats = degree_stats(g)
    summary = {
        "n_nodes": g.n_nodes,
        "n_edges": g.n_edges,
        "density": density(g) if g.n_nodes >= 2 else None,
        "clustering_average_local": clustering_coefficient(g, "average_local"),
        "clustering_global_transitivity": clustering_coefficient(g, "global_transitivity"),
        "average_degree": stats.average,
        "max_degree": stats.maximum,
    }
    if path is not None:
        summary = {"path": path, "format": fmt, **summary}
    return summary


def dataset_stats(path: str, fmt: str = "edge_list") -> dict:
    """Summary statistics of a dataset file (the fields of a dataset table)."""
    return graph_summary(read_graph(path, fmt), path=path, fmt=fmt)


# ---------------------------------------------------------------------------
# execution

def _ensemble_counts(g: Graph, params: SirParams, runs: int, seed_path, keep: bool):
    """Summed S/I/R counts over `runs` epidemics; run r seeded by (*seed_path, r).

    The trajectories come back too, in run order, when `keep` is set.
    """
    totals = np.zeros((3, params.steps + 1), dtype=np.int64)
    kept = [] if keep else None
    for r in range(runs):
        traj = simulate_sir(g, params, derived_rng(*seed_path, r))
        totals[0] += traj.s_counts
        totals[1] += traj.i_counts
        totals[2] += traj.r_counts
        if keep:
            kept.append(traj)
    return totals, kept


def fit_model(g: Graph, spec: ModelSpec):
    """Fit the variant named by `spec`, clustering first where one is needed."""
    if spec.variant == "er":
        return fit_er(g)
    if spec.variant == "degree":
        return fit_degree(g, mode=spec.degree_mode)
    partition = spectral_cluster(g, spec.spectral)
    if spec.variant == "sbm":
        return fit_sbm(g, partition)
    return fit_dcsbm(g, partition, mode=spec.dcsbm_mode)


def _validate_against_graph(config: ExperimentConfig, g: Graph) -> None:
    """Fail fast on config/graph mismatches before any simulation runs."""
    if g.n_nodes < 1:
        raise FitError("dataset has no nodes")
    if config.sir.initial_infectious > g.n_nodes:
        raise ConfigError("initial_infectious exceeds the dataset's node count")
    needs_edges = {"degree", "dcsbm"} & {spec.variant for spec in config.models}
    if needs_edges and g.n_edges == 0:
        raise FitError("degree-based models cannot be fitted to an edgeless graph")
    if {"sbm", "dcsbm"} & {spec.variant for spec in config.models} and g.n_nodes < 2:
        raise FitError("community models need at least 2 nodes")


@dataclass
class ModelResult:
    spec: ModelSpec
    row: QualityRow
    curves: MeanCurves
    details: dict
    trajectories: list | None = None


@dataclass
class ResultsReport:
    dataset: dict
    rows: list[QualityRow]
    model_details: list[dict]
    curves: dict[str, MeanCurves]
    provenance: dict
    wall_clock_seconds: float | None = None
    trajectories: dict | None = None

    def to_json_dict(self) -> dict:
        # wall clock intentionally left out: report bytes stay deterministic
        return {
            "dataset": self.dataset,
            "quality": quality_table(self.rows),
            "models": self.model_details,
            "provenance": self.provenance,
        }


def _evaluate_model(g, spec, model, model_index, config, actual, keep):
    ens = config.ensemble
    seed = config.master_seed
    per_network = [
        _ensemble_counts(
            sample_graph(model, derived_rng(seed, _BRANCH_SAMPLE, model_index, ni)),
            config.sir, ens.runs_per_network, (seed, _BRANCH_EPIDEMIC, model_index, ni), keep,
        )
        for ni in range(ens.sampled_networks)
    ]
    totals = sum(sums for sums, _ in per_network)
    pooled = counts_to_curves(totals, ens.sampled_networks * ens.runs_per_network, g.n_nodes)

    if config.area_averaging == "pooled":
        area = area_between(pooled, actual, quadrature=config.quadrature)
    else:
        areas = [
            area_between(counts_to_curves(sums, ens.runs_per_network, g.n_nodes),
                         actual, quadrature=config.quadrature)
            for sums, _ in per_network
        ]
        area = float(sum(areas) / len(areas))

    # + 0.0 turns a perfect fit's -0.0 into 0.0
    nll = -log_likelihood_per_pair(model, g) + 0.0
    row = QualityRow(spec.display_name, area, nll, model.parameter_count())
    details = {
        "name": spec.display_name,
        "variant": model.variant,
        "mode": getattr(model, "mode", None),
        "capped": model.capped,
        "communities": getattr(model, "k", None),
        "parameter_count": model.parameter_count(),
        "area_between_sir_curves": area,
        "neg_log_likelihood_per_pair": nll,
    }
    trajectories = [kept for _, kept in per_network] if keep else None
    return ModelResult(spec, row, pooled, details, trajectories)


def run_experiment(config: ExperimentConfig) -> ResultsReport:
    """Execute the full protocol and write artifacts to config.output_dir."""
    started = time.perf_counter()
    g = read_graph(config.dataset_path, config.dataset_format)
    _validate_against_graph(config, g)

    # fitting first surfaces fit errors before any epidemic runs
    models = [fit_model(g, spec) for spec in config.models]

    keep = config.save_trajectories
    actual_totals, actual_trajs = _ensemble_counts(
        g, config.sir, config.ensemble.actual_runs, (config.master_seed, _BRANCH_ACTUAL), keep,
    )
    actual = counts_to_curves(actual_totals, config.ensemble.actual_runs, g.n_nodes)

    # popped, not iterated, so no model's cached N x N matrix outlives its evaluation
    results = [
        _evaluate_model(g, spec, models.pop(0), mi, config, actual, keep)
        for mi, spec in enumerate(config.models)
    ]

    curves = {"actual": actual}
    trajectories = {"actual": actual_trajs} if keep else None
    for res in results:
        curves[res.spec.display_name] = res.curves
        if keep:
            trajectories[res.spec.display_name] = res.trajectories

    report = ResultsReport(
        dataset=graph_summary(g, path=config.dataset_path, fmt=config.dataset_format),
        rows=[res.row for res in results],
        model_details=[res.details for res in results],
        curves=curves,
        provenance={
            "tool": "contactnet",
            "version": TOOL_VERSION,
            "master_seed": config.master_seed,
            "config": config_to_dict(config),
        },
        trajectories=trajectories,
    )
    report.wall_clock_seconds = time.perf_counter() - started
    write_artifacts(report, config)
    return report


def write_artifacts(report: ResultsReport, config: ExperimentConfig) -> None:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
    with open(out / "quality_table.txt", "w", encoding="utf-8") as fh:
        fh.write(render_quality_table(report.rows))
    for name, curves in report.curves.items():
        with open(out / f"curves_{name}.csv", "w", encoding="utf-8") as fh:
            write_curves_csv(curves, fh)
    if report.trajectories is not None:
        base = out / "trajectories"
        base.mkdir(exist_ok=True)
        for name, trajs in report.trajectories.items():
            if name == "actual":
                with open(base / "actual.csv", "w", encoding="utf-8") as fh:
                    write_trajectories_csv(trajs, fh)
                continue
            model_dir = base / name
            model_dir.mkdir(exist_ok=True)
            for ni, net_trajs in enumerate(trajs):
                with open(model_dir / f"network_{ni:03d}.csv", "w", encoding="utf-8") as fh:
                    write_trajectories_csv(net_trajs, fh)
