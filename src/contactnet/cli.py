"""Command-line entry points.

Exit codes: 0 success, 1 usage or configuration error, 2 unreadable or
malformed data, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .community import Partition, SpectralConfig, write_partition_csv
from .errors import ConfigError, DataError, NumericError
from .graph import check_edge_list_labels, read_graph, write_edge_list
from .harness import (
    DATASET_FORMATS,
    MODEL_VARIANTS,
    TOOL_VERSION,
    ModelSpec,
    dataset_stats,
    fit_model,
    load_config,
    run_experiment,
    simulate_ensemble,
)
from .metrics import (
    area_between,
    counts_to_curves,
    read_curves_csv,
    render_quality_table,
    write_curves_csv,
)
from .models import (
    load_model,
    log_likelihood_per_pair,
    model_to_dict,
    sample_graph,
    save_model,
)
from .seeding import derived_rng, derived_seed
from .sir import SirParams


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors raise ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _fmt_value(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_stats(args) -> int:
    info = dataset_stats(args.path, args.format)
    for key, value in info.items():
        print(f"{key}: {_fmt_value(value)}")
    return 0


def _spec_from_args(args) -> ModelSpec:
    spectral = SpectralConfig(
        regularization=args.regularization,
        k_max=args.k_max,
        k_fixed=args.k_fixed,
        kmeans_restarts=args.kmeans_restarts,
        kmeans_max_iters=args.kmeans_max_iters,
        seed=args.spectral_seed,
        eigenvalue_order=args.eigenvalue_order,
    )
    modes = {}
    if args.mode is not None:
        if args.model not in ("degree", "dcsbm"):
            raise ConfigError("--mode applies only to the degree and dcsbm variants")
        modes[f"{args.model}_mode"] = args.mode
    return ModelSpec(variant=args.model, spectral=spectral, **modes)


def cmd_fit(args) -> int:
    spec = _spec_from_args(args)
    g = read_graph(args.path, args.format)
    model = fit_model(g, spec)
    for key, value in (
        ("variant", model.variant),
        ("parameter_count", model.parameter_count()),
        ("log_likelihood_per_pair", log_likelihood_per_pair(model, g)),
        ("communities", getattr(model, "k", None)),
        ("capped", model.capped),
    ):
        print(f"{key}: {_fmt_value(value)}", file=sys.stderr)
    if args.partition_out:
        if spec.variant not in ("sbm", "dcsbm"):
            raise ConfigError("--partition-out applies only to sbm and dcsbm fits")
        partition = Partition.from_assignments(g, model.assignments)
        with open(args.partition_out, "w", encoding="utf-8") as fh:
            write_partition_csv(partition, g.labels, fh)
    if args.output:
        save_model(model, args.output)
    else:
        json.dump(model_to_dict(model), sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def cmd_sample(args) -> int:
    if args.count < 1:
        raise ConfigError("--count must be at least 1")
    model = load_model(args.model)
    check_edge_list_labels(model.labels)
    os.makedirs(args.output_dir, exist_ok=True)
    for i in range(args.count):
        sampled = sample_graph(model, derived_rng(args.seed, i))
        path = os.path.join(args.output_dir, f"{args.prefix}_{i:03d}.edges")
        with open(path, "w", encoding="utf-8") as fh:
            write_edge_list(sampled, fh)
        print(path)
    return 0


def cmd_simulate(args) -> int:
    params = SirParams(
        infection_probability=args.infection_prob,
        recovery_probability=args.recovery_prob,
        steps=args.steps,
        initial_infectious=args.initial_infectious,
    )
    from_model = args.from_model or args.path.endswith(".json")
    if from_model:
        model = load_model(args.path)
        g = sample_graph(model, derived_rng(args.seed, 0))
        ensemble_seed = derived_seed(args.seed, 1)
    else:
        g = read_graph(args.path, args.format)
        ensemble_seed = args.seed
    totals = simulate_ensemble(g, params, args.runs, (ensemble_seed,), args.trajectories_out)
    curves = counts_to_curves(totals, args.runs, g.n_nodes)
    if args.curves_out:
        with open(args.curves_out, "w", encoding="utf-8") as fh:
            write_curves_csv(curves, fh)
    else:
        write_curves_csv(curves, sys.stdout)
    return 0


def cmd_evaluate(args) -> int:
    def load(path):
        with open(path, "r", encoding="utf-8") as fh:
            return read_curves_csv(fh)

    actual = load(args.actual)
    candidate = load(args.candidate)
    if len(actual) != len(candidate):
        raise DataError(
            f"curve files disagree on length: {len(actual)} vs {len(candidate)}"
        )
    if actual.population != candidate.population:
        raise DataError(
            f"curve files disagree on population: "
            f"{actual.population} vs {candidate.population}"
        )
    area = area_between(actual, candidate, quadrature=args.quadrature)
    print(repr(area))
    return 0


def cmd_experiment(args) -> int:
    config = load_config(args.config)
    if args.output_dir is not None:
        config = dataclasses.replace(config, output_dir=args.output_dir)
    report = run_experiment(config)
    sys.stdout.write(render_quality_table(report.rows))
    print(f"report written to {config.output_dir}", file=sys.stderr)
    print(f"wall clock: {report.wall_clock_seconds:.2f}s", file=sys.stderr)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="contactnet", description="contact-network model comparison")
    parser.add_argument("--version", action="version", version=f"contactnet {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("stats", help="summary statistics of a dataset")
    sp.add_argument("path")
    sp.add_argument("--format", choices=DATASET_FORMATS, default="edge_list")
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("fit", help="fit an edge-probability model to a dataset")
    sp.add_argument("path")
    sp.add_argument("--format", choices=DATASET_FORMATS, default="edge_list")
    sp.add_argument("--model", required=True, choices=MODEL_VARIANTS)
    sp.add_argument("--mode", default=None,
                    help="mode of the degree (exact_sum, chung_lu) or dcsbm (exact, plugin) fit")
    sp.add_argument("--k-fixed", type=int, default=None)
    sp.add_argument("--k-max", type=int, default=None)
    sp.add_argument("--regularization", type=float, default=None)
    sp.add_argument("--kmeans-restarts", type=int, default=10)
    sp.add_argument("--kmeans-max-iters", type=int, default=100)
    sp.add_argument("--spectral-seed", type=int, default=0)
    sp.add_argument("--eigenvalue-order", choices=("abs", "value"), default="abs")
    sp.add_argument("-o", "--output", default=None, help="model JSON path (default: stdout)")
    sp.add_argument("--partition-out", default=None, help="write the fitted partition as CSV")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("sample", help="sample networks from a saved model")
    sp.add_argument("model", help="model JSON file")
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output-dir", default=".")
    sp.add_argument("--prefix", default="sample")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("simulate", help="run an epidemic ensemble, print mean curves")
    sp.add_argument("path", help="graph file, or model JSON to sample one network from")
    sp.add_argument("--format", choices=DATASET_FORMATS, default="edge_list")
    sp.add_argument("--from-model", action="store_true",
                    help="treat the input as a saved model (implied by a .json suffix)")
    sp.add_argument("--infection-prob", "--beta", type=float, default=0.025,
                    help="per-contact transmission probability")
    sp.add_argument("--recovery-prob", "--gamma", type=float, default=0.025,
                    help="per-step recovery probability")
    sp.add_argument("--steps", type=int, default=30)
    sp.add_argument("--initial-infectious", type=int, default=1)
    sp.add_argument("--runs", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--curves-out", default=None)
    sp.add_argument("--trajectories-out", default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("evaluate", help="area between two saved mean-curve files")
    sp.add_argument("actual")
    sp.add_argument("candidate")
    sp.add_argument("--quadrature", choices=("trapezoid", "rectangle"), default="trapezoid")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("experiment", help="run the full comparison protocol from a config")
    sp.add_argument("config", help="experiment config JSON")
    sp.add_argument("--output-dir", default=None, help="override the config's output_dir")
    sp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help / --version
        code = exc.code
        return 0 if code is None else int(code)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
