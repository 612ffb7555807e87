"""Command-line entry points.

A command exits 0, or with the `exit_code` of the error class it fails with.
A spectral or SIR flag sets the SpectralConfig or SirParams field its `dest`
names; a flag not given leaves the field's default.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .community import EIGENVALUE_ORDERS, Partition, SpectralConfig, write_partition_csv
from .errors import ConfigError, ContactNetError, DataError
from .graph import check_edge_list_labels, read_graph, write_edge_list
from .harness import (
    BLOCK_VARIANTS,
    DATASET_FORMATS,
    MODEL_VARIANTS,
    TOOL_VERSION,
    DatasetSpec,
    MetricsConfig,
    ModelSpec,
    dataset_stats,
    fit_model,
    load_config,
    run_experiment,
    simulate_ensemble,
)
from .metrics import (
    QUADRATURES,
    area_between,
    counts_to_curves,
    read_curves_csv,
    render_quality_table,
    write_curves_csv,
)
from .models import (
    DCSBM_MODES,
    DEGREE_MODES,
    load_model,
    log_likelihood_per_pair,
    model_to_dict,
    sample_graph,
    save_model,
)
from .schema import write_json
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


def _given(cls, args):
    """A `cls` from the flags given for its fields; the class supplies the rest."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{key: value for key, value in vars(args).items() if key in names})


def _spec_from_args(args) -> ModelSpec:
    modes = {}
    if args.mode is not None:
        moded = [f.name[:-5] for f in dataclasses.fields(ModelSpec) if f.name.endswith("_mode")]
        if args.model not in moded:
            raise ConfigError(f"--mode applies only to the {' and '.join(moded)} variants")
        modes[f"{args.model}_mode"] = args.mode
    return ModelSpec(variant=args.model, spectral=_given(SpectralConfig, args), **modes)


def cmd_fit(args) -> int:
    spec = _spec_from_args(args)
    if args.partition_out and spec.variant not in BLOCK_VARIANTS:
        raise ConfigError(f"--partition-out applies only to {' and '.join(BLOCK_VARIANTS)} fits")
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
        partition = Partition(model.assignments, model.k)
        with open(args.partition_out, "w", encoding="utf-8") as fh:
            write_partition_csv(partition, g.labels, fh)
    if args.output:
        save_model(model, args.output)
    else:
        write_json(model_to_dict(model), sys.stdout)
    return 0


def cmd_sample(args) -> int:
    if args.count < 1:
        raise ConfigError("--count must be at least 1")
    model = load_model(args.model)
    check_edge_list_labels(model.labels)
    os.makedirs(args.output_dir, exist_ok=True)
    for i in range(args.count):
        sampled = sample_graph(model, derived_rng(args.seed, i))
        path = os.path.join(args.output_dir, f"sample_{i:03d}.edges")
        with open(path, "w", encoding="utf-8") as fh:
            write_edge_list(sampled, fh)
        print(path)
    return 0


def cmd_simulate(args) -> int:
    params = _given(SirParams, args)
    if args.path.endswith(".json"):
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
        with open(path, "r", encoding="utf-8-sig") as fh:
            return read_curves_csv(fh)

    area = area_between(load(args.actual), load(args.candidate), quadrature=args.quadrature)
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


def seed(text: str) -> int:
    """argparse type of --seed: the random streams take nonnegative integers."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return int(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="contactnet", description="contact-network model comparison")
    parser.add_argument("--version", action="version", version=f"contactnet {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("stats", help="summary statistics of a dataset")
    sp.add_argument("path")
    sp.add_argument("--format", choices=DATASET_FORMATS, default=DatasetSpec.format)
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("fit", help="fit an edge-probability model to a dataset")
    sp.add_argument("path")
    sp.add_argument("--format", choices=DATASET_FORMATS, default=DatasetSpec.format)
    sp.add_argument("--model", required=True, choices=MODEL_VARIANTS)
    sp.add_argument("--mode", default=None,
                    help=f"mode of the degree ({', '.join(DEGREE_MODES)}) "
                         f"or dcsbm ({', '.join(DCSBM_MODES)}) fit")
    spectral = sp.add_argument_group("spectral clustering", argument_default=argparse.SUPPRESS)
    spectral.add_argument("--k-fixed", type=int)
    spectral.add_argument("--k-max", type=int)
    spectral.add_argument("--regularization", type=float)
    spectral.add_argument("--kmeans-restarts", type=int)
    spectral.add_argument("--kmeans-max-iters", type=int)
    spectral.add_argument("--spectral-seed", dest="seed", type=int)
    spectral.add_argument("--eigenvalue-order", choices=EIGENVALUE_ORDERS)
    sp.add_argument("-o", "--output", default=None, help="model JSON path (default: stdout)")
    sp.add_argument("--partition-out", default=None, help="write the fitted partition as CSV")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("sample", help="sample networks from a saved model")
    sp.add_argument("model", help="model JSON file")
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--seed", type=seed, default=0)
    sp.add_argument("--output-dir", default=".", help="where sample_NNN.edges are written")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("simulate", help="run an epidemic ensemble, print mean curves")
    sp.add_argument("path", help="graph file, or model file (*.json) to sample one network from")
    sp.add_argument("--format", choices=DATASET_FORMATS, default=DatasetSpec.format)
    sir = sp.add_argument_group("epidemic", argument_default=argparse.SUPPRESS)
    sir.add_argument("--infection-prob", "--beta", dest="infection_probability", type=float,
                     help="per-contact transmission probability")
    sir.add_argument("--recovery-prob", "--gamma", dest="recovery_probability", type=float,
                     help="per-step recovery probability")
    sir.add_argument("--steps", type=int)
    sir.add_argument("--initial-infectious", type=int)
    sp.add_argument("--runs", type=int, default=100)
    sp.add_argument("--seed", type=seed, default=0)
    sp.add_argument("--curves-out", default=None)
    sp.add_argument("--trajectories-out", default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("evaluate", help="area between two saved mean-curve files")
    sp.add_argument("actual")
    sp.add_argument("candidate")
    sp.add_argument("--quadrature", choices=QUADRATURES, default=MetricsConfig.quadrature)
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
        return int(exc.code or 0)
    except ContactNetError as exc:
        code, message = exc.exit_code, exc
    except BrokenPipeError:  # the reader of stdout left, as `head` does: stop as a filter
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # drop what is unflushed
        return 141  # 128 + SIGPIPE, the status of a filter that SIGPIPE ends
    except (OSError, UnicodeDecodeError) as exc:  # unreadable input
        code, message = DataError.exit_code, exc
    except (TypeError, ValueError) as exc:
        code, message = ConfigError.exit_code, exc
    except MemoryError as exc:  # e.g. numpy refusing a huge --steps or --runs array
        code, message = ConfigError.exit_code, str(exc) or "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
