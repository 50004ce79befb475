"""Command line front end: run, trial, sweep and oracle-check subcommands."""

import argparse
import dataclasses
import sys

import numpy as np

from . import harness, oracle
from .clustering import Partition, SpectralConfig, temporal_smoothed_partition
from .graph import sum_cut
from .harness import ConfigError, ExperimentConfig

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_NUMERICAL = 2
_EXIT_IO = 3


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    for f in dataclasses.fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, default=None, metavar="V",
                            help=f"override config field {f.name}")


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    config = harness.load_config(args.config) if args.config else ExperimentConfig()
    overrides = []
    for f in dataclasses.fields(ExperimentConfig):
        raw = getattr(args, f.name, None)
        if raw is not None:
            overrides.append(f"{f.name} = {raw}")
    if overrides:
        base = harness.config_to_text(config)
        config = harness.parse_config_text(base + "\n".join(overrides) + "\n")
    config.validate()
    return config


def _cmd_run(args) -> int:
    config = _resolve_config(args)
    result = harness.run_monte_carlo(config)
    written = harness.emit_outputs(result, config)
    for path in written:
        print(path)
    return _EXIT_OK


def _cmd_sweep(args) -> int:
    # convenience wrapper: require the grid explicitly, everything else as run
    if getattr(args, "alpha_grid", None) is None:
        raise ConfigError("sweep requires --alpha-grid")
    return _cmd_run(args)


def _cmd_trial(args) -> int:
    config = _resolve_config(args)
    if args.trial_index < 0:
        raise ConfigError("--trial-index must be at least 0")
    snapshot_alpha = None
    if args.snapshot_alpha is not None:
        try:
            snapshot_alpha = float(args.snapshot_alpha)
        except ValueError:
            raise ConfigError(
                f"--snapshot-alpha is not a number: {args.snapshot_alpha!r}") from None
    seed = harness.trial_seed(config.master_seed, args.trial_index)
    trial = harness.run_trial(config, seed, keep_snapshots=True,
                              snapshot_alpha=snapshot_alpha)
    single = dataclasses.replace(config, realizations=1)
    result = harness.ExperimentResult(config=single, trials=[trial])
    for path in harness.emit_outputs(result, single):
        print(path)
    return _EXIT_OK


def _cmd_oracle_check(args) -> int:
    """Certify the pipeline against brute force on the C2 instance family."""
    worst_ratio = 0.0
    trace_ok = quality_ok = True
    for graph_prev, graph_t, alpha, groups, seed in oracle.random_instances(
            args.seed, args.instances):
        spectral = temporal_smoothed_partition(
            graph_prev, graph_t, SpectralConfig(alpha=alpha, M=groups, seed=seed))
        _, best_obj = oracle.brute_force_best(graph_prev, graph_t, alpha, groups)
        spectral_obj = oracle.blended_objective(graph_prev, graph_t,
                                                spectral.vertex_labels, alpha)
        for labels in oracle.enumerate_partitions(graph_t.num_vertices, groups):
            part = Partition.from_vertex_labels(labels, groups, graph_t.anchor)
            direct = sum_cut(graph_t, part)
            via_trace = oracle.blended_objective(graph_prev, graph_t, labels, 1.0)
            if abs(direct - via_trace) > 1e-9 * max(1.0, abs(direct)):
                trace_ok = False
        if spectral_obj < best_obj - 1e-9 * max(1.0, best_obj):
            quality_ok = False
        ratio = spectral_obj / best_obj if best_obj > 0 else 1.0
        worst_ratio = max(worst_ratio, ratio)
    print(f"oracle-check cut-consistency: {'PASS' if trace_ok else 'FAIL'}")
    print(f"oracle-check never-below-optimum: {'PASS' if quality_ok else 'FAIL'}")
    print(f"oracle-check worst spectral/optimal ratio: {worst_ratio:.4f}")
    return _EXIT_OK if trace_ok and quality_ok else _EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfnet",
        description="Seeded simulator of temporally smoothed subnetwork partitioning")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full Monte Carlo run from a config")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo over an explicit alpha grid")
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_trial = sub.add_parser("trial", help="single seeded trial with snapshot dumps")
    _add_config_flags(p_trial)
    p_trial.add_argument("--trial-index", type=int, default=0)
    p_trial.add_argument("--snapshot-alpha", default=None,
                         help="alpha branch to snapshot (default: first of the grid)")
    p_trial.set_defaults(func=_cmd_trial)

    p_oracle = sub.add_parser("oracle-check", help="small-instance certification suite")
    p_oracle.add_argument("--instances", type=int, default=25)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.set_defaults(func=_cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (np.linalg.LinAlgError, ArithmeticError, RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
