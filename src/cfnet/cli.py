"""Command line front end: run, trial and oracle-check subcommands."""

import argparse
import dataclasses
import sys

from . import harness, oracle
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
            # spliced into the flat format, '#' would start a comment and a line break a key
            if "#" in raw or "".join(raw.splitlines()) != raw:
                raise ConfigError(f"--{f.name.replace('_', '-')} cannot hold '#' "
                                  f"or a line break: {raw!r}")
            overrides.append(f"{f.name} = {raw}")
    if overrides:
        base = harness.config_to_text(config)
        config = harness.parse_config_text(base + "\n".join(overrides) + "\n")
    config.validate()
    return config


def _cmd_run(args) -> int:
    config = _resolve_config(args)
    result = harness.run_monte_carlo(config)
    written = harness.emit_outputs(result)
    for path in written:
        print(path)
    return _EXIT_OK


def _cmd_trial(args) -> int:
    config = _resolve_config(args)
    if args.trial_index < 0:
        raise ConfigError("--trial-index must be at least 0")
    snapshot_alpha = config.alpha_grid[0] if args.snapshot_alpha is None else args.snapshot_alpha
    seed = harness.trial_seed(config.master_seed, args.trial_index)
    trial = harness.run_trial(config, seed, snapshot_alpha=snapshot_alpha)
    result = harness.ExperimentResult(config=dataclasses.replace(config, realizations=1),
                                      trials=[trial])
    for path in harness.emit_outputs(result, trial_index=args.trial_index):
        print(path)
    return _EXIT_OK


def _cmd_oracle_check(args) -> int:
    """Certify the pipeline against brute force on the C2 instance family."""
    if args.instances < 1 or args.seed < 0:
        raise ConfigError("need --instances >= 1 and --seed >= 0")
    certificates = list(oracle.certify(args.seed, args.instances))
    ratios = [c.ratio for c in certificates]
    trace_ok = all(c.trace_error <= 1e-9 for c in certificates)
    quality_ok = not any(c.objective < c.optimum - 1e-9 * max(1.0, c.optimum)
                         for c in certificates)
    within = sum(r <= 1.25 for r in ratios) / len(ratios)
    print(f"oracle-check cut-consistency: {'PASS' if trace_ok else 'FAIL'}")
    print(f"oracle-check never-below-optimum: {'PASS' if quality_ok else 'FAIL'}")
    print(f"oracle-check worst spectral/optimal ratio: {max(ratios):.4f}")
    print(f"oracle-check within 1.25x of optimum: {within:.0%} of {len(ratios)} instances")
    return _EXIT_OK if trace_ok and quality_ok else _EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfnet",
        description="Seeded simulator of temporally smoothed subnetwork partitioning")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full Monte Carlo run from a config")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_trial = sub.add_parser("trial", help="single seeded trial with snapshot dumps")
    _add_config_flags(p_trial)
    p_trial.add_argument("--trial-index", type=int, default=0)
    p_trial.add_argument("--snapshot-alpha", type=float, default=None,
                         help="alpha branch to snapshot (default: first of the grid)")
    p_trial.set_defaults(func=_cmd_trial)

    p_oracle = sub.add_parser("oracle-check", help="small-instance certification suite")
    p_oracle.add_argument("--instances", type=int, default=25)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.set_defaults(func=_cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, our numerical-failure code
        return _EXIT_CONFIG if exc.code else _EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (ArithmeticError, RuntimeError, ValueError) as exc:   # LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
