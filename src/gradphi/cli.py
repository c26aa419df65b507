"""Command-line entry point: one experiment per invocation.

Exit codes: 0 on success, 1 when an experiment flags a violated criterion,
2 on unknown subcommands, malformed configs, a `--threads` count below 1, or
`--threads` given to an experiment that runs on one thread.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from .harness import EXPERIMENTS, ConfigError, load_config, run_experiment


def _thread_count(text: str) -> int:
    """A `--threads` value: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"needs at least one thread, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradphi",
        description="Interface-dynamics experiments and diagnostics",
    )
    threaded = [name for name, fn in EXPERIMENTS.items()
                if "threads" in inspect.signature(fn).parameters]
    threads_help = (f"worker threads of {', '.join(threaded)} (results are "
                    "independent of this); the other experiments exit 2 on it")
    sub = parser.add_subparsers(dest="experiment")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="./out", help="output directory")
        p.add_argument("--threads", type=_thread_count, default=None, help=threads_help)
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    return parser


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unknown subcommands/flags already
        return int(exc.code) if exc.code else 0
    if not args.experiment:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = load_config(args.config)
        result = run_experiment(args.experiment, cfg, args.out,
                                seed=args.seed, threads=args.threads)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, ok in result.criteria.items():
        print(f"{result.name}: {name}: {'pass' if ok else 'FAIL'}")
    return 1 if result.flagged else 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
