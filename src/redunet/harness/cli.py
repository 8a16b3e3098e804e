"""Command-line entry point.

One experiment per process. Subcommands:

    construct KIND       build a network from a config, emit all artifacts
    eval KIND ARCHIVE    re-evaluate an archived model on the kind's data
    augment-eval KIND ARCHIVE   as eval, plus the augmented test stack
    export-kernel ARCHIVE       dump layer-0 convolution kernels as CSVs
    selftest             oracle-equivalence checks and the speed benchmark

Exit codes: 0 success, 2 configuration, 3 data, 4 numerical.
"""

import argparse
import sys

import numpy as np

from .._freq import thread_count
from ..errors import EXIT_NUMERICAL, EXIT_OK, RedunetError, exit_code_for
from .config import KINDS, load_config
from .experiments import eval_experiment, export_kernels, run_experiment
from .selftest import run_selftest

_EXPERIMENT_COMMANDS = {"construct", "eval", "augment-eval"}
# config key -> (metavar, help) of the flag --key that overrides it
_OVERRIDE_FLAGS = {
    "seed": ("N", "base RNG seed"),
    "layers": ("L", "number of layers"),
    "eta": ("X", "layer step size"),
    "eps": ("X", "rate distortion precision"),
    "lambda": ("X", "membership sharpness"),
    "channels": ("C", "lifting channel count"),
    "stride": ("S", "augmentation shift stride"),
    "energy": ("E", "classifier energy threshold"),
}


def _add_common_flags(p):
    p.add_argument("--config", metavar="PATH", help="INI config file")
    p.add_argument("--out", metavar="DIR", default="redunet-out",
                   help="output directory (default: %(default)s)")
    # override values stay strings here; load_config casts and validates
    for key, (metavar, text) in _OVERRIDE_FLAGS.items():
        p.add_argument(f"--{key}", metavar=metavar, help=text)


def _overrides(args) -> dict:
    return {key: raw for key in _OVERRIDE_FLAGS if (raw := getattr(args, key)) is not None}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="redunet",
        description="Construct and evaluate rate-reduction networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    helps = {"construct": "build a network and emit its artifacts",
             "eval": "re-evaluate an archived model",
             "augment-eval": "re-evaluate including the augmented test set"}
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("kind", choices=KINDS, help="experiment kind")
        if name != "construct":
            p.add_argument("archive", help="model archive path")
        _add_common_flags(p)

    p = sub.add_parser("export-kernel", help="dump layer-0 kernels as CSVs")
    p.add_argument("archive", help="model archive path")
    p.add_argument("--out", metavar="DIR", default="redunet-out",
                   help="output directory (default: %(default)s)")

    p = sub.add_parser("selftest", help="run equivalence checks and the benchmark")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="also write selftest.csv here")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        thread_count()  # a bad REDUNET_THREADS exits before any work
        if args.command in _EXPERIMENT_COMMANDS:
            cfg = load_config(args.kind, args.config, _overrides(args))
            if args.command == "construct":
                metrics = run_experiment(cfg, args.out)
            else:
                metrics = eval_experiment(cfg, args.archive, args.out,
                                          augmented=args.command == "augment-eval")
            for name, value in metrics.items():
                print(f"{name} = {value:.17g}")
        elif args.command == "export-kernel":
            for path in export_kernels(args.archive, args.out):
                print(path)
        else:
            rows, failures = run_selftest(args.out)
            for name, value in rows:
                print(f"{name} = {value:.17g}")
            if failures:
                print("selftest failed: " + "; ".join(failures), file=sys.stderr)
                return EXIT_NUMERICAL
    except (RedunetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
