"""Command-line front end.

Subcommands:
    test    Run one permutation test on two CSV files; JSON result on stdout.
    level   Type-I-error study over an experiment grid; results CSV.
    power   Power study over an experiment grid; results CSV.
    gen     Write synthetic datasets as CSV.

Exit codes: 0 success, 1 runtime error, 2 usage error; `test` exits 3 when
the null hypothesis is rejected, so shell scripts can branch on the outcome.
`level` and `power` exit 4 when some grid cells fail and others succeed (the
failures go to stderr, the successful rows to the results CSV) and 1 when
every cell fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import bench as bench_mod
from . import data as data_mod
from .bench import ExperimentSpec
from .permutation import METHODS, TestConfig, run_test


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nysmmd",
        description="Kernel two-sample testing with Nystrom-approximated MMD "
                    "permutation tests.")
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="run one two-sample test on two CSV files")
    test.add_argument("--x", required=True, help="CSV file with the first sample")
    test.add_argument("--y", required=True, help="CSV file with the second sample")
    test.add_argument("--has-header", action="store_true",
                      help="skip one header row in each CSV")
    test.add_argument("--alpha", type=float, default=0.05)
    test.add_argument("--permutations", type=int, default=199)
    test.add_argument("--method", default="nystrom-uniform",
                      choices=METHODS)
    test.add_argument("--landmarks", type=int, default=None,
                      help="feature count (landmarks, or RFF features); "
                           "defaults to ceil(sqrt(n))")
    test.add_argument("--bandwidth", type=float, default=None,
                      help="fixed kernel bandwidth (default: median heuristic)")
    test.add_argument("--seed", type=int, default=0)

    for name, regime_help in (("level", "type-I error study under the null"),
                              ("power", "power study under the alternative")):
        grid = sub.add_parser(name, help=regime_help)
        grid.add_argument("--spec", help="JSON experiment spec file")
        grid.add_argument("--dim", type=int, default=3)
        grid.add_argument("--rho1", type=float, default=0.5)
        grid.add_argument("--rho2", type=float, nargs="+", default=[0.63])
        grid.add_argument("--methods", default="nystrom-uniform",
                          help="comma-separated method names")
        grid.add_argument("--landmarks", default="32",
                          help="comma-separated feature counts")
        grid.add_argument("--sample-sizes", default="500",
                          help="comma-separated per-sample sizes")
        grid.add_argument("--alpha", type=float, default=0.05)
        grid.add_argument("--permutations", type=int, default=199)
        grid.add_argument("--repetitions", type=int, default=100)
        grid.add_argument("--seed", type=int, default=0)
        grid.add_argument("--output", default=None,
                          help="results CSV path (default: stdout)")

    gen = sub.add_parser("gen", help="write a synthetic dataset as CSV")
    gen.add_argument("--family", required=True,
                     choices=("correlated-gaussian", "mixture"))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--dim", type=int, default=3)
    gen.add_argument("--rho", type=float, default=0.5)
    gen.add_argument("--background", help="background pool CSV (mixture family)")
    gen.add_argument("--signal", help="signal pool CSV (mixture family)")
    gen.add_argument("--mix-fraction", type=float, default=0.2)
    gen.add_argument("--has-header", action="store_true")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True)
    return parser


def _cmd_test(args) -> int:
    x = data_mod.load_csv(args.x, args.has_header)
    y = data_mod.load_csv(args.y, args.has_header)
    n = x.shape[0] + y.shape[0]
    ell = args.landmarks if args.landmarks is not None else math.ceil(math.sqrt(n))
    method = METHODS[args.method](ell)
    config = TestConfig(alpha=args.alpha, n_permutations=args.permutations,
                        seed=args.seed, bandwidth=args.bandwidth,
                        keep_statistics=False)
    outcome = run_test(x, y, config, method)
    payload = outcome.to_dict()
    payload.update({"method": args.method, "alpha": args.alpha,
                    "permutations": args.permutations, "seed": args.seed,
                    "n_x": x.shape[0], "n_y": y.shape[0]})
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 3 if outcome.reject else 0


def _int_list(text: str) -> list[int]:
    return [int(part) for part in str(text).split(",") if part]


def _grid_spec(args) -> ExperimentSpec:
    if args.spec:
        with open(args.spec, encoding="utf-8") as handle:
            spec = ExperimentSpec.from_dict(json.load(handle))
        return spec if args.output is None else replace(spec, output=args.output)
    scenario = {"kind": "correlated-gaussian", "dim": args.dim, "rho1": args.rho1,
                "rho2": args.rho2 if len(args.rho2) > 1 else args.rho2[0]}
    return ExperimentSpec(
        scenario=scenario,
        methods=tuple(str(args.methods).split(",")),
        landmarks=tuple(_int_list(args.landmarks)),
        sample_sizes=tuple(_int_list(args.sample_sizes)),
        alpha=args.alpha, permutations=args.permutations,
        repetitions=args.repetitions, seed=args.seed, output=args.output)


def _cmd_grid(args, regime: str) -> int:
    spec = _grid_spec(args)
    estimates = bench_mod.estimate_rate(spec, regime)
    failures = [est for est in estimates if est.error is not None]
    for est in failures:
        print(f"cell method={est.method} ell={est.ell} n={est.n_x} "
              f"param={est.param}: {est.error}", file=sys.stderr)
    text = bench_mod.results_to_csv(estimates)
    if spec.output:
        with open(spec.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if not failures:
        return 0
    return 1 if len(failures) == len(estimates) else 4


def _cmd_gen(args) -> int:
    if args.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {args.seed}")
    if args.family == "correlated-gaussian":
        points = data_mod.sample_correlated_gaussians(args.n, args.dim, args.rho,
                                                      args.seed)
    else:
        if not args.background or not args.signal:
            print("mixture family needs --background and --signal pools",
                  file=sys.stderr)
            return 2
        background = data_mod.load_csv(args.background, args.has_header)
        signal = data_mod.load_csv(args.signal, args.has_header)
        points = data_mod.sample_mixture(background, signal, args.mix_fraction,
                                         args.n, args.seed)
    data_mod.write_csv(points, args.output)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_info:
        return exit_info.code if exit_info.code is not None else 2
    try:
        if args.command == "test":
            return _cmd_test(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_grid(args, "null" if args.command == "level" else "alternative")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
