"""Command-line front end.

Subcommands:
    test    Run one permutation test on two CSV files; JSON result on stdout.
    level   Type-I-error study over an experiment grid; results CSV.
    power   Power study over an experiment grid; results CSV.
    gen     Write synthetic datasets as CSV.

`level` and `power` lay each given flag over its key of the --spec file or of
`_BASE_GRID`, check the grid with `ExperimentSpec.from_dict` and take every
other default from `ExperimentSpec`, the scenario and `TestConfig`.  Only
`level` and `power` import the grid harness `nysmmd.bench`, so `test` and
`gen` load no more than their own path.

Exit codes: 0 success, 1 runtime error (a warning made an error by
`python -W error` included), 2 usage error; `test` exits 3 when
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
from contextlib import nullcontext
from dataclasses import fields

from . import data as data_mod
from .permutation import METHODS, TestConfig, run_test

_BASE_GRID = {"scenario": {"kind": "correlated-gaussian", "rho2": 0.63},
              "methods": ["nystrom-uniform"], "landmarks": [32], "sample_sizes": [500]}


def _numbers(text: str) -> list:
    try:  # JSON values, which from_dict checks as it does a spec file's
        return json.loads(f"[{text}]")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}") from None


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
    test.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    test.add_argument("--permutations", dest="n_permutations", type=int,
                      default=argparse.SUPPRESS)
    test.add_argument("--method", default="nystrom-uniform",
                      choices=METHODS)
    test.add_argument("--landmarks", type=int, default=None,
                      help="feature count: landmark draws ell, of which the "
                           "r whose kernel matrix is certified invertible are "
                           "kept, or RFF features; defaults to ceil(sqrt(n))")
    test.add_argument("--bandwidth", type=float, default=argparse.SUPPRESS,
                      help="fixed kernel bandwidth (default: median heuristic)")
    test.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    for name, regime_help in (("level", "type-I error study under the null"),
                              ("power", "power study under the alternative")):
        grid = sub.add_parser(
            name, help=regime_help, argument_default=argparse.SUPPRESS,
            description=f"Each flag given replaces its key of the --spec file or of "
                        f"{json.dumps(_BASE_GRID)}; unset keys take the defaults "
                        "of ExperimentSpec, the scenario and TestConfig.")
        grid.add_argument("--spec", help="JSON experiment spec file")
        grid.add_argument("--dim", type=int, help="scenario key dim")
        grid.add_argument("--rho1", type=float, help="scenario key rho1")
        grid.add_argument("--rho2", type=float, nargs="+", help="scenario key rho2")
        grid.add_argument("--methods", type=lambda text: text.split(","),
                          help="comma-separated method names")
        grid.add_argument("--landmarks", type=_numbers,
                          help="comma-separated feature counts (landmark draws "
                               "ell, or RFF features)")
        grid.add_argument("--sample-sizes", type=_numbers,
                          help="comma-separated per-sample sizes")
        grid.add_argument("--alpha", type=float)
        grid.add_argument("--permutations", type=int)
        grid.add_argument("--repetitions", type=int)
        grid.add_argument("--seed", type=int)
        grid.add_argument("--output", help="results CSV path (default: stdout)")

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
    given = {field.name for field in fields(TestConfig)} & set(vars(args))
    config = TestConfig(keep_statistics=False,
                        **{key: getattr(args, key) for key in given})
    outcome = run_test(x, y, config, method)
    payload = outcome.to_dict()
    payload.update({"method": args.method, "alpha": config.alpha,
                    "permutations": config.n_permutations, "seed": config.seed,
                    "n_x": x.shape[0], "n_y": y.shape[0]})
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 3 if outcome.reject else 0


def _grid_spec(args):
    """The ExperimentSpec of a `level` or `power` invocation."""
    from .bench import ExperimentSpec

    flags = dict(vars(args))  # only the flags given
    del flags["command"]
    raw = _BASE_GRID
    if "spec" in flags:
        with open(flags.pop("spec"), encoding="utf-8") as handle:
            raw = json.load(handle)
    scenario = {key: flags.pop(key) for key in ("dim", "rho1", "rho2") if key in flags}
    if isinstance(raw, dict):  # from_dict names any other value
        raw = {**raw, **flags}
        if isinstance(raw.get("scenario"), dict):
            raw["scenario"] = {**raw["scenario"], **scenario}
    return ExperimentSpec.from_dict(raw)


def _cmd_grid(args, regime: str) -> int:
    from . import bench as bench_mod

    spec = _grid_spec(args)
    # an output path that cannot be opened fails before the grid runs, and an
    # existing file is emptied only once the grid has run
    with (open(spec.output, "a", encoding="utf-8") if spec.output
          else nullcontext(sys.stdout)) as handle:
        estimates = bench_mod.estimate_rate(spec, regime)
        failures = [est for est in estimates if est.error is not None]
        for est in failures:
            print(f"cell method={est.method} ell={est.ell} n={est.n_x} "
                  f"param={est.param}: {est.error}", file=sys.stderr)
        if spec.output:
            handle.truncate(0)  # opened to append, so the write lands at 0
        handle.write(bench_mod.results_to_csv(estimates))
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
    except (ValueError, OSError, Warning) as exc:  # a warning raised under -W error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
