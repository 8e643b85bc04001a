"""Command-line front-end: simulate, estimate, mc-study, oracle-check.

Exit codes: 0 ok, 1 I/O failure, 2 validation failure, 3 degenerate
estimation (no grid point produced a usable estimate).
"""

from __future__ import annotations

import argparse
import json
import sys

from .estimator import (
    DegenerateGridError,
    EstimatorConfig,
    RateSchedule,
    ScheduleError,
    estimate_grid,
    rate_exponents,
)
from .kernels import kernel_from_name
from .model import (
    DEFAULT_OMEGA,
    FrontierModel,
    ModelError,
    dump_json,
    evaluation_grid,
    field_range,
    load_model,
    sample,
    validate,
)
from .oracle import oracle_report
from .study import (
    DatasetFormatError,
    StudyConfig,
    read_dataset,
    run_study,
    write_dataset,
    write_estimates,
    write_report,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_valid_model(path) -> FrontierModel:
    model = load_model(path)
    report = validate(model)
    if not report.ok:
        names = ", ".join(c.name for c in report.failures)
        worst = "; ".join(
            f"{c.name}: worst value {c.worst_value:.6g} at {c.worst_point}" for c in report.failures
        )
        raise ModelError(f"model validation failed ({names}) -- {worst}")
    return model


def _cmd_simulate(args) -> int:
    model = _load_valid_model(args.model)
    smpl = sample(model, args.n, args.seed)
    write_dataset(smpl, args.out)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    smpl = read_dataset(args.data)
    kernel = kernel_from_name(args.kernel, smpl.dimension)
    config = EstimatorConfig(p=args.p, h=args.h, kernel=kernel, a=args.a)
    omega = tuple(args.omega) if args.omega else DEFAULT_OMEGA
    grid = evaluation_grid(omega, smpl.dimension, args.grid)
    records = estimate_grid(smpl, grid, config)
    write_estimates(records, args.out)
    if not any(r.ok for r in records):
        raise DegenerateGridError(f"all {len(records)} grid points failed")
    return EXIT_OK


def _build_schedule(args, model: FrontierModel) -> RateSchedule:
    alpha_bar = args.alpha_bar if args.alpha_bar is not None else field_range(model.alpha)[1]
    c1, c2 = rate_exponents(model.dimension, model.eta_g, alpha_bar)
    c1 = args.c1 if args.c1 is not None else c1
    c2 = args.c2 if args.c2 is not None else c2
    return RateSchedule(
        c1=c1, c2=c2, d=model.dimension, eta_g=model.eta_g, alpha_bar=alpha_bar, k1=args.k1, k2=args.k2
    )


def _cmd_mc_study(args) -> int:
    model = _load_valid_model(args.model)
    sizes = tuple(int(s) for s in args.sizes.split(","))
    config = StudyConfig(
        sizes=sizes,
        replications=args.reps,
        schedule=_build_schedule(args, model),
        grid_per_axis=args.grid,
        base_seed=args.seed,
        a=args.a,
        kernel_profile=kernel_from_name(args.kernel, model.dimension).profile,
    )
    report, timing = run_study(model, config, workers=args.workers)
    write_report(report, timing, args.out)
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    model = _load_valid_model(args.model)
    report = oracle_report(model)
    dump_json(report, args.out)
    status = "all checks passed" if report["passed"] else "some checks FAILED (see report)"
    print(f"oracle check: {status} -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontier-moments",
        description="Frontier estimation from high-order kernel moments: simulation, estimation, studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a dataset from a model file")
    sim.add_argument("--model", required=True, help="model specification JSON")
    sim.add_argument("--n", type=int, required=True, help="sample size")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output dataset CSV")
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="estimate the frontier on a dataset file")
    est.add_argument("data", help="dataset CSV (header x_1..x_d,y)")
    est.add_argument("--p", type=float, required=True, help="moment power")
    est.add_argument("--h", type=float, required=True, help="bandwidth")
    est.add_argument("--a", type=float, default=1.0, help="order multiplier (default 1)")
    est.add_argument("--kernel", default="epanechnikov")
    est.add_argument("--grid", type=int, default=101, help="grid points per axis")
    est.add_argument("--omega", type=float, nargs=2, metavar=("LO", "HI"), default=None)
    est.add_argument("--out", required=True, help="output estimates CSV")
    est.set_defaults(func=_cmd_estimate)

    mc = sub.add_parser("mc-study", help="Monte-Carlo convergence study")
    mc.add_argument("--model", required=True)
    mc.add_argument("--sizes", required=True, help="comma-separated increasing sample sizes")
    mc.add_argument("--reps", type=int, default=20)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--c1", type=float, default=None, help="power exponent (default: optimal)")
    mc.add_argument("--c2", type=float, default=None, help="bandwidth exponent (default: optimal)")
    mc.add_argument("--k1", type=float, default=0.5)
    mc.add_argument("--k2", type=float, default=1.0)
    mc.add_argument("--alpha-bar", type=float, default=None, help="tail exponent bound (default: grid max of alpha)")
    mc.add_argument("--a", type=float, default=1.0)
    mc.add_argument("--kernel", default="epanechnikov")
    mc.add_argument("--grid", type=int, default=101)
    mc.add_argument("--workers", type=int, default=1)
    mc.add_argument("--out", required=True, help="output report JSON")
    mc.set_defaults(func=_cmd_mc_study)

    oc = sub.add_parser("oracle-check", help="run the oracle self-check suite on a model")
    oc.add_argument("--model", required=True)
    oc.add_argument("--out", required=True, help="output diagnostics JSON")
    oc.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DatasetFormatError as err:
        return _fail(str(err), EXIT_IO)
    except OSError as err:
        # a missing or unwritable path, a full disk
        return _fail(str(err), EXIT_IO)
    except json.JSONDecodeError as err:
        return _fail(f"malformed JSON: {err}", EXIT_IO)
    except (ModelError, ScheduleError, ValueError, NotImplementedError) as err:
        # NotImplementedError: a valid model outside what the command supports (oracle-check with d > 2)
        return _fail(str(err), EXIT_VALIDATION)
    except DegenerateGridError as err:
        return _fail(str(err), EXIT_DEGENERATE)


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
