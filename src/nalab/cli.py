"""Command-line front end.

Subcommands map onto the library surface: `space info` and `jacobi eval`
expose the model geometry and special functions, `weight check` runs one
weight-condition checker, `reproduce` runs a canonical experiment by id,
and `sweep` runs a config-driven parameter sweep.  Exit codes: 0 all
verdicts pass, 1 some verdict failed (reports are still written), 2 bad
usage or configuration, 70 an unexpected crash (traceback on stderr).

Reports land in the directory named by $NALAB_OUTDIR (default: cwd).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import traceback

import numpy as np

from .errors import ConfigError, NalabError
from .experiments import (
    CANONICAL_J_MAX,
    CANONICAL_N_MAX,
    CANONICAL_SEED,
    CHECKERS,
    ExperimentConfig,
    REPRODUCE_IDS,
    make_envelope,
    report_dir,
    run_checker,
    run_reproduce,
    run_sweep,
    write_json_report,
)
from .geometry import DEFAULT_SPACE, AnnularGrid, SpaceParams, ball_volume
from .specfun import JacobiParams, jacobi_phi_trace
from .weights import WeightSpec, materialize

# sysexits.h EX_SOFTWARE: an internal error, never a verdict or a usage code
EXIT_CRASH = 70


def _seed(args) -> int:
    return CANONICAL_SEED if args.seed is None else args.seed


def _space_from_args(args) -> SpaceParams:
    if args.sigma is not None or args.tau is not None:
        if args.sigma is None or args.tau is None:
            raise ConfigError("give both --sigma and --tau")
        return SpaceParams(args.sigma, args.tau)
    return SpaceParams.from_mk(args.m, args.k)


def _cmd_space_info(args) -> int:
    sp = _space_from_args(args)
    print(f"sigma        {sp.sigma:g}")
    print(f"tau          {sp.tau:g}")
    print(f"rho          {sp.rho:g}")
    print(f"growth rate  {sp.homogeneous_dim:g}  (large balls ~ exp(rate * r))")
    print(f"dimension    {sp.ell:g}  (small balls ~ r^dimension)")
    for r in (1, 5, 10):
        print(f"{f'V({r})':<13}{ball_volume(sp, r):.6e}")
    return 0


def _cmd_jacobi_eval(args) -> int:
    if args.step <= 0:
        raise ConfigError(f"--step must be positive, got {args.step}")
    if args.tmax < args.step:
        raise ConfigError(f"--tmax must be at least one step, got {args.tmax}")
    jp = JacobiParams(args.sigma, args.tau, complex(args.lambda_re, args.lambda_im))
    ts = np.arange(0.0, args.tmax + 0.5 * args.step, args.step)
    trace = jacobi_phi_trace(jp, ts)
    writer = csv.writer(sys.stdout)
    writer.writerow(["t", "phi_re", "phi_im", "abs_err"])
    for t, v, e in zip(trace.grid, trace.values, trace.err):
        writer.writerow([f"{t:.12g}", f"{v.real:.16g}", f"{v.imag:.16g}", f"{e:.3g}"])
    return 0


def _cmd_weight_check(args) -> int:
    text = args.spec
    if os.path.exists(text):
        with open(text) as fh:
            text = fh.read()
    spec = WeightSpec.from_json(text)
    grid = AnnularGrid(DEFAULT_SPACE, args.j_max)
    w = materialize(spec, grid)

    cond = args.condition
    # options left out fall back to the checker table's defaults
    given = {k: getattr(args, k) for k in ("p", "s", "eta", "alpha", "beta", "n_max")}
    params = {k: v for k, v in given.items() if v is not None}
    rep = run_checker(cond, w, params, _seed(args))
    env = make_envelope(f"weight-{cond}", _seed(args), [rep], weight=spec.to_json())
    path = os.path.join(report_dir(), f"weight-{cond}.json")
    write_json_report(env, path)
    slope = "" if rep.slope is None else f" slope={rep.slope:.4g}"
    print(f"{cond}: constant={rep.constant:.6g}{slope} verdict={rep.verdict} -> {path}")
    return 0 if rep.verdict != "fail" else 1


def _cmd_reproduce(args) -> int:
    code, path, env = run_reproduce(args.id, seed=_seed(args))
    for rep in env["reports"]:
        bits = [f"{rep['id']}: constant={rep['constant']:.6g}"]
        if rep["slope"] is not None:
            bits.append(f"slope={rep['slope']:.4g}")
        bits.append(f"verdict={rep['verdict']}")
        print("  ".join(bits))
    print(f"{env['id']}: verdict={env['verdict']} -> {path}")
    return code


def _cmd_sweep(args) -> int:
    with open(args.config) as fh:
        cfg = ExperimentConfig.from_json(fh.read())
    if args.seed is not None:
        # explicit CLI seed wins over the config block
        cfg.seed = args.seed
    code, (csv_path, json_path), env = run_sweep(cfg)
    print(
        f"{env['id']}: {len(env['cells'])} cells verdict={env['verdict']} "
        f"-> {csv_path}, {json_path}"
    )
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nalab",
        description="Numerical laboratory for weighted maximal operators "
        "on exponential-growth radial models and homogeneous trees.",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"seed for random test families (default {CANONICAL_SEED})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_space = sub.add_parser("space", help="model geometry utilities")
    space_sub = p_space.add_subparsers(dest="subcommand", required=True)
    p_info = space_sub.add_parser("info", help="print the derived exponents")
    p_info.add_argument("--m", type=int, default=2, help="first layer dimension")
    p_info.add_argument("--k", type=int, default=1, help="second layer dimension")
    p_info.add_argument("--sigma", type=float, default=None)
    p_info.add_argument("--tau", type=float, default=None)
    p_info.set_defaults(func=_cmd_space_info)

    p_jac = sub.add_parser("jacobi", help="special-function evaluation")
    jac_sub = p_jac.add_subparsers(dest="subcommand", required=True)
    p_eval = jac_sub.add_parser("eval", help="CSV trace of the eigenfunction")
    p_eval.add_argument("--sigma", type=float, required=True)
    p_eval.add_argument("--tau", type=float, required=True)
    p_eval.add_argument("--lambda-re", type=float, default=0.0)
    p_eval.add_argument("--lambda-im", type=float, default=0.0)
    p_eval.add_argument("--tmax", type=float, default=10.0)
    p_eval.add_argument("--step", type=float, default=0.1)
    p_eval.set_defaults(func=_cmd_jacobi_eval)

    p_weight = sub.add_parser("weight", help="weight-condition checkers")
    weight_sub = p_weight.add_subparsers(dest="subcommand", required=True)
    p_check = weight_sub.add_parser("check", help="run one condition checker")
    p_check.add_argument(
        "--spec", required=True, help="weight spec: JSON text or a path to it"
    )
    p_check.add_argument(
        "--condition",
        required=True,
        choices=[cid for cid, c in CHECKERS.items() if "f" not in c.params],
    )
    for name in ("p", "s", "eta", "alpha", "beta"):
        p_check.add_argument(
            f"--{name}", type=float, help="default: the checker's sweep default"
        )
    p_check.add_argument("--j-max", type=int, default=CANONICAL_J_MAX)
    p_check.add_argument("--n-max", type=int, default=CANONICAL_N_MAX)
    p_check.set_defaults(func=_cmd_weight_check)

    p_rep = sub.add_parser(
        "reproduce",
        help="run a canonical experiment",
        description="Known ids: " + ", ".join(REPRODUCE_IDS),
    )
    p_rep.add_argument("id", help="experiment identifier")
    p_rep.set_defaults(func=_cmd_reproduce)

    p_sweep = sub.add_parser("sweep", help="config-driven parameter sweep")
    p_sweep.add_argument("--config", required=True, help="path to a JSON config")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NalabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
