"""Command-line interface.

Subcommands:

- ``run <config>``: execute an experiment and emit CSV/JSON/SVG outputs
- ``check <config>``: trajectory and noise checks only
- ``topo``: build a mixing matrix, print W and its gap, optionally save CSV
- ``calc transient|stepsize``: network-dependent calculators
- ``parse <libsvm-file>``: dataset statistics

Exit codes: 0 success, 1 config error, 2 failed deterministic check or
aborted check run, 3 I/O.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import algorithms, datasets, harness, metrics, topology

__all__ = ["main", "cli"]


def _build_parser():
    parser = argparse.ArgumentParser(prog="gtsim")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed-override", type=int, default=None)
    p_run.add_argument("--formats", default="csv,json,svg")

    p_check = sub.add_parser("check", help="run theory checks from a config")
    p_check.add_argument("config")
    p_check.add_argument("--seed-override", type=int, default=None)

    p_topo = sub.add_parser("topo", help="inspect a mixing matrix")
    p_topo.add_argument("--kind", required=True,
                        choices=["ring", "path", "complete", "erdos_renyi"])
    p_topo.add_argument("--n", type=int, required=True)
    p_topo.add_argument("--seed", type=int, default=0)
    p_topo.add_argument("--p", type=float, default=None)
    p_topo.add_argument("--target-lambda", type=float, default=None)
    p_topo.add_argument("--tol", type=float, default=0.05)
    p_topo.add_argument("--save", default=None, help="write the matrix as CSV")

    p_calc = sub.add_parser("calc", help="transient-time and step-size calculators")
    p_calc.add_argument("what", choices=["transient", "stepsize"])
    p_calc.add_argument("--nonconvex", action="store_true")
    p_calc.add_argument("--pl", action="store_true")
    p_calc.add_argument("--n", type=int, required=True)
    p_calc.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_calc.add_argument("--rho", type=float, default=0.0)
    p_calc.add_argument("--eps-exponent", type=float, default=1.0)
    p_calc.add_argument("--a", type=float, default=6.0)
    p_calc.add_argument("--T", type=int, default=10**12)
    p_calc.add_argument("--L", type=float, default=1.0)
    p_calc.add_argument("--mu", type=float, default=1.0)
    p_calc.add_argument("--sigma-sq", type=float, default=1.0)
    p_calc.add_argument("--sigma-max-sq", type=float, default=None)
    p_calc.add_argument("--d", type=int, default=1)

    p_parse = sub.add_parser("parse", help="parse a LIBSVM file and print stats")
    p_parse.add_argument("path")
    p_parse.add_argument("--split", type=int, default=None,
                         help="also report a uniform split across this many agents")
    p_parse.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    if args.seed_override is not None:
        data = dict(cfg.data)
        data["experiment"] = dict(data["experiment"], master_seed=args.seed_override)
        cfg = harness.ExperimentConfig(data=data)
    env = harness.run_experiment(cfg, workers=args.workers)
    outdir = args.out if args.out is not None else cfg["experiment"]["output_dir"]
    formats = tuple(f.strip() for f in args.formats.split(",") if f.strip())
    written = harness.emit_outputs(env, formats=formats, outdir=outdir)
    print(f"config {env.fingerprint[:12]} | wall clock {env.wall_clock:.2f}s")
    for path in written:
        print(f"wrote {path}")
    if env.partial:
        for info in env.aborted:
            print(f"ABORTED {info['algorithm']} run {info['run_id']}: {info['error']}")
        print("envelope marked partial")
    return 0


def _cmd_check(args) -> int:
    cfg = harness.load_config(args.config)
    if args.seed_override is not None:
        data = dict(cfg.data)
        data["experiment"] = dict(data["experiment"], master_seed=args.seed_override)
        cfg = harness.ExperimentConfig(data=data)
    try:
        reports = harness.run_checks(cfg)
    except algorithms.RunAbort as exc:
        print(f"ABORTED gt_dsgd run {exc.run_id}: {exc}", file=sys.stderr)
        return 2
    if not reports:
        print("no checks enabled in [checks]")
        return 0
    failed_deterministic = False
    for rep in reports:
        print(rep.summary())
        if not rep.passed and rep.deterministic:
            failed_deterministic = True
    return 2 if failed_deterministic else 0


def _cmd_topo(args) -> int:
    if args.kind == "erdos_renyi" and args.target_lambda is not None:
        res = topology.tune_er_probability(args.n, args.target_lambda, args.tol, seed=args.seed)
        m = res.matrix
        print(f"tuned p = {res.p:.6f} (converged: {res.converged}, "
              f"probe-mean range {res.lambda_range[0]:.4f}..{res.lambda_range[1]:.4f})")
    else:
        g = topology.generate_graph(args.kind, args.n, seed=args.seed, p=args.p)
        m = topology.metropolis_hastings(g)
    with np.printoptions(precision=6, suppress=True):
        print(m.w)
    print(f"lambda = {m.lam:.6f}")
    if args.save:
        topology.save_matrix_csv(m, args.save)
        print(f"wrote {args.save}")
    return 0


def _cmd_calc(args) -> int:
    if args.nonconvex == args.pl:
        raise harness.ConfigError("calc needs exactly one of --nonconvex or --pl")
    sigma_max_sq = args.sigma_max_sq if args.sigma_max_sq is not None else args.sigma_sq
    if args.what == "transient":
        if args.nonconvex:
            val = metrics.transient_time_nonconvex(args.n, args.lam, args.rho, args.eps_exponent)
        else:
            val = metrics.transient_time_pl(args.n, args.lam, args.a)
        print(f"{val:g}")
        return 0
    if args.nonconvex:
        res = algorithms.nonconvex_step_cap(
            n=args.n, T=args.T, L=args.L, lam=args.lam, sigma_sq=args.sigma_sq,
            sigma_max_sq=sigma_max_sq, d=args.d, rho=args.rho,
            eps_exponent=args.eps_exponent,
        )
        print(f"cap C = {res.cap:.6g}")
        print(f"recommended alpha = min(sqrt(n/T), C) = {res.alpha:.6g}")
        for name, val in res.terms.items():
            print(f"  {name}: {val:.6g}")
    else:
        res = algorithms.pl_t0_floor(
            n=args.n, lam=args.lam, a=args.a, L=args.L, mu=args.mu,
            sigma_sq=args.sigma_sq, sigma_max_sq=sigma_max_sq,
            rho=args.rho, eps_exponent=args.eps_exponent,
        )
        print(f"t0 floor = {res.t0:.6g}")
        for name, val in res.terms.items():
            print(f"  {name}: {val:.6g}")
    return 0


def _cmd_parse(args) -> int:
    ds = datasets.load_libsvm(args.path)
    pos = int(np.count_nonzero(ds.labels > 0))
    nnz = len(ds.values)
    print(f"samples: {ds.m}")
    print(f"features: {ds.d}")
    print(f"labels: +1 x {pos}, -1 x {ds.m - pos}")
    print(f"nonzeros: {nnz} ({nnz / max(ds.m, 1):.2f} per sample)")
    if args.split:
        parts = datasets.split_uniform(ds, args.split, seed=args.seed)
        print(f"split across {args.split} agents: sizes {[p.m for p in parts]}")
    return 0


def cli(argv=None) -> int:
    """Run the CLI; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handlers = {
        "run": _cmd_run,
        "check": _cmd_check,
        "topo": _cmd_topo,
        "calc": _cmd_calc,
        "parse": _cmd_parse,
    }
    try:
        return handlers[args.command](args)
    except (harness.ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
