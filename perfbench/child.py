"""One repetition of one workload, in a fresh process.

Started by run.py with the spawn time on CLOCK_MONOTONIC, so set-up is timed
from process start, before gtsim is imported. Drives the public harness
calls (load_config, build_run_config, run_experiment or run_checks,
emit_outputs), checks the outputs and writes one JSON result file.

    python3 perfbench/child.py --root . --workload synth_tails --config cfg.json \
        --out outdir --result result.json --workers 1 --run-cpus 0,1 --spawned <t> [--trace]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--run-cpus", type=lambda v: {int(c) for c in v.split(",")},
                   required=True, help="CPUs a multi-worker run may use")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    src = os.path.abspath(os.path.join(args.root, "src"))
    sys.path.insert(0, src)
    import gtsim
    if not os.path.abspath(gtsim.__file__).startswith(src + os.sep):
        raise SystemExit(f"gtsim imported from {gtsim.__file__}, not from {src}")
    from gtsim import algorithms, harness, metrics

    import spans
    from workloads import WORKLOADS, check_outputs

    workload = WORKLOADS[args.workload]
    tracer = None
    run_sets = []
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        record_bytes = []
        traced_run = algorithms.run

        def run_counting_bytes(*a, **kw):
            rec = traced_run(*a, **kw)
            record_bytes.append(_record_nbytes(rec))
            return rec

        algorithms.run = run_counting_bytes
    if workload.name == "logistic_a9a":
        # the statistic check needs the per-run records, which run_experiment
        # reduces away; keep the run sets it builds
        run_set = metrics.RunSet

        def keep_run_set(*a, **kw):
            rs = run_set(*a, **kw)
            run_sets.append(rs)
            return rs

        metrics.RunSet = keep_run_set

    def call(name, fn, *a, **kw):
        return tracer.wrap(name, fn)(*a, **kw) if tracer else fn(*a, **kw)

    cfg = harness.load_config(args.config)
    run_cfg = harness.build_run_config(cfg, record_trace=workload.checks_only)
    t_setup = now()
    if args.workers > 1:
        # set-up ran pinned to one CPU; the pool workers fork from here
        os.sched_setaffinity(0, args.run_cpus)
    if workload.checks_only:
        reports = call("harness.run_checks", harness.run_checks, cfg)
        env = harness.ResultEnvelope(config=cfg.data, fingerprint=cfg.fingerprint, series={},
                                     run_summaries={}, check_reports=reports)
    else:
        env = call("harness.run_experiment", harness.run_experiment, cfg,
                   workers=args.workers, run_cfg=run_cfg)
    t_run = now()
    written = call("harness.emit", harness.emit_outputs, env, formats=workload.formats,
                   outdir=args.out)
    t_emit = now()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worker_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    with open(os.path.join(args.out, "envelope.json"), "rb") as fh:
        envelope_sha = hashlib.sha256(fh.read()).hexdigest()
    checks = [(name, bool(ok)) for name, ok in check_outputs(workload, env, run_cfg, run_sets)]
    runs = workload.runs(cfg.data)
    result = {
        "setup_s": t_setup - args.spawned,
        "run_s": t_run - t_setup,
        "wall_s": t_emit - args.spawned,
        "iterations": runs * cfg["experiment"]["T"],
        "peak_rss_mb": peak_rss_mb,
        "worker_peak_rss_mb": worker_rss_mb,
        "runs": runs,
        "aborted": len(env.aborted),
        "checks": checks,
        "envelope_sha256": envelope_sha,
        "output_bytes": sum(os.path.getsize(path) for path in written),
    }
    if tracer:
        result["spans"] = {
            name: {"total": s.total, "self": s.self_time, "calls": s.calls,
                   "durations": s.durations if name == "algorithms.run" else []}
            for name, s in tracer.stats.items()
        }
        result["record_bytes"] = sum(record_bytes)
        result["theorycheck_instances"] = sum(r.instances for r in env.check_reports)
        result["missing_spans"] = [name for name in workload.expected_spans
                                   if tracer.stat(name).calls == 0]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _record_nbytes(rec) -> int:
    """Array bytes of one trajectory record; every snapshot is one (n, d) model."""
    arrays = sum(v.nbytes for v in vars(rec).values() if hasattr(v, "nbytes"))
    return arrays + len(rec.snapshots) * rec.final_x.nbytes


if __name__ == "__main__":
    sys.exit(main())
