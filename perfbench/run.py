"""gtsim benchmark: one workload, repeated in fresh processes for a time budget.

    python3 perfbench/run.py --workload synth_tails --seed 1 --seconds 20 --trace 0

With ``--trace 0`` each repetition is one untraced child process, and the
end-to-end metrics are medians over the repetitions, with times scaled to a
reference host speed (see end_to_end). With ``--trace 1`` each
repetition is an untraced child followed by a traced child at one worker,
and the per-layer metrics are medians over the traced children. Every child
checks its outputs, and every envelope.json must hash the same: across
repetitions, between traced and untraced children, and across worker counts.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Run it from the root of a gtsim
checkout; it writes only under perfbench/.work/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
MIN_REPS = 3
PROBE_CHUNKS = 9
# the time of one probe chunk at the reference host speed that end-to-end
# times are scaled to; about its median on the 2-vCPU x86_64 host the
# benchmark was built on, in a fast stretch
REFERENCE_CHUNK_S = 1.2e-3
CHILD_TIMEOUT_S = 60

sys.path.insert(0, HERE)
import corpus  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# BLAS and OpenMP pools stay at one thread, so with two workers the compute
# threads never outnumber the two cores
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _probe_s() -> float:
    """One probe chunk: a fixed interpreter loop of about a millisecond."""
    start = now()
    total = 0
    for i in range(20000):
        total += i * i
    return now() - start


def cpu_chunk_s(cpus) -> dict:
    """Median time of a fixed interpreter loop chunk on each CPU, now."""
    allowed = os.sched_getaffinity(0)
    chunk_s = {}
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            chunk_s[cpu] = statistics.median(_probe_s() for _ in range(PROBE_CHUNKS))
    finally:
        os.sched_setaffinity(0, allowed)
    return chunk_s


def spawn(workload, config_path, tag, workers, trace) -> dict:
    """Run one child to completion and return its result."""
    out = os.path.join(WORK, tag)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    result_path = os.path.join(WORK, f"{tag}.json")
    allowed = sorted(os.sched_getaffinity(0))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
           "--workload", workload.name, "--config", config_path, "--out", out,
           "--result", result_path, "--workers", str(workers),
           "--run-cpus", ",".join(map(str, allowed))]
    if trace:
        cmd.append("--trace")
    # On a shared host one CPU at a time can run far slower for seconds on
    # end while the other stays fast. The child starts pinned to the faster;
    # with several workers it allows them all CPUs once set-up is done.
    before = cpu_chunk_s(allowed)
    cpu = min(before, key=before.get)
    used = allowed if workers > 1 else [cpu]
    spawned = now()
    # own process group, so a timeout also ends the child's pool workers
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], env=CHILD_ENV,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload.name} child timed out after {CHILD_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"{workload.name} child exited with code {proc.returncode}")
    after = cpu_chunk_s(used)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    # the host's speed while the child ran, on the CPUs it ran on
    result["host_chunk_s"] = statistics.mean([before[c] for c in used] + [after[c] for c in used])
    return result


def outcomes(rep) -> list:
    """(name, passed) per attempted run and per output check of one child."""
    done = rep["runs"] - rep["aborted"]
    return ([("run", True)] * done + [("run aborted", False)] * rep["aborted"]
            + [(f"check {name}", ok) for name, ok in rep["checks"]])


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def end_to_end(reps) -> dict:
    """Medians over the repetitions, with times at the reference host speed.

    Neighbours on a shared host slow its CPUs by up to 1.6x for stretches
    longer than a run, which moves even a median over one run. So each
    repetition's times are scaled by REFERENCE_CHUNK_S over the probe chunk
    time measured on its CPUs just before and after it. A change to gtsim
    does not move the probe, so it moves the scaled times in full.
    """
    med = statistics.median

    def scale(r):
        return REFERENCE_CHUNK_S / r["host_chunk_s"]

    return {
        "setup_s": (med(r["setup_s"] * scale(r) for r in reps), "s"),
        "wall_s": (med(r["wall_s"] * scale(r) for r in reps), "s"),
        "traj_iters_per_s": (med(r["iterations"] / (r["run_s"] * scale(r)) for r in reps),
                             "1/s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in reps), "MB"),
    }


def unscaled(reps) -> dict:
    med = statistics.median
    return {
        "host probe chunk, median": (med(r["host_chunk_s"] for r in reps), "s"),
        "setup_s unscaled": (med(r["setup_s"] for r in reps), "s"),
        "wall_s unscaled": (med(r["wall_s"] for r in reps), "s"),
        "traj_iters_per_s unscaled": (med(r["iterations"] / r["run_s"] for r in reps), "1/s"),
    }


def _percentile_ms(durations, pct) -> float:
    if len(durations) < 2:
        return 1e3 * sum(durations)
    return 1e3 * statistics.quantiles(durations, n=10, method="inclusive")[pct // 10 - 1]


def per_layer(traced, untraced, workers) -> dict:
    """Per-layer metrics of one traced child, with its untraced partner."""
    spans = traced["spans"]

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    runs = spans.get("algorithms.run", {}).get("durations", [])
    m = {
        "topology.tune_s": (get("topology.tune", "total"), "s"),
        "topology.mh_calls": (get("topology.mh", "calls"), "count"),
        "topology.spectral_gap_s": (get("topology.spectral_gap", "total"), "s"),
        "datasets.parse_s": (get("datasets.parse", "total"), "s"),
        "datasets.split_s": (get("datasets.split", "total"), "s"),
        "datasets.densify_s": (get("datasets.densify", "total"), "s"),
    }
    for method in ("grad_global_all", "grad_all", "grad_batch"):
        m[f"costs.{method}_s"] = (get(f"costs.{method}", "total"), "s")
        m[f"costs.{method}_calls"] = (get(f"costs.{method}", "calls"), "count")
    m.update({
        "costs.value_global_s": (get("costs.value_global", "total"), "s"),
        "noise.sampler_s": (get("noise.sampler", "total"), "s"),
        "noise.sampler.self_s": (get("noise.sampler", "self"), "s"),
        "noise.noise_block_s": (get("noise.noise_block", "total"), "s"),
        "noise.noise_block_calls": (get("noise.noise_block", "calls"), "count"),
        "noise.noise_samples_s": (get("noise.noise_samples", "total"), "s"),
        "algorithms.run_s": (get("algorithms.run", "total"), "s"),
        "algorithms.run.self_s": (get("algorithms.run", "self"), "s"),
        "algorithms.run_ms_p50": (_percentile_ms(runs, 50), "ms"),
        "algorithms.run_ms_p90": (_percentile_ms(runs, 90), "ms"),
        "algorithms.runs": (get("algorithms.run", "calls"), "count"),
        "metrics.aggregate_s": (get("metrics.aggregate", "total"), "s"),
        "harness.run_experiment.self_s": (get("harness.run_experiment", "self"), "s"),
        "harness.record_bytes": (traced["record_bytes"], "B"),
        # serial trajectory time over the worker-seconds the untraced run had
        "harness.parallel_efficiency": (
            get("algorithms.run", "total") / (workers * untraced["run_s"]), "ratio"),
        "harness.worker_peak_rss_mb": (untraced["worker_peak_rss_mb"], "MB"),
        "harness.emit_s": (get("harness.emit", "total"), "s"),
        "harness.output_bytes": (traced["output_bytes"], "B"),
        "plotting.svg_s": (get("plotting.svg", "total"), "s"),
    })
    for check in ("descent", "descent_pl", "consensus", "tracker", "noise"):
        m[f"theorycheck.{check}_s"] = (get(f"theorycheck.{check}", "total"), "s")
    m["theorycheck.instances"] = (traced["theorycheck_instances"], "count")
    return m


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # a terminated benchmark unwinds, so spawn() still ends its running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "gtsim", "__init__.py")):
        print(f"no gtsim sources under {ROOT}/src: run from a gtsim checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    # bytecode exists before the first child, as it would for an installed package
    compileall.compile_dir(os.path.join(ROOT, "src", "gtsim"), quiet=1)
    compileall.compile_dir(HERE, maxlevels=0, quiet=1)
    corpus_path = None
    if workload.name == "logistic_a9a":
        corpus_path = os.path.join(WORK, "a9a.libsvm")
        corpus.write(args.seed, corpus_path)
    config_path = os.path.join(WORK, f"{workload.name}.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(workload.config(args.seed, corpus_path), fh, indent=2)
    env_info = environment()
    print("environment " + json.dumps(env_info, sort_keys=True))

    deadline = now() + args.seconds
    reps, traced_reps, layers, overheads, results = [], [], [], [], []
    longest = 0.0  # no repetition starts that would likely end past the deadline
    while len(reps) < (1 if args.trace else MIN_REPS) or now() + longest < deadline:
        started = now()
        rep = spawn(workload, config_path, "untraced", workload.workers, False)
        reps.append(rep)
        results += outcomes(rep)
        results.append(("envelope same in every repetition",
                        rep["envelope_sha256"] == reps[0]["envelope_sha256"]))
        if not args.trace:
            longest = max(longest, now() - started)
            continue
        traced = spawn(workload, config_path, "traced", 1, True)
        single = rep if workload.workers == 1 else spawn(
            workload, config_path, "untraced_w1", 1, False)
        traced_reps.append(traced)
        layers.append(per_layer(traced, rep, workload.workers))
        overheads.append(traced["wall_s"] - single["wall_s"])
        results += [(f"traced {name}", ok) for name, ok in outcomes(traced)]
        results.append((f"traced envelope same as untraced at {workload.workers} worker(s)",
                        traced["envelope_sha256"] == rep["envelope_sha256"]))
        results += [(f"span {name} recorded calls", name not in traced["missing_spans"])
                     for name in workload.expected_spans]
        longest = max(longest, now() - started)

    if args.trace:
        metrics = {name: (statistics.median(m[name][0] for m in layers), unit)
                   for name, (_, unit) in layers[0].items()}
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    else:
        metrics = end_to_end(reps)
    failures = sorted({name for name, ok in results if not ok})
    failed = sum(1 for _, ok in results if not ok)

    print(f"{workload.name} seed={args.seed} repetitions={len(reps)} "
          f"failed_ratio={failed / len(results):.4g} ({failed}/{len(results)})")
    table = dict(metrics) if args.trace else {**metrics, **unscaled(reps)}
    for name, (value, unit) in table.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for name in failures:
        print(f"  FAILED: {name}")
    with open(os.path.join(WORK, f"result_{workload.name}_trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"environment": env_info, "repetitions": reps, "traced": traced_reps}, fh,
                  indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
