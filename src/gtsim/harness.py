"""Experiment configuration, multi-seed orchestration, and persistence.

A config file (TOML or JSON) describes topology, costs, oracle, schedule,
and run counts. ``run_experiment`` executes R seeded runs per algorithm — in
order, on any number of worker processes, with byte-identical results — and
aggregates the tail/MSE series. Outputs are CSV series, a self-describing
JSON envelope, and deterministic SVG charts.

Unknown config keys are fatal: experiment definitions are meant to be
auditable, so typos must not pass silently.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import tomllib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import algorithms, costs, datasets, metrics, noise, theorycheck, topology
from .plotting import render_line_chart

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "save_config",
    "config_fingerprint",
    "derive_run_seed",
    "ResultEnvelope",
    "run_experiment",
    "run_checks",
    "emit_outputs",
    "load_envelope",
]


class ConfigError(ValueError):
    """Schema violation; the message names the offending key path."""


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

_ALGORITHMS = ("gt_dsgd", "dsgd")


def _expect(section, data, allowed, required):
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key '{section}.{key}'")
    for key in required:
        if key not in data:
            raise ConfigError(f"missing required key '{section}.{key}'")


def _num(section, data, key, default=None, minimum=None, integer=False):
    val = data.get(key, default)
    if val is None:
        return None
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"'{section}.{key}' must be a number")
    if integer:
        if int(val) != val:
            raise ConfigError(f"'{section}.{key}' must be an integer")
        val = int(val)
    else:
        val = float(val)
    if minimum is not None and val < minimum:
        raise ConfigError(f"'{section}.{key}' must be >= {minimum}")
    return val


def _normalize_experiment(data):
    _expect("experiment", data,
            {"name", "T", "R", "master_seed", "algorithms", "thresholds",
             "tail_statistic", "record_stride", "output_dir"},
            {"T"})
    algs = data.get("algorithms", ["gt_dsgd"])
    if not isinstance(algs, list) or not algs:
        raise ConfigError("'experiment.algorithms' must be a non-empty list")
    for a in algs:
        if a not in _ALGORITHMS:
            raise ConfigError(f"'experiment.algorithms' entry {a!r} is not one of {_ALGORITHMS}")
    thresholds = data.get("thresholds", [])
    if not isinstance(thresholds, list):
        raise ConfigError("'experiment.thresholds' must be a list")
    stat = data.get("tail_statistic", "mse_to_opt")
    if stat not in ("mse_to_opt", "running_stationarity"):
        raise ConfigError("'experiment.tail_statistic' must be 'mse_to_opt' or 'running_stationarity'")
    return {
        "name": str(data.get("name", "experiment")),
        "T": _num("experiment", data, "T", minimum=0, integer=True),
        "R": _num("experiment", data, "R", default=1, minimum=1, integer=True),
        "master_seed": _num("experiment", data, "master_seed", default=0, integer=True),
        "algorithms": list(algs),
        "thresholds": [float(x) for x in thresholds],
        "tail_statistic": stat,
        # kept in the envelope's config; experiment runs record no snapshots
        "record_stride": _num("experiment", data, "record_stride", default=1, minimum=0, integer=True),
        "output_dir": str(data.get("output_dir", "out")),
    }


def _normalize_topology(data):
    kind = data.get("kind")
    if kind in ("ring", "path", "complete"):
        _expect("topology", data, {"kind", "n", "seed"}, {"kind", "n"})
        return {"kind": kind,
                "n": _num("topology", data, "n", minimum=1, integer=True),
                "seed": _num("topology", data, "seed", default=0, integer=True)}
    if kind == "erdos_renyi":
        _expect("topology", data, {"kind", "n", "seed", "p", "target_lambda", "tol"}, {"kind", "n"})
        out = {"kind": kind,
               "n": _num("topology", data, "n", minimum=2, integer=True),
               "seed": _num("topology", data, "seed", default=0, integer=True),
               "p": _num("topology", data, "p"),
               "target_lambda": _num("topology", data, "target_lambda"),
               "tol": _num("topology", data, "tol", default=0.05)}
        if (out["p"] is None) == (out["target_lambda"] is None):
            raise ConfigError("'topology': erdos_renyi needs exactly one of 'p' or 'target_lambda'")
        return out
    if kind == "matrix_csv":
        _expect("topology", data, {"kind", "path"}, {"kind", "path"})
        return {"kind": kind, "path": str(data["path"])}
    raise ConfigError("'topology.kind' must be ring, path, complete, erdos_renyi, or matrix_csv")


def _normalize_cost(data):
    kind = data.get("kind")
    if kind == "quadratic_synthetic":
        _expect("cost", data, {"kind", "d", "profile", "sparsity", "mu0", "seed"}, {"kind", "d"})
        profile = data.get("profile", "a")
        if profile not in ("a", "b"):
            raise ConfigError("'cost.profile' must be 'a' or 'b'")
        return {"kind": kind,
                "d": _num("cost", data, "d", minimum=1, integer=True),
                "profile": profile,
                "sparsity": _num("cost", data, "sparsity", default=0.1),
                "mu0": _num("cost", data, "mu0", default=0.1),
                "seed": _num("cost", data, "seed", default=0, integer=True)}
    if kind == "logistic_libsvm":
        _expect("cost", data, {"kind", "path", "eta", "normalize", "split_seed"}, {"kind", "path"})
        return {"kind": kind,
                "path": str(data["path"]),
                "eta": _num("cost", data, "eta", default=0.1, minimum=0.0),
                "normalize": bool(data.get("normalize", False)),
                "split_seed": _num("cost", data, "split_seed", default=0, integer=True)}
    if kind == "quadratic_json":
        _expect("cost", data, {"kind", "path"}, {"kind", "path"})
        return {"kind": kind, "path": str(data["path"])}
    raise ConfigError("'cost.kind' must be quadratic_synthetic, logistic_libsvm, or quadratic_json")


def _normalize_oracle(data):
    flavor = data.get("flavor")
    if flavor == "gaussian":
        _expect("oracle", data, {"flavor", "s"}, {"flavor"})
        s = data.get("s", 1.0)
        if isinstance(s, list):
            s = [float(v) for v in s]
        else:
            s = float(s)
        return {"flavor": flavor, "s": s}
    if flavor == "minibatch":
        _expect("oracle", data, {"flavor", "batch_size"}, {"flavor"})
        return {"flavor": flavor,
                "batch_size": _num("oracle", data, "batch_size", default=1, minimum=1, integer=True)}
    if flavor == "relaxed_subgaussian":
        _expect("oracle", data, {"flavor", "s", "rho", "eps_exponent"}, {"flavor"})
        return {"flavor": flavor,
                "s": _num("oracle", data, "s", default=1.0, minimum=0.0),
                "rho": _num("oracle", data, "rho", default=0.0, minimum=0.0),
                "eps_exponent": _num("oracle", data, "eps_exponent", default=1.0)}
    raise ConfigError("'oracle.flavor' must be gaussian, minibatch, or relaxed_subgaussian")


def _normalize_schedule(data):
    kind = data.get("kind")
    if kind == "constant":
        _expect("schedule", data, {"kind", "alpha"}, {"kind", "alpha"})
        return {"kind": kind, "alpha": _num("schedule", data, "alpha")}
    if kind == "inverse_time":
        _expect("schedule", data, {"kind", "a", "mu", "t0"}, {"kind"})
        return {"kind": kind,
                "a": _num("schedule", data, "a", default=1.0),
                "mu": _num("schedule", data, "mu", default=1.0),
                "t0": _num("schedule", data, "t0", default=1.0)}
    raise ConfigError("'schedule.kind' must be constant or inverse_time")


def _normalize_init(data):
    kind = data.get("kind", "zeros")
    if kind == "zeros":
        _expect("init", data, {"kind"}, set())
        return {"kind": "zeros"}
    if kind == "gaussian":
        _expect("init", data, {"kind", "scale", "seed"}, set())
        return {"kind": "gaussian",
                "scale": _num("init", data, "scale", default=1.0),
                "seed": _num("init", data, "seed", default=0, integer=True)}
    raise ConfigError("'init.kind' must be zeros or gaussian")


_TRAJECTORY_CHECKS = ("descent", "descent_pl", "consensus", "tracker")


def _normalize_checks(data):
    _expect("checks", data,
            {"runs", "descent", "descent_pl", "consensus", "tracker",
             "noise", "noise_samples"},
            set())
    return {
        "runs": _num("checks", data, "runs", default=20, minimum=1, integer=True),
        "descent": bool(data.get("descent", False)),
        "descent_pl": bool(data.get("descent_pl", False)),
        "consensus": bool(data.get("consensus", False)),
        "tracker": bool(data.get("tracker", False)),
        "noise": bool(data.get("noise", False)),
        "noise_samples": _num("checks", data, "noise_samples", default=100_000,
                              minimum=100_000, integer=True),
    }


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, normalized experiment description."""

    data: dict

    def __getitem__(self, key):
        return self.data[key]

    @property
    def fingerprint(self) -> str:
        return config_fingerprint(self.data)


def normalize_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a table/object")
    known = {"experiment", "topology", "cost", "oracle", "schedule", "init", "checks"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown section '{key}'")
    for key in ("experiment", "topology", "cost", "oracle", "schedule"):
        if key not in raw:
            raise ConfigError(f"missing required section '{key}'")
    data = {
        "experiment": _normalize_experiment(raw["experiment"]),
        "topology": _normalize_topology(raw["topology"]),
        "cost": _normalize_cost(raw["cost"]),
        "oracle": _normalize_oracle(raw["oracle"]),
        "schedule": _normalize_schedule(raw["schedule"]),
        "init": _normalize_init(raw.get("init", {})),
        "checks": _normalize_checks(raw.get("checks", {})),
    }
    if data["experiment"]["T"] < 1 and any(data["checks"][k] for k in _TRAJECTORY_CHECKS):
        raise ConfigError("'experiment.T' must be >= 1 when a trajectory check is enabled")
    if data["checks"]["noise"] and data["oracle"]["flavor"] == "minibatch":
        raise ConfigError("'checks.noise' needs a Gaussian or relaxed_subgaussian oracle, "
                          "not the minibatch flavor")
    return ExperimentConfig(data=data)


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON or TOML config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if str(path).endswith(".json"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    else:
        try:
            raw = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"invalid TOML in {path}: {exc}") from exc
    return normalize_config(raw)


def save_config(cfg: ExperimentConfig, path) -> None:
    """Write the normalized config as canonical JSON."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(cfg.data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_fingerprint(data: dict) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def derive_run_seed(master_seed: int, algorithm: str, run_id: int) -> int:
    """Stable 64-bit run seed; guarantees independent, replayable streams."""
    digest = hashlib.blake2b(
        f"{master_seed}|{algorithm}|{run_id}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_topology(cfg: ExperimentConfig):
    t = cfg["topology"]
    if t["kind"] == "matrix_csv":
        return topology.load_matrix_csv(t["path"])
    if t["kind"] == "erdos_renyi":
        if t["target_lambda"] is not None:
            res = topology.tune_er_probability(t["n"], t["target_lambda"], t["tol"], seed=t["seed"])
            return res.matrix
        g = topology.generate_graph("erdos_renyi", t["n"], seed=t["seed"], p=t["p"])
        return topology.metropolis_hastings(g)
    g = topology.generate_graph(t["kind"], t["n"], seed=t["seed"])
    return topology.metropolis_hastings(g)


def build_ensemble(cfg: ExperimentConfig, n: int):
    """The cost ensemble of ``cfg`` for ``n`` agents (a JSON ensemble brings
    its own count)."""
    c = cfg["cost"]
    if c["kind"] == "quadratic_synthetic":
        return costs.make_synthetic_quadratics(
            n=n, d=c["d"], profile=c["profile"], sparsity=c["sparsity"],
            seed=c["seed"], mu0=c["mu0"],
        )
    if c["kind"] == "quadratic_json":
        return costs.load_ensemble_json(c["path"])
    ds = datasets.load_libsvm(c["path"])
    if c["normalize"]:
        ds = datasets.maxabs_scale(ds)
    parts = datasets.split_uniform(ds, n, seed=c["split_seed"])
    return datasets.to_logistic_ensemble(parts, eta=c["eta"])


def build_oracle(cfg: ExperimentConfig):
    o = cfg["oracle"]
    if o["flavor"] == "gaussian":
        s = tuple(o["s"]) if isinstance(o["s"], list) else o["s"]
        return noise.GaussianOracle(s=s)
    if o["flavor"] == "minibatch":
        return noise.MinibatchOracle(batch_size=o["batch_size"])
    return noise.RelaxedSubgaussianOracle(s=o["s"], rho=o["rho"], eps_exponent=o["eps_exponent"])


def build_schedule(cfg: ExperimentConfig):
    s = cfg["schedule"]
    if s["kind"] == "constant":
        return algorithms.ConstantStep(alpha=s["alpha"])
    return algorithms.InverseTimeStep(a=s["a"], mu=s["mu"], t0=s["t0"])


def build_x0(cfg: ExperimentConfig, n: int, d: int) -> np.ndarray:
    init = cfg["init"]
    if init["kind"] == "zeros":
        return np.zeros((n, d))
    rng = np.random.default_rng((init["seed"], 96321))
    return init["scale"] * rng.standard_normal((n, d))


def build_run_config(cfg: ExperimentConfig, record_trace: bool = False) -> algorithms.RunConfig:
    w = build_topology(cfg)
    e = build_ensemble(cfg, w.n)
    if e.n != w.n:
        raise ConfigError(f"the cost ensemble has {e.n} agents but the mixing matrix has {w.n}")
    return algorithms.RunConfig(
        w=w,
        ensemble=e,
        oracle=build_oracle(cfg),
        schedule=build_schedule(cfg),
        T=cfg["experiment"]["T"],
        x0=build_x0(cfg, w.n, e.d),
        record_trace=record_trace,
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass
class ResultEnvelope:
    """Self-describing result bundle; re-loadable and re-emittable.

    Wall-clock stats are kept in memory only, never serialized, so the
    on-disk envelope is a pure function of (config, master seed).
    """

    config: dict
    fingerprint: str
    series: dict                     # name -> MetricSeries
    run_summaries: dict
    check_reports: list = field(default_factory=list)
    partial: bool = False
    aborted: list = field(default_factory=list)
    wall_clock: float = 0.0


# bytes of block buffers (models, trackers and noise, each (K, n, d) float64
# per run, and with traces on the four (T, n, d) traces) that one block of
# runs may hold
_BLOCK_BUDGET = 4 << 20


def _block_size(run_cfg, jobs: int, workers: int) -> int:
    """Runs stepped together: as many as the buffer budget allows, and with
    several workers no more than the old per-message chunk of jobs."""
    n, d = run_cfg.x0.shape
    per_run = 3 * algorithms._BLOCK * n * d * 8
    if run_cfg.record_trace:
        per_run += 4 * run_cfg.T * n * d * 8
    size = max(1, _BLOCK_BUDGET // per_run)
    return size if workers == 1 else min(size, max(1, jobs // (4 * workers)))


def _run_block(run_cfg, block):
    """A block record, or the block run again one run at a time if it aborts.

    Outputs do not depend on the block size, so the runs that finish keep
    their records and each abort names its own iteration, agent and stage.
    """
    algorithm, seeds, run_ids = block
    try:
        return [algorithms.run(algorithm, run_cfg, seeds, run_ids)]
    except algorithms.RunAbort:
        pass
    out = []
    for seed, run_id in zip(seeds, run_ids):
        try:
            out.append(algorithms.run(algorithm, run_cfg, seed, run_id))
        except algorithms.RunAbort as exc:
            out.append(("abort", algorithm, run_id, str(exc)))
    return out


# A pool worker receives the shared RunConfig once, through the pool's
# initializer, so that blocks carry only (algorithm, seeds, run_ids).
_worker_run_cfg = None


def _init_worker(run_cfg):
    global _worker_run_cfg
    _worker_run_cfg = run_cfg


def _run_worker_block(block):
    return _run_block(_worker_run_cfg, block)


def run_experiment(cfg: ExperimentConfig, workers: int = 1,
                   run_cfg: algorithms.RunConfig | None = None) -> ResultEnvelope:
    """Execute R seeded runs per algorithm and aggregate the metric series.

    Run seeds derive from hash(master_seed, algorithm, run_id). Each
    algorithm's runs are stepped in contiguous blocks, in run order, and
    aggregated in run order after all workers join, so any worker count and
    block size yields an identical envelope.
    """
    start = time.perf_counter()
    exp = cfg["experiment"]
    if run_cfg is None:
        run_cfg = build_run_config(cfg)
    R = exp["R"]
    size = _block_size(run_cfg, len(exp["algorithms"]) * R, workers)
    blocks = [(alg, [derive_run_seed(exp["master_seed"], alg, r) for r in ids], ids)
              for alg in exp["algorithms"]
              for ids in (list(range(lo, min(lo + size, R))) for lo in range(0, R, size))]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(run_cfg,)) as pool:
            results = list(pool.map(_run_worker_block, blocks,
                                    chunksize=max(1, len(blocks) // (4 * workers))))
    else:
        results = [_run_block(run_cfg, b) for b in blocks]
    results = [res for block in results for res in block]

    aborted = []
    per_alg = {alg: [] for alg in exp["algorithms"]}
    for res in results:
        if isinstance(res, tuple) and res and res[0] == "abort":
            aborted.append({"algorithm": res[1], "run_id": res[2], "error": res[3]})
        else:
            per_alg[res.algorithm].extend(res.split())

    series = {}
    run_summaries = {}
    fingerprint = cfg.fingerprint
    for alg, records in per_alg.items():
        if not records:
            continue
        rs = metrics.RunSet(records=records, fingerprint=fingerprint)
        summaries = {"R": rs.R, "T": rs.T}
        try:
            mse = metrics.empirical_mse(rs)
            series[f"mse_{alg}"] = mse
            summaries["final_mse"] = float(mse.values[-1]) if mse.T else None
        except ValueError:
            pass  # optimum unknown: MSE series unavailable
        for eps in exp["thresholds"]:
            tail = metrics.empirical_tail_probability(rs, exp["tail_statistic"], eps)
            series[f"tail_{alg}_eps{eps:g}"] = tail
        run_summaries[alg] = summaries

    return ResultEnvelope(
        config=cfg.data,
        fingerprint=fingerprint,
        series=series,
        run_summaries=run_summaries,
        partial=bool(aborted),
        aborted=aborted,
        wall_clock=time.perf_counter() - start,
    )


def _check_block(run_cfg, seeds, run_ids):
    """The traced block record of the check runs; if the block aborts, its
    runs are stepped again one at a time and the first that aborts raises,
    with ``run_id`` set."""
    try:
        return algorithms.run("gt_dsgd", run_cfg, seeds, run_ids)
    except algorithms.RunAbort:
        for seed, run_id in zip(seeds, run_ids):
            try:
                algorithms.run("gt_dsgd", run_cfg, seed, run_id)
            except algorithms.RunAbort as exc:
                exc.run_id = run_id
                raise
        raise


def run_checks(cfg: ExperimentConfig) -> list:
    """Run the enabled trajectory/noise checks from the [checks] section.

    The check runs are stepped in blocks, in run order, and each trajectory
    check takes a whole block record; the reports merge over the blocks.
    """
    chk = cfg["checks"]
    exp = cfg["experiment"]
    run_cfg = build_run_config(cfg, record_trace=True)
    e, w = run_cfg.ensemble, run_cfg.w
    reports = []

    trajectory_checks = []
    if chk["descent"]:
        trajectory_checks.append(("descent", lambda rec: theorycheck.check_descent(rec, e)))
    if chk["descent_pl"]:
        trajectory_checks.append(("descent_pl", lambda rec: theorycheck.check_descent_pl(rec, e)))
    if chk["consensus"]:
        trajectory_checks.append(("consensus_bound", lambda rec: theorycheck.check_consensus_bound(rec, w, e)))
    if chk["tracker"]:
        trajectory_checks.append(("tracker_recursion", lambda rec: theorycheck.check_tracker_recursion(rec, w, e)))

    if trajectory_checks:
        R = chk["runs"]
        size = _block_size(run_cfg, R, 1)
        per_name = {name: [] for name, _ in trajectory_checks}
        for lo in range(0, R, size):
            run_ids = list(range(lo, min(lo + size, R)))
            seeds = [derive_run_seed(exp["master_seed"], "check", r) for r in run_ids]
            rec = _check_block(run_cfg, seeds, run_ids)
            for name, fn in trajectory_checks:
                per_name[name].append(fn(rec))
        for name, _ in trajectory_checks:
            reports.append(theorycheck.merge_reports(name, per_name[name]))

    if chk["noise"]:
        xs = [np.zeros(e.d)]
        n_avg = tuple(m for m in (4, 16) if m <= max(e.n, 16))
        reports.append(
            theorycheck.check_noise_properties(
                run_cfg.oracle, e, xs, samples=chk["noise_samples"],
                seed=int(exp["master_seed"]), n_avg=n_avg,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _series_to_jsonable(s: metrics.MetricSeries):
    return {"name": s.name, "values": [float(v) for v in s.values], "meta": s.meta}


def _series_from_jsonable(obj):
    return metrics.MetricSeries(name=obj["name"], values=np.array(obj["values"]), meta=obj.get("meta", {}))


def _report_to_jsonable(r: theorycheck.CheckReport):
    return {
        "name": r.name,
        "instances": r.instances,
        "worst_slack": r.worst_slack,
        "violations": [list(v) if isinstance(v, tuple) else v for v in r.violations],
        "deterministic": r.deterministic,
        "passed": r.passed,
        "details": r.details,
    }


def envelope_to_jsonable(env: ResultEnvelope) -> dict:
    return {
        "config": env.config,
        "fingerprint": env.fingerprint,
        "series": {k: _series_to_jsonable(s) for k, s in sorted(env.series.items())},
        "run_summaries": env.run_summaries,
        "check_reports": [_report_to_jsonable(r) for r in env.check_reports],
        "partial": env.partial,
        "aborted": env.aborted,
    }


def load_envelope(path) -> ResultEnvelope:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return ResultEnvelope(
        config=obj["config"],
        fingerprint=obj["fingerprint"],
        series={k: _series_from_jsonable(v) for k, v in obj["series"].items()},
        run_summaries=obj.get("run_summaries", {}),
        check_reports=[],
        partial=obj.get("partial", False),
        aborted=obj.get("aborted", []),
    )


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _series_csv(s: metrics.MetricSeries) -> str:
    lines = ["t,value"]
    for t, v in enumerate(s.values, start=1):
        lines.append(f"{t},{float(v)!r}")
    return "\n".join(lines) + "\n"


def emit_outputs(env: ResultEnvelope, formats=("csv", "json", "svg"), outdir="out") -> list:
    """Write one CSV per metric series, the JSON envelope, and SVG charts.

    Returns the list of paths written. Output bytes are a pure function of
    the envelope contents.
    """
    os.makedirs(outdir, exist_ok=True)
    written = []
    if "csv" in formats:
        for name, s in sorted(env.series.items()):
            path = os.path.join(outdir, f"{name}.csv")
            _write_text(path, _series_csv(s))
            written.append(path)
    if "json" in formats:
        path = os.path.join(outdir, "envelope.json")
        _write_text(path, json.dumps(envelope_to_jsonable(env), indent=2, sort_keys=True) + "\n")
        written.append(path)
    if "svg" in formats:
        t_axis = {name: list(range(1, s.T + 1)) for name, s in env.series.items()}
        mse_series = {n: (t_axis[n], list(s.values)) for n, s in sorted(env.series.items()) if n.startswith("mse_")}
        if mse_series:
            for log_y, suffix in ((False, ""), (True, "_log")):
                path = os.path.join(outdir, f"mse{suffix}.svg")
                _write_text(path, render_line_chart(mse_series, "empirical MSE", ylabel="mse", log_y=log_y))
                written.append(path)
        eps_groups = {}
        for name, s in sorted(env.series.items()):
            if name.startswith("tail_"):
                eps_groups.setdefault(s.meta.get("epsilon"), {})[name] = (t_axis[name], list(s.values))
        for eps, group in sorted(eps_groups.items(), key=lambda kv: (kv[0] is None, kv[0])):
            tag = f"eps{eps:g}" if eps is not None else "eps"
            for log_y, suffix in ((False, ""), (True, "_log")):
                path = os.path.join(outdir, f"tail_{tag}{suffix}.svg")
                _write_text(
                    path,
                    render_line_chart(group, f"empirical tail probability ({tag})",
                                      ylabel="tail probability", log_y=log_y),
                )
                written.append(path)
    return written
