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
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

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
    "check_formats",
    "emit_outputs",
    "load_envelope",
]


class ConfigError(ValueError):
    """Schema violation; the message names the offending key path."""


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

_ALGORITHMS = ("gt_dsgd", "dsgd")
_TRAJECTORY_CHECKS = ("descent", "descent_pl", "consensus", "tracker")
# the trajectory checks whose lemmas hold for a constant step only
_CONSTANT_STEP_CHECKS = ("descent", "consensus", "tracker")


def _float(path, val, minimum=None, integer=False):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"'{path}' must be a number")
    if not (integer and isinstance(val, int) or abs(val) <= sys.float_info.max):
        raise ConfigError(f"'{path}' must be finite")  # NaN, an infinity, or an int beyond floats
    if integer:
        if int(val) != val:
            raise ConfigError(f"'{path}' must be an integer")
        val = int(val)
    else:
        val = float(val)
    if minimum is not None and val < minimum:
        raise ConfigError(f"'{path}' must be >= {minimum}")
    return val


_int = partial(_float, integer=True)


def _floats(path, val, positive=False, minimum=None):
    if not isinstance(val, list):
        raise ConfigError(f"'{path}' must be a list")
    for v in val:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"'{path}' entry {v!r} is not a number")
        if positive and not v > 0:
            raise ConfigError(f"'{path}' entry {v!r} must be > 0")
        if not abs(v) <= sys.float_info.max:
            raise ConfigError(f"'{path}' entry {v!r} must be finite")
        if minimum is not None and v < minimum:
            raise ConfigError(f"'{path}' entry {v!r} must be >= {minimum}")
    return [float(v) for v in val]


def _thresholds(path, val):
    """Positive numbers whose series names, formatted ``eps{:g}``, differ."""
    val = _floats(path, val, positive=True)
    first = {}
    for eps in val:
        name = f"eps{eps:g}"
        if name in first:
            raise ConfigError(f"'{path}' entries {first[name]!r} and {eps!r} both name the series {name}")
        first[name] = eps
    return val


def _scales(path, val, minimum):
    """A number, or a list of numbers (one per agent), each >= ``minimum``."""
    return _floats(path, val, minimum=minimum) if isinstance(val, list) else _float(path, val, minimum)


def _positive(path, val):
    val = _float(path, val)
    if not val > 0:
        raise ConfigError(f"'{path}' must be > 0")
    return val


def _probability(path, val, below_one=False):
    """A number in (0, 1], or in (0, 1) with ``below_one``."""
    val = _float(path, val)
    if not (0 < val < 1 if below_one else 0 < val <= 1):
        raise ConfigError(f"'{path}' must lie in (0, 1{')' if below_one else ']'}")
    return val


def _bool(path, val):
    if not isinstance(val, bool):
        raise ConfigError(f"'{path}' must be true or false")
    return val


def _str(path, val):
    if not isinstance(val, str):
        raise ConfigError(f"'{path}' must be a string")
    return val


def _choice(*options):
    def check(path, val):
        if val not in options:  # compares, never hashes: val may be a list
            raise ConfigError(f"'{path}' must be " + " or ".join(f"'{o}'" for o in options))
        return val
    return check


def _algorithms(path, val):
    if not isinstance(val, list) or not val:
        raise ConfigError(f"'{path}' must be a non-empty list")
    for a in val:
        if a not in _ALGORITHMS:
            raise ConfigError(f"'{path}' entry {a!r} is not one of {_ALGORITHMS}")
    return list(val)


_REQUIRED = object()

# section -> (required, tag key, tag default, {tag value: {key: spec}}); a
# section without a tag key has the one variant None. A key's spec is (type,
# default or _REQUIRED[, lower bound]), listed in the order values are checked.
_SCHEMA = {
    "experiment": (True, None, None, {None: {
        "name": (_str, "experiment"),
        "algorithms": (_algorithms, ["gt_dsgd"]),
        "thresholds": (_thresholds, []),
        "tail_statistic": (_choice("mse_to_opt", "running_stationarity"), "mse_to_opt"),
        "T": (_int, _REQUIRED, 0),
        "R": (_int, 1, 1),
        "master_seed": (_int, 0),
        # kept in the envelope's config, and no run reads it; the configs in
        # perfbench/workloads.py set it, until they drop it
        "record_stride": (_int, 1, 0),
        "output_dir": (_str, "out"),
    }}),
    "topology": (True, "kind", None, {
        **dict.fromkeys(("ring", "path", "complete"), {"n": (_int, _REQUIRED, 1), "seed": (_int, 0, 0)}),
        "erdos_renyi": {"n": (_int, _REQUIRED, 2), "seed": (_int, 0, 0), "p": (_probability, None),
                        "target_lambda": (partial(_probability, below_one=True), None),
                        "tol": (_positive, 0.05)},
        "matrix_csv": {"path": (_str, _REQUIRED)},
    }),
    "cost": (True, "kind", None, {
        "quadratic_synthetic": {"profile": (_choice("a", "b"), "a"), "d": (_int, _REQUIRED, 1),
                                "sparsity": (_probability, 0.1), "mu0": (_float, 0.1), "seed": (_int, 0, 0)},
        "logistic_libsvm": {"path": (_str, _REQUIRED), "eta": (_float, 0.1, 0.0),
                            "normalize": (_bool, False), "split_seed": (_int, 0, 0)},
        "quadratic_json": {"path": (_str, _REQUIRED)},
    }),
    "oracle": (True, "flavor", None, {
        "gaussian": {"s": (_scales, 1.0, 0.0)},
        "minibatch": {"batch_size": (_int, 1, 1)},
        "relaxed_subgaussian": {"s": (_float, 1.0, 0.0), "rho": (_float, 0.0, 0.0),
                                "eps_exponent": (_positive, 1.0)},
    }),
    "schedule": (True, "kind", None, {
        "constant": {"alpha": (_positive, _REQUIRED)},
        "inverse_time": {"a": (_positive, 1.0), "mu": (_positive, 1.0), "t0": (_float, 1.0, 0.0)},
    }),
    "init": (False, "kind", "zeros", {
        "zeros": {},
        "gaussian": {"scale": (_float, 1.0), "seed": (_int, 0, 0)},
    }),
    "checks": (False, None, None, {None: {
        "runs": (_int, 20, 1),
        **dict.fromkeys(_TRAJECTORY_CHECKS + ("noise",), (_bool, False)),
        "noise_samples": (_int, 100_000, 100_000),
    }}),
}


def _normalize_section(section, data, tag, tag_default, variants):
    if not isinstance(data, dict):
        raise ConfigError(f"'{section}' must be a table")
    # the kind is compared with each name, never hashed: it may be a list.
    # A section without a tag key reads None, its one variant's name
    kind = data.get(tag, tag_default)
    names = [name for name in variants if name == kind]
    if not names:
        *head, last = variants
        raise ConfigError(f"'{section}.{tag}' must be {', '.join(head)}{',' * (len(head) > 1)} or {last}")
    keys = variants[names[0]]
    out = {tag: names[0]} if tag else {}
    for key in data:
        if key != tag and key not in keys:
            raise ConfigError(f"unknown key '{section}.{key}'")
    for key, (_, default, *_) in keys.items():
        if default is _REQUIRED and key not in data:
            raise ConfigError(f"missing required key '{section}.{key}'")
    for key, (check, default, *minimum) in keys.items():
        val = data.get(key, default)
        out[key] = None if val is None and default is None else check(f"{section}.{key}", val, *minimum)
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, normalized experiment description."""

    data: dict

    def __getitem__(self, key):
        return self.data[key]

    @property
    def fingerprint(self) -> str:
        return config_fingerprint(self.data)


def _check_agent_count(data, n, source):
    """The rules that tie the oracle and the cost to the agent count ``n``,
    which ``source`` names in each error."""
    s = data["oracle"].get("s")
    if isinstance(s, list) and len(s) != n:
        raise ConfigError(f"'oracle.s' lists {len(s)} per-agent scales but {source}")
    if data["cost"].get("profile") == "b" and n % 5:
        raise ConfigError(f"'cost.profile' b needs a multiple of 5 agents but {source}")


def normalize_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a table/object")
    for key in raw:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown section '{key}'")
    for key, (required, *_) in _SCHEMA.items():
        if required and key not in raw:
            raise ConfigError(f"missing required section '{key}'")
    data = {}
    for section, (_, *spec) in _SCHEMA.items():
        data[section] = out = _normalize_section(section, raw.get(section, {}), *spec)
        if out.get("kind") == "erdos_renyi" and (out["p"] is None) == (out["target_lambda"] is None):
            raise ConfigError("'topology': erdos_renyi needs exactly one of 'p' or 'target_lambda'")
    n = data["topology"].get("n")
    if n is not None:  # a matrix_csv topology's count is known once it is read
        _check_agent_count(data, n, f"'topology.n' is {n}")
    if data["experiment"]["T"] < 1 and any(data["checks"][k] for k in _TRAJECTORY_CHECKS):
        raise ConfigError("'experiment.T' must be >= 1 when a trajectory check is enabled")
    if data["checks"]["noise"] and data["oracle"]["flavor"] == "minibatch":
        raise ConfigError("'checks.noise' needs a Gaussian or relaxed_subgaussian oracle, "
                          "not the minibatch flavor")
    if data["checks"]["noise"] and data["oracle"].get("rho", 0.0) > 0:
        raise ConfigError(f"'checks.noise' compares with closed forms that need 'oracle.rho' = 0, "
                          f"not {data['oracle']['rho']}")
    if data["schedule"]["kind"] != "constant":
        for k in _CONSTANT_STEP_CHECKS:
            if data["checks"][k]:
                raise ConfigError(f"'checks.{k}' is stated for a constant step-size, "
                                  f"but 'schedule.kind' is {data['schedule']['kind']}")
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
        import tomllib  # imported here: JSON configs never pay for it

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
        try:
            return costs.load_ensemble_json(c["path"])
        except costs.CostError as exc:
            raise ConfigError(f"'cost.path' {c['path']}: {exc}") from exc
    ds = datasets.load_libsvm(c["path"])
    if c["normalize"]:
        ds = datasets.maxabs_scale(ds)
    parts = datasets.split_uniform(ds, n, seed=c["split_seed"])
    del ds  # the parts hold copies; free the unsplit corpus before densifying
    return datasets.to_logistic_ensemble(parts, eta=c["eta"])


def build_oracle(cfg: ExperimentConfig):
    o = cfg["oracle"]
    if o["flavor"] == "minibatch":
        return noise.MinibatchOracle(batch_size=o["batch_size"])
    # the relaxed flavor is the Gaussian oracle with its rho and eps_exponent
    s = tuple(o["s"]) if isinstance(o["s"], list) else o["s"]
    return noise.GaussianOracle(s=s, rho=o.get("rho", 0.0), eps_exponent=o.get("eps_exponent", 1.0))


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
    _check_agent_count(cfg.data, w.n, f"the mixing matrix has {w.n} agents")
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
    # one dict per aborted run, in run order: algorithm, run_id, and the
    # RunAbort's iteration, agent, stage and message (error)
    aborted: list = field(default_factory=list)
    wall_clock: float = 0.0


# bytes of block buffers (models, noise, the engine's scratch and, at rho > 0,
# the oracle's global gradients, each (K, n, d) float64 per run, and with
# traces on the four (T, n, d) traces and three (K, n, d) trace stages) that
# one block of runs may hold
_BLOCK_BUDGET = 4 << 20


def _block_size(run_cfg) -> int:
    """Most runs one block may step: as many as the buffer budget allows."""
    n, d = run_cfg.x0.shape
    per_run = 4 * algorithms._BLOCK * n * d * 8
    if run_cfg.record_trace:
        per_run += (4 * run_cfg.T + 3 * algorithms._BLOCK) * n * d * 8
    return max(1, _BLOCK_BUDGET // per_run)


def _block_plan(R: int, n_algorithms: int, workers: int, size: int) -> list:
    """Each algorithm's runs 0..R-1 as contiguous ranges, in run order.

    The ranges are as few as blocks of at most ``size`` runs allow, then as
    many more as make the block count over all algorithms a whole number of
    rounds over the workers (while each block keeps a run); their sizes
    differ by at most one run, so every worker gets an equal share.
    """
    count = -(-R // size)
    while (n_algorithms * count) % workers and count < R:
        count += 1
    base, extra = divmod(R, count)
    bounds = [k * base + min(k, extra) for k in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _run_block(run_cfg, block):
    """The block's records in run order: one block record, or, if the block
    aborts, each run stepped again as a block of one, giving its record or
    its RunAbort.

    Outputs do not depend on the block size, so the runs that finish keep
    their records and each abort names its own run, iteration, agent and
    stage.
    """
    algorithm, seeds, run_ids = block
    try:
        return [algorithms.run(algorithm, run_cfg, seeds, run_ids)]
    except algorithms.RunAbort:
        pass
    out = []
    for seed, run_id in zip(seeds, run_ids):
        try:
            out.append(algorithms.run(algorithm, run_cfg, [seed], [run_id]))
        except algorithms.RunAbort as exc:
            out.append(exc)
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
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    start = time.perf_counter()
    exp = cfg["experiment"]
    if run_cfg is None:
        run_cfg = build_run_config(cfg)
    has_optimum = run_cfg.ensemble.optimum() is not None
    if exp["thresholds"] and exp["tail_statistic"] == "mse_to_opt" and not has_optimum:
        raise ConfigError(f"'experiment.tail_statistic' mse_to_opt needs a known optimum, and the "
                          f"{run_cfg.ensemble.kind} cost has none: use running_stationarity")
    R = exp["R"]
    plan = _block_plan(R, len(exp["algorithms"]), workers, _block_size(run_cfg))
    blocks = [(alg, [derive_run_seed(exp["master_seed"], alg, r) for r in ids], list(ids))
              for alg in exp["algorithms"] for ids in plan]
    if workers > 1:
        # imported here: one-worker runs never load the process pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(run_cfg,)) as pool:
            results = list(pool.map(_run_worker_block, blocks,
                                    chunksize=max(1, len(blocks) // (4 * workers))))
    else:
        results = [_run_block(run_cfg, b) for b in blocks]

    aborted = []
    per_alg = {alg: [] for alg in exp["algorithms"]}
    for (alg, _, _), block_results in zip(blocks, results):
        for res in block_results:
            if isinstance(res, algorithms.RunAbort):
                aborted.append({"algorithm": alg, "run_id": res.run_id, "iteration": res.iteration,
                                "agent": res.agent, "stage": res.stage, "error": str(res)})
            else:
                per_alg[alg].append(res)

    series = {}
    run_summaries = {}
    for alg, records in per_alg.items():
        if not records:
            continue
        rs = metrics.RunSet(records=records)
        summaries = {"R": rs.R, "T": rs.T}
        if has_optimum:
            mse = metrics.empirical_mse(rs)
            series[f"mse_{alg}"] = mse
            summaries["final_mse"] = float(mse.values[-1]) if mse.T else None
        for eps in exp["thresholds"]:
            tail = metrics.empirical_tail_probability(rs, exp["tail_statistic"], eps)
            series[f"tail_{alg}_eps{eps:g}"] = tail
        run_summaries[alg] = summaries

    return ResultEnvelope(
        config=cfg.data,
        fingerprint=cfg.fingerprint,
        series=series,
        run_summaries=run_summaries,
        partial=bool(aborted),
        aborted=aborted,
        wall_clock=time.perf_counter() - start,
    )


def run_checks(cfg: ExperimentConfig) -> list:
    """Run the enabled trajectory/noise checks from the [checks] section.

    The check runs are stepped in blocks, in run order, and each trajectory
    check takes a whole block record; the reports merge over the blocks. A
    run that aborts raises its RunAbort, the first in run order.
    """
    chk = cfg["checks"]
    exp = cfg["experiment"]
    run_cfg = build_run_config(cfg, record_trace=True)
    e, w = run_cfg.ensemble, run_cfg.w
    if chk["descent_pl"] and e.pl_constant() is None:
        raise ConfigError(f"'checks.descent_pl' needs a known PL constant mu, and the {e.kind} cost has none")
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
        per_name = {name: [] for name, _ in trajectory_checks}
        for ids in _block_plan(R, 1, 1, _block_size(run_cfg)):
            seeds = [derive_run_seed(exp["master_seed"], "check", r) for r in ids]
            results = _run_block(run_cfg, ("gt_dsgd", seeds, list(ids)))
            for res in results:
                if isinstance(res, algorithms.RunAbort):
                    raise res
            for name, fn in trajectory_checks:
                per_name[name].extend(fn(rec) for rec in results)
        for name, _ in trajectory_checks:
            reports.append(theorycheck.merge_reports(name, per_name[name]))

    if chk["noise"]:
        reports.append(
            theorycheck.check_noise_properties(
                run_cfg.oracle, e, [np.zeros(e.d)], samples=chk["noise_samples"],
                seed=int(exp["master_seed"]),
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _series_to_jsonable(s: metrics.MetricSeries):
    return {"name": s.name, "values": s.values.astype(float, copy=False).tolist(), "meta": s.meta}


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
        "worst_at": r.worst_at,
    }


def _report_from_jsonable(obj):
    return theorycheck.CheckReport(
        name=obj["name"],
        instances=obj["instances"],
        worst_slack=obj["worst_slack"],
        violations=[tuple(v) if isinstance(v, list) else v for v in obj["violations"]],
        deterministic=obj["deterministic"],
        details=obj["details"],
        worst_at=tuple(obj["worst_at"]) if obj.get("worst_at") is not None else None,
        runs=obj["details"].get("runs", 1),
    )


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
        check_reports=[_report_from_jsonable(r) for r in obj.get("check_reports", [])],
        partial=obj.get("partial", False),
        aborted=obj.get("aborted", []),
    )


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _series_csv(texts, row_heads) -> str:
    """A series' CSV text; ``row_heads`` are "\\n1,", "\\n2,", ..., at least one per text."""
    return "t,value" + "".join(chain.from_iterable(zip(row_heads, texts))) + "\n"


# json.dumps' spellings of the non-finite floats, keyed by their repr
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _envelope_json(env: ResultEnvelope, texts: dict) -> str:
    """``json.dumps(envelope_to_jsonable(env), indent=2, sort_keys=True)``,
    with each series' values list joined from its float texts.

    json's indent encoder is pure Python and formats one float at a time, so
    it writes the envelope with every values list empty, and each list is
    spliced in. "series" is the envelope's last key and "values" each
    series' last key, so each empty list ends its dumped object.
    """
    obj = envelope_to_jsonable(env)
    entries = []
    for name, entry in obj.pop("series").items():
        entry["values"] = []
        body = json.dumps(entry, indent=2, sort_keys=True).replace("\n", "\n    ")
        values = texts[name]
        if not np.isfinite(env.series[name].values).all():
            values = [_JSON_NONFINITE.get(t, t) for t in values]
        if values:
            body = body[:-len("[]\n    }")] + "[\n        " + ",\n        ".join(values) + "\n      ]\n    }"
        entries.append(f"{json.dumps(name)}: {body}")
    obj["series"] = {}
    head = json.dumps(obj, indent=2, sort_keys=True)
    series = "{\n    " + ",\n    ".join(entries) + "\n  }" if entries else "{}"
    return head[:-len("{}\n}")] + series + "\n}\n"


_FORMATS = ("csv", "json", "svg")


def check_formats(formats) -> None:
    """Raise ValueError naming each format that is not csv, json or svg."""
    unknown = [f for f in formats if f not in _FORMATS]
    if unknown:
        raise ValueError(f"unknown output format(s) {', '.join(map(repr, unknown))}; "
                         f"expected some of {', '.join(_FORMATS)}")


def emit_outputs(env: ResultEnvelope, formats=_FORMATS, outdir="out") -> list:
    """Write one CSV per metric series, the JSON envelope, and SVG charts.

    Returns the list of paths written. Output bytes are a pure function of
    the envelope contents.
    """
    check_formats(formats)
    os.makedirs(outdir, exist_ok=True)
    written = []
    texts = {}
    if "csv" in formats or "json" in formats:
        # each value's repr, made once for its CSV row and its JSON entry
        texts = {name: list(map(repr, s.values.astype(float, copy=False).tolist()))
                 for name, s in env.series.items()}
    if "csv" in formats:
        row_heads = [f"\n{t}," for t in range(1, max(map(len, texts.values()), default=0) + 1)]
        for name in sorted(env.series):
            path = os.path.join(outdir, f"{name}.csv")
            _write_text(path, _series_csv(texts[name], row_heads))
            written.append(path)
    if "json" in formats:
        path = os.path.join(outdir, "envelope.json")
        _write_text(path, _envelope_json(env, texts))
        written.append(path)
    if "svg" in formats:
        t_axis = {name: np.arange(1, s.T + 1, dtype=float) for name, s in env.series.items()}
        mse_series = {n: (t_axis[n], s.values) for n, s in sorted(env.series.items()) if n.startswith("mse_")}
        if mse_series:
            for log_y, suffix in ((False, ""), (True, "_log")):
                path = os.path.join(outdir, f"mse{suffix}.svg")
                _write_text(path, render_line_chart(mse_series, "empirical MSE", ylabel="mse", log_y=log_y))
                written.append(path)
        eps_groups = {}
        for name, s in sorted(env.series.items()):
            if name.startswith("tail_"):
                eps_groups.setdefault(s.meta.get("epsilon"), {})[name] = (t_axis[name], s.values)
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
