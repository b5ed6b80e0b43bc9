"""The benchmark's workloads: a gtsim config per seed, a worker count, the
spans a traced run must hit, and the checks on the outputs.

The workload seed sets the master seed (and, for logistic_a9a, the corpus).
Graph, cost and split seeds stay fixed, so every seed does the same amount of
work; README.md says why each workload was chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# spans every run_experiment workload hits
_RUN_SPANS = (
    "topology.mh", "topology.spectral_gap", "costs.grad_global_all", "costs.value_global",
    "noise.sampler", "algorithms.run", "metrics.aggregate", "harness.run_experiment",
    "harness.emit", "plotting.svg",
)


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    checks_only: bool  # run_checks instead of run_experiment
    expected_spans: tuple
    formats: tuple = ("csv", "json", "svg")

    def config(self, seed: int, corpus: str | None) -> dict:
        return _CONFIGS[self.name](seed, corpus)

    def runs(self, cfg: dict) -> int:
        """Trajectories one repetition runs: algorithms x R, or the check runs."""
        if self.checks_only:
            return cfg["checks"]["runs"]
        return len(cfg["experiment"]["algorithms"]) * cfg["experiment"]["R"]


def _synth_tails(seed, corpus):
    # configs/fig1_synthetic_tails.toml at a smaller R and T
    return {
        "experiment": {"name": "synth_tails", "T": 3000, "R": 8, "master_seed": seed,
                       "algorithms": ["gt_dsgd", "dsgd"], "thresholds": [0.01, 0.001],
                       "tail_statistic": "mse_to_opt", "record_stride": 0},
        "topology": {"kind": "ring", "n": 10},
        "cost": {"kind": "quadratic_synthetic", "d": 10, "profile": "a", "sparsity": 0.1,
                 "mu0": 0.5, "seed": 42},
        "oracle": {"flavor": "gaussian", "s": 3.0},
        "schedule": {"kind": "inverse_time", "a": 1.0, "mu": 1.0, "t0": 1.0},
    }


def _speedup_n50_w2(seed, corpus):
    # configs/fig2_synthetic_speedup_n50.toml at a smaller R
    return {
        "experiment": {"name": "speedup_n50_w2", "T": 1500, "R": 16, "master_seed": seed,
                       "algorithms": ["gt_dsgd"], "thresholds": [0.01, 0.001],
                       "tail_statistic": "mse_to_opt", "record_stride": 0},
        "topology": {"kind": "erdos_renyi", "n": 50, "seed": 7, "target_lambda": 0.9,
                     "tol": 0.05},
        "cost": {"kind": "quadratic_synthetic", "d": 10, "profile": "b", "sparsity": 0.1,
                 "mu0": 1.0, "seed": 5},
        "oracle": {"flavor": "gaussian", "s": 1.0},
        "schedule": {"kind": "inverse_time", "a": 1.0, "mu": 1.0, "t0": 1.0},
    }


def _logistic_a9a(seed, corpus):
    # configs/fig4_real_speedup_n50.toml on the generated corpus, at a small R and T
    return {
        "experiment": {"name": "logistic_a9a", "T": 12, "R": 2, "master_seed": seed,
                       "algorithms": ["gt_dsgd"], "thresholds": [0.01, 0.003],
                       "tail_statistic": "running_stationarity", "record_stride": 0},
        "topology": {"kind": "erdos_renyi", "n": 50, "seed": 11, "target_lambda": 0.6,
                     "tol": 0.05},
        "cost": {"kind": "logistic_libsvm", "path": corpus, "eta": 0.1, "normalize": False,
                 "split_seed": 0},
        "oracle": {"flavor": "minibatch", "batch_size": 1},
        "schedule": {"kind": "constant", "alpha": 0.1},
    }


def _pathwise_checks(seed, corpus):
    # configs/check_pathwise.toml with the workload seed as master seed
    return {
        "experiment": {"name": "check_pathwise", "T": 300, "R": 1, "master_seed": seed,
                       "algorithms": ["gt_dsgd"], "thresholds": [],
                       "tail_statistic": "mse_to_opt", "record_stride": 0},
        "topology": {"kind": "path", "n": 3},
        "cost": {"kind": "quadratic_synthetic", "d": 4, "profile": "a", "sparsity": 0.1,
                 "mu0": 0.1, "seed": 1},
        "oracle": {"flavor": "gaussian", "s": 0.5},
        "schedule": {"kind": "constant", "alpha": 0.008},
        "init": {"kind": "gaussian", "scale": 1.0, "seed": 2},
        "checks": {"runs": 20, "descent": True, "descent_pl": True, "consensus": True,
                   "tracker": True, "noise": True, "noise_samples": 100000},
    }


_CONFIGS = {
    "synth_tails": _synth_tails,
    "speedup_n50_w2": _speedup_n50_w2,
    "logistic_a9a": _logistic_a9a,
    "pathwise_checks": _pathwise_checks,
}

WORKLOADS = {
    "synth_tails": Workload(
        "synth_tails", 1, False, _RUN_SPANS + ("costs.grad_all", "noise.noise_block")),
    "speedup_n50_w2": Workload(
        "speedup_n50_w2", 2, False,
        _RUN_SPANS + ("topology.tune", "costs.grad_all", "noise.noise_block")),
    "logistic_a9a": Workload(
        "logistic_a9a", 1, False,
        _RUN_SPANS + ("topology.tune", "datasets.parse", "datasets.split", "datasets.densify",
                      "costs.grad_batch")),
    "pathwise_checks": Workload(
        "pathwise_checks", 1, True,
        ("topology.mh", "topology.spectral_gap", "costs.grad_all", "costs.grad_global_all",
         "noise.sampler", "noise.noise_block", "noise.noise_samples", "algorithms.run",
         "theorycheck.descent", "theorycheck.descent_pl", "theorycheck.consensus",
         "theorycheck.tracker", "theorycheck.noise", "harness.emit"),
        formats=("json",)),
}


# ---------------------------------------------------------------------------
# Output checks: each returns (name, passed) pairs; every failure counts.
# ---------------------------------------------------------------------------

def _last_tenth(values):
    return np.asarray(values)[-max(1, len(values) // 10):]


def check_outputs(workload, env, run_cfg, run_sets) -> list:
    from gtsim import metrics

    series = env.series
    if workload.name == "synth_tails":
        tails = [s for name, s in series.items() if name.startswith("tail_")]
        out = [("tails_in_unit_interval",
                bool(tails) and all(np.all((s.values >= 0) & (s.values <= 1)) for s in tails))]
        try:
            slope = metrics.tail_decay_fit(series["tail_gt_dsgd_eps0.01"]).slope
        except (KeyError, ValueError):
            slope = math.nan
        out.append(("gt_dsgd_tail_slope_negative", slope < 0))
        tracked, vanilla = series.get("tail_gt_dsgd_eps0.01"), series.get("tail_dsgd_eps0.01")
        out.append(("gt_dsgd_tail_le_dsgd_last_tenth",
                    tracked is not None and vanilla is not None
                    and np.all(_last_tenth(tracked.values) <= _last_tenth(vanilla.values) + 1e-12)))
        return out
    if workload.name == "speedup_n50_w2":
        lam = run_cfg.w.lam
        tail = series.get("tail_gt_dsgd_eps0.01")
        crosses = tail is not None and tail.values[0] >= 0.5 and tail.values[-1] < 0.5
        return [("lambda_in_band", 0.85 <= lam <= 0.95), ("tail_crosses_half", bool(crosses))]
    if workload.name == "logistic_a9a":
        ok_finite, ok_decreasing = bool(run_sets), bool(run_sets)
        for rs in run_sets:
            # the library's own (R, T) statistic, the one the tails threshold
            stat = metrics._per_run_statistic(rs, "running_stationarity")
            ok_finite &= bool(np.all(np.isfinite(stat)))
            ok_decreasing &= bool(np.all(stat[:, -1] < stat[:, 0]))
        return [("stationarity_finite", ok_finite), ("stationarity_decreasing", ok_decreasing)]
    return [(f"report_{r.name}", bool(r.passed)) for r in env.check_reports] + [
        ("reports_present", len(env.check_reports) == 5)]
