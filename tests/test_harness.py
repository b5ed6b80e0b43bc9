import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gtsim import algorithms as alg, costs, harness, noise
from gtsim.cli import cli
from util import assert_records_identical, ring_matrix

MINIMAL_TOML = """\
[experiment]
T = 5

[topology]
kind = "ring"
n = 4

[cost]
kind = "quadratic_synthetic"
d = 3

[oracle]
flavor = "gaussian"
s = 0.5

[schedule]
kind = "constant"
alpha = 0.01
"""


def write(tmp_path, text, name="cfg.toml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_config_fills_defaults(tmp_path):
    cfg = harness.load_config(write(tmp_path, MINIMAL_TOML))
    assert cfg["experiment"]["R"] == 1
    assert cfg["experiment"]["record_stride"] == 1
    assert cfg["experiment"]["algorithms"] == ["gt_dsgd"]
    assert cfg["cost"]["profile"] == "a"
    assert cfg["init"]["kind"] == "zeros"


def test_unknown_key_is_fatal(tmp_path):
    bad = MINIMAL_TOML.replace('[schedule]\nkind = "constant"\nalpha = 0.01',
                               '[schedule]\nkind = "constant"\nalpha = 0.01\nstepsize = 0.1')
    with pytest.raises(harness.ConfigError, match="schedule.stepsize"):
        harness.load_config(write(tmp_path, bad))


def test_checks_noise_dims_is_an_unknown_key(tmp_path):
    text = MINIMAL_TOML + "\n[checks]\nnoise = true\nnoise_dims = [1, 2]\n"
    with pytest.raises(harness.ConfigError, match="checks.noise_dims"):
        harness.load_config(write(tmp_path, text))


def test_unknown_section_is_fatal(tmp_path):
    with pytest.raises(harness.ConfigError, match="unknown section"):
        harness.load_config(write(tmp_path, MINIMAL_TOML + "\n[extra]\nx = 1\n"))


def test_missing_required_key(tmp_path):
    with pytest.raises(harness.ConfigError, match="experiment.T"):
        harness.load_config(write(tmp_path, MINIMAL_TOML.replace("T = 5\n", "")))


def test_save_load_roundtrip_is_canonical(tmp_path):
    cfg = harness.load_config(write(tmp_path, MINIMAL_TOML))
    out = tmp_path / "normalized.json"
    harness.save_config(cfg, out)
    again = harness.load_config(out)
    assert again.data == cfg.data
    assert again.fingerprint == cfg.fingerprint


def test_json_config_supported(tmp_path):
    cfg = harness.load_config(write(tmp_path, MINIMAL_TOML))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.data))
    assert harness.load_config(path).data == cfg.data


def test_toml_config_values(tmp_path):
    text = MINIMAL_TOML + """
[init]
kind = "gaussian"   # inline comment
scale = 1.5
seed = 3
"""
    cfg = harness.load_config(write(tmp_path, text))
    assert cfg["init"] == {"kind": "gaussian", "scale": 1.5, "seed": 3}


def test_duplicate_key_is_fatal(tmp_path):
    path = write(tmp_path, MINIMAL_TOML.replace("T = 5\n", "T = 5\nT = 7\n"))
    with pytest.raises(harness.ConfigError, match=r"cfg\.toml.*line 3"):
        harness.load_config(path)


def test_malformed_toml_is_a_config_error(tmp_path, capsys):
    path = write(tmp_path, MINIMAL_TOML.replace("alpha = 0.01", "alpha = = 0.01"))
    with pytest.raises(harness.ConfigError, match=r"invalid TOML in .*cfg\.toml.*line 18"):
        harness.load_config(path)
    assert cli(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "invalid TOML" in capsys.readouterr().err


# sha256 of each committed config's normalized data
CONFIG_FINGERPRINTS = {
    "check_pathwise.toml": "2e8a80b36033ffbbdaa00233529f88fd82273c2f3f2ad2dfc24c8848ea4a8282",
    "fig1_synthetic_tails.toml": "4988b93f4f62ba952825b762c11ce69c81fee8b0cbc6422285c78f2725f748bc",
    "fig2_synthetic_speedup_n10.toml": "782c66cde57edf1139dff7b9f74e1bcea32a8eba3fa2d7265ab0edc6349e5847",
    "fig2_synthetic_speedup_n25.toml": "c89dd3e462356de3f7ea2e2cea81981dd30300c6a9504fb610296c0ab0c6613f",
    "fig2_synthetic_speedup_n50.toml": "b44f5c193cc18ccdb1d9f31f6842ad1399213b23b79348f00d14bc0f4c21a74f",
    "fig3_real_tails.toml": "a466b8d08420910661fa82e30e49d2dac4c7864254e03bd8a1ec29dbb34ab078",
    "fig4_real_speedup_n10.toml": "86ab11a3f197d16ad54ba254770176a3979e58b37bd03acaa986925934949e36",
    "fig4_real_speedup_n30.toml": "a109efd541b08b84010ba89f0a964f666fccdac57432ff172ee03028385224ca",
    "fig4_real_speedup_n50.toml": "6e9c0f6af604f8970638642b19a38e31c91c4858676abd3cd855b911a84feb81",
}
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(CONFIGS) if n.endswith(".toml")))
def test_committed_config_fingerprint_is_pinned(name):
    assert harness.load_config(os.path.join(CONFIGS, name)).fingerprint == CONFIG_FINGERPRINTS[name]


def test_erdos_renyi_needs_exactly_one_of_p_or_target(tmp_path):
    text = MINIMAL_TOML.replace('kind = "ring"\nn = 4', 'kind = "erdos_renyi"\nn = 6')
    with pytest.raises(harness.ConfigError, match="exactly one"):
        harness.load_config(write(tmp_path, text))


def test_derive_run_seed_is_stable_and_distinct():
    a = harness.derive_run_seed(1, "gt_dsgd", 0)
    assert a == harness.derive_run_seed(1, "gt_dsgd", 0)
    assert a != harness.derive_run_seed(1, "gt_dsgd", 1)
    assert a != harness.derive_run_seed(1, "dsgd", 0)
    assert a != harness.derive_run_seed(2, "gt_dsgd", 0)
    assert 0 <= a < 2**64


def experiment_cfg(tmp_path, R=4, algorithms=("gt_dsgd", "dsgd")):
    algs = ", ".join(f'"{a}"' for a in algorithms)
    text = MINIMAL_TOML.replace("T = 5", f"T = 40\nR = {R}\nmaster_seed = 9\n"
                                         f"algorithms = [{algs}]\n"
                                         "thresholds = [0.5, 0.05]")
    return harness.load_config(write(tmp_path, text, name="exp.toml"))


def test_run_experiment_series_and_summaries(tmp_path):
    cfg = experiment_cfg(tmp_path)
    env = harness.run_experiment(cfg)
    assert not env.partial
    assert env.fingerprint == cfg.fingerprint
    assert "mse_gt_dsgd" in env.series
    assert "tail_dsgd_eps0.05" in env.series
    assert env.series["tail_gt_dsgd_eps0.5"].meta["floor"] == 0.25
    assert env.run_summaries["gt_dsgd"]["R"] == 4


def test_single_run_tail_is_indicator(tmp_path):
    cfg = experiment_cfg(tmp_path, R=1, algorithms=("gt_dsgd",))
    env = harness.run_experiment(cfg)
    vals = env.series["tail_gt_dsgd_eps0.05"].values
    assert set(np.unique(vals)).issubset({0.0, 1.0})


def test_workers_do_not_change_results(tmp_path):
    cfg = experiment_cfg(tmp_path)
    env1 = harness.run_experiment(cfg, workers=1)
    env2 = harness.run_experiment(cfg, workers=2)
    for name in env1.series:
        assert np.array_equal(env1.series[name].values, env2.series[name].values)
    assert harness.envelope_to_jsonable(env1) == harness.envelope_to_jsonable(env2)


@pytest.mark.parametrize("workers", [1, 2])
def test_experiment_runs_record_no_snapshots(tmp_path, workers):
    # a file per engine call, so that calls in forked workers are seen too
    cfg = experiment_cfg(tmp_path)
    run = alg.run

    def spy(algorithm, config, seed, run_id):
        rec = run(algorithm, config, seed, run_id)
        ids = run_id if isinstance(run_id, list) else [run_id]
        for r in ids:
            (tmp_path / f"{os.getpid()}-{algorithm}-{r}").write_text(
                f"{config.record_stride} {len(rec.snapshots)}")
        return rec

    with mock.patch.object(harness.algorithms, "run", spy):
        harness.run_experiment(cfg, workers=workers)
    calls = {p.name.split("-", 1)[1]: p.read_text() for p in tmp_path.iterdir() if "-" in p.name}
    assert calls == {f"{a}-{r}": "0 0" for a in ("gt_dsgd", "dsgd") for r in range(4)}
    pids = {p.name.split("-")[0] for p in tmp_path.iterdir() if "-" in p.name}
    assert (str(os.getpid()) in pids) == (workers == 1)


def test_emit_outputs_and_reemit_identical(tmp_path):
    cfg = experiment_cfg(tmp_path, R=2)
    env = harness.run_experiment(cfg)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    written = harness.emit_outputs(env, outdir=out1)
    assert any(p.endswith("envelope.json") for p in written)
    assert any(p.endswith(".csv") for p in written)
    assert any(p.endswith(".svg") for p in written)
    reloaded = harness.load_envelope(out1 / "envelope.json")
    harness.emit_outputs(reloaded, formats=("csv", "svg"), outdir=out2)
    for name in env.series:
        a = (out1 / f"{name}.csv").read_bytes()
        b = (out2 / f"{name}.csv").read_bytes()
        assert a == b
    assert (out1 / "mse_log.svg").read_bytes() == (out2 / "mse_log.svg").read_bytes()


def test_csv_format(tmp_path):
    cfg = experiment_cfg(tmp_path, R=2, algorithms=("gt_dsgd",))
    env = harness.run_experiment(cfg)
    out = tmp_path / "o"
    harness.emit_outputs(env, formats=("csv",), outdir=out)
    lines = (out / "mse_gt_dsgd.csv").read_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 41
    assert lines[1].startswith("1,")


def test_envelope_json_has_no_wall_clock(tmp_path):
    cfg = experiment_cfg(tmp_path, R=2)
    env = harness.run_experiment(cfg)
    payload = harness.envelope_to_jsonable(env)
    assert "wall_clock" not in json.dumps(payload)
    assert env.wall_clock > 0.0


def test_run_checks_from_committed_config():
    cfg = harness.load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "check_pathwise.toml"))
    data = dict(cfg.data)
    data["checks"] = dict(data["checks"], runs=3, noise=False)
    data["experiment"] = dict(data["experiment"], T=80)
    reports = harness.run_checks(harness.ExperimentConfig(data=data))
    names = {r.name for r in reports}
    assert names == {"descent", "descent_pl", "consensus_bound", "tracker_recursion"}
    assert all(r.passed for r in reports)


def test_committed_experiment_configs_validate():
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in sorted(os.listdir(root)):
        cfg = harness.load_config(os.path.join(root, name))
        assert cfg.fingerprint


@st.composite
def quadratic_experiments(draw):
    """Configs over random connected graphs and quadratic ensembles."""
    n = draw(st.integers(2, 6))
    return {
        "experiment": {"T": draw(st.sampled_from([1, 63, 65, 130])), "R": draw(st.integers(1, 6)),
                       "master_seed": draw(st.integers(0, 2**32)),
                       "algorithms": ["gt_dsgd", "dsgd"], "thresholds": [0.5, 0.05]},
        "topology": {"kind": "erdos_renyi", "n": n, "seed": draw(st.integers(0, 99)),
                     "p": draw(st.sampled_from([0.4, 0.7, 1.0]))},
        "cost": {"kind": "quadratic_synthetic", "d": draw(st.integers(1, 4)),
                 "seed": draw(st.integers(0, 99))},
        "oracle": {"flavor": "gaussian", "s": draw(st.sampled_from([0.3, 1.0]))},
        "schedule": {"kind": "inverse_time", "a": 1.0, "mu": 1.0, "t0": 1.0},
    }


def envelope_bytes(env):
    with tempfile.TemporaryDirectory() as out:
        harness.emit_outputs(env, formats=("json",), outdir=out)
        with open(os.path.join(out, "envelope.json"), "rb") as fh:
            return fh.read()


@settings(max_examples=8, deadline=None)
@given(raw=quadratic_experiments(), block=st.integers(1, 5))
def test_envelope_is_byte_identical_across_workers_and_block_sizes(raw, block):
    cfg = harness.normalize_config(raw)
    n, d = raw["topology"]["n"], raw["cost"]["d"]
    budget = block * 3 * alg._BLOCK * n * d * 8  # blocks of `block` runs at one worker
    with mock.patch.object(harness, "_BLOCK_BUDGET", budget):
        assert harness._block_size(harness.build_run_config(cfg), 2, 1) == block
        reference = envelope_bytes(harness.run_experiment(cfg, workers=1))
    assert envelope_bytes(harness.run_experiment(cfg, workers=1)) == reference
    assert envelope_bytes(harness.run_experiment(cfg, workers=2)) == reference


class InfPastBound(costs.QuadraticEnsemble):
    """grad_all is inf wherever a model coordinate lies past the bound, so the
    runs whose noise carries a model there abort and the others do not."""

    def __init__(self, a, b, bound):
        super().__init__(a, b)
        self.bound = bound

    def grad_all(self, x_rows):
        g = super().grad_all(x_rows)
        g[np.abs(x_rows) > self.bound] = np.inf
        return g


@settings(max_examples=30, deadline=None)
@example(bound=0.25, algorithm="gt_dsgd", run_ids=[0, 1, 2, 3, 4], T=70)
@given(bound=st.floats(0.15, 0.35), algorithm=st.sampled_from(["gt_dsgd", "dsgd"]),
       run_ids=st.lists(st.integers(0, 50), min_size=1, max_size=5, unique=True),
       T=st.sampled_from([10, 70]))
def test_abort_in_a_block_leaves_the_other_runs_unchanged(bound, algorithm, run_ids, T):
    e = InfPastBound(np.stack([np.eye(2)] * 4), np.zeros((4, 2)), bound)
    cfg = alg.RunConfig(w=ring_matrix(4), ensemble=e, oracle=noise.GaussianOracle(1.0),
                        schedule=alg.ConstantStep(0.1), T=T, x0=np.zeros((4, 2)))
    seeds = [harness.derive_run_seed(3, algorithm, r) for r in run_ids]
    results = harness._run_block(cfg, (algorithm, seeds, run_ids))
    if len(results) == 1 and not isinstance(results[0], tuple):
        results = results[0].split()
    assert len(results) == len(run_ids)
    for res, seed, run_id in zip(results, seeds, run_ids):
        try:
            alone = alg.run(algorithm, cfg, seed, run_id)
        except alg.RunAbort as exc:
            assert res == ("abort", algorithm, run_id, str(exc))
        else:
            assert_records_identical(res, alone)


def test_check_block_abort_names_the_first_aborting_run():
    # runs 1 and 2 of the block go non-finite, run 2 at an earlier iteration:
    # the block aborts on run 2, but the runs alone name run 1 first
    e = InfPastBound(np.stack([np.eye(2)] * 4), np.zeros((4, 2)), 0.3)
    run_cfg = alg.RunConfig(w=ring_matrix(4), ensemble=e, oracle=noise.GaussianOracle(1.0),
                            schedule=alg.ConstantStep(0.1), T=70, x0=np.zeros((4, 2)),
                            record_trace=True)
    raw = harness.load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                           "check_pathwise.toml")).data
    cfg = harness.ExperimentConfig(data=dict(
        raw, experiment=dict(raw["experiment"], master_seed=6, T=70),
        checks=dict(raw["checks"], runs=4, descent_pl=False, consensus=False,
                    tracker=False, noise=False)))
    seeds = [harness.derive_run_seed(6, "check", r) for r in range(4)]
    alone = []
    for r, seed in enumerate(seeds):
        try:
            alg.run("gt_dsgd", run_cfg, seed, r)
        except alg.RunAbort as exc:
            alone.append((r, str(exc), exc.iteration))
    assert [r for r, _, _ in alone] == [1, 2] and alone[1][2] < alone[0][2]
    assert harness._block_size(run_cfg, 4, 1) >= 4
    with pytest.raises(alg.RunAbort) as block:
        alg.run("gt_dsgd", run_cfg, seeds, [0, 1, 2, 3])
    assert block.value.iteration == alone[1][2]

    with mock.patch.object(harness, "build_run_config", lambda cfg, record_trace: run_cfg):
        with pytest.raises(alg.RunAbort) as info:
            harness.run_checks(cfg)
    assert (info.value.run_id, str(info.value)) == alone[0][:2]
