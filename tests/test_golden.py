"""Golden envelopes: the sha256 of envelope.json for four tiny experiments
and for the checks of the committed check config.

Each experiment runs gt_dsgd and dsgd with R = 3 at master seed 0, whose run
seeds lie on both sides of 2**63 for each algorithm. Any change to the noise
streams or to the arithmetic of a run or a check changes these digests; such
a change must update the pin and say so in CHANGES.md.
"""

import hashlib
import os

import pytest

from gtsim import harness

EXPERIMENT = {"T": 70, "R": 3, "master_seed": 0, "algorithms": ["gt_dsgd", "dsgd"]}

GAUSSIAN = {
    "experiment": dict(EXPERIMENT, name="golden_gaussian", thresholds=[0.5, 0.05]),
    "topology": {"kind": "ring", "n": 4},
    "cost": {"kind": "quadratic_synthetic", "d": 3, "seed": 4},
    "oracle": {"flavor": "gaussian", "s": 0.5},
    "schedule": {"kind": "inverse_time", "a": 1.0, "mu": 1.0, "t0": 1.0},
}

MINIBATCH = {
    "experiment": dict(EXPERIMENT, name="golden_minibatch", thresholds=[0.05, 0.01],
                       tail_statistic="running_stationarity"),
    "topology": {"kind": "path", "n": 3},
    # relative, so the envelope does not depend on where the checkout lives
    "cost": {"kind": "logistic_libsvm", "path": "fixtures/toy.libsvm", "eta": 0.1},
    "oracle": {"flavor": "minibatch", "batch_size": 2},
    "schedule": {"kind": "constant", "alpha": 0.1},
}

# the Gaussian experiment with noise that grows with the global gradient norm
RELAXED = dict(
    GAUSSIAN,
    experiment=dict(GAUSSIAN["experiment"], name="golden_relaxed",
                    tail_statistic="running_stationarity"),
    oracle={"flavor": "relaxed_subgaussian", "s": 0.5, "rho": 2.0, "eps_exponent": 0.5},
    schedule={"kind": "constant", "alpha": 0.05},
)

# the mini-batch experiment on an ER graph tuned to a target gap, with the
# features max-abs scaled
ER_NORMALIZED = dict(
    MINIBATCH,
    experiment=dict(MINIBATCH["experiment"], name="golden_er_normalized"),
    topology={"kind": "erdos_renyi", "n": 8, "seed": 3, "target_lambda": 0.6, "tol": 0.05},
    cost=dict(MINIBATCH["cost"], normalize=True),
    oracle={"flavor": "minibatch", "batch_size": 1},
)

PINS = {
    "gaussian": "ffa983f2c590d2290007b6065779fb1efab3534c6ff0f1c992e5a38419749686",
    "minibatch": "2194272a64baa0fe3d80c4b80928fee629b34663967f1a32c3dc79d6a92dade3",
    "relaxed": "b3923dfd4e77848f582c615c1771bfb85c395a65b749c120a586c5239c5fb87c",
    "er_normalized": "07f9726c202a6eda04cf0181914f1bb9168b8b938fda06e844b7a1b3655db481",
}


@pytest.mark.parametrize("name, raw", [("gaussian", GAUSSIAN), ("minibatch", MINIBATCH),
                                       ("relaxed", RELAXED), ("er_normalized", ER_NORMALIZED)])
def test_envelope_digest_is_pinned(name, raw, tmp_path, monkeypatch):
    monkeypatch.chdir(os.path.dirname(os.path.abspath(__file__)))
    env = harness.run_experiment(harness.normalize_config(raw))
    assert not env.partial
    harness.emit_outputs(env, formats=("json",), outdir=tmp_path)
    digest = hashlib.sha256((tmp_path / "envelope.json").read_bytes()).hexdigest()
    assert digest == PINS[name]


# configs/check_pathwise.toml: four pathwise checks on 20 traced runs and the
# noise Monte Carlo at 1e5 samples
CHECKS_PIN = "14f15b6cd8c170e01ef2a90c2027488a2f13efd3c382295775a7dbac86f37ce7"


def test_check_envelope_digest_is_pinned(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = harness.load_config(os.path.join(root, "configs", "check_pathwise.toml"))
    env = harness.ResultEnvelope(config=cfg.data, fingerprint=cfg.fingerprint, series={},
                                 run_summaries={}, check_reports=harness.run_checks(cfg))
    harness.emit_outputs(env, formats=("json",), outdir=tmp_path)
    digest = hashlib.sha256((tmp_path / "envelope.json").read_bytes()).hexdigest()
    assert digest == CHECKS_PIN
