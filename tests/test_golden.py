"""Golden envelopes: the sha256 of envelope.json for four tiny experiments.

Each runs gt_dsgd and dsgd with R = 3 at master seed 0, whose run seeds lie
on both sides of 2**63 for each algorithm. Any change to the noise streams
or to the arithmetic of a run changes these digests; such a change must
update the pin and say so in CHANGES.md.
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
    "gaussian": "e7b87577d93d07019aae948d32f8228e2674d6d902f8602aa8519623988753d6",
    "minibatch": "98f4f26417c508e295da17e3427f819e3be6af0554b899bffd5c4f8f2abc2dd2",
    "relaxed": "03e3e8fc7c621d4766e7f4f4cd291664a92c887008e7cee071477b4d80a38fb7",
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
