import json
import os
import subprocess
import sys

import pytest

from gtsim import costs, topology as tp
from gtsim.cli import cli

TOY = os.path.join(os.path.dirname(__file__), "fixtures", "toy.libsvm")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

CONFIG = """\
[experiment]
T = 30
R = 2
master_seed = 5
algorithms = ["gt_dsgd", "dsgd"]
thresholds = [0.5]

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


def test_cli_import_loads_no_scipy():
    # the runtime is numpy-only: scipy is a test dependency
    code = ("import sys, gtsim.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_leaves_tomllib_unloaded(tmp_path):
    # tomllib is imported where a TOML config is read, so JSON configs never
    # load it; the process pool is imported where several workers step the
    # runs, so a one-worker experiment never loads it
    path = tmp_path / "exp.toml"
    path.write_text(CONFIG)
    code = ("import sys, gtsim.cli\n"
            "from gtsim import harness\n"
            "print('tomllib' in sys.modules)\n"
            f"harness.run_experiment(harness.load_config({str(path)!r}), workers=1)\n"
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["False", "[]"]


def test_calc_transient_nonconvex(capsys):
    code = cli(["calc", "transient", "--nonconvex", "--n", "2", "--lambda", "0", "--rho", "0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "8"


def test_calc_transient_pl(capsys):
    code = cli(["calc", "transient", "--pl", "--n", "4", "--lambda", "0", "--a", "6"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "16"


def test_calc_stepsize_nonconvex(capsys):
    code = cli(["calc", "stepsize", "--nonconvex", "--n", "9", "--lambda", "0",
                "--L", "1", "--sigma-sq", "1", "--d", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cap C = 0.108355" in out
    assert "smoothness: 0.25" in out


def test_calc_stepsize_pl(capsys):
    code = cli(["calc", "stepsize", "--pl", "--n", "1", "--lambda", "0", "--a", "6",
                "--L", "1", "--mu", "1", "--sigma-sq", "1"])
    assert code == 0
    assert "t0 floor = 746496" in capsys.readouterr().out


def test_calc_requires_exactly_one_regime(capsys):
    assert cli(["calc", "transient", "--n", "2"]) == 1


def test_topo_path3(capsys):
    code = cli(["topo", "--kind", "path", "--n", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda = 0.666667" in out
    assert "0.666667" in out  # matrix entries printed


def test_topo_save_roundtrip(tmp_path, capsys):
    target = str(tmp_path / "w.csv")
    assert cli(["topo", "--kind", "ring", "--n", "5", "--save", target]) == 0
    assert os.path.exists(target)


def test_run_missing_config_exits_1(capsys):
    assert cli(["run", "missing.toml"]) == 1


def test_run_emits_outputs(tmp_path, capsys):
    cfg = tmp_path / "cfg.toml"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    code = cli(["run", str(cfg), "--out", str(out), "--workers", "1"])
    assert code == 0
    assert (out / "envelope.json").exists()
    assert (out / "mse_gt_dsgd.csv").exists()
    assert (out / "tail_eps0.5_log.svg").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_run_with_fewer_than_one_worker_is_a_config_error(tmp_path, capsys, workers):
    cfg = tmp_path / "cfg.toml"
    cfg.write_text(CONFIG)
    assert cli(["run", str(cfg), "--out", str(tmp_path / "out"), "--workers", workers]) == 1
    assert "config error: workers must be >= 1" in capsys.readouterr().err


def test_run_with_an_unknown_format_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.toml"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    assert cli(["run", str(cfg), "--out", str(out), "--formats", "jsn,svgg"]) == 1
    assert "unknown output format(s) 'jsn', 'svgg'" in capsys.readouterr().err
    assert not out.exists()


def test_run_with_a_negative_graph_seed_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.toml"
    cfg.write_text(CONFIG.replace('kind = "ring"\nn = 4',
                                  'kind = "erdos_renyi"\nn = 4\nseed = -1\ntarget_lambda = 0.5'))
    assert cli(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "config error: 'topology.seed' must be >= 0" in capsys.readouterr().err


def test_topo_with_a_negative_seed_is_a_graph_error(capsys):
    assert cli(["topo", "--kind", "erdos_renyi", "--n", "10", "--seed", "-1",
                "--target-lambda", "0.5"]) == 1
    assert "config error: seed must be >= 0" in capsys.readouterr().err


def test_run_seed_override_changes_results(tmp_path):
    cfg = tmp_path / "cfg.toml"
    cfg.write_text(CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli(["run", str(cfg), "--out", str(out1), "--seed-override", "5"]) == 0
    assert cli(["run", str(cfg), "--out", str(out2), "--seed-override", "6"]) == 0
    a = (out1 / "mse_gt_dsgd.csv").read_text()
    b = (out2 / "mse_gt_dsgd.csv").read_text()
    assert a != b
    # override with the configured seed reproduces the original exactly
    out3 = tmp_path / "c"
    assert cli(["run", str(cfg), "--out", str(out3)]) == 0
    assert (out3 / "mse_gt_dsgd.csv").read_text() == a


def test_check_subcommand_passes(tmp_path, capsys):
    cfg = tmp_path / "chk.toml"
    cfg.write_text(CONFIG.replace("alpha = 0.01", "alpha = 0.005") + """
[checks]
runs = 2
descent = true
""")
    code = cli(["check", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "descent: pass" in out


def test_check_takes_no_workers_flag(tmp_path, capsys):
    cfg = tmp_path / "chk.toml"
    cfg.write_text(CONFIG)
    assert cli(["check", str(cfg), "--workers", "2"]) == 1
    assert "--workers" in capsys.readouterr().err


def test_check_cap_violation_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "chk.toml"
    cfg.write_text(CONFIG.replace("alpha = 0.01", "alpha = 0.9") + """
[checks]
runs = 1
descent = true
""")
    assert cli(["check", str(cfg)]) == 1


def test_check_diverging_run_names_the_run(tmp_path, capsys):
    cfg = tmp_path / "chk.toml"
    cfg.write_text(CONFIG.replace("alpha = 0.01", "alpha = 1e300") + """
[checks]
runs = 1
descent = true
""")
    assert cli(["check", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ABORTED gt_dsgd run 0: non-finite model update at iteration ")


def test_parse_subcommand(tmp_path, capsys):
    f = tmp_path / "toy.libsvm"
    f.write_text("+1 1:1.0 3:2.0\n0 2:1.0\n-1 1:0.5\n+1 2:2.0\n")
    code = cli(["parse", str(f), "--split", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "samples: 4" in out
    assert "features: 3" in out
    assert "sizes [2, 1, 1]" in out


def test_parse_malformed_exits_1(tmp_path, capsys):
    f = tmp_path / "bad.libsvm"
    f.write_text("+1 2:1 2:3\n")
    assert cli(["parse", str(f)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_parse_counts_labels_and_nonzeros(tmp_path, capsys):
    f = tmp_path / "toy.libsvm"
    f.write_text("+1 1:1.0 3:2.0\n0 2:1.0\n\n-1 1:0.5\n+1 2:2.0 # two nonzeros above\n")
    assert cli(["parse", str(f)]) == 0
    out = capsys.readouterr().out
    assert "labels: +1 x 2, -1 x 2" in out
    assert "nonzeros: 5 (1.25 per sample)" in out


def test_parse_non_finite_value_exits_1(tmp_path, capsys):
    f = tmp_path / "nan.libsvm"
    f.write_text("+1 1:1 2:nan\n")
    assert cli(["parse", str(f)]) == 1
    assert "line 1: non-finite feature value 'nan'" in capsys.readouterr().err


def test_check_with_no_iterations_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "chk.toml"
    cfg.write_text(CONFIG.replace("T = 30", "T = 0") + """
[checks]
runs = 1
descent = true
""")
    assert cli(["check", str(cfg)]) == 1
    assert "'experiment.T' must be >= 1" in capsys.readouterr().err


def test_check_noise_on_a_minibatch_oracle_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "chk.toml"
    cfg.write_text(CONFIG.replace('kind = "quadratic_synthetic"\nd = 3',
                                  f'kind = "logistic_libsvm"\npath = "{TOY}"')
                   .replace('flavor = "gaussian"\ns = 0.5', 'flavor = "minibatch"') + """
[checks]
runs = 1
noise = true
""")
    assert cli(["check", str(cfg)]) == 1
    assert "'checks.noise' needs a Gaussian or relaxed_subgaussian oracle" in capsys.readouterr().err


def matrix_csv_config(tmp_path, cost):
    """CONFIG on a 4-agent ring saved as a matrix CSV, with the given [cost]
    body and a tail statistic that needs no known optimum."""
    w = tmp_path / "w.csv"
    tp.save_matrix_csv(tp.metropolis_hastings(tp.generate_graph("ring", 4)), w)
    cfg = tmp_path / "cfg.toml"
    cfg.write_text(CONFIG.replace('kind = "ring"\nn = 4', f'kind = "matrix_csv"\npath = "{w}"')
                   .replace('kind = "quadratic_synthetic"\nd = 3', cost)
                   .replace("thresholds = [0.5]", 'thresholds = [0.5]\ntail_statistic = "running_stationarity"'))
    return cfg


def json_ensemble(tmp_path, n):
    path = tmp_path / "e.json"
    costs.save_ensemble_json(costs.make_synthetic_quadratics(n, 2), path)
    return f'kind = "quadratic_json"\npath = "{path}"'


@pytest.mark.parametrize("cost", ['kind = "quadratic_synthetic"\nd = 3',
                                  f'kind = "logistic_libsvm"\npath = "{TOY}"'],
                         ids=["quadratic_synthetic", "logistic_libsvm"])
def test_run_on_a_matrix_csv_takes_n_from_the_matrix(tmp_path, capsys, cost):
    out = tmp_path / "out"
    assert cli(["run", str(matrix_csv_config(tmp_path, cost)), "--out", str(out)]) == 0
    assert (out / "envelope.json").exists()


def test_run_rejects_a_matrix_csv_that_is_not_doubly_stochastic(tmp_path, capsys):
    cfg = matrix_csv_config(tmp_path, json_ensemble(tmp_path, 4))
    (tmp_path / "w.csv").write_text("# n=4,lambda=0.5\n" + "0.225,0.225,0.225,0.225\n" * 4)
    assert cli(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "not doubly stochastic" in capsys.readouterr().err


def test_check_rejects_a_matrix_csv_whose_lambda_is_not_its_gap(tmp_path, capsys):
    # lambda sets the consensus and tracker caps and slacks of the checks
    cfg = matrix_csv_config(tmp_path, 'kind = "quadratic_synthetic"\nd = 3')
    w = tmp_path / "w.csv"
    lines = w.read_text().splitlines()
    w.write_text("\n".join(["# n=4,lambda=0.1"] + lines[1:]) + "\n")
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write("\n[checks]\nruns = 2\nconsensus = true\n")
    assert cli(["check", str(cfg)]) == 1
    assert "matrix CSV header says lambda=0.1, but the matrix has lambda=0.333" in capsys.readouterr().err


@pytest.mark.parametrize("header, field", [("# n=3", "lambda"), ("# lambda=0.5", "n")],
                         ids=["no_lambda", "no_n"])
def test_run_names_a_field_missing_from_the_matrix_csv_header(tmp_path, capsys, header, field):
    cfg = matrix_csv_config(tmp_path, 'kind = "quadratic_synthetic"\nd = 3')
    (tmp_path / "w.csv").write_text(header + "\n" + "0.5,0.25,0.25\n0.25,0.5,0.25\n0.25,0.25,0.5\n")
    assert cli(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert f"matrix CSV header has no '{field}=' field" in capsys.readouterr().err


def test_run_names_both_agent_counts_when_a_json_ensemble_misfits_w(tmp_path, capsys):
    cfg = matrix_csv_config(tmp_path, json_ensemble(tmp_path, 3))
    assert cli(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "the cost ensemble has 3 agents but the mixing matrix has 4" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    # a logistic payload, as an older save_ensemble_json wrote it
    (json.dumps({"kind": "logistic", "eta": 0.1, "agents": [
        {"features": [[1.0, 0.0], [0.0, 1.0]], "labels": [1.0, -1.0]}] * 4}),
     "a JSON ensemble must be quadratic, not kind 'logistic'"),
    (json.dumps({"kind": "quadratic", "b": [[0.0, 0.0]] * 4}),
     "a quadratic JSON ensemble needs both 'a' and 'b'"),
    ("not json", "invalid JSON: Expecting value"),
], ids=["logistic", "no-a", "not-json"])
def test_a_quadratic_json_cost_refuses_a_file_that_holds_no_quadratic(tmp_path, capsys, text, message):
    path = tmp_path / "e.json"
    path.write_text(text)
    cfg = matrix_csv_config(tmp_path, f'kind = "quadratic_json"\npath = "{path}"')
    out = tmp_path / "out"
    assert cli(["run", str(cfg), "--out", str(out)]) == 1
    assert f"config error: 'cost.path' {path}: {message}" in capsys.readouterr().err
    assert not out.exists()
