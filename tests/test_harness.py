import copy
import itertools
import json
import os
import re
import tempfile
import tomllib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gtsim import algorithms as alg, costs, harness, metrics, noise, theorycheck, topology
from gtsim.cli import cli
from util import (assert_records_identical, reference_emit_outputs, reference_envelope_json,
                  reference_normalize_config, reference_series_csv, ring_matrix)

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


@pytest.mark.parametrize("entry, message", [("0.0", "must be > 0"), ("-1", "must be > 0"),
                                            ("nan", "must be > 0"), ("true", "is not a number"),
                                            ('"x"', "is not a number")])
def test_thresholds_are_positive_numbers(tmp_path, entry, message):
    text = MINIMAL_TOML.replace("T = 5\n", f"T = 5\nthresholds = [0.5, {entry}]\n")
    with pytest.raises(harness.ConfigError, match=rf"'experiment\.thresholds' entry .* {message}"):
        harness.load_config(write(tmp_path, text))


LIBSVM_COST = '[cost]\nkind = "logistic_libsvm"\npath = "corpus.libsvm"\n'


@pytest.mark.parametrize("old, new, path", [
    ('[topology]\nkind = "ring"\nn = 4\n', "", "'topology' must be a table"),
    ("T = 5\n", "T = inf\n", "'experiment.T' must be finite"),
    ("T = 5\n", "T = 5\nR = nan\n", "'experiment.R' must be finite"),
    ("alpha = 0.01", "alpha = nan", "'schedule.alpha' must be finite"),
    ("alpha = 0.01", "alpha = 1" + "0" * 400, "'schedule.alpha' must be finite"),
    ("s = 0.5", "s = true", "'oracle.s' must be a number"),
    ("s = 0.5", 's = [0.5, "x", 1]', "'oracle.s' entry 'x' is not a number"),
    ('[cost]\nkind = "quadratic_synthetic"\nd = 3\n', LIBSVM_COST + 'normalize = "no"\n',
     "'cost.normalize' must be true or false"),
    ("T = 5\n", "T = 5\n[checks]\ndescent = \"false\"\n", "'checks.descent' must be true or false"),
    ("T = 5\n", "T = 5\nname = 5\n", "'experiment.name' must be a string"),
], ids=["section_not_a_table", "infinite_T", "nan_R", "nan_alpha", "huge_alpha", "boolean_s",
        "string_in_s", "string_normalize", "string_check_flag", "numeric_name"])
def test_every_value_is_checked_by_its_type(tmp_path, capsys, old, new, path):
    text = MINIMAL_TOML.replace(old, new, 1)
    if not new:
        text = "topology = 5\n" + text
    cfg_path = write(tmp_path, text)
    with pytest.raises(harness.ConfigError, match=re.escape(path)):
        harness.load_config(cfg_path)
    assert cli(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert path in capsys.readouterr().err


def test_the_readme_example_config_follows_the_schema():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    (example,) = re.findall(r"```toml\n(.*?)```", readme, re.S)
    harness.normalize_config(tomllib.loads(example))
    # each section header's comment lists the section's kinds, in schema order
    for section, (_, tag, _, variants) in harness._SCHEMA.items():
        if tag is not None:
            (listed,) = re.findall(rf"^\[{section}\] +# (.*)$", example, re.M)
            assert [part.split()[0] for part in listed.split("|")] == list(variants)


# Raw configs for the differential test: a well-typed config, then up to
# four edits that drop or add keys and sections, set a key to any value its
# strategy draws (wrong types, out-of-range or non-integer numbers), or set a
# kind to another, unknown or unhashable one. Left out are the inputs whose
# outcome changed on purpose: sections that are not tables, non-finite
# numbers (but NaN thresholds), non-string names and paths, non-boolean
# flags, a Gaussian scale that is not a number or a list of numbers, and
# nulls (but 'p' and 'target_lambda', whose default is null).
_NUMBERS = st.one_of(st.sampled_from([-1, -0.5, -0.0, 0, 0.0, 0.5, 1, 1.5, 2, 2.0, 3, 99_999, 100_000,
                                      100_000.0, 150_000.5, 1e20, 2**70]),
                     st.integers(-2, 40), st.floats(-2.0, 40.0))
_JUNK = st.one_of(st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1))
_ANY_NUMBER = st.one_of(_NUMBERS, _JUNK)
_TEXT = st.text(max_size=4)
_FLAG = st.booleans()
_SCALE = st.one_of(st.integers(0, 9), st.floats(0.0, 9.0))
_KINDS = {
    "topology": ("kind", ["ring", "path", "complete", "erdos_renyi", "matrix_csv"]),
    "cost": ("kind", ["quadratic_synthetic", "logistic_libsvm", "quadratic_json"]),
    "oracle": ("flavor", ["gaussian", "minibatch", "relaxed_subgaussian"]),
    "schedule": ("kind", ["constant", "inverse_time"]),
    "init": ("kind", ["zeros", "gaussian"]),
}
# per section, each key's well-typed, in-range values, by kind
_VALID = {
    "experiment": {None: {"name": _TEXT, "T": st.integers(0, 50), "R": st.integers(1, 5),
                          "master_seed": st.integers(-9, 2**40),
                          "algorithms": st.lists(st.sampled_from(["gt_dsgd", "dsgd"]), min_size=1,
                                                 max_size=2),
                          "thresholds": st.lists(st.floats(0.01, 2.0), max_size=3),
                          "tail_statistic": st.sampled_from(["mse_to_opt", "running_stationarity"]),
                          "record_stride": st.integers(0, 3), "output_dir": _TEXT}},
    "topology": {**dict.fromkeys(["ring", "path", "complete"],
                                 {"n": st.integers(1, 9), "seed": st.integers(0, 9)}),
                 "erdos_renyi": {"n": st.integers(2, 9), "seed": st.integers(0, 9),
                                 "p": st.floats(0.1, 1.0), "tol": st.floats(0.01, 0.1)},
                 "matrix_csv": {"path": _TEXT}},
    "cost": {"quadratic_synthetic": {"d": st.integers(1, 5), "profile": st.sampled_from(["a", "b"]),
                                     "sparsity": _SCALE, "mu0": _SCALE, "seed": st.integers(0, 9)},
             "logistic_libsvm": {"path": _TEXT, "eta": _SCALE, "normalize": _FLAG,
                                 "split_seed": st.integers(0, 9)},
             "quadratic_json": {"path": _TEXT}},
    "oracle": {"gaussian": {"s": st.one_of(_SCALE, st.lists(_SCALE, max_size=3))},
               "minibatch": {"batch_size": st.integers(1, 9)},
               "relaxed_subgaussian": {"s": _SCALE, "rho": _SCALE, "eps_exponent": _SCALE}},
    "schedule": {"constant": {"alpha": _SCALE},
                 "inverse_time": {"a": _SCALE, "mu": _SCALE, "t0": _SCALE}},
    "init": {"zeros": {}, "gaussian": {"scale": _SCALE, "seed": st.integers(0, 9)}},
    "checks": {None: {"runs": st.integers(1, 30), **dict.fromkeys(
        ["descent", "descent_pl", "consensus", "tracker", "noise"], _FLAG),
        "noise_samples": st.sampled_from([100_000, 200_000])}},
}
# per section, the keys that hold a number (but the Gaussian scale 's')
_NUMERIC = {
    "experiment": ["T", "R", "master_seed", "record_stride"],
    "topology": ["n", "seed", "p", "target_lambda", "tol"],
    "cost": ["d", "sparsity", "mu0", "seed", "eta", "split_seed"],
    "oracle": ["batch_size", "rho", "eps_exponent"],
    "schedule": ["alpha", "a", "mu", "t0"],
    "init": ["scale", "seed"],
    "checks": ["runs", "noise_samples"],
}
# per section, any value a key may be set to by an edit
_EDITS = {section: dict.fromkeys(keys, _ANY_NUMBER) for section, keys in _NUMERIC.items()}
_EDITS["experiment"].update(
    name=_TEXT, output_dir=_TEXT,
    algorithms=st.one_of(st.lists(st.one_of(st.sampled_from(["gt_dsgd", "dsgd", "sgd", 0]),
                                            st.just(["dsgd"])), max_size=3), _JUNK),
    thresholds=st.one_of(st.lists(st.one_of(st.floats(-1.0, 2.0), st.just(float("nan")), _JUNK),
                                  max_size=3), _JUNK),
    tail_statistic=st.one_of(st.sampled_from(["mse", "Mse_to_opt"]), _JUNK))
_EDITS["topology"].update(p=st.one_of(_ANY_NUMBER, st.none()),
                          target_lambda=st.one_of(_ANY_NUMBER, st.none()), path=_TEXT)
_EDITS["cost"].update(profile=st.one_of(st.sampled_from(["c", "A"]), _JUNK), path=_TEXT,
                      normalize=_FLAG)
_EDITS["checks"].update(dict.fromkeys(["descent", "descent_pl", "consensus", "tracker", "noise"], _FLAG))
_BAD_KINDS = st.one_of(st.sampled_from(["torus", "Ring", "", None, 3, True]), _JUNK,
                       st.sampled_from(["ring", "gaussian", "constant"]).map(lambda k: [k]))


@st.composite
def raw_configs(draw):
    raw = {}
    for section, variants in _VALID.items():
        tag, names = _KINDS.get(section, (None, [None]))
        kind = draw(st.sampled_from(names))
        body = {tag: kind} if tag else {}
        for key, values in variants[kind].items():
            if key in ("T", "n", "p", "d", "path", "alpha") or draw(st.booleans()):
                body[key] = draw(values)
        if kind == "erdos_renyi" and draw(st.booleans()):
            body["target_lambda"] = body.pop("p")
        raw[section] = body
    for _ in range(draw(st.integers(0, 4))):
        section = draw(st.sampled_from(sorted(_VALID)))
        body = raw.get(section)
        edit = draw(st.sampled_from(["drop", "set", "set", "set", "kind", "unknown"]))
        if edit == "drop":
            keys = sorted(body or ())
            if body is None or not keys or draw(st.integers(0, 3)) == 0:
                raw.pop(section, None)
            else:
                del body[draw(st.sampled_from(keys))]
        elif body is None:
            raw[section] = {}
        elif edit == "set":
            pool = dict(_EDITS[section])
            if section == "oracle":
                scales = st.one_of(_SCALE, st.lists(_SCALE, max_size=2))
                pool["s"] = scales if body.get("flavor") == "gaussian" else st.one_of(scales, _JUNK)
            for key in draw(st.lists(st.sampled_from(sorted(pool)), min_size=1, max_size=3)):
                body[key] = draw(pool[key])
        elif edit == "kind" and section in _KINDS:
            tag, names = _KINDS[section]
            # a flavor edit never makes a scale set for another flavor Gaussian
            names = [name for name in names if name != "gaussian" or section != "oracle"]
            body[tag] = draw(st.one_of(st.sampled_from(names), _BAD_KINDS))
        else:
            target = draw(st.sampled_from(["section", "key"]))
            if target == "section":
                raw[draw(st.sampled_from(["extra", "Experiment"]))] = {}
            else:
                body[draw(st.sampled_from(["bogus", "stepsize", "kind", "flavor"]))] = 1
    if draw(st.integers(0, 49)) == 1:
        return draw(st.sampled_from([[], "config", None]))
    return raw


def _outcome(normalize, raw):
    try:
        cfg = normalize(copy.deepcopy(raw))
    except harness.ConfigError as exc:
        return "error", str(exc)
    return "ok", cfg.data, cfg.fingerprint


@settings(max_examples=400, deadline=None)
@given(raw=raw_configs())
def test_the_schema_table_normalizes_like_the_section_normalizers(raw):
    assert _outcome(harness.normalize_config, raw) == _outcome(reference_normalize_config, raw)


# a wrong value of each key that is neither a number nor free text
_WRONG = {"experiment": {"algorithms": [], "thresholds": [0], "tail_statistic": "x"},
          "cost": {"profile": "c"}}
_PROBES = [-1, -0.5, -0.0, 0, 0.0, 0.5, 1, 1.5, 2, 99_999, 100_000, 100_000.0, 150_000.5, 2**70,
           True, "1", [1], {}]


def test_every_number_key_of_every_kind_normalizes_like_the_section_normalizers():
    # one number key set to each bound and type the schema tells apart, or two
    # keys set to wrong values, in either order
    base = {"experiment": {"T": 5}, "topology": {"kind": "ring", "n": 4},
            "cost": {"kind": "quadratic_synthetic", "d": 3}, "oracle": {"flavor": "gaussian"},
            "schedule": {"kind": "constant", "alpha": 0.1}}
    required = {"T": 5, "n": 4, "p": 0.5, "d": 3, "path": "file", "alpha": 0.1}
    compared = 0
    for section, variants in _VALID.items():
        tag = _KINDS.get(section, (None,))[0]
        for kind, keys in variants.items():
            body = {tag: kind} if tag else {}
            body.update((k, v) for k, v in required.items() if k in keys)
            edits = [{key: v} for key in _NUMERIC[section] for v in _PROBES]
            wrong = {**dict.fromkeys(_NUMERIC[section], "x"), **_WRONG.get(section, {})}
            edits += [{k1: wrong[k1], k2: wrong[k2]} for k1, k2 in itertools.permutations(wrong, 2)]
            for edit in edits:
                raw = dict(base, **{section: {**body, **edit}})
                assert _outcome(harness.normalize_config, raw) == _outcome(reference_normalize_config, raw)
                compared += 1
    assert compared > 1000


SEEDED = {
    "experiment": {"T": 5, "master_seed": -7},
    "topology": {"kind": "erdos_renyi", "n": 6, "target_lambda": 0.5},
    "cost": {"kind": "quadratic_synthetic", "d": 3},
    "oracle": {"flavor": "gaussian", "s": 0.5},
    "schedule": {"kind": "constant", "alpha": 0.01},
    "init": {"kind": "gaussian"},
}


@pytest.mark.parametrize("section, key", [("topology", "seed"), ("cost", "seed"),
                                          ("cost", "split_seed"), ("init", "seed")])
def test_a_negative_seed_is_a_config_error_that_names_its_key(section, key):
    raw = {name: dict(body) for name, body in SEEDED.items()}
    if key == "split_seed":
        raw["cost"] = {"kind": "logistic_libsvm", "path": "corpus.libsvm"}
    raw[section][key] = -1
    with pytest.raises(harness.ConfigError, match=rf"'{section}\.{key}' must be >= 0"):
        harness.normalize_config(raw)


# The bounds the builders enforce, each a config error that names its key at
# load time. Before they were in the schema, these configs loaded, and
# building them raised an error that named no key.
@pytest.mark.parametrize("section, body, message", [
    ("oracle", {"flavor": "gaussian", "s": -0.5}, r"'oracle\.s' must be >= 0"),
    ("oracle", {"flavor": "gaussian", "s": [0.5, -1, 0.5, 0.5]}, r"'oracle\.s' entry -1 must be >= 0"),
    ("schedule", {"kind": "constant", "alpha": 0}, r"'schedule\.alpha' must be > 0"),
    ("schedule", {"kind": "constant", "alpha": -0.01}, r"'schedule\.alpha' must be > 0"),
    ("topology", {"kind": "erdos_renyi", "n": 4, "p": 0.0}, r"'topology\.p' must lie in \(0, 1\]"),
    ("topology", {"kind": "erdos_renyi", "n": 4, "p": 1.5}, r"'topology\.p' must lie in \(0, 1\]"),
    ("oracle", {"flavor": "gaussian", "s": [0.5, 0.5, 0.5]},
     r"'oracle\.s' lists 3 per-agent scales but 'topology\.n' is 4"),
    ("schedule", {"kind": "inverse_time", "a": 0}, r"'schedule\.a' must be > 0"),
    ("schedule", {"kind": "inverse_time", "mu": 0}, r"'schedule\.mu' must be > 0"),
    ("schedule", {"kind": "inverse_time", "t0": -0.5}, r"'schedule\.t0' must be >= 0\.0"),
    ("cost", {"kind": "quadratic_synthetic", "d": 3, "sparsity": 1.5},
     r"'cost\.sparsity' must lie in \(0, 1\]"),
    ("topology", {"kind": "erdos_renyi", "n": 4, "target_lambda": 1.5},
     r"'topology\.target_lambda' must lie in \(0, 1\)"),
    ("topology", {"kind": "erdos_renyi", "n": 4, "target_lambda": 0.5, "tol": 0},
     r"'topology\.tol' must be > 0"),
    ("oracle", {"flavor": "relaxed_subgaussian", "eps_exponent": 0}, r"'oracle\.eps_exponent' must be > 0"),
    ("cost", {"kind": "quadratic_synthetic", "d": 3, "profile": "b"},
     r"'cost\.profile' b needs a multiple of 5 agents but 'topology\.n' is 4"),
], ids=["s", "s-entry", "alpha-zero", "alpha-negative", "p-zero", "p-above-one", "s-length", "a-zero",
        "mu-zero", "t0-negative", "sparsity-above-one", "target-lambda-one-and-a-half", "tol-zero",
        "eps-exponent-zero", "profile-b"])
def test_a_bound_the_builders_enforce_is_a_config_error_that_names_its_key(section, body, message):
    raw = tomllib.loads(MINIMAL_TOML)
    raw[section] = body
    with pytest.raises(harness.ConfigError, match=message):
        harness.normalize_config(raw)


def test_the_bounds_admit_their_edges():
    raw = tomllib.loads(MINIMAL_TOML)
    raw["topology"] = {"kind": "erdos_renyi", "n": 4, "p": 1.0}
    raw["oracle"] = {"flavor": "gaussian", "s": [0, 0.0, 1, 2.5]}
    cfg = harness.normalize_config(raw)
    assert (cfg["topology"]["p"], cfg["oracle"]["s"]) == (1.0, [0.0, 0.0, 1.0, 2.5])
    raw["oracle"]["s"] = 0
    assert harness.normalize_config(raw)["oracle"]["s"] == 0.0
    raw["topology"] = {"kind": "erdos_renyi", "n": 5, "target_lambda": 0.999, "tol": 1e-12}
    raw["cost"] = {"kind": "quadratic_synthetic", "d": 3, "profile": "b", "sparsity": 1}
    raw["oracle"] = {"flavor": "relaxed_subgaussian", "rho": 0, "eps_exponent": 1e-12}
    raw["schedule"] = {"kind": "inverse_time", "a": 1e-12, "mu": 1e-12, "t0": 0}
    cfg = harness.normalize_config(raw)
    assert (cfg["topology"]["target_lambda"], cfg["topology"]["tol"], cfg["cost"]["sparsity"],
            cfg["oracle"]["eps_exponent"], cfg["schedule"]["t0"]) == (0.999, 1e-12, 1.0, 1e-12, 0.0)


def test_a_scale_list_is_checked_against_a_matrix_csv_when_it_is_built(tmp_path):
    # a matrix file brings its own agent count, known only once it is read
    w = tmp_path / "w.csv"
    topology.save_matrix_csv(topology.metropolis_hastings(topology.generate_graph("ring", 4)), w)
    raw = tomllib.loads(MINIMAL_TOML)
    raw["topology"] = {"kind": "matrix_csv", "path": str(w)}
    raw["oracle"] = {"flavor": "gaussian", "s": [0.5, 0.5, 0.5]}
    cfg = harness.normalize_config(raw)
    with pytest.raises(harness.ConfigError,
                       match=r"'oracle\.s' lists 3 per-agent scales but the mixing matrix has 4"):
        harness.build_run_config(cfg)


def test_profile_b_is_checked_against_a_matrix_csv_when_it_is_built(tmp_path):
    w = tmp_path / "w.csv"
    topology.save_matrix_csv(topology.metropolis_hastings(topology.generate_graph("ring", 4)), w)
    raw = tomllib.loads(MINIMAL_TOML)
    raw["topology"] = {"kind": "matrix_csv", "path": str(w)}
    raw["cost"] = {"kind": "quadratic_synthetic", "d": 3, "profile": "b"}
    cfg = harness.normalize_config(raw)
    with pytest.raises(harness.ConfigError,
                       match=r"'cost\.profile' b needs a multiple of 5 agents but the mixing matrix has 4"):
        harness.build_run_config(cfg)


def test_master_seed_may_be_any_integer():
    # it is hashed, never handed to numpy
    assert harness.normalize_config(SEEDED)["experiment"]["master_seed"] == -7


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


def test_the_relaxed_flavor_at_rho_zero_runs_as_the_gaussian_flavor(tmp_path):
    # both flavors build the one Gaussian oracle, so only the config differs
    outputs = []
    for flavor, extra in (("gaussian", ""), ("relaxed_subgaussian", "rho = 0.0\neps_exponent = 0.5\n")):
        text = MINIMAL_TOML.replace("T = 5", "T = 70\nR = 3\nmaster_seed = 9\nalgorithms = "
                                    '["gt_dsgd", "dsgd"]\nthresholds = [0.5, 0.05]')
        text = text.replace('flavor = "gaussian"\ns = 0.5\n', f'flavor = "{flavor}"\ns = 0.5\n{extra}')
        env = harness.run_experiment(harness.load_config(write(tmp_path, text, name=f"{flavor}.toml")))
        out = tmp_path / flavor
        written = harness.emit_outputs(env, formats=("csv", "json"), outdir=out)
        envelope = json.loads((out / "envelope.json").read_text())
        assert envelope["config"]["oracle"]["flavor"] == flavor
        outputs.append(({os.path.basename(p): open(p, "rb").read() for p in written if p.endswith(".csv")},
                        json.dumps(envelope["series"]), json.dumps(envelope["run_summaries"])))
    assert outputs[0][0] and outputs[0] == outputs[1]


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
    # experiment runs are untraced, so a record holds no models but final_x;
    # a file per engine call, so that calls in forked workers are seen too
    cfg = experiment_cfg(tmp_path)
    run = alg.run

    def spy(algorithm, config, seeds, run_ids):
        rec = run(algorithm, config, seeds, run_ids)
        for r in run_ids:
            (tmp_path / f"{os.getpid()}-{algorithm}-{r}").write_text(
                f"{config.record_trace} {rec.x_hist is None}")
        return rec

    with mock.patch.object(harness.algorithms, "run", spy):
        harness.run_experiment(cfg, workers=workers)
    calls = {p.name.split("-", 1)[1]: p.read_text() for p in tmp_path.iterdir() if "-" in p.name}
    assert calls == {f"{a}-{r}": "False True" for a in ("gt_dsgd", "dsgd") for r in range(4)}
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


def _checks_envelope():
    cfg = harness.load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "check_pathwise.toml"))
    data = dict(cfg.data)
    data["checks"] = dict(data["checks"], runs=2)
    data["experiment"] = dict(data["experiment"], T=40)
    cfg = harness.ExperimentConfig(data=data)
    # a failing report too, whose violations are (run, t) pairs
    failing = theorycheck.CheckReport("descent", 80, -0.25, [(0, 3), (1, 7)], worst_at=(0, 3), runs=2)
    return harness.ResultEnvelope(config=cfg.data, fingerprint=cfg.fingerprint, series={},
                                  run_summaries={}, check_reports=harness.run_checks(cfg) + [failing])


@pytest.mark.parametrize("kind", ["experiment", "checks"])
def test_a_reloaded_envelope_emits_the_same_json(tmp_path, kind):
    env = harness.run_experiment(experiment_cfg(tmp_path, R=2)) if kind == "experiment" \
        else _checks_envelope()
    harness.emit_outputs(env, formats=("json",), outdir=tmp_path / "o1")
    reloaded = harness.load_envelope(tmp_path / "o1" / "envelope.json")
    harness.emit_outputs(reloaded, formats=("json",), outdir=tmp_path / "o2")
    assert (tmp_path / "o2" / "envelope.json").read_bytes() == \
        (tmp_path / "o1" / "envelope.json").read_bytes()
    assert [(r.name, r.passed, r.violations, r.worst_at, r.summary()) for r in reloaded.check_reports] == \
        [(r.name, r.passed, r.violations, r.worst_at, r.summary()) for r in env.check_reports]
    # run_checks merges each check's reports, which keeps the run count in details
    merged = slice(0, -1) if kind == "checks" else slice(0, 0)
    assert [r.runs for r in reloaded.check_reports[merged]] == \
        [r.runs for r in env.check_reports[merged]]


_FLOATS = st.one_of(
    st.floats(),
    st.builds(lambda sign, e, m: sign * m * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
              st.integers(-300, 299), st.floats(1.0, 9.99)),
)


@st.composite
def emitted_envelopes(draw):
    """Envelopes of several series of unequal lengths (empty, one point,
    constant, or any floats, non-finite ones too), with names and meta that
    JSON must escape."""
    series = {}
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.text(alphabet='ab_\u00e9"\\', min_size=1, max_size=6))
        n = draw(st.integers(0, 30))
        values = draw(st.one_of(st.lists(_FLOATS, min_size=n, max_size=n),
                                _FLOATS.map(lambda v: [v] * n)))
        dtype = draw(st.sampled_from([np.float64, np.float32]))
        meta = draw(st.dictionaries(st.sampled_from(["epsilon", "floor", "note"]),
                                    st.one_of(st.floats(), st.text(max_size=3), st.none())))
        with np.errstate(over="ignore"):  # float32 rounds what it cannot hold to inf
            series[name] = metrics.MetricSeries(name, np.array(values, dtype=dtype), meta)
    return harness.ResultEnvelope(
        config={"experiment": {"name": draw(st.text(max_size=4)), "T": 3}}, fingerprint="f",
        series=series, run_summaries={"gt_dsgd": {"R": 1, "final_mse": draw(st.floats())}},
        partial=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(env=emitted_envelopes())
def test_csv_and_json_match_the_reference_writers(env):
    with tempfile.TemporaryDirectory() as out:
        written = harness.emit_outputs(env, formats=("csv", "json"), outdir=out)
        assert written == [os.path.join(out, f"{name}.csv") for name in sorted(env.series)] + \
            [os.path.join(out, "envelope.json")]
        for name, s in env.series.items():
            with open(os.path.join(out, f"{name}.csv"), encoding="utf-8") as fh:
                assert fh.read() == reference_series_csv(s)
        with open(os.path.join(out, "envelope.json"), encoding="utf-8") as fh:
            assert fh.read() == reference_envelope_json(env)


def _read_dir(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


def test_an_experiment_emits_what_the_reference_writers_emit(tmp_path):
    env = harness.run_experiment(experiment_cfg(tmp_path, R=3))
    written = harness.emit_outputs(env, outdir=tmp_path / "new")
    expected = reference_emit_outputs(env, tmp_path / "ref")
    assert [os.path.basename(p) for p in written] == [os.path.basename(p) for p in expected]
    assert len(written) == 13
    assert _read_dir(tmp_path / "new") == _read_dir(tmp_path / "ref")


def _diverging_envelope(tmp_path):
    # no run aborts, and mse_dsgd ends at inf
    cfg = harness.normalize_config({
        "experiment": {"T": 720, "R": 2, "master_seed": 0, "algorithms": ["dsgd"],
                       "thresholds": [0.5]},
        "topology": {"kind": "ring", "n": 4},
        "cost": {"kind": "quadratic_synthetic", "d": 3, "seed": 4},
        "oracle": {"flavor": "gaussian", "s": 0.5},
        "schedule": {"kind": "constant", "alpha": 8.0}})
    env = harness.run_experiment(cfg)
    assert not env.partial and env.series["mse_dsgd"].values[-1] == np.inf
    return env


def _spiked_envelope(tmp_path):
    # a NaN first, and non-finite points inside the series
    env = harness.run_experiment(experiment_cfg(tmp_path, R=2))
    for name, s in env.series.items():
        s.values[0] = np.nan
        s.values[5:8] = [np.inf, -np.inf, np.nan]
    return env


@pytest.mark.parametrize("make_env", [_diverging_envelope, _spiked_envelope])
def test_non_finite_series_emit_every_file_and_draw_only_finite_points(tmp_path, make_env):
    env = make_env(tmp_path)
    written = harness.emit_outputs(env, outdir=tmp_path / "o")
    names = [os.path.basename(p) for p in written]
    tags = sorted({f"eps{s.meta['epsilon']:g}" for n, s in env.series.items() if n.startswith("tail_")})
    assert names == [f"{n}.csv" for n in sorted(env.series)] + ["envelope.json", "mse.svg", "mse_log.svg"] + \
        [f"tail_{tag}{suffix}.svg" for tag in tags for suffix in ("", "_log")]
    for name, s in env.series.items():
        assert (tmp_path / "o" / f"{name}.csv").read_text() == reference_series_csv(s)
    assert (tmp_path / "o" / "envelope.json").read_text() == reference_envelope_json(env)
    for name in names:
        if name.endswith(".svg"):
            svg = (tmp_path / "o" / name).read_text()
            points = re.findall(r'points="([^"]*)"', svg)
            assert points and not [p for p in points if "nan" in p or "inf" in p], name


def test_emit_outputs_rejects_an_unknown_format_and_writes_nothing(tmp_path):
    env = harness.run_experiment(experiment_cfg(tmp_path, R=1, algorithms=("gt_dsgd",)))
    out = tmp_path / "o"
    with pytest.raises(ValueError, match="unknown output format.*'jsn'"):
        harness.emit_outputs(env, formats=("csv", "jsn"), outdir=out)
    assert not out.exists()


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
    budget = block * 4 * alg._BLOCK * n * d * 8  # blocks of `block` runs at most
    with mock.patch.object(harness, "_BLOCK_BUDGET", budget):
        assert harness._block_size(harness.build_run_config(cfg)) == block
        reference = envelope_bytes(harness.run_experiment(cfg, workers=1))
    assert envelope_bytes(harness.run_experiment(cfg, workers=1)) == reference
    assert envelope_bytes(harness.run_experiment(cfg, workers=2)) == reference
    assert envelope_bytes(harness.run_experiment(cfg, workers=3)) == reference


@settings(max_examples=200, deadline=None)
@given(R=st.integers(1, 60), n_algorithms=st.integers(1, 2), workers=st.integers(1, 4),
       n=st.integers(1, 60), d=st.integers(1, 60), trace=st.booleans())
def test_block_plan_covers_the_runs_in_order_within_the_budget(R, n_algorithms, workers, n, d,
                                                                trace):
    run_cfg = alg.RunConfig(w=None, ensemble=None, oracle=None, schedule=None, T=300,
                            x0=np.zeros((n, d)), record_trace=trace)
    size = harness._block_size(run_cfg)
    per_run = (4 * alg._BLOCK + (4 * run_cfg.T + 3 * alg._BLOCK if trace else 0)) * n * d * 8
    assert size == 1 or size * per_run <= harness._BLOCK_BUDGET
    plan = harness._block_plan(R, n_algorithms, workers, size)
    # contiguous ranges in run order that cover each run once
    assert [r for ids in plan for r in ids] == list(range(R))
    assert all(ids.step == 1 and len(ids) >= 1 for ids in plan)
    assert max(len(ids) for ids in plan) <= size
    if workers > 1:
        assert max(len(ids) for ids in plan) - min(len(ids) for ids in plan) <= 1
        # whole rounds over the workers, unless that needs blocks of no runs
        assert (n_algorithms * len(plan)) % workers == 0 or len(plan) == R


def test_two_workers_step_equal_blocks_on_the_fig2_shape():
    # 16 runs at n = 50, d = 10: the budget holds 4 runs, and 4 blocks make
    # two rounds over 2 workers
    run_cfg = alg.RunConfig(w=None, ensemble=None, oracle=None, schedule=None, T=1500,
                            x0=np.zeros((50, 10)))
    size = harness._block_size(run_cfg)
    assert size == 4
    assert harness._block_plan(16, 1, 2, size) == [range(0, 4), range(4, 8), range(8, 12),
                                                   range(12, 16)]
    assert harness._block_plan(16, 1, 3, size) == [range(0, 3), range(3, 6), range(6, 9),
                                                   range(9, 12), range(12, 14), range(14, 16)]


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
    if len(results) == 1 and not isinstance(results[0], alg.RunAbort):
        results = results[0].split()
    assert len(results) == len(run_ids)
    for res, seed, run_id in zip(results, seeds, run_ids):
        try:
            alone = alg.run(algorithm, cfg, [seed], [run_id])
        except alg.RunAbort as exc:
            assert isinstance(res, alg.RunAbort)
            assert (res.run_id, str(res)) == (run_id, str(exc))
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
            alg.run("gt_dsgd", run_cfg, [seed], [r])
        except alg.RunAbort as exc:
            alone.append((r, str(exc), exc.iteration))
    assert [r for r, _, _ in alone] == [1, 2] and alone[1][2] < alone[0][2]
    assert harness._block_size(run_cfg) >= 4
    with pytest.raises(alg.RunAbort) as block:
        alg.run("gt_dsgd", run_cfg, seeds, [0, 1, 2, 3])
    assert (block.value.run_id, block.value.iteration) == (2, alone[1][2])

    with mock.patch.object(harness, "build_run_config", lambda cfg, record_trace: run_cfg):
        with pytest.raises(alg.RunAbort) as info:
            harness.run_checks(cfg)
    assert (info.value.run_id, str(info.value)) == alone[0][:2]


@pytest.mark.parametrize("workers", [1, 2])
def test_experiment_lists_aborted_runs_in_run_order_and_aggregates_the_rest(tmp_path, workers):
    cfg = experiment_cfg(tmp_path, R=6)
    run_cfg = alg.RunConfig(w=ring_matrix(4), ensemble=InfPastBound(np.stack([np.eye(3)] * 4),
                                                                    np.zeros((4, 3)), 0.3),
                            oracle=noise.GaussianOracle(1.0), schedule=alg.ConstantStep(0.1),
                            T=40, x0=np.zeros((4, 3)))
    exp = cfg["experiment"]
    expected, finished = [], {}
    for algorithm in exp["algorithms"]:
        finished[algorithm] = 0
        for r in range(exp["R"]):
            seed = harness.derive_run_seed(exp["master_seed"], algorithm, r)
            try:
                alg.run(algorithm, run_cfg, [seed], [r])
                finished[algorithm] += 1
            except alg.RunAbort as exc:
                expected.append({"algorithm": algorithm, "run_id": r, "iteration": exc.iteration,
                                 "agent": exc.agent, "stage": exc.stage, "error": str(exc)})
    # some runs abort and some finish, in each algorithm
    assert all(0 < k < exp["R"] for k in finished.values())
    env = harness.run_experiment(cfg, workers=workers, run_cfg=run_cfg)
    assert env.partial and env.aborted == expected
    assert {a: s["R"] for a, s in env.run_summaries.items()} == finished
    # the abort records' fields survive the envelope's JSON round trip
    harness.emit_outputs(env, formats=("json",), outdir=tmp_path / "out")
    assert harness.load_envelope(tmp_path / "out" / "envelope.json").aborted == expected


@pytest.mark.parametrize("thresholds, first, second", [
    ("[0.001, 0.0010000001, 0.5, 0.5]", "0.001", "0.0010000001"),
    ("[0.5, 0.05, 0.5]", "0.5", "0.5"),
    ("[1, 1.0]", "1.0", "1.0"),
])
def test_thresholds_that_share_a_series_name_are_a_config_error(tmp_path, thresholds, first, second):
    # series and charts are named tail_{algorithm}_eps{eps:g}: two such
    # thresholds would write one series
    text = MINIMAL_TOML.replace("T = 5\n", f"T = 5\nthresholds = {thresholds}\n")
    with pytest.raises(harness.ConfigError,
                       match=rf"'experiment\.thresholds' entries {re.escape(first)} and "
                             rf"{re.escape(second)} both name the series eps"):
        harness.load_config(write(tmp_path, text))


TOY = os.path.join(os.path.dirname(__file__), "fixtures", "toy.libsvm")


def _fails_before_any_run(tmp_path, capsys, command, text, message):
    """``gtsim <command>`` on ``text`` exits 1 with ``message`` on stderr,
    and the engine never runs."""
    path = write(tmp_path, text, name="unrunnable.toml")
    with mock.patch.object(harness.algorithms, "run", side_effect=AssertionError("a run started")) as run:
        assert cli([command, str(path), *(["--out", str(tmp_path / "out")] if command == "run" else [])]) == 1
    run.assert_not_called()
    err = capsys.readouterr().err
    assert re.search(message, err), err


@pytest.mark.parametrize("oracle, checks, message", [
    ('flavor = "relaxed_subgaussian"\ns = 0.5\nrho = 1.5\n', "noise = true\n",
     r"'checks\.noise' .* 'oracle\.rho' = 0, not 1\.5"),
    ('flavor = "gaussian"\ns = 0.5\n', "descent = true\n",
     r"'checks\.descent' is stated for a constant step-size, but 'schedule\.kind' is inverse_time"),
    ('flavor = "gaussian"\ns = 0.5\n', "consensus = true\ndescent_pl = true\n",
     r"'checks\.consensus' is stated for a constant step-size"),
    ('flavor = "gaussian"\ns = 0.5\n', "tracker = true\n",
     r"'checks\.tracker' is stated for a constant step-size"),
], ids=["noise-at-positive-rho", "descent-inverse-time", "consensus-inverse-time",
        "tracker-inverse-time"])
def test_a_check_config_that_cannot_run_fails_at_load_time(tmp_path, capsys, oracle, checks, message):
    text = MINIMAL_TOML.replace('flavor = "gaussian"\ns = 0.5\n', oracle)
    if "noise" not in checks:
        text = text.replace('kind = "constant"\nalpha = 0.01', 'kind = "inverse_time"\na = 1.0\nmu = 1.0')
    text += f"\n[checks]\nruns = 2\n{checks}"
    with pytest.raises(harness.ConfigError, match=message):
        harness.load_config(write(tmp_path, text))
    _fails_before_any_run(tmp_path, capsys, "check", text, message)


def test_the_pl_descent_check_on_a_cost_without_a_pl_constant_fails_before_any_run(tmp_path, capsys):
    text = MINIMAL_TOML.replace('kind = "quadratic_synthetic"\nd = 3\n',
                                f'kind = "logistic_libsvm"\npath = "{TOY}"\n')
    text += "\n[checks]\nruns = 2\ndescent_pl = true\n"
    _fails_before_any_run(tmp_path, capsys, "check", text,
                          r"'checks\.descent_pl' needs a known PL constant mu, and the logistic cost has none")


def test_a_thresholded_mse_to_opt_on_a_cost_without_an_optimum_fails_before_any_run(tmp_path, capsys):
    text = MINIMAL_TOML.replace("T = 5\n", "T = 5\nthresholds = [0.5]\n").replace(
        'kind = "quadratic_synthetic"\nd = 3\n', f'kind = "logistic_libsvm"\npath = "{TOY}"\n')
    message = r"'experiment\.tail_statistic' mse_to_opt needs a known optimum, and the logistic cost"
    _fails_before_any_run(tmp_path, capsys, "run", text, message)
    # running_stationarity needs no optimum, and neither does a run without thresholds
    for edit in ('T = 5\ntail_statistic = "running_stationarity"\n', "T = 5\nthresholds = []\n"):
        cfg = harness.load_config(write(tmp_path, text.replace("T = 5\nthresholds = [0.5]\n", edit)))
        assert not harness.run_experiment(cfg).partial


def test_a_quadratic_whose_mean_hessian_is_indefinite_has_no_optimum_but_runs(tmp_path, capsys):
    # each A_i = diag(1, -1): L = 1 and mean(A) is indefinite
    e = costs.QuadraticEnsemble(np.stack([np.diag([1.0, -1.0])] * 4), np.arange(8.0).reshape(4, 2))
    assert e.optimum() is None and e.pl_constant() is None
    path = tmp_path / "indefinite.json"
    costs.save_ensemble_json(e, path)
    text = MINIMAL_TOML.replace("T = 5\n", 'T = 5\nthresholds = [0.5]\ntail_statistic = "running_stationarity"\n')
    text = text.replace('kind = "quadratic_synthetic"\nd = 3\n', f'kind = "quadratic_json"\npath = "{path}"\n')
    env = harness.run_experiment(harness.load_config(write(tmp_path, text)))
    assert sorted(env.series) == ["tail_gt_dsgd_eps0.5"] and not env.partial
    assert env.run_summaries["gt_dsgd"] == {"R": 1, "T": 5}
    _fails_before_any_run(tmp_path, capsys, "run", text.replace("running_stationarity", "mse_to_opt"),
                          r"'experiment\.tail_statistic' mse_to_opt needs a known optimum, and the "
                          r"quadratic cost has none")


def test_an_algorithm_whose_every_run_aborts_gets_no_series(tmp_path):
    run = alg.run

    def dsgd_aborts(algorithm, config, seeds, run_ids):
        if algorithm == "dsgd":
            exc = alg.RunAbort(3, 1, "model update")
            exc.run_id = run_ids[0]
            raise exc
        return run(algorithm, config, seeds, run_ids)

    with mock.patch.object(harness.algorithms, "run", dsgd_aborts):
        env = harness.run_experiment(experiment_cfg(tmp_path, R=3))
    assert env.partial
    assert [(a["algorithm"], a["run_id"], a["iteration"]) for a in env.aborted] == [("dsgd", r, 3) for r in range(3)]
    alone = harness.run_experiment(experiment_cfg(tmp_path, R=3, algorithms=("gt_dsgd",)))
    assert env.run_summaries == alone.run_summaries and list(env.run_summaries) == ["gt_dsgd"]
    written = [harness.emit_outputs(e, formats=("csv",), outdir=tmp_path / name)
               for e, name in ((env, "partial"), (alone, "alone"))]
    names = [sorted(os.path.basename(p) for p in paths) for paths in written]
    assert names[0] == names[1] == ["mse_gt_dsgd.csv", "tail_gt_dsgd_eps0.05.csv", "tail_gt_dsgd_eps0.5.csv"]
    for name in names[0]:
        assert (tmp_path / "partial" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
