import dataclasses
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edgecert.cli import (
    CONFIG_DEFAULTS,
    cmd_attack,
    cmd_certify,
    cmd_gen,
    cmd_report,
    cmd_train,
    config_hash,
    main,
    parse_config,
    resolve_config,
    split_nodes,
)


def small_config(tmp_path, **overrides):
    values = {
        "seed": 3,
        "sbm_nodes_per_block": 12,
        "sbm_p_in": 0.4,
        "sbm_p_out": 0.05,
        "sbm_feature_noise_sd": 0.4,
        "train_frac": 0.25,
        "val_frac": 0.25,
        "test_frac": 0.5,
        "epochs": 15,
        "h_dim": 16,
        "d_dim": 8,
        "p_dim": 16,
        "mu": 30,
        "beta_drop": 0.5,
        "attack_budget": 2,
        "attack_num_targets": 5,
        "k_grid": "0,1,2",
    }
    values.update(overrides)
    lines = [f"{k} = {v}" for k, v in values.items()]
    path = tmp_path / "config.txt"
    path.write_text("# test config\n" + "\n".join(lines) + "\n")
    return path


def test_parse_config_defaults_and_overrides(tmp_path):
    path = small_config(tmp_path)
    cfg = parse_config(path)
    assert cfg.seed == 3
    assert cfg.raw["mu"] == 30
    assert cfg.raw["alpha"] == CONFIG_DEFAULTS["alpha"]
    assert cfg.k_grid == [0, 1, 2]


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("mystery_key = 1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config(path)


def test_parse_config_rejects_duplicate_key(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("mu = 100\nseed = 1\nmu = 7\n")
    with pytest.raises(ValueError, match=r"dup\.txt:3: duplicate config key 'mu'"):
        parse_config(path)


@pytest.mark.parametrize("overrides, message", [
    ({"delta_mode": "exat"}, "delta mode"),
    ({"beta_drop": 1.0}, "beta_drop"),
    ({"delta_e_fixed": 3, "delta_mode": "exact"}, "e_fixed"),
    ({"attack_mode": "x"}, "attack mode"),
    ({"k_grid": "1,x"}, "'x'"),
    ({"epochs": 0}, "epochs"),
    ({"temperature": 0}, "temperature"),
    ({"k_grid": "0,-1"}, "k_grid entries must be >= 0"),
    ({"h_dim": 0}, "h_dim must be >= 1"),
    ({"d_dim": 0}, "d_dim must be >= 1"),
    ({"p_dim": 0}, "p_dim must be >= 1"),
    ({"l2": -1}, "l2 must be >= 0"),
    ({"l2": "nan"}, "l2 must be >= 0"),
    ({"logreg_max_iters": 0}, "logreg_max_iters must be >= 1"),
    ({"attack_num_targets": -1}, "attack_num_targets must be >= 0"),
    ({"train_frac": -0.1, "val_frac": 0.3, "test_frac": 0.8}, r"train_frac must be in \[0, 1\]"),
    ({"train_frac": 0.1, "val_frac": -0.1, "test_frac": 1.0}, r"val_frac must be in \[0, 1\]"),
    ({"train_frac": 0.5, "val_frac": 0.5, "test_frac": "nan"}, r"test_frac must be in \[0, 1\]"),
    ({"train_frac": "nan"}, r"train_frac must be in \[0, 1\]"),
    ({"logreg_tol": 0}, "logreg_tol must be finite and positive"),
    ({"logreg_tol": -1e-6}, "logreg_tol must be finite and positive"),
    ({"logreg_tol": "nan"}, "logreg_tol must be finite and positive"),
    ({"logreg_tol": "inf"}, "logreg_tol must be finite and positive"),
    ({"sbm_p_in": 1.5}, r"sbm_p_in must be in \[0, 1\], got 1.5"),
    ({"sbm_p_out": 0.5}, r"sbm_p_out must be in \[0, sbm_p_in\], got 0.5"),
    ({"sbm_blocks": 0}, "sbm_blocks must be >= 1"),
    ({"sbm_nodes_per_block": 0}, "sbm_nodes_per_block must be >= 1"),
    ({"sbm_feature_dim": 0}, "sbm_feature_dim must be >= 1"),
    ({"sbm_feature_noise_sd": -1}, "sbm_feature_noise_sd must be finite and >= 0"),
    ({"sbm_feature_noise_sd": "inf"}, "sbm_feature_noise_sd must be finite and >= 0"),
    ({"sbm_center_scale": "nan"}, "sbm_center_scale must be finite"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
], ids=["delta_mode", "beta_drop", "delta_e_fixed", "attack_mode", "k_grid", "epochs", "temperature",
        "k_grid_negative", "h_dim", "d_dim", "p_dim", "l2", "l2_nan", "logreg_max_iters",
        "attack_num_targets", "train_frac_negative", "val_frac_negative", "test_frac_nan",
        "train_frac_nan", "logreg_tol_zero", "logreg_tol_negative", "logreg_tol_nan",
        "logreg_tol_inf", "sbm_p_in", "sbm_p_out", "sbm_blocks", "sbm_nodes_per_block",
        "sbm_feature_dim", "sbm_feature_noise_sd", "sbm_feature_noise_sd_inf",
        "sbm_center_scale_nan", "seed_negative"])
def test_parse_config_rejects_values_a_later_stage_would(tmp_path, overrides, message):
    # each of these used to pass the parse, so gen and train ran to completion
    # before a later stage failed or silently wrote nonsense (a "k = -1" curve
    # row, every test node attacked for attack_num_targets = -1, train and
    # test nodes that overlap for train_frac = -0.1, a classifier fit that
    # runs to logreg_max_iters for a logreg_tol it can never meet)
    with pytest.raises(ValueError, match=message):
        parse_config(small_config(tmp_path, **overrides))


@pytest.mark.parametrize("line, message", [
    ("sbm_p_in = 1.5", "sbm_p_in must be in [0, 1], got 1.5"),
    ("sbm_feature_dim = 0", "sbm_feature_dim must be >= 1, got 0"),
    ("seed = -1", "seed must be >= 0, got -1"),
    ("mu = 0", "mu must be >= 1, got 0"),
    ("temperature = 0", "temperature must be finite and positive, got 0.0"),
], ids=["sbm_p_in", "sbm_feature_dim", "seed", "mu", "temperature"])
def test_parse_config_names_key_and_line_of_a_value_its_key_does_not_take(
        tmp_path, line, message):
    # sbm_p_in = 1.5 failed only in gen, as "need 0 <= p_out <= p_in <= 1", and
    # seed = -1 as "seed path entries must be non-negative", naming no key
    path = tmp_path / "bad.txt"
    path.write_text(f"# config\nepochs = 3\n{line}\n")
    with pytest.raises(ValueError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}:3: {message}"


def test_parse_config_names_the_file_for_a_default_its_value_conflicts_with(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("sbm_p_in = 0.001\n")  # below the default sbm_p_out
    with pytest.raises(ValueError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}: sbm_p_out must be in [0, sbm_p_in], got 0.01"


@pytest.mark.parametrize("line, message", [
    ("mu = abc", "mu = 'abc' is not a valid int"),
    ("beta_drop = x", "beta_drop = 'x' is not a valid float"),
    ("k_grid = 1,x", "k_grid = '1,x': 'x' is not a valid int"),
], ids=["mu", "beta_drop", "k_grid"])
def test_parse_config_names_key_and_line_of_a_value_that_does_not_convert(
        tmp_path, line, message):
    path = tmp_path / "bad.txt"
    path.write_text(f"# config\nseed = 1\n{line}\nepochs = 3\n")
    with pytest.raises(ValueError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}:3: {message}"
    key, _, value = line.partition(" = ")
    with pytest.raises(ValueError) as err:
        resolve_config({key: value})
    assert str(err.value) == message


def test_resolve_config_rejects_non_integral_value_for_an_int_key():
    # a file with mu = 30.7 is rejected; a dict must not truncate it to 30
    with pytest.raises(ValueError, match=r"^mu = 30\.7 is not a valid int$"):
        resolve_config({"mu": 30.7})
    with pytest.raises(ValueError, match="attack_budget"):
        resolve_config({"attack_budget": float("inf")})
    cfg = resolve_config({"mu": 30.0, "epochs": np.float64(3.0)})
    assert cfg.raw["mu"] == 30 and type(cfg.raw["mu"]) is int
    assert cfg.raw["epochs"] == 3 and type(cfg.raw["epochs"]) is int


def test_resolve_config_types_values_as_their_defaults(tmp_path):
    text = {key: str(value) for key, value in CONFIG_DEFAULTS.items()}
    text.update({"seed": "7", "mu": "30", "beta_drop": "0.25", "k_grid": "0,2", "delta_e_fixed": "4",
                 "delta_mode": "paper"})
    cfg = resolve_config(text)
    for key, default in CONFIG_DEFAULTS.items():
        assert type(cfg.raw[key]) is type(default), key
    path = tmp_path / "config.txt"
    path.write_text("".join(f"{key} = {value}\n" for key, value in text.items()))
    assert config_hash(cfg) == config_hash(parse_config(path))
    assert cfg.seed == 7 and cfg.raw["mu"] == 30 and cfg.edgedrop.beta_drop == 0.25
    assert cfg.k_grid == [0, 2] and cfg.delta_policy.e_fixed == 4


def test_resolve_config_validates_fractions():
    values = dict(CONFIG_DEFAULTS)
    values["train_frac"] = 0.5
    with pytest.raises(ValueError, match="sum to 1"):
        resolve_config(values)


@pytest.mark.parametrize("k_hop", [0, 1])
def test_resolve_config_rejects_k_hop_below_encoder_depth(k_hop):
    # a node's embedding reads its 2-hop neighbourhood; a smaller k-hop
    # subgraph silently truncates it
    values = {**CONFIG_DEFAULTS, "k_hop": k_hop}
    with pytest.raises(ValueError, match="k_hop"):
        resolve_config(values)
    assert int(resolve_config({**CONFIG_DEFAULTS, "k_hop": 2}).raw["k_hop"]) == 2
    assert int(resolve_config({**CONFIG_DEFAULTS, "k_hop": 3}).raw["k_hop"]) == 3


def test_config_hash_changes_iff_config_changes(tmp_path):
    cfg_a = parse_config(small_config(tmp_path))
    cfg_b = parse_config(small_config(tmp_path))
    assert config_hash(cfg_a) == config_hash(cfg_b)
    cfg_c = parse_config(small_config(tmp_path, mu=31))
    assert config_hash(cfg_a) != config_hash(cfg_c)


def test_split_nodes_deterministic_partition(tmp_path):
    cfg = parse_config(small_config(tmp_path))
    a = split_nodes(24, cfg)
    b = split_nodes(24, cfg)
    joined = np.sort(np.concatenate(a))
    assert np.array_equal(joined, np.arange(24))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_cmd_gen_writes_byte_identical_fixture(tmp_path):
    cfg = parse_config(small_config(tmp_path))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cmd_gen(cfg, out_a)
    cmd_gen(cfg, out_b)
    for name in ("edges.txt", "features.txt", "labels.txt", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(cfg)
    assert manifest["seed"] == cfg.seed


def test_cmd_gen_labels_match_blocks(tmp_path):
    cfg = parse_config(small_config(tmp_path))
    out = tmp_path / "out"
    cmd_gen(cfg, out)
    labels = [int(line.split()[1]) for line in (out / "labels.txt").read_text().splitlines()]
    assert labels == [0] * 12 + [1] * 12


def test_train_requires_dataset(tmp_path):
    cfg = parse_config(small_config(tmp_path))
    with pytest.raises(FileNotFoundError, match="gen"):
        cmd_train(cfg, tmp_path / "empty")


def test_full_pipeline_and_reports(tmp_path):
    cfg = parse_config(small_config(tmp_path))
    out = tmp_path / "run"
    cmd_gen(cfg, out)
    summary = cmd_train(cfg, out)
    assert (out / "encoder.ckpt").exists()
    assert (out / "classifier.ckpt").exists()
    log_lines = (out / "train_log.csv").read_text().splitlines()
    assert len(log_lines) == 2 + cfg.raw["epochs"]  # hash line + header + epochs
    certs = cmd_certify(cfg, out)
    assert len(certs) == split_nodes(24, cfg)[2].size
    curve_lines = (out / "certified_accuracy.csv").read_text().splitlines()
    values = [float(line.split(",")[1]) for line in curve_lines[2:]]
    assert all(a >= b for a, b in zip(values, values[1:]))
    attack_summary = cmd_attack(cfg, out)
    assert attack_summary["n_targets"] == 5
    for name in ("attack_smoothed.csv", "attack_unsmoothed.csv"):
        rows = (out / name).read_text().splitlines()
        assert len(rows) == 2 + attack_summary["n_targets"]  # hash + header + rows
    report = cmd_report(cfg, out)
    assert report["config_hash"] == config_hash(cfg)
    assert report["clean_accuracy"]["val"] == summary["val_accuracy"]
    assert (out / "report.json").exists()
    # report rerun is idempotent
    first = (out / "report.json").read_bytes()
    cmd_report(cfg, out)
    assert (out / "report.json").read_bytes() == first


def test_certify_requires_checkpoints(tmp_path):
    cfg = parse_config(small_config(tmp_path))
    out = tmp_path / "run"
    cmd_gen(cfg, out)
    with pytest.raises(FileNotFoundError, match="train"):
        cmd_certify(cfg, out)


def test_report_lists_missing_inputs(tmp_path):
    cfg = parse_config(small_config(tmp_path))
    out = tmp_path / "run"
    out.mkdir()
    with pytest.raises(FileNotFoundError) as err:
        cmd_report(cfg, out)
    message = str(err.value)
    assert "train_summary.json" in message
    assert "attack_summary.json" in message
    assert "certified_accuracy.csv" in message


def test_zero_budget_attack_matches_clean(tmp_path):
    cfg = parse_config(small_config(tmp_path, attack_budget=0, attack_num_targets=0))
    out = tmp_path / "run"
    cmd_gen(cfg, out)
    cmd_train(cfg, out)
    summary = cmd_attack(cfg, out)
    # unsmoothed zero-budget robust accuracy equals subgraph clean accuracy
    rows = (out / "attack_unsmoothed.csv").read_text().splitlines()[2:]
    assert summary["robust_accuracy_unsmoothed"] == pytest.approx(
        np.mean([row.split(",")[5] == "True" for row in rows])
    )
    smoothed_rows = (out / "attack_smoothed.csv").read_text().splitlines()[2:]
    for row in smoothed_rows:
        assert row.split(",")[2] == "False"  # attacked flag off at zero budget


@pytest.mark.parametrize("mode", ["targeted", "global"])
def test_attack_stage_draws_each_attack_once(tmp_path, monkeypatch, mode):
    from edgecert import attack, certify, cli, graph
    from edgecert.cli import _attack_targets, _load_checkpoints, load_dataset
    from edgecert.rng import derive_seed

    cfg = parse_config(small_config(tmp_path, epochs=3, attack_mode=mode, attack_rate=0.2))
    out = tmp_path / "run"
    cmd_gen(cfg, out)
    cmd_train(cfg, out)
    calls = {}

    def count(module, name):
        def counted(*args, _original=getattr(module, name), **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("random_targeted_attack", "random_global_attack", "add_edges"):
        count(attack, name)
    # every binding of the k-hop extraction that the stage could reach
    for module in (graph, certify, cli):
        count(module, "khop_subgraph")
    summary = cmd_attack(cfg, out)
    monkeypatch.undo()
    # one extraction each of a target's clean and attacked subgraph, which both
    # pipelines classify
    if mode == "targeted":
        assert calls == {"random_targeted_attack": 5, "add_edges": 5, "khop_subgraph": 2 * 5}
    else:
        assert calls == {"random_global_attack": 1, "add_edges": 1, "khop_subgraph": 2 * 5}

    # the outputs of two evaluations that each draw their own attacks
    g = load_dataset(cfg, out)
    enc, clf = _load_checkpoints(out)
    targets = _attack_targets(cfg, split_nodes(g.n_nodes, cfg)[2])
    eval_seed = derive_seed(cfg.seed, 101)
    reports = {
        name: attack.evasion_eval(
            g, targets, enc, clf, cfg.attack_spec,
            smoothing=smoothing, seed=eval_seed, k_hop=cfg.raw["k_hop"],
        )
        for name, smoothing in (("smoothed", (cfg.raw["mu"], cfg.edgedrop)), ("unsmoothed", None))
    }
    chash = config_hash(cfg)
    for name, report in reports.items():
        attack.write_attack_report(tmp_path / f"{name}.csv", report, chash)
        assert (out / f"attack_{name}.csv").read_bytes() == (tmp_path / f"{name}.csv").read_bytes()
    assert summary == json.loads((out / "attack_summary.json").read_text()) == {
        "config_hash": chash,
        "attack_mode": mode,
        "attack_budget": 2,
        "attack_rate": 0.2,
        "n_targets": 5,
        "robust_accuracy_smoothed": reports["smoothed"].accuracy,
        "robust_accuracy_unsmoothed": reports["unsmoothed"].accuracy,
    }


def test_beta_zero_certifies_nothing_beyond_k0(tmp_path):
    cfg = parse_config(small_config(tmp_path, beta_drop=0.0, mu=10))
    out = tmp_path / "run"
    cmd_gen(cfg, out)
    cmd_train(cfg, out)
    certs = cmd_certify(cfg, out)
    assert all(c.certified_k in (None, 0) for c in certs)


def test_main_cli_entry(tmp_path):
    path = small_config(tmp_path, epochs=3, mu=5)
    out = tmp_path / "cli-out"
    assert main(["gen", "--config", str(path), "--out", str(out)]) == 0
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "train_summary.json").exists()


def test_main_seed_override_changes_hash(tmp_path):
    path = small_config(tmp_path, epochs=3, mu=5)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["gen", "--config", str(path), "--out", str(out_a)])
    main(["gen", "--config", str(path), "--seed", "99", "--out", str(out_b)])
    ha = json.loads((out_a / "manifest.json").read_text())["config_hash"]
    hb = json.loads((out_b / "manifest.json").read_text())["config_hash"]
    assert ha != hb


def test_train_val_accuracy_on_separable_fixture(tmp_path):
    # full fixture; oracle: logistic regression on raw features is already
    # accurate, and linear eval on learned embeddings must reach >= 0.9 too
    values = {"seed": 0}
    cfg = resolve_config({**CONFIG_DEFAULTS, **values})
    out = tmp_path / "run"
    cmd_gen(cfg, out)
    summary = cmd_train(cfg, out)
    assert summary["val_accuracy"] >= 0.9

    from edgecert.graph import load_graph
    from edgecert.linear_eval import fit_logreg, predict_many

    g, _ = load_graph(out / "edges.txt", out / "features.txt", out / "labels.txt")
    train_idx, val_idx, _ = split_nodes(g.n_nodes, cfg)
    raw = fit_logreg(g.features[train_idx], g.labels[train_idx], l2=1e-4)
    raw_acc = (predict_many(raw, g.features[val_idx]) == g.labels[val_idx]).mean()
    assert raw_acc >= 0.9  # the fixture is separable on raw features


def test_config_hash_stamped_on_every_output(tmp_path):
    cfg = parse_config(small_config(tmp_path, epochs=3, mu=5))
    out = tmp_path / "run"
    cmd_gen(cfg, out)
    cmd_train(cfg, out)
    cmd_certify(cfg, out)
    cmd_attack(cfg, out)
    cmd_report(cfg, out)
    expected = config_hash(cfg)
    for path in out.glob("*.csv"):
        assert path.read_text().splitlines()[0] == f"# config_hash={expected}"
    for path in out.glob("*.json"):
        assert json.loads(path.read_text())["config_hash"] == expected


def test_train_warns_on_stderr_when_classifier_does_not_converge(tmp_path, capsys):
    quiet = parse_config(small_config(tmp_path, epochs=3, logreg_tol=1e-2))
    cmd_gen(quiet, tmp_path / "quiet")
    assert cmd_train(quiet, tmp_path / "quiet")["classifier_converged"]
    assert capsys.readouterr().err == ""

    cfg = parse_config(small_config(tmp_path, epochs=3, logreg_max_iters=1))
    out = tmp_path / "run"
    cmd_gen(cfg, out)
    summary = cmd_train(cfg, out)
    assert not summary["classifier_converged"]
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "classifier_converged is false" in lines[0] and "logreg_max_iters = 1" in lines[0]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key,field", [
    ("sbm_feature_noise_sd", "feature_noise_sd"),
    ("sbm_center_scale", "feature_centers"),
])
def test_gen_rejects_non_finite_sbm_setting(tmp_path, key, field, value):
    # the parse rejects the value, naming its key ...
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        parse_config(small_config(tmp_path, **{key: value}))
    # ... and gen still rejects it in a config that skipped the parse
    cfg = parse_config(small_config(tmp_path))
    cfg = dataclasses.replace(cfg, raw={**cfg.raw, key: float(value)})
    with pytest.raises(ValueError, match=field):
        cmd_gen(cfg, tmp_path / "run")
    assert not (tmp_path / "run" / "features.txt").exists()


# Runs in a fresh interpreter, so modules imported by other tests do not count.
_IMPORT_POLICY_SCRIPT = """
import sys
import numpy as np
import edgecert, edgecert.cli
print(sorted(m for m in sys.modules if m.startswith("multiprocessing")))
print(sorted(m for m in sys.modules if m.startswith(("concurrent.futures", "logging"))))
from edgecert import (
    EdgeDropSpec, SbmConfig, base_predict, confidence_bounds, fit_logreg, fit_reverse_weibull,
    init_params, sbm_generate, smoothed_predict,
)

g = sbm_generate(SbmConfig(
    blocks=2, nodes_per_block=6, p_in=0.6, p_out=0.1,
    feature_centers=np.array([[1.0, -1.0], [-1.0, 1.0]]), feature_noise_sd=0.3, seed=0,
))
enc = init_params(g.f_dim, 4, g.f_dim, 4, seed=0)
clf = fit_logreg(g.features, g.labels)
base_predict(g, 0, enc, clf, k_hop=2)
tally = smoothed_predict(g, 0, enc, clf, mu=8, spec=EdgeDropSpec(0.5), k_hop=2, seed=0)
confidence_bounds(tally, alpha=0.001, n_classes=2)
fit_reverse_weibull(0.3 * np.random.default_rng(0).weibull(2.0, size=200), lam=200)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def _fresh_python(script, *args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_package_and_vote_load_no_scipy_submodule():
    # numpy is the only runtime dependency: importing the package (which
    # leaves the thread pool to train_res), voting, the Beta bounds of the
    # certify stage and the Weibull margin fit load no scipy module at all
    assert _fresh_python(_IMPORT_POLICY_SCRIPT) == ["[]", "[]", "[]"]


_STAGE_SCRIPT = """
import sys
from edgecert.cli import main
main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]])
print(sorted(m for m in sys.modules if m.startswith("scipy")))
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
print(sorted(m for m in sys.modules if m.startswith("edgecert.")))
print(sorted(m for m in sys.modules if m.startswith(("concurrent.futures", "logging"))))
"""


def _stage_inputs(tmp_path, stage, **overrides):
    """Config path, config and run directory holding what stage reads."""
    path = small_config(tmp_path, epochs=3, **overrides)
    cfg = parse_config(path)
    out = tmp_path / "run"
    if stage != "gen":
        cmd_gen(cfg, out)
    if stage in ("certify", "attack", "report"):
        cmd_train(cfg, out)
    if stage == "report":
        cmd_certify(cfg, out)
        cmd_attack(cfg, out)
    return path, cfg, out


@pytest.mark.parametrize("stage,overrides", [
    pytest.param("gen", {}, id="gen"),
    pytest.param("train", {}, id="train"),
    pytest.param("certify", {"delta_mode": "exact"}, id="certify-exact"),
    pytest.param("certify", {"delta_mode": "paper"}, id="certify-paper"),
    pytest.param("attack", {}, id="attack"),
    pytest.param("report", {}, id="report"),
])
def test_stage_loads_no_scipy_nor_numpy_ma(tmp_path, stage, overrides):
    # each stage is a fresh process: loading scipy would set its peak memory,
    # and numpy.ma is what np.unique imports
    path, cfg, out = _stage_inputs(tmp_path, stage, **overrides)
    assert _fresh_python(_STAGE_SCRIPT, stage, str(path), str(out))[:2] == ["[]", "[]"]
    if stage == "gen":
        assert (out / "features.txt").exists()
    elif stage == "train":
        assert len((out / "train_log.csv").read_text().splitlines()) == 2 + 3
    elif stage == "certify":
        rows = (out / "certify_report.csv").read_text().splitlines()[2:]
        assert len(rows) == split_nodes(24, cfg)[2].size
        assert {row.split(",")[7] for row in rows} == {overrides["delta_mode"]}
        # some node reaches the Delta(k >= 1) scan, so paper mode evaluates its bound
        assert any(row.split(",")[8] != "" for row in rows)
    elif stage == "attack":
        summary = json.loads((out / "attack_summary.json").read_text())
        assert (summary["attack_mode"], summary["n_targets"]) == ("targeted", 5)
    else:
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 2
        assert sorted(report["versions"]) == ["edgecert", "numpy", "python"]


_BASE_MODULES = ["edgecert.cli", "edgecert.config", "edgecert.graph", "edgecert.rng"]
_MODEL_MODULES = ["edgecert.checkpoint", "edgecert.encoder", "edgecert.linear_eval"]
_CERTIFY_MODULES = [*_BASE_MODULES, *_MODEL_MODULES, "edgecert.certify", "edgecert.noise"]


@pytest.mark.parametrize("stage,modules", [
    pytest.param("gen", _BASE_MODULES, id="gen"),
    pytest.param("train", [*_BASE_MODULES, *_MODEL_MODULES, "edgecert.trainer"], id="train"),
    pytest.param("certify", _CERTIFY_MODULES, id="certify"),
    pytest.param("attack", [*_CERTIFY_MODULES, "edgecert.attack"], id="attack"),
    pytest.param("report", _BASE_MODULES, id="report"),
])
def test_stage_loads_only_the_modules_it_runs(tmp_path, stage, modules):
    # a stage process compiles every module it imports, so gen and report
    # load no model code, no stage loads margin, and train on this 24-node
    # graph (under NCE_POOL_MIN_NODES) starts no thread pool, so it loads
    # neither concurrent.futures nor the logging module that comes with it
    path, _, out = _stage_inputs(tmp_path, stage)
    loaded = _fresh_python(_STAGE_SCRIPT, stage, str(path), str(out))[2:]
    assert loaded == [str(sorted(modules)), "[]"]


def test_package_import_loads_no_submodule():
    script = "import sys, edgecert\nprint(sorted(m for m in sys.modules if m.startswith('edgecert.')))"
    assert _fresh_python(script) == ["[]"]


def _peak_kib_script(body):
    """A script that runs body with one BLAS thread, then prints the process's
    peak memory in KiB. The peak is VmHWM, the high-water mark of the process's
    own memory map: a child's ru_maxrss keeps that of the process it was
    started from, pytest here."""
    return f"""
import os
import sys
os.environ["OPENBLAS_NUM_THREADS"] = "1"
{body}
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


# train pinned to the CPUs in argv[3]; prints the thread-pool modules it
# loaded, then its peak memory
_PINNED_TRAIN_SCRIPT = _peak_kib_script("""
os.sched_setaffinity(0, [int(cpu) for cpu in sys.argv[3].split(",")])
from edgecert.cli import main
main(["train", "--config", sys.argv[1], "--out", sys.argv[2]])
print(sorted(m for m in sys.modules if m.startswith(("concurrent.futures", "logging"))))
""")

_USABLE_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
# train pinned to one usable CPU, and to two
_CPU_SETS = {k: ",".join(map(str, _USABLE_CPUS[:k])) for k in (1, 2)}
_needs_two_cpus = pytest.mark.skipif(len(_USABLE_CPUS) < 2, reason="needs two usable CPUs")


def _pinned_train(path, out, cpus):
    """(thread-pool modules line, peak KiB) of a fresh train process on cpus CPUs."""
    modules, kib = _fresh_python(_PINNED_TRAIN_SCRIPT, str(path), str(out), _CPU_SETS[cpus])[-2:]
    return modules, int(kib)


def _pool_sized_config(tmp_path, **overrides):
    # 400 nodes, NCE_POOL_MIN_NODES: on two CPUs train runs its thread pool,
    # and the default 1 MiB score block holds 163 rows, so the last is ragged
    return small_config(tmp_path, sbm_nodes_per_block=200, sbm_p_in=0.03, sbm_p_out=0.002,
                        epochs=3, **overrides)


def _log_without_wall_ms(path):
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


@_needs_two_cpus
def test_train_loads_concurrent_futures_only_on_two_cpus(tmp_path):
    path = _pool_sized_config(tmp_path)
    out = tmp_path / "run"
    cmd_gen(parse_config(path), out)
    assert _pinned_train(path, out, 1)[0] == "[]"
    pooled = _pinned_train(path, out, 2)[0]
    assert "'concurrent.futures.thread'" in pooled and "'logging'" in pooled


@_needs_two_cpus
def test_train_outputs_independent_of_thread_count(tmp_path):
    path = _pool_sized_config(tmp_path)
    runs = {}
    for cpus in (1, 2):
        out = tmp_path / f"cpus-{cpus}"
        cmd_gen(parse_config(path), out)
        _pinned_train(path, out, cpus)
        runs[cpus] = out
    for name in ("encoder.ckpt", "classifier.ckpt", "train_summary.json"):
        assert (runs[1] / name).read_bytes() == (runs[2] / name).read_bytes()
    assert _log_without_wall_ms(runs[1] / "train_log.csv") == _log_without_wall_ms(
        runs[2] / "train_log.csv"
    )


@_needs_two_cpus
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_train_second_worker_adds_little_peak_memory(tmp_path):
    # the worker thread's InfoNCE pass allocates only block-sized arrays, so
    # its malloc arena stays small, and the second pass's score block and
    # product buffer (about 2 MB) are most of the difference; when the passes
    # allocated their own n-sized scratch, two workers peaked about 10 MB
    # above one here. Heap layout alone moves one run's peak by about 1 MB,
    # so the medians of three alternating runs per side are compared.
    path = small_config(
        tmp_path, sbm_nodes_per_block=1000, sbm_p_in=0.004, sbm_p_out=0.0003,
        epochs=1, h_dim=64, d_dim=32, p_dim=32,
    )
    out = tmp_path / "run"
    cmd_gen(parse_config(path), out)
    kib = {2: [], 1: []}
    for _ in range(3):
        for cpus in kib:
            kib[cpus].append(_pinned_train(path, out, cpus)[1])
    assert statistics.median(kib[2]) - statistics.median(kib[1]) <= 3 * 1024, kib


_GEN_RSS_SCRIPT = _peak_kib_script("""
from edgecert.cli import main
main(["gen", "--config", sys.argv[1], "--out", sys.argv[2]])
""")

_CONFIG_RSS_SCRIPT = _peak_kib_script("""
from edgecert.cli import parse_config
parse_config(sys.argv[1])
""")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_gen_stage_peaks_near_a_process_that_reads_its_config(tmp_path):
    # the generator holds one block of uniforms, not one per node pair: at
    # n = 2000 a float64 per pair is 16 MB, and gen peaked about 18 MB above
    # the config reader; parsing the config is the baseline because deriving
    # its attack seed is the first numpy.random call, which maps about 2 MB
    # of library pages that every stage pays
    path = small_config(
        tmp_path, sbm_blocks=8, sbm_nodes_per_block=250, sbm_p_in=0.02, sbm_p_out=0.0006,
    )
    out = tmp_path / "run"
    gen = int(_fresh_python(_GEN_RSS_SCRIPT, str(path), str(out))[-1])
    config_only = int(_fresh_python(_CONFIG_RSS_SCRIPT, str(path))[-1])
    assert (out / "edges.txt").exists()
    assert gen - config_only <= 5 * 1024, (gen, config_only)


_CERTIFY_STAGE_POOL_SCRIPT = """
import sys
from edgecert.cli import main
main(["certify", "--config", sys.argv[1], "--out", sys.argv[2]])
print(sorted(m for m in sys.modules
             if m.startswith(("multiprocessing", "concurrent.futures.process"))))
"""


def test_certify_stage_with_two_workers_starts_no_process_pool(tmp_path):
    # the certify stage maps its nodes in its own process on any number of CPUs
    path = small_config(tmp_path, epochs=3)
    cfg = parse_config(path)
    out = tmp_path / "run"
    cmd_gen(cfg, out)
    cmd_train(cfg, out)
    assert split_nodes(24, cfg)[2].size > 1
    assert _fresh_python(_CERTIFY_STAGE_POOL_SCRIPT, str(path), str(out)) == ["[]"]
