import json
import os
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


def test_parallel_map_matches_sequential(tmp_path, monkeypatch):
    cfg = parse_config(small_config(tmp_path, epochs=5, mu=10))
    out_seq = tmp_path / "seq"
    out_par = tmp_path / "par"
    for out, threads in ((out_seq, "1"), (out_par, "2")):
        monkeypatch.setenv("EDGECERT_THREADS", threads)
        cmd_gen(cfg, out)
        cmd_train(cfg, out)
        cmd_certify(cfg, out)
    assert (out_seq / "certify_report.csv").read_bytes() == (
        out_par / "certify_report.csv"
    ).read_bytes()


def _log_without_wall_ms(path):
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


def test_train_outputs_independent_of_thread_count(tmp_path, monkeypatch):
    import edgecert.trainer as trainer_mod

    monkeypatch.setattr(trainer_mod, "NCE_BLOCK_BYTES", 16 * 24 * 5)  # ragged row blocks
    cfg = parse_config(small_config(tmp_path))
    runs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("EDGECERT_THREADS", threads)
        out = tmp_path / f"threads-{threads}"
        cmd_gen(cfg, out)
        cmd_train(cfg, out)
        runs[threads] = out
    for name in ("encoder.ckpt", "classifier.ckpt", "train_summary.json"):
        assert (runs["1"] / name).read_bytes() == (runs["2"] / name).read_bytes()
    assert _log_without_wall_ms(runs["1"] / "train_log.csv") == _log_without_wall_ms(
        runs["2"] / "train_log.csv"
    )


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
    cfg = parse_config(small_config(tmp_path, **{key: value}))
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
    EdgeDropSpec, SbmConfig, base_predict, confidence_bounds, fit_logreg, init_params,
    sbm_generate, smoothed_predict,
)

g = sbm_generate(SbmConfig(
    blocks=2, nodes_per_block=6, p_in=0.6, p_out=0.1,
    feature_centers=np.array([[1.0, -1.0], [-1.0, 1.0]]), feature_noise_sd=0.3, seed=0,
))
enc = init_params(g.f_dim, 4, g.f_dim, 4, seed=0)
clf = fit_logreg(g.features, g.labels)
base_predict(g, 0, enc, clf, k_hop=2)
tally = smoothed_predict(g, 0, enc, clf, mu=8, spec=EdgeDropSpec(0.5), k_hop=2, seed=0)
heavy = ("scipy.sparse", "scipy.optimize", "scipy.special", "scipy.linalg")
print(sorted(m for m in sys.modules if m.startswith(heavy)))
confidence_bounds(tally, alpha=0.001, n_classes=2)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def _fresh_python(script, *args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "EDGECERT_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_package_and_vote_load_no_scipy_submodule():
    # every CLI stage is a fresh process, and gen and attack never call scipy:
    # importing the package (which leaves the thread pool to train_res) and
    # voting must not pay for loading scipy, nor must the Beta bounds of the
    # certify stage
    assert _fresh_python(_IMPORT_POLICY_SCRIPT) == ["[]", "[]", "[]", "[]"]


_CERTIFY_STAGE_SCRIPT = """
import sys
from edgecert.cli import main
main(["certify", "--config", sys.argv[1], "--out", sys.argv[2]])
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


@pytest.mark.parametrize("delta_mode", ["exact", "paper"])
def test_certify_stage_loads_no_scipy(tmp_path, delta_mode):
    path = small_config(tmp_path, epochs=3, delta_mode=delta_mode)
    cfg = parse_config(path)
    out = tmp_path / "run"
    cmd_gen(cfg, out)
    cmd_train(cfg, out)
    assert _fresh_python(_CERTIFY_STAGE_SCRIPT, str(path), str(out)) == ["[]"]
    rows = (out / "certify_report.csv").read_text().splitlines()[2:]
    assert len(rows) == split_nodes(24, cfg)[2].size
    assert {row.split(",")[7] for row in rows} == {delta_mode}
    # some node reaches the Delta(k >= 1) scan, so paper mode evaluates its bound
    assert any(row.split(",")[8] != "" for row in rows)


_CERTIFY_STAGE_POOL_SCRIPT = """
import os
import sys
os.environ["EDGECERT_THREADS"] = "2"
from edgecert.cli import main
main(["certify", "--config", sys.argv[1], "--out", sys.argv[2]])
print(sorted(m for m in sys.modules
             if m.startswith(("multiprocessing", "concurrent.futures.process"))))
"""


def test_certify_stage_with_two_workers_starts_no_process_pool(tmp_path):
    # the certify stage maps its nodes in its own process whatever EDGECERT_THREADS says
    path = small_config(tmp_path, epochs=3)
    cfg = parse_config(path)
    out = tmp_path / "run"
    cmd_gen(cfg, out)
    cmd_train(cfg, out)
    assert split_nodes(24, cfg)[2].size > 1
    assert _fresh_python(_CERTIFY_STAGE_POOL_SCRIPT, str(path), str(out)) == ["[]"]
