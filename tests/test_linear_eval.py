import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import edgecert.linear_eval as linear_eval_mod
from edgecert.linear_eval import (
    LogRegModel,
    fit_logreg,
    load_logreg,
    logits_many,
    predict,
    predict_many,
    save_logreg,
)


def test_separable_points_classified():
    Z = np.array([[-1.0], [1.0]])
    m = fit_logreg(Z, [0, 1], l2=0.01)
    assert predict(m, [-1.0]) == 0
    assert predict(m, [1.0]) == 1


def test_huge_l2_shrinks_weights_to_priors():
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((30, 3))
    y = np.array([0] * 20 + [1] * 10)
    m = fit_logreg(Z, y, l2=1e8)
    assert np.abs(m.W).max() < 1e-4
    # predictions collapse to the majority class (larger bias)
    assert predict(m, rng.standard_normal(3)) == 0
    assert m.b[0] > m.b[1]


def test_final_loss_not_above_zero_start():
    rng = np.random.default_rng(1)
    Z = rng.standard_normal((40, 4))
    y = rng.integers(0, 3, size=40)
    y[:3] = [0, 1, 2]
    from edgecert.linear_eval import _objective

    m = fit_logreg(Z, y, l2=1e-3)
    zero_loss = _objective(np.zeros_like(m.W), np.zeros_like(m.b), Z, y, 1e-3)
    final_loss = _objective(m.W, m.b, Z, y, 1e-3)
    assert final_loss <= zero_loss


def test_single_class_rejected():
    with pytest.raises(ValueError):
        fit_logreg(np.zeros((5, 2)), [0] * 5)


def test_missing_class_rejected():
    with pytest.raises(ValueError, match="missing"):
        fit_logreg(np.zeros((5, 2)), [0, 0, 2, 2, 2])


@pytest.mark.parametrize("labels,named", [
    ([-1, 0, 1, 0, 1], "[-1]"),
    ([0, 1, -3, -1, -3], "[-3, -1]"),
    ([-2, 0, 0, 0, 0], "[-2]"),
])
def test_negative_labels_rejected_by_name(labels, named):
    with pytest.raises(ValueError, match=r"non-negative class ids, got " + re.escape(named)):
        fit_logreg(np.zeros((5, 2)), labels)


def test_non_convergence_flag():
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((50, 4))
    y = rng.integers(0, 2, size=50)
    m = fit_logreg(Z, y, max_iters=2, tol=1e-14)
    assert m.converged is False


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_logreg_rejects_non_finite_embeddings(bad):
    # a NaN used to end in "descent violated on a convex objective", or under
    # python -O in an all-zero classifier with converged=False
    Z = np.random.default_rng(0).standard_normal((6, 2))
    Z[3, 1] = bad
    with pytest.raises(ValueError, match="non-finite embedding"):
        fit_logreg(Z, [0, 1, 0, 1, 0, 1])


def test_fit_logreg_raises_when_a_step_does_not_descend(monkeypatch):
    monkeypatch.setattr(linear_eval_mod, "_objective", lambda *args: float("nan"))
    with pytest.raises(RuntimeError, match="descent violated"):
        fit_logreg(np.array([[-1.0], [1.0]]), [0, 1])


_OPTIMIZED_FIT_SCRIPT = """
import numpy as np
import edgecert.linear_eval as le

for bad_input, error in ((True, ValueError), (False, RuntimeError)):
    Z = np.array([[-1.0], [np.nan if bad_input else 1.0]])
    if not bad_input:
        le._objective = lambda *args: float("nan")
    try:
        le.fit_logreg(Z, [0, 1])
    except error as err:
        print(type(err).__name__, err)
"""


def test_fit_logreg_checks_hold_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_FIT_SCRIPT],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "ValueError non-finite embedding",
        "RuntimeError descent violated on a convex objective",
    ]


def test_determinism():
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((25, 3))
    y = rng.integers(0, 2, size=25)
    y[:2] = [0, 1]
    a = fit_logreg(Z, y)
    b = fit_logreg(Z, y)
    assert np.array_equal(a.W, b.W)
    assert np.array_equal(a.b, b.b)


# ------------------------------------------------------------- prediction


def zero_model(n_classes=3, d=2):
    return LogRegModel(W=np.zeros((n_classes, d)), b=np.zeros(n_classes), l2=0.0)


def predict_proba(m, z):
    """Softmax class probabilities of one embedding, from logits_many."""
    logits = logits_many(m, np.reshape(z, (1, -1)))[0]
    e = np.exp(logits - logits.max())
    return e / e.sum()


def test_predict_proba_uniform_for_zero_model():
    probs = predict_proba(zero_model(), [0.3, -0.2])
    assert probs == pytest.approx([1 / 3] * 3)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_predict_proba_shift_invariance():
    m = LogRegModel(W=np.array([[1.0, 0.0], [0.0, 1.0]]), b=np.array([0.0, 0.0]), l2=0.0)
    m_shift = LogRegModel(W=m.W, b=m.b + 7.5, l2=0.0)
    z = np.array([0.4, -1.1])
    assert predict_proba(m, z) == pytest.approx(predict_proba(m_shift, z))


def test_predict_proba_softmax_hand_value():
    # logits (ln 2, 0) -> (2/3, 1/3)
    m = LogRegModel(W=np.array([[1.0], [0.0]]), b=np.array([0.0, 0.0]), l2=0.0)
    probs = predict_proba(m, [np.log(2.0)])
    assert probs == pytest.approx([2 / 3, 1 / 3])


def test_predict_proba_positive_entries():
    m = LogRegModel(W=np.array([[50.0], [-50.0]]), b=np.zeros(2), l2=0.0)
    probs = predict_proba(m, [1.0])
    assert np.all(probs > 0.0)


def test_predict_tie_breaks_to_smaller_class():
    assert predict(zero_model(2), [0.0, 0.0]) == 0


def test_predict_argmax():
    m = LogRegModel(W=np.array([[0.0], [1.0], [2.0]]), b=np.zeros(3), l2=0.0)
    assert predict(m, [1.0]) == 2


def test_predict_dim_mismatch():
    with pytest.raises(ValueError):
        predict(zero_model(), [1.0, 2.0, 3.0])


def test_predict_invariant_to_positive_logit_rescaling():
    rng = np.random.default_rng(6)
    m = LogRegModel(W=rng.standard_normal((3, 4)), b=rng.standard_normal(3), l2=0.0)
    scaled = LogRegModel(W=4.0 * m.W, b=4.0 * m.b, l2=0.0)
    for _ in range(10):
        z = rng.standard_normal(4)
        assert predict(m, z) == predict(scaled, z)


def test_predict_many_matches_predict():
    rng = np.random.default_rng(4)
    m = LogRegModel(W=rng.standard_normal((3, 4)), b=rng.standard_normal(3), l2=0.0)
    Z = rng.standard_normal((10, 4))
    assert predict_many(m, Z).tolist() == [predict(m, z) for z in Z]


def test_logreg_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    m = LogRegModel(W=rng.standard_normal((2, 3)), b=rng.standard_normal(2),
                    l2=1e-4, converged=True)
    save_logreg(tmp_path / "clf.ckpt", m)
    q = load_logreg(tmp_path / "clf.ckpt")
    assert np.array_equal(m.W, q.W)
    assert np.array_equal(m.b, q.b)
    assert q.l2 == m.l2
    assert q.converged is True


@pytest.mark.parametrize("line, bad, named", [
    ("scalar l2 0.0001", "scalar l2 1e-4)", "scalar l2 value '1e-4)' is not a literal"),
    ("scalar l2 0.0001", "scalar l2", "scalar line 'scalar l2' has no value"),
    ("0.0 0.0", "0.0 zz", "tensor b: could not convert string to float: 'zz'"),
], ids=["scalar_syntax", "scalar_no_value", "payload_token"])
def test_load_logreg_names_the_file_and_line_of_a_bad_value(tmp_path, line, bad, named):
    path = tmp_path / "classifier.ckpt"
    save_logreg(path, LogRegModel(W=np.ones((2, 3)), b=np.zeros(2), l2=1e-4))
    lines = path.read_text().splitlines()
    at = lines.index(line)
    lines[at] = bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {at + 1}: {named}')}$"):
        load_logreg(path)


@pytest.mark.parametrize("drop, named", [
    ("scalar l2 ", "scalar 'l2'"),
    ("scalar d_dim ", "scalar 'd_dim'"),
    ("tensor b ", "tensor 'b'"),
])
def test_load_logreg_names_the_file_and_what_it_lacks(tmp_path, drop, named):
    # a missing l2 line was a bare KeyError: 'l2'
    path = tmp_path / "clf.ckpt"
    save_logreg(path, LogRegModel(W=np.ones((2, 3)), b=np.zeros(2), l2=1e-4))
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(drop))
    lines = lines[:at] + lines[at + (2 if drop.startswith("tensor") else 1):]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint has no {named}$"):
        load_logreg(path)
