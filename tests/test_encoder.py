import re

import numpy as np
import pytest

from edgecert.encoder import (
    EncoderParams,
    forward,
    init_params,
    load_params,
    save_params,
)
from edgecert.graph import Graph


def make_graph(n, edges, features):
    return Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2),
                 np.asarray(features, dtype=np.float64))


# ----------------------------------------------------------------- init


def test_init_deterministic():
    a = init_params(4, 3, 2, 2, seed=7)
    b = init_params(4, 3, 2, 2, seed=7)
    for name in ("W1", "W2", "P1", "b1", "P2", "b2"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_init_glorot_bound():
    p = init_params(4, 3, 2, 2, seed=0)
    bound = np.sqrt(6.0 / 7.0)
    assert np.abs(p.W1).max() <= bound


def test_init_zero_biases():
    p = init_params(4, 3, 2, 2, seed=0)
    assert not p.b1.any()
    assert not p.b2.any()


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        init_params(0, 3, 2, 2, seed=0)


# -------------------------------------------------------------- forward


def test_forward_single_node_hand_value():
    # A~ = [1], relu pass-through: Z = 1 * relu(1*1*2) * 3 = 6
    g = make_graph(1, [], [[1.0]])
    p = EncoderParams(
        W1=np.array([[2.0]]),
        W2=np.array([[3.0]]),
        P1=np.array([[1.0]]),
        b1=np.zeros(1),
        P2=np.array([[1.0]]),
        b2=np.zeros(1),
    )
    emb = forward(g, p)
    assert np.allclose(emb.Z, [[6.0]])
    assert np.allclose(emb.H, [[6.0]])


def test_forward_edgeless_no_propagation():
    # A~ = I exactly, so Z = relu(X W1) W2 rowwise
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 3))
    g = make_graph(5, [], X)
    p = init_params(3, 4, 2, 2, seed=1)
    Z = forward(g, p).Z
    expected = np.maximum(X @ p.W1, 0.0) @ p.W2
    assert np.allclose(Z, expected, atol=1e-12)


def test_forward_permutation_equivariance():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((6, 3))
    g = make_graph(6, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 5]], X)
    p = init_params(3, 8, 4, 4, seed=3)
    perm = np.array([3, 1, 5, 0, 4, 2])  # new id of old node i
    edges = np.sort(perm[g.edges], axis=1)
    gp = Graph(6, edges, X[np.argsort(perm)])
    Z = forward(g, p).Z
    Zp = forward(gp, p).Z
    assert np.allclose(Zp[perm], Z, atol=1e-12)


def test_forward_isolated_node_leaves_others_unchanged():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((4, 3))
    g = make_graph(4, [[0, 1], [1, 2]], X)
    p = init_params(3, 5, 3, 3, seed=5)
    Z = forward(g, p).Z
    X_plus = np.vstack([X, rng.standard_normal((1, 3))])
    g_plus = make_graph(5, [[0, 1], [1, 2]], X_plus)
    Z_plus = forward(g_plus, p).Z
    assert np.allclose(Z_plus[:4], Z, atol=1e-12)


def test_forward_shape_mismatch():
    g = make_graph(2, [[0, 1]], np.zeros((2, 3)))
    p = init_params(4, 3, 2, 2, seed=0)
    with pytest.raises(ValueError):
        forward(g, p)


def test_forward_outputs_finite():
    rng = np.random.default_rng(6)
    g = make_graph(5, [[0, 1], [2, 3]], rng.standard_normal((5, 3)))
    p = init_params(3, 4, 3, 3, seed=7)
    emb = forward(g, p)
    assert np.all(np.isfinite(emb.Z))
    assert np.all(np.isfinite(emb.H))


# ------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip(tmp_path):
    p = init_params(4, 6, 3, 5, seed=9)
    path = tmp_path / "enc.ckpt"
    save_params(path, p)
    q = load_params(path)
    for name in ("W1", "W2", "P1", "b1", "P2", "b2"):
        assert np.array_equal(getattr(p, name), getattr(q, name))


def test_checkpoint_bytes_deterministic(tmp_path):
    p = init_params(3, 4, 2, 2, seed=1)
    save_params(tmp_path / "a.ckpt", p)
    save_params(tmp_path / "b.ckpt", p)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_validates_kind(tmp_path):
    p = init_params(3, 4, 2, 2, seed=1)
    save_params(tmp_path / "a.ckpt", p)
    from edgecert.linear_eval import load_logreg

    with pytest.raises(ValueError, match="kind"):
        load_logreg(tmp_path / "a.ckpt")


@pytest.mark.parametrize("payload_rows", [0, 2])
def test_checkpoint_cut_inside_a_tensor_is_a_value_error(tmp_path, payload_rows):
    from edgecert.checkpoint import read_checkpoint, write_checkpoint

    path = tmp_path / "t.ckpt"
    write_checkpoint(path, "t", {}, {"W": np.arange(6.0).reshape(3, 2)})
    lines = path.read_text().splitlines()
    header = lines.index("tensor W 3 2")
    path.write_text("\n".join(lines[: header + 1 + payload_rows]) + "\n")
    with pytest.raises(ValueError, match="truncated checkpoint"):
        read_checkpoint(path, "t")


def _rewritten(path, edit):
    """Rewrite a checkpoint through edit(lines) -> lines."""
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")


@pytest.mark.parametrize(
    "header", ["tensor W 3 2 1", "tensor W", "tensor W 3 2 1 1", "tensor W -1 2", "tensor W 3 x"]
)
def test_checkpoint_header_of_other_than_one_or_two_dimensions_names_the_file(tmp_path, header):
    # "tensor W 3 2 1" reached numpy's reshape error, "tensor W" an IndexError,
    # "tensor W 3 x" int()'s error, and "tensor W -1 2" reread its own header forever
    from edgecert.checkpoint import read_checkpoint, write_checkpoint

    path = tmp_path / "t.ckpt"
    write_checkpoint(path, "t", {}, {"W": np.arange(6.0).reshape(3, 2)})
    _rewritten(path, lambda lines: [header if line == "tensor W 3 2" else line for line in lines])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: tensor header .* 1 or 2 dim"):
        read_checkpoint(path, "t")


@pytest.mark.parametrize("row", ["0.0", "0.0 1.0 2.0", ""])
@pytest.mark.parametrize("shape", [(3, 2), (2,)])
def test_checkpoint_row_of_wrong_width_names_the_file(tmp_path, shape, row):
    from edgecert.checkpoint import read_checkpoint, write_checkpoint

    path = tmp_path / "t.ckpt"
    write_checkpoint(path, "t", {}, {"W": np.zeros(shape)})
    _rewritten(path, lambda lines: lines[:3] + [row] + lines[4:])  # the first payload row
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: tensor W has a row of other"):
        read_checkpoint(path, "t")


@pytest.mark.parametrize("line_no, bad, named", [
    (3, "scalar l2 1e-4)", "scalar l2 value '1e-4)' is not a literal"),
    (3, "scalar l2", "scalar line 'scalar l2' has no value"),
    (5, "0.0 zz", "tensor W: could not convert string to float: 'zz'"),
], ids=["scalar_syntax", "scalar_no_value", "payload_token"])
def test_checkpoint_bad_value_names_the_file_and_line(tmp_path, line_no, bad, named):
    # these raised a bare SyntaxError, "not enough values to unpack" and
    # float()'s error, naming no file
    from edgecert.checkpoint import read_checkpoint, write_checkpoint

    path = tmp_path / "t.ckpt"
    write_checkpoint(path, "t", {"l2": 1e-4}, {"W": np.arange(6.0).reshape(3, 2)})
    _rewritten(path, lambda lines: lines[: line_no - 1] + [bad] + lines[line_no:])
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {line_no}: {named}')}$"):
        read_checkpoint(path, "t")


@pytest.mark.parametrize("drop, named", [
    ("scalar h_dim ", "scalar 'h_dim'"),
    ("tensor b2 ", "tensor 'b2'"),
])
def test_load_params_names_the_file_and_what_it_lacks(tmp_path, drop, named):
    # a missing tensor was a TypeError from EncoderParams, a missing scalar
    # read as one that "does not match tensor shapes"
    path = tmp_path / "enc.ckpt"
    save_params(path, init_params(4, 6, 3, 5, seed=9))

    def without(lines):
        at = next(i for i, line in enumerate(lines) if line.startswith(drop))
        return lines[:at] + lines[at + (2 if drop.startswith("tensor") else 1):]

    _rewritten(path, without)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint has no {named}$"):
        load_params(path)


def test_params_validate_shapes():
    with pytest.raises(ValueError):
        EncoderParams(
            W1=np.zeros((3, 4)),
            W2=np.zeros((5, 2)),  # mismatched inner dim
            P1=np.zeros((2, 2)),
            b1=np.zeros(2),
            P2=np.zeros((2, 2)),
            b2=np.zeros(2),
        )


def test_params_reject_non_finite():
    with pytest.raises(ValueError):
        EncoderParams(
            W1=np.array([[np.nan]]),
            W2=np.zeros((1, 1)),
            P1=np.zeros((1, 1)),
            b1=np.zeros(1),
            P2=np.zeros((1, 1)),
            b2=np.zeros(1),
        )
