import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgecert.trainer as trainer_mod
from edgecert.encoder import init_params
from edgecert.graph import SbmConfig, normalized_adjacency, sbm_generate
from edgecert.trainer import (
    AugConfig,
    TrainConfig,
    TrainingError,
    _epoch_views,
    _nce_terms,
    augment,
    grad_check,
    loss_and_grads,
    train_res,
)


def small_sbm(seed=0, nodes_per_block=10, sd=0.5):
    cfg = SbmConfig(
        blocks=2,
        nodes_per_block=nodes_per_block,
        p_in=0.4,
        p_out=0.05,
        feature_centers=np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]]),
        feature_noise_sd=sd,
        seed=seed,
    )
    return sbm_generate(cfg)


# ------------------------------------------------------------------ augment


def test_augment_identity():
    g = small_sbm()
    out = augment(g, 0.0, 0.0, seed=1, tag=0)
    assert out == g


def test_augment_full_edge_drop():
    g = small_sbm()
    assert augment(g, 1.0, 0.0, seed=1, tag=0).n_edges == 0


def test_augment_full_feature_mask():
    g = small_sbm()
    out = augment(g, 0.0, 1.0, seed=1, tag=0)
    assert not out.features.any()


def test_augment_deterministic_per_tag():
    g = small_sbm()
    a = augment(g, 0.3, 0.2, seed=5, tag=1)
    b = augment(g, 0.3, 0.2, seed=5, tag=1)
    c = augment(g, 0.3, 0.2, seed=5, tag=2)
    assert a == b
    assert a != c


def test_augment_masks_whole_columns():
    g = small_sbm()
    out = augment(g, 0.0, 0.5, seed=7, tag=0)
    col_zero = ~out.features.any(axis=0)
    # every column is either untouched or fully zero
    for j in range(g.f_dim):
        if col_zero[j]:
            continue
        assert np.array_equal(out.features[:, j], g.features[:, j])


# ----------------------------------------------------------------- InfoNCE


def test_info_nce_uniform_two_nodes_is_log3():
    H = np.array([[1.0, 0.5], [1.0, 0.5]])
    assert _nce_terms(H, H, 0.5)[0] == pytest.approx(np.log(3.0), abs=1e-12)


def test_info_nce_uniform_matches_log_2n_minus_1():
    for n in (2, 3, 5, 8):
        H = np.tile([0.3, -0.7, 0.2], (n, 1))
        assert _nce_terms(H, H, 0.7)[0] == pytest.approx(np.log(2 * n - 1), abs=1e-10)


def test_info_nce_positive():
    rng = np.random.default_rng(0)
    H1 = rng.standard_normal((6, 4))
    H2 = rng.standard_normal((6, 4))
    assert _nce_terms(H1, H2, 0.5)[0] > 0.0


def test_info_nce_low_temperature_limit():
    # identical positives, orthogonal negatives: loss -> 0 as tau -> 0
    H = np.eye(2)
    assert _nce_terms(H, H, 0.05)[0] < 1e-8


def test_info_nce_permutation_invariant():
    rng = np.random.default_rng(1)
    H1 = rng.standard_normal((7, 3))
    H2 = rng.standard_normal((7, 3))
    perm = rng.permutation(7)
    base = _nce_terms(H1, H2, 0.4)[0]
    assert _nce_terms(H1[perm], H2[perm], 0.4)[0] == pytest.approx(base, rel=1e-12)


def test_info_nce_zero_row_rejected():
    H1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    H2 = np.ones((2, 2))
    with pytest.raises(ValueError, match="zero-norm"):
        _nce_terms(H1, H2, 0.5)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_info_nce_positive_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    H1 = rng.standard_normal((n, 5)) + 0.1
    H2 = rng.standard_normal((n, 5)) + 0.1
    assert _nce_terms(H1, H2, 0.5)[0] > 0.0


def _nce_terms_reference(H1, H2, tau):
    """The full-width InfoNCE: (n, 2n) concatenations, transposed weights."""
    n = H1.shape[0]
    r1 = np.linalg.norm(H1, axis=1)
    r2 = np.linalg.norm(H2, axis=1)
    N1 = H1 / r1[:, None]
    N2 = H2 / r2[:, None]
    E12 = (N1 @ N2.T) / tau
    E11 = (N1 @ N1.T) / tau
    E22 = (N2 @ N2.T) / tau
    np.fill_diagonal(E11, -np.inf)
    np.fill_diagonal(E22, -np.inf)

    def direction(cross, intra):
        both = np.concatenate([cross, intra], axis=1)
        m = both.max(axis=1)
        lse = m + np.log(np.exp(both - m[:, None]).sum(axis=1))
        losses = lse - np.diag(cross)
        return losses, np.exp(cross - lse[:, None]), np.exp(intra - lse[:, None])

    l1, w12, w11 = direction(E12, E11)
    l2, w21, w22 = direction(E12.T, E22)
    loss = float((l1.mean() + l2.mean()) / 2.0)
    eye = np.eye(n)
    c = 1.0 / (2.0 * n * tau)
    G12 = c * ((w12 - eye) + (w21 - eye).T)
    G11 = c * w11
    G22 = c * w22
    dN1 = G12 @ N2 + (G11 + G11.T) @ N1
    dN2 = G12.T @ N1 + (G22 + G22.T) @ N2

    def through_norm(dN, N, r):
        return (dN - (dN * N).sum(axis=1, keepdims=True) * N) / r[:, None]

    return loss, through_norm(dN1, N1, r1), through_norm(dN2, N2, r2)


ORACLE_SIZES = [2, 3, 37, 100, 501]


def _views(n, p_dim=32):
    rng = np.random.default_rng(n)
    H1 = rng.standard_normal((n, p_dim))
    return H1, H1 + 0.3 * rng.standard_normal((n, p_dim))


@pytest.mark.parametrize("threaded", [True, False])
@pytest.mark.parametrize("block_rows", [1, 7, None])  # 7 leaves a ragged last block
@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_nce_terms_bit_identical_to_full_width_reference(n, block_rows, threaded, monkeypatch):
    # exact until the fused pass: its row-block scores and its gradient sums
    # over blocks round differently, so both now match the oracle to rounding
    if block_rows is not None:
        monkeypatch.setattr(trainer_mod, "NCE_BLOCK_BYTES", 16 * n * block_rows)
    H1, H2 = _views(n)
    with ThreadPoolExecutor(2) if threaded else nullcontext() as pool:
        loss, dH1, dH2 = _nce_terms(H1, H2, 0.5, pool)
    ref_loss, ref_dH1, ref_dH2 = _nce_terms_reference(H1, H2, 0.5)
    assert abs(loss - ref_loss) <= 1e-13 * abs(ref_loss)
    for got, ref in ((dH1, ref_dH1), (dH2, ref_dH2)):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class _CountingPool(ThreadPoolExecutor):
    maps = 0

    def map(self, *args, **kwargs):
        self.maps += 1
        return super().map(*args, **kwargs)


@pytest.mark.parametrize("block_rows", [7, None])
@pytest.mark.parametrize(
    "n", [37, trainer_mod.NCE_POOL_MIN_NODES - 1, trainer_mod.NCE_POOL_MIN_NODES, 501]
)
def test_nce_terms_threaded_equals_serial_exactly(n, block_rows, monkeypatch):
    if block_rows is not None:
        monkeypatch.setattr(trainer_mod, "NCE_BLOCK_BYTES", 16 * n * block_rows)
    H1, H2 = _views(n)
    serial = _nce_terms(H1, H2, 0.5)
    with _CountingPool(2) as pool:
        threaded = _nce_terms(H1, H2, 0.5, pool)
    # a pool that is handed in runs the passes at every size; train_res
    # decides whether to start one (test_train_res_starts_its_pool_only_...)
    assert pool.maps == 1
    assert threaded[0] == serial[0]
    assert np.array_equal(threaded[1], serial[1])
    assert np.array_equal(threaded[2], serial[2])


def test_nce_terms_peak_memory_under_seven_squares():
    # the full-width version peaks at about 12 n^2 float64
    n = 1000
    rng = np.random.default_rng(0)
    H1 = rng.standard_normal((n, 32))
    H2 = rng.standard_normal((n, 32))
    tracemalloc.start()
    try:
        _nce_terms(H1, H2, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 8 * n * n


@pytest.mark.parametrize("threads", [1, 2])
def test_nce_terms_peak_memory_under_half_square(threads):
    # the full-width version peaks at about 12 n^2 float64, the row-blocked
    # log-sum-exps with n x n weights at about 4 n^2
    n = 2000
    H1, H2 = _views(n)
    with ThreadPoolExecutor(threads) as pool:
        tracemalloc.start()
        try:
            _nce_terms(H1, H2, 0.5, pool if threads > 1 else None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 0.5 * 8 * n * n


@pytest.mark.parametrize("threads,bound_mib", [(1, 11), (2, 13)])
def test_loss_and_grads_step_peak_memory(threads, bound_mib):
    # through InfoNCE each view keeps only A, T1, U1_pos and T2, and _backward
    # rebuilds Z and S1 (500 KiB each per view here); keeping them peaked at
    # 12.6 MiB serial and 14.6 MiB on two threads
    g = sbm_generate(SbmConfig(
        blocks=8, nodes_per_block=250, p_in=0.02, p_out=0.0006,
        feature_centers=np.random.default_rng(0).standard_normal((8, 8)),
        feature_noise_sd=1.0, seed=1,
    ))
    gi, gj = _epoch_views(g, train_cfg(seed=1, res_beta=0.9), epoch=0)
    p = init_params(g.f_dim, 64, 32, 32, seed=0)
    with ThreadPoolExecutor(threads) as pool:
        tracemalloc.start()
        try:
            loss_and_grads(p, gi, gj, 0.5, pool if threads > 1 else None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= bound_mib * 2**20


class _EachCallMeasured:
    """An executor whose map runs the calls in turn and records each call's
    own tracemalloc peak, above what was allocated when it started."""

    def __init__(self):
        self.peaks = []

    def map(self, fn, *iterables):
        results = []
        for args in zip(*iterables):
            tracemalloc.reset_peak()
            entry, _ = tracemalloc.get_traced_memory()
            results.append(fn(*args))
            self.peaks.append(tracemalloc.get_traced_memory()[1] - entry)
        return iter(results)


def test_anchor_passes_allocate_nothing_n_sized():
    # every array a pass writes comes from _nce_terms, in the calling thread,
    # so a worker thread's malloc arena never holds n-sized memory; here one
    # (n, p) array is 500 KiB and the score block about 1 MiB
    n = 2000
    H1, H2 = _views(n)
    executor = _EachCallMeasured()
    tracemalloc.start()
    try:
        _nce_terms(H1, H2, 0.5, executor)
    finally:
        tracemalloc.stop()
    assert len(executor.peaks) == 2
    assert max(executor.peaks) < 128 * 1024


# -------------------------------------- exact equality with the earlier code
# The forward cache, InfoNCE passes and backward as they were before the
# passes took their arrays from the caller, read one key stack and the cache
# dropped U1, R1 and Q1. Every product and sum is the same and runs in the
# same order, so the results must be equal, not close.


def _old_forward_cache(p, A, X):
    T1 = A @ X
    U1 = T1 @ p.W1
    R1 = np.maximum(U1, 0.0)
    T2 = A @ R1
    Z = T2 @ p.W2
    Q1 = Z @ p.P1 + p.b1
    S1 = np.maximum(Q1, 0.0)
    H = S1 @ p.P2 + p.b2
    return {"A": A, "T1": T1, "U1": U1, "R1": R1, "T2": T2, "Z": Z, "Q1": Q1, "S1": S1, "H": H}


def _old_anchor_pass(N, other, tau):
    n = N.shape[0]
    B = np.concatenate([other, N])
    B_tau = B / tau
    terms = np.empty(n)
    dB = np.zeros_like(B)
    c = 1.0 / (2.0 * n * tau)
    rows = min(n, max(1, trainer_mod.NCE_BLOCK_BYTES // (16 * n)))
    buf = np.empty((rows, 2 * n))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        A = N[lo:hi]
        S = np.matmul(A, B_tau.T, out=buf[: hi - lo])
        r = np.arange(hi - lo)
        pos = S[r, lo + r]
        S[r, n + lo + r] = -np.inf
        m = S.max(axis=1)
        S -= m[:, None]
        np.exp(S, out=S)
        s = S.sum(axis=1)
        terms[lo:hi] = m + np.log(s) - pos
        S[r, lo + r] -= s
        w = (c / s)[:, None]
        dB[n + lo : n + hi] += (S @ B) * w
        dB += S.T @ (A * w)
    return terms, dB


def _old_nce_terms(H1, H2, tau, executor=None):
    n = H1.shape[0]
    r1 = np.linalg.norm(H1, axis=1)
    r2 = np.linalg.norm(H2, axis=1)
    N1 = H1 / r1[:, None]
    N2 = H2 / r2[:, None]
    mapper = map if executor is None else executor.map
    (t1, dB1), (t2, dB2) = mapper(_old_anchor_pass, (N1, N2), (N2, N1), (tau, tau))
    loss = float((t1.mean() + t2.mean()) / 2.0)
    dN1 = dB1[n:] + dB2[:n]
    dN2 = dB1[:n] + dB2[n:]

    def through_norm(dN, N, r):
        return (dN - (dN * N).sum(axis=1, keepdims=True) * N) / r[:, None]

    return loss, through_norm(dN1, N1, r1), through_norm(dN2, N2, r2)


def _old_backward(p, cache, dH, grads):
    dS1 = dH @ p.P2.T
    grads["P2"] += cache["S1"].T @ dH
    grads["b2"] += dH.sum(axis=0)
    dQ1 = dS1 * (cache["Q1"] > 0)
    grads["P1"] += cache["Z"].T @ dQ1
    grads["b1"] += dQ1.sum(axis=0)
    dZ = dQ1 @ p.P1.T
    grads["W2"] += cache["T2"].T @ dZ
    dT2 = dZ @ p.W2.T
    dR1 = cache["A"] @ dT2
    dU1 = dR1 * (cache["U1"] > 0)
    grads["W1"] += cache["T1"].T @ dU1


def _old_loss_and_grads(p, g1, g2, temperature, executor=None):
    c1 = _old_forward_cache(p, normalized_adjacency(g1), g1.features)
    c2 = _old_forward_cache(p, normalized_adjacency(g2), g2.features)
    loss, dH1, dH2 = _old_nce_terms(c1["H"], c2["H"], temperature, executor)
    grads = {name: np.zeros_like(getattr(p, name)) for name in trainer_mod._PARAM_NAMES}
    _old_backward(p, c1, dH1, grads)
    _old_backward(p, c2, dH2, grads)
    return loss, grads


def _one_block_sbm(n):
    # odd n is allowed: one block
    return sbm_generate(SbmConfig(
        blocks=1, nodes_per_block=n, p_in=min(1.0, 6.0 / n), p_out=0.0,
        feature_centers=np.ones((1, 5)), feature_noise_sd=1.0, seed=n,
    ))


def _observe_cpus(monkeypatch, cpus):
    """Make train_res see cpus usable CPUs."""
    monkeypatch.setattr(trainer_mod, "_usable_cpus", lambda: cpus)


def _spy_loss_and_grads(monkeypatch, check=None):
    """Record the executor of each loss_and_grads call train_res makes."""
    executors = []

    def spy(p, g1, g2, temperature, executor=None):
        executors.append(executor)
        if check is not None:
            check(p, g1, g2, temperature, executor)
        return loss_and_grads(p, g1, g2, temperature, executor)

    monkeypatch.setattr(trainer_mod, "loss_and_grads", spy)
    return executors


_EXACT_CASES = [
    pytest.param(n, block_rows, cpus, id=f"n{n}-rows{block_rows}-w{cpus}")
    for n in (37, 501)
    for block_rows in (7, None)  # 7 leaves a ragged last block at both sizes
    for cpus in (1, 2)
]


@pytest.mark.parametrize("n,block_rows,cpus", _EXACT_CASES)
def test_loss_and_grads_equal_earlier_code_exactly(n, block_rows, cpus, monkeypatch):
    # each step of a training run, on the path its observed CPUs choose
    _observe_cpus(monkeypatch, cpus)
    monkeypatch.setattr(trainer_mod, "NCE_POOL_MIN_NODES", 2)  # two CPUs run the pool
    if block_rows is not None:
        monkeypatch.setattr(trainer_mod, "NCE_BLOCK_BYTES", 16 * n * block_rows)

    def equal_to_old(p, g1, g2, temperature, executor):
        loss, grads = loss_and_grads(p, g1, g2, temperature, executor)
        old_loss, old_grads = _old_loss_and_grads(p, g1, g2, temperature, executor)
        assert loss == old_loss
        for name in trainer_mod._PARAM_NAMES:
            assert np.array_equal(grads[name], old_grads[name]), name

    executors = _spy_loss_and_grads(monkeypatch, equal_to_old)
    cfg = train_cfg(epochs=2, seed=n, res_beta=0.3)
    train_res(_one_block_sbm(n), cfg, h_dim=16, d_dim=8, p_dim=16)
    assert [e is not None for e in executors] == [cpus > 1] * 2


@pytest.mark.parametrize("n,block_rows,cpus", _EXACT_CASES)
def test_train_res_equals_earlier_code_exactly(n, block_rows, cpus, monkeypatch):
    _observe_cpus(monkeypatch, cpus)
    monkeypatch.setattr(trainer_mod, "NCE_POOL_MIN_NODES", 2)
    if block_rows is not None:
        monkeypatch.setattr(trainer_mod, "NCE_BLOCK_BYTES", 16 * n * block_rows)
    g = _one_block_sbm(n)
    cfg = train_cfg(epochs=8, seed=n)
    got = train_res(g, cfg, h_dim=16, d_dim=8, p_dim=16)
    monkeypatch.setattr(trainer_mod, "loss_and_grads", _old_loss_and_grads)
    want = train_res(g, cfg, h_dim=16, d_dim=8, p_dim=16)
    assert got.losses == want.losses
    for name in trainer_mod._PARAM_NAMES:
        assert np.array_equal(getattr(got.params, name), getattr(want.params, name)), name


# ---------------------------------------------------------------- training


def train_cfg(epochs=30, seed=0, res_beta=0.5):
    return TrainConfig(
        epochs=epochs,
        seed=seed,
        aug=AugConfig(p_edge_drop_view=0.2, p_feat_mask_view=0.1,
                      temperature=0.5, res_beta_drop=res_beta),
    )


def test_train_rejects_zero_epochs():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_train_descends_on_sbm():
    g = small_sbm(nodes_per_block=50, sd=0.3)
    result = train_res(g, train_cfg(epochs=200), h_dim=64, d_dim=32, p_dim=32)
    assert result.losses[-1] < result.losses[0]


def test_train_deterministic():
    g = small_sbm()
    a = train_res(g, train_cfg(epochs=10), h_dim=8, d_dim=4, p_dim=8)
    b = train_res(g, train_cfg(epochs=10), h_dim=8, d_dim=4, p_dim=8)
    assert a.losses == b.losses
    for name in ("W1", "W2", "P1", "b1", "P2", "b2"):
        assert np.array_equal(getattr(a.params, name), getattr(b.params, name))


def test_train_two_workers_equals_one_exactly(monkeypatch):
    g = small_sbm(nodes_per_block=20)
    monkeypatch.setattr(trainer_mod, "NCE_POOL_MIN_NODES", 2)  # the pool runs at 40 nodes
    monkeypatch.setattr(trainer_mod, "NCE_BLOCK_BYTES", 16 * g.n_nodes * 7)  # ragged blocks
    runs = {}
    for cpus in (1, 2):
        _observe_cpus(monkeypatch, cpus)
        executors = _spy_loss_and_grads(monkeypatch)
        runs[cpus] = train_res(g, train_cfg(epochs=8), h_dim=8, d_dim=4, p_dim=8)
        assert {e is not None for e in executors} == {cpus > 1}
    a, b = runs[1], runs[2]
    assert a.losses == b.losses
    for name in ("W1", "W2", "P1", "b1", "P2", "b2"):
        assert np.array_equal(getattr(a.params, name), getattr(b.params, name))


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n", [399, 400])
def test_train_res_starts_its_pool_only_at_400_nodes_on_two_cpus(n, cpus, monkeypatch):
    assert trainer_mod.NCE_POOL_MIN_NODES == 400
    _observe_cpus(monkeypatch, cpus)
    executors = _spy_loss_and_grads(monkeypatch)
    train_res(_one_block_sbm(n), train_cfg(epochs=2), h_dim=8, d_dim=4, p_dim=8)
    pooled = n >= 400 and cpus >= 2
    assert [type(e) for e in executors] == [ThreadPoolExecutor if pooled else type(None)] * 2
    if pooled:
        assert executors[0] is executors[1]  # one pool for the whole run


@pytest.mark.parametrize("temperature", [0.0, -1.0, math.nan, math.inf])
def test_aug_config_rejects_bad_temperature(temperature):
    with pytest.raises(ValueError, match="temperature"):
        AugConfig(temperature=temperature)


@pytest.mark.parametrize(
    "key, value",
    [
        ("learning_rate", math.nan),
        ("learning_rate", math.inf),
        ("learning_rate", -1e-3),
        ("adam_beta1", 1.0),
        ("adam_beta1", 2.0),
        ("adam_beta1", -0.1),
        ("adam_beta1", math.nan),
        ("adam_beta2", 1.0),
        ("adam_beta2", math.nan),
        ("adam_eps", -1.0),
        ("adam_eps", 0.0),
        ("adam_eps", math.nan),
        ("adam_eps", math.inf),
    ],
)
def test_train_config_rejects_bad_optimizer_setting(key, value):
    with pytest.raises(ValueError, match=key):
        TrainConfig(epochs=1, **{key: value})


def test_train_config_accepts_boundary_settings():
    TrainConfig(epochs=1, adam_beta1=0.0, adam_beta2=0.0, adam_eps=1e-300, learning_rate=1e160)


def test_zero_noise_matches_manual_nores_loop():
    # res_beta_drop=0 must be bit-identical to a loop without the noise step
    g = small_sbm()
    cfg = train_cfg(epochs=5, res_beta=0.0)
    result = train_res(g, cfg, h_dim=8, d_dim=4, p_dim=8)

    from edgecert.rng import STREAM_AUGMENT, derive_seed

    aug_seed = derive_seed(cfg.seed, STREAM_AUGMENT)
    p = init_params(g.f_dim, 8, 4, 8, derive_seed(cfg.seed, 3))  # STREAM_INIT = 3
    manual_losses = []
    m = {n: np.zeros_like(getattr(p, n)) for n in ("W1", "W2", "P1", "b1", "P2", "b2")}
    v = {n: np.zeros_like(getattr(p, n)) for n in ("W1", "W2", "P1", "b1", "P2", "b2")}
    from edgecert.encoder import EncoderParams

    b1, b2 = 0.9, 0.999
    for epoch in range(cfg.epochs):
        gi = augment(g, 0.2, 0.1, aug_seed, 2 * epoch)
        gj = augment(g, 0.2, 0.1, aug_seed, 2 * epoch + 1)
        loss, grads = loss_and_grads(p, gi, gj, 0.5)
        manual_losses.append(loss)
        t = epoch + 1
        upd = {}
        for n in m:
            m[n] = b1 * m[n] + (1 - b1) * grads[n]
            v[n] = b2 * v[n] + (1 - b2) * grads[n] * grads[n]
            upd[n] = getattr(p, n) - 1e-3 * (m[n] / (1 - b1**t)) / (
                np.sqrt(v[n] / (1 - b2**t)) + 1e-8
            )
        p = EncoderParams(**upd)
    assert manual_losses == result.losses
    assert np.array_equal(p.W1, result.params.W1)


def test_noise_injected_into_first_view_only():
    g = small_sbm()
    cfg = train_cfg(res_beta=0.9)
    gi, gj = _epoch_views(g, cfg, epoch=0)
    cfg0 = train_cfg(res_beta=0.0)
    gi0, gj0 = _epoch_views(g, cfg0, epoch=0)
    assert gj == gj0  # second view untouched by the noise setting
    assert gi.n_edges < gi0.n_edges  # first view lost extra edges


def test_train_aborts_on_divergence():
    g = small_sbm()
    cfg = TrainConfig(epochs=50, learning_rate=1e160, seed=0,
                      aug=AugConfig(temperature=0.5))
    with np.errstate(all="ignore"), pytest.raises(TrainingError):
        train_res(g, cfg, h_dim=8, d_dim=4, p_dim=8)


# -------------------------------------------------------------- grad check


def test_grad_check_small_instance():
    g = small_sbm(seed=3, nodes_per_block=5)
    p = init_params(g.f_dim, 6, 5, 8, seed=2)
    assert grad_check(p, g, train_cfg(seed=9, res_beta=0.3), h=1e-5) < 1e-4


def test_grad_check_rejects_zero_step():
    g = small_sbm()
    p = init_params(g.f_dim, 4, 3, 8, seed=2)
    with pytest.raises(ValueError):
        grad_check(p, g, train_cfg(), h=0.0)


def test_grad_check_second_order_convergence():
    g = small_sbm(seed=5, nodes_per_block=5)
    p = init_params(g.f_dim, 6, 5, 8, seed=4)
    cfg = train_cfg(seed=11, res_beta=0.3)
    assert grad_check(p, g, cfg, h=1e-5) < grad_check(p, g, cfg, h=1e-3)
