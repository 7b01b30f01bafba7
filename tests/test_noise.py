import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from edgecert.graph import StructVector
from edgecert.noise import (
    DeltaPolicy,
    EdgeDropSpec,
    NoiseDraw,
    apply_xor,
    delta_bound,
    delta_exact,
    delta_paper,
    mc_collision_estimate,
    sample_edgedrop,
)
from edgecert.rng import STREAM_EDGEDROP, derive_seed


def sv(universe, present):
    return StructVector(universe, np.array(present, dtype=np.int64))


# -------------------------------------------------------------- edgedrop

M64 = (1 << 64) - 1


def _mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def _dropped(seed, draw, key, beta):
    """Scalar reference of the documented hash: does draw `draw` drop edge `key`?"""
    s = derive_seed(seed, STREAM_EDGEDROP) & M64
    x = _mix64((_mix64(s ^ key) + draw * 0x9E3779B97F4A7C15) & M64)
    return (x >> 11) * 2.0**-53 < beta


def test_edgedrop_matches_scalar_reference():
    rng = np.random.default_rng(4)
    keys = rng.integers(0, 1 << 63, size=30, dtype=np.uint64) | np.uint64(1 << 63)
    keys[:10] = (np.uint64(17) << np.uint64(32)) | np.arange(10, dtype=np.uint64)
    for beta in (0.1, 0.5, 0.9):
        mask = sample_edgedrop(keys, EdgeDropSpec(beta), seed=123, mu=7)
        want = [[not _dropped(123, i, int(k), beta) for k in keys] for i in range(1, 8)]
        assert mask.tolist() == want


def test_edgedrop_zero_probability_never_toggles():
    keys = np.array([0, 3, 7, 1 << 40], dtype=np.uint64)
    mask = sample_edgedrop(keys, EdgeDropSpec(0.0), seed=1, mu=20)
    assert mask.shape == (20, 4)
    assert mask.all()


def test_edgedrop_count_matches_binomial_oracle():
    # mean of dropped edges over 10^4 draws vs Binomial(100, 0.9)
    d = 100
    draws = 10_000
    mask = sample_edgedrop(np.arange(d, dtype=np.uint64), EdgeDropSpec(0.9), seed=5, mu=draws)
    counts = (~mask).sum(axis=1)
    se_mean = np.sqrt(d * 0.9 * 0.1) / np.sqrt(draws)
    assert abs(counts.mean() - d * 0.9) <= 3 * se_mean


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 0.99))
def test_edgedrop_permuting_keys_permutes_columns(seed, beta):
    # an edge's bits follow its key, not its position: clean and attacked draws couple
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, 1 << 40, size=20)).astype(np.uint64)
    perm = rng.permutation(keys.size)
    spec = EdgeDropSpec(beta)
    mask = sample_edgedrop(keys, spec, seed=seed, mu=5)
    assert np.array_equal(sample_edgedrop(keys[perm], spec, seed=seed, mu=5), mask[:, perm])


def test_edgedrop_deterministic_per_key():
    keys = np.arange(0, 50, 2, dtype=np.uint64)
    spec = EdgeDropSpec(0.5)
    a = sample_edgedrop(keys, spec, seed=11, mu=6)
    assert np.array_equal(a, sample_edgedrop(keys, spec, seed=11, mu=6))
    # a bit depends on (seed, draw, key) only: not on mu, nor on the other keys
    assert np.array_equal(sample_edgedrop(keys, spec, seed=11, mu=9)[:6], a)
    assert np.array_equal(sample_edgedrop(keys[2:3], spec, seed=11, mu=6)[:, 0], a[:, 2])
    assert not np.array_equal(a, sample_edgedrop(keys, spec, seed=12, mu=6))
    with pytest.raises(ValueError, match="mu"):
        sample_edgedrop(keys, spec, seed=11, mu=0)


def _pair_chi_square(outcomes):
    table = np.zeros((2, 2))
    for x, y in zip(outcomes[0::2], outcomes[1::2]):
        table[int(x), int(y)] += 1
    return chi2_contingency(table)[0]


def test_edgedrop_draws_independent_chi_square():
    # pair counts of (draw 2t, draw 2t+1) outcomes for one key
    spec = EdgeDropSpec(0.5)
    outcomes = sample_edgedrop(np.array([9], dtype=np.uint64), spec, seed=2, mu=4000)[:, 0]
    assert _pair_chi_square(outcomes) < 10.83  # chi-square(1) critical value at p=0.001
    # pair counts of (key 2t, key 2t+1) outcomes within one draw; sequential
    # counters are the classic weak spot of a counter-based generator
    keys = (np.uint64(3) << np.uint64(32)) | np.arange(4000, dtype=np.uint64)
    for row in sample_edgedrop(keys, spec, seed=2, mu=3):
        assert _pair_chi_square(row) < 10.83


# ------------------------------------------------------------------- xor


def test_xor_removes_toggled_present():
    v = sv(4, [0, 1])
    out = apply_xor(v, NoiseDraw(np.array([0])))
    assert out.present.tolist() == [1]


def test_xor_empty_is_identity():
    v = sv(4, [0, 1])
    assert apply_xor(v, NoiseDraw(np.array([], dtype=np.int64))).present.tolist() == [0, 1]


def test_xor_out_of_universe_rejected():
    with pytest.raises(ValueError):
        apply_xor(sv(4, [0]), NoiseDraw(np.array([4])))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_xor_involution(seed):
    rng = np.random.default_rng(seed)
    present = np.unique(rng.integers(0, 60, size=15))
    toggled = np.unique(rng.integers(0, 60, size=10))
    v = sv(60, present)
    eps = NoiseDraw(toggled)
    assert np.array_equal(apply_xor(apply_xor(v, eps), eps).present, v.present)


# ------------------------------------------------------------------ delta


def test_delta_exact_values():
    spec = EdgeDropSpec(0.9)
    assert delta_exact(0, spec) == 0.0
    assert delta_exact(1, spec) == pytest.approx(0.1)
    assert delta_exact(2, spec) == pytest.approx(0.19)


def test_delta_exact_monotone_in_k_and_decreasing_in_beta():
    # larger drop probability destroys added edges more often: Delta shrinks
    for beta in (0.1, 0.5, 0.9):
        spec = EdgeDropSpec(beta)
        values = [delta_exact(k, spec) for k in range(8)]
        assert all(a <= b for a, b in zip(values, values[1:]))
    assert delta_exact(3, EdgeDropSpec(0.9)) < delta_exact(3, EdgeDropSpec(0.5))


def test_delta_paper_hand_value():
    # d=4, e=4, k=1: 1 - (C(4,4)/C(5,4)) * 0.9 = 1 - 0.9/5
    assert delta_paper(4, 4, 1, EdgeDropSpec(0.9)) == pytest.approx(0.82)


def test_delta_paper_zero_at_k0():
    assert delta_paper(10, 5, 0, EdgeDropSpec(0.5)) == 0.0


def test_delta_paper_rejects_e_above_d():
    with pytest.raises(ValueError):
        delta_paper(4, 5, 1, EdgeDropSpec(0.5))


def test_delta_paper_dominates_exact_on_grid():
    # grid enumeration oracle: C(d,e)/C(d+k,e) <= 1 for all valid triples
    for beta in (0.5, 0.9):
        spec = EdgeDropSpec(beta)
        for d in range(0, 21):
            for e in range(0, d + 1):
                for k in range(0, 6):
                    dp = delta_paper(d, e, k, spec)
                    de = delta_exact(k, spec)
                    assert 0.0 <= dp <= 1.0
                    assert dp >= de - 1e-12


def test_delta_paper_matches_gammaln_reference():
    # scipy's log-gamma binomials, over the acceptance grid (d, k, beta) with
    # e = round(d * (1 - beta)) and every other e
    from scipy.special import gammaln

    for beta in (0.5, 0.9):
        spec = EdgeDropSpec(beta)
        for d in (5, 10, 20):
            for e in sorted({int(round(d * (1 - beta))), *range(0, d + 1)}):
                for k in range(1, 6):
                    log_ratio = gammaln(d + 1) - gammaln(d - e + 1) - gammaln(d + k + 1) + gammaln(d + k - e + 1)
                    ref = min(1.0, max(0.0, 1.0 - np.exp(log_ratio + k * np.log(beta))))
                    assert abs(delta_paper(d, e, k, spec) - ref) <= 1e-12


def test_delta_paper_monotone_in_k():
    spec = EdgeDropSpec(0.7)
    values = [delta_paper(12, 8, k, spec) for k in range(10)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_delta_bound_policies():
    spec = EdgeDropSpec(0.9)
    assert delta_bound(2, 10, DeltaPolicy("exact"), spec) == delta_exact(2, spec)
    # per-draw mean: e = round(10 * 0.1) = 1
    assert delta_bound(2, 10, DeltaPolicy("paper"), spec) == delta_paper(10, 1, 2, spec)
    assert delta_bound(2, 10, DeltaPolicy("paper", e_fixed=5), spec) == delta_paper(10, 5, 2, spec)


def test_delta_policy_validation():
    with pytest.raises(ValueError):
        DeltaPolicy("bogus")
    with pytest.raises(ValueError):
        DeltaPolicy("exact", e_fixed=3)


# ------------------------------------------------------------- MC oracle


def test_mc_zero_drop_always_collides():
    v = sv(50, list(range(10)))
    est, se = mc_collision_estimate(v, [20, 21], EdgeDropSpec(0.0), trials=500, seed=1)
    assert est == 1.0
    assert se == 0.0


def test_mc_empty_delta_is_zero():
    v = sv(50, list(range(10)))
    est, se = mc_collision_estimate(v, [], EdgeDropSpec(0.9), trials=500, seed=1)
    assert est == 0.0


def test_mc_matches_delta_exact():
    v = sv(100, list(range(20)))
    spec = EdgeDropSpec(0.9)
    est, se = mc_collision_estimate(v, [40, 41, 42], spec, trials=100_000, seed=3)
    assert abs(est - (1 - 0.9**3)) <= 3 * se


def test_mc_rejects_overlap():
    v = sv(50, [0, 1, 2])
    with pytest.raises(ValueError, match="disjoint"):
        mc_collision_estimate(v, [2, 30], EdgeDropSpec(0.5), trials=10, seed=1)


def test_spec_validation():
    with pytest.raises(ValueError):
        EdgeDropSpec(1.0)
    with pytest.raises(ValueError):
        EdgeDropSpec(-0.1)
