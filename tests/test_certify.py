import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln

import edgecert.certify as certify_mod
from edgecert.attack import add_edges
from edgecert.certify import (
    Certificate,
    ConfidenceBounds,
    VoteTally,
    base_predict,
    beta_quantile,
    center_logits,
    certified_accuracy,
    certified_k,
    certify_node,
    confidence_bounds,
    majority_class,
    smoothed_predict,
    vote_on_struct_vector,
)
from edgecert.cli import CONFIG_DEFAULTS, build_sbm_config, resolve_config, split_nodes
from edgecert.encoder import forward, init_params, relu
from edgecert.graph import (
    Graph,
    KhopSubgraph,
    SbmConfig,
    khop_subgraph,
    pair_slot,
    sbm_generate,
    slot_pair,
    to_struct_vector,
)
from edgecert.linear_eval import fit_logreg, predict
from edgecert.noise import DeltaPolicy, EdgeDropSpec, NoiseDraw, apply_xor, sample_edgedrop
from edgecert.rng import derive_seed
from edgecert.trainer import train_res


# ------------------------------------------------------------ beta quantile


def test_beta_quantile_uniform_median():
    assert beta_quantile(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-10)


def test_beta_quantile_closed_form_w1():
    # Beta(n, 1) CDF is x^n, so B(q; n, 1) = q**(1/n)
    for n in (1, 10, 200):
        for q in (1e-4, 0.5, 0.999):
            assert beta_quantile(q, n, 1.0) == pytest.approx(q ** (1.0 / n), abs=1e-8)


def test_beta_quantile_known_point():
    assert beta_quantile(0.0005, 200, 1) == pytest.approx(0.0005 ** (1 / 200), abs=1e-8)
    assert 0.9627 == pytest.approx(beta_quantile(0.0005, 200, 1), abs=1e-4)


def _beta_cdf_by_quadrature(x, u, w):
    log_norm = gammaln(u + w) - gammaln(u) - gammaln(w)

    def pdf(t):
        return np.exp(log_norm + (u - 1) * np.log(t) + (w - 1) * np.log1p(-t))

    value, _ = integrate.quad(pdf, 0.0, x, epsabs=1e-13, epsrel=1e-13, limit=200)
    return value


def test_beta_quantile_cdf_round_trip_by_quadrature():
    for q in (0.01, 0.5, 0.99):
        for u in (1.0, 2.5, 10.0):
            for w in (1.0, 2.5, 10.0):
                x = beta_quantile(q, u, w)
                assert _beta_cdf_by_quadrature(x, u, w) == pytest.approx(q, abs=1e-9)


def test_beta_quantile_domain_errors():
    with pytest.raises(ValueError):
        beta_quantile(0.0, 1, 1)
    with pytest.raises(ValueError):
        beta_quantile(1.0, 1, 1)
    with pytest.raises(ValueError):
        beta_quantile(0.5, 0.0, 1)


def test_beta_quantile_matches_brentq_reference():
    # the previous root-finding solver, on the shapes confidence_bounds asks for
    from scipy.optimize import brentq
    from scipy.special import betainc

    for mu in (1, 2, 7, 200, 1000):
        for m in sorted({0, 1, mu // 3, mu - 1, mu}):
            for q in (0.0005, 0.0033, 0.9967, 0.9995):
                for u, w in ((m, mu - m + 1), (m + 1, mu - m)):
                    if u > 0 and w > 0:
                        ref = brentq(lambda x: betainc(u, w, x) - q, 0.0, 1.0, xtol=1e-13)
                        assert abs(beta_quantile(q, u, w) - ref) <= 1e-12


def test_beta_quantile_matches_betaincinv():
    # every shape confidence_bounds asks for, at the alpha / C of its configs,
    # plus the non-integer shapes of the quadrature round trip, also at
    # quantiles close to 1, where the density is small
    from scipy.special import betaincinv

    cases = [
        (q, u, w)
        for q in (0.01, 0.5, 0.99, 1 - 1e-9)
        for u in (1.0, 2.5, 10.0)
        for w in (1.0, 2.5, 10.0)
    ]
    for mu in (1, 2, 7, 50, 200, 1000):
        for m in range(mu + 1):
            for q in (1e-4, 1.25e-4, 5e-4, 3.3e-3):
                if m > 0:
                    cases.append((q, m, mu - m + 1))
                if m < mu:
                    cases.append((q, mu - m, m + 1))
    worst = max(abs(beta_quantile(q, u, w) - float(betaincinv(u, w, q))) for q, u, w in cases)
    assert worst <= 1e-13


def test_beta_quantile_closed_forms_to_last_bits():
    # Beta(n, 1) has CDF x**n and Beta(1, n) has CDF 1 - (1 - x)**n
    for n in (1, 2, 10, 200, 1000):
        for q in (1e-4, 5e-4, 0.01, 0.5, 0.9, 0.999):
            assert abs(beta_quantile(q, n, 1) - q ** (1.0 / n)) <= 1e-15
            assert abs(beta_quantile(q, 1, n) - (1.0 - (1.0 - q) ** (1.0 / n))) <= 1e-15


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_beta_quantile_rejects_non_finite(bad, position):
    args = [0.01, 3.0, 5.0]
    args[position] = bad
    with pytest.raises(ValueError, match="finite"):
        beta_quantile(*args)


# ------------------------------------------------------------ vote tallies


def test_majority_class_basic():
    assert majority_class(VoteTally({0: 150, 1: 50}, 200, 7)) == 0


def test_majority_class_tie_smallest_id():
    assert majority_class(VoteTally({2: 100, 1: 100}, 200, 0)) == 1


def test_majority_class_unanimous():
    assert majority_class(VoteTally({3: 10}, 10, 0)) == 3


def test_tally_validates_sum():
    with pytest.raises(ValueError):
        VoteTally({0: 5}, 10, 0)


# ------------------------------------------------------- confidence bounds


def test_bounds_unanimous_closed_form():
    t = VoteTally({1: 200}, 200, 0)
    b = confidence_bounds(t, alpha=0.001, n_classes=2)
    expected_lower = 0.0005 ** (1 / 200)
    assert b.c_a == 1
    assert b.p_a_lower == pytest.approx(expected_lower, abs=1e-8)
    # zero-vote runner-up: B(1 - 5e-4; 1, 200) = 1 - 0.0005**(1/200)
    assert b.p_b_upper == pytest.approx(1 - expected_lower, abs=1e-8)


def test_bounds_single_vote_uniform_quantile():
    t = VoteTally({0: 1}, 1, 0)
    b = confidence_bounds(t, alpha=0.5, n_classes=2)
    assert b.p_a_lower == pytest.approx(0.25, abs=1e-10)  # B(0.25; 1, 1)


def test_bounds_capped_by_complement():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mu = int(rng.integers(1, 300))
        k = int(rng.integers(1, 4))
        counts = rng.multinomial(mu, np.ones(k + 1) / (k + 1))
        tally = VoteTally({c: int(n) for c, n in enumerate(counts) if n > 0}, mu, 0)
        b = confidence_bounds(tally, alpha=0.01, n_classes=k + 1)
        assert b.p_b_upper <= 1 - b.p_a_lower + 1e-12


def test_bounds_equal_class_by_class_maximum():
    # the runner-up bound of the largest other count equals the maximum of
    # every other class's bound, exactly
    rng = np.random.default_rng(8)
    for trial in range(300):
        n_classes = int(rng.integers(2, 9))
        mu = int(rng.integers(1, 250))
        probs = rng.dirichlet(np.ones(n_classes))
        if trial % 3 == 0:
            probs[rng.integers(n_classes)] = 0.0  # a class that never wins a vote
            probs /= probs.sum()
        counts = rng.multinomial(mu, probs)
        if trial % 5 == 0 and n_classes > 2 and mu % 2 == 0:
            counts = np.zeros(n_classes, dtype=np.int64)
            counts[[0, n_classes - 1]] = mu // 2  # a tie for the majority
        # unobserved classes are either absent from the tally or listed with 0 votes
        tally = {c: int(m) for c, m in enumerate(counts) if m > 0 or trial % 2}
        t = VoteTally(tally, mu, 0)
        alpha = float(rng.choice([0.001, 0.01, 0.05]))
        q = alpha / n_classes
        b = confidence_bounds(t, alpha=alpha, n_classes=n_classes)
        c_a = majority_class(t)
        m_a = tally[c_a]
        uppers = [
            1.0 if mu - m == 0 else 1.0 - beta_quantile(q, mu - m, m + 1)
            for m in (tally.get(c, 0) for c in range(n_classes) if c != c_a)
        ]
        assert b.c_a == c_a
        assert b.p_a_lower == beta_quantile(q, m_a, mu - m_a + 1)
        assert b.p_b_upper == min(max(uppers), 1.0 - b.p_a_lower)


def test_bounds_level_holds_exactly_at_three_classes():
    # every multinomial tally enumerated: the chance that the bound margin
    # exceeds the true margin p[c_a] - max_{c != c_a} p[c] stays within alpha,
    # although the union bound proves only 2 * alpha at C = 3
    probs = [(0.51, 0.49, 0.0), (0.4, 0.3, 0.3), (0.6, 0.2, 0.2)]
    for mu in (20, 50):
        tallies = [(a, b, mu - a - b) for a in range(mu + 1) for b in range(mu + 1 - a)]
        for alpha in (0.1, 0.05):
            bounds = [
                confidence_bounds(VoteTally(dict(enumerate(m)), mu, 0), alpha, n_classes=3)
                for m in tallies
            ]
            for p in probs:
                miss = 0.0
                for m, b in zip(tallies, bounds):
                    margin = p[b.c_a] - max(q for c, q in enumerate(p) if c != b.c_a)
                    if b.p_a_lower - b.p_b_upper > margin:
                        ways = math.factorial(mu) // math.prod(map(math.factorial, m))
                        miss += ways * math.prod(q**k for q, k in zip(p, m))
                assert miss <= alpha, (mu, alpha, p, miss)


def test_bounds_rejects_bad_inputs():
    t = VoteTally({0: 10}, 10, 0)
    with pytest.raises(ValueError):
        confidence_bounds(t, alpha=0.0, n_classes=2)
    with pytest.raises(ValueError):
        confidence_bounds(t, alpha=0.01, n_classes=1)
    with pytest.raises(ValueError):
        confidence_bounds(VoteTally({5: 10}, 10, 0), alpha=0.01, n_classes=2)


# ------------------------------------------------------------- certified_k


def bounds(p_a, p_b, alpha=0.001, n_classes=2, c_a=0):
    return ConfidenceBounds(c_a=c_a, p_a_lower=p_a, p_b_upper=p_b,
                            alpha=alpha, n_classes=n_classes)


def test_certified_k_algebra_oracle():
    # margin 0.92: need 1 - 0.9^k < 0.46, i.e. 0.9^k > 0.54 -> k = 5
    spec = EdgeDropSpec(0.9)
    policy = DeltaPolicy("exact")
    assert certified_k(bounds(0.96, 0.04), d=100, policy=policy, spec=spec, k_max=50) == 5


def test_certified_k_full_margin():
    # margin 1: 1 - 0.9^k < 0.5 -> k = floor(ln 0.5 / ln 0.9) = 6
    spec = EdgeDropSpec(0.9)
    policy = DeltaPolicy("exact")
    assert certified_k(bounds(1.0, 0.0), d=100, policy=policy, spec=spec, k_max=10) == 6


def test_certified_k_zero_margin_absent():
    spec = EdgeDropSpec(0.9)
    assert certified_k(bounds(0.5, 0.5), d=10, policy=DeltaPolicy("exact"),
                       spec=spec, k_max=10) is None


def test_certified_k_monotone_in_margin():
    spec = EdgeDropSpec(0.9)
    policy = DeltaPolicy("exact")
    prev = -1
    for p_a in np.linspace(0.55, 1.0, 10):
        k = certified_k(bounds(float(p_a), 0.0), d=100, policy=policy, spec=spec, k_max=50)
        assert k is not None and k >= prev
        prev = k


def test_certified_k_exact_geq_paper():
    spec = EdgeDropSpec(0.8)
    for p_a in (0.7, 0.9, 0.99):
        b = bounds(p_a, min(0.02, round(1 - p_a, 6)))
        k_exact = certified_k(b, d=30, policy=DeltaPolicy("exact"), spec=spec, k_max=30)
        k_paper = certified_k(b, d=30, policy=DeltaPolicy("paper"), spec=spec, k_max=30)
        if k_paper is not None:
            assert k_exact is not None and k_exact >= k_paper


def test_certified_k_respects_cap():
    spec = EdgeDropSpec(0.9)
    assert certified_k(bounds(1.0, 0.0), d=100, policy=DeltaPolicy("exact"),
                       spec=spec, k_max=3) == 3


# ------------------------------------------------------ certified accuracy


def cert(node, c_a, ck, d=10):
    return Certificate(node=node, c_a=c_a, certified_k=ck,
                       bounds=bounds(0.9, 0.05, c_a=c_a),
                       delta_mode=DeltaPolicy("exact"), d=d)


def test_curve_all_certified_flat():
    certs = [cert(i, 0, 6) for i in range(4)]
    curve = certified_accuracy(certs, [0, 0, 0, 0], [0, 3, 6])
    assert curve == [(0, 1.0), (3, 1.0), (6, 1.0)]


def test_curve_k0_counts_certified_and_correct():
    certs = [cert(0, 0, 0), cert(1, 1, None), cert(2, 0, 2)]
    truth = [0, 1, 1]
    curve = certified_accuracy(certs, truth, [0])
    # node 0 correct+certified, node 1 correct but uncertified, node 2 wrong class
    assert curve == [(0, 1 / 3)]


def test_curve_non_increasing():
    rng = np.random.default_rng(1)
    certs = [cert(i, int(rng.integers(2)), int(rng.integers(0, 8)) if rng.random() < 0.8 else None)
             for i in range(30)]
    truth = rng.integers(0, 2, size=30)
    curve = certified_accuracy(certs, truth, range(10))
    values = [v for _, v in curve]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_curve_alignment_checked():
    with pytest.raises(ValueError):
        certified_accuracy([cert(0, 0, 1)], [0, 1], [0])


# ------------------------------------------------- smoothed prediction


def tiny_pipeline(seed=0):
    cfg = SbmConfig(
        blocks=2, nodes_per_block=10, p_in=0.5, p_out=0.05,
        feature_centers=np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]]),
        feature_noise_sd=0.3, seed=seed,
    )
    g = sbm_generate(cfg)
    enc = init_params(3, 8, 4, 8, seed=seed + 1)
    clf = fit_logreg(forward(g, enc).Z, g.labels, l2=1e-3)
    return g, enc, clf


def test_smoothed_predict_no_noise_matches_base():
    g, enc, clf = tiny_pipeline()
    spec = EdgeDropSpec(0.0)
    for node in (0, 5, 12):
        tally = smoothed_predict(g, node, enc, clf, mu=25, spec=spec, k_hop=2, seed=3)
        base = base_predict(g, node, enc, clf, k_hop=2)
        assert tally.counts == {base: 25}


def test_smoothed_predict_single_vote():
    g, enc, clf = tiny_pipeline()
    tally = smoothed_predict(g, 4, enc, clf, mu=1, spec=EdgeDropSpec(0.5), k_hop=2, seed=9)
    assert tally.mu == 1
    assert sum(tally.counts.values()) == 1


def test_smoothed_predict_deterministic():
    g, enc, clf = tiny_pipeline()
    spec = EdgeDropSpec(0.5)
    a = smoothed_predict(g, 2, enc, clf, mu=40, spec=spec, k_hop=2, seed=11)
    b = smoothed_predict(g, 2, enc, clf, mu=40, spec=spec, k_hop=2, seed=11)
    assert a.counts == b.counts


def test_smoothed_predict_stable_across_seeds():
    # confident node keeps its majority class under vote resampling
    g, enc, clf = tiny_pipeline(seed=4)
    spec = EdgeDropSpec(0.5)
    votes = [majority_class(smoothed_predict(g, 0, enc, clf, mu=200, spec=spec,
                                             k_hop=2, seed=s))
             for s in range(20)]
    assert len(set(votes)) == 1


def test_base_predict_matches_full_forward_on_subgraph():
    g, enc, clf = tiny_pipeline(seed=2)
    for node in (1, 7, 15):
        sub = khop_subgraph(g, node, 2)
        z = forward(sub.graph, enc).Z[sub.center]
        assert base_predict(g, node, enc, clf, k_hop=2) == predict(clf, z)


def test_predictors_take_the_extracted_subgraph():
    g, enc, clf = tiny_pipeline(seed=2)
    spec = EdgeDropSpec(0.5)
    for node in (1, 7, 15):
        sub = khop_subgraph(g, node, 2)
        assert base_predict(g, node, enc, clf, 2, sub=sub) == base_predict(g, node, enc, clf, 2)
        assert (smoothed_predict(g, node, enc, clf, 40, spec, 2, 11, sub=sub)
                == smoothed_predict(g, node, enc, clf, 40, spec, 2, 11))
    other = khop_subgraph(g, 3, 2)
    with pytest.raises(ValueError, match="centered on node 3, not 1"):
        base_predict(g, 1, enc, clf, 2, sub=other)
    with pytest.raises(ValueError, match="centered on node 3, not 1"):
        smoothed_predict(g, 1, enc, clf, 40, spec, 2, 11, sub=other)


def test_certify_node_end_to_end():
    g, enc, clf = tiny_pipeline(seed=6)
    cert_result, tally = certify_node(
        g, 3, enc, clf, mu=100, spec=EdgeDropSpec(0.5), alpha=0.01,
        n_classes=2, policy=DeltaPolicy("exact"), k_hop=2, seed=13,
    )
    assert cert_result.node == 3
    assert cert_result.d == khop_subgraph(g, 3, 2).graph.n_edges
    assert sum(tally.counts.values()) == 100
    if cert_result.certified_k is not None:
        margin = cert_result.bounds.p_a_lower - cert_result.bounds.p_b_upper
        assert margin > 2 * (1 - 0.5 ** cert_result.certified_k)


def test_smoothed_predict_isolated_node():
    g = Graph(3, np.array([[1, 2]]), np.array([[1.0], [2.0], [3.0]]),
              np.array([0, 1, 1]))
    enc = init_params(1, 4, 3, 8, seed=0)
    clf = fit_logreg(forward(g, enc).Z, g.labels, l2=1e-3)
    tally = smoothed_predict(g, 0, enc, clf, mu=10, spec=EdgeDropSpec(0.5), k_hop=2, seed=1)
    assert sum(tally.counts.values()) == 10


# ------------------------------------------------ batched vote kernel


def _center_embedding(edges, n, XW1, center, enc):
    """Reference: center embedding of one local graph via a dense n x n rebuild."""
    deg = np.bincount(edges.ravel(), minlength=n) if edges.size else np.zeros(n, dtype=np.int64)
    dinv = 1.0 / np.sqrt(deg + 1.0)
    A = np.zeros((n, n))
    if edges.size:
        w = dinv[edges[:, 0]] * dinv[edges[:, 1]]
        A[edges[:, 0], edges[:, 1]] = w
        A[edges[:, 1], edges[:, 0]] = w
    idx = np.arange(n)
    A[idx, idx] = dinv * dinv
    R1 = relu(A @ XW1)
    return (A[center] @ R1) @ enc.W2


def _reference_logits(edges, keep, features, center, enc, clf):
    XW1 = features @ enc.W1
    n = features.shape[0]
    return np.array([clf.W @ _center_embedding(edges[row], n, XW1, center, enc) + clf.b
                     for row in keep])


def _edge_keys(nodes, edges):
    """Global identity nodes[a] << 32 | nodes[b] of each local edge (a, b)."""
    return np.array([int(nodes[a]) << 32 | int(nodes[b]) for a, b in edges.tolist()],
                    dtype=np.uint64)


def _reference_vote(v, nodes, features, center, enc, clf, mu, spec, seed):
    """Reference: the per-draw loop (XOR the dropped slots, slot decode, dense rebuild)."""
    n = nodes.size
    XW1 = features @ enc.W1
    keep = sample_edgedrop(_edge_keys(nodes, np.column_stack(slot_pair(v.present, n))),
                           spec, seed, mu)
    counts = {}
    for row in keep:
        noisy = apply_xor(v, NoiseDraw(v.present[~row]))
        edges = np.column_stack(slot_pair(noisy.present, n))
        cls = predict(clf, _center_embedding(edges, n, XW1, center, enc))
        counts[cls] = counts.get(cls, 0) + 1
    return counts


def _closed_neighbourhood(edges, inside):
    """Mask of the nodes in ``inside`` and their neighbours."""
    out = inside.copy()
    out[edges[inside[edges[:, 0]], 1]] = True
    out[edges[inside[edges[:, 1]], 0]] = True
    return out


def _center_r_and_q(sub):
    """Masks of R, the center's closed neighbourhood, and Q, R plus its neighbours."""
    center = np.zeros(sub.graph.n_nodes, dtype=bool)
    center[sub.center] = True
    in_r = _closed_neighbourhood(sub.graph.edges, center)
    return in_r, _closed_neighbourhood(sub.graph.edges, in_r)


def _subgraph_cases():
    g, enc, clf = tiny_pipeline(seed=5)
    rng = np.random.default_rng(0)
    # 2-hop fields, then 3-hop fields whose Q leaves out nodes, then a hub whose
    # Q is every node
    for node, k_hop, q_is_all in [(0, 2, True), (6, 2, True), (13, 2, True), (19, 2, True),
                                  (0, 3, False), (6, 3, False), (13, 3, False), (14, 2, True)]:
        sub = khop_subgraph(g, node, k_hop)
        assert _center_r_and_q(sub)[1].all() == q_is_all
        keep = rng.random((37, sub.graph.n_edges)) < 0.6
        yield sub.graph.edges, keep, sub.graph.features, sub.center, enc, clf


@pytest.mark.parametrize("chunk_bytes", [1, 1 << 12, 1 << 16, 1 << 18, certify_mod.CHUNK_BYTES])
def test_center_logits_match_dense_reference(monkeypatch, chunk_bytes):
    # 37 draws is prime, so every chunk size in (1, 37) leaves a short last chunk
    monkeypatch.setattr(certify_mod, "CHUNK_BYTES", chunk_bytes)
    for case in _subgraph_cases():
        got = center_logits(*case)
        assert got.shape == (37, 2)
        assert np.abs(got - _reference_logits(*case)).max() < 1e-12


def test_center_logits_row_depends_only_on_its_draw(monkeypatch):
    # row i is a function of keep[i] alone: not of mu, the chunking or the other
    # draws, so a one-draw call and every chunk size give the same bits
    cases = []
    for edges, keep, features, center, enc, clf in _subgraph_cases():
        # exactly one draw keeps the center's arc to one R row: that row's
        # product has one draw, the padded one-row case
        arc = np.flatnonzero((edges == center).any(axis=1))[0]
        keep = keep.copy()
        keep[:, arc] = False
        keep[5, arc] = True
        cases.append((edges, keep, features, center, enc, clf))
    want = [center_logits(*case) for case in cases]
    for chunk_bytes in sorted({1, 1 << 12, 1 << 20, certify_mod.CHUNK_BYTES}):
        monkeypatch.setattr(certify_mod, "CHUNK_BYTES", chunk_bytes)
        for (edges, keep, *rest), rows in zip(cases, want):
            assert np.array_equal(center_logits(edges, keep, *rest), rows)
            for i in range(keep.shape[0]):
                assert np.array_equal(center_logits(edges, keep[i : i + 1], *rest)[0], rows[i])


def test_center_logits_rejects_bad_keep_and_center():
    _, enc, clf = tiny_pipeline()
    features = np.random.default_rng(1).standard_normal((4, 3))
    edges = np.array([[0, 1], [1, 2], [2, 3]])
    good = np.ones((2, 3), dtype=bool)
    for keep in [np.full((2, 3), 0.5), good.astype(np.int64), good[0], good[:0],
                 np.ones((2, 2), dtype=bool)]:
        with pytest.raises(ValueError, match="keep"):
            center_logits(edges, keep, features, 0, enc, clf)
    for center in (-1, 4):
        with pytest.raises(ValueError, match="center"):
            center_logits(edges, good, features, center, enc, clf)
    assert center_logits(edges, good, features, 3, enc, clf).shape == (2, 2)


def test_center_logits_single_draw_and_edge_cases():
    _, enc, clf = tiny_pipeline()
    features = np.random.default_rng(1).standard_normal((4, 3))
    no_edges = np.zeros((0, 2), dtype=np.int64)
    isolated_center = np.array([[1, 2], [2, 3]])
    for edges, keep in [
        (no_edges, np.ones((3, 0), dtype=bool)),  # d = 0
        (isolated_center, np.array([[True, True], [False, True]])),
        (isolated_center, np.array([[True, False]])),  # mu = 1
    ]:
        got = center_logits(edges, keep, features, 0, enc, clf)
        want = _reference_logits(edges, keep, features, 0, enc, clf)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12


def test_vote_tallies_match_reference_loop_on_dense_fixture():
    cfg = resolve_config(dict(CONFIG_DEFAULTS))
    g = sbm_generate(build_sbm_config(cfg))
    enc = train_res(g, cfg.train_config).params
    train_idx, _, test_idx = split_nodes(g.n_nodes, cfg)
    clf = fit_logreg(forward(g, enc).Z[train_idx], g.labels[train_idx])
    for node in test_idx[:6]:
        sub = khop_subgraph(g, int(node), int(cfg.raw["k_hop"]))
        v = to_struct_vector(sub.graph)
        want = _reference_vote(v, sub.nodes, sub.graph.features, sub.center, enc, clf, 200,
                               cfg.edgedrop, 7)
        assert vote_on_struct_vector(sub, enc, clf, 200, cfg.edgedrop, 7).counts == want


def test_vote_reports_the_global_target_node():
    g, enc, clf = tiny_pipeline(seed=5)
    spec = EdgeDropSpec(0.5)
    for node in (12, 13, 19):
        sub = khop_subgraph(g, node, 2)
        assert sub.center != node  # the local id differs from the global one
        assert smoothed_predict(g, node, enc, clf, mu=10, spec=spec, k_hop=2,
                                seed=1).target_node == node
        assert vote_on_struct_vector(sub, enc, clf, 10, spec, 1).target_node == node


def test_coupled_draws_match_clean_bit_for_bit():
    # collision argument behind Delta(k), in-field case: a draw that drops every
    # added edge keeps exactly the clean draw's edges, so the center's logits
    # equal the clean ones bit for bit
    g, enc, clf = tiny_pipeline(seed=5)
    spec = EdgeDropSpec(0.5)
    rng = np.random.default_rng(0)
    widen_rng = np.random.default_rng(1)
    coupled = {2: 0, 3: 0}
    differs = {2: 0, 3: 0}
    # 2-hop fields with free pairs anywhere away from the center, then 3-hop fields
    # (the whole graph) with pairs from R to nodes outside Q, which widen Q
    for node, k_hop in [(0, 2), (6, 2), (13, 2), (19, 2), (0, 3), (6, 3), (13, 3), (19, 3)]:
        sub = khop_subgraph(g, node, k_hop)
        n = sub.graph.n_nodes
        # absent pairs among the subgraph's nodes away from the center keep its node set
        clean_slots = to_struct_vector(sub.graph).present
        u, v = np.triu_indices(n, k=1)
        free = ~np.isin(pair_slot(u, v, n), clean_slots)
        free &= (u != sub.center) & (v != sub.center)
        if k_hop == 2:
            pick = rng.choice(np.flatnonzero(free), 3, replace=False)
        else:
            in_r, in_q = _center_r_and_q(sub)
            free &= (in_r[u] & ~in_q[v]) | (in_r[v] & ~in_q[u])
            pick = widen_rng.choice(np.flatnonzero(free), 3, replace=False)
        attacked = add_edges(g, np.column_stack([sub.nodes[u[pick]], sub.nodes[v[pick]]]))
        att = khop_subgraph(attacked, node, k_hop)
        assert np.array_equal(att.nodes, sub.nodes)
        if k_hop == 3:
            assert _center_r_and_q(att)[1].sum() > in_q.sum()
        seed = derive_seed(9, node)
        clean_keep = sample_edgedrop(_edge_keys(sub.nodes, sub.graph.edges), spec, seed, 200)
        att_keep = sample_edgedrop(_edge_keys(att.nodes, att.graph.edges), spec, seed, 200)
        added = ~np.isin(pair_slot(att.graph.edges[:, 0], att.graph.edges[:, 1], n), clean_slots)
        assert added.sum() == 3
        assert np.array_equal(att_keep[:, ~added], clean_keep)
        clean = center_logits(sub.graph.edges, clean_keep, sub.graph.features, sub.center,
                              enc, clf)
        hit = center_logits(att.graph.edges, att_keep, att.graph.features, att.center, enc, clf)
        dropped_all = ~att_keep[:, added].any(axis=1)
        assert np.array_equal(hit[dropped_all], clean[dropped_all])
        coupled[k_hop] += int(dropped_all.sum())
        differs[k_hop] += int((hit[~dropped_all] != clean[~dropped_all]).any(axis=1).sum())
    # in both cases both kinds of draw occur, and a surviving added edge does move
    # the logits
    assert min(coupled.values()) > 0 and min(differs.values()) > 0


def test_non_finite_embedding_raises_on_batched_path():
    g, enc, clf = tiny_pipeline()
    features = g.features.copy()
    features[3] = np.nan
    bad = Graph(g.n_nodes, g.edges, features, g.labels)
    with pytest.raises(ValueError, match="non-finite embedding"):
        smoothed_predict(bad, 3, enc, clf, mu=5, spec=EdgeDropSpec(0.5), k_hop=2, seed=0)
    with pytest.raises(ValueError, match="non-finite embedding"):
        base_predict(bad, 3, enc, clf, k_hop=2)


def test_certify_node_extracts_subgraph_once(monkeypatch):
    g, enc, clf = tiny_pipeline()
    calls = []

    def counting(*args):
        calls.append(args)
        return khop_subgraph(*args)

    monkeypatch.setattr(certify_mod, "khop_subgraph", counting)
    certify_node(g, 3, enc, clf, mu=10, spec=EdgeDropSpec(0.5), alpha=0.01,
                 n_classes=2, policy=DeltaPolicy("exact"), k_hop=2, seed=1)
    assert len(calls) == 1


# -------------------------------------- empirical soundness by enumeration


def test_certificate_sound_under_enumerated_perturbations():
    # star around node 0; all features strongly class-0 so votes are stable
    features = np.array([[2.0, 0.1], [1.8, 0.2], [2.2, -0.1], [1.9, 0.0],
                         [-2.0, 0.1], [-1.9, -0.2]])
    g = Graph(6, np.array([[0, 1], [0, 2], [0, 3], [4, 5]]), features,
              np.array([0, 0, 0, 0, 1, 1]))
    enc = init_params(2, 6, 4, 8, seed=3)
    clf = fit_logreg(forward(g, enc).Z, g.labels, l2=1e-3)
    spec = EdgeDropSpec(0.9)
    alpha = 0.01
    cert_result, _ = certify_node(
        g, 0, enc, clf, mu=200, spec=spec, alpha=alpha, n_classes=2,
        policy=DeltaPolicy("exact"), k_hop=1, seed=21,
    )
    ck = cert_result.certified_k
    assert ck is not None and ck >= 1
    # enumerate every delta of size <= ck over the subgraph's absent slots
    sub = khop_subgraph(g, 0, 1)
    v = to_struct_vector(sub.graph)
    absent = np.setdiff1d(np.arange(v.universe), v.present)
    assert absent.size <= 8
    from itertools import combinations

    mu_big = 10_000
    reruns = 3
    for size in range(1, min(ck, absent.size) + 1):
        for delta in combinations(absent.tolist(), size):
            v_pert = apply_xor(v, NoiseDraw(np.array(sorted(delta))))
            n = sub.graph.n_nodes
            pert = KhopSubgraph(
                Graph(n, np.column_stack(slot_pair(v_pert.present, n)), sub.graph.features),
                np.arange(n), sub.center,
            )
            hold = 0
            for r in range(reruns):
                tally = vote_on_struct_vector(pert, enc, clf, mu=mu_big, spec=spec,
                                              seed=1000 + r)
                hold += majority_class(tally) == cert_result.c_a
            assert hold / reruns >= 1 - alpha
