import tracemalloc
from math import ceil

import numpy as np
import pytest

from edgecert.attack import (
    AttackSpec,
    BudgetInfeasibleError,
    add_edges,
    evasion_eval,
    random_global_attack,
    random_targeted_attack,
    write_attack_report,
)
from edgecert.encoder import forward, init_params
from edgecert.graph import Graph, SbmConfig, pair_slot, sbm_generate, slot_pair
from edgecert.linear_eval import fit_logreg
from edgecert.noise import EdgeDropSpec


def fixture_graph(seed=0):
    cfg = SbmConfig(
        blocks=2, nodes_per_block=10, p_in=0.5, p_out=0.05,
        feature_centers=np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]]),
        feature_noise_sd=0.3, seed=seed,
    )
    return sbm_generate(cfg)


def edge_set(g):
    """Reference edge set: (u, v) tuples with u < v."""
    return {(u, v) for u, v in g.edges.tolist()}


def neighbor_sets(g):
    """Reference adjacency: the set of neighbours of each node."""
    out = [set() for _ in range(g.n_nodes)]
    for u, v in g.edges.tolist():
        out[u].add(v)
        out[v].add(u)
    return out


def trained(g, seed=1):
    enc = init_params(g.f_dim, 8, 4, 8, seed=seed)
    clf = fit_logreg(forward(g, enc).Z, g.labels, l2=1e-3)
    return enc, clf


# --------------------------------------------------------- targeted attack


def test_targeted_budget_zero():
    g = fixture_graph()
    assert random_targeted_attack(g, 0, 0, seed=1).shape == (0, 2)


def test_targeted_exact_budget_disjoint():
    g = fixture_graph()
    delta = random_targeted_attack(g, 3, 3, seed=5)
    assert delta.shape == (3, 2)
    present = edge_set(g)
    pairs = {tuple(e) for e in delta.tolist()}
    assert len(pairs) == 3
    assert not (pairs & present)


def test_targeted_edges_touch_closed_neighborhood():
    g = fixture_graph()
    target = 7
    closed = {target} | neighbor_sets(g)[target]
    delta = random_targeted_attack(g, target, 4, seed=9)
    for u, v in delta.tolist():
        assert u in closed or v in closed


def _targeted_attack_oracle(g, target, budget, seed):
    """Set-based reference: enumerate the feasible pairs as sorted tuples."""
    closed = {target} | neighbor_sets(g)[target]
    present = edge_set(g)
    pool = set()
    for u in closed:
        for v in range(g.n_nodes):
            pair = (min(u, v), max(u, v))
            if v != u and pair not in present:
                pool.add(pair)
    candidates = sorted(pool)
    if budget > len(candidates):
        raise BudgetInfeasibleError(
            f"budget {budget} exceeds {len(candidates)} feasible pairs around node {target}"
        )
    picks = np.random.default_rng(seed).choice(len(candidates), size=budget, replace=False)
    return np.array([candidates[i] for i in sorted(picks.tolist())], dtype=np.int64)


def test_targeted_matches_set_oracle():
    for seed in range(3):
        g = fixture_graph(seed)
        for target in range(0, g.n_nodes, 3):
            for budget in (1, 5, 12):
                got = random_targeted_attack(g, target, budget, seed=100 * seed + target)
                want = _targeted_attack_oracle(g, target, budget, 100 * seed + target)
                assert got.dtype == want.dtype and np.array_equal(got, want)


def test_targeted_infeasible_message_matches_oracle():
    g = Graph(4, np.array([[0, 1], [0, 2], [0, 3], [1, 2]]), np.zeros((4, 1)))
    with pytest.raises(BudgetInfeasibleError) as want:
        _targeted_attack_oracle(g, 0, 3, 0)
    with pytest.raises(BudgetInfeasibleError) as got:
        random_targeted_attack(g, 0, 3, seed=0)
    assert str(got.value) == str(want.value)


def test_targeted_star_graph_enumeration():
    # center 0 with leaves 1..3; new edge must be a leaf pair or leaf-to-4
    g = Graph(5, np.array([[0, 1], [0, 2], [0, 3]]), np.zeros((5, 1)))
    feasible = {(1, 2), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)}
    seen = set()
    for seed in range(30):
        delta = random_targeted_attack(g, 0, 1, seed=seed)
        pair = tuple(delta[0].tolist())
        assert pair in feasible
        seen.add(pair)
    assert len(seen) > 1  # actually random


def test_targeted_infeasible_budget():
    g = Graph(3, np.array([[0, 1], [0, 2], [1, 2]]), np.zeros((3, 1)))
    with pytest.raises(BudgetInfeasibleError):
        random_targeted_attack(g, 0, 1, seed=0)


def test_targeted_deterministic():
    g = fixture_graph()
    a = random_targeted_attack(g, 2, 3, seed=11)
    b = random_targeted_attack(g, 2, 3, seed=11)
    assert np.array_equal(a, b)


# ----------------------------------------------------------- global attack


def test_global_rate_zero_identity():
    g = fixture_graph()
    assert random_global_attack(g, 0.0, seed=1) is g


def test_global_edge_count_contract():
    g = fixture_graph()
    attacked = random_global_attack(g, 0.1, seed=2)
    import math

    assert attacked.n_edges == g.n_edges + math.ceil(0.1 * g.n_edges)


def test_global_superset_of_original():
    g = fixture_graph()
    attacked = random_global_attack(g, 0.2, seed=3)
    assert edge_set(g) <= edge_set(attacked)


def test_global_infeasible_rate():
    # complete graph: no absent pairs
    g = Graph(3, np.array([[0, 1], [0, 2], [1, 2]]), np.zeros((3, 1)))
    with pytest.raises(BudgetInfeasibleError):
        random_global_attack(g, 1.0, seed=0)


def _global_attack_reference(g, rate, seed):
    """Global attack over an explicit boolean universe of all node pairs."""
    count = ceil(rate * g.n_edges)
    if count == 0:
        return g
    n = g.n_nodes
    universe = n * (n - 1) // 2
    present = pair_slot(g.edges[:, 0], g.edges[:, 1], n)
    is_absent = np.ones(universe, dtype=bool)
    is_absent[present] = False
    absent = np.flatnonzero(is_absent)
    if count > absent.size:
        raise BudgetInfeasibleError(
            f"cannot add {count} edges; only {absent.size} absent pairs"
        )
    rng = np.random.default_rng(seed)
    chosen = absent[rng.choice(absent.size, size=count, replace=False)]
    u, v = slot_pair(np.sort(chosen), n)
    return add_edges(g, np.column_stack([u, v]))


def _sbm(blocks, per_block, p_in, p_out, seed=0):
    return sbm_generate(SbmConfig(
        blocks=blocks, nodes_per_block=per_block, p_in=p_in, p_out=p_out,
        feature_centers=np.zeros((blocks, 1)), feature_noise_sd=0.0, seed=seed,
    ))


def _global_attack_graphs():
    near_complete = [[u, v] for u in range(6) for v in range(u + 1, 6)][2:]
    return [
        fixture_graph(),
        _sbm(2, 50, 0.2, 0.01),
        _sbm(8, 250, 0.02, 0.0006, seed=3),
        _sbm(3, 4, 1.0, 0.9),
        Graph(6, np.array(near_complete), np.zeros((6, 1))),
        Graph(3, np.array([[0, 1], [0, 2], [1, 2]]), np.zeros((3, 1))),
    ]


@pytest.mark.parametrize("graph_id", range(6))
def test_global_matches_universe_reference(graph_id):
    g = _global_attack_graphs()[graph_id]
    for rate in (0.0, 0.01, 0.1, 0.5, 1.0):
        for seed in range(4):
            try:
                want, want_error = _global_attack_reference(g, rate, seed), None
            except BudgetInfeasibleError as exc:
                want, want_error = None, str(exc)
            try:
                got, got_error = random_global_attack(g, rate, seed), None
            except BudgetInfeasibleError as exc:
                got, got_error = None, str(exc)
            assert got_error == want_error
            if want is not None:
                assert np.array_equal(got.edges, want.edges)


def test_global_peak_memory_under_one_megabyte():
    # a boolean universe of n(n-1)/2 slots and its absent-slot index peak at
    # about 18 MB at n = 2000
    g = _sbm(8, 250, 0.02, 0.0006, seed=3)
    tracemalloc.start()
    try:
        random_global_attack(g, 0.1, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_add_edges_rejects_duplicates():
    g = fixture_graph()
    with pytest.raises(ValueError):
        add_edges(g, g.edges[:1])


# ------------------------------------------------------------ evasion eval


def test_evasion_zero_budget_equals_clean_accuracy():
    g = fixture_graph()
    enc, clf = trained(g)
    targets = list(range(10, 20))
    atk = AttackSpec(mode="targeted", budget=0, seed=4)
    report = evasion_eval(g, targets, enc, clf, atk, smoothing=None, seed=5)
    from edgecert.certify import base_predict

    clean_correct = np.mean(
        [base_predict(g, t, enc, clf, k_hop=2) == g.labels[t] for t in targets]
    )
    assert report.accuracy == pytest.approx(clean_correct)
    assert all(not row.attacked for row in report.rows)


def test_evasion_degenerate_smoothing_matches_base():
    g = fixture_graph(seed=2)
    enc, clf = trained(g, seed=3)
    targets = [11, 15, 19]
    atk = AttackSpec(mode="targeted", budget=2, seed=6)
    base = evasion_eval(g, targets, enc, clf, atk, smoothing=None, seed=7)
    degenerate = evasion_eval(
        g, targets, enc, clf, atk, smoothing=(1, EdgeDropSpec(0.0)), seed=7
    )
    assert [r.attacked_pred for r in base.rows] == [r.attacked_pred for r in degenerate.rows]
    assert base.accuracy == degenerate.accuracy


def test_evasion_deterministic():
    g = fixture_graph(seed=4)
    enc, clf = trained(g, seed=5)
    targets = [10, 12, 14]
    atk = AttackSpec(mode="targeted", budget=3, seed=8)
    a = evasion_eval(g, targets, enc, clf, atk, smoothing=(20, EdgeDropSpec(0.5)), seed=9)
    b = evasion_eval(g, targets, enc, clf, atk, smoothing=(20, EdgeDropSpec(0.5)), seed=9)
    assert a == b


def test_evasion_global_mode():
    g = fixture_graph(seed=6)
    enc, clf = trained(g, seed=7)
    atk = AttackSpec(mode="global", rate=0.1, seed=10)
    report = evasion_eval(g, [0, 1, 2], enc, clf, atk, smoothing=None, seed=11)
    assert len(report.rows) == 3
    assert all(row.attacked for row in report.rows)


def test_evasion_requires_labels():
    g = fixture_graph()
    g_unlabeled = Graph(g.n_nodes, g.edges, g.features, None)
    enc, clf = trained(g)
    with pytest.raises(ValueError, match="label"):
        evasion_eval(g_unlabeled, [0], enc, clf, AttackSpec(mode="targeted", budget=1))


def test_attack_report_csv(tmp_path):
    g = fixture_graph(seed=8)
    enc, clf = trained(g, seed=9)
    atk = AttackSpec(mode="targeted", budget=1, seed=12)
    report = evasion_eval(g, [5, 6], enc, clf, atk, smoothing=None, seed=13)
    path = tmp_path / "attack.csv"
    write_attack_report(path, report, "cafe01")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=cafe01"
    assert lines[1] == "node_id,budget,attacked,clean_pred,attacked_pred,correct"
    assert len(lines) == 4


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec(mode="nuke")
    with pytest.raises(ValueError):
        AttackSpec(mode="targeted", budget=-1)
    with pytest.raises(ValueError):
        AttackSpec(mode="global", rate=1.5)
