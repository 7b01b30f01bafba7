import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecert.attack import add_edges
from edgecert.graph import (
    Graph,
    ParseError,
    SbmConfig,
    StructVector,
    khop_subgraph,
    load_graph,
    normalized_adjacency,
    pair_slot,
    sbm_generate,
    slot_pair,
    to_struct_vector,
)


def make_graph(n, edges, f_dim=2, labels=None):
    return Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2),
                 np.zeros((n, f_dim)), labels)


def neighbor_sets(g):
    """Reference adjacency: the set of neighbours of each node."""
    out = [set() for _ in range(g.n_nodes)]
    for u, v in g.edges.tolist():
        out[u].add(v)
        out[v].add(u)
    return out


# ---------------------------------------------------------------- data model


def test_graph_rejects_self_loops():
    with pytest.raises(ValueError):
        make_graph(3, [[1, 1]])


def test_graph_rejects_duplicates():
    with pytest.raises(ValueError):
        make_graph(3, [[0, 1], [0, 1]])


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_graph(3, [[0, 5]])


def test_graph_sorts_edges():
    g = make_graph(4, [[2, 3], [0, 1], [0, 3]])
    assert g.edges.tolist() == [[0, 1], [0, 3], [2, 3]]


def test_graph_feature_row_mismatch():
    with pytest.raises(ValueError):
        Graph(3, np.zeros((0, 2), dtype=np.int64), np.zeros((2, 4)))


def test_graph_label_length_mismatch():
    with pytest.raises(ValueError):
        make_graph(3, [], labels=np.array([0, 1]))


# ---------------------------------------------------------------- load_graph


def write(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_load_graph_canonicalizes_and_reports(tmp_path):
    write(tmp_path / "e.txt", ["0 1", "1 0", "2 2"])
    write(tmp_path / "x.txt", ["0 1.0 2.0", "1 0.5 0.5", "2 0.0 1.0"])
    g, report = load_graph(tmp_path / "e.txt", tmp_path / "x.txt")
    assert g.n_nodes == 3
    assert g.edges.tolist() == [[0, 1]]
    assert report.n_duplicate_edges == 1
    assert report.n_self_loops == 1


def test_load_graph_empty_edge_file(tmp_path):
    write(tmp_path / "e.txt", ["# no edges"])
    write(tmp_path / "x.txt", ["0 1.0", "1 2.0"])
    g, report = load_graph(tmp_path / "e.txt", tmp_path / "x.txt")
    assert g.n_nodes == 2
    assert g.n_edges == 0
    assert report == report.__class__()


def test_load_graph_out_of_range_edge(tmp_path):
    write(tmp_path / "e.txt", ["0 5"])
    write(tmp_path / "x.txt", ["0 1.0", "1 2.0", "2 3.0"])
    with pytest.raises(ValueError, match="out of range"):
        load_graph(tmp_path / "e.txt", tmp_path / "x.txt")


def test_load_graph_malformed_line_number(tmp_path):
    write(tmp_path / "e.txt", ["0 1", "zap"])
    write(tmp_path / "x.txt", ["0 1.0", "1 2.0"])
    with pytest.raises(ParseError, match=":2:"):
        load_graph(tmp_path / "e.txt", tmp_path / "x.txt")


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_load_graph_rejects_non_finite_feature(tmp_path, token):
    write(tmp_path / "e.txt", ["0 1"])
    write(tmp_path / "x.txt", ["# header", "0 1.0 2.0", f"1 0.5 {token}"])
    with pytest.raises(ParseError, match=r":3: non-finite feature value") as info:
        load_graph(tmp_path / "e.txt", tmp_path / "x.txt")
    assert info.value.lineno == 3


def test_load_graph_missing_feature_row(tmp_path):
    write(tmp_path / "e.txt", ["0 1"])
    write(tmp_path / "x.txt", ["0 1.0", "2 2.0"])
    with pytest.raises(ValueError, match="missing feature rows"):
        load_graph(tmp_path / "e.txt", tmp_path / "x.txt")


def test_load_graph_labels_and_scientific_notation(tmp_path):
    write(tmp_path / "e.txt", ["0 1"])
    write(tmp_path / "x.txt", ["0 1e-3 2.5E2", "1 -1e1 0.0"])
    write(tmp_path / "y.txt", ["0 1", "1 0"])
    g, _ = load_graph(tmp_path / "e.txt", tmp_path / "x.txt", tmp_path / "y.txt")
    assert g.features[0, 0] == 1e-3
    assert g.features[0, 1] == 250.0
    assert g.labels.tolist() == [1, 0]


def test_load_graph_incomplete_labels(tmp_path):
    write(tmp_path / "e.txt", ["0 1"])
    write(tmp_path / "x.txt", ["0 1.0", "1 2.0"])
    write(tmp_path / "y.txt", ["0 1"])
    with pytest.raises(ValueError, match="without labels"):
        load_graph(tmp_path / "e.txt", tmp_path / "x.txt", tmp_path / "y.txt")


# ------------------------------------------------------------------ sbm


def sbm_cfg(**kw):
    base = dict(
        blocks=2,
        nodes_per_block=4,
        p_in=1.0,
        p_out=0.0,
        feature_centers=np.array([[1.0, 1.0], [-1.0, -1.0]]),
        feature_noise_sd=0.0,
        seed=0,
    )
    base.update(kw)
    return SbmConfig(**base)


def test_sbm_two_disjoint_cliques():
    g = sbm_generate(sbm_cfg())
    assert g.n_nodes == 8
    assert g.n_edges == 12  # 2 * C(4,2)
    assert all((u < 4) == (v < 4) for u, v in g.edges.tolist())
    assert g.labels.tolist() == [0] * 4 + [1] * 4


def test_sbm_edgeless():
    g = sbm_generate(sbm_cfg(p_in=0.0, p_out=0.0))
    assert g.n_edges == 0


def test_sbm_edge_count_within_3_sigma():
    # binomial oracle: mean = 2*C(50,2)*0.2 + 2500*0.01 = 515
    cfg = sbm_cfg(nodes_per_block=50, p_in=0.2, p_out=0.01, seed=42)
    g = sbm_generate(cfg)
    mean = 2 * (50 * 49 // 2) * 0.2 + 50 * 50 * 0.01
    var = 2 * (50 * 49 // 2) * 0.2 * 0.8 + 50 * 50 * 0.01 * 0.99
    assert abs(g.n_edges - mean) <= 3 * np.sqrt(var)


def test_sbm_deterministic():
    cfg = sbm_cfg(nodes_per_block=20, p_in=0.3, p_out=0.05, feature_noise_sd=0.5, seed=9)
    assert sbm_generate(cfg) == sbm_generate(cfg)


def test_sbm_config_validates_probabilities():
    with pytest.raises(ValueError):
        sbm_cfg(p_in=0.1, p_out=0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sbm_config_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="feature_noise_sd"):
        sbm_cfg(feature_noise_sd=bad)
    with pytest.raises(ValueError, match="feature_centers"):
        sbm_cfg(feature_centers=np.array([[1.0, bad], [-1.0, -1.0]]))


def _sbm_generate_reference(cfg):
    """Per-pair generator: an index pair and a probability for every node pair."""
    n = cfg.blocks * cfg.nodes_per_block
    labels = np.arange(n, dtype=np.int64) // cfg.nodes_per_block
    rng = np.random.default_rng(cfg.seed)
    if n >= 2:
        uu, vv = np.triu_indices(n, k=1)
        prob = np.where(labels[uu] == labels[vv], cfg.p_in, cfg.p_out)
        keep = rng.random(uu.size) < prob
        edges = np.column_stack([uu[keep], vv[keep]]).astype(np.int64)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    f_dim = cfg.feature_centers.shape[1]
    noise = rng.standard_normal((n, f_dim)) * cfg.feature_noise_sd
    features = cfg.feature_centers[labels] + noise
    return edges, features, labels


# (blocks, nodes_per_block, p_in, p_out): tiny shapes, the shipped 2x50
# default and the two 8x250 benchmark workload shapes. A single node draws
# rng.random(0), which must leave the feature stream where it was.
SBM_SHAPES = [
    (1, 1, 0.2, 0.01),
    (1, 2, 0.2, 0.01),
    (3, 1, 0.2, 0.01),
    (2, 50, 0.2, 0.01),
    (8, 250, 0.014, 0.0003),
    (8, 250, 0.02, 0.0006),
]


@pytest.mark.parametrize("blocks,per_block,p_in,p_out", SBM_SHAPES)
def test_sbm_matches_per_pair_reference(blocks, per_block, p_in, p_out):
    centers = np.random.default_rng(blocks).standard_normal((blocks, 3))
    for p_in_, p_out_ in [(p_in, p_out), (0.0, 0.0), (p_out, p_out), (1.0, p_out), (p_in, 0.0)]:
        for seed in range(3):
            cfg = sbm_cfg(blocks=blocks, nodes_per_block=per_block, p_in=p_in_, p_out=p_out_,
                          feature_centers=centers, feature_noise_sd=0.7, seed=seed)
            g = sbm_generate(cfg)
            edges, features, labels = _sbm_generate_reference(cfg)
            assert np.array_equal(g.edges, edges)
            assert np.array_equal(g.features, features)
            assert np.array_equal(g.labels, labels)


def test_sbm_peak_memory_under_six_squares():
    # the per-pair index arrays peak at about 16.5 n^2 bytes; the one
    # float64 uniform per pair that the stream needs is 4 n^2
    n = 2000
    cfg = sbm_cfg(blocks=8, nodes_per_block=250, p_in=0.02, p_out=0.0006,
                  feature_centers=np.zeros((8, 8)), seed=3)
    tracemalloc.start()
    try:
        sbm_generate(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * n * n


# ------------------------------------------------------- normalized adjacency


def test_adjacency_isolated_node():
    g = make_graph(1, [])
    A = normalized_adjacency(g) @ np.eye(1)
    assert np.allclose(A, [[1.0]])


def test_adjacency_single_edge():
    g = make_graph(2, [[0, 1]])
    A = normalized_adjacency(g) @ np.eye(2)
    assert np.allclose(A, [[0.5, 0.5], [0.5, 0.5]])


def test_adjacency_symmetric_entries_bounded():
    g = sbm_generate(sbm_cfg(nodes_per_block=15, p_in=0.4, p_out=0.1, seed=3))
    A = normalized_adjacency(g) @ np.eye(g.n_nodes)
    assert np.allclose(A, A.T)
    assert A.min() >= 0.0 and A.max() <= 1.0
    row_sums = A.sum(axis=1)
    assert np.all(row_sums <= np.sqrt(g.degrees() + 1) + 1e-12)


def test_adjacency_permutation_equivariant():
    g = make_graph(4, [[0, 1], [1, 2], [2, 3]])
    perm = np.array([2, 0, 3, 1])  # new id of old node i is perm[i]
    edges = np.sort(perm[g.edges], axis=1)
    gp = Graph(4, edges, g.features[np.argsort(perm)])
    A = normalized_adjacency(g) @ np.eye(4)
    Ap = normalized_adjacency(gp) @ np.eye(4)
    assert np.allclose(Ap[np.ix_(perm, perm)], A)


_PROPAGATION_CASES = {
    "one_node": make_graph(1, []),
    "no_edges": make_graph(5, []),
    "isolated_nodes": make_graph(7, [[0, 3], [1, 3], [3, 6], [1, 6]]),
    "sbm_dense": sbm_generate(sbm_cfg(nodes_per_block=15, p_in=0.4, p_out=0.1, seed=3)),
    "sbm_sparse": sbm_generate(sbm_cfg(nodes_per_block=20, p_in=0.1, p_out=0.02, seed=8)),
}


def _sequential_rows(g, X):
    """Row i of D~^-1/2 (A+I) D~^-1/2 @ X as a Python loop: 0.0, then plus
    a_ij * X[j] for each j in ascending column order."""
    dinv = 1.0 / np.sqrt(g.degrees() + 1.0)
    nbrs = [{i} for i in range(g.n_nodes)]
    for u, v in g.edges.tolist():
        nbrs[u].add(v)
        nbrs[v].add(u)
    out = np.empty(X.shape)
    for i in range(g.n_nodes):
        for k in range(X.shape[1]):
            total = 0.0
            for j in sorted(nbrs[i]):
                total += float(dinv[i] * dinv[j]) * float(X[j, k])
            out[i, k] = total
    return out


@pytest.mark.parametrize("width", [1, 8, 64])
@pytest.mark.parametrize("case", list(_PROPAGATION_CASES))
def test_propagation_bit_identical_to_csr_product_and_row_sums(case, width):
    # the product must round exactly as scipy's CSR product and a plain
    # sequential row sum do, exact zeros (signed too) included
    from scipy import sparse

    g = _PROPAGATION_CASES[case]
    n = g.n_nodes
    rng = np.random.default_rng(width)
    X = rng.standard_normal((n, width))
    X[rng.random(X.shape) < 0.3] = 0.0
    X[rng.random(X.shape) < 0.1] = -0.0
    dinv = 1.0 / np.sqrt(g.degrees() + 1.0)
    diag = np.arange(n)
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1], diag])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0], diag])
    csr = sparse.csr_array((dinv[rows] * dinv[cols], (rows, cols)), shape=(n, n))
    got = normalized_adjacency(g) @ X
    assert got.shape == (n, width)
    assert got.tobytes() == (csr @ X).tobytes()
    assert got.tobytes() == _sequential_rows(g, X).tobytes()


def test_propagation_rejects_a_mismatched_operand():
    with pytest.raises(ValueError, match="cannot multiply"):
        normalized_adjacency(make_graph(3, [[0, 1]])) @ np.ones((2, 4))
    with pytest.raises(ValueError, match="cannot multiply"):
        normalized_adjacency(make_graph(3, [[0, 1]])) @ np.ones(3)


# ------------------------------------------------------------------- khop


def test_khop_path_one_hop():
    g = make_graph(3, [[0, 1], [1, 2]])
    sub = khop_subgraph(g, 0, 1)
    assert sub.graph.n_nodes == 2
    assert sub.graph.edges.tolist() == [[0, 1]]
    assert sub.nodes.tolist() == [0, 1]
    assert sub.center == 0


def test_khop_zero_hops():
    g = make_graph(3, [[0, 1], [1, 2]])
    sub = khop_subgraph(g, 1, 0)
    assert sub.graph.n_nodes == 1
    assert sub.graph.n_edges == 0
    assert sub.nodes.tolist() == [1]
    assert sub.center == 0


def test_khop_clique():
    g = make_graph(4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
    sub = khop_subgraph(g, 2, 1)
    assert sub.graph.n_nodes == 4
    assert sub.graph.n_edges == 6


def _bfs_oracle(g, center, k):
    dist = {center: 0}
    frontier = [center]
    nbrs = neighbor_sets(g)
    for level in range(1, k + 1):
        nxt = []
        for u in frontier:
            for v in nbrs[u]:
                if v not in dist:
                    dist[v] = level
                    nxt.append(v)
        frontier = nxt
    return set(dist)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 3))
def test_khop_matches_bfs_oracle(seed, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    cfg = sbm_cfg(blocks=1, nodes_per_block=n, p_in=0.2,
                  feature_centers=np.zeros((1, 2)), seed=seed)
    g = sbm_generate(cfg)
    center = int(rng.integers(n))
    sub = khop_subgraph(g, center, k)
    assert sub.nodes.tolist() == sorted(_bfs_oracle(g, center, k))
    assert sub.nodes[sub.center] == center
    # a graph with added edges is a new Graph and gets its own adjacency
    pairs = np.array([[u, v] for u in range(n) for v in range(u + 1, n)], dtype=np.int64)
    absent = pairs[~np.isin(pair_slot(pairs[:, 0], pairs[:, 1], n), to_struct_vector(g).present)]
    extra = absent[rng.permutation(len(absent))[:3]]
    attacked = add_edges(g, extra)
    for c in {center, *extra.ravel().tolist()}:
        sub = khop_subgraph(attacked, c, k)
        kept = sorted(_bfs_oracle(attacked, c, k))
        assert sub.nodes.tolist() == kept
        local = {old: new for new, old in enumerate(kept)}
        inside = [[local[u], local[v]] for u, v in attacked.edges.tolist()
                  if u in local and v in local]
        assert sub.graph.edges.tolist() == sorted(inside)
        assert np.array_equal(sub.graph.features, attacked.features[kept])


def test_csr_matches_neighbor_sets_and_is_cached():
    g = make_graph(5, [[0, 1], [0, 3], [1, 2], [2, 3], [3, 4]])
    indptr, indices = g.csr
    assert g.csr[0] is indptr
    nbrs = neighbor_sets(g)
    for u in range(5):
        assert sorted(indices[indptr[u]:indptr[u + 1]].tolist()) == sorted(nbrs[u])
    empty = make_graph(3, [])
    assert empty.csr[0].tolist() == [0, 0, 0, 0] and empty.csr[1].size == 0


# -------------------------------------------------------------- struct vector


def test_slot_formula_by_hand():
    g = make_graph(3, [[0, 1], [1, 2]])
    v = to_struct_vector(g)
    assert v.universe == 3
    assert v.present.tolist() == [0, 2]


def test_struct_vector_edgeless():
    v = to_struct_vector(make_graph(4, []))
    assert v.universe == 6
    assert v.present.size == 0


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 30))
def test_slot_encoding_is_bijection(n):
    uu, vv = np.triu_indices(n, k=1)
    slots = pair_slot(uu, vv, n)
    assert sorted(slots.tolist()) == list(range(n * (n - 1) // 2))
    du, dv = slot_pair(slots, n)
    assert np.array_equal(du, uu)
    assert np.array_equal(dv, vv)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_struct_vector_round_trip(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 50))
    uu, vv = np.triu_indices(n, k=1)
    keep = rng.random(uu.size) < 0.3
    g = Graph(n, np.column_stack([uu[keep], vv[keep]]), rng.standard_normal((n, 3)))
    # slot order is edge order, so decoding the slots gives back the edge list
    u, v = slot_pair(to_struct_vector(g).present, n)
    edges = np.column_stack([u, v])
    assert edges.dtype == g.edges.dtype
    assert np.array_equal(edges, g.edges)


def test_struct_vector_validates_slots():
    with pytest.raises(ValueError):
        StructVector(3, np.array([0, 0]))
    with pytest.raises(ValueError):
        StructVector(3, np.array([3]))
