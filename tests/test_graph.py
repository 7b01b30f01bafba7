import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgecert.graph as graph_mod
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


def test_load_graph_rejects_duplicate_label_row(tmp_path):
    write(tmp_path / "e.txt", ["0 1"])
    write(tmp_path / "x.txt", ["0 1.0", "1 2.0"])
    write(tmp_path / "y.txt", ["0 1", "# relabel", "1 0", "0 0"])
    with pytest.raises(ParseError, match=r"y\.txt:4: duplicate label row for node 0") as info:
        load_graph(tmp_path / "e.txt", tmp_path / "x.txt", tmp_path / "y.txt")
    assert info.value.lineno == 4


# The line-by-line parser that the whole-file parse replaced, kept as its oracle.


def _reference_parse_int(token, path, lineno, what):
    try:
        value = int(token)
    except ValueError:
        raise ParseError(path, lineno, f"invalid {what} {token!r}") from None
    if value < 0:
        raise ParseError(path, lineno, f"{what} must be non-negative, got {value}")
    return value


def _reference_data_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def _reference_load_graph(edge_path, feature_path, label_path=None):
    rows = {}
    width = None
    for lineno, line in _reference_data_lines(feature_path):
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError(feature_path, lineno, "expected 'id x1 ... xf'")
        node = _reference_parse_int(tokens[0], feature_path, lineno, "node id")
        try:
            vec = np.array([float(t) for t in tokens[1:]], dtype=np.float64)
        except ValueError:
            raise ParseError(feature_path, lineno, "invalid feature value") from None
        if not np.isfinite(vec).all():
            raise ParseError(feature_path, lineno, "non-finite feature value")
        if width is None:
            width = vec.size
        elif vec.size != width:
            raise ParseError(feature_path, lineno, f"expected {width} features, got {vec.size}")
        if node in rows:
            raise ParseError(feature_path, lineno, f"duplicate feature row for node {node}")
        rows[node] = vec
    n_nodes = len(rows)
    missing = [i for i in range(n_nodes) if i not in rows]
    if missing:
        raise ValueError(
            f"{feature_path}: missing feature rows for nodes {missing[:5]}"
            + ("..." if len(missing) > 5 else "")
        )
    features = np.vstack([rows[i] for i in range(n_nodes)]) if n_nodes else np.zeros((0, 0))

    seen = set()
    pairs = []
    n_dup = 0
    n_self = 0
    for lineno, line in _reference_data_lines(edge_path):
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(edge_path, lineno, "expected 'u v'")
        u = _reference_parse_int(tokens[0], edge_path, lineno, "node id")
        v = _reference_parse_int(tokens[1], edge_path, lineno, "node id")
        if u >= n_nodes or v >= n_nodes:
            raise ValueError(
                f"{edge_path}:{lineno}: node id {max(u, v)} out of range for {n_nodes} nodes"
            )
        if u == v:
            n_self += 1
            continue
        pair = (min(u, v), max(u, v))
        if pair in seen:
            n_dup += 1
            continue
        seen.add(pair)
        pairs.append(pair)

    labels = None
    if label_path is not None:
        labels_arr = np.full(n_nodes, -1, dtype=np.int64)
        for lineno, line in _reference_data_lines(label_path):
            tokens = line.split()
            if len(tokens) != 2:
                raise ParseError(label_path, lineno, "expected 'id c'")
            node = _reference_parse_int(tokens[0], label_path, lineno, "node id")
            cls = _reference_parse_int(tokens[1], label_path, lineno, "class id")
            if node >= n_nodes:
                raise ValueError(f"{label_path}:{lineno}: node id {node} out of range")
            labels_arr[node] = cls
        unlabeled = np.nonzero(labels_arr < 0)[0]
        if unlabeled.size:
            raise ValueError(f"{label_path}: nodes without labels: {unlabeled[:5]}")
        labels = labels_arr

    graph = Graph(n_nodes, np.array(pairs, dtype=np.int64).reshape(-1, 2), features, labels)
    return graph, (n_dup, n_self)


def _write_files(tmp_path, edges, features, labels):
    """Write the three files verbatim (no newline translation); None omits labels."""
    paths = [tmp_path / "e.txt", tmp_path / "x.txt", tmp_path / "y.txt"]
    for path, text in zip(paths, (edges, features, labels)):
        if text is not None:
            path.write_bytes(text.encode("utf-8"))
    return paths[0], paths[1], paths[2] if labels is not None else None


def _random_dataset_files(tmp_path, n, seed, shuffle=False):
    from edgecert.cli import write_graph_files

    rng = np.random.default_rng(seed)
    pairs = np.sort(rng.integers(0, n, size=(3 * n, 2)), axis=1)
    pairs = pairs[pairs[:, 0] < pairs[:, 1]]
    edges = np.array(sorted(set(map(tuple, pairs.tolist()))), dtype=np.int64)
    features = rng.standard_normal((n, 8)) * 10.0 ** rng.integers(-5, 6, size=(n, 8))
    features[0, :2] = (0.0, -0.0)
    g = Graph(n, edges, features, rng.integers(0, 4, size=n))
    write_graph_files(g, tmp_path)
    paths = (tmp_path / "edges.txt", tmp_path / "features.txt", tmp_path / "labels.txt")
    if shuffle:
        for path in paths[1:]:
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines[i] for i in rng.permutation(len(lines))))
    return paths


_VALID_FILES = {
    "comments-and-blank-lines": (
        "# edges\n\n0 1\n   \n  # indented comment\n1 2\n\t\n",
        "# id x\n0 1.5 2\n\n1 -3 4e-2\n  # note\n2 0 0\n",
        "\n0 1\n# c\n1 0\n2 1\n",
    ),
    "reversed-duplicate-and-self-loop-edges": (
        "2 0\n0 2\n1 1\n2 0\n1 2\n2 1\n0 0\n",
        "0 1\n1 2\n2 3\n",
        None,
    ),
    "number-spellings": (
        "+0 0_1\n0002 +1\n",
        "0 +3 1_0.5 1e-3 2.5E2\n1 -1e1 0.0 -0 .5\n2 1E+300 -2.5e-300 7 4\n",
        "0 +1\n1 0_0\n2 2\n",
    ),
    "no-trailing-newline": ("0 1\n1 2", "0 1.0\n1 2.0\n2 3.0", "0 0\n1 1\n2 0"),
    "crlf-and-cr-line-ends": ("0 1\r\n1 2\r2 0\r\n", "0 1.0\r\n1 2.0\r\n2 3.0\r\n", "0 0\r1 1\r2 0"),
    "unicode-digits-and-spaces": ("٠ ١\n", "0 1.5\n1 ٢\n", None),
    "no-edges": ("# none\n", "0 1.0\n1 2.0\n", "0 0\n1 1\n"),
    "no-nodes": ("", "# empty\n", None),
    "isolated-nodes": ("3 4\n", "4 0.5\n3 0.5\n2 1\n1 1\n0 0\n", "4 0\n3 1\n2 0\n1 1\n0 0\n"),
}


def _assert_same_load(paths):
    g, report = load_graph(*paths)
    ref, (n_dup, n_self) = _reference_load_graph(*paths)
    assert g.n_nodes == ref.n_nodes
    assert g.features.shape == ref.features.shape
    assert g.features.tobytes() == ref.features.tobytes()
    assert g.edges.tolist() == ref.edges.tolist()
    if ref.labels is None:
        assert g.labels is None
    else:
        assert g.labels.tolist() == ref.labels.tolist()
    assert (report.n_duplicate_edges, report.n_self_loops) == (n_dup, n_self)
    return g, report


@pytest.mark.parametrize("case", list(_VALID_FILES))
def test_load_graph_matches_line_parser_on_valid_files(tmp_path, case):
    _assert_same_load(_write_files(tmp_path, *_VALID_FILES[case]))


@pytest.mark.parametrize("n,shuffle", [(100, False), (2000, False), (100, True), (2000, True)])
def test_load_graph_matches_line_parser_on_written_datasets(tmp_path, n, shuffle):
    g, _ = _assert_same_load(_random_dataset_files(tmp_path, n, seed=n, shuffle=shuffle))
    assert g.n_nodes == n and g.n_edges > n


_HUGE = "9" * 30

_MALFORMED_FILES = {
    # features
    "feature-row-without-values": ("0 1\n", "0 1.0\n1\n", None),
    "feature-node-id-not-an-int": ("0 1\n", "0 1.0\n1.0 2.0\n", None),
    "feature-node-id-hex": ("0 1\n", "0 1.0\n0x1 2.0\n", None),
    "feature-node-id-negative": ("0 1\n", "0 1.0\n-1 2.0\n", None),
    "feature-value-invalid": ("0 1\n", "0 1.0\n1 abc\n", None),
    "feature-value-hex": ("0 1\n", "0 1.0\n1 0x10\n", None),
    "feature-value-nan": ("0 1\n", "0 1.0\n1 nan\n", None),
    "feature-value-inf-overflow": ("0 1\n", "0 1.0\n1 1e400\n", None),
    "feature-width-changes": ("0 1\n", "0 1.0 2.0\n1 3.0\n", None),
    "feature-width-grows": ("0 1\n", "0 1.0\n1 3.0 4.0\n", None),
    "feature-duplicate-row": ("0 1\n", "0 1.0\n1 2.0\n0 3.0\n", None),
    "feature-missing-rows": ("0 1\n", "0 1.0\n3 2.0\n", None),
    "feature-many-missing-rows": ("0 1\n", "".join(f"{i + 10} 1.0\n" for i in range(8)), None),
    "feature-id-beyond-int64": ("0 1\n", f"0 1.0\n{_HUGE} 2.0\n", None),
    "feature-id-beyond-int64-then-bad-line": ("0 1\n", f"{_HUGE} 1.0\n1 x\n", None),
    "feature-non-finite-before-ragged": ("0 1\n", "0 1.0\n1 inf\n2 1.0 2.0\n", None),
    "feature-ragged-before-non-finite": ("0 1\n", "0 1.0\n1 1.0 2.0\n2 nan\n", None),
    "feature-duplicate-before-invalid": ("0 1\n", "0 1.0\n0 1.0\n1 x\n", None),
    "feature-inline-comment": ("0 1\n", "0 1.0 # note\n1 2.0\n", None),
    # edges, after a valid feature file
    "edge-inline-comment": ("0 1 # note\n", "0 1.0\n1 2.0\n", None),
    "edge-one-token": ("0 1\n1\n", "0 1.0\n1 2.0\n", None),
    "edge-three-tokens": ("0 1 1\n", "0 1.0\n1 2.0\n", None),
    "edge-float-id": ("0 1\n0 1.0\n", "0 1.0\n1 2.0\n", None),
    "edge-negative-id": ("0 1\n1 -1\n", "0 1.0\n1 2.0\n", None),
    "edge-out-of-range": ("0 1\n0 5\n", "0 1.0\n1 2.0\n", None),
    "edge-out-of-range-first-endpoint": ("7 1\n", "0 1.0\n1 2.0\n", None),
    "edge-beyond-int64": (f"0 {_HUGE}\n", "0 1.0\n1 2.0\n", None),
    "edge-out-of-range-before-invalid": ("0 5\n0 x\n", "0 1.0\n1 2.0\n", None),
    "edge-invalid-before-out-of-range": ("0 x\n0 5\n", "0 1.0\n1 2.0\n", None),
    "edge-to-a-graph-without-nodes": ("0 0\n", "", None),
    "features-checked-before-edges": ("0 x\n", "0 1.0\n1 y\n", None),
    # labels, after valid feature and edge files
    "label-three-tokens": ("0 1\n", "0 1.0\n1 2.0\n", "0 1 2\n1 0\n"),
    "label-class-not-an-int": ("0 1\n", "0 1.0\n1 2.0\n", "0 1\n1 a\n"),
    "label-class-negative": ("0 1\n", "0 1.0\n1 2.0\n", "0 1\n1 -2\n"),
    "label-node-negative": ("0 1\n", "0 1.0\n1 2.0\n", "-1 1\n1 0\n"),
    "label-node-out-of-range": ("0 1\n", "0 1.0\n1 2.0\n", "0 1\n2 0\n"),
    "label-node-beyond-int64": ("0 1\n", "0 1.0\n1 2.0\n", f"0 1\n{_HUGE} 0\n"),
    "label-missing": ("0 1\n", "0 1.0\n1 2.0\n2 3.0\n", "1 1\n"),
    "label-inline-comment": ("0 1\n", "0 1.0\n1 2.0\n", "0 1 # note\n1 0\n"),
    "edges-checked-before-labels": ("0 9\n", "0 1.0\n1 2.0\n", "0 x\n"),
}


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.value


@pytest.mark.parametrize("case", list(_MALFORMED_FILES))
def test_load_graph_errors_match_line_parser(tmp_path, case):
    paths = _write_files(tmp_path, *_MALFORMED_FILES[case])
    got = _raised(load_graph, *paths)
    want = _raised(_reference_load_graph, *paths)
    assert type(got) is type(want)
    assert isinstance(got, ValueError)
    assert str(got) == str(want)
    assert getattr(got, "lineno", None) == getattr(want, "lineno", None)


@pytest.mark.parametrize("later", [
    pytest.param("1 0\n", id="alone"),
    pytest.param("1 x\n", id="then-bad-line"),
])
def test_load_graph_rejects_class_id_beyond_int64_at_its_line(tmp_path, later):
    # the line parser's oracle overflows on such a class id, so it has no case above;
    # a bad line after it must not win
    paths = _write_files(tmp_path, "0 1\n", "0 1.0\n1 2.0\n", f"0 {_HUGE}\n{later}")
    with pytest.raises(ParseError, match=rf"y\.txt:1: class id {_HUGE} does not fit in int64"):
        load_graph(*paths)


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


def _assert_sbm_matches_reference(blocks, per_block, probabilities, seeds):
    centers = np.random.default_rng(blocks).standard_normal((blocks, 3))
    for p_in, p_out in probabilities:
        for seed in seeds:
            cfg = sbm_cfg(blocks=blocks, nodes_per_block=per_block, p_in=p_in, p_out=p_out,
                          feature_centers=centers, feature_noise_sd=0.7, seed=seed)
            g = sbm_generate(cfg)
            edges, features, labels = _sbm_generate_reference(cfg)
            assert np.array_equal(g.edges, edges)
            assert np.array_equal(g.features, features)
            assert np.array_equal(g.labels, labels)


@pytest.mark.parametrize("blocks,per_block,p_in,p_out", SBM_SHAPES)
def test_sbm_matches_per_pair_reference(blocks, per_block, p_in, p_out):
    probabilities = [(p_in, p_out), (0.0, 0.0), (p_out, p_out), (1.0, p_out), (p_in, 0.0)]
    _assert_sbm_matches_reference(blocks, per_block, probabilities, range(3))


@pytest.mark.parametrize("blocks,per_block,p_in,p_out", SBM_SHAPES)
def test_sbm_small_draw_blocks_match_per_pair_reference(blocks, per_block, p_in, p_out,
                                                        monkeypatch):
    # blocks of at most 997 pairs: several per shape, the last one ragged at
    # both 8x250 shapes, and a boundary inside a row wherever there are 3 pairs
    n = blocks * per_block
    pairs = n * (n - 1) // 2
    block = min(997, max(1, pairs // 5 - 1))
    monkeypatch.setattr(graph_mod, "SBM_BLOCK_PAIRS", block)
    if pairs >= 3:
        u, v = slot_pair(np.arange(block, pairs, block), n)
        assert (v > u + 1).any()
    _assert_sbm_matches_reference(blocks, per_block, [(p_in, p_out), (1.0, p_out)], range(2))


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


def test_sbm_peak_memory_under_four_mib():
    # the uniforms are drawn and decoded a block of SBM_BLOCK_PAIRS (1 MiB)
    # at a time; one float64 per pair peaked at 17.5 MiB here
    cfg = sbm_cfg(blocks=8, nodes_per_block=250, p_in=0.02, p_out=0.0006,
                  feature_centers=np.zeros((8, 8)), seed=3)
    tracemalloc.start()
    try:
        sbm_generate(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


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
