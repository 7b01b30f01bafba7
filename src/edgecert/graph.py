"""Graph data model: ingestion, synthetic generation, subgraphs, structure vectors.

Graphs are undirected and attributed. Edges are stored canonically as (u, v)
pairs with u < v, deduplicated and sorted lexicographically. The structure
vector of a graph is the flattened upper triangle of its adjacency matrix:
slot index for pair (u, v) is ``u*n - u*(u+1)//2 + (v-u-1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse


class ParseError(ValueError):
    """Malformed line in a graph text file."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


def _as_edge_array(edges) -> np.ndarray:
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must have shape (m, 2), got {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected attributed graph.

    Parameters
    ----------
    n_nodes : int
        Number of nodes; node ids are 0..n_nodes-1.
    edges : array_like of shape (m, 2)
        Undirected edges (u, v) with u < v. Duplicates and self-loops are
        rejected; rows are sorted lexicographically on construction.
    features : array_like of shape (n_nodes, f_dim)
        Node feature matrix, stored as float64.
    labels : array_like of shape (n_nodes,), optional
        Non-negative integer class ids.
    """

    n_nodes: int
    edges: np.ndarray
    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.n_nodes < 0:
            raise ValueError("n_nodes must be non-negative")
        edges = _as_edge_array(self.edges)
        if edges.shape[0]:
            if np.any(edges[:, 0] >= edges[:, 1]):
                raise ValueError("edges must satisfy u < v (no self-loops)")
            if edges.min() < 0 or edges.max() >= self.n_nodes:
                raise ValueError("edge endpoint out of range")
            order = np.lexsort((edges[:, 1], edges[:, 0]))
            edges = edges[order]
            dup = (np.diff(edges[:, 0]) == 0) & (np.diff(edges[:, 1]) == 0)
            if np.any(dup):
                raise ValueError("duplicate edges are not allowed")
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if features.shape[0] != self.n_nodes:
            raise ValueError(
                f"features have {features.shape[0]} rows for {self.n_nodes} nodes"
            )
        labels = self.labels
        if labels is not None:
            labels = np.ascontiguousarray(labels, dtype=np.int64)
            if labels.shape != (self.n_nodes,):
                raise ValueError("labels must have one entry per node")
            if labels.size and labels.min() < 0:
                raise ValueError("labels must be non-negative class ids")
        for arr in (edges, features, labels):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def f_dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def n_classes(self) -> int:
        if self.labels is None:
            raise ValueError("graph has no labels")
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n_nodes)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency as ``(indptr, indices)``: node u's neighbours are
        ``indices[indptr[u]:indptr[u+1]]``. Built on first use, then cached."""
        src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        indices = dst[np.argsort(src, kind="stable")]
        indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.n_nodes), out=indptr[1:])
        for arr in (indptr, indices):
            arr.setflags(write=False)
        return indptr, indices

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.n_nodes != other.n_nodes:
            return False
        if not np.array_equal(self.edges, other.edges):
            return False
        if not np.array_equal(self.features, other.features):
            return False
        if (self.labels is None) != (other.labels is None):
            return False
        return self.labels is None or np.array_equal(self.labels, other.labels)

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class StructVector:
    """Flattened upper-triangular edge indicator over an ordered pair universe.

    ``universe`` is the number of node-pair slots; ``present`` holds the
    sorted slot indices of existing edges.
    """

    universe: int
    present: np.ndarray

    def __post_init__(self):
        if self.universe < 0:
            raise ValueError("universe must be non-negative")
        present = np.asarray(self.present, dtype=np.int64).ravel()
        if present.size:
            if (present[1:] <= present[:-1]).any():
                raise ValueError("present slots must be strictly increasing")
            if present[0] < 0 or present[-1] >= self.universe:
                raise ValueError("slot index out of universe")
        present.setflags(write=False)
        object.__setattr__(self, "present", present)

    @property
    def n_present(self) -> int:
        return int(self.present.size)


@dataclass(frozen=True)
class SbmConfig:
    """Stochastic block model with Gaussian features around per-block centers."""

    blocks: int
    nodes_per_block: int
    p_in: float
    p_out: float
    feature_centers: np.ndarray
    feature_noise_sd: float
    seed: int

    def __post_init__(self):
        if self.blocks < 1 or self.nodes_per_block < 1:
            raise ValueError("blocks and nodes_per_block must be >= 1")
        if not (0.0 <= self.p_out <= self.p_in <= 1.0):
            raise ValueError("need 0 <= p_out <= p_in <= 1")
        if not (np.isfinite(self.feature_noise_sd) and self.feature_noise_sd >= 0):
            raise ValueError(
                f"feature_noise_sd must be finite and non-negative, got {self.feature_noise_sd}"
            )
        centers = np.ascontiguousarray(self.feature_centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[0] != self.blocks:
            raise ValueError("feature_centers must be a blocks x f_dim matrix")
        if not np.isfinite(centers).all():
            raise ValueError("feature_centers must be finite")
        centers.setflags(write=False)
        object.__setattr__(self, "feature_centers", centers)


@dataclass(frozen=True)
class LoadReport:
    """Counts of lines silently normalized away during ingestion."""

    n_duplicate_edges: int = 0
    n_self_loops: int = 0


class KhopSubgraph(NamedTuple):
    graph: Graph
    nodes: np.ndarray  # sorted global ids of the kept nodes; local id i is nodes[i]
    center: int  # local id of the center node


def _parse_int(token: str, path, lineno: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(path, lineno, f"invalid {what} {token!r}") from None
    if value < 0:
        raise ParseError(path, lineno, f"{what} must be non-negative, got {value}")
    return value


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def load_graph(edge_path, feature_path, label_path=None) -> tuple[Graph, LoadReport]:
    """Load a graph from whitespace-separated text files.

    Edge file: one ``u v`` pair per line. Feature file: ``id x1 ... xf`` rows,
    one per node, constant width. Label file (optional): ``id c`` rows
    covering every node. ``#`` comment lines and blank lines are ignored.

    Returns the graph plus a report counting dropped duplicate edges and
    self-loops. Malformed lines raise :class:`ParseError` with the line
    number; out-of-range node ids raise :class:`ValueError`.
    """
    rows: dict[int, np.ndarray] = {}
    width = None
    for lineno, line in _data_lines(feature_path):
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError(feature_path, lineno, "expected 'id x1 ... xf'")
        node = _parse_int(tokens[0], feature_path, lineno, "node id")
        try:
            vec = np.array([float(t) for t in tokens[1:]], dtype=np.float64)
        except ValueError:
            raise ParseError(feature_path, lineno, "invalid feature value") from None
        if not np.isfinite(vec).all():
            raise ParseError(feature_path, lineno, "non-finite feature value")
        if width is None:
            width = vec.size
        elif vec.size != width:
            raise ParseError(
                feature_path, lineno, f"expected {width} features, got {vec.size}"
            )
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

    seen: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int]] = []
    n_dup = 0
    n_self = 0
    for lineno, line in _data_lines(edge_path):
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(edge_path, lineno, "expected 'u v'")
        u = _parse_int(tokens[0], edge_path, lineno, "node id")
        v = _parse_int(tokens[1], edge_path, lineno, "node id")
        if u >= n_nodes or v >= n_nodes:
            raise ValueError(
                f"{edge_path}:{lineno}: node id {max(u, v)} out of range for "
                f"{n_nodes} nodes"
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
        for lineno, line in _data_lines(label_path):
            tokens = line.split()
            if len(tokens) != 2:
                raise ParseError(label_path, lineno, "expected 'id c'")
            node = _parse_int(tokens[0], label_path, lineno, "node id")
            cls = _parse_int(tokens[1], label_path, lineno, "class id")
            if node >= n_nodes:
                raise ValueError(
                    f"{label_path}:{lineno}: node id {node} out of range"
                )
            labels_arr[node] = cls
        unlabeled = np.nonzero(labels_arr < 0)[0]
        if unlabeled.size:
            raise ValueError(f"{label_path}: nodes without labels: {unlabeled[:5]}")
        labels = labels_arr

    graph = Graph(n_nodes, np.array(pairs, dtype=np.int64).reshape(-1, 2), features, labels)
    return graph, LoadReport(n_duplicate_edges=n_dup, n_self_loops=n_self)


def sbm_generate(cfg: SbmConfig) -> Graph:
    """Sample a stochastic block model graph, deterministic given cfg.seed.

    Within-block pairs are connected with p_in, across-block pairs with
    p_out. Features are the block center plus i.i.d. Gaussian noise; labels
    are block ids.

    Stream contract: one ``rng.random(n*(n-1)//2)`` call draws a uniform r
    per pair (u < v) in slot order (see :func:`pair_slot`), and pair (u, v)
    is an edge when r < p_in within a block or r < p_out across blocks;
    then ``rng.standard_normal((n, f_dim))`` draws the feature noise. Since
    p_out <= p_in, only slots with r < p_in are decoded into pairs, so the
    one float per pair of the stream is the only per-pair array.
    """
    n = cfg.blocks * cfg.nodes_per_block
    labels = np.arange(n, dtype=np.int64) // cfg.nodes_per_block
    rng = np.random.default_rng(cfg.seed)
    r = rng.random(n * (n - 1) // 2)
    cand = np.flatnonzero(r < cfg.p_in)
    u, v = slot_pair(cand, n)
    keep = (labels[u] == labels[v]) | (r[cand] < cfg.p_out)
    edges = np.column_stack([u[keep], v[keep]])
    f_dim = cfg.feature_centers.shape[1]
    noise = rng.standard_normal((n, f_dim)) * cfg.feature_noise_sd
    features = cfg.feature_centers[labels] + noise
    return Graph(n, edges, features, labels)


def normalized_adjacency(g: Graph) -> sparse.csr_array:
    """GCN propagation matrix D~^{-1/2} (A + I) D~^{-1/2} as sparse CSR."""
    from scipy import sparse

    n = g.n_nodes
    dinv = 1.0 / np.sqrt(g.degrees() + 1.0)
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1], diag])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0], diag])
    vals = dinv[rows] * dinv[cols]
    return sparse.csr_array((vals, (rows, cols)), shape=(n, n))


def _csr_rows(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions in ``indices`` of the neighbour lists of ``rows``, concatenated."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    offsets = np.repeat(starts - np.cumsum(lens) + lens, lens)
    return offsets + np.arange(offsets.size)


def khop_subgraph(g: Graph, center: int, k: int) -> KhopSubgraph:
    """Induced subgraph on nodes within distance <= k of center.

    Local node ids follow the sorted order of the original ids: local id i is
    global id ``nodes[i]``. The center's local id is returned alongside.
    """
    if not (0 <= center < g.n_nodes):
        raise ValueError(f"center {center} out of range")
    if k < 0:
        raise ValueError("k must be >= 0")
    indptr, indices = g.csr
    reached = np.zeros(g.n_nodes, dtype=bool)
    reached[center] = True
    frontier = np.array([center], dtype=np.int64)
    for _ in range(k):
        nbrs = indices[_csr_rows(indptr, frontier)]
        frontier = np.unique(nbrs[~reached[nbrs]])
        if not frontier.size:
            break
        reached[frontier] = True
    kept = np.flatnonzero(reached)
    kept.setflags(write=False)
    # edges among kept nodes, each found once from its smaller endpoint
    src = np.repeat(kept, indptr[kept + 1] - indptr[kept])
    dst = indices[_csr_rows(indptr, kept)]
    inner = reached[dst] & (src < dst)
    lookup = np.full(g.n_nodes, -1, dtype=np.int64)
    lookup[kept] = np.arange(kept.size)
    sub_edges = np.column_stack([lookup[src[inner]], lookup[dst[inner]]])
    sub = Graph(
        kept.size,
        sub_edges,
        g.features[kept],
        None if g.labels is None else g.labels[kept],
    )
    return KhopSubgraph(sub, kept, int(lookup[center]))


def pair_slot(u, v, n: int):
    """Slot index of pair (u, v), u < v, in the upper-triangular order."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def slot_pair(slot, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pair_slot`: decode slot indices into (u, v) pairs."""
    slot = np.asarray(slot, dtype=np.int64)
    rows = np.arange(max(n - 1, 0), dtype=np.int64)
    starts = pair_slot(rows, rows + 1, n)
    # starts[u] = slot of pair (u, u+1), the first slot of row u
    u = np.searchsorted(starts, slot, side="right") - 1
    v = slot - starts[u] + u + 1
    return u, v


def to_struct_vector(g: Graph) -> StructVector:
    """Flatten the graph's edge set over the n*(n-1)/2 pair universe."""
    n = g.n_nodes
    universe = n * (n - 1) // 2
    slots = pair_slot(g.edges[:, 0], g.edges[:, 1], n)
    # lexicographic edge order makes the slot sequence strictly increasing
    return StructVector(universe, slots)
