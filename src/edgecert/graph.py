"""Graph data model: ingestion, synthetic generation, GCN propagation, subgraphs,
structure vectors.

Graphs are undirected and attributed. Edges are stored canonically as (u, v)
pairs with u < v, deduplicated and sorted lexicographically. The structure
vector of a graph is the flattened upper triangle of its adjacency matrix:
slot index for pair (u, v) is ``u*n - u*(u+1)//2 + (v-u-1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


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
            du, dv = np.diff(edges[:, 0]), np.diff(edges[:, 1])
            if ((du > 0) | ((du == 0) & (dv > 0))).all():
                edges = edges.copy()  # already strictly ascending
            else:
                edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
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
        # ids below 2**16 sort as uint16, which numpy's stable sort radix-sorts
        keys = src.astype(np.uint16) if self.n_nodes <= 1 << 16 else src
        indices = dst[np.argsort(keys, kind="stable")]
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


# Lines are converted in blocks of about this many characters, so that only one
# block's tokens are Python strings at a time: a whole 2,000-node feature file's
# would raise the stage's peak memory by about 2 MB.
_BLOCK_CHARS = 1 << 12


def _row_blocks(path):
    """The tokens of the file's data lines (neither blank nor a ``#`` comment),
    a non-empty block of lines at a time."""
    with open(path, "r", encoding="utf-8") as fh:
        while lines := fh.readlines(_BLOCK_CHARS):
            rows = [t for line in lines if (t := line.split()) and not t[0].startswith("#")]
            if rows:
                yield rows


def _int_table(path) -> np.ndarray | None:
    """Every data line as a row of one int64 array; None when the lines are
    ragged, a token is not an int, or there are none."""
    try:
        return np.concatenate([np.array(rows, dtype=np.int64) for rows in _row_blocks(path)])
    except (ValueError, OverflowError):
        return None


def _numbered_rows(path):
    """``(line number, tokens)`` of each data line, for the line-by-line parse."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if tokens and not tokens[0].startswith("#"):
                yield lineno, tokens


def _parse_feature_lines(path) -> tuple[list[int], list[list[float]]]:
    ids: list[int] = []
    vecs: list[list[float]] = []
    seen: set[int] = set()
    for lineno, tokens in _numbered_rows(path):
        if len(tokens) < 2:
            raise ParseError(path, lineno, "expected 'id x1 ... xf'")
        node = _parse_int(tokens[0], path, lineno, "node id")
        try:
            vec = [float(t) for t in tokens[1:]]
        except ValueError:
            raise ParseError(path, lineno, "invalid feature value") from None
        if not np.isfinite(vec).all():
            raise ParseError(path, lineno, "non-finite feature value")
        if vecs and len(vec) != len(vecs[0]):
            raise ParseError(path, lineno, f"expected {len(vecs[0])} features, got {len(vec)}")
        if node in seen:
            raise ParseError(path, lineno, f"duplicate feature row for node {node}")
        seen.add(node)
        ids.append(node)
        vecs.append(vec)
    return ids, vecs


def _parse_edge_lines(path, n_nodes: int) -> list[tuple[int, int]]:
    pairs = []
    for lineno, tokens in _numbered_rows(path):
        if len(tokens) != 2:
            raise ParseError(path, lineno, "expected 'u v'")
        u = _parse_int(tokens[0], path, lineno, "node id")
        v = _parse_int(tokens[1], path, lineno, "node id")
        if u >= n_nodes or v >= n_nodes:
            raise ValueError(
                f"{path}:{lineno}: node id {max(u, v)} out of range for {n_nodes} nodes"
            )
        pairs.append((u, v))
    return pairs


def _parse_label_lines(path, n_nodes: int) -> list[tuple[int, int]]:
    pairs = []
    seen: set[int] = set()
    for lineno, tokens in _numbered_rows(path):
        if len(tokens) != 2:
            raise ParseError(path, lineno, "expected 'id c'")
        node = _parse_int(tokens[0], path, lineno, "node id")
        cls = _parse_int(tokens[1], path, lineno, "class id")
        if cls > np.iinfo(np.int64).max:
            raise ParseError(path, lineno, f"class id {cls} does not fit in int64")
        if node >= n_nodes:
            raise ValueError(f"{path}:{lineno}: node id {node} out of range")
        if node in seen:
            raise ParseError(path, lineno, f"duplicate label row for node {node}")
        seen.add(node)
        pairs.append((node, cls))
    return pairs


def _distinct_below(ids: np.ndarray, n: int) -> bool:
    """Whether the ids are distinct and in ``[0, n)``."""
    if ids.size == 0:
        return True
    return bool(ids.min() >= 0 and ids.max() < n and np.bincount(ids, minlength=n).max() == 1)


def _load_features(path) -> np.ndarray:
    ids, values = [], []
    try:
        for rows in _row_blocks(path):
            ids.append(np.array([t[0] for t in rows], dtype=np.int64))
            values.append(np.array(rows, dtype=np.float64))
        ids, values = np.concatenate(ids), np.concatenate(values)[:, 1:]
        whole = (
            values.shape[1] > 0 and np.isfinite(values).all() and _distinct_below(ids, ids.size)
        )
    except (ValueError, OverflowError):
        whole = False
    if not whole:
        ids, values = _parse_feature_lines(path)
        if not ids:
            return np.zeros((0, 0))
        # distinct non-negative ids leave a gap below their count iff one reaches it
        if max(ids) >= len(ids):
            missing = sorted(set(range(len(ids))).difference(ids))
            raise ValueError(
                f"{path}: missing feature rows for nodes {missing[:5]}"
                + ("..." if len(missing) > 5 else "")
            )
    features = np.empty((len(ids), len(values[0])))
    features[ids] = values
    return features


def _load_edges(path, n_nodes: int) -> tuple[np.ndarray, LoadReport]:
    pairs = _int_table(path)
    if pairs is None or pairs.shape[1] != 2 or pairs.min() < 0 or pairs.max() >= n_nodes:
        pairs = np.array(_parse_edge_lines(path, n_nodes), dtype=np.int64).reshape(-1, 2)
    loops = pairs[:, 0] == pairs[:, 1]
    u, v = pairs[~loops].T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    first = np.ones(lo.size, dtype=bool)
    first[1:] = (np.diff(lo) != 0) | (np.diff(hi) != 0)
    report = LoadReport(
        n_duplicate_edges=int(lo.size - first.sum()), n_self_loops=int(loops.sum())
    )
    return np.column_stack((lo[first], hi[first])), report


def _load_labels(path, n_nodes: int) -> np.ndarray:
    pairs = _int_table(path)
    if (
        pairs is None
        or pairs.shape[1] != 2
        or pairs[:, 1].min() < 0
        or not _distinct_below(pairs[:, 0], n_nodes)
    ):
        pairs = np.array(_parse_label_lines(path, n_nodes), dtype=np.int64).reshape(-1, 2)
    labels = np.full(n_nodes, -1, dtype=np.int64)
    labels[pairs[:, 0]] = pairs[:, 1]
    unlabeled = np.nonzero(labels < 0)[0]
    if unlabeled.size:
        raise ValueError(f"{path}: nodes without labels: {unlabeled[:5]}")
    return labels


def load_graph(edge_path, feature_path, label_path=None) -> tuple[Graph, LoadReport]:
    """Load a graph from whitespace-separated text files.

    Edge file: one ``u v`` pair per line. Feature file: ``id x1 ... xf`` rows,
    one per node, constant width. Label file (optional): ``id c`` rows, one
    per node. ``#`` comment lines and blank lines are ignored.

    Returns the graph plus a report counting dropped duplicate edges and
    self-loops. Malformed lines raise :class:`ParseError` with the line
    number; out-of-range node ids raise :class:`ValueError`.

    Each file's tokens are converted by numpy, whose string parsing is
    Python's ``int`` and ``float``, a block of lines per call, and checked as
    whole arrays. Only a file that fails is parsed again line by line, to
    name its first bad line.
    """
    features = _load_features(feature_path)
    n_nodes = features.shape[0]
    edges, report = _load_edges(edge_path, n_nodes)
    labels = None if label_path is None else _load_labels(label_path, n_nodes)
    return Graph(n_nodes, edges, features, labels), report


def sbm_generate(cfg: SbmConfig) -> Graph:
    """Sample a stochastic block model graph, deterministic given cfg.seed.

    Within-block pairs are connected with p_in, across-block pairs with
    p_out. Features are the block center plus i.i.d. Gaussian noise; labels
    are block ids.

    Stream contract: the stream holds a uniform r per pair (u < v) in slot
    order (see :func:`pair_slot`), the doubles of one
    ``rng.random(n*(n-1)//2)`` call, and pair (u, v) is an edge when
    r < p_in within a block or r < p_out across blocks; then
    ``rng.standard_normal((n, f_dim))`` draws the feature noise. The
    uniforms are drawn SBM_BLOCK_PAIRS at a time, which yields the same
    doubles and leaves the stream at the same place. Since p_out <= p_in,
    only a block's slots with r < p_in are decoded into pairs, before the
    next block is drawn, so no array holds one entry per node pair.
    """
    n = cfg.blocks * cfg.nodes_per_block
    labels = np.arange(n, dtype=np.int64) // cfg.nodes_per_block
    rng = np.random.default_rng(cfg.seed)
    pairs = n * (n - 1) // 2
    parts = [np.zeros((0, 2), dtype=np.int64)]
    for lo in range(0, pairs, SBM_BLOCK_PAIRS):
        r = rng.random(min(SBM_BLOCK_PAIRS, pairs - lo))
        cand = np.flatnonzero(r < cfg.p_in)
        u, v = slot_pair(cand + lo, n)
        keep = (labels[u] == labels[v]) | (r[cand] < cfg.p_out)
        parts.append(np.column_stack([u[keep], v[keep]]))
    edges = np.concatenate(parts)
    f_dim = cfg.feature_centers.shape[1]
    noise = rng.standard_normal((n, f_dim)) * cfg.feature_noise_sd
    features = cfg.feature_centers[labels] + noise
    return Graph(n, edges, features, labels)


# The generator draws its per-pair uniforms this many at a time (1 MiB of doubles).
SBM_BLOCK_PAIRS = 1 << 17
# Consecutive positions share one scratch block of up to this many arcs' products
# (1 MiB at width 64), which bounds a product's memory; a longer position has its own.
GATHER_ARCS = 2048


class Propagation:
    """GCN propagation matrix D~^{-1/2} (A + I) D~^{-1/2}, applied as ``A @ X``.

    Row i of ``A @ X`` is summed as a CSR product sums it: 0.0, then plus
    ``a_ij * X[j]`` for each j in ascending column order, one rounding per
    multiply and one per add. The arcs are stored position-major: rows are
    ranked by falling arc count, so the rows that have a p-th arc are ranks
    0..c_p-1, and position p adds one contiguous block of c_p products.
    """

    def __init__(self, n: int, cols: np.ndarray, vals: np.ndarray, bounds: np.ndarray,
                 rank: np.ndarray):
        self.shape = (n, n)
        self._cols = cols  # arc columns, position-major
        self._vals = vals[:, None]  # arc values, in the same order
        self._rank = rank  # row i's place in each position's block
        # [lo, hi, spans]: arcs lo..hi are gathered at once, and spans holds
        # each of their positions' blocks relative to lo
        self._groups: list[list] = []
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if not self._groups or hi - self._groups[-1][0] > GATHER_ARCS:
                self._groups.append([lo, lo, []])
            group = self._groups[-1]
            group[1] = hi
            group[2].append((lo - group[0], hi - group[0]))
        self._gather_rows = max((hi - lo for lo, hi, _ in self._groups), default=0)

    def __matmul__(self, X) -> np.ndarray:
        """A @ X for X of shape (n, width)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply a {self.shape} matrix by {X.shape}")
        acc = np.zeros(X.shape)
        buf = np.empty((self._gather_rows, X.shape[1]))
        for lo, hi, spans in self._groups:
            # mode "clip" writes straight into out ("raise" buffers); the columns are in range
            prod = np.take(X, self._cols[lo:hi], axis=0, out=buf[: hi - lo], mode="clip")
            prod *= self._vals[lo:hi]
            for a, b in spans:
                acc[: b - a] += prod[a:b]
        return np.take(acc, self._rank, axis=0)


def normalized_adjacency(g: Graph) -> Propagation:
    """GCN propagation matrix D~^{-1/2} (A + I) D~^{-1/2} of g."""
    n = g.n_nodes
    dinv = 1.0 / np.sqrt(g.degrees() + 1.0)
    diag = np.arange(n, dtype=np.int64)
    # reversed edges, diagonal, edges: sorted stably by row, each row's columns ascend
    rows = np.concatenate([g.edges[:, 1], diag, g.edges[:, 0]])
    cols = np.concatenate([g.edges[:, 0], diag, g.edges[:, 1]])
    order = np.argsort(rows, kind="stable")
    rows, cols = rows[order], cols[order]
    counts = np.bincount(rows, minlength=n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(-counts, kind="stable")] = diag
    # c_p, the number of rows with a p-th arc, is n minus the rows with at most p arcs
    c = n - np.cumsum(np.bincount(counts, minlength=1))[:-1]
    bounds = np.concatenate([[0], np.cumsum(c)])
    position = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    slot = bounds[position] + rank[rows]
    packed_cols = np.empty_like(cols)
    packed_cols[slot] = cols
    vals = np.empty(rows.size)
    vals[slot] = dinv[rows] * dinv[cols]
    return Propagation(n, packed_cols, vals, bounds, rank)


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
    # the frontier is marked, not deduplicated by np.unique, which imports numpy.ma
    fresh = np.zeros_like(reached)
    for _ in range(k):
        fresh[indices[_csr_rows(indptr, frontier)]] = True
        fresh &= ~reached
        frontier = np.flatnonzero(fresh)
        if not frontier.size:
            break
        reached |= fresh
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
