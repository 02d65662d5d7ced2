"""Per-class k-nearest-neighbor graphs: searched at level 0, restricted above.

Exact search is blocked brute force under Euclidean distance with a
deterministic tie-break (lower row index wins). The approximate index is a
forest of randomized projection trees; its contract is measured recall
against the exact graph, not any particular index structure. Only the
level-0 graphs of the multilevel hierarchy are searched: a coarse graph is
the restriction of the graph below it to the coarse node subset, its lists
drawn from the fine lists and their neighbors' lists (``restrict_graph``).

Every list is chosen by one step, ``_nearest_among``: given candidates per
row, keep the k least by (d2, id), and search a row with fewer than k
exactly. The restriction, the approximate search's co-leafed candidates and
each of its refinement passes (a row's list, its neighbors' lists and the
rows listing it, in the manner of NN-descent) are its candidate sets.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from mlsvm.data import Dataset

EXACT_DEFAULT_LIMIT = 20_000
_PAIR_CHUNK = 1 << 16          # row-candidate pairs scored at once
_EXACT_BLOCK = 512             # query rows per distance block in the exact search
_N_TREES = 12                  # random projection trees in the approximate index
_LEAF_SIZE = 48                # most points per leaf
_REFINE_ITERS = 3              # neighbor-of-neighbor improvement passes


@dataclass(frozen=True)
class KnnConfig:
    k: int = 10
    mode: str = "auto"          # exact | approximate | auto (exact below limit)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.mode not in ("auto", "exact", "approximate"):
            raise ValueError("unknown mode %r" % self.mode)


@dataclass
class KnnGraph:
    """Directed k-NN lists plus their symmetric closure.

    node_ids map local node positions (0..n-1) to dataset row indices.
    neighbor_ids/neighbor_dists are (n, k) in nondecreasing distance order.
    und_indptr/und_indices form a CSR adjacency of the undirected edge set.
    """

    node_ids: np.ndarray
    neighbor_ids: np.ndarray
    neighbor_dists: np.ndarray
    k: int
    und_indptr: np.ndarray
    und_indices: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.node_ids.shape[0]

    def positions_of(self, row_ids) -> np.ndarray:
        """Local node positions of the given dataset rows."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        order = np.argsort(self.node_ids, kind="stable")
        sorted_ids = self.node_ids[order]
        pos = np.searchsorted(sorted_ids, row_ids)
        if (pos >= sorted_ids.size).any() or (sorted_ids[np.minimum(pos, sorted_ids.size - 1)] != row_ids).any():
            raise ValueError("some rows are not nodes of this graph")
        return order[pos]

    def undirected_neighbors(self, pos: int) -> np.ndarray:
        return self.und_indices[self.und_indptr[pos]:self.und_indptr[pos + 1]]


def build_knn_graph(data: Dataset, rows, config: KnnConfig | None = None,
                    seed: int = 0) -> KnnGraph:
    """Build a k-NN graph over the given rows (one class partition).

    Rows must be fully observed. k is clamped to n-1 with a warning when the
    partition is too small.
    """
    config = config or KnnConfig()
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("rows must be nonempty")
    if data.missing[rows].any():
        raise ValueError("rows contain missing cells; impute before building graphs")
    x = np.ascontiguousarray(data.features[rows])
    n = x.shape[0]
    k = config.k
    if k >= n:
        warnings.warn("k=%d >= %d points; clamping to %d" % (k, n, n - 1))
        k = n - 1
    if k == 0:
        nbr_ids, nbr_d2 = np.zeros((n, 0), dtype=np.int64), np.zeros((n, 0))
    else:
        mode = config.mode
        if mode == "auto":
            mode = "exact" if n <= EXACT_DEFAULT_LIMIT else "approximate"
        if mode == "exact":
            nbr_ids, nbr_d2 = _exact_knn(x, k)
        else:
            nbr_ids, nbr_d2 = _approx_knn(x, k, seed)
    return _graph(rows, nbr_ids, nbr_d2)


def restrict_graph(data: Dataset, graph: KnnGraph, picked) -> KnnGraph:
    """The k-NN graph of a node subset, drawn from the graph's own lists.

    picked holds m sorted local positions of graph; node i of the result is
    picked[i]. Each picked node's candidates are its directed neighbors and
    theirs (k + k^2 nodes), of which it keeps the picked ones other than
    itself, each once, and of those its min(k, m-1) nearest by recomputed
    squared distance, ties to the lower position. A node left with fewer
    candidates than that is searched exactly over the picked rows.
    """
    picked = np.asarray(picked, dtype=np.int64)
    m = picked.size
    rows = graph.node_ids[picked]
    # coarse position of each fine node; m marks one not picked
    coarse = np.full(graph.n_nodes, m, dtype=np.int64)
    coarse[picked] = np.arange(m)

    def candidates(me):
        one = graph.neighbor_ids[picked[me]]
        two = graph.neighbor_ids[one].reshape(me.size, -1)
        return coarse[np.concatenate((one, two), axis=1)]

    x = np.ascontiguousarray(data.features[rows])
    return _graph(rows, *_nearest_among(x, min(graph.k, m - 1), candidates,
                                        graph.k * (graph.k + 1)))


def _graph(rows, nbr_ids, nbr_d2) -> KnnGraph:
    indptr, indices = _symmetric_closure(nbr_ids, rows.size)
    return KnnGraph(rows, nbr_ids, np.sqrt(np.maximum(nbr_d2, 0.0)),
                    nbr_ids.shape[1], indptr, indices)


def _k_least(d2: np.ndarray, k: int) -> np.ndarray:
    """The columns of each row's k least values, ties to the lower column."""
    rows, width = d2.shape
    if k < width:
        part = np.argpartition(d2, k, axis=1)
        cols = part[:, :k]
        # the least value left out ties the greatest kept one
        tied = (d2[np.arange(rows), part[:, k]]
                <= np.take_along_axis(d2, cols, 1).max(axis=1, initial=-np.inf))
    else:
        cols = np.broadcast_to(np.arange(width), d2.shape)
        tied = np.zeros(rows, dtype=bool)
    order = np.lexsort((cols, np.take_along_axis(d2, cols, 1)), axis=1)[:, :k]
    ids = np.take_along_axis(cols, order, 1)
    for r in np.flatnonzero(tied):
        # widen to every tied column so that the lower one can win
        row = d2[r]
        wide = np.flatnonzero(row <= row[ids[r]].max())
        ids[r] = wide[np.lexsort((wide, row[wide]))][:k]
    return ids


def _nearest_among(x: np.ndarray, k: int, candidates, width: int):
    """Each row's k nearest candidates, in (d2, id) order.

    candidates(me) gives, for a block of row positions me, a matrix of at
    most width row positions per row, padded with n = len(x); the row itself
    and repeats are dropped. A row left with fewer than k candidates is
    searched exactly over every row.
    """
    n = x.shape[0]
    sq = np.einsum("ij,ij->i", x, x)
    nbr_ids = np.empty((n, k), dtype=np.int64)
    nbr_d2 = np.empty((n, k))
    short = []
    step = max(1, _PAIR_CHUNK // max(1, width))
    for start in range(0, n, step):
        me = np.arange(start, min(start + step, n))
        cand = candidates(me)
        # n sorts after every real position, so it also pads each dropped one
        cand[cand == me[:, None]] = n
        cand.sort(axis=1)
        cand[:, 1:][cand[:, 1:] == cand[:, :-1]] = n
        valid = cand < n
        at = np.where(valid, cand, 0)
        ab = np.matmul(x[at], x[me, :, None])[:, :, 0]   # row . candidate
        ab *= 2.0
        d2 = sq[me, None] + sq[at]
        d2 -= ab
        np.maximum(d2, 0.0, out=d2)
        d2[~valid] = np.inf
        pick = _k_least(d2, k)
        nbr_ids[me] = np.take_along_axis(cand, pick, 1)
        nbr_d2[me] = np.take_along_axis(d2, pick, 1)
        short.append(me[valid.sum(axis=1) < k])
    short = np.concatenate(short)
    if short.size:
        nbr_ids[short], nbr_d2[short] = _exact_knn(x, k, short)
    return nbr_ids, nbr_d2


def _exact_knn(x: np.ndarray, k: int, queries=None):
    """The k nearest other rows of x to each query row, in (d2, id) order.

    Queries default to every row, taken _EXACT_BLOCK at a time.
    """
    n = x.shape[0]
    every = queries is None
    queries = np.arange(n) if every else np.asarray(queries, dtype=np.int64)
    sq = np.einsum("ij,ij->i", x, x)
    nbr_ids = np.empty((queries.size, k), dtype=np.int64)
    nbr_d2 = np.empty((queries.size, k))
    for start in range(0, queries.size, _EXACT_BLOCK):
        q = queries[start:start + _EXACT_BLOCK]
        # a block of every row stays a view: numpy then takes x @ x.T by
        # syrk, whose sums differ in the last bits from gemm's
        ab = (x[start:start + q.size] if every else x[q]) @ x.T
        ab *= 2.0
        d2 = np.add.outer(sq[q], sq)
        d2 -= ab
        np.maximum(d2, 0.0, out=d2)
        d2[np.arange(q.size), q] = np.inf
        ids = _k_least(d2, k)
        nbr_ids[start:start + q.size] = ids
        nbr_d2[start:start + q.size] = np.take_along_axis(d2, ids, 1)
    return nbr_ids, nbr_d2


def _rp_tree_leaves(x, idx, leaf_size, rng, out):
    if idx.size <= leaf_size:
        out.append(idx)
        return
    direction = rng.standard_normal(x.shape[1])
    proj = x[idx] @ direction
    med = _median(proj)
    left = proj < med
    # degenerate split (duplicate points): halve by index order to terminate
    if not left.any() or left.all():
        half = idx.size // 2
        _rp_tree_leaves(x, idx[:half], leaf_size, rng, out)
        _rp_tree_leaves(x, idx[half:], leaf_size, rng, out)
        return
    _rp_tree_leaves(x, idx[left], leaf_size, rng, out)
    _rp_tree_leaves(x, idx[~left], leaf_size, rng, out)


def _median(v: np.ndarray) -> float:
    """np.median of a 1-d float array, without its per-call overhead."""
    half = v.size // 2
    odd = v.size % 2
    part = np.partition(v, (half, -1) if odd else (half - 1, half, -1))
    if np.isnan(part[-1]):
        return np.nan
    return part[half] if odd else (part[half - 1] + part[half]) / 2


def _approx_knn(x: np.ndarray, k: int, seed: int):
    n = x.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6B6E6E]))
    trees = []
    for _ in range(_N_TREES):
        leaves: list[np.ndarray] = []
        _rp_tree_leaves(x, np.arange(n), _LEAF_SIZE, rng, leaves)
        sizes = np.array([leaf.size for leaf in leaves], dtype=np.int64)
        leaf = np.repeat(np.arange(sizes.size), sizes)
        members = np.concatenate(leaves)
        # one row per leaf listing its points, padded with n; each point's leaf
        table = np.full((sizes.size, _LEAF_SIZE), n, dtype=np.int64)
        table[leaf, np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)] = members
        leaf_of = np.empty(n, dtype=np.int64)
        leaf_of[members] = leaf
        trees.append((table, leaf_of))
    # a row needs k columns, even when it has fewer co-leafed points
    pad = max(0, k - _N_TREES * _LEAF_SIZE)

    def co_leafed(me):
        return np.concatenate([table[leaf_of[me]] for table, leaf_of in trees]
                              + [np.full((me.size, pad), n)], axis=1)

    nbr_ids, nbr_d2 = _nearest_among(x, k, co_leafed, _N_TREES * _LEAF_SIZE + pad)
    for _ in range(_REFINE_ITERS):
        before = nbr_ids
        nbr_ids, nbr_d2 = _refine_pass(x, nbr_ids)
        if np.array_equal(nbr_ids, before):
            break
    return nbr_ids, nbr_d2


def _refine_pass(x: np.ndarray, nbr_ids: np.ndarray):
    """One pass of neighbor-of-neighbor and reverse-neighbor improvement.

    Each row's candidates are its list, its neighbors' lists and every row
    that lists it, all as they stand at the start of the pass.
    """
    n, k = nbr_ids.shape
    # row i of reverse lists the rows whose lists hold i, padded with n
    order = np.argsort(nbr_ids.ravel(), kind="stable")
    counts = np.bincount(nbr_ids.ravel(), minlength=n)
    reverse = np.full((n, counts.max()), n, dtype=np.int64)
    reverse[nbr_ids.ravel()[order],
            np.arange(n * k) - np.repeat(np.cumsum(counts) - counts, counts)] = order // k

    def candidates(me):
        one = nbr_ids[me]
        return np.concatenate((one, nbr_ids[one].reshape(me.size, -1), reverse[me]), axis=1)

    return _nearest_among(x, k, candidates, k * (k + 1) + reverse.shape[1])


def _symmetric_closure(nbr_ids: np.ndarray, n: int):
    k = nbr_ids.shape[1]
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = nbr_ids.ravel()
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # every edge both ways, keyed so that sorting orders by (node, neighbor)
    keys = np.unique(np.concatenate([src * n + dst, dst * n + src]))
    counts = np.bincount(keys // n, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, keys % n
