"""Per-class k-nearest-neighbor graphs: searched at level 0, restricted above.

Exact search is blocked brute force under Euclidean distance with a
deterministic tie-break (lower row index wins). The approximate index is a
forest of randomized projection trees; its contract is measured recall
against the exact graph, not any particular index structure. Only the
level-0 graphs of the multilevel hierarchy are searched: a coarse graph is
the restriction of the graph below it to the coarse node subset, its lists
drawn from the fine lists and their neighbors' lists (``restrict_graph``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from mlsvm.data import Dataset

EXACT_DEFAULT_LIMIT = 20_000
_PAIR_CHUNK = 1 << 16          # co-leaf pairs gathered at once by the approximate search
_EXACT_BLOCK = 512             # query rows per distance block in the exact search
_RESTRICT_BLOCK = 512          # coarse nodes whose candidates are gathered at once
_N_TREES = 12                  # random projection trees in the approximate index
_LEAF_SIZE = 48                # most points per leaf
_SEARCH_CHECKS = 1024          # most candidates searched per point
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
    k = min(graph.k, m - 1)
    rows = graph.node_ids[picked]
    x = np.ascontiguousarray(data.features[rows])
    sq = np.einsum("ij,ij->i", x, x)
    # coarse position of each fine node; m marks one not picked and, as it
    # sorts after every real position, each dropped candidate below
    coarse = np.full(graph.n_nodes, m, dtype=np.int64)
    coarse[picked] = np.arange(m)
    nbr_ids = np.empty((m, k), dtype=np.int64)
    nbr_d2 = np.empty((m, k))
    short = []
    for start in range(0, m, _RESTRICT_BLOCK):
        me = np.arange(start, min(start + _RESTRICT_BLOCK, m))
        one = graph.neighbor_ids[picked[me]]
        two = graph.neighbor_ids[one].reshape(me.size, -1)
        cand = coarse[np.concatenate((one, two), axis=1)]
        cand[cand == me[:, None]] = m
        cand.sort(axis=1)
        cand[:, 1:][cand[:, 1:] == cand[:, :-1]] = m
        valid = cand < m
        at = np.where(valid, cand, 0)
        ab = np.matmul(x[at], x[me, :, None])[:, :, 0]   # node . candidate
        ab *= 2.0
        d2 = sq[me, None] + sq[at]
        d2 -= ab
        np.maximum(d2, 0.0, out=d2)
        d2[~valid] = np.inf
        pick = np.lexsort((cand, d2), axis=1)[:, :k]
        nbr_ids[me] = np.take_along_axis(cand, pick, 1)
        nbr_d2[me] = np.take_along_axis(d2, pick, 1)
        short.append(me[valid.sum(axis=1) < k])
    short = np.concatenate(short)
    if short.size:
        nbr_ids[short], nbr_d2[short] = _exact_knn(x, k, short)
    return _graph(rows, nbr_ids, nbr_d2)


def _graph(rows, nbr_ids, nbr_d2) -> KnnGraph:
    indptr, indices = _symmetric_closure(nbr_ids, rows.size)
    return KnnGraph(rows, nbr_ids, np.sqrt(np.maximum(nbr_d2, 0.0)),
                    nbr_ids.shape[1], indptr, indices)


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
        at = np.arange(q.size)
        # a block of every row stays a view: numpy then takes x @ x.T by
        # syrk, whose sums differ in the last bits from gemm's
        ab = (x[start:start + q.size] if every else x[q]) @ x.T
        ab *= 2.0
        d2 = np.add.outer(sq[q], sq)
        d2 -= ab
        np.maximum(d2, 0.0, out=d2)
        d2[at, q] = np.inf
        if k < n - 1:
            part = np.argpartition(d2, k, axis=1)
            cand = part[:, :k]
            # the nearest point left out ties the farthest kept one
            tied = d2[at, part[:, k]] <= np.take_along_axis(d2, cand, 1).max(axis=1)
        else:
            cand = np.broadcast_to(np.arange(n), d2.shape)
            tied = np.zeros(q.size, dtype=bool)
        order = np.lexsort((cand, np.take_along_axis(d2, cand, 1)), axis=1)[:, :k]
        ids = np.take_along_axis(cand, order, 1)
        for r in np.flatnonzero(tied):
            # widen to every tied point so that the lower index can win
            row = d2[r]
            wide = np.flatnonzero(row <= row[ids[r]].max())
            ids[r] = wide[np.lexsort((wide, row[wide]))][:k]
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
        members = np.concatenate(leaves)
        # the leaves partition the points: each point's leaf as (start, size)
        leaf_start = np.empty(n, dtype=np.int64)
        leaf_size = np.empty(n, dtype=np.int64)
        leaf_start[members] = np.repeat(np.cumsum(sizes) - sizes, sizes)
        leaf_size[members] = np.repeat(sizes, sizes)
        trees.append((members, leaf_start, leaf_size))
    sq = np.einsum("ij,ij->i", x, x)
    nbr_ids = np.empty((n, k), dtype=np.int64)
    nbr_d2 = np.empty((n, k))
    step = max(1, _PAIR_CHUNK // max(1, k, _N_TREES * _LEAF_SIZE))
    for a in range(0, n, step):
        b = min(a + step, n)
        cand, group = _leaf_candidates(trees, a, b, n, _SEARCH_CHECKS)
        ptr = [0] + np.cumsum(group).tolist()
        d2 = np.empty(cand.size)
        for r in range(b - a):
            d2[ptr[r]:ptr[r + 1]] = _dist2(x, sq, cand[ptr[r]:ptr[r + 1]], a + r)
        nbr_ids[a:b], nbr_d2[a:b] = _k_smallest(cand, d2, group, k, n)
        for i in a + np.flatnonzero(group < k):
            # too few co-leafed points: search all of them
            cand_i = np.delete(np.arange(n), i)
            d2_i = _dist2(x, sq, cand_i, i)
            pick = d2_i.argsort(kind="stable")[:k]
            nbr_ids[i], nbr_d2[i] = cand_i[pick], d2_i[pick]
    for _ in range(_REFINE_ITERS):
        if not _refine_neighbors(x, sq, nbr_ids, nbr_d2):
            break
    return nbr_ids, nbr_d2


def _dist2(x, sq, cand, i):
    """Squared distances from point i to the candidate rows, in their order."""
    # take() gathers the same rows as x[cand], with less call overhead
    d2 = sq[cand] + sq[i] - 2.0 * (x.take(cand, axis=0) @ x[i])
    np.maximum(d2, 0.0, out=d2)
    return d2


def _leaf_candidates(trees, a: int, b: int, n: int, checks: int):
    """Search candidates of points a..b-1, flat and grouped by point.

    A point's candidates are the points sharing a leaf with it in any tree,
    in index order; past ``checks`` of them, the ``checks`` most often
    co-leafed (ties to the lower index) in that order.
    """
    pts = np.arange(a, b, dtype=np.int64)
    keys = []
    for members, leaf_start, leaf_size in trees:
        sz = leaf_size[pts]
        offset = np.arange(sz.sum()) - np.repeat(np.cumsum(sz) - sz, sz)
        src = np.repeat(pts, sz)
        keys.append(src * n + members[np.repeat(leaf_start[pts], sz) + offset])
    keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    src, cand = keys // n, keys % n
    keep = src != cand
    src, cand, counts = src[keep], cand[keep], counts[keep]
    group = np.bincount(src - a, minlength=b - a)
    if (group > checks).any():
        # frequently co-leafed points are the most promising candidates
        rank_key = np.where(group[src - a] > checks, -counts, 0)
        order = np.lexsort((cand, rank_key, src))
        first = np.repeat(np.cumsum(group) - group, group)
        cand = cand[order[np.arange(cand.size) - first < checks]]
        group = np.minimum(group, checks)
    return cand, group


def _k_smallest(cand, d2, group, k: int, n: int):
    """Per group of candidates, the k of least (d2, id).

    Groups become the rows of a matrix; a group shorter than the widest is
    padded with (d2 NaN, id n), which sorts after every real candidate.
    """
    width = max(k, int(group.max()))
    first = np.repeat(np.cumsum(group) - group, group)
    row = np.repeat(np.arange(group.size), group)
    col = np.arange(cand.size) - first
    ids = np.full((group.size, width), n, dtype=np.int64)
    dist = np.full((group.size, width), np.nan)
    ids[row, col] = cand
    dist[row, col] = d2
    pick = np.lexsort((ids, dist), axis=1)[:, :k]
    return np.take_along_axis(ids, pick, 1), np.take_along_axis(dist, pick, 1)


def _refine_neighbors(x, sq, nbr_ids, nbr_d2) -> bool:
    """One pass of neighbor-of-neighbor (and reverse-neighbor) improvement.

    Points are visited in order and see the lists already improved in this
    pass; the reverse lists are those at the start of the pass.
    """
    n, k = nbr_ids.shape
    order = np.argsort(nbr_ids.ravel(), kind="stable")
    rev_src = np.repeat(np.arange(n), k)[order]
    rev_dst = nbr_ids.ravel()[order]
    bounds = np.searchsorted(rev_dst, np.arange(n + 1)).tolist()
    changed = False
    for i in range(n):
        nbrs = nbr_ids[i]
        cand = np.concatenate((nbrs, nbr_ids.take(nbrs, axis=0).ravel(),
                               rev_src[bounds[i]:bounds[i + 1]]))
        cand.sort()
        keep = cand != i
        keep[1:] &= cand[1:] != cand[:-1]
        cand = cand[keep]
        d2 = _dist2(x, sq, cand, i)
        # cand ascends, so a stable sort on d2 breaks ties to the lower id
        pick = d2.argsort(kind="stable")[:k]
        new_ids = cand[pick]
        if new_ids.tobytes() != nbrs.tobytes():
            changed = True
            nbr_ids[i] = new_ids
            nbr_d2[i] = d2[pick]
    return changed


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
