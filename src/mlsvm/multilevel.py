"""Multilevel (weighted) SVM: coarsen, solve at the coarsest level, refine.

Each class's k-NN graph is coarsened by iterated greedy independent-set
rounds until the selection covers the required fraction of vertices; the
first round is a maximal independent set, which makes every selection a
dominating set of its level. A class that is already small is replicated
unchanged across coarser levels, which evens out the class balance at the
coarsest level. Training happens once at the coarsest level (with full model
selection) and is then refined level by level: the coarse support vectors
plus a few of their fine-level neighbors form the next training set, either
retrained directly (small enough) or split into paired opposite-class
clusters trained independently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from mlsvm.clustering import kmeans
from mlsvm.data import BinaryView, Dataset
from mlsvm.knn import KnnConfig, KnnGraph, build_knn_graph
from mlsvm.rng import child_rng
from mlsvm.svm import KernelParams, SolverConfig, SvmModel, class_weights, train_svm
from mlsvm.ud import UdConfig, ud_search

_STALL_SHRINK = 0.05     # stop coarsening when a level shrinks less than this


@dataclass(frozen=True)
class FrameworkConfig:
    q: float = 0.5                 # per-class lower bound on coarse size ratio
    coarsest_max: int = 500        # combined-size stop for the hierarchy
    q_dt: int = 5000               # direct-retrain threshold in refinement
    neighbor_expansion: int = 5    # fine neighbors added per support vector
    p_fraction: float = 0.10       # fraction of opposite clusters paired
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise ValueError("q must be in (0, 1)")
        if self.coarsest_max < 2:
            raise ValueError("coarsest_max must be >= 2")
        if self.q_dt < self.coarsest_max:
            raise ValueError("q_dt must be >= coarsest_max")
        if not 0 < self.p_fraction <= 1:
            raise ValueError("p_fraction must be in (0, 1]")


@dataclass
class CoarsenResult:
    selected: np.ndarray        # local node positions, sorted
    rounds: list                # positions added by each greedy round


@dataclass
class HierarchyLevel:
    pos_rows: np.ndarray
    neg_rows: np.ndarray
    pos_graph: KnnGraph
    neg_graph: KnnGraph

    @property
    def size(self) -> int:
        return self.pos_rows.size + self.neg_rows.size


@dataclass
class Hierarchy:
    """Level 0 is the full training set; selection makes coarse sets subsets
    of finer ones (the fine-to-coarse map is the identity on kept rows)."""

    levels: list
    stalled: bool = False

    @property
    def n_levels(self) -> int:
        return len(self.levels)


@dataclass
class LevelSolution:
    support_rows: np.ndarray
    c: float
    gamma: float
    model: SvmModel | None = None   # None at cluster-mode levels above 0
    n_clusters: tuple | None = None      # (positive, negative) in cluster mode
    n_pairs: int | None = None


@dataclass
class LevelStats:
    level: int
    n_pos: int
    n_neg: int
    n_sv: int
    c: float
    gamma: float
    seconds: float


@dataclass
class MultilevelReport:
    levels: list = field(default_factory=list)     # processing order
    stalled: bool = False
    hierarchy_seconds: float = 0.0

    def format_table(self) -> str:
        lines = ["level\tn_pos\tn_neg\tn_sv\tC\tgamma\tseconds"]
        for row in self.levels:
            lines.append("%d\t%d\t%d\t%d\t%.6g\t%.6g\t%.3f"
                         % (row.level, row.n_pos, row.n_neg, row.n_sv,
                            row.c, row.gamma, row.seconds))
        if self.stalled:
            lines.append("# coarsening stalled before reaching the size bound")
        return "\n".join(lines) + "\n"


def pair_clusters(dist: np.ndarray, p_fraction: float) -> list:
    """Pair every cluster with its nearest opposite-class clusters.

    Each side pairs with max(1, round(p_fraction * opposite count)) nearest
    opposite clusters by centroid distance; the union is deduplicated.
    """
    k_pos, k_neg = dist.shape
    p_for_pos = max(1, round(p_fraction * k_neg))
    p_for_neg = max(1, round(p_fraction * k_pos))
    pairs = set()
    for ci in range(k_pos):
        for cj in np.argsort(dist[ci], kind="stable")[:p_for_pos]:
            pairs.add((ci, int(cj)))
    for cj in range(k_neg):
        for ci in np.argsort(dist[:, cj], kind="stable")[:p_for_neg]:
            pairs.add((int(ci), cj))
    return sorted(pairs)


def coarsen_class(graph: KnnGraph, q: float, rng: np.random.Generator) -> CoarsenResult:
    """Select a representative vertex subset by iterated greedy rounds.

    Each round scans the not-yet-selected vertices in random order, keeping a
    vertex and blocking its unselected neighbors, so the round's additions
    are independent in the residual graph. Rounds repeat until the selection
    reaches q * n vertices; the first round alone dominates the graph.
    """
    n = graph.n_nodes
    if n == 0:
        raise ValueError("graph is empty")
    selected = np.zeros(n, dtype=bool)
    rounds = []
    target = q * n
    while selected.sum() < target and not selected.all():
        pool = np.flatnonzero(~selected)
        order = pool[rng.permutation(pool.size)]
        blocked = selected.copy()
        added = []
        for v in order:
            if blocked[v]:
                continue
            blocked[v] = True
            added.append(v)
            nbrs = graph.undirected_neighbors(int(v))
            blocked[nbrs] = True
        added = np.asarray(added, dtype=np.int64)
        selected[added] = True
        rounds.append(added)
    return CoarsenResult(selected=np.flatnonzero(selected), rounds=rounds)


def build_hierarchy(data: Dataset, view: BinaryView,
                    knn_config: KnnConfig | None = None,
                    config: FrameworkConfig | None = None) -> Hierarchy:
    """Coarsen both classes level by level until the combined size fits.

    A class at or below half the coarsest bound is replicated unchanged while
    the other still shrinks; recursion also stops if a level shrinks by less
    than the stall threshold.
    """
    knn_config = knn_config or KnnConfig()
    config = config or FrameworkConfig()
    if data.has_missing():
        raise ValueError("hierarchy requires fully observed data (impute first)")
    pos = np.sort(view.rows_positive)
    neg = np.sort(view.rows_negative)
    if pos.size < 2 or neg.size < 2:
        raise ValueError("each class needs at least 2 points")

    def graph_for(rows, level, cls):
        return build_knn_graph(data, rows, knn_config,
                               seed=_tag_seed(config.seed, "aknn", level, cls))

    levels = [HierarchyLevel(pos, neg, graph_for(pos, 0, 0), graph_for(neg, 0, 1))]
    floor = max(1, config.coarsest_max // 2)
    stalled = False
    while levels[-1].size > config.coarsest_max:
        cur = levels[-1]
        level_no = len(levels)
        new_sets = []
        new_graphs = []
        for cls, (rows, graph) in enumerate(((cur.pos_rows, cur.pos_graph),
                                             (cur.neg_rows, cur.neg_graph))):
            if rows.size <= floor:
                new_sets.append(rows)          # replicate the small class
                new_graphs.append(graph)
                continue
            rng = child_rng(config.seed, "coarsen", level_no, cls)
            picked = coarsen_class(graph, config.q, rng)
            new_sets.append(rows[picked.selected])
            new_graphs.append(None)
        new_total = new_sets[0].size + new_sets[1].size
        if new_total > cur.size * (1.0 - _STALL_SHRINK):
            stalled = True
            break
        for cls in (0, 1):
            if new_graphs[cls] is None:
                new_graphs[cls] = graph_for(new_sets[cls], level_no, cls)
        levels.append(HierarchyLevel(new_sets[0], new_sets[1],
                                     new_graphs[0], new_graphs[1]))
    return Hierarchy(levels=levels, stalled=stalled)


def _tag_seed(seed, *tags) -> int:
    return int(child_rng(seed, *tags).integers(0, 2**31 - 1))


def train_coarsest(data: Dataset, view: BinaryView, hierarchy: Hierarchy,
                   weighted: bool, ud_config: UdConfig | None = None,
                   solver_config: SolverConfig | None = None,
                   config: FrameworkConfig | None = None) -> LevelSolution:
    """Full model selection plus training at the coarsest level."""
    config = config or FrameworkConfig()
    solver_config = solver_config or SolverConfig()
    coarsest = hierarchy.levels[-1]
    rows = np.sort(np.concatenate([coarsest.pos_rows, coarsest.neg_rows]))
    outcome = ud_search(view, rows, weighted, ud_config, solver_config,
                        center=None, seed=_tag_seed(config.seed, "ud", hierarchy.n_levels - 1))
    model = train_svm(view, outcome.weights, KernelParams(outcome.gamma),
                      solver_config, rows)
    return LevelSolution(support_rows=np.sort(model.sv_rows),
                         c=outcome.c, gamma=outcome.gamma, model=model)


def refine_level(data: Dataset, view: BinaryView, hierarchy: Hierarchy, level: int,
                 coarse: LevelSolution, weighted: bool,
                 ud_config: UdConfig | None = None,
                 solver_config: SolverConfig | None = None,
                 config: FrameworkConfig | None = None) -> LevelSolution:
    """Update the coarse solution at one finer level.

    The training set is the coarse support vectors plus up to
    neighbor_expansion of each one's nearest neighbors at this level. Small
    sets re-run model selection around the inherited (C, gamma) and retrain
    directly; large sets inherit (C, gamma) unchanged and train paired
    opposite-class clusters whose support vectors are merged. At level 0 the
    merged support vectors are retrained as one model.
    """
    config = config or FrameworkConfig()
    solver_config = solver_config or SolverConfig()
    if coarse.support_rows.size == 0:
        raise ValueError("coarse solution has no support vectors")
    lvl = hierarchy.levels[level]
    y_all = view.y()

    expanded = [coarse.support_rows]
    for rows, graph in ((lvl.pos_rows, lvl.pos_graph), (lvl.neg_rows, lvl.neg_graph)):
        sv_here = coarse.support_rows[np.isin(coarse.support_rows, rows)]
        if sv_here.size == 0 or graph.k == 0:
            continue
        pos_idx = graph.positions_of(sv_here)
        take = min(config.neighbor_expansion, graph.k)
        nbr_local = graph.neighbor_ids[pos_idx, :take].ravel()
        expanded.append(graph.node_ids[nbr_local])
    data_train = np.unique(np.concatenate(expanded))

    if data_train.size < config.q_dt:
        outcome = ud_search(view, data_train, weighted, ud_config, solver_config,
                            center=(coarse.c, coarse.gamma),
                            seed=_tag_seed(config.seed, "ud", level))
        model = train_svm(view, outcome.weights, KernelParams(outcome.gamma),
                          solver_config, data_train)
        return LevelSolution(support_rows=np.sort(model.sv_rows),
                             c=outcome.c, gamma=outcome.gamma, model=model)

    # cluster mode: inherit hyperparameters, train paired opposite clusters
    c, gamma = coarse.c, coarse.gamma
    pos_dt = data_train[y_all[data_train] > 0]
    neg_dt = data_train[y_all[data_train] < 0]
    if pos_dt.size == 0 or neg_dt.size == 0:
        raise ValueError("refinement training set lost a class")
    k_total = int(np.ceil(data_train.size / config.q_dt))
    k_pos = max(1, round(k_total * pos_dt.size / data_train.size))
    k_neg = max(1, k_total - k_pos)
    k_pos = min(k_pos, pos_dt.size)
    k_neg = min(k_neg, neg_dt.size)
    cen_pos, asg_pos = kmeans(data.features[pos_dt], k_pos,
                              child_rng(config.seed, "kmeans", level, 0))
    cen_neg, asg_neg = kmeans(data.features[neg_dt], k_neg,
                              child_rng(config.seed, "kmeans", level, 1))
    k_pos, k_neg = cen_pos.shape[0], cen_neg.shape[0]
    dist = ((cen_pos[:, None, :] - cen_neg[None, :, :]) ** 2).sum(axis=2)
    pairs = pair_clusters(dist, config.p_fraction)

    models = []
    for ci, cj in pairs:
        rows = np.sort(np.concatenate([pos_dt[asg_pos == ci], neg_dt[asg_neg == cj]]))
        models.append(train_svm(view, class_weights(c, weighted, y_all[rows]),
                                KernelParams(gamma), solver_config, rows))
    support = np.unique(np.concatenate([m.sv_rows for m in models]))

    final_model = None
    if level == 0:
        final_model = train_svm(view, class_weights(c, weighted, y_all[support]),
                                KernelParams(gamma), solver_config, support)
        support = np.sort(final_model.sv_rows)
    return LevelSolution(support_rows=support, c=c, gamma=gamma,
                         model=final_model, n_clusters=(k_pos, k_neg),
                         n_pairs=len(pairs))


def train_multilevel(data: Dataset, view: BinaryView, weighted: bool = False,
                     knn_config: KnnConfig | None = None,
                     ud_config: UdConfig | None = None,
                     solver_config: SolverConfig | None = None,
                     config: FrameworkConfig | None = None):
    """Full V-cycle: hierarchy, coarsest solve, refinement back to level 0.

    Returns the level-0 SVM model and a report of per-level sizes,
    hyperparameters, and times.
    """
    config = config or FrameworkConfig()
    report = MultilevelReport()
    t_start = time.perf_counter()
    hierarchy = build_hierarchy(data, view, knn_config, config)
    report.hierarchy_seconds = time.perf_counter() - t_start
    report.stalled = hierarchy.stalled

    t0 = time.perf_counter()
    solution = train_coarsest(data, view, hierarchy, weighted, ud_config,
                              solver_config, config)
    coarsest = hierarchy.levels[-1]
    report.levels.append(LevelStats(
        level=hierarchy.n_levels - 1,
        n_pos=coarsest.pos_rows.size, n_neg=coarsest.neg_rows.size,
        n_sv=solution.support_rows.size, c=solution.c, gamma=solution.gamma,
        seconds=time.perf_counter() - t0))

    for level in range(hierarchy.n_levels - 2, -1, -1):
        t0 = time.perf_counter()
        solution = refine_level(data, view, hierarchy, level, solution, weighted,
                                ud_config, solver_config, config)
        lvl = hierarchy.levels[level]
        report.levels.append(LevelStats(
            level=level, n_pos=lvl.pos_rows.size, n_neg=lvl.neg_rows.size,
            n_sv=solution.support_rows.size, c=solution.c, gamma=solution.gamma,
            seconds=time.perf_counter() - t0))
    return solution.model, report
