"""Beam selection for the three scenarios.

Scenario 1 (coupled with location): the BS picks the top-N_B predicted
beam pairs and tells the UE which combiners to sweep.
Scenario 2 (decoupled with location): BS and UE pick their own beams by
predicted per-beam ATR.
Scenario 3 (decoupled without location): the UE picks by predicted ATR; the
BS serves a precomputed cluster-coverage beam list, independent of the UE.

Every top-k here ranks as a stable descending sort does (`top_k_stable`),
so ties resolve to the lowest beam index and the selected sets are nested
as budgets grow.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .fileio import save_npz, write_csv

log = logging.getLogger(__name__)

PLAN_FORMAT_VERSION = 1
# a plan file's keys (`fileio.load_npz`): C clusters of N rows; S of B beams
PLAN_SCHEMA = {"centroids": "f C 2", "assignments": "i N", "significances": "f C",
               "prob_tables": "f C B B", "selected_beams": "i S"}
# `select_bs_coverage` ranks the rows in blocks of about this many scores,
# so that it holds the negated scores and the ranking of one block at a time
_RANK_CELLS = 1 << 16


@dataclass(frozen=True)
class BeamPairSet:
    """Ordered selection of flattened pair indices n = i*|F| + j."""
    flat_indices: np.ndarray
    num_beamformers: int


@dataclass(frozen=True)
class DecoupledSets:
    s_w: np.ndarray   # combiner indices, selection order
    s_f: np.ndarray   # beamformer indices, selection order


def _check_size(name, size):
    """A set size is at least 0: a negative one would cut a ranking from
    its end."""
    if size < 0:
        raise ValueError(f"{name} must be at least 0, got {size}")


def top_k_stable(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores along the last axis, best first.

    Tie rule (frozen): equal scores rank the lower index first, -0.0 and
    0.0 being equal, and NaN ranks last. The result is that of a stable
    descending sort, `np.argsort(-scores, axis=-1, kind="stable")[..., :k]`,
    so selections are nested as k grows.

    A row, or a batch of rows, of at least 256 scores, k at most half of
    them, is not sorted whole; on theta1's 1024-wide rows this is faster
    (one row: about twice, a batch: several times), and on the 16- and
    64-wide rows slower, than the full sort. Each row's k-th value comes
    from a partition. One row keeps every value above it and its
    lowest-index ties at it, k values, whose columns are in index order, so
    a stable sort of them by value keeps the tie rule; a NaN k-th value
    sorts the row whole. A batch takes, in one pass, the rows that hold
    exactly k values at or above their k-th value; every other row (ties
    across its k-th value, or a NaN k-th value) takes the one-row route.
    A single row takes that route too, as the batch's bookkeeping costs
    one row more than the full sort. k = 0 gives no columns, as the full
    sort's prefix does, and a negative k raises a ValueError."""
    _check_size("k", k)
    scores = np.asarray(scores, dtype=float)
    neg = -scores
    if neg.ndim not in (1, 2) or neg.shape[-1] < 256 or not 0 < k <= neg.shape[-1] // 2:
        return np.argsort(neg, axis=-1, kind="stable")[..., :k]
    if neg.ndim == 1:
        kth = np.partition(neg, k - 1)[k - 1]
        if np.isnan(kth):                              # NaN never passes `<=`
            return np.argsort(neg, kind="stable")[:k]
        columns = np.flatnonzero(neg <= kth)
        if len(columns) > k:                           # more ties than places
            ties = neg[columns] == kth
            columns = columns[~ties | (np.cumsum(ties) <= k - np.count_nonzero(~ties))]
        return columns[np.argsort(neg[columns], kind="stable")]
    keep = neg <= np.partition(neg, k - 1, axis=1)[:, k - 1:k]
    exact = np.count_nonzero(keep, axis=1) == k
    keep[~exact] = False
    rows = np.flatnonzero(exact)[:, None]
    columns = np.flatnonzero(keep).reshape(len(rows), k) % neg.shape[1]
    top = np.empty((len(neg), k), dtype=columns.dtype)
    top[exact] = np.take_along_axis(
        columns, np.argsort(neg[rows, columns], axis=1, kind="stable"), axis=1)
    for i in np.flatnonzero(~exact):
        top[i] = top_k_stable(scores[i], k)
    return top


def select_coupled(model, location, n_pairs: int, num_beamformers: int) -> BeamPairSet:
    _check_size("n_pairs", n_pairs)
    scores = np.asarray(model.predict(location))
    if n_pairs > scores.shape[0]:
        raise ValueError("n_pairs exceeds the number of beam pairs")
    return BeamPairSet(flat_indices=top_k_stable(scores, n_pairs),
                       num_beamformers=num_beamformers)


def overhead_bits(scenario: int, num_selected: int, num_combiners: int) -> float:
    """Scenario-1 BS->UE signaling cost; decoupled scenarios need none."""
    if num_combiners & (num_combiners - 1):
        raise ValueError("combiner codebook size must be a power of two")
    if scenario == 1:
        return num_selected * float(np.log2(num_combiners))
    if scenario in (2, 3):
        return 0.0
    raise ValueError(f"unknown scenario {scenario}")


def select_decoupled_with_location(model_f, model_w, location,
                                   num_w: int, num_f: int) -> DecoupledSets:
    _check_size("num_w", num_w)
    _check_size("num_f", num_f)
    atr_f = np.asarray(model_f.predict(location))
    atr_w = np.asarray(model_w.predict(location))
    if num_w > atr_w.shape[0] or num_f > atr_f.shape[0]:
        raise ValueError("requested set sizes exceed the codebook sizes")
    return DecoupledSets(s_w=top_k_stable(atr_w, num_w), s_f=top_k_stable(atr_f, num_f))


def distinct_row_count(X: np.ndarray) -> int:
    """Number of distinct rows of a 2-D array, as `len(np.unique(X, axis=0))`
    counts them, from one lexicographic sort (and without importing
    `numpy.ma`, which `np.unique(..., axis=0)` does)."""
    if len(X) == 0:
        return 0
    ordered = X[np.lexsort(X.T[::-1])]
    return 1 + int(np.count_nonzero(np.any(ordered[1:] != ordered[:-1], axis=1)))


def kmeans(locations: np.ndarray, num_clusters: int,
           seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means++ initialization plus at most 100 Lloyd iterations to
    an assignment fixpoint; empty clusters are re-seeded at the point
    farthest from all centroids. `locations` is (n, 2). The centroids are
    those of the per-cluster k-means in tests/reference_selectors.py, bit
    for bit."""
    X = np.asarray(locations, dtype=float)
    if X.ndim != 2 or X.shape[1] != 2:
        raise ValueError(f"locations must be (n, 2), got shape {X.shape}")
    distinct = distinct_row_count(X)
    if num_clusters > distinct:
        raise ValueError(f"{num_clusters} clusters exceed {distinct} distinct locations")
    rng = np.random.default_rng(seed)

    centroids = np.empty((num_clusters, X.shape[1]))
    centroids[0] = X[rng.integers(len(X))]
    d2 = np.sum((X - centroids[0]) ** 2, axis=1)
    for c in range(1, num_clusters):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(len(X), 1.0 / len(X))
        centroids[c] = X[rng.choice(len(X), p=probs)]
        d2 = np.minimum(d2, np.sum((X - centroids[c]) ** 2, axis=1))

    assignments = np.full(len(X), -1)
    for iterations in range(1, 101):
        dists = np.square(X[:, 0, None] - centroids[:, 0])  # a0 + a1: the same bits
        dists += np.square(X[:, 1, None] - centroids[:, 1])  # as np.sum over axis 2
        new_assignments = np.argmin(dists, axis=1)  # ties -> lowest index
        counts = np.bincount(new_assignments, minlength=num_clusters)
        if counts.all():
            # bincount adds each cluster's rows in row order, as
            # X[mask].mean(axis=0) does over two columns (over one it would
            # sum pairwise), so the means are the same bits
            for j in range(X.shape[1]):
                centroids[:, j] = np.bincount(new_assignments, weights=X[:, j],
                                              minlength=num_clusters) / counts
        else:
            # cluster by cluster, each empty one re-seeded in turn
            for c in range(num_clusters):
                mask = new_assignments == c
                if np.any(mask):
                    centroids[c] = X[mask].mean(axis=0)
                else:
                    farthest = int(np.argmax(np.min(dists, axis=1)))
                    centroids[c] = X[farthest]
                    new_assignments[farthest] = c
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    log.info("kmeans: %d clusters, %d Lloyd iterations", num_clusters, iterations)
    return centroids, assignments


@dataclass(frozen=True)
class ClusterCoveragePlan:
    centroids: np.ndarray
    assignments: np.ndarray
    significances: np.ndarray      # alpha_c, sums to 1 (or all-ones mode)
    prob_tables: np.ndarray        # (C, |F|, |F|): [cluster, k-1, beam]
    selected_beams: np.ndarray     # S_f in selection order

    def prefix(self, n_bs: int) -> "ClusterCoveragePlan":
        """Plan restricted to the first n_bs coverage beams (the greedy
        selection order is prefix-consistent)."""
        _check_size("n_bs", n_bs)
        if n_bs > len(self.selected_beams):
            raise ValueError("prefix longer than the selected beam list")
        return ClusterCoveragePlan(self.centroids, self.assignments, self.significances,
                                   self.prob_tables, self.selected_beams[:n_bs])


def select_bs_coverage(locations: np.ndarray, atr_f_rows: np.ndarray, num_clusters: int,
                       n_bs: int, seed: int = 0, use_significance: bool = True) -> ClusterCoveragePlan:
    """Location-free BS beam list covering the region of interest.

    Clusters the rows by location and builds per-cluster k-th-best beam
    probability tables: each row is ranked once by `top_k_stable` over all
    its beams (ties to the lower beam), and the counts of the (cluster, rank,
    beam) cells, divided by the cluster sizes, give every table; the rows
    are ranked and counted in blocks of about `_RANK_CELLS` scores. A
    row's ranking does not depend on the other rows, so the tables equal
    those of ranking each cluster on its own. An empty cluster raises a
    ValueError. A cluster's significance is its share of the rows, or 1
    for every cluster without `use_significance`. The greedy visits the
    slots (k, rank position) in order and appends the beams that some
    cluster's `top_k_stable` ranking by probability of rank k lists at that
    slot and that are not chosen yet, by descending significance-weighted
    probability of rank k, ties to the lower beam. So a beam is appended at
    its first slot, and the list is all beams sorted by (first slot,
    descending score there, index), cut to n_bs. Every prefix of the list
    is the list a smaller n_bs builds. The plan equals that of the per-rank
    greedy in tests/reference_selectors.py, bit for bit.
    """
    X = np.asarray(locations, dtype=float)
    rows = np.asarray(atr_f_rows, dtype=float)
    num_beams = rows.shape[1]
    _check_size("n_bs", n_bs)
    if n_bs > num_beams:
        raise ValueError("n_bs exceeds the beamformer codebook size")
    centroids, assignments = kmeans(X, num_clusters, seed=seed)
    counts = np.bincount(assignments, minlength=num_clusters)
    if not counts.all():
        raise ValueError("empty cluster")
    if use_significance:
        significances = counts / counts.sum()
    else:
        significances = np.ones(num_clusters)

    # prob_tables[c, k, j]: the share of cluster c's rows that rank beam j
    # (k + 1)-th; the integer counts add up exactly, block by block
    hits = np.zeros(num_clusters * num_beams * num_beams, dtype=np.intp)
    step = max(1, _RANK_CELLS // num_beams)
    for lo in range(0, len(rows), step):
        cells = top_k_stable(rows[lo:lo + step], num_beams)
        cells += np.arange(num_beams) * num_beams
        cells += (assignments[lo:lo + step] * num_beams * num_beams)[:, None]
        hits += np.bincount(cells.ravel(), minlength=len(hits))
    prob_tables = hits.reshape(num_clusters, num_beams, num_beams) / counts[:, None, None]
    # position[c, k, j]: beam j's place when cluster c's beams are ranked by
    # their probability of rank k + 1, most probable first, ties to the
    # lower index (the inverse of `top_k_stable`'s ranking). Slot (k, pos) is
    # number k * B + pos; a beam's first slot is the least at which some
    # cluster gives it a nonzero probability, and every beam has one, as
    # every row ranks every beam and no cluster is empty, so the list always
    # reaches |F| beams.
    position = np.argsort(top_k_stable(prob_tables, num_beams), axis=2)
    first = np.where(prob_tables > 0, np.arange(num_beams)[:, None] * num_beams + position,
                     num_beams * num_beams).min(axis=(0, 1))
    # each score is its own dot product, as one matrix-vector product for
    # all beams could round differently and so break a tie another way
    scores = np.array([float(np.dot(significances, prob_tables[:, k, j]))
                       for j, k in enumerate(first // num_beams)])
    # by first slot, then by score at that slot's rank, descending; lexsort
    # is stable, so ties go to the lower beam
    selected = np.lexsort((-scores, first))[:n_bs]
    return ClusterCoveragePlan(centroids=centroids, assignments=assignments,
                               significances=significances, prob_tables=prob_tables,
                               selected_beams=selected)


def select_decoupled_no_location(model_w, location, num_w: int,
                                 plan: ClusterCoveragePlan) -> DecoupledSets:
    """UE side as in scenario 2; BS side is the plan's beam list verbatim."""
    _check_size("num_w", num_w)
    atr_w = np.asarray(model_w.predict(location))
    if num_w > atr_w.shape[0]:
        raise ValueError("requested combiner count exceeds the codebook size")
    return DecoupledSets(s_w=top_k_stable(atr_w, num_w), s_f=plan.selected_beams.copy())


def save_plan(plan: ClusterCoveragePlan, path: str) -> None:
    """Write the plan to `path`, and as CSV to `path`.csv its beams in
    selection order, an empty line, and its clusters' significances and
    centroids."""
    save_npz(path, {key: getattr(plan, key) for key in PLAN_SCHEMA}, PLAN_FORMAT_VERSION)
    clusters = [(c, *("%.9g" % v for v in (plan.significances[c], *plan.centroids[c])))
                for c in range(len(plan.centroids))]
    write_csv(path + ".csv", ["selection_order", "beam_index"],
              [*enumerate(plan.selected_beams.tolist()), (),
               ("cluster", "significance", "centroid_x", "centroid_y"), *clusters])
