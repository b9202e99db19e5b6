"""The per-cluster k-means and the per-rank coverage plan, kept as the
references that `beamtrain.selectors.kmeans` and
`beamtrain.selectors.select_bs_coverage` are held to, bit for bit and beam
for beam.

`kmeans_reference` updates each centroid with its own masked mean. The
coverage plan ranks a cluster's rows again for every rank k and sorts every
k-th-best probability vector on its own; `select_bs_coverage_reference` is
the greedy selection built on it.
"""

import numpy as np

from beamtrain.selectors import ClusterCoveragePlan, distinct_row_count, top_k_stable


def kmeans_reference(locations, num_clusters: int, seed: int = 0, reseeded=None):
    """Seeded k-means++ initialization plus at most 100 Lloyd iterations to
    an assignment fixpoint; each centroid is the mean of its rows, and an
    empty cluster is re-seeded at the point farthest from all centroids.
    Each re-seed appends (iteration, cluster) to `reseeded` when given."""
    X = np.asarray(locations, dtype=float)
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
        dists = np.sum((X[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_assignments = np.argmin(dists, axis=1)  # ties -> lowest index
        for c in range(num_clusters):
            mask = new_assignments == c
            if np.any(mask):
                centroids[c] = X[mask].mean(axis=0)
            else:
                farthest = int(np.argmax(np.min(dists, axis=1)))
                centroids[c] = X[farthest]
                new_assignments[farthest] = c
                if reseeded is not None:
                    reseeded.append((iterations, c))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return centroids, assignments


def kth_best_probability(cluster_atr_rows: np.ndarray, k: int) -> np.ndarray:
    """Empirical probability, over a cluster's rows, that each beam ranks
    k-th by ATR (ranking ties resolve to the lowest beam index)."""
    rows = np.atleast_2d(np.asarray(cluster_atr_rows, dtype=float))
    if rows.shape[0] == 0:
        raise ValueError("empty cluster")
    num_beams = rows.shape[1]
    if not (1 <= k <= num_beams):
        raise ValueError(f"rank k={k} outside 1..{num_beams}")
    ranked = np.argsort(-rows, axis=1, kind="stable")
    return np.bincount(ranked[:, k - 1], minlength=num_beams) / rows.shape[0]


def select_bs_coverage_reference(locations, atr_f_rows, num_clusters: int, n_bs: int,
                                 seed: int = 0,
                                 use_significance: bool = True) -> ClusterCoveragePlan:
    X = np.asarray(locations, dtype=float)
    rows = np.asarray(atr_f_rows, dtype=float)
    num_beams = rows.shape[1]
    if n_bs > num_beams:
        raise ValueError("n_bs exceeds the beamformer codebook size")
    centroids, assignments = kmeans_reference(X, num_clusters, seed=seed)
    counts = np.bincount(assignments, minlength=num_clusters)
    if use_significance:
        significances = counts / counts.sum()
    else:
        significances = np.ones(num_clusters)

    prob_tables = np.zeros((num_clusters, num_beams, num_beams))
    candidate_sets = []
    for c in range(num_clusters):
        cluster_rows = rows[assignments == c]
        per_cluster = []
        for k in range(1, num_beams + 1):
            p = kth_best_probability(cluster_rows, k)
            prob_tables[c, k - 1] = p
            nonzero = top_k_stable(p, int(np.sum(p > 0)))
            per_cluster.append(nonzero)
        candidate_sets.append(per_cluster)

    selected: list[int] = []
    chosen = np.zeros(num_beams, dtype=bool)
    for k in range(num_beams):
        if len(selected) >= n_bs:
            break
        max_len = max(len(candidate_sets[c][k]) for c in range(num_clusters))
        for pos in range(max_len):
            candidates = sorted({int(candidate_sets[c][k][pos])
                                 for c in range(num_clusters)
                                 if pos < len(candidate_sets[c][k])})
            if not candidates:
                continue
            scores = [float(np.dot(significances, prob_tables[:, k, j])) for j in candidates]
            for _, j in sorted(zip([-s for s in scores], candidates)):
                if chosen[j]:
                    continue
                selected.append(j)
                chosen[j] = True
                if len(selected) >= n_bs:
                    break
            if len(selected) >= n_bs:
                break
    if len(selected) < n_bs:  # exhausted ranked beams: fill by index
        for j in range(num_beams):
            if not chosen[j]:
                selected.append(j)
                chosen[j] = True
                if len(selected) >= n_bs:
                    break
    return ClusterCoveragePlan(centroids=centroids, assignments=assignments,
                               significances=significances, prob_tables=prob_tables,
                               selected_beams=np.array(selected, dtype=int))
