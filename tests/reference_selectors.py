"""The per-rank coverage plan, kept as the reference that
`beamtrain.selectors.select_bs_coverage` is held to, beam for beam.

It ranks a cluster's rows again for every rank k and sorts every k-th-best
probability vector on its own; `select_bs_coverage_reference` is the greedy
selection built on it.
"""

import numpy as np

from beamtrain.selectors import ClusterCoveragePlan, kmeans, top_k_stable


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
    centroids, assignments = kmeans(X, num_clusters, seed=seed)
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
