"""Beam selection for the three scenarios.

Scenario 1 (coupled with location): the BS picks the top-N_B predicted
beam pairs and tells the UE which combiners to sweep.
Scenario 2 (decoupled with location): BS and UE pick their own beams by
predicted per-beam ATR.
Scenario 3 (decoupled without location): the UE picks by predicted ATR; the
BS serves a precomputed cluster-coverage beam list, independent of the UE.

Every top-k here uses a stable descending sort, so ties resolve to the
lowest beam index and the selected sets are nested as budgets grow.
"""

import csv
import logging
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

log = logging.getLogger(__name__)

PLAN_FORMAT_VERSION = 1


@dataclass(frozen=True)
class BeamPairSet:
    """Ordered selection of flattened pair indices n = i*|F| + j."""
    flat_indices: np.ndarray
    num_beamformers: int

    @property
    def budget(self) -> int:
        return len(self.flat_indices)

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [divmod(int(n), self.num_beamformers) for n in self.flat_indices]

    def contains(self, flat_index: int) -> bool:
        return int(flat_index) in set(int(n) for n in self.flat_indices)


@dataclass(frozen=True)
class DecoupledSets:
    s_w: np.ndarray   # combiner indices, selection order
    s_f: np.ndarray   # beamformer indices, selection order

    @property
    def num_pairs(self) -> int:
        return len(self.s_w) * len(self.s_f)


def top_k_stable(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores; ties resolve to lower indices."""
    order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    return order[:k]


def select_coupled(model, location, n_pairs: int, num_beamformers: int) -> BeamPairSet:
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
    atr_f = np.asarray(model_f.predict(location))
    atr_w = np.asarray(model_w.predict(location))
    if num_w > atr_w.shape[0] or num_f > atr_f.shape[0]:
        raise ValueError("requested set sizes exceed the codebook sizes")
    return DecoupledSets(s_w=top_k_stable(atr_w, num_w), s_f=top_k_stable(atr_f, num_f))


def kmeans(locations: np.ndarray, num_clusters: int, seed: int = 0,
           max_iters: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means++ initialization plus Lloyd iterations to an
    assignment fixpoint; empty clusters are re-seeded at the point farthest
    from all centroids."""
    X = np.asarray(locations, dtype=float)
    distinct = np.unique(X, axis=0)
    if num_clusters > len(distinct):
        raise ValueError(f"{num_clusters} clusters exceed {len(distinct)} distinct locations")
    rng = np.random.default_rng(seed)

    centroids = np.empty((num_clusters, X.shape[1]))
    centroids[0] = X[rng.integers(len(X))]
    d2 = np.sum((X - centroids[0]) ** 2, axis=1)
    for c in range(1, num_clusters):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(len(X), 1.0 / len(X))
        centroids[c] = X[rng.choice(len(X), p=probs)]
        d2 = np.minimum(d2, np.sum((X - centroids[c]) ** 2, axis=1))

    assignments = np.full(len(X), -1)
    for _ in range(max_iters):
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


@dataclass(frozen=True)
class ClusterCoveragePlan:
    centroids: np.ndarray
    assignments: np.ndarray
    significances: np.ndarray      # alpha_c, sums to 1 (or all-ones mode)
    prob_tables: np.ndarray        # (C, |F|, |F|): [cluster, k-1, beam]
    candidate_sets: list           # per (cluster, k): beam indices by descending prob
    selected_beams: np.ndarray     # S_f in selection order

    def prefix(self, n_bs: int) -> "ClusterCoveragePlan":
        """Plan restricted to the first n_bs coverage beams (the greedy
        selection order is prefix-consistent)."""
        if n_bs > len(self.selected_beams):
            raise ValueError("prefix longer than the selected beam list")
        return replace(self, selected_beams=self.selected_beams[:n_bs])


def select_bs_coverage(locations: np.ndarray, atr_f_rows: np.ndarray, num_clusters: int,
                       n_bs: int, seed: int = 0, use_significance: bool = True) -> ClusterCoveragePlan:
    """Location-free BS beam list covering the region of interest.

    Clusters the rows by location, builds per-cluster k-th-best beam
    probability tables, then greedily appends beams in (k, rank-position)
    order scored by the significance-weighted probability sum.
    """
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
    if len(selected) < n_bs:
        log.warning("coverage selection exhausted ranked beams; filling by index")
        for j in range(num_beams):
            if not chosen[j]:
                selected.append(j)
                chosen[j] = True
                if len(selected) >= n_bs:
                    break
    return ClusterCoveragePlan(centroids=centroids, assignments=assignments,
                               significances=significances, prob_tables=prob_tables,
                               candidate_sets=candidate_sets,
                               selected_beams=np.array(selected, dtype=int))


def select_decoupled_no_location(model_w, location, num_w: int,
                                 plan: ClusterCoveragePlan) -> DecoupledSets:
    """UE side as in scenario 2; BS side is the plan's beam list verbatim."""
    atr_w = np.asarray(model_w.predict(location))
    if num_w > atr_w.shape[0]:
        raise ValueError("requested combiner count exceeds the codebook size")
    return DecoupledSets(s_w=top_k_stable(atr_w, num_w), s_f=plan.selected_beams.copy())


def save_plan(plan: ClusterCoveragePlan, path: str, csv_path: str | None = None) -> None:
    arrays = {
        "format_version": np.array([PLAN_FORMAT_VERSION]),
        "centroids": plan.centroids,
        "assignments": plan.assignments,
        "significances": plan.significances,
        "prob_tables": plan.prob_tables,
        "selected_beams": plan.selected_beams,
    }
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
    os.close(fd)
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    if csv_path is not None:
        tmpc = csv_path + ".tmp"
        with open(tmpc, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["selection_order", "beam_index"])
            for i, j in enumerate(plan.selected_beams):
                writer.writerow([i, int(j)])
            writer.writerow([])
            writer.writerow(["cluster", "significance", "centroid_x", "centroid_y"])
            for c in range(len(plan.centroids)):
                writer.writerow([c, "%.9g" % plan.significances[c],
                                 "%.9g" % plan.centroids[c, 0], "%.9g" % plan.centroids[c, 1]])
        os.replace(tmpc, csv_path)


def load_plan(path: str) -> ClusterCoveragePlan:
    try:
        with open(path, "rb") as fh, np.load(fh) as npz:
            data = {name: npz[name] for name in npz.files}
    except Exception as exc:
        raise ValueError(f"cannot read plan file {path!r}: {exc}") from exc
    if "format_version" not in data or data["format_version"][0] != PLAN_FORMAT_VERSION:
        raise ValueError(f"unsupported plan file version in {path!r}")
    prob_tables = data["prob_tables"]
    candidate_sets = []
    for c in range(prob_tables.shape[0]):
        candidate_sets.append([top_k_stable(prob_tables[c, k], int(np.sum(prob_tables[c, k] > 0)))
                               for k in range(prob_tables.shape[1])])
    return ClusterCoveragePlan(centroids=data["centroids"], assignments=data["assignments"],
                               significances=data["significances"], prob_tables=prob_tables,
                               candidate_sets=candidate_sets,
                               selected_beams=data["selected_beams"])
