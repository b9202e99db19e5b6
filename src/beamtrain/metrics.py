"""Evaluation metrics over test UEs: misalignment and average throughput ratio."""

import numpy as np

from .selectors import BeamPairSet, DecoupledSets


def _flat_mask(selected, num_pairs: int, num_beamformers: int) -> np.ndarray:
    mask = np.zeros(num_pairs, dtype=bool)
    if isinstance(selected, BeamPairSet):
        mask[selected.flat_indices] = True
    elif isinstance(selected, DecoupledSets):
        flat = (selected.s_w[:, None] * num_beamformers + selected.s_f[None, :]).reshape(-1)
        mask[flat] = True
    else:
        mask[np.fromiter(selected, dtype=int)] = True
    return mask


def misalignment_probability(tr_matrix: np.ndarray, selected_sets, num_beamformers: int) -> float:
    """Fraction of rows whose exhaustive-argmax pair (lowest index on ties)
    is missing from the selected set."""
    tr_matrix = np.atleast_2d(np.asarray(tr_matrix, dtype=float))
    if len(selected_sets) != tr_matrix.shape[0]:
        raise ValueError("one selected set per row is required")
    misses = 0
    for row, sel in zip(tr_matrix, selected_sets):
        best = int(np.argmax(row))
        mask = _flat_mask(sel, tr_matrix.shape[1], num_beamformers)
        if not mask[best]:
            misses += 1
    return misses / tr_matrix.shape[0]


def avg_throughput_ratio(tr_matrix: np.ndarray, selected_sets, num_beamformers: int) -> float:
    """Mean over rows of the best in-set throughput ratio."""
    tr_matrix = np.atleast_2d(np.asarray(tr_matrix, dtype=float))
    if len(selected_sets) != tr_matrix.shape[0]:
        raise ValueError("one selected set per row is required")
    totals = 0.0
    for row, sel in zip(tr_matrix, selected_sets):
        mask = _flat_mask(sel, tr_matrix.shape[1], num_beamformers)
        totals += float(np.max(row[mask]))
    return totals / tr_matrix.shape[0]


def prefix_tables(tr_grid: np.ndarray, a_orders, b_orders) -> tuple[np.ndarray, np.ndarray]:
    """R_T and P_m of every prefix selection of two beam orderings per row.

    tr_grid is (n, A, B): each row's throughput ratios over the pair grid.
    a_orders is (n, L_a), one ordering of the A axis per row, or (L_a,),
    one ordering shared by all rows; b_orders likewise for the B axis. The
    selection of prefix sizes (i, j) for row r is the grid
    a_orders[r, :i] x b_orders[r, :j].

    Returns (r_t, p_m), each (L_a, L_b), with entry [i - 1, j - 1] equal to
    `avg_throughput_ratio` and `misalignment_probability` of those
    selections: R_T bit for bit, P_m exactly. The coupled scenario is the
    grid (n, 1, |W||F|) with a_orders = [0]. An ordering may be cut to the
    longest prefix that is read: each entry equals that of the full
    ordering, and a row whose best beam lies past the cut ranks at the
    cut's length and never hits.
    """
    n = tr_grid.shape[0]
    if n == 0:
        raise ValueError("at least one row is required")
    a = np.atleast_2d(a_orders)
    b = np.atleast_2d(b_orders)

    # best in-set ratio: gather along both orderings, then running maxima
    best = tr_grid[np.arange(n)[:, None, None], a[:, :, None], b[:, None, :]]
    np.maximum.accumulate(best, axis=1, out=best)
    np.maximum.accumulate(best, axis=2, out=best)
    # accumulate adds the rows strictly in row order, as the per-row
    # reference does; sum(axis=0) turns pairwise when the table is one cell
    r_t = np.add.accumulate(best, axis=0, out=best)[-1] / n

    # a row hits once both prefixes reach its argmax pair (lowest index on ties)
    flat_best = np.argmax(tr_grid.reshape(n, -1), axis=1)
    best_a, best_b = np.divmod(flat_best, tr_grid.shape[2])
    hits = np.zeros((a.shape[1] + 1, b.shape[1] + 1), dtype=np.int64)
    np.add.at(hits, (_rank(a, best_a), _rank(b, best_b)), 1)
    hits = hits.cumsum(axis=0).cumsum(axis=1)[:-1, :-1]
    return r_t, (n - hits) / n


def _rank(orders: np.ndarray, beams: np.ndarray) -> np.ndarray:
    """Position of beams[r] in row r of the orderings (first occurrence),
    or the ordering's length where the beam is absent."""
    found = orders == beams[:, None]
    return np.where(found.any(axis=1), found.argmax(axis=1), orders.shape[1])
