"""Per-UE rate helpers that only the tests use: the sweep of one UE's path
tuples, a sweep with one log per subcarrier, the throughput ratio of a beam
subset and the pair flattening n(i, j) = i * |F| + j of
`beamtrain.linkeval`."""

import numpy as np

from beamtrain.arrays import Codebook
from beamtrain.channel import path_responses
from beamtrain.linkeval import sweep_responses
from reference_scene import paths_table


def sweep_paths(paths, combiners: Codebook, beamformers: Codebook, bs_geometry,
                ue_geometry, config) -> np.ndarray:
    """Rates of all |W|*|F| beam pairs straight from one UE's traced paths
    (a list of `reference_scene.TracedPath`); see `linkeval.sweep_responses`."""
    table = paths_table(paths)
    a_ue, a_bs, phases = path_responses(table, bs_geometry, ue_geometry, config)
    return sweep_responses(table.gain, a_ue, a_bs, phases, combiners, beamformers, config.sigma2)


def sweep_per_subcarrier(gains, a_ue, a_bs, phases, combiners: Codebook,
                         beamformers: Codebook, sigma2: float) -> np.ndarray:
    """Rates of all |W|*|F| beam pairs of `linkeval.sweep_responses`'s
    arguments, term by term: the complex (K x P) @ (P x |W||F|) projection,
    then mean_k log1p(|proj[k]|^2 / sigma2) / ln 2, one log per subcarrier
    and pair, for every path count."""
    u = a_ue @ combiners.beams.conj().T
    v = a_bs.conj() @ beamformers.beams.T
    pairs = (u[:, :, None] * v[:, None, :]).reshape(len(gains), u.shape[1] * v.shape[1])
    proj = (phases * gains) @ pairs
    return np.mean(np.log1p(np.abs(proj) ** 2 / sigma2), axis=0) / np.log(2.0)


def throughput_ratio(rates: np.ndarray, subset) -> float:
    """Best rate within the subset divided by the best rate overall.

    All-zero rows return 1.0 by convention (any subset is optimal).
    """
    rates = np.asarray(rates)
    idx = np.fromiter(subset, dtype=int)
    if idx.size == 0:
        raise ValueError("subset must be nonempty")
    peak = float(np.max(rates))
    if peak <= 0.0:
        return 1.0
    return float(np.max(rates[idx]) / peak)


def pair_index(i: int, j: int, num_beamformers: int) -> int:
    return i * num_beamformers + j


def unflatten_pair(n: int, num_beamformers: int) -> tuple[int, int]:
    return divmod(n, num_beamformers)
