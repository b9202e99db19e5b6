"""Per-beam-pair rates and exhaustive beam sweeping.

Beam pairs are flattened as n(i, j) = i * |F| + j with i the UE combiner
index and j the BS beamformer index (0-based, row-major). Every argmax in
the package breaks ties toward the lowest flattened index.
"""

from dataclasses import dataclass

import numpy as np

from .arrays import Codebook
from .channel import ChannelRealization, path_responses
from .scene import PathTable


@dataclass(frozen=True)
class RateRow:
    """Rates (bits/s/Hz) for all |W|*|F| beam pairs of one UE."""
    location: np.ndarray      # (x, y)
    rates: np.ndarray         # (|W|*|F|,)
    snapshot_id: int
    ue_index: int = -1


def sweep_all(channel: ChannelRealization, combiners: Codebook, beamformers: Codebook,
              sigma2: float) -> RateRow:
    """Exhaustive sweep over all beam pairs of both codebooks."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    W = combiners.beams            # (|W|, n_ue)
    F = beamformers.beams          # (|F|, n_bs)
    H = channel.matrices           # (K, n_ue, n_bs)
    proj = np.matmul(W.conj(), H) @ F.T  # (K, |W|, |F|)
    rates = np.mean(np.log2(1.0 + np.abs(proj) ** 2 / sigma2), axis=0)
    return RateRow(location=channel.ue_location, rates=rates.reshape(-1),
                   snapshot_id=channel.snapshot_id, ue_index=channel.ue_index)


def sweep_paths(paths, combiners: Codebook, beamformers: Codebook, bs_geometry,
                ue_geometry, config) -> np.ndarray:
    """Rates of all |W|*|F| beam pairs straight from one UE's traced paths
    (a list of PathComponent); see sweep_responses."""
    table = PathTable.from_paths(paths)
    a_ue, a_bs, phases = path_responses(table, bs_geometry, ue_geometry, config)
    return sweep_responses(table.gain, a_ue, a_bs, phases, combiners, beamformers, config.sigma2)


def sweep_responses(gains, a_ue, a_bs, phases, combiners: Codebook, beamformers: Codebook,
                    sigma2: float) -> np.ndarray:
    """Rates of all |W|*|F| beam pairs of one UE from its paths' gains and
    `channel.path_responses`.

    Equal to sweep_all on the dense channel of the paths without forming
    the (K, n_ue, n_bs) channel. The channel is a sum of a few paths, so
    W^* H[k] F^T = sum_p c_p[k] u_p v_p^T with u_p = W^* a_ue,p,
    v_p = F a_bs,p^* and c_p[k] = g_p exp(-2j pi k df tau_p): the
    projection is one (K x P) @ (P x |W||F|) product, flattened as
    n = i * |F| + j. No paths give an all-zero row.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    # the row outlives the temporaries below; allocated first, it does not
    # sit above them on the heap and keep their freed memory from reuse
    rates = np.empty(combiners.num_beams * beamformers.num_beams)
    P, K = len(gains), len(phases)
    u = a_ue @ combiners.beams.conj().T          # (P, |W|)
    v = a_bs.conj() @ beamformers.beams.T        # (P, |F|)
    pairs = (u[:, :, None] * v[:, None, :]).reshape(P, rates.size)
    # c_p[k] / sigma, so that |proj|^2 is the SNR
    coeffs = phases * (gains / np.sqrt(sigma2))  # (K, P)
    # coeffs @ pairs in real arithmetic: rows [:K] hold the real parts and
    # rows [K:] the imaginary parts, so |proj|^2 is two contiguous halves
    lhs = np.empty((2 * K, 2 * P))
    lhs[:K, :P] = lhs[K:, P:] = coeffs.real
    lhs[:K, P:] = -coeffs.imag
    lhs[K:, :P] = coeffs.imag
    proj = lhs @ np.concatenate([pairs.real, pairs.imag])
    power = np.square(proj, out=proj)
    snr = power[:K]
    snr += power[K:]
    snr += 1.0
    return np.mean(np.log2(snr, out=snr), axis=0, out=rates)


def throughput_ratio(rate_row: RateRow | np.ndarray, subset) -> float:
    """Best rate within the subset divided by the best rate overall.

    All-zero rows return 1.0 by convention (any subset is optimal).
    """
    rates = rate_row.rates if isinstance(rate_row, RateRow) else np.asarray(rate_row)
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
