"""Per-beam-pair rates and exhaustive beam sweeping.

Beam pairs are flattened as n(i, j) = i * |F| + j with i the UE combiner
index and j the BS beamformer index (0-based, row-major). Every argmax in
the package breaks ties toward the lowest flattened index.
"""

from dataclasses import dataclass

import numpy as np

from .arrays import Codebook
from .channel import ChannelRealization, path_responses


@dataclass(frozen=True)
class RateRow:
    """Rates (bits/s/Hz) for all |W|*|F| beam pairs of one UE."""
    location: np.ndarray      # (x, y)
    rates: np.ndarray         # (|W|*|F|,)
    snapshot_id: int
    ue_index: int = -1


def per_pair_rate(channel: ChannelRealization, combiner: np.ndarray, beamformer: np.ndarray,
                  sigma2: float, rng: np.random.Generator | None = None) -> float:
    """Average rate over subcarriers for one (combiner, beamformer) pair.

    Deterministic mode (default) uses the noise-free effective SNR
    |w^* H[k] f|^2 / sigma2. With `rng`, the measured-power estimator
    |y|^2 - sigma2 is used instead, clamped at zero.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    H = channel.matrices
    w = np.asarray(combiner)
    f = np.asarray(beamformer)
    if w.shape[0] != H.shape[1] or f.shape[0] != H.shape[2]:
        raise ValueError("combiner/beamformer dimensions do not match the channel")
    proj = np.einsum("i,kij,j->k", w.conj(), H, f)
    if rng is None:
        snr = np.abs(proj) ** 2 / sigma2
    else:
        noise = rng.normal(size=(H.shape[0], H.shape[1])) + 1j * rng.normal(size=(H.shape[0], H.shape[1]))
        noise *= np.sqrt(sigma2 / 2.0)
        y = proj + noise @ w.conj()
        snr = np.maximum(np.abs(y) ** 2 - sigma2, 0.0) / sigma2
    return float(np.mean(np.log2(1.0 + snr)))


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
    """Rates of all |W|*|F| beam pairs straight from one UE's traced paths.

    Equal to sweep_all on paths_to_channel(paths, ...) without forming the
    dense (K, n_ue, n_bs) channel. The channel is a sum of a few paths, so
    W^* H[k] F^T = sum_p c_p[k] u_p v_p^T with u_p = W^* a_ue,p,
    v_p = F a_bs,p^* and c_p[k] = g_p exp(-2j pi k df tau_p): the
    projection is one (K x P) @ (P x |W||F|) product, flattened as
    n = i * |F| + j. No paths give an all-zero row.
    """
    sigma2 = config.sigma2
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    # the row outlives the temporaries below; allocated first, it does not
    # sit above them on the heap and keep their freed memory from reuse
    rates = np.empty(combiners.num_beams * beamformers.num_beams)
    a_ue, a_bs, phases = path_responses(paths, bs_geometry, ue_geometry, config)
    u = a_ue @ combiners.beams.conj().T          # (P, |W|)
    v = a_bs.conj() @ beamformers.beams.T        # (P, |F|)
    pairs = (u[:, :, None] * v[:, None, :]).reshape(len(paths), rates.size)
    # c_p[k] / sigma, so that |proj|^2 is the SNR
    gains = np.array([p.complex_gain for p in paths], dtype=complex) / np.sqrt(sigma2)
    coeffs = phases * gains                      # (K, P)
    # coeffs @ pairs in real arithmetic: rows [:K] hold the real parts and
    # rows [K:] the imaginary parts, so |proj|^2 is two contiguous halves
    lhs = np.block([[coeffs.real, -coeffs.imag], [coeffs.imag, coeffs.real]])
    proj = lhs @ np.concatenate([pairs.real, pairs.imag])
    power = np.square(proj, out=proj)
    snr = power[:len(coeffs)]
    snr += power[len(coeffs):]
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
