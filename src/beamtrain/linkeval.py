"""Per-beam-pair rates and exhaustive beam sweeping.

Beam pairs are flattened as n(i, j) = i * |F| + j with i the UE combiner
index and j the BS beamformer index (0-based, row-major). Every argmax in
the package breaks ties toward the lowest flattened index.
"""

import numpy as np

from .arrays import Codebook
from .channel import ChannelRealization


def sweep_all(channel: ChannelRealization, combiners: Codebook, beamformers: Codebook,
              sigma2: float) -> np.ndarray:
    """Rates of all |W|*|F| beam pairs, an exhaustive sweep of the dense
    channel over both codebooks."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    W = combiners.beams            # (|W|, n_ue)
    F = beamformers.beams          # (|F|, n_bs)
    H = channel.matrices           # (K, n_ue, n_bs)
    proj = np.matmul(W.conj(), H) @ F.T  # (K, |W|, |F|)
    return np.mean(np.log2(1.0 + np.abs(proj) ** 2 / sigma2), axis=0).reshape(-1)


def sweep_responses(gains, a_ue, a_bs, phases, combiners: Codebook, beamformers: Codebook,
                    sigma2: float, out=None) -> np.ndarray:
    """Rates of all |W|*|F| beam pairs of one UE from its paths' gains and
    `channel.path_responses`.

    Equal to sweep_all on the dense channel of the paths without forming
    the (K, n_ue, n_bs) channel. The channel is a sum of a few paths, so
    W^* H[k] F^T = sum_p c_p[k] u_p v_p^T with u_p = W^* a_ue,p,
    v_p = F a_bs,p^* and c_p[k] = g_p exp(-2j pi k df tau_p): the
    projection is one (K x P) @ (P x |W||F|) product, flattened as
    n = i * |F| + j. No paths give an all-zero row.

    The rates are written into `out`, a float64 (|W|*|F|,) array such as a
    row of a caller's corpus array, and `out` is returned; its bytes equal
    those of a call without it, which allocates the row.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    rates = np.empty(combiners.num_beams * beamformers.num_beams) if out is None else out
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
