"""Per-beam-pair rates and exhaustive beam sweeping.

Beam pairs are flattened as n(i, j) = i * |F| + j with i the UE combiner
index and j the BS beamformer index (0-based, row-major). Every argmax in
the package breaks ties toward the lowest flattened index.

A pair's rate is the mean over the K subcarriers of log2(1 + SNR[k]),
computed as log1p(SNR[k]) / ln 2, which keeps full relative precision at
low SNR.
"""

import numpy as np

from .arrays import Codebook
from .channel import ChannelRealization

_LN2 = np.log(2.0)
# halvings of the subcarrier axis before the logs: one log per 8 subcarriers
_FOLDS = 3


def sweep_all(channel: ChannelRealization, combiners: Codebook, beamformers: Codebook,
              sigma2: float) -> np.ndarray:
    """Rates of all |W|*|F| beam pairs, an exhaustive sweep of the dense
    channel over both codebooks: the mean over k of
    log1p(|w_i^* H[k] f_j|^2 / sigma2) / ln 2, one log per subcarrier."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    W = combiners.beams            # (|W|, n_ue)
    F = beamformers.beams          # (|F|, n_bs)
    H = channel.matrices           # (K, n_ue, n_bs)
    proj = np.matmul(W.conj(), H) @ F.T  # (K, |W|, |F|)
    return np.mean(np.log1p(np.abs(proj) ** 2 / sigma2), axis=0).reshape(-1) / _LN2


def sweep_responses(gains, a_ue, a_bs, phases, combiners: Codebook, beamformers: Codebook,
                    sigma2: float, out=None) -> np.ndarray:
    """Rates of all |W|*|F| beam pairs of one UE from its paths' gains and
    `channel.path_responses`.

    Equal to sweep_all on the dense channel of the paths, to within 1e-12
    of the row's peak, without forming the (K, n_ue, n_bs) channel. The
    channel is a sum of a few paths, so W^* H[k] F^T = sum_p c_p[k] u_p v_p^T
    with u_p = W^* a_ue,p, v_p = F a_bs,p^* and
    c_p[k] = g_p exp(-2j pi k df tau_p), flattened as n = i * |F| + j.
    No paths give an all-zero row.

    - One path: |c[k]|^2 = |g|^2 on every subcarrier, so a pair's SNR does
      not depend on k, and its rate is log1p(|g|^2 / sigma2 |u_i|^2 |v_j|^2)
      / ln 2, one log per pair.
    - More paths: the projection is one real (2K x 2P) @ (2P x |W||F|)
      product, squared into the (K, |W||F|) SNRs. While the subcarrier
      count is even, at most three times, the second half of the SNR rows
      is folded into the first by (1 + a)(1 + b) - 1 = a + b + ab, which is
      exact in real numbers and adds only non-negative terms, so nothing
      cancels and each folded value is off by a few ulp. One log1p
      per group of up to 8 subcarriers follows, and the groups' logs are
      summed and divided by K ln 2. A group product past the float range
      (an SNR above about 1e38) makes a rate non-finite; that UE is then
      recomputed with one log1p per subcarrier, so rates are finite
      wherever the SNRs are.

    The sweep stays one product per UE: stacking a snapshot's UEs into one
    block raised peak memory and was no faster, and computing every UE's u
    and v once per snapshot changed the matmul's rounding with the row
    count while it saved little. The Gram form, SNR = C @ G over the
    paths' power and cross terms, is not used, as its error scales with
    the sum of the path powers, not with |proj|: where paths nearly cancel
    it misses the 1e-12 bound. The tests also hold both routes to one
    log1p per subcarrier of these arguments (`sweep_per_subcarrier` in
    tests/reference_linkeval.py), for K in {1, 3, 4, 5, 64} and at SNRs
    near 1e40.

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
    if P == 1:
        snr = np.multiply.outer(np.abs(u[0]) ** 2 * (abs(gains[0]) ** 2 / sigma2),
                                np.abs(v[0]) ** 2)
        np.log1p(snr.reshape(-1), out=rates)
        rates /= _LN2
        return rates
    pairs = (u[:, :, None] * v[:, None, :]).reshape(P, rates.size)
    # c_p[k] / sigma, so that |proj|^2 is the SNR
    coeffs = phases * (gains / np.sqrt(sigma2))  # (K, P)
    # coeffs @ pairs in real arithmetic: rows [:K] hold the real parts and
    # rows [K:] the imaginary parts, so |proj|^2 is two contiguous halves
    lhs = np.empty((2 * K, 2 * P))
    lhs[:K, :P] = lhs[K:, P:] = coeffs.real
    lhs[:K, P:] = -coeffs.imag
    lhs[K:, :P] = coeffs.imag
    rhs = np.concatenate([pairs.real, pairs.imag])
    np.sum(_group_logs(lhs @ rhs, K, _FOLDS), axis=0, out=rates)
    if not np.isfinite(rates).all():
        np.sum(_group_logs(lhs @ rhs, K, 0), axis=0, out=rates)
    rates /= K * _LN2
    return rates


def _group_logs(proj, K: int, folds: int) -> np.ndarray:
    """The (groups, N) logs of prod_k (1 + SNR[k]) over each group of
    subcarriers, from the (2K, N) real projection `proj` (real parts in
    rows [:K], imaginary parts in [K:]), in place. Each of up to `folds`
    halvings, while the row count is even, folds the second half of the SNR
    rows into the first; the products use the imaginary rows as scratch. An
    odd row count stops the folding early: with three folds, K = 64 gives 8
    groups of 8 subcarriers, K = 12 3 groups of 4, K = 4 one group of 4 and
    K = 5 five groups of one. A product past the float range gives inf or
    nan without a warning."""
    power = np.square(proj, out=proj)
    snr, scratch = power[:K], power[K:]
    snr += scratch
    rows = K
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(folds):
            if rows % 2:
                break
            rows //= 2
            top, bottom, product = snr[:rows], snr[rows:2 * rows], scratch[:rows]
            np.multiply(top, bottom, out=product)
            top += bottom
            top += product
    return np.log1p(snr[:rows], out=snr[:rows])
