"""Pilot-based channel estimators: LS, LMMSE, and the length-aware hybrid.

The LS estimate is the per-pilot division of received by transmitted pilots,
extended to data subcarriers by linear interpolation, which is one fixed
(n_used x n_pilots) matrix.  The LMMSE estimator filters the LS pilot
estimates through the channel frequency-correlation matrices of a
power-delay profile in the simplified beta/SNR form (the exact-noise form
coincides with it for unit-modulus pilots and beta=1).  Both correlation
matrices are products of the profile's tap-phase matrices, of rank at most
n_taps, so a model keeps one thin SVD, and the filter of every SNR is two thin
factors (the low-rank form of Edfors et al., IEEE Trans. Commun. 46(7), 1998,
exact rather than truncated).  The hybrid estimator picks LMMSE whenever
the cyclic prefix covers the channel and otherwise switches between LMMSE
(low SNR) and LS (high SNR) at a calibrated threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PowerDelayProfile
from .grid import Constellation, SystemConfig, used_subcarrier_bins

__all__ = [
    "CorrelationModel",
    "HybridPolicy",
    "ls_estimate",
    "ls_interpolation_matrix",
    "build_correlation_model",
    "lmmse_filter",
    "beta_for_constellation",
    "calibrate_threshold",
]


@dataclass(frozen=True)
class CorrelationModel:
    """Low-rank factors of the channel's frequency correlation under a profile.

    With B = exp(-2j*pi*bins*tau/N) * sqrt(p) the (n_used, n_taps) tap-phase
    matrix of the used subcarriers and A its pilot rows, the correlation of
    every used subcarrier with the pilots is R_hh_p = B A^H and the pilot
    autocorrelation is R_hp_hp = A A^H.  The model keeps the thin SVD
    A = Q diag(sigma) V^H as q, sigma and bv = B V, so that
    R_hh_p = bv diag(sigma) q^H and R_hp_hp = q diag(sigma^2) q^H.  The sweep
    keeps one per (config, truncated profile): every antenna port pilots the
    same comb, so one model serves them all.
    """

    q: np.ndarray  # (n_pilots, rank) left singular vectors of A
    sigma: np.ndarray  # (rank,) singular values of A, descending
    bv: np.ndarray  # (n_used, rank) B V

    def __post_init__(self) -> None:
        for a in (self.q, self.sigma, self.bv):
            a.setflags(write=False)

    @property
    def n_pilots(self) -> int:
        return self.q.shape[0]


def ls_estimate(y_p: np.ndarray, x_p: np.ndarray) -> np.ndarray:
    """Least-squares pilot estimates: elementwise y_p / x_p.

    Pilots run along the last axis of both arrays, and x_p broadcasts against
    y_p: an (n_pilots,) pilot vector serves an (n_rx, n_pilots) stack of
    observations, and (n_tx, 1, n_pilots) pilots serve (n_tx, n_rx, n_pilots).
    """
    y_p = np.asarray(y_p, dtype=np.complex128)
    x_p = np.asarray(x_p, dtype=np.complex128)
    if x_p.ndim == 0 or y_p.shape[-1:] != x_p.shape[-1:]:
        raise ValueError(f"length mismatch: y_p {y_p.shape} vs x_p {x_p.shape}")
    if np.any(x_p == 0):
        raise ValueError("pilot value is zero; cannot invert")
    return y_p / x_p


def ls_interpolation_matrix(pilot_positions: np.ndarray, n_used: int) -> np.ndarray:
    """(n_used, n_pilots) matrix that extends pilot LS estimates to all used
    subcarriers: h_ls @ L.T.

    Linear interpolation between adjacent pilots and constant extrapolation
    beyond the first/last pilot.  Interpolation is linear in the pilot values,
    so column j is the interpolation of the j-th unit vector.
    """
    positions = np.asarray(pilot_positions, dtype=np.int64)
    if positions.ndim != 1 or positions.size < 2:
        raise ValueError("need at least 2 pilots to interpolate")
    order = np.argsort(positions)
    k = np.arange(n_used)
    # column j interpolates pilot j's unit vector, listed in ascending position order
    return np.column_stack(
        [np.interp(k, positions[order], (order == j).astype(np.float64)) for j in range(order.size)]
    )


def build_correlation_model(
    pdp: PowerDelayProfile, pilot_positions: np.ndarray, config: SystemConfig
) -> CorrelationModel:
    """Factors of r(k, k') = sum_l p_l * exp(-2j*pi*(k-k')*tau_l/N) = (B B^H)[k, k'].

    Positions are used-subcarrier indices; the phase term uses their absolute
    FFT bins, so the guard-band gap around DC is accounted for exactly.  One
    thin SVD of the (n_pilots, n_taps) pilot rows A of B serves every SNR.
    """
    positions = np.asarray(pilot_positions, dtype=np.int64)
    if positions.ndim != 1 or positions.size == 0:
        raise ValueError("pilot_positions must be a non-empty 1-D index array")
    if positions.min() < 0 or positions.max() >= config.n_used:
        raise ValueError("pilot position outside [0, n_used)")
    n = config.n_fft
    # bin * delay reduced modulo N in integers keeps the phase argument in [0, 2*pi)
    bin_delay = np.outer(used_subcarrier_bins(config), pdp.tap_delays) % n
    b = np.exp(-2j * np.pi / n * bin_delay) * np.sqrt(pdp.tap_powers)
    q, sigma, v_h = np.linalg.svd(b[positions], full_matrices=False)
    return CorrelationModel(q=q, sigma=sigma, bv=b @ v_h.conj().T)


def lmmse_filter(corr: CorrelationModel, regularizer: float) -> tuple[np.ndarray, np.ndarray]:
    """Factors (F, G) of W = R_hh_p (R_hp_hp + lambda I)^-1 = F @ G; W itself
    is never formed.

    Push-through gives W = B (A^H A + lambda I)^-1 A^H
    = (B V) diag(sigma / (sigma^2 + lambda)) Q^H, so F is the model's bv,
    (n_used, rank), and G the (rank, n_pilots) scaled Q^H.  lambda = 0 (an
    infinite SNR) makes the inverse a pseudo-inverse: an eigenvalue sigma^2 of
    R_hp_hp at or below n_pilots * eps * max(sigma^2), the cutoff numpy's pinv
    and matrix_rank use, is rounding noise of a zero eigenvalue and gets
    weight 0 instead of 1/sigma.
    """
    lam = float(regularizer)
    if not lam >= 0.0:
        raise ValueError("regularizer must be non-negative")
    sigma, s2 = corr.sigma, corr.sigma**2
    if lam > 0.0:
        gain = sigma / (s2 + lam)
    else:
        keep = s2 > corr.n_pilots * np.finfo(np.float64).eps * s2.max()
        gain = np.zeros_like(sigma)
        gain[keep] = 1.0 / sigma[keep]
    return corr.bv, gain[:, None] * corr.q.conj().T


def beta_for_constellation(constellation: Constellation) -> float:
    """Constellation scaling factor of the simplified LMMSE regularizer."""
    if constellation is Constellation.QPSK:
        return 1.0
    if constellation is Constellation.QAM16:
        return 17.0 / 9.0
    raise ValueError(f"unsupported constellation: {constellation!r}")


@dataclass(frozen=True)
class HybridPolicy:
    """Branch rule of the hybrid estimator: the one place it picks LS or LMMSE.

    A channel the CP covers (channel_len_hint <= cp_len + 1: every tap delay
    fits in the prefix, so there is no ISI) always selects LMMSE; otherwise
    the received SNR decides: below snr_threshold_db LMMSE, at or above it LS.
    """

    cp_len: int
    channel_len_hint: int
    snr_threshold_db: float

    def __post_init__(self) -> None:
        if self.channel_len_hint < 1:
            raise ValueError("channel_len_hint must be at least 1")
        if np.isnan(self.snr_threshold_db):
            raise ValueError("snr_threshold_db must not be NaN")

    def chooses_ls(self, snr_db: float) -> bool:
        if self.channel_len_hint <= self.cp_len + 1:
            return False
        return snr_db >= self.snr_threshold_db


def _crossover_from_curves(
    snrs_db: np.ndarray, mse_ls: np.ndarray, mse_lmmse: np.ndarray
) -> float:
    """SNR where the LS and LMMSE MSE curves cross (log-domain interpolation).

    Returns +inf when LMMSE stays below LS over the whole grid (always LMMSE)
    and -inf when LS is already at or below LMMSE at the lowest SNR with no
    later upward crossing (always LS).
    """
    snrs_db = np.asarray(snrs_db, dtype=np.float64)
    mse_ls = np.asarray(mse_ls, dtype=np.float64)
    mse_lmmse = np.asarray(mse_lmmse, dtype=np.float64)
    if snrs_db.size == 0:
        raise ValueError("empty SNR grid")
    if mse_ls.shape != snrs_db.shape or mse_lmmse.shape != snrs_db.shape:
        raise ValueError("curves must parallel the SNR grid")
    if np.any(mse_ls <= 0) or np.any(mse_lmmse <= 0):
        raise ValueError("MSE curves must be positive")
    # d > 0 where LMMSE is the better estimator
    d = np.log(mse_ls) - np.log(mse_lmmse)
    for i in range(len(d) - 1):
        if d[i] > 0 >= d[i + 1]:
            frac = d[i] / (d[i] - d[i + 1])
            return float(snrs_db[i] + frac * (snrs_db[i + 1] - snrs_db[i]))
    if d[0] <= 0:
        return -np.inf
    return np.inf


def calibrate_threshold(
    config: SystemConfig,
    pdp_long: PowerDelayProfile,
    sweep_snrs_db: np.ndarray,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Locate the LS/LMMSE switching SNR for a CP-exceeding channel.

    Runs a paired Monte Carlo MSE sweep of both estimators through the full
    transmit/channel/receive chain and returns the SNR where the two curves
    cross, linearly interpolated between grid points.  Sentinels: +inf when
    LMMSE never loses (always LMMSE), -inf when LS never loses (always LS).
    """
    from . import harness  # local import; the harness owns the cell routine

    snrs = np.asarray(sweep_snrs_db, dtype=np.float64)
    if snrs.size == 0:
        raise ValueError("empty SNR grid")
    if pdp_long.span <= config.cp_len + 1:
        raise ValueError(
            f"calibration needs a channel exceeding the CP; got span "
            f"{pdp_long.span} with cp_len {config.cp_len}"
        )
    if trials < 1:
        raise ValueError("need at least one trial")
    mse_ls, mse_lmmse = harness.paired_mse_curves(config, pdp_long, snrs, trials, rng)
    return _crossover_from_curves(snrs, mse_ls, mse_lmmse)
