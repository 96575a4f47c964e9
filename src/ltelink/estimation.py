"""Pilot-based channel estimators: LS, LMMSE, and the length-aware hybrid.

The LS estimate is the per-pilot division of received by transmitted pilots,
extended to data subcarriers by linear interpolation, which is one fixed
(n_used x n_pilots) matrix.  The LMMSE estimator filters the LS pilot
estimates through the channel frequency-correlation matrices of a
power-delay profile in the simplified beta/SNR form (the exact-noise form
coincides with it for unit-modulus pilots and beta=1).  The correlations
depend only on the bin offset, so a model gathers them from one lag table,
and it eigendecomposes its pilot autocorrelation once, which makes the filter
of every SNR one matrix product.  The hybrid estimator picks LMMSE whenever
the cyclic prefix covers the channel and otherwise switches between LMMSE
(low SNR) and LS (high SNR) at a calibrated threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Frequency-correlation matrices of the channel under a tap-delay profile.

    r_hh_p cross-correlates every used subcarrier with the pilot subcarriers
    (it performs the interpolation); r_hp_hp is the Hermitian PSD pilot
    autocorrelation, the restriction of the same model to pilot rows/columns.
    The sweep keeps one per (config, truncated profile): every antenna port
    pilots the same comb, so one model and one filter serve them all.

    Construction eigendecomposes r_hp_hp = U diag(eigenvalues) U^H once and
    keeps r_hh_p U and U^H, so lmmse_filter needs no solve at any SNR.
    Eigenvalues that rounding leaves below zero are clipped to zero.
    """

    r_hh_p: np.ndarray  # (n_used, n_pilot)
    r_hp_hp: np.ndarray  # (n_pilot, n_pilot)
    eigenvalues: np.ndarray = field(init=False, repr=False)  # (n_pilot,) ascending
    r_hh_p_u: np.ndarray = field(init=False, repr=False)  # (n_used, n_pilot) r_hh_p U
    u_h: np.ndarray = field(init=False, repr=False)  # (n_pilot, n_pilot) U^H

    def __post_init__(self) -> None:
        r_hh_p = np.asarray(self.r_hh_p, dtype=np.complex128)
        r_hp_hp = np.asarray(self.r_hp_hp, dtype=np.complex128)
        if r_hh_p.shape[1] != r_hp_hp.shape[0] or r_hp_hp.shape[0] != r_hp_hp.shape[1]:
            raise ValueError("inconsistent correlation matrix shapes")
        s, u = np.linalg.eigh(r_hp_hp)
        fields = {
            "r_hh_p": r_hh_p,
            "r_hp_hp": r_hp_hp,
            "eigenvalues": np.maximum(s, 0.0),
            "r_hh_p_u": r_hh_p @ u,
            "u_h": u.conj().T,
        }
        for name, a in fields.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n_pilots(self) -> int:
        return self.r_hp_hp.shape[0]


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
    """Closed-form correlation r(k, k') = sum_l p_l * exp(-2j*pi*(k-k')*tau_l/N).

    Positions are used-subcarrier indices; the phase term uses their absolute
    FFT bins, so the guard-band gap around DC is accounted for exactly.  The
    correlation depends only on the bin offset k - k', so both matrices are
    gathered from one table over the 2N-1 offsets -(N-1)..N-1.
    """
    positions = np.asarray(pilot_positions, dtype=np.int64)
    if positions.ndim != 1 or positions.size == 0:
        raise ValueError("pilot_positions must be a non-empty 1-D index array")
    if positions.min() < 0 or positions.max() >= config.n_used:
        raise ValueError("pilot position outside [0, n_used)")
    bins = used_subcarrier_bins(config)
    pilot_bins = bins[positions]
    n = config.n_fft
    lags = np.arange(-(n - 1), n)
    phases = np.exp(-2j * np.pi * lags[:, None] * pdp.tap_delays / n)
    table = phases @ pdp.tap_powers.astype(np.complex128)  # offset d at index d + n - 1
    return CorrelationModel(
        r_hh_p=table[bins[:, None] - pilot_bins[None, :] + n - 1],
        r_hp_hp=table[pilot_bins[:, None] - pilot_bins[None, :] + n - 1],
    )


def lmmse_filter(corr: CorrelationModel, regularizer: float) -> np.ndarray:
    """W = R_hh_p (R_hp_hp + lambda I)^-1 = (R_hh_p U) diag(1/(s + lambda)) U^H.

    One matrix product on the model's eigendecomposition.  lambda = 0 (an
    infinite SNR) makes the inverse a pseudo-inverse: eigenvalues at or below
    n_pilots * eps * max(s), the cutoff numpy's pinv and matrix_rank use, are
    rounding noise of a zero eigenvalue and get weight 0 instead of 1/s.
    """
    lam = float(regularizer)
    if not lam >= 0.0:
        raise ValueError("regularizer must be non-negative")
    s = corr.eigenvalues
    if lam > 0.0:
        inv = 1.0 / (s + lam)
    else:
        keep = s > corr.n_pilots * np.finfo(np.float64).eps * s.max()
        inv = np.zeros_like(s)
        inv[keep] = 1.0 / s[keep]
    return (corr.r_hh_p_u * inv) @ corr.u_h


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
    from . import harness  # local import; the harness owns the trial chain

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
