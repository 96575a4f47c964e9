"""Pilot-based channel estimators: LS, LMMSE, and the length-aware hybrid.

The LS estimate is the per-pilot division of received by transmitted pilots,
extended to data subcarriers by linear interpolation.  The LMMSE estimator
filters the LS pilot estimates through the channel frequency-correlation
matrices derived from a power-delay profile, in both the exact-noise form and
the simplified beta/SNR form (identical for unit-modulus pilots and beta=1).
The hybrid estimator picks LMMSE whenever the cyclic prefix covers the channel
and otherwise switches between LMMSE (low SNR) and LS (high SNR) at a
calibrated threshold.
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
    "build_correlation_model",
    "lmmse_filter",
    "lmmse_estimate_full",
    "lmmse_estimate_simplified",
    "beta_for_constellation",
    "interpolate_ls",
    "calibrate_threshold",
]

_JITTER = 1e-12  # diagonal loading used when the exact form is run with zero noise


@dataclass(frozen=True)
class CorrelationModel:
    """Frequency-correlation matrices of the channel under a tap-delay profile.

    r_hh_p cross-correlates every used subcarrier with the pilot subcarriers
    (it performs the interpolation); r_hp_hp is the Hermitian PSD pilot
    autocorrelation, the restriction of the same model to pilot rows/columns.
    The sweep keeps one per (config, truncated profile): every antenna port
    pilots the same comb, so one model and one filter serve them all.
    """

    r_hh_p: np.ndarray  # (n_used, n_pilot)
    r_hp_hp: np.ndarray  # (n_pilot, n_pilot)

    def __post_init__(self) -> None:
        r_hh_p = np.asarray(self.r_hh_p, dtype=np.complex128)
        r_hp_hp = np.asarray(self.r_hp_hp, dtype=np.complex128)
        if r_hh_p.shape[1] != r_hp_hp.shape[0] or r_hp_hp.shape[0] != r_hp_hp.shape[1]:
            raise ValueError("inconsistent correlation matrix shapes")
        object.__setattr__(self, "r_hh_p", r_hh_p)
        object.__setattr__(self, "r_hp_hp", r_hp_hp)
        for a in (r_hh_p, r_hp_hp):
            a.setflags(write=False)

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


def build_correlation_model(
    pdp: PowerDelayProfile, pilot_positions: np.ndarray, config: SystemConfig
) -> CorrelationModel:
    """Closed-form correlation r(k, k') = sum_l p_l * exp(-2j*pi*(k-k')*tau_l/N).

    Positions are used-subcarrier indices; the phase term uses their absolute
    FFT bins, so the guard-band gap around DC is accounted for exactly.
    """
    positions = np.asarray(pilot_positions, dtype=np.int64)
    if positions.ndim != 1 or positions.size == 0:
        raise ValueError("pilot_positions must be a non-empty 1-D index array")
    if positions.min() < 0 or positions.max() >= config.n_used:
        raise ValueError("pilot position outside [0, n_used)")
    bins = used_subcarrier_bins(config)
    pilot_bins = bins[positions]

    def corr(bins_a: np.ndarray, bins_b: np.ndarray) -> np.ndarray:
        delta = bins_a[:, None] - bins_b[None, :]
        phases = np.exp(
            -2j * np.pi * delta[..., None] * pdp.tap_delays / config.n_fft
        )
        return phases @ pdp.tap_powers.astype(np.complex128)

    return CorrelationModel(
        r_hh_p=corr(bins, pilot_bins),
        r_hp_hp=corr(pilot_bins, pilot_bins),
    )


def lmmse_filter(corr: CorrelationModel, regularizer: np.ndarray | float) -> np.ndarray:
    """W = R_hh_p (R_hp_hp + D)^-1 with D diagonal.

    regularizer is either a scalar (lambda * I) or a per-pilot diagonal vector.
    A zero regularizer gets a fixed 1e-12 diagonal loading so a rank-deficient
    pilot autocorrelation stays invertible.
    """
    n = corr.n_pilots
    diag = np.broadcast_to(np.asarray(regularizer, dtype=np.float64), (n,))
    if np.any(diag < 0):
        raise ValueError("regularizer must be non-negative")
    if np.any(diag == 0.0):
        diag = diag + _JITTER
    a = corr.r_hp_hp + np.diag(diag)
    return np.linalg.solve(a.T, corr.r_hh_p.T).T


def lmmse_estimate_full(
    h_ls: np.ndarray, corr: CorrelationModel, x_p: np.ndarray, sigma_w2: float
) -> np.ndarray:
    """Exact-noise LMMSE: R_hh_p (R_hp_hp + sigma^2 diag(|x_p|^2)^-1)^-1 h_ls."""
    h_ls = np.asarray(h_ls, dtype=np.complex128)
    x_p = np.asarray(x_p, dtype=np.complex128)
    if h_ls.shape != (corr.n_pilots,) or x_p.shape != (corr.n_pilots,):
        raise ValueError("h_ls and x_p must match the model's pilot dimension")
    if sigma_w2 < 0:
        raise ValueError("noise variance must be non-negative")
    if np.any(x_p == 0):
        raise ValueError("pilot value is zero; (X X^H)^-1 undefined")
    return lmmse_filter(corr, sigma_w2 / np.abs(x_p) ** 2) @ h_ls


def lmmse_estimate_simplified(
    h_ls: np.ndarray, corr: CorrelationModel, snr_linear: float, beta: float
) -> np.ndarray:
    """Simplified LMMSE: R_hh_p (R_hp_hp + (beta/SNR) I)^-1 h_ls."""
    h_ls = np.asarray(h_ls, dtype=np.complex128)
    if h_ls.shape != (corr.n_pilots,):
        raise ValueError("h_ls must match the model's pilot dimension")
    if not snr_linear > 0:
        raise ValueError(f"snr_linear must be positive, got {snr_linear}")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    return lmmse_filter(corr, beta / snr_linear) @ h_ls


def beta_for_constellation(constellation: Constellation) -> float:
    """Constellation scaling factor of the simplified LMMSE regularizer."""
    if constellation is Constellation.QPSK:
        return 1.0
    if constellation is Constellation.QAM16:
        return 17.0 / 9.0
    raise ValueError(f"unsupported constellation: {constellation!r}")


def interpolate_ls(h_p: np.ndarray, pilot_positions: np.ndarray, n_used: int) -> np.ndarray:
    """Extend pilot LS estimates to all used subcarriers.

    Linear interpolation of real and imaginary parts between adjacent pilots;
    constant extrapolation beyond the first/last pilot.
    """
    h_p = np.asarray(h_p, dtype=np.complex128)
    positions = np.asarray(pilot_positions, dtype=np.int64)
    if h_p.shape != positions.shape:
        raise ValueError("h_p and pilot_positions must have equal length")
    if len(positions) < 2:
        raise ValueError("need at least 2 pilots to interpolate")
    order = np.argsort(positions)
    pos, vals = positions[order], h_p[order]
    k = np.arange(n_used)
    return np.interp(k, pos, vals.real) + 1j * np.interp(k, pos, vals.imag)


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
