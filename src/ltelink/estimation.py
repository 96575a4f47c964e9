"""Pilot-based channel estimators: LS, LMMSE, and the length-aware hybrid.

The LS estimate is the per-pilot division of received by transmitted pilots,
extended to data subcarriers by linear interpolation between the two nearest
pilots (Coleri et al., IEEE Trans. Broadcasting 48(3), 2002): two taps per
subcarrier, built once per pilot comb.  The LMMSE estimator filters the LS
pilot estimates through the channel frequency-correlation matrices of a
power-delay profile in the simplified beta/SNR form (the exact-noise form
coincides with it for unit-modulus pilots and beta=1); beta is the payload
constellation's, Constellation.beta in linkproc, and lmmse_filter takes
beta/SNR as one number.  Both correlation
matrices are products of the profile's tap-phase matrices, of rank at most
n_taps, so a model keeps one thin SVD, and the filter of every SNR is two thin
factors (the low-rank form of Edfors et al., IEEE Trans. Commun. 46(7), 1998,
exact rather than truncated).  The hybrid estimator picks LMMSE whenever
the cyclic prefix covers the channel and otherwise switches between LMMSE
(low SNR) and LS (high SNR) at a threshold: where the LS and LMMSE MSE curves
first cross (_crossover).  A sweep reads that crossing off its own rows
(harness._hybrid_threshold); calibrate_threshold measures it on an
independent replicate for the benchmark's calibrate_5mhz workload alone.

The receiver's LMMSE filter (lmmse_factors) assumes a prior: the channel
profile truncated to the cyclic prefix.  Its correlation model depends only
on the configuration, which fixes the pilot comb, and on that truncated
profile, so it is built once per (config, truncated profile) and memoized:
the antenna ports, the channel lengths that truncate alike and
calibrate_threshold share it, and with it its SVD.  Each cell's filter is
then two thin factors, never multiplied out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channel import PowerDelayProfile
from .grid import SystemConfig, build_pilot_pattern, used_subcarrier_bins

__all__ = [
    "CorrelationModel",
    "LsTaps",
    "ls_estimate",
    "ls_interpolation_taps",
    "interpolate_ls",
    "build_correlation_model",
    "lmmse_filter",
    "lmmse_factors",
    "calibrate_threshold",
]


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class LsTaps:
    """Linear interpolation of pilot estimates onto every used subcarrier.

    Subcarrier k reads two pilots, indexed in the caller's pilot order:
    h[k] = (1 - weight[k]) * h_p[below[k]] + weight[k] * h_p[above[k]].  A
    subcarrier outside the comb copies the end pilot (weight 0 below the first
    pilot, 1 above the last one).
    """

    below: np.ndarray  # (n_used,) index of the pilot at or below k
    above: np.ndarray  # (n_used,) index of the next pilot up
    weight: np.ndarray  # (n_used,) weight of the pilot above, in [0, 1]
    n_pilots: int

    def __post_init__(self) -> None:
        for a in (self.below, self.above, self.weight):
            a.setflags(write=False)


def ls_interpolation_taps(pilot_positions: np.ndarray, n_used: int) -> LsTaps:
    """The two interpolation taps of each of n_used subcarriers from pilots at
    pilot_positions, given in any order."""
    positions = np.asarray(pilot_positions, dtype=np.int64)
    if positions.ndim != 1 or positions.size < 2:
        raise ValueError("need at least 2 pilots to interpolate")
    order = np.argsort(positions)
    pos = positions[order]
    if np.any(pos[1:] == pos[:-1]):
        raise ValueError("pilot positions must be distinct")
    k = np.arange(n_used)
    # sorted index of the pilot below k, clamped so that pilot j + 1 exists
    j = np.clip(np.searchsorted(pos, k, side="right") - 1, 0, pos.size - 2)
    weight = np.clip((k - pos[j]) / (pos[j + 1] - pos[j]), 0.0, 1.0)
    return LsTaps(below=order[j], above=order[j + 1], weight=weight, n_pilots=pos.size)


def interpolate_ls(h_ls: np.ndarray, taps: LsTaps) -> np.ndarray:
    """Extend pilot LS estimates, along the last axis of h_ls, to all used
    subcarriers: (1 - t) * h_lo + t * h_hi, C-contiguous, subcarriers
    innermost."""
    if h_ls.shape[-1] != taps.n_pilots:
        raise ValueError(f"h_ls has {h_ls.shape[-1]} pilots, the taps {taps.n_pilots}")
    h = np.take(h_ls, taps.below, axis=-1) * (1.0 - taps.weight)
    h += np.take(h_ls, taps.above, axis=-1) * taps.weight
    return h


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


def lmmse_factors(
    config: SystemConfig, pdp: PowerDelayProfile, noise_variance: float
) -> tuple[np.ndarray, np.ndarray]:
    """The receiver's LMMSE filter factors (F, G), W = F @ G, for a channel of
    profile pdp, regularized by beta / SNR = beta * noise_variance.

    The receiver's prior keeps the taps at delays below cp_len: the
    demodulator is designed for delay spreads the CP absorbs, and a longer
    channel is precisely the unforeseen case the hybrid estimator exists for.
    """
    model = _memoized_model(config, pdp.truncated(config.cp_len))
    return lmmse_filter(model, config.constellation.beta * noise_variance)


@functools.lru_cache(maxsize=8)
def _memoized_model(config: SystemConfig, prior: PowerDelayProfile) -> CorrelationModel:
    """The model of one (config, truncated profile); the comb follows from the
    config.  Models are read-only, so callers share them; the bound caps memory."""
    return build_correlation_model(prior, build_pilot_pattern(config).comb, config)


def _crossover(points: Iterable[tuple[float, float, float]]) -> float:
    """SNR where the LS and LMMSE MSE curves first cross (log-domain interpolation).

    points yields (snr_db, mse_ls, mse_lmmse) in ascending SNR order; the
    search reads no point past the first grid pair where LMMSE stops being the
    better estimator.  Returns +inf when LMMSE stays below LS over the whole
    grid (always LMMSE) and -inf when LS is already at or below LMMSE at the
    lowest SNR with no later crossing back (always LS); both are known only
    once every point has been read.
    """
    first = prev = None
    for snr_db, mse_ls, mse_lmmse in points:
        if not (mse_ls > 0 and mse_lmmse > 0):
            raise ValueError("MSE curves must be positive")
        # d > 0 where LMMSE is the better estimator
        d = np.log(mse_ls) - np.log(mse_lmmse)
        if prev is None:
            first = d
        elif prev[1] > 0 >= d:
            frac = prev[1] / (prev[1] - d)
            return float(prev[0] + frac * (snr_db - prev[0]))
        prev = (snr_db, d)
    if first is None:
        raise ValueError("empty SNR grid")
    return -np.inf if first <= 0 else np.inf


def calibrate_threshold(
    config: SystemConfig,
    pdp_long: PowerDelayProfile,
    sweep_snrs_db: np.ndarray,
    n_frames: int,
    rng: np.random.Generator,
) -> float:
    """Locate the LS/LMMSE switching SNR for a CP-exceeding channel on an
    independent replicate of a sweep's LS and LMMSE rows.

    The replicate is the fixture of the benchmark's calibrate_5mhz workload:
    a sweep takes its threshold from its own rows and does not call this.
    Runs paired LS/LMMSE MSE cells of n_frames trials through the full chain
    (harness._run_cell, reading only the pilot symbols), one SNR at a time in
    ascending order, and returns the SNR where the all-subcarrier MSE curves
    first cross, interpolated linearly; the SNRs past it are never run.  Each
    cell's trials draw from n_frames children of rng, spawned as the cell
    runs; the pilots are always seed 0's.  Sentinels: +inf when LMMSE never
    loses, -inf when LS never loses; either runs the whole grid.  Before any
    draw, the inputs are checked by its own rules, a finite 1-D grid and a
    span past the CP, and by those of the sweep of these cells (SweepConfig).
    """
    from . import harness  # local import; the harness owns the cells and the sweep's rules

    snrs = np.asarray(sweep_snrs_db, dtype=np.float64)
    if snrs.ndim != 1 or np.any(snrs == np.inf):  # the sweep's rules refuse NaN and -inf
        raise ValueError("the SNR grid must be a finite 1-D array")
    if config.cp_covers(pdp_long.span):
        raise ValueError(
            f"calibration needs a channel exceeding the CP; got span "
            f"{pdp_long.span} with cp_len {config.cp_len}"
        )
    ls, lmmse = methods = (harness.Estimator.LS, harness.Estimator.LMMSE)
    sweep = harness.SweepConfig(config, (pdp_long.span,), snrs, n_frames, estimators=methods)
    ctx = harness._make_context(config, 0)
    # a generator: _crossover reads no point past the crossing, so no cell past it runs or draws
    cells = (
        harness._run_cell(ctx, pdp_long, s, rng.spawn(sweep.n_frames), methods, detect=False)
        for s in sweep.snr_grid_db
    )
    return _crossover((s, c[ls][0], c[lmmse][0]) for s, c in zip(sweep.snr_grid_db, cells))
