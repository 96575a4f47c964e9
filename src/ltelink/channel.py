"""Rayleigh tap-delay-line MIMO channels and receiver noise.

One realization is drawn per slot (block fading).  In each DFT window the
linear convolution of the transmitted symbols is the circular convolution of
the window's symbol, which demodulates to H * X exactly, plus an overrun: what
the taps delayed past the cyclic prefix read from the previous symbol instead
of the cyclic extension.  So the received grid is H * X + DFT(overrun +
noise), with genuine ISI/ICI whenever the delay spread exceeds the CP.  The
overrun fills the first span - 1 - cp_len samples of a window, its head, and,
as the span never exceeds the FFT size, reaches back one symbol only.  Only
the heads are formed, the tail of an FFT convolution with the past-CP taps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import SystemConfig

__all__ = [
    "PowerDelayProfile",
    "ChannelRealization",
    "generate_channel",
    "overrun",
    "MIN_SNR_DB",
    "noise_variance",
    "add_awgn",
]


@dataclass(frozen=True)
class PowerDelayProfile:
    """Average tap powers at integer-sample delays, normalized to unit energy;
    profiles compare and hash by value."""

    tap_delays: np.ndarray = field(compare=False)
    tap_powers: np.ndarray = field(compare=False)
    _values: tuple = field(init=False, repr=False)  # (delays, powers) as tuples

    def __post_init__(self) -> None:
        delays = np.asarray(self.tap_delays, dtype=np.int64)
        powers = np.asarray(self.tap_powers, dtype=np.float64)
        if delays.ndim != 1 or powers.shape != delays.shape or delays.size == 0:
            raise ValueError("tap_delays and tap_powers must be equal-length 1-D arrays")
        if delays[0] != 0 or np.any(np.diff(delays) <= 0):
            raise ValueError("tap delays must be strictly increasing and start at 0")
        if not np.all(np.isfinite(powers) & (powers >= 0)):
            raise ValueError("tap powers must be finite and non-negative")
        if abs(powers.sum() - 1.0) > 1e-12:
            raise ValueError(f"tap powers must sum to 1, got {powers.sum()!r}")
        object.__setattr__(self, "tap_delays", delays)
        object.__setattr__(self, "tap_powers", powers)
        object.__setattr__(self, "_values", (tuple(delays.tolist()), tuple(powers.tolist())))
        delays.setflags(write=False)
        powers.setflags(write=False)

    @classmethod
    def uniform(cls, n_taps: int) -> "PowerDelayProfile":
        """n_taps consecutive-sample taps of equal average power."""
        if n_taps < 1:
            raise ValueError("need at least one tap")
        return cls(np.arange(n_taps), np.full(n_taps, 1.0 / n_taps))

    @property
    def n_taps(self) -> int:
        return len(self.tap_delays)

    @property
    def span(self) -> int:
        """Impulse-response length in samples (max delay + 1)."""
        return int(self.tap_delays[-1]) + 1

    def truncated(self, max_delay: int) -> "PowerDelayProfile":
        """The taps at delays below max_delay, powers renormalized to unit energy."""
        if max_delay >= self.span:
            return self
        keep = self.tap_delays < max_delay
        powers = self.tap_powers[keep]
        if not powers.sum() > 0:
            raise ValueError(f"no tap power at delays below {max_delay}")
        return PowerDelayProfile(self.tap_delays[keep], powers / powers.sum())


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Complex tap gains of every (tx, rx) pair from one profile; leading axes stack trials."""

    taps: np.ndarray  # (..., n_tx, n_rx, n_taps) complex128
    pdp: PowerDelayProfile

    def __post_init__(self) -> None:
        taps = np.asarray(self.taps, dtype=np.complex128)
        if taps.ndim < 3 or taps.shape[-1] != self.pdp.n_taps:
            raise ValueError("taps must be (..., n_tx, n_rx, n_taps) matching the profile")
        object.__setattr__(self, "taps", taps)
        taps.setflags(write=False)

    @property
    def n_tx(self) -> int:
        return self.taps.shape[-3]

    @property
    def n_rx(self) -> int:
        return self.taps.shape[-2]

    def impulse_responses(self) -> np.ndarray:
        """Dense (..., n_tx, n_rx, span) responses with taps at their delays."""
        out = np.zeros((*self.taps.shape[:-1], self.pdp.span), dtype=np.complex128)
        out[..., self.pdp.tap_delays] = self.taps
        return out

    def frequency_responses(self, n_fft: int, bins: np.ndarray | None = None) -> np.ndarray:
        """Exact per-pair responses H_k = sum_l g_l exp(-2j*pi*k*tau_l/n_fft).

        No 1/sqrt(N) factor: with the unitary modem this makes the
        per-subcarrier model Y = H * X + W hold exactly for CP-covered
        channels.  Optionally restricted to bins.  The (..., n_tx, n_rx,
        bins) result is C-contiguous, bins innermost, the slot layout's
        subcarrier axis in memory too.
        """
        if self.pdp.span > n_fft:
            raise ValueError(f"channel span {self.pdp.span} exceeds the FFT size {n_fft}")
        h = np.fft.fft(self.impulse_responses(), n_fft, axis=-1)
        # h[..., bins] would lay the bins outermost in memory
        return h if bins is None else np.take(h, bins, axis=-1)


def generate_channel(
    pdp: PowerDelayProfile, n_tx: int, n_rx: int, rng: np.random.Generator
) -> ChannelRealization:
    """Draw i.i.d. circularly-symmetric Gaussian taps (Rayleigh magnitudes).

    Tap l has variance tap_powers[l]; all (tx, rx) pairs are independent.
    """
    shape = (n_tx, n_rx, pdp.n_taps)
    scale = np.sqrt(pdp.tap_powers / 2.0)
    taps = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return ChannelRealization(taps=taps, pdp=pdp)


def overrun(frames: np.ndarray, ch: ChannelRealization, config: SystemConfig) -> np.ndarray:
    """Linear minus circular channel output at the head of every DFT window.

    Modulated (..., n_tx, n_symbols, symbol_len) frames, with the leading axes of
    ch, give the (..., n_rx, n_symbols, n_over) heads, n_over = max(span - 1 -
    cp_len, 0); every later window sample is zero.  Head sample i gets, from each
    tap delayed past i + cp_len, the previous symbol's sample (zero before the
    first) minus the cyclic one it replaces, for every trial, symbol and pair.
    """
    *lead, n_tx, n_sym, sym_len = frames.shape
    span, cp = ch.pdp.span, config.cp_len
    if n_tx != ch.n_tx:
        raise ValueError(f"signal has {n_tx} streams, channel expects {ch.n_tx}")
    if sym_len != config.symbol_len:
        raise ValueError(f"frames must be (..., symbols, {config.symbol_len}); got {frames.shape}")
    if span > config.n_fft:
        raise ValueError(f"channel span {span} exceeds the FFT size {config.n_fft}")
    n_over = span - 1 - cp
    if n_over <= 0:
        return np.zeros((*lead, ch.n_rx, n_sym, 0), dtype=np.complex128)
    # offset j of the last n_over samples before each window: what the
    # linear convolution reads minus the cyclic sample it replaces
    diff = -frames[..., sym_len - span + 1 : sym_len - cp]
    diff[..., 1:, :] += frames[..., :-1, sym_len - n_over :]
    # head sample i is sum_j diff[j] g[i + span - 1 - j], sample n_over - 1 + i
    # of diff convolved with g[cp + 1 : span]; a power-of-two FFT length beat
    # the prime 2 n_over - 1 at L = 100, cp 72
    n = 1 << (2 * n_over - 2).bit_length()
    taps = np.fft.fft(ch.impulse_responses()[..., cp + 1 :], n)
    coupled = np.einsum("...tsn,...trn->...rsn", np.fft.fft(diff, n), taps)  # s: symbol
    np.fft.ifft(coupled, out=coupled)
    return coupled[..., n_over - 1 : 2 * n_over - 1]


# The lowest valid SNR.  Its noise variance, 1e100, keeps every sum of a cell
# finite with room to spare: the first overflow, in zero-forcing's squared
# Frobenius norm of an LS estimate of that noise, shows between -1520 and
# -1540 dB.
MIN_SNR_DB = -1000.0


def noise_variance(snr_db: float) -> float:
    """Complex per-sample AWGN variance sigma_w^2 = 1 / SNR, the per-subcarrier
    SNR after the unitary DFT, as every constellation has unit average symbol
    power.  +inf, the no-noise sentinel, and an SNR whose power overflows give
    0; NaN, -inf and any SNR below MIN_SNR_DB are invalid."""
    snr_db = float(snr_db)
    if not snr_db >= MIN_SNR_DB:
        raise ValueError(f"invalid snr_db: {snr_db} (the lowest valid SNR is {MIN_SNR_DB:g} dB)")
    try:
        return 1.0 / 10.0 ** (snr_db / 10.0)
    except OverflowError:  # 10 ** (snr / 10) overflows: no noise, as at +inf
        return 0.0


def add_awgn(signal: np.ndarray, noise_variance: float, rng: np.random.Generator) -> None:
    """Add i.i.d. complex Gaussian samples of variance noise_variance to the
    complex128 array signal, in place; one (2, *signal.shape) draw gives their
    real parts, then their imaginary parts.  At variance 0 nothing is drawn
    and signal is left as it is."""
    if signal.dtype != np.complex128:
        raise ValueError(f"signal must be complex128, got {signal.dtype}")
    if not (math.isfinite(noise_variance) and noise_variance >= 0.0):
        raise ValueError(f"noise_variance must be finite and non-negative, got {noise_variance!r}")
    if noise_variance == 0.0:
        return
    w = rng.standard_normal((2, *signal.shape))
    w *= np.sqrt(noise_variance / 2.0)
    signal.real += w[0]
    signal.imag += w[1]
