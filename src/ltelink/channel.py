"""Rayleigh tap-delay-line MIMO channels and receiver noise.

One realization is drawn per slot (block fading).  In each DFT window the
linear convolution of the stream is the circular convolution of the window's
symbol, which demodulates to H * X exactly, plus an overrun: what the taps
delayed past the cyclic prefix read from the previous symbol instead of the
cyclic extension.  So the received grid is H * X + DFT(overrun + noise), with
genuine ISI/ICI whenever the delay spread exceeds the CP.  The overrun fills
the first span - 1 - cp_len samples of a window and, as the span never
exceeds the FFT size, reaches back one symbol only.  It is the tail of a short
FFT convolution with the taps past the CP, and no plan is memoized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import SystemConfig

__all__ = [
    "PowerDelayProfile",
    "ChannelRealization",
    "NoiseSpec",
    "generate_channel",
    "overrun",
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


@dataclass(frozen=True)
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
        channels.  Optionally restricted to bins.
        """
        if self.pdp.span > n_fft:
            raise ValueError(f"channel span {self.pdp.span} exceeds the FFT size {n_fft}")
        h = np.fft.fft(self.impulse_responses(), n_fft, axis=-1)
        return h if bins is None else h[..., bins]


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


def overrun(tx: np.ndarray, ch: ChannelRealization, config: SystemConfig) -> np.ndarray:
    """Linear minus circular channel output in every DFT window, (..., n_rx, n_samples).

    tx holds the modulated (..., n_tx, n_samples) streams of whole symbols,
    with the leading axes of ch.  Window sample i gets, from each tap delayed
    past i + cp_len, the previous symbol's sample (zero before the first)
    minus the cyclic one it replaces, for every trial, symbol and pair at once.
    """
    *lead, n_tx, n_samples = tx.shape
    span, cp, sym_len = ch.pdp.span, config.cp_len, config.symbol_len
    if n_tx != ch.n_tx:
        raise ValueError(f"signal has {n_tx} streams, channel expects {ch.n_tx}")
    if span > config.n_fft:
        raise ValueError(f"channel span {span} exceeds the FFT size {config.n_fft}")
    out = np.zeros((*lead, ch.n_rx, n_samples // sym_len, sym_len), dtype=np.complex128)
    n_over = span - 1 - cp
    if n_over > 0:
        frames = tx.reshape(*lead, n_tx, -1, sym_len)
        # offset j of the last n_over samples before each window: what the
        # linear convolution reads minus the cyclic sample it replaces
        diff = -frames[..., sym_len - span + 1 : sym_len - cp]
        diff[..., 1:, :] += frames[..., :-1, sym_len - n_over :]
        # window sample i is sum_j diff[j] g[i + span - 1 - j], sample n_over - 1 + i
        # of diff convolved with g[cp + 1 : span]; a power-of-two FFT length
        # beat the prime 2 n_over - 1 at L = 100, cp 72
        n = 1 << (2 * n_over - 2).bit_length()
        taps = np.fft.fft(ch.impulse_responses()[..., cp + 1 :], n)
        coupled = np.einsum("...tsn,...trn->...rsn", np.fft.fft(diff, n), taps)  # s: symbol
        out[..., cp : cp + n_over] = np.fft.ifft(coupled)[..., n_over - 1 : 2 * n_over - 1]
    return out.reshape(*lead, ch.n_rx, n_samples)


# Average symbol power of every constellation here: unit-power QPSK and 16-QAM.
_SIGNAL_POWER = 1.0


@dataclass(frozen=True)
class NoiseSpec:
    """Receiver AWGN level: per-sample variance = signal power / SNR.

    snr_db=+inf is the documented no-noise sentinel; NaN and -inf are invalid.
    Every constellation has unit average symbol power, so the per-subcarrier
    SNR after the unitary DFT equals the configured value.
    """

    snr_db: float

    def __post_init__(self) -> None:
        if np.isnan(self.snr_db) or self.snr_db == -np.inf:
            raise ValueError(f"invalid snr_db: {self.snr_db}")

    @property
    def noise_variance(self) -> float:
        """Complex per-sample variance sigma_w^2 (0 for the no-noise sentinel)."""
        if np.isinf(self.snr_db):
            return 0.0
        return _SIGNAL_POWER / 10.0 ** (self.snr_db / 10.0)


def add_awgn(signal: np.ndarray, noise: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """A new complex array, signal plus i.i.d. complex Gaussian samples of
    variance noise.noise_variance; one (2, *signal.shape) draw gives their
    real parts, then their imaginary parts.  At SNR = +inf nothing is drawn
    and signal itself is returned, not a copy."""
    signal = np.asarray(signal)
    var = noise.noise_variance
    if var == 0.0:
        return signal
    w = rng.standard_normal((2, *signal.shape))
    w *= np.sqrt(var / 2.0)
    out = np.empty(signal.shape, dtype=np.complex128)
    np.add(signal.real, w[0], out=out.real)
    np.add(signal.imag, w[1], out=out.imag)
    return out
