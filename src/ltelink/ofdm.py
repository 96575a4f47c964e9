"""OFDM modulation and demodulation.

Unitary DFT convention (1/sqrt(N) both ways), so signal power is preserved
across the transform and a cyclic prefix equal to the last cp_len time samples
is prepended to every symbol.  The tests check the FFT against the explicit
coefficient matrix exp(-2j*pi*l*k/N)/sqrt(N).
"""

from __future__ import annotations

import numpy as np

from .grid import SystemConfig, used_subcarrier_bins

__all__ = ["modulate_frame", "demodulate_frame"]


def modulate_frame(values: np.ndarray, config: SystemConfig) -> np.ndarray:
    """IDFT + cyclic prefix for a whole (n_antennas, n_symbols, n_used) grid.

    Used subcarriers are scattered into their FFT bins (all other bins zero),
    the unitary inverse DFT is applied per symbol, and the last cp_len output
    samples are prepended as the cyclic prefix.  Returns the
    (n_antennas, n_symbols * symbol_len) sample streams.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 3 or values.shape[2] != config.n_used:
        raise ValueError(
            f"grid must be (antennas, symbols, {config.n_used}); got {values.shape}"
        )
    bins = used_subcarrier_bins(config)
    n_ant, n_sym, _ = values.shape
    cp, n_fft = config.cp_len, config.n_fft
    # each symbol's spectrum sits where its samples go, after the prefix, and
    # the samples overwrite it: one buffer holds the spectrum and the output
    frames = np.zeros((n_ant, n_sym, cp + n_fft), dtype=np.complex128)
    frames[:, :, cp + bins] = values
    time = np.fft.ifft(frames[:, :, cp:], axis=-1)
    time *= np.sqrt(n_fft)
    frames[:, :, cp:] = time
    frames[:, :, :cp] = time[:, :, n_fft - cp :]
    return frames.reshape(n_ant, -1)


def demodulate_frame(samples: np.ndarray, config: SystemConfig) -> np.ndarray:
    """CP removal + DFT + used-bin extraction of (antennas, n_samples) streams;
    returns (antennas, n_symbols, n_used), the layout modulate_frame takes."""
    samples = np.atleast_2d(samples)
    n_ant, n_samples = samples.shape
    if n_samples % config.symbol_len != 0:
        raise ValueError(
            f"stream length {n_samples} is not a multiple of symbol length "
            f"{config.symbol_len}"
        )
    sym = samples.reshape(n_ant, -1, config.symbol_len)[:, :, config.cp_len :]
    spectrum = np.fft.fft(sym, axis=-1)[:, :, used_subcarrier_bins(config)]
    spectrum /= np.sqrt(config.n_fft)
    return spectrum

