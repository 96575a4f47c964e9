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
    """IDFT + cyclic prefix for a whole (n_antennas, n_used, n_symbols) grid.

    Used subcarriers are scattered into their FFT bins (all other bins zero),
    the unitary inverse DFT is applied per symbol, and the last cp_len output
    samples are prepended as the cyclic prefix.  Returns the
    (n_antennas, n_symbols * symbol_len) sample streams.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 3 or values.shape[1] != config.n_used:
        raise ValueError(
            f"grid must be (antennas, {config.n_used}, symbols); got {values.shape}"
        )
    bins = used_subcarrier_bins(config)
    n_ant, _, n_sym = values.shape
    spectrum = np.zeros((n_ant, n_sym, config.n_fft), dtype=np.complex128)
    spectrum[:, :, bins] = values.transpose(0, 2, 1)
    time = np.fft.ifft(spectrum, axis=-1) * np.sqrt(config.n_fft)
    if config.cp_len:
        time = np.concatenate([time[:, :, -config.cp_len :], time], axis=-1)
    return time.reshape(n_ant, -1)


def demodulate_frame(samples: np.ndarray, config: SystemConfig) -> np.ndarray:
    """CP removal + DFT + used-bin extraction of (antennas, n_samples) streams;
    returns (antennas, n_used, n_symbols)."""
    samples = np.atleast_2d(samples)
    n_ant, n_samples = samples.shape
    if n_samples % config.symbol_len != 0:
        raise ValueError(
            f"stream length {n_samples} is not a multiple of symbol length "
            f"{config.symbol_len}"
        )
    sym = samples.reshape(n_ant, -1, config.symbol_len)[:, :, config.cp_len :]
    spectrum = np.fft.fft(sym, axis=-1) / np.sqrt(config.n_fft)
    return spectrum[:, :, used_subcarrier_bins(config)].transpose(0, 2, 1)

