"""OFDM modulation and demodulation of (..., n_symbols, symbol_len) frames.

Unitary DFT convention (1/sqrt(N) both ways, numpy's norm="ortho", which
scales inside the FFT instead of in a pass of its own), so signal power is
preserved across the transform, and a cyclic prefix equal to the last cp_len
time samples is prepended to every symbol, one per row of a frame; leading
axes stack antennas and slots.  Both DFTs run in place (np.fft's out=, numpy
2.0 on).  The used subcarriers are the two contiguous runs of FFT bins of
grid.used_bin_runs, written and read as two slices, so the demodulated grid
is C-contiguous, subcarriers innermost, the slot layout in memory.  The tests
check the FFT against the explicit coefficient matrix
exp(-2j*pi*l*k/N)/sqrt(N).
"""

from __future__ import annotations

import numpy as np

from .grid import SystemConfig, used_bin_runs

__all__ = ["modulate_frame", "demodulate_frame"]


def modulate_frame(values: np.ndarray, config: SystemConfig) -> np.ndarray:
    """IDFT + cyclic prefix of a (..., n_symbols, n_used) grid.

    Used subcarriers are written into their FFT bins as two slices, the
    runs of used_bin_runs (all other bins zero), the unitary inverse DFT is
    applied per symbol, and the last cp_len output samples are prepended as
    the cyclic prefix.  Returns the (..., n_symbols, symbol_len) frames.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.shape[-1:] != (config.n_used,):
        raise ValueError(f"grid must be (..., symbols, {config.n_used}); got {values.shape}")
    low, high = used_bin_runs(config)
    n_low = low.stop - low.start
    cp, n_fft = config.cp_len, config.n_fft
    # each symbol's spectrum sits where its samples go, after the prefix, and
    # the inverse FFT overwrites it there: one buffer holds both
    frames = np.zeros((*values.shape[:-1], cp + n_fft), dtype=np.complex128)
    body = frames[..., cp:]
    body[..., low] = values[..., :n_low]
    body[..., high] = values[..., n_low:]
    np.fft.ifft(body, axis=-1, norm="ortho", out=body)
    frames[..., :cp] = frames[..., n_fft:]
    return frames


def demodulate_frame(frames: np.ndarray, config: SystemConfig) -> np.ndarray:
    """CP removal + DFT + used-bin extraction of complex128 (..., n_symbols,
    symbol_len) frames, whose samples after each prefix the DFT overwrites;
    returns a new C-contiguous (..., n_symbols, n_used) grid, the layout
    modulate_frame takes, copied from the two runs of used bins."""
    if frames.shape[-1:] != (config.symbol_len,):
        raise ValueError(f"frames must be (..., symbols, {config.symbol_len}); got {frames.shape}")
    body = frames[..., config.cp_len :]
    np.fft.fft(body, axis=-1, norm="ortho", out=body)
    low, high = used_bin_runs(config)
    n_low = low.stop - low.start
    grid = np.empty((*body.shape[:-1], config.n_used), dtype=np.complex128)
    grid[..., :n_low] = body[..., low]
    grid[..., n_low:] = body[..., high]
    return grid
