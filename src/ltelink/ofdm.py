"""OFDM modulation and demodulation of (..., n_symbols, symbol_len) frames.

Unitary DFT convention (1/sqrt(N) both ways, numpy's norm="ortho", which
scales inside the FFT instead of in a pass of its own), so signal power is
preserved across the transform, and a cyclic prefix equal to the last cp_len
time samples is prepended to every symbol, one per row of a frame; leading
axes stack antennas and slots.  Both DFTs run in place (np.fft's out=, numpy
2.0 on).  The tests check the FFT against the explicit coefficient matrix
exp(-2j*pi*l*k/N)/sqrt(N).
"""

from __future__ import annotations

import numpy as np

from .grid import SystemConfig, used_subcarrier_bins

__all__ = ["modulate_frame", "demodulate_frame"]


def modulate_frame(values: np.ndarray, config: SystemConfig) -> np.ndarray:
    """IDFT + cyclic prefix of a (..., n_symbols, n_used) grid.

    Used subcarriers are scattered into their FFT bins (all other bins zero),
    the unitary inverse DFT is applied per symbol, and the last cp_len output
    samples are prepended as the cyclic prefix.  Returns the
    (..., n_symbols, symbol_len) frames.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.shape[-1:] != (config.n_used,):
        raise ValueError(f"grid must be (..., symbols, {config.n_used}); got {values.shape}")
    bins = used_subcarrier_bins(config)
    cp, n_fft = config.cp_len, config.n_fft
    # each symbol's spectrum sits where its samples go, after the prefix, and
    # the inverse FFT overwrites it there: one buffer holds both
    frames = np.zeros((*values.shape[:-1], cp + n_fft), dtype=np.complex128)
    frames[..., cp + bins] = values
    np.fft.ifft(frames[..., cp:], axis=-1, norm="ortho", out=frames[..., cp:])
    frames[..., :cp] = frames[..., n_fft:]
    return frames


def demodulate_frame(frames: np.ndarray, config: SystemConfig) -> np.ndarray:
    """CP removal + DFT + used-bin extraction of complex128 (..., n_symbols,
    symbol_len) frames, whose samples after each prefix the DFT overwrites;
    returns (..., n_symbols, n_used), the layout modulate_frame takes."""
    if frames.shape[-1:] != (config.symbol_len,):
        raise ValueError(f"frames must be (..., symbols, {config.symbol_len}); got {frames.shape}")
    body = frames[..., config.cp_len :]
    np.fft.fft(body, axis=-1, norm="ortho", out=body)
    return body[..., used_subcarrier_bins(config)]
