"""Gray-coded QPSK and 16-QAM constellation mapping and hard-decision demapping."""

from __future__ import annotations

import numpy as np

from .grid import Constellation

__all__ = [
    "qpsk_map",
    "qpsk_demap",
    "qam16_map",
    "qam16_demap",
    "map_bits",
    "demap_symbols",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT10 = 1.0 / np.sqrt(10.0)
# QPSK points indexed by 2 * b0 + b1.
_QPSK_POINTS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) * _INV_SQRT2
# Gray-coded per-axis 16-QAM levels indexed by the two axis bits (b_hi, b_lo).
_QAM16_LEVELS = np.array([3.0, 1.0, -3.0, -1.0]) * _INV_SQRT10


def qpsk_map(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped QPSK, unit power: pair (b0, b1) -> ((1-2*b0) + 1j*(1-2*b1))/sqrt(2).

    00 -> (1+1j)/sqrt(2), 01 -> (1-1j)/sqrt(2), 10 -> (-1+1j)/sqrt(2), 11 -> (-1-1j)/sqrt(2).
    """
    bits = np.asarray(bits)
    if bits.size % 2 != 0:
        raise ValueError(f"QPSK needs an even bit count, got {bits.size}")
    pairs = bits.reshape(-1, 2)
    return _QPSK_POINTS[2 * pairs[:, 0] + pairs[:, 1]]


def qpsk_demap(symbols: np.ndarray) -> np.ndarray:
    """Hard per-axis sign decision, inverse of qpsk_map; ties resolve to bit 0."""
    # the float view interleaves real and imaginary parts: b0, b1 of each symbol
    parts = np.ascontiguousarray(symbols, dtype=np.complex128).reshape(-1).view(np.float64)
    return (parts < 0).astype(np.int8)


def qam16_map(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped 16-QAM, unit average power; 4 bits per symbol (2 per axis)."""
    bits = np.asarray(bits)
    if bits.size % 4 != 0:
        raise ValueError(f"16-QAM needs a multiple of 4 bits, got {bits.size}")
    quads = bits.reshape(-1, 4)
    re = _QAM16_LEVELS[2 * quads[:, 0] + quads[:, 1]]
    im = _QAM16_LEVELS[2 * quads[:, 2] + quads[:, 3]]
    return re + 1j * im


def qam16_demap(symbols: np.ndarray) -> np.ndarray:
    """Hard nearest-level decision per axis, inverse of qam16_map."""
    symbols = np.asarray(symbols)

    def axis_bits(vals: np.ndarray) -> np.ndarray:
        hi = (vals < 0).astype(np.int8)
        lo = (np.abs(vals) < 2.0 * _INV_SQRT10).astype(np.int8)
        return hi, lo

    re_hi, re_lo = axis_bits(symbols.real)
    im_hi, im_lo = axis_bits(symbols.imag)
    out = np.empty((symbols.size, 4), dtype=np.int8)
    out[:, 0], out[:, 1], out[:, 2], out[:, 3] = re_hi, re_lo, im_hi, im_lo
    return out.reshape(-1)


def map_bits(bits: np.ndarray, constellation: Constellation) -> np.ndarray:
    if constellation is Constellation.QPSK:
        return qpsk_map(bits)
    return qam16_map(bits)


def demap_symbols(symbols: np.ndarray, constellation: Constellation) -> np.ndarray:
    if constellation is Constellation.QPSK:
        return qpsk_demap(symbols)
    return qam16_demap(symbols)

