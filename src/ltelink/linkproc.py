"""The constellations: Gray-coded QPSK and 16-QAM mapping and hard-decision demapping.

This is the one module that knows a constellation.  Each alphabet is a table
of per-axis Gray levels; the first half of a symbol's bits picks its in-phase
level and the second half its quadrature level, so the symbol's bits read as
one binary number index its point table.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = ["Constellation", "map_bits", "demap_symbols"]


class Constellation(Enum):
    """A square Gray-coded alphabet of unit average symbol power.

    A member is declared by its per-axis Gray levels in odd-integer units,
    indexed by the axis bits read as a binary number, and by beta =
    E|x|^2 E|1/x|^2, the factor of the simplified LMMSE regularizer beta/SNR.
    beta is the exact literal: computed from the points, 16-QAM's is 1 ULP off
    17/9.  From the levels it derives unit (the scale of one odd-integer unit),
    bits_per_symbol and the read-only point table.
    """

    QPSK = ("qpsk", (1.0, -1.0), 1.0)
    QAM16 = ("qam16", (3.0, 1.0, -3.0, -1.0), 17.0 / 9.0)

    def __new__(cls, value: str, gray_levels: tuple[float, ...], beta: float):
        member = object.__new__(cls)
        member._value_ = value
        return member

    def __init__(self, value: str, gray_levels: tuple[float, ...], beta: float) -> None:
        levels = np.array(gray_levels)
        # one level unit; the in-phase and quadrature axes share the unit power
        self.unit = 1.0 / np.sqrt(2.0 * np.mean(levels**2))
        axis = levels * self.unit
        self.bits_per_symbol = 2 * (len(levels).bit_length() - 1)
        self.points = (axis[:, None] + 1j * axis).reshape(-1)
        self.points.setflags(write=False)
        self.beta = beta


def map_bits(bits: np.ndarray, constellation: Constellation) -> np.ndarray:
    """The symbols of bits in raveled order: each symbol's bits_per_symbol bits,
    read as one binary number, index the point table (QPSK 01 -> (1-1j)/sqrt(2))."""
    bits = np.asarray(bits)
    n = constellation.bits_per_symbol
    if bits.size % n != 0:
        raise ValueError(f"{constellation.value} needs a multiple of {n} bits, got {bits.size}")
    groups = bits.reshape(-1, n)
    index = groups[:, 0].astype(np.intp)
    for j in range(1, n):
        index <<= 1
        index |= groups[:, j]
    return constellation.points[index]


def demap_symbols(symbols: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Hard nearest-point decision per axis, inverse of map_bits, on symbols of
    any shape in raveled order.  Ties resolve to bit 0: a zero axis to the
    positive levels, a 16-QAM axis at +-2 level units to the outer level."""
    # the float view interleaves each symbol's real and imaginary parts
    parts = np.ascontiguousarray(symbols, dtype=np.complex128).reshape(-1, 1).view(np.float64)
    bits = parts < 0
    if constellation.bits_per_symbol == 4:  # each axis's sign bit, then its inner-level bit
        bits = np.stack([bits, np.abs(parts) < 2.0 * constellation.unit], axis=-1)
    return bits.astype(np.int8).reshape(-1)
