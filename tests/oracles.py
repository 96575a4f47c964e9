"""Reference implementations the tests check the simulator against.

They are slow, per-element or O(n^2) restatements of definitions; nothing in
the package calls them.
"""

import numpy as np

from ltelink.grid import CellLabel


def dft_coefficient(n: int, l: int, k: int) -> complex:
    """Entry (l, k) of the unitary n-point DFT matrix: exp(-2j*pi*l*k/n)/sqrt(n)."""
    if not 0 <= l < n or not 0 <= k < n:
        raise ValueError(f"indices out of range for n={n}: (l={l}, k={k})")
    return np.exp(-2j * np.pi * l * k / n) / np.sqrt(n)


def dft_matrix(n: int) -> np.ndarray:
    """Full unitary DFT matrix; O(n^2) memory, intended for small-n checks."""
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def validate_grid(values: np.ndarray, labels: np.ndarray) -> None:
    """Check a filled slot's cell invariants: unit-modulus pilots, exact-zero
    nulls, and every pilot nulled on all other ports."""
    pilot = labels == CellLabel.PILOT
    null = labels == CellLabel.NULL
    if pilot.any() and not np.allclose(np.abs(values[pilot]), 1.0, atol=1e-9):
        raise ValueError("pilot cells must hold unit-modulus values")
    if null.any() and np.any(values[null] != 0):
        raise ValueError("null cells must hold exactly 0")
    n_ports = labels.shape[0]
    if n_ports > 1:
        for p in range(n_ports):
            others_null = np.all(np.delete(labels, p, axis=0) == CellLabel.NULL, axis=0)
            if np.any(pilot[p] & ~others_null):
                raise ValueError("a pilot resource element is not nulled on the other ports")
        if np.any(pilot.sum(axis=0) > 1):
            raise ValueError("two ports carry a pilot on the same resource element")


def zf_detect(y: np.ndarray, h: np.ndarray, cond_limit: float) -> tuple[np.ndarray, bool]:
    """Zero-forcing of one resource element, the least-squares solution of
    H x = y, with the condition number taken from an SVD; an H whose
    condition number exceeds cond_limit is erased."""
    sv = np.linalg.svd(h, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] > cond_limit * sv[-1]:
        return np.zeros(h.shape[1], dtype=np.complex128), True
    return np.linalg.lstsq(h, y, rcond=None)[0], False
