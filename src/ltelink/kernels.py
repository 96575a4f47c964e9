"""Hot numeric kernel: zero-forcing with one channel matrix per subcarrier."""

from __future__ import annotations

import numpy as np

__all__ = ["COND_LIMIT", "zf_detect_grid"]

# A 2x2 channel matrix whose condition number exceeds this is erased by ZF.
COND_LIMIT = 1e12


def zf_detect_grid(y: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing of every symbol of every subcarrier.

    y: (..., n_rx, n_sym, n_sc) received slots; h: (..., n_tx, n_rx, n_sc)
    responses, one channel matrix per subcarrier and fixed over its symbols,
    with n_tx <= n_rx <= 2; leading axes stack slots.  Returns (symbols
    (..., n_tx, n_sym, n_sc), erased (..., n_sc)).  The determinant, its
    reciprocal and the condition test are evaluated once per subcarrier, and
    the inverse [[d, -b], [-c, a]] / det is applied by multiplies broadcast over
    the symbols, so each slot of a stack gets its own result bit for bit.  A
    subcarrier whose matrix condition number exceeds COND_LIMIT gets a zero
    reciprocal, so its symbols come out zero and it is flagged, never raised.
    A single transmit stream is combined by maximum ratio, the least-squares
    solution of the tall system, with the same zero reciprocal where the
    channel is zero.
    """
    *lead, n_tx, n_rx, n_sc = h.shape
    if y.ndim != h.ndim or y.shape[:-2] != (*lead, n_rx) or y.shape[-1] != n_sc:
        raise ValueError(f"y shape {y.shape} does not match h shape {h.shape}")
    if n_tx > n_rx or n_rx > 2 or n_tx < 1:
        raise ValueError(f"unsupported antenna shape (n_rx={n_rx}, n_tx={n_tx})")
    if n_tx == 1:
        norm2 = np.sum(np.abs(h[..., 0, :, :]) ** 2, axis=-2)
        erased = norm2 == 0.0
        inv = np.divide(1.0, norm2, out=np.zeros_like(norm2), where=~erased)
        mrc = np.sum(np.conj(h[..., 0, :, None, :]) * y, axis=-3) * inv[..., None, :]
        return mrc[..., None, :, :], erased
    a, b = h[..., 0, 0, :], h[..., 1, 0, :]  # H = [[a, b], [c, d]], H[r, t] = h[t, r]
    c, d = h[..., 0, 1, :], h[..., 1, 1, :]
    det = a * d - b * c
    absdet = np.abs(det)
    fro2 = np.abs(a) ** 2 + np.abs(b) ** 2 + np.abs(c) ** 2 + np.abs(d) ** 2
    smax2 = 0.5 * (fro2 + np.sqrt(np.maximum(fro2 * fro2 - 4.0 * absdet * absdet, 0.0)))
    erased = (absdet == 0.0) | (smax2 > COND_LIMIT * absdet)
    inv = np.divide(1.0, det, out=np.zeros_like(det), where=~erased)
    a, b, c, d = ((v * inv)[..., None, :] for v in (a, b, c, d))
    y0, y1 = y[..., 0, :, :], y[..., 1, :, :]
    out = np.empty((*lead, n_tx, y.shape[-2], n_sc), dtype=np.complex128)
    np.multiply(d, y0, out=out[..., 0, :, :])
    out[..., 0, :, :] -= b * y1
    np.multiply(a, y1, out=out[..., 1, :, :])
    out[..., 1, :, :] -= c * y0
    return out, erased
