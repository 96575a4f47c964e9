"""Hot numeric kernels: MIMO linear convolution and per-RE zero-forcing."""

from __future__ import annotations

import numpy as np

__all__ = ["COND_LIMIT", "mimo_convolve", "zf_detect_grid"]

# A 2x2 channel matrix whose condition number exceeds this is erased by ZF.
COND_LIMIT = 1e12


def mimo_convolve(tx: np.ndarray, impulse: np.ndarray) -> np.ndarray:
    """Sum of per-pair linear convolutions, truncated to the input length.

    tx: (n_tx, n) streams; impulse: (n_tx, n_rx, taps) responses.
    """
    n_tx, n = tx.shape
    n_rx = impulse.shape[1]
    out = np.zeros((n_rx, n), dtype=np.complex128)
    for r in range(n_rx):
        for t in range(n_tx):
            out[r] += np.convolve(tx[t], impulse[t, r])[:n]
    return out


def zf_detect_grid(y: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched zero-forcing over resource elements.

    y: (n_re, n_rx) received vectors; h: (n_re, n_rx, n_tx) channel matrices
    with n_tx <= n_rx <= 2.  Returns (symbols (n_re, n_tx), erased (n_re,));
    an element whose matrix condition number exceeds COND_LIMIT is zeroed and
    flagged, never raised.  A single transmit stream is combined by maximum
    ratio, which is the least-squares solution of the tall system.
    """
    n_rx, n_tx = h.shape[1], h.shape[2]
    if y.shape != (h.shape[0], n_rx):
        raise ValueError(f"y shape {y.shape} does not match h shape {h.shape}")
    if n_tx > n_rx or n_rx > 2 or n_tx < 1:
        raise ValueError(f"unsupported antenna shape (n_rx={n_rx}, n_tx={n_tx})")
    out = np.zeros((y.shape[0], n_tx), dtype=np.complex128)
    if n_tx == 1:
        norm2 = np.sum(np.abs(h[:, :, 0]) ** 2, axis=1)
        erased = norm2 == 0.0
        ok = ~erased
        out[ok, 0] = np.sum(np.conj(h[ok, :, 0]) * y[ok], axis=1) / norm2[ok]
        return out, erased
    a, b = h[:, 0, 0], h[:, 0, 1]
    c, d = h[:, 1, 0], h[:, 1, 1]
    det = a * d - b * c
    absdet = np.abs(det)
    fro2 = np.abs(a) ** 2 + np.abs(b) ** 2 + np.abs(c) ** 2 + np.abs(d) ** 2
    smax2 = 0.5 * (fro2 + np.sqrt(np.maximum(fro2 * fro2 - 4.0 * absdet * absdet, 0.0)))
    erased = (absdet == 0.0) | (smax2 > COND_LIMIT * absdet)
    ok = ~erased
    out[ok, 0] = (d[ok] * y[ok, 0] - b[ok] * y[ok, 1]) / det[ok]
    out[ok, 1] = (a[ok] * y[ok, 1] - c[ok] * y[ok, 0]) / det[ok]
    return out, erased
