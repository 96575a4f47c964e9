"""Reference implementations the tests check the simulator against.

They are slow, per-element or O(n^2) restatements of definitions; nothing in
the package calls them.
"""

import numpy as np

from ltelink import linkproc, ofdm
from ltelink.channel import add_awgn, generate_channel
from ltelink.grid import used_subcarrier_bins


def dft_coefficient(n: int, l: int, k: int) -> complex:
    """Entry (l, k) of the unitary n-point DFT matrix: exp(-2j*pi*l*k/n)/sqrt(n)."""
    if not 0 <= l < n or not 0 <= k < n:
        raise ValueError(f"indices out of range for n={n}: (l={l}, k={k})")
    return np.exp(-2j * np.pi * l * k / n) / np.sqrt(n)


def dft_matrix(n: int) -> np.ndarray:
    """Full unitary DFT matrix; O(n^2) memory, intended for small-n checks."""
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


# cell labels of a slot
DATA, PILOT, NULL = 0, 1, 2


def cell_labels(pattern, shape: tuple[int, int, int]) -> np.ndarray:
    """The (n_ports, n_symbols, n_used) label of every cell of a slot, derived
    from a pilot pattern's entries: a port's own entries are PILOT, the other
    ports' entries NULL, and every other cell DATA."""
    labels = np.full(shape, DATA, dtype=np.int8)
    sc, sym, port = pattern.entries.T
    for p in range(shape[0]):
        mine = port == p
        labels[p, sym[mine], sc[mine]] = PILOT
        labels[p, sym[~mine], sc[~mine]] = NULL
    return labels


def validate_grid(values: np.ndarray, pattern) -> None:
    """Check a filled slot's cell invariants: unit-modulus pilots, exact-zero
    nulls, and every pilot nulled on all other ports."""
    labels = cell_labels(pattern, values.shape)
    pilot = labels == PILOT
    null = labels == NULL
    if pilot.any() and not np.allclose(np.abs(values[pilot]), 1.0, atol=1e-9):
        raise ValueError("pilot cells must hold unit-modulus values")
    if null.any() and np.any(values[null] != 0):
        raise ValueError("null cells must hold exactly 0")
    n_ports = labels.shape[0]
    if n_ports > 1:
        for p in range(n_ports):
            others_null = np.all(np.delete(labels, p, axis=0) == NULL, axis=0)
            if np.any(pilot[p] & ~others_null):
                raise ValueError("a pilot resource element is not nulled on the other ports")
        if np.any(pilot.sum(axis=0) > 1):
            raise ValueError("two ports carry a pilot on the same resource element")


def mimo_convolve(tx: np.ndarray, impulse: np.ndarray) -> np.ndarray:
    """Sum of per-pair linear convolutions, truncated to the input length.

    tx: (n_tx, n) streams; impulse: (n_tx, n_rx, taps) responses.
    """
    n_tx, n = tx.shape
    out = np.zeros((impulse.shape[1], n), dtype=np.complex128)
    for r in range(impulse.shape[1]):
        for t in range(n_tx):
            out[r] += np.convolve(tx[t], impulse[t, r])[:n]
    return out


def apply_channel(tx: np.ndarray, ch) -> np.ndarray:
    """The channel applied to a whole (n_tx, n_samples) stream in the time
    domain: every tx stream linear-convolved with every (tx, rx) response."""
    if tx.shape[0] != ch.n_tx:
        raise ValueError(f"signal has {tx.shape[0]} streams, channel expects {ch.n_tx}")
    if tx.shape[1] < ch.pdp.span:
        raise ValueError("stream shorter than the channel impulse response")
    return mimo_convolve(tx, ch.impulse_responses())


def time_domain_chain(ctx, pdp, noise, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One slot of the sweep's trial chain with the channel applied by linear
    convolution: (bits, rx_grid (n_rx, n_symbols, n_used), h_true), drawing
    taps, bits and noise from rng in the sweep's order.  ctx is a harness link
    context."""
    cfg = ctx.config
    ch = generate_channel(pdp, cfg.n_tx, cfg.n_rx, rng)
    bits_per_sym = cfg.constellation.bits_per_symbol
    bits = rng.integers(0, 2, size=(cfg.n_tx, ctx.layout.n_data_per_port * bits_per_sym))
    data = [linkproc.map_bits(bits[p], cfg.constellation) for p in range(cfg.n_tx)]
    values = ctx.layout.fill(data, ctx.pilot_seq)
    rx = add_awgn(apply_channel(ofdm.modulate_frame(values, cfg), ch), noise, rng)
    rx_grid = ofdm.demodulate_frame(rx, cfg)
    return bits, rx_grid, ch.frequency_responses(cfg.n_fft, used_subcarrier_bins(cfg))


def zf_detect(y: np.ndarray, h: np.ndarray, cond_limit: float) -> tuple[np.ndarray, bool]:
    """Zero-forcing of one resource element, the least-squares solution of
    H x = y, with the condition number taken from an SVD; an H whose
    condition number exceeds cond_limit is erased."""
    sv = np.linalg.svd(h, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] > cond_limit * sv[-1]:
        return np.zeros(h.shape[1], dtype=np.complex128), True
    return np.linalg.lstsq(h, y, rcond=None)[0], False


def interpolate_ls(h_p: np.ndarray, pilot_positions: np.ndarray, n_used: int) -> np.ndarray:
    """Extend pilot LS estimates to all used subcarriers.

    Linear interpolation of real and imaginary parts between adjacent pilots;
    constant extrapolation beyond the first/last pilot.
    """
    h_p = np.asarray(h_p, dtype=np.complex128)
    positions = np.asarray(pilot_positions, dtype=np.int64)
    if h_p.shape != positions.shape:
        raise ValueError("h_p and pilot_positions must have equal length")
    if len(positions) < 2:
        raise ValueError("need at least 2 pilots to interpolate")
    order = np.argsort(positions)
    pos, vals = positions[order], h_p[order]
    k = np.arange(n_used)
    return np.interp(k, pos, vals.real) + 1j * np.interp(k, pos, vals.imag)


def correlation_matrices(pdp, pilot_positions: np.ndarray, config) -> tuple[np.ndarray, np.ndarray]:
    """(r_hh_p, r_hp_hp) straight from r(k, k') = sum_l p_l exp(-2j pi (k-k') tau_l / N),
    one (rows x pilots x taps) phase tensor per block of 64 rows."""
    bins = used_subcarrier_bins(config)
    pilot_bins = bins[np.asarray(pilot_positions, dtype=np.int64)]
    powers = pdp.tap_powers.astype(np.complex128)

    def corr(bins_a: np.ndarray, bins_b: np.ndarray) -> np.ndarray:
        blocks = []
        for start in range(0, len(bins_a), 64):
            delta = bins_a[start : start + 64, None] - bins_b[None, :]
            phases = np.exp(-2j * np.pi * delta[..., None] * pdp.tap_delays / config.n_fft)
            blocks.append(phases @ powers)
        return np.concatenate(blocks)

    return corr(bins, pilot_bins), corr(pilot_bins, pilot_bins)


def model_matrices(corr) -> tuple[np.ndarray, np.ndarray]:
    """(r_hh_p, r_hp_hp) multiplied out from a CorrelationModel's SVD factors."""
    return (corr.bv * corr.sigma) @ corr.q.conj().T, (corr.q * corr.sigma**2) @ corr.q.conj().T


def lmmse_filter_solve(corr, regularizer: float) -> np.ndarray:
    """W = R_hh_p (R_hp_hp + lambda I)^-1 by a linear solve, for lambda > 0;
    corr is the (r_hh_p, r_hp_hp) pair of correlation_matrices."""
    r_hh_p, r_hp_hp = corr
    a = r_hp_hp + regularizer * np.eye(r_hp_hp.shape[0])
    return np.linalg.solve(a.T, r_hh_p.T).T


def lmmse_estimate_full(h_ls: np.ndarray, corr, x_p: np.ndarray, sigma_w2: float) -> np.ndarray:
    """Exact-noise LMMSE: R_hh_p (R_hp_hp + sigma^2 diag(|x_p|^2)^-1)^-1 h_ls,
    with corr the (r_hh_p, r_hp_hp) pair of correlation_matrices.

    Zero noise takes the pseudo-inverse of R_hp_hp instead of the inverse."""
    r_hh_p, r_hp_hp = corr
    h_ls = np.asarray(h_ls, dtype=np.complex128)
    x_p = np.asarray(x_p, dtype=np.complex128)
    n_pilots = r_hp_hp.shape[0]
    if h_ls.shape != (n_pilots,) or x_p.shape != (n_pilots,):
        raise ValueError("h_ls and x_p must match the model's pilot dimension")
    if sigma_w2 < 0:
        raise ValueError("noise variance must be non-negative")
    if np.any(x_p == 0):
        raise ValueError("pilot value is zero; (X X^H)^-1 undefined")
    if sigma_w2 == 0:
        return r_hh_p @ np.linalg.pinv(r_hp_hp, hermitian=True) @ h_ls
    a = r_hp_hp + sigma_w2 * np.diag(1.0 / np.abs(x_p) ** 2)
    return r_hh_p @ np.linalg.solve(a, h_ls)


def lmmse_estimate_simplified(
    h_ls: np.ndarray, corr, snr_linear: float, beta: float
) -> np.ndarray:
    """Simplified LMMSE: R_hh_p (R_hp_hp + (beta/SNR) I)^-1 h_ls, with corr the
    (r_hh_p, r_hp_hp) pair of correlation_matrices."""
    r_hh_p, r_hp_hp = corr
    h_ls = np.asarray(h_ls, dtype=np.complex128)
    if h_ls.shape != (r_hp_hp.shape[0],):
        raise ValueError("h_ls must match the model's pilot dimension")
    if not snr_linear > 0:
        raise ValueError(f"snr_linear must be positive, got {snr_linear}")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    a = r_hp_hp + (beta / snr_linear) * np.eye(r_hp_hp.shape[0])
    return r_hh_p @ np.linalg.solve(a, h_ls)


def zf_qpsk_ber_rayleigh(snr_db: float) -> float:
    """Closed-form BER of Gray QPSK zero-forced with perfect CSI over a 2x2
    channel of i.i.d. CN(0, 1) entries: each stream's post-ZF SNR is
    exponential with mean snr (chi-square with 2(n_rx - n_tx + 1) = 2 degrees
    of freedom; Winters, Salz and Gitlin, IEEE Trans. Commun. 42, 1994), and
    each axis's Q(sqrt(snr)) averages over it to 1/2 (1 - sqrt(snr / (2 + snr)))
    (Proakis, "Digital Communications")."""
    snr = 10.0 ** (snr_db / 10.0)
    return 0.5 * (1.0 - np.sqrt(snr / (2.0 + snr)))
