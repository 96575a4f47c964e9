"""Reference implementations the tests check the simulator against.

They are slow, per-element or O(n^2) restatements of definitions; nothing in
the package calls them.  calibration_curves is the exception: it collects the
calibration's own points over the whole grid, for the tests to check.
"""

import numpy as np
import pytest

from ltelink import estimation, linkproc, ofdm
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
    """The channel applied to (n_tx, n_symbols, symbol_len) frames in the time
    domain: each antenna's frames are flattened into one stream, every tx
    stream is linear-convolved with every (tx, rx) response, and the
    (n_rx, n_symbols, symbol_len) received frames are returned."""
    n_tx, n_sym, sym_len = tx.shape
    if n_tx != ch.n_tx:
        raise ValueError(f"signal has {n_tx} streams, channel expects {ch.n_tx}")
    if n_sym * sym_len < ch.pdp.span:
        raise ValueError("stream shorter than the channel impulse response")
    rx = mimo_convolve(tx.reshape(n_tx, -1), ch.impulse_responses())
    return rx.reshape(-1, n_sym, sym_len)


def window_overrun(tx: np.ndarray, ch, cfg) -> np.ndarray:
    """Linear minus circular channel output in every DFT window of
    (n_tx, n_symbols, symbol_len) frames: the (n_rx, n_symbols, n_fft) samples
    after each prefix of the time-domain channel output, less the circular
    convolution of each symbol's body with the channel."""
    linear = apply_channel(tx, ch)[:, :, cfg.cp_len :]
    body = np.fft.fft(tx[:, :, cfg.cp_len :], axis=-1)
    h = ch.frequency_responses(cfg.n_fft)
    return linear - np.fft.ifft(np.einsum("trk,tmk->rmk", h, body), axis=-1)


def time_domain_chain(ctx, pdp, noise_var, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One slot of the sweep's trial chain with the channel applied by linear
    convolution: (bits, rx_grid (n_rx, n_symbols, n_used), h_true), drawing
    taps, bits and noise of variance noise_var from rng in the sweep's order.
    ctx is a harness link context."""
    cfg = ctx.config
    ch = generate_channel(pdp, cfg.n_tx, cfg.n_rx, rng)
    bits_per_sym = cfg.constellation.bits_per_symbol
    bits = rng.integers(0, 2, size=(cfg.n_tx, ctx.layout.n_data_per_port * bits_per_sym))
    data = [linkproc.map_bits(bits[p], cfg.constellation) for p in range(cfg.n_tx)]
    values = ctx.layout.fill(data, ctx.pilot_values)
    rx = apply_channel(ofdm.modulate_frame(values, cfg), ch)
    add_awgn(rx, noise_var, rng)
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


def _rayleigh_q(a2: float, snr: float) -> float:
    """E Q(a sqrt(gamma)) over an exponential gamma of mean snr:
    1/2 (1 - sqrt(a^2 snr / (2 + a^2 snr))) (Proakis, "Digital Communications")."""
    return 0.5 * (1.0 - np.sqrt(a2 * snr / (2.0 + a2 * snr)))


def zf_qpsk_ber_rayleigh(snr_db: float) -> float:
    """Closed-form BER of Gray QPSK zero-forced with perfect CSI over a 2x2
    channel of i.i.d. CN(0, 1) entries: each stream's post-ZF SNR is
    exponential with mean snr (chi-square with 2(n_rx - n_tx + 1) = 2 degrees
    of freedom; Winters, Salz and Gitlin, IEEE Trans. Commun. 42, 1994), and
    each axis's Q(sqrt(snr)) averages over it to 1/2 (1 - sqrt(snr / (2 + snr)))."""
    return _rayleigh_q(1.0, 10.0 ** (snr_db / 10.0))


def mrc_qpsk_ber_rayleigh(snr_db: float) -> float:
    """Closed-form BER of Gray QPSK with perfect CSI over a 1x2 channel of
    i.i.d. CN(0, 1) entries, which zero-forcing combines as maximal-ratio
    combining: with mu = sqrt(snr / (2 + snr)) from each branch's mean SNR,
    each axis errs with ((1 - mu) / 2)^2 (2 + mu), the two-branch case of
    L-branch MRC (Proakis, "Digital Communications")."""
    snr = 10.0 ** (snr_db / 10.0)
    mu = np.sqrt(snr / (2.0 + snr))
    return ((1.0 - mu) / 2.0) ** 2 * (2.0 + mu)


def zf_qam16_ber_rayleigh(snr_db: float) -> float:
    """Closed-form BER of unit-power Gray 16-QAM zero-forced with perfect CSI
    over the same 2x2 channel.  Each axis is Gray 4-PAM with half-distance
    d = sqrt(gamma / 5) in noise units, so its two bits err on average
    1/4 [3 Q(d) + 2 Q(3d) - Q(5d)] (Simon and Alouini, "Digital Communication
    over Fading Channels", 2005), each term averaged over the exponential
    post-ZF SNR gamma as in zf_qpsk_ber_rayleigh."""
    snr = 10.0 ** (snr_db / 10.0)
    return 0.25 * (3.0 * _rayleigh_q(1 / 5, snr) + 2.0 * _rayleigh_q(9 / 5, snr) - _rayleigh_q(25 / 5, snr))


def lmmse_mse_closed_form(model, noise_variance: float) -> float:
    """Mean over the used subcarriers of the LMMSE error variance of a channel
    whose profile is the model's prior, unit-modulus pilots and a filter
    regularized by the noise variance lambda (QPSK, beta = 1):
    sigma_e^2(k) = 1 - sum_r |bv[k, r]|^2 sigma_r^2 / (sigma_r^2 + lambda),
    the diagonal of R_hh - W R_hh_p^H from the model's factors."""
    s2 = model.sigma**2
    return float(np.mean(1.0 - (np.abs(model.bv) ** 2) @ (s2 / (s2 + noise_variance))))


def lmmse_zf_qpsk_ber_closed_form(model, noise_variance: float, n_tx: int, subcarriers) -> float:
    """BER of Gray QPSK zero-forced with LMMSE estimates over the n_tx x n_tx
    channel of i.i.d. CN(0, 1) entries whose profile is the model's prior
    (the CP covers it), unit-modulus pilots, a filter regularized by the
    noise variance (beta = 1) and unit-power symbols.

    The estimate error e = h - h_hat of subcarrier k is Gaussian with variance
    sigma_e^2(k) (lmmse_mse_closed_form) and independent of h_hat, whose
    entries have variance 1 - sigma_e^2(k).  Zero-forcing with h_hat leaves
    each stream noise of variance sigma^2 + n_tx sigma_e^2(k), so its post-ZF
    SNR is exponential with mean (1 - sigma_e^2) / (sigma^2 + n_tx sigma_e^2)
    (Wang, Au, Murch, Mow, Cheng and Lau, IEEE Trans. Wireless Commun. 6(3),
    2007), and each axis errs on average 1/2 (1 - sqrt(snr / (2 + snr))).
    The BER is the mean over subcarriers, the used-subcarrier index of each
    data resource element."""
    s2 = model.sigma**2
    var_e = 1.0 - (np.abs(model.bv[subcarriers]) ** 2) @ (s2 / (s2 + noise_variance))
    return float(np.mean(_rayleigh_q(1.0, (1.0 - var_e) / (noise_variance + n_tx * var_e))))


def calibration_curves(system, pdp, snrs, n_trials, rng) -> list[tuple[float, float, float]]:
    """Every (snr_db, mse_ls, mse_lmmse) point of estimation.calibrate_threshold
    on these inputs, in the order it computes them: its crossing search is made
    to read the whole grid, so no point is left unrun."""
    points = []
    search = estimation._crossover

    def reading_every_point(curve):
        points.extend(curve)
        return search(points)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "_crossover", reading_every_point)
        estimation.calibrate_threshold(system, pdp, snrs, n_trials, rng)
    return points
