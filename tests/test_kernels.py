"""The zero-forcing kernel and the oracle convolution, checked against
per-element definitions."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import mimo_convolve, zf_detect

from ltelink import kernels


def _conv_case(seed, n_tx=2, n_rx=2, taps=11, n=256):
    rng = np.random.default_rng(seed)
    tx = rng.standard_normal((n_tx, n)) + 1j * rng.standard_normal((n_tx, n))
    impulse = rng.standard_normal((n_tx, n_rx, taps)) + 1j * rng.standard_normal(
        (n_tx, n_rx, taps)
    )
    return tx, impulse


def _shift_sum(tx, impulse):
    """out[r, n] = sum over t and l of impulse[t, r, l] * tx[t, n - l], by shifts."""
    n_tx, n = tx.shape
    out = np.zeros((impulse.shape[1], n), dtype=complex)
    for t in range(n_tx):
        for r in range(impulse.shape[1]):
            for lag in range(min(impulse.shape[2], n)):
                out[r, lag:] += impulse[t, r, lag] * tx[t, : n - lag]
    return out


def _zf_case(seed, n_sc=500, n_rx=2, n_tx=2, n_sym=7):
    """Received slots y and per-subcarrier (n_rx, n_tx) channel matrices h,
    which the detector reads as h.swapaxes(-3, -2), (tx, rx, subcarrier)."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n_rx, n_sym, n_sc)) + 1j * rng.standard_normal((n_rx, n_sym, n_sc))
    h = rng.standard_normal((n_rx, n_tx, n_sc)) + 1j * rng.standard_normal((n_rx, n_tx, n_sc))
    return y, h


class TestMimoConvolve:
    """tests/oracles.py's time-domain channel against the defining sum."""

    def test_numpy_matches_reference(self):
        tx, impulse = _conv_case(0)
        assert_allclose(mimo_convolve(tx, impulse), _shift_sum(tx, impulse), atol=1e-12)

    def test_dispatcher_runs(self):
        for n_tx, n_rx, taps in [(1, 1, 1), (1, 2, 5), (2, 1, 17), (2, 2, 40)]:
            tx, impulse = _conv_case(2, n_tx=n_tx, n_rx=n_rx, taps=taps)
            out = mimo_convolve(tx, impulse)
            assert out.shape == (n_rx, tx.shape[1])
            assert_allclose(out, _shift_sum(tx, impulse), atol=1e-12)


class TestZfGrid:
    def test_numpy_matches_per_element_solve(self):
        y, h = _zf_case(3)
        out, erased = kernels.zf_detect_grid(y, h.swapaxes(-3, -2))
        assert out.shape == (2, 7, 500) and erased.shape == (500,)
        assert not erased.any()
        for i in range(0, y.shape[-1], 37):
            for s in (0, 3, 6):
                ref = np.linalg.solve(h[..., i], y[:, s, i])
                assert_allclose(out[:, s, i], ref, atol=1e-10)

    def test_bit_identical_to_the_per_element_formula(self):
        # the per-resource-element closed form on flattened (subcarrier,
        # symbol) pairs, as a detector without the symbol axis computes it:
        # the reciprocal determinant, then the adjugate's entries times it
        y, h = _zf_case(21, n_sc=200)
        u, s, vh = np.linalg.svd(h[..., 7])
        h[..., 7] = u @ np.diag([s[0], s[0] * 1e-14]) @ vh  # one ill-conditioned subcarrier
        h[..., 11] = np.array([[1.0, 2.0], [0.5, 1.0]])  # one exactly singular: det == 0
        out, erased = kernels.zf_detect_grid(y, h.swapaxes(-3, -2))
        assert np.flatnonzero(erased).tolist() == [7, 11]
        assert not out[..., erased].any()
        sc = np.repeat(np.arange(200), 7)
        sym = np.tile(np.arange(7), 200)
        keep = ~erased[sc]
        sc, sym = sc[keep], sym[keep]
        a, b, c, d = h[0, 0, sc], h[0, 1, sc], h[1, 0, sc], h[1, 1, sc]
        y0, y1 = y[0, sym, sc], y[1, sym, sc]
        inv = 1 / (a * d - b * c)
        assert np.array_equal(out[0, sym, sc], (d * inv) * y0 - (b * inv) * y1)
        assert np.array_equal(out[1, sym, sc], (a * inv) * y1 - (c * inv) * y0)

    def test_maximum_ratio_branch_bit_identical_to_the_per_element_formula(self):
        y, h = _zf_case(22, n_sc=50, n_rx=2, n_tx=1)
        h[..., 9] = 0.0
        out, erased = kernels.zf_detect_grid(y, h.swapaxes(-3, -2))
        assert erased[9] and erased.sum() == 1 and not out[..., 9].any()
        for i in np.flatnonzero(~erased):
            inv = 1 / np.sum(np.abs(h[:, 0, i]) ** 2)
            for s in range(7):
                assert out[0, s, i] == np.sum(np.conj(h[:, 0, i]) * y[:, s, i]) * inv

    @pytest.mark.parametrize("n_tx", [2, 1], ids=["2x2", "mrc"])
    def test_stacked_slots_bit_identical_to_slot_by_slot(self, n_tx):
        # leading axes stack slots: three trials in one call, with h_hat a
        # (trial, tx, rx, subcarrier) estimate as the sweep passes it, detect
        # exactly as each trial does alone
        rng = np.random.default_rng(24)
        y = rng.standard_normal((3, 2, 7, 40)) + 1j * rng.standard_normal((3, 2, 7, 40))
        h_hat = rng.standard_normal((3, n_tx, 2, 40)) + 1j * rng.standard_normal((3, n_tx, 2, 40))
        h_hat[1, ..., 5] = 0.0  # erase one subcarrier of the middle trial
        out, erased = kernels.zf_detect_grid(y, h_hat)
        assert out.shape == (3, n_tx, 7, 40) and erased.shape == (3, 40)
        assert erased[1, 5] and erased.sum() == 1
        for i in range(3):
            alone, alone_erased = kernels.zf_detect_grid(y[i], h_hat[i])
            assert np.array_equal(out[i], alone) and np.array_equal(erased[i], alone_erased)

    def test_matches_svd_oracle_across_shapes_and_conditioning(self):
        # the closed-form condition test agrees with the SVD one away from the
        # limit: condition 1e8 is kept, 1e16 erased; a solve at condition 1e8
        # loses up to 8 of 16 digits, hence the 1e-6 tolerance
        for n_rx, n_tx in [(1, 1), (2, 1), (2, 2)]:
            y, h = _zf_case(11, n_sc=60, n_rx=n_rx, n_tx=n_tx, n_sym=3)
            if n_tx == 2:
                u, s, vh = np.linalg.svd(h[..., :40].transpose(2, 0, 1))
                s[:20, 1] = s[:20, 0] * 1e-8
                s[20:40, 1] = s[20:40, 0] * 1e-16
                h[..., :40] = np.einsum("nij,nj,njk->ikn", u, s.astype(complex), vh)
            h[..., -1] = 0.0
            out, erased = kernels.zf_detect_grid(y, h.swapaxes(-3, -2))
            for i in range(y.shape[-1]):
                for sym in range(3):
                    ref, ref_erased = zf_detect(y[:, sym, i], h[..., i], kernels.COND_LIMIT)
                    assert erased[i] == ref_erased, (n_rx, n_tx, i)
                    assert_allclose(out[:, sym, i], ref, rtol=1e-6, atol=1e-12)
            assert erased[-1]
            if n_tx == 2:
                assert not erased[:20].any() and erased[20:40].all()

    def test_singular_elements_erased_not_raised(self):
        y, h = _zf_case(5, n_sc=4)
        h[..., 1] = 1.0  # rank-1 matrix
        out, erased = kernels.zf_detect_grid(y, h.swapaxes(-3, -2))
        assert erased[1] and not erased[0]
        assert np.all(out[..., 1] == 0)
        assert np.all(np.isfinite(out))

    def test_column_vector_channel(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((2, 1, 10)) + 1j * rng.standard_normal((2, 1, 10))
        x = rng.standard_normal((1, 7, 10)) + 1j * rng.standard_normal((1, 7, 10))
        y = h * x
        out, erased = kernels.zf_detect_grid(y, h.swapaxes(-3, -2))
        assert not erased.any()
        assert_allclose(out, x, atol=1e-12)

    def test_rejects_mismatched_shapes(self):
        y, h = _zf_case(8)
        with pytest.raises(ValueError, match="does not match"):
            kernels.zf_detect_grid(y[:1], h.swapaxes(-3, -2))
        with pytest.raises(ValueError, match="does not match"):
            kernels.zf_detect_grid(y[:, 0], h.swapaxes(-3, -2))

    def test_rejects_unsupported_antennas(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((3, 7, 4)).astype(complex)
        h = rng.standard_normal((3, 3, 4)).astype(complex)
        with pytest.raises(ValueError, match="unsupported antenna"):
            kernels.zf_detect_grid(y, h)
