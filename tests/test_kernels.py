"""The convolution and zero-forcing kernels, checked against per-element oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import zf_detect

from ltelink import kernels


def _conv_case(seed, n_tx=2, n_rx=2, taps=11, n=256):
    rng = np.random.default_rng(seed)
    tx = rng.standard_normal((n_tx, n)) + 1j * rng.standard_normal((n_tx, n))
    impulse = rng.standard_normal((n_tx, n_rx, taps)) + 1j * rng.standard_normal(
        (n_tx, n_rx, taps)
    )
    return tx, impulse


def _zf_case(seed, n_re=500, n_rx=2, n_tx=2):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n_re, n_rx)) + 1j * rng.standard_normal((n_re, n_rx))
    h = rng.standard_normal((n_re, n_rx, n_tx)) + 1j * rng.standard_normal(
        (n_re, n_rx, n_tx)
    )
    return y, h


class TestMimoConvolve:
    def test_numpy_matches_reference(self):
        tx, impulse = _conv_case(0)
        out = kernels.mimo_convolve(tx, impulse)
        for r in range(2):
            ref = sum(np.convolve(tx[t], impulse[t, r])[: tx.shape[1]] for t in range(2))
            assert_allclose(out[r], ref, atol=1e-12)

    def test_dispatcher_runs(self):
        for n_tx, n_rx, taps in [(1, 1, 1), (1, 2, 5), (2, 1, 17), (2, 2, 40)]:
            tx, impulse = _conv_case(2, n_tx=n_tx, n_rx=n_rx, taps=taps)
            out = kernels.mimo_convolve(tx, impulse)
            assert out.shape == (n_rx, tx.shape[1])
            for r in range(n_rx):
                ref = sum(np.convolve(tx[t], impulse[t, r])[: tx.shape[1]] for t in range(n_tx))
                assert_allclose(out[r], ref, atol=1e-12)


class TestZfGrid:
    def test_numpy_matches_per_element_solve(self):
        y, h = _zf_case(3)
        out, erased = kernels.zf_detect_grid(y, h)
        assert not erased.any()
        for i in range(0, len(y), 37):
            ref = np.linalg.solve(h[i], y[i])
            assert_allclose(out[i], ref, atol=1e-10)

    def test_matches_svd_oracle_across_shapes_and_conditioning(self):
        # the closed-form condition test agrees with the SVD one away from the
        # limit: condition 1e8 is kept, 1e16 erased; a solve at condition 1e8
        # loses up to 8 of 16 digits, hence the 1e-6 tolerance
        for n_rx, n_tx in [(1, 1), (2, 1), (2, 2)]:
            y, h = _zf_case(11, n_re=60, n_rx=n_rx, n_tx=n_tx)
            if n_tx == 2:
                u, s, vh = np.linalg.svd(h[:40])
                s[:20, 1] = s[:20, 0] * 1e-8
                s[20:40, 1] = s[20:40, 0] * 1e-16
                h[:40] = np.einsum("nij,nj,njk->nik", u, s.astype(complex), vh)
            h[-1] = 0.0
            out, erased = kernels.zf_detect_grid(y, h)
            for i in range(len(y)):
                ref, ref_erased = zf_detect(y[i], h[i], kernels.COND_LIMIT)
                assert erased[i] == ref_erased, (n_rx, n_tx, i)
                assert_allclose(out[i], ref, rtol=1e-6, atol=1e-12)
            assert erased[-1]
            if n_tx == 2:
                assert not erased[:20].any() and erased[20:40].all()

    def test_singular_elements_erased_not_raised(self):
        y, h = _zf_case(5, n_re=4)
        h[1] = 1.0  # rank-1 matrix
        out, erased = kernels.zf_detect_grid(y, h)
        assert erased[1] and not erased[0]
        assert np.all(out[1] == 0)

    def test_column_vector_channel(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((10, 2, 1)) + 1j * rng.standard_normal((10, 2, 1))
        x = rng.standard_normal((10, 1)) + 1j * rng.standard_normal((10, 1))
        y = np.einsum("irt,it->ir", h, x)
        out, erased = kernels.zf_detect_grid(y, h)
        assert not erased.any()
        assert_allclose(out, x, atol=1e-12)

    def test_rejects_mismatched_shapes(self):
        y, h = _zf_case(8)
        with pytest.raises(ValueError, match="does not match"):
            kernels.zf_detect_grid(y[:, :1], h)

    def test_rejects_unsupported_antennas(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((4, 3)).astype(complex)
        h = rng.standard_normal((4, 3, 3)).astype(complex)
        with pytest.raises(ValueError, match="unsupported antenna"):
            kernels.zf_detect_grid(y, h)
