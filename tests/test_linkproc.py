"""Tests for constellation mapping and zero-forcing detection."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ltelink.kernels import zf_detect_grid
from ltelink.linkproc import Constellation, demap_symbols, map_bits

QPSK, QAM16 = Constellation.QPSK, Constellation.QAM16
_S2 = np.sqrt(2.0)


def zf_detect(y, h):
    """Zero-force one resource element through the batched detector."""
    h = np.atleast_2d(np.asarray(h, dtype=complex))
    out, erased = zf_detect_grid(np.asarray(y, dtype=complex)[:, None, None], h.T[:, :, None])
    return out[:, 0, 0], bool(erased[0])


class TestQpsk:
    def test_mapping_table(self):
        syms = map_bits(np.array([0, 0, 0, 1, 1, 0, 1, 1]), QPSK)
        assert_allclose(
            syms,
            np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / _S2,
            atol=1e-15,
        )

    def test_unit_modulus(self):
        rng = np.random.default_rng(0)
        syms = map_bits(rng.integers(0, 2, 600), QPSK)
        assert_allclose(np.abs(syms), 1.0, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 1000)
        assert np.array_equal(demap_symbols(map_bits(bits, QPSK), QPSK), bits)

    def test_demap_is_nearest_quadrant(self):
        assert np.array_equal(demap_symbols(np.array([(0.9 + 1.1j) / _S2]), QPSK), [0, 0])
        assert np.array_equal(demap_symbols(np.array([-0.3 + 0.01j]), QPSK), [1, 0])

    def test_origin_ties_to_zero_bits(self):
        assert np.array_equal(demap_symbols(np.array([0.0 + 0.0j]), QPSK), [0, 0])


class TestQam16:
    def test_unit_average_power(self):
        rng = np.random.default_rng(2)
        syms = map_bits(rng.integers(0, 2, 40_000), QAM16)
        assert np.mean(np.abs(syms) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 4000)
        assert np.array_equal(demap_symbols(map_bits(bits, QAM16), QAM16), bits)

    def test_gray_neighbors_differ_in_one_bit(self):
        levels = sorted({map_bits(np.array(b), QAM16)[0].real for b in
                         ([0,0,0,0],[0,1,0,0],[1,0,0,0],[1,1,0,0])})
        bits_by_level = {}
        for b0 in (0, 1):
            for b1 in (0, 1):
                sym = map_bits(np.array([b0, b1, 0, 0]), QAM16)[0]
                bits_by_level[round(sym.real, 6)] = (b0, b1)
        ordered = [bits_by_level[round(l, 6)] for l in levels]
        for a, b in zip(ordered, ordered[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1


@pytest.mark.parametrize("constellation", list(Constellation), ids=lambda c: c.value)
def test_map_rejects_a_partial_symbol(constellation):
    n = constellation.bits_per_symbol
    with pytest.raises(ValueError, match=f"multiple of {n} bits"):
        map_bits(np.zeros(n + n // 2, dtype=int), constellation)


_T = 2.0 / np.sqrt(10.0)  # the 16-QAM inner/outer decision boundary
# 0 is what zero-forcing puts out on an erased subcarrier
_BOUNDARY_SYMBOLS = np.array([
    complex(0.0, 0.0), complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
    complex(_T, 0.0), complex(-_T, 0.0), complex(0.0, _T), complex(0.0, -_T),
])


@pytest.mark.parametrize(
    "constellation, expected",
    [
        # one row of bits per boundary symbol; ties go to bit 0
        pytest.param(
            QPSK, [[0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 1]], id="qpsk"
        ),
        pytest.param(
            QAM16,
            [[0, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1],
             [0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 0], [0, 1, 1, 0]],
            id="qam16",
        ),
    ],
)
def test_decision_boundaries(constellation, expected):
    assert np.array_equal(demap_symbols(_BOUNDARY_SYMBOLS, constellation), np.ravel(expected))


class TestZfDetect:
    def test_identity_channel(self):
        y = np.array([1 + 2j, -0.5j])
        x, erased = zf_detect(y, np.eye(2))
        assert not erased
        assert_allclose(x, y, atol=1e-14)

    def test_scaled_identity(self):
        x, erased = zf_detect(np.array([2.0 + 0j, 4.0 + 0j]), 2 * np.eye(2))
        assert not erased
        assert_allclose(x, [1, 2], atol=1e-14)

    def test_recovers_transmit_vector(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            got, erased = zf_detect(h @ x, h)
            assert not erased
            assert_allclose(got, x, atol=1e-10)

    def test_tall_matrix_least_squares(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        x = np.array([0.7 - 0.3j])
        got, erased = zf_detect(h @ x, h)
        assert not erased
        assert_allclose(got, x, atol=1e-12)

    def test_singular_matrix_flags_erasure(self):
        h = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        x, erased = zf_detect(np.array([1.0 + 0j, 1.0 + 0j]), h)
        assert erased
        assert np.all(x == 0)

    def test_rejects_underdetermined(self):
        with pytest.raises(ValueError, match="unsupported antenna shape"):
            zf_detect(np.array([1.0 + 0j]), np.ones((1, 2), dtype=complex))
