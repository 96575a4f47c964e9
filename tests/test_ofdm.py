"""Tests for the OFDM modem: DFT convention, CP structure, diagonalization."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import dft_coefficient, dft_matrix

from ltelink.channel import ChannelRealization, PowerDelayProfile
from ltelink.grid import LTE_PROFILES, SystemConfig, used_bin_runs, used_subcarrier_bins
from ltelink.ofdm import demodulate_frame, modulate_frame

CFG = SystemConfig()  # 5 MHz, 512-FFT, 300 used, CP 16


def ofdm_modulate(column, config=CFG):
    """One grid column through the frame modulator: one CP-prefixed symbol."""
    return modulate_frame(np.asarray(column)[None, :], config)[0]


def ofdm_demodulate(symbol, config=CFG):
    """One received symbol through the frame demodulator: its used bins."""
    return demodulate_frame(np.asarray(symbol)[None, :], config)[0, :]


class TestDftCoefficient:
    def test_dc_entry(self):
        assert dft_coefficient(4, 0, 0) == pytest.approx(0.5 + 0j)

    def test_quarter_rotation(self):
        # exp(-j*pi/2)/2, evaluated by hand
        assert dft_coefficient(4, 1, 1) == pytest.approx(0 - 0.5j)

    def test_row_zero_sums_to_sqrt_n(self):
        for n in (2, 4, 8, 16):
            total = sum(dft_coefficient(n, 0, k) for k in range(n))
            assert total == pytest.approx(np.sqrt(n))

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError, match="out of range"):
            dft_coefficient(4, 4, 0)
        with pytest.raises(ValueError, match="out of range"):
            dft_coefficient(4, 0, -1)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_matrix_is_unitary(self, n):
        f = dft_matrix(n)
        assert_allclose(f @ f.conj().T, np.eye(n), atol=1e-12)

    def test_matrix_matches_coefficients(self):
        n = 8
        f = dft_matrix(n)
        for l in range(n):
            for k in range(n):
                assert f[l, k] == pytest.approx(dft_coefficient(n, l, k))

    def test_fft_agrees_with_matrix(self):
        # the FFT implementation must equal the explicit coefficient matrix
        rng = np.random.default_rng(3)
        n = 64
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert_allclose(np.fft.fft(x) / np.sqrt(n), dft_matrix(n) @ x, atol=1e-10)


class TestModulate:
    def test_zero_column_gives_zero_symbol(self):
        out = ofdm_modulate(np.zeros(CFG.n_used, dtype=complex), CFG)
        assert out.shape == (CFG.symbol_len,)
        assert np.all(out == 0)

    def test_cyclic_prefix_equals_tail(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(CFG.n_used) + 1j * rng.standard_normal(CFG.n_used)
        out = ofdm_modulate(col, CFG)
        assert np.array_equal(out[: CFG.cp_len], out[CFG.n_fft :])

    def test_parseval_excluding_cp(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(CFG.n_used) + 1j * rng.standard_normal(CFG.n_used)
        out = ofdm_modulate(col, CFG)
        body = out[CFG.cp_len :]
        assert np.sum(np.abs(body) ** 2) == pytest.approx(np.sum(np.abs(col) ** 2))

    def test_rejects_wrong_length(self):
        message = f"grid must be (..., symbols, {CFG.n_used})"
        with pytest.raises(ValueError, match=re.escape(message)):
            ofdm_modulate(np.zeros(CFG.n_used + 1, dtype=complex), CFG)


class TestDemodulate:
    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            col = rng.standard_normal(CFG.n_used) + 1j * rng.standard_normal(CFG.n_used)
            back = ofdm_demodulate(ofdm_modulate(col, CFG), CFG)
            assert_allclose(back, col, atol=1e-12)

    def test_one_tap_unit_channel_is_transparent(self):
        rng = np.random.default_rng(3)
        col = rng.standard_normal(CFG.n_used) + 1j * rng.standard_normal(CFG.n_used)
        tx = ofdm_modulate(col, CFG)
        rx = np.convolve(tx, [1.0 + 0j])[: len(tx)]
        assert_allclose(ofdm_demodulate(rx, CFG), col, atol=1e-12)

    def test_transforms_in_place(self):
        # the samples after each prefix are overwritten with their unitary
        # spectrum, the prefix is left alone, and the used bins are returned
        # from it, bit for bit what a separate FFT gives
        rng = np.random.default_rng(7)
        frames = rng.standard_normal((2, 3, CFG.symbol_len)) + 1j * rng.standard_normal(
            (2, 3, CFG.symbol_len)
        )
        before = frames.copy()
        got = demodulate_frame(frames, CFG)
        spectrum = np.fft.fft(before[..., CFG.cp_len :], axis=-1, norm="ortho")
        assert np.array_equal(frames[..., CFG.cp_len :], spectrum)
        assert np.array_equal(frames[..., : CFG.cp_len], before[..., : CFG.cp_len])
        assert np.array_equal(got, spectrum[..., used_subcarrier_bins(CFG)])

    def test_rejects_wrong_length(self):
        message = f"frames must be (..., symbols, {CFG.symbol_len})"
        with pytest.raises(ValueError, match=re.escape(message)):
            ofdm_demodulate(np.zeros(CFG.symbol_len - 1, dtype=complex), CFG)

    def test_cp_covered_channel_diagonalizes(self):
        # after an L-tap channel with L <= cp_len, Y_k = H_k * X_k; the
        # reference H_k is the directly evaluated sum over taps
        rng = np.random.default_rng(4)
        L = 12
        taps = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2 * L)
        col = rng.standard_normal(CFG.n_used) + 1j * rng.standard_normal(CFG.n_used)
        tx = ofdm_modulate(col, CFG)
        rx = np.convolve(tx, taps)[: len(tx)]
        got = ofdm_demodulate(rx, CFG)
        bins = used_subcarrier_bins(CFG)
        h_ref = np.array(
            [sum(taps[l] * np.exp(-2j * np.pi * k * l / CFG.n_fft) for l in range(L)) for k in bins]
        )
        assert_allclose(got, h_ref * col, atol=1e-10)


# every profile at its default n_used, then odd, even, the largest and the
# smallest (4) n_used overrides
RUN_CONFIGS = [
    *(pytest.param(SystemConfig(bandwidth_mhz=bw), id=f"{bw:g}MHz") for bw in LTE_PROFILES),
    *(
        pytest.param(SystemConfig(bandwidth_mhz=bw, n_used=n), id=f"{bw:g}MHz-n{n}")
        for bw, n in [(1.25, 61), (1.25, 127), (1.25, 126), (5.0, 299), (5.0, 4), (20.0, 5), (20.0, 4)]
    ),
]


class TestUsedBinRuns:
    """The modem's two-run scatter and gather against indexing by
    used_subcarrier_bins, bit for bit."""

    @pytest.mark.parametrize("config", RUN_CONFIGS)
    def test_runs_are_the_used_bins(self, config):
        low, high = used_bin_runs(config)
        n_low = config.n_used // 2
        assert (low.start, low.stop) == (config.n_fft - n_low, config.n_fft)
        assert (high.start, high.stop) == (1, config.n_used - n_low + 1)
        bins = np.arange(config.n_fft)
        assert np.array_equal(np.concatenate([bins[low], bins[high]]), used_subcarrier_bins(config))

    @pytest.mark.parametrize("config", RUN_CONFIGS)
    def test_modulate_scatters_into_the_used_bins_only(self, config, monkeypatch):
        # the spectrum the inverse FFT reads holds the grid in the used bins
        # and exact zeros in DC and the guard bins, and the frames equal those
        # of a scatter by index
        rng = np.random.default_rng(40)
        shape = (2, 3, config.n_used)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spectra, ifft = [], np.fft.ifft

        def spying_ifft(a, *args, **kwargs):
            spectra.append(a.copy())
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", spying_ifft)
        frames = modulate_frame(values, config)
        monkeypatch.undo()
        (spectrum,) = spectra
        bins = used_subcarrier_bins(config)
        unused = np.setdiff1d(np.arange(config.n_fft), bins)
        assert 0 in unused and unused.size == config.n_fft - config.n_used
        assert np.array_equal(spectrum[..., bins], values)
        assert np.all(spectrum[..., unused] == 0)
        want = np.zeros(spectrum.shape, dtype=complex)
        want[..., bins] = values
        want = np.fft.ifft(want, axis=-1, norm="ortho")
        assert np.array_equal(frames[..., config.cp_len :], want)
        assert np.array_equal(frames[..., : config.cp_len], want[..., config.n_fft - config.cp_len :])

    @pytest.mark.parametrize("config", RUN_CONFIGS)
    def test_demodulate_gathers_the_used_bins(self, config):
        rng = np.random.default_rng(41)
        shape = (2, 3, config.symbol_len)
        frames = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spectrum = np.fft.fft(frames[..., config.cp_len :], axis=-1, norm="ortho")
        got = demodulate_frame(frames, config)
        assert np.array_equal(got, spectrum[..., used_subcarrier_bins(config)])


class TestFrameHelpers:
    def test_frame_round_trip_multi_antenna(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((2, 7, CFG.n_used)) + 1j * rng.standard_normal(
            (2, 7, CFG.n_used)
        )
        sig = modulate_frame(values, CFG)
        assert sig.shape == (2, 7, CFG.symbol_len)
        back = demodulate_frame(sig, CFG)
        assert_allclose(back, values, atol=1e-12)

    def test_single_column_consistent_with_frame(self):
        # each symbol of a frame is modulated on its own: a one-column frame
        # equals that column's slice of the whole frame, bit for bit
        rng = np.random.default_rng(6)
        values = rng.standard_normal((2, 7, CFG.n_used)) + 1j * rng.standard_normal(
            (2, 7, CFG.n_used)
        )
        frame = modulate_frame(values, CFG)
        for s in range(7):
            alone = modulate_frame(values[:, s : s + 1], CFG)
            assert np.array_equal(alone, frame[:, s : s + 1])

    def test_stacked_slots_bit_identical_to_slot_by_slot(self):
        # leading axes stack slots: two (antenna, symbol) slots in one call
        # modulate and demodulate exactly as each slot does alone
        rng = np.random.default_rng(8)
        values = rng.standard_normal((2, 2, 7, CFG.n_used)) + 1j * rng.standard_normal(
            (2, 2, 7, CFG.n_used)
        )
        frames = modulate_frame(values, CFG)
        back = demodulate_frame(frames.copy(), CFG)  # the demodulator overwrites its input
        assert frames.shape == (2, 2, 7, CFG.symbol_len) and back.shape == values.shape
        for i in range(2):
            alone = modulate_frame(values[i], CFG)
            assert np.array_equal(frames[i], alone)
            assert np.array_equal(back[i], demodulate_frame(alone, CFG))

    @pytest.mark.parametrize(
        "shape",
        [(2, 7 * CFG.symbol_len), (2, 7, CFG.n_fft)],
        ids=["stream", "no-prefix"],
    )
    def test_rejects_frames_of_another_symbol_length(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
            demodulate_frame(np.zeros(shape, dtype=complex), CFG)

    def test_signal_validates_length(self):
        # multi-antenna frames must hold whole symbols too
        with pytest.raises(ValueError, match="frames must be"):
            demodulate_frame(np.zeros((2, 2, CFG.symbol_len + 1), dtype=complex), CFG)


class TestCircularConvolutionDichotomy:
    """Per-subcarrier Y = H*X holds iff the CP covers the channel memory."""

    def _residual(self, n_taps: int, seed: int = 7) -> float:
        rng = np.random.default_rng(seed)
        values = (
            rng.standard_normal((1, 7, CFG.n_used)) + 1j * rng.standard_normal((1, 7, CFG.n_used))
        ) / np.sqrt(2)
        taps = (rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)) / np.sqrt(
            2 * n_taps
        )
        sig = modulate_frame(values, CFG)
        rx = np.convolve(sig[0].ravel(), taps)[: sig[0].size]
        got = demodulate_frame(rx.reshape(sig[0].shape), CFG)
        ch = ChannelRealization(taps[None, None, :], PowerDelayProfile.uniform(n_taps))
        h = ch.frequency_responses(CFG.n_fft, used_subcarrier_bins(CFG))[0, 0]
        pred = h[None, :] * values[0]
        return float(np.linalg.norm(got - pred) / np.linalg.norm(pred))

    def test_cp_sufficient_has_no_residual(self):
        assert self._residual(CFG.cp_len + 1) < 1e-12

    def test_cp_insufficient_has_measurable_residual(self):
        assert self._residual(40) > 1e-3
