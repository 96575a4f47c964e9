"""Tests for the Rayleigh tap-delay channel, its overrun past the cyclic
prefix and AWGN.

The time-domain channel (linear convolution of the whole stream) lives in
tests/oracles.py; the sweep's frequency-domain receive path is checked
against it.
"""

import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import apply_channel, time_domain_chain, window_overrun

from ltelink.channel import (
    MIN_SNR_DB,
    ChannelRealization,
    PowerDelayProfile,
    add_awgn,
    generate_channel,
    noise_variance,
    overrun,
)
from ltelink.estimation import interpolate_ls, ls_interpolation_taps
from ltelink.grid import (
    PILOT_SYMBOLS,
    Constellation,
    SystemConfig,
    build_pilot_pattern,
    used_subcarrier_bins,
)
from ltelink.harness import _make_context, _receive
from ltelink.ofdm import demodulate_frame, modulate_frame


class TestPowerDelayProfile:
    def test_uniform(self):
        pdp = PowerDelayProfile.uniform(4)
        assert pdp.n_taps == 4
        assert pdp.span == 4
        assert_allclose(pdp.tap_powers, 0.25)
        assert PowerDelayProfile.uniform(np.int64(3)) == PowerDelayProfile.uniform(3)

    @pytest.mark.parametrize(
        "n_taps, message",
        [
            (0, "need at least one tap"),
            (True, "n_taps must be integral, got True"),
            (3.0, "n_taps must be integral, got 3.0"),
            ("3", "n_taps must be integral, got '3'"),
        ],
        ids=["zero", "bool", "float", "str"],
    )
    def test_uniform_rejects_a_bad_count(self, n_taps, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PowerDelayProfile.uniform(n_taps)

    @pytest.mark.parametrize(
        "delays, powers",
        [([0, 1], [1.0]), ([], []), ([[0, 1]], [[0.5, 0.5]])],
        ids=["unequal", "empty", "2-d"],
    )
    def test_rejects_tap_arrays_that_are_not_equal_length_1d(self, delays, powers):
        with pytest.raises(ValueError, match="equal-length 1-D arrays"):
            PowerDelayProfile(np.array(delays), np.array(powers))

    def test_rejects_bad_power_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PowerDelayProfile(np.arange(2), np.array([0.5, 0.6]))

    @pytest.mark.parametrize("powers", [[np.nan], [1.0, np.nan], [np.inf, -np.inf], [-0.5, 1.5]])
    def test_rejects_non_finite_and_negative_powers(self, powers):
        # NaN passes both a sign test and a sum test, as every comparison with it is False
        with pytest.raises(ValueError, match="finite and non-negative"):
            PowerDelayProfile(np.arange(len(powers)), np.array(powers))

    def test_rejects_nonzero_first_delay(self):
        with pytest.raises(ValueError, match="start at 0"):
            PowerDelayProfile(np.array([1, 2]), np.array([0.5, 0.5]))

    def test_rejects_non_increasing_delays(self):
        with pytest.raises(ValueError, match="increasing"):
            PowerDelayProfile(np.array([0, 0]), np.array([0.5, 0.5]))

    def test_truncated_renormalizes(self):
        pdp = PowerDelayProfile.uniform(40).truncated(16)
        assert pdp.n_taps == 16
        assert pdp.tap_powers.sum() == pytest.approx(1.0)
        assert PowerDelayProfile.uniform(6).truncated(16).n_taps == 6

    def test_truncated_cuts_by_delay_not_tap_count(self):
        pdp = PowerDelayProfile(np.array([0, 4, 20, 40]), np.array([0.4, 0.2, 0.2, 0.2]))
        cut = pdp.truncated(16)
        assert cut.tap_delays.tolist() == [0, 4]
        assert cut.tap_powers.tolist() == pytest.approx([2 / 3, 1 / 3])
        assert pdp.truncated(41) is pdp
        with pytest.raises(ValueError, match="no tap power"):
            PowerDelayProfile(np.array([0, 20]), np.array([0.0, 1.0])).truncated(16)
        with pytest.raises(ValueError, match="no tap power"):
            pdp.truncated(0)

    def test_compares_and_hashes_by_value(self):
        a, b = PowerDelayProfile.uniform(3), PowerDelayProfile.uniform(3)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert PowerDelayProfile.uniform(40).truncated(16) == PowerDelayProfile.uniform(16)
        assert a != PowerDelayProfile.uniform(4)
        assert a != PowerDelayProfile(np.array([0, 1, 3]), np.full(3, 1 / 3))
        assert a != PowerDelayProfile(np.arange(3), np.array([0.5, 0.25, 0.25]))
        assert a != (a.tap_delays, a.tap_powers)


class TestGenerateChannel:
    def test_single_tap_unit_power_moment(self):
        rng = np.random.default_rng(0)
        pdp = PowerDelayProfile.uniform(1)
        draws = np.array(
            [generate_channel(pdp, 1, 1, rng).taps[0, 0, 0] for _ in range(10_000)]
        )
        assert 0.97 < np.mean(np.abs(draws) ** 2) < 1.03

    def test_uniform_four_tap_variances(self):
        rng = np.random.default_rng(1)
        pdp = PowerDelayProfile.uniform(4)
        taps = np.array([generate_channel(pdp, 1, 1, rng).taps[0, 0] for _ in range(10_000)])
        per_tap = np.mean(np.abs(taps) ** 2, axis=0)
        assert np.all((0.97 * 0.25 < per_tap) & (per_tap < 1.03 * 0.25))

    def test_total_energy_is_unit(self):
        rng = np.random.default_rng(2)
        pdp = PowerDelayProfile.uniform(10)
        energy = [
            np.sum(np.abs(generate_channel(pdp, 1, 1, rng).taps) ** 2) for _ in range(10_000)
        ]
        assert np.mean(energy) == pytest.approx(1.0, rel=0.03)

    def test_deterministic_under_fixed_seed(self):
        pdp = PowerDelayProfile.uniform(6)
        a = generate_channel(pdp, 2, 2, np.random.default_rng(42)).taps
        b = generate_channel(pdp, 2, 2, np.random.default_rng(42)).taps
        assert np.array_equal(a, b)

    def test_pairs_are_uncorrelated(self):
        rng = np.random.default_rng(3)
        pdp = PowerDelayProfile.uniform(1)
        taps = np.array(
            [generate_channel(pdp, 2, 2, rng).taps.ravel() for _ in range(20_000)]
        )
        corr = taps.T.conj() @ taps / len(taps)
        off_diag = corr - np.diag(np.diag(corr))
        # 3 standard errors of a unit-variance cross moment at n=20000
        assert np.max(np.abs(off_diag)) < 3 / np.sqrt(len(taps))


def channel_frequency_response(g, n_fft, tap_delays=None):
    """Response of one (tx, rx) pair with taps g at tap_delays (default 0, 1, ...)."""
    g = np.asarray(g, dtype=complex)
    delays = np.arange(len(g)) if tap_delays is None else np.asarray(tap_delays)
    pdp = PowerDelayProfile(delays, np.full(len(g), 1.0 / len(g)))
    return ChannelRealization(g[None, None, :], pdp).frequency_responses(n_fft)[0, 0]


class TestFrequencyResponse:
    def test_flat_for_single_tap(self):
        h = channel_frequency_response(np.array([1.0 + 0j]), 64)
        assert_allclose(h, 1.0, atol=1e-14)

    def test_pure_delay_has_unit_modulus_linear_phase(self):
        h = channel_frequency_response(np.array([0, 1.0 + 0j]), 64)
        assert_allclose(np.abs(h), 1.0, atol=1e-12)
        k = np.arange(64)
        assert_allclose(np.angle(h[1:32]), np.angle(np.exp(-2j * np.pi * k[1:32] / 64)), atol=1e-12)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        h = channel_frequency_response(g, 128)
        # brute-force evaluation of the defining sum, subcarrier by subcarrier
        for k in (0, 1, 7, 63, 127):
            direct = sum(g[l] * np.exp(-2j * np.pi * k * l / 128) for l in range(8))
            assert h[k] == pytest.approx(direct, abs=1e-10)

    def test_sparse_delays(self):
        g = np.array([1.0, 0.5j])
        h = channel_frequency_response(g, 64, tap_delays=np.array([0, 5]))
        for k in (0, 3, 33):
            direct = g[0] + g[1] * np.exp(-2j * np.pi * k * 5 / 64)
            assert h[k] == pytest.approx(direct, abs=1e-12)

    def test_bins_select_from_the_full_response(self):
        rng = np.random.default_rng(13)
        ch = generate_channel(PowerDelayProfile.uniform(7), 2, 2, rng)
        bins = used_subcarrier_bins(SystemConfig())
        full = ch.frequency_responses(512)
        assert full.shape == (2, 2, 512)
        assert np.array_equal(ch.frequency_responses(512, bins), full[:, :, bins])

    def test_rejects_span_beyond_the_fft_size(self):
        # a 64-point response of a 65-sample channel would alias tap 64 onto tap 0
        ch = generate_channel(PowerDelayProfile.uniform(65), 1, 1, np.random.default_rng(14))
        assert ch.frequency_responses(65).shape == (1, 1, 65)
        with pytest.raises(ValueError, match="exceeds the FFT size 64"):
            ch.frequency_responses(64)


class TestApplyChannel:
    """The time-domain oracle channel the receive path is checked against."""

    CFG = SystemConfig(n_tx=2, n_rx=2)

    def _random_signal(self, rng, n_ant=2, n_sym=3):
        shape = (n_ant, n_sym, self.CFG.symbol_len)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_identity_channel(self):
        rng = np.random.default_rng(5)
        sig = self._random_signal(rng, n_ant=1)
        ch = ChannelRealization(np.ones((1, 1, 1), dtype=complex), PowerDelayProfile.uniform(1))
        out = apply_channel(sig, ch)
        assert_allclose(out, sig, atol=0)

    def test_linear_in_the_input(self):
        rng = np.random.default_rng(6)
        pdp = PowerDelayProfile.uniform(5)
        ch = generate_channel(pdp, 2, 2, rng)
        x = self._random_signal(rng)
        y = self._random_signal(rng)
        a, b = 0.7 - 0.2j, -1.1 + 0.4j
        lhs = apply_channel(a * x + b * y, ch)
        rhs = a * apply_channel(x, ch) + b * apply_channel(y, ch)
        assert_allclose(lhs, rhs, atol=1e-12 * np.abs(rhs).max())

    def test_matches_numpy_convolve(self):
        rng = np.random.default_rng(7)
        pdp = PowerDelayProfile.uniform(9)
        ch = generate_channel(pdp, 2, 2, rng)
        sig = self._random_signal(rng)
        out = apply_channel(sig, ch)
        n = sig[0].size
        for r in range(2):
            ref = sum(np.convolve(sig[t].ravel(), ch.taps[t, r])[:n] for t in range(2))
            assert_allclose(out[r].ravel(), ref, atol=1e-10)

    def test_cross_module_diagonalization(self):
        # noiseless CP-covered end-to-end: demodulated grid equals H o X
        rng = np.random.default_rng(8)
        cfg = self.CFG
        pdp = PowerDelayProfile.uniform(cfg.cp_len)
        ch = generate_channel(pdp, 2, 2, rng)
        values = rng.standard_normal((2, 7, cfg.n_used)) + 1j * rng.standard_normal(
            (2, 7, cfg.n_used)
        )
        rx = apply_channel(modulate_frame(values, cfg), ch)
        got = demodulate_frame(rx, cfg)
        h = ch.frequency_responses(cfg.n_fft, used_subcarrier_bins(cfg))
        pred = np.einsum("trk,tsk->rsk", h, values)
        assert np.max(np.abs(got - pred)) / np.abs(pred).max() < 1e-10

    def test_cp_exceeding_channel_breaks_diagonalization(self):
        # L = 40 > cp_len + 1: the per-subcarrier relation must fail measurably
        rng = np.random.default_rng(12)
        cfg = self.CFG
        ch = generate_channel(PowerDelayProfile.uniform(40), 2, 2, rng)
        corners = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
        values = corners[rng.integers(0, 4, (2, 7, cfg.n_used))]
        rx = apply_channel(modulate_frame(values, cfg), ch)
        got = demodulate_frame(rx, cfg)
        h = ch.frequency_responses(cfg.n_fft, used_subcarrier_bins(cfg))
        pred = np.einsum("trk,tsk->rsk", h, values)
        residual = np.linalg.norm(got - pred) / np.linalg.norm(pred)
        assert residual > 1e-3

    def test_rejects_stream_shorter_than_channel(self):
        sig = np.ones((1, 1, 4), dtype=complex)
        ch = ChannelRealization(
            np.ones((1, 1, 6), dtype=complex) / np.sqrt(6), PowerDelayProfile.uniform(6)
        )
        with pytest.raises(ValueError, match="shorter"):
            apply_channel(sig, ch)


def _receive_cases():
    # L in {1, cp, cp + 1, cp + 2, 40, n_fft}: no overrun, the longest the CP
    # covers, the first and second lengths past it, the sweep's longest and
    # the longest a configuration accepts
    for bw, cp in ((5.0, 16), (10.0, 72), (1.25, 0)):
        n_fft = SystemConfig(bandwidth_mhz=bw, cp_len=cp).n_fft
        for length in sorted({1, max(cp, 1), cp + 1, cp + 2, 40, n_fft}):
            yield pytest.param(bw, cp, length, id=f"{bw}MHz-cp{cp}-L{length}")


class TestOverrun:
    CFG = SystemConfig()  # 5 MHz, 512-point FFT, cp 16

    def _frames(self, rng, cfg=CFG):
        values = rng.standard_normal((2, 7, cfg.n_used)) + 1j * rng.standard_normal(
            (2, 7, cfg.n_used)
        )
        return modulate_frame(values, cfg)

    def test_zero_when_the_cp_covers_the_channel(self):
        # zero-width heads, and the time-domain oracle's windows are circular
        # throughout: linear minus circular is zero in every sample
        cfg = self.CFG
        rng = np.random.default_rng(15)
        tx = self._frames(rng)
        for length in (1, 6, cfg.cp_len + 1):
            ch = generate_channel(PowerDelayProfile.uniform(length), 2, 2, rng)
            assert overrun(tx, ch, cfg).shape == (2, 7, 0)
            assert_allclose(window_overrun(tx, ch, cfg), 0, atol=1e-12)

    def test_linear_output_is_circular_plus_overrun_in_every_window(self):
        # the time-domain identity behind the receive path: window m of the
        # linearly convolved stream is the circular convolution of symbol m's
        # body plus the overrun, whose first span - 1 - cp samples are the
        # returned head and whose later samples are zero
        cfg = self.CFG
        rng = np.random.default_rng(16)
        tx = self._frames(rng)
        ch = generate_channel(PowerDelayProfile.uniform(40), 2, 2, rng)
        head = overrun(tx, ch, cfg)
        n_over = 40 - 1 - cfg.cp_len
        assert head.shape == (2, 7, n_over) and np.abs(head).max() > 1e-3
        want = window_overrun(tx, ch, cfg)
        assert_allclose(head, want[..., :n_over], rtol=0, atol=1e-12)
        assert_allclose(want[..., n_over:], 0, atol=1e-12)

    def test_first_symbol_has_zero_history(self):
        # with only the first symbol transmitted, the overrun of window 0 is
        # the cyclic samples the delay-30 tap reads, negated
        cfg = self.CFG
        tx = self._frames(np.random.default_rng(17))
        tx[:, 1:] = 0
        ch = ChannelRealization(
            np.ones((2, 1, 2)) / np.sqrt(2), PowerDelayProfile(np.array([0, 30]), np.full(2, 0.5))
        )
        head = overrun(tx, ch, cfg)[0, 0]
        n_over = 30 - cfg.cp_len
        body = tx[:, 0, cfg.cp_len :]
        expected = -(body[0, -30 : -30 + n_over] + body[1, -30 : -30 + n_over]) / np.sqrt(2)
        assert head.shape == (n_over,)
        assert_allclose(head, expected, atol=1e-15)
        assert_allclose(window_overrun(tx, ch, cfg)[0, 0, n_over:], 0, atol=1e-12)

    def test_rejects_mismatched_streams_and_spans_beyond_the_fft(self):
        rng = np.random.default_rng(18)
        tx = self._frames(rng)
        with pytest.raises(ValueError, match="channel expects 1"):
            overrun(tx, generate_channel(PowerDelayProfile.uniform(20), 1, 2, rng), self.CFG)
        too_long = generate_channel(PowerDelayProfile.uniform(513), 2, 2, rng)
        with pytest.raises(ValueError, match="exceeds the FFT size 512"):
            overrun(tx, too_long, self.CFG)

    def test_rejects_frames_of_another_symbol_length(self):
        # a (n_tx, n_samples) stream seen as one long symbol per antenna
        rng = np.random.default_rng(32)
        ch = generate_channel(PowerDelayProfile.uniform(40), 2, 2, rng)
        with pytest.raises(ValueError, match="frames must be"):
            overrun(np.zeros((2, 1, 7 * self.CFG.symbol_len), dtype=complex), ch, self.CFG)

    def test_long_channel_chunk_stays_small(self):
        # a 3-trial chunk at 10 MHz, cp 72, L = n_fft, 951 overrun samples per
        # window: its FFT convolution peaks near 4 MB, where an (n_over x
        # n_over) coupling matrix per (tx, rx) pair would take 61 MB
        cfg = SystemConfig(bandwidth_mhz=10.0, cp_len=72)
        rng = np.random.default_rng(19)
        pdp = PowerDelayProfile.uniform(cfg.n_fft)
        taps = np.stack([generate_channel(pdp, 2, 2, rng).taps for _ in range(3)])
        ch = ChannelRealization(taps, pdp)
        values = rng.standard_normal((6, 7, cfg.n_used)) + 0j
        tx = modulate_frame(values.reshape(3, 2, 7, cfg.n_used), cfg)
        tracemalloc.start()
        try:
            over = overrun(tx, ch, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert over.shape == (3, 2, 7, cfg.n_fft - 1 - cfg.cp_len) and np.abs(over).max() > 1e-3
        assert peak < 16e6


class TestReceivePath:
    """The sweep's frequency-domain chain against the time-domain oracle."""

    @pytest.mark.parametrize("snr_db", [np.inf, 10.0], ids=["snr-inf", "snr-10"])
    @pytest.mark.parametrize("bw, cp, length", _receive_cases())
    def test_matches_time_domain_chain(self, bw, cp, length, snr_db):
        # a chunk of two trials against the oracle trial by trial
        ctx = _make_context(SystemConfig(bandwidth_mhz=bw, cp_len=cp), 19)
        pdp, noise = PowerDelayProfile.uniform(length), noise_variance(snr_db)
        seeds = (20, 21)
        rngs = [np.random.default_rng(s) for s in seeds]
        bits, rx_grid, h_true = _receive(ctx, pdp, noise, rngs)
        assert rx_grid.shape == (len(seeds), ctx.config.n_rx, 7, ctx.config.n_used)
        assert bits.dtype == np.int8
        for i, seed in enumerate(seeds):
            oracle_rng = np.random.default_rng(seed)
            want_bits, want_grid, want_h = time_domain_chain(ctx, pdp, noise, oracle_rng)
            rel = np.abs(rx_grid[i] - want_grid).max() / np.abs(want_grid).max()
            assert rel < 1e-12
            assert np.array_equal(bits[i], want_bits) and np.array_equal(h_true[i], want_h)
            # the same draws in the same order: taps, bits, then noise
            assert rngs[i].bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("snr_db", [np.inf, 10.0], ids=["snr-inf", "snr-10"])
    @pytest.mark.parametrize(
        "config, length",
        [
            pytest.param(SystemConfig(), 17, id="5MHz-cp16-L17"),
            pytest.param(SystemConfig(), 20, id="5MHz-cp16-L20"),
            pytest.param(SystemConfig(), 40, id="5MHz-cp16-L40"),
            pytest.param(SystemConfig(), 512, id="5MHz-cp16-L512"),
            pytest.param(SystemConfig(bandwidth_mhz=10.0, cp_len=72), 100, id="10MHz-cp72-L100"),
            pytest.param(SystemConfig(n_tx=1), 40, id="1tx-L40"),
            pytest.param(SystemConfig(constellation=Constellation.QAM16), 40, id="qam16-L40"),
        ],
    )
    def test_pilot_symbols_match_the_whole_slot(self, config, length, snr_db):
        # receiving only the pilot symbols, as the calibration does, draws the
        # same taps, bits and whole-slot noise, and gives the same windows
        ctx = _make_context(config, 19)
        pdp, noise = PowerDelayProfile.uniform(length), noise_variance(snr_db)
        seeds = (20, 21)
        whole, pilots = ([np.random.default_rng(s) for s in seeds] for _ in range(2))
        bits, rx_grid, h_true = _receive(ctx, pdp, noise, whole)
        got_bits, got_grid, got_h = _receive(ctx, pdp, noise, pilots, PILOT_SYMBOLS)
        assert got_grid.shape == (len(seeds), config.n_rx, 2, config.n_used)
        assert np.array_equal(got_bits, bits) and np.array_equal(got_h, h_true)
        want = rx_grid[:, :, list(PILOT_SYMBOLS)]
        assert np.abs(got_grid - want).max() <= 1e-12 * np.abs(want).max()
        for a, b in zip(whole, pilots):
            assert a.bit_generator.state == b.bit_generator.state


class TestSlotLayoutInMemory:
    """The slot layout holds in memory: the responses, the demodulated grid,
    the LS estimates and a received chunk are C-contiguous, subcarriers
    innermost, so their products, sums and energies read unit strides."""

    CFG = SystemConfig()

    def test_frequency_responses(self):
        pdp = PowerDelayProfile.uniform(20)
        taps = np.ones((4, 2, 2, pdp.n_taps), dtype=complex)
        ch = ChannelRealization(taps, pdp)
        h = ch.frequency_responses(self.CFG.n_fft, used_subcarrier_bins(self.CFG))
        assert h.shape == (4, 2, 2, self.CFG.n_used) and h.flags.c_contiguous

    @pytest.mark.parametrize("read", [slice(None), list(PILOT_SYMBOLS)], ids=["slot", "pilot-symbols"])
    def test_demodulated_grid(self, read):
        # from a whole chunk of frames and from a copy of some of its symbols
        frames = np.ones((4, 2, 7, self.CFG.symbol_len), dtype=complex)[:, :, read]
        grid = demodulate_frame(frames, self.CFG)
        assert grid.shape == (*frames.shape[:-1], self.CFG.n_used) and grid.flags.c_contiguous

    def test_ls_interpolation(self):
        comb = build_pilot_pattern(self.CFG).comb
        taps = ls_interpolation_taps(comb, self.CFG.n_used)
        h = interpolate_ls(np.ones((16, comb.size), dtype=complex), taps)
        assert h.shape == (16, self.CFG.n_used) and h.flags.c_contiguous

    @pytest.mark.parametrize("symbols", [tuple(range(7)), PILOT_SYMBOLS], ids=["detect", "calibrate"])
    def test_received_chunk(self, symbols):
        ctx = _make_context(self.CFG, 19)
        rngs = [np.random.default_rng(s) for s in range(4)]
        pdp, noise = PowerDelayProfile.uniform(40), noise_variance(10.0)
        _, rx_grid, h_true = _receive(ctx, pdp, noise, rngs, symbols)
        assert rx_grid.shape == (4, 2, len(symbols), self.CFG.n_used) and rx_grid.flags.c_contiguous
        assert h_true.shape == (4, 2, 2, self.CFG.n_used) and h_true.flags.c_contiguous


class TestTrialAxis:
    """Leading axes of a realization stack trials: each slice is that trial's result."""

    CFG = SystemConfig()

    def test_responses_and_overrun_per_trial(self):
        rng = np.random.default_rng(30)
        pdp = PowerDelayProfile.uniform(40)
        chans = [generate_channel(pdp, 2, 2, rng) for _ in range(3)]
        stacked = ChannelRealization(np.stack([ch.taps for ch in chans]), pdp)
        assert (stacked.n_tx, stacked.n_rx) == (2, 2)
        values = rng.standard_normal((3, 2, 7, self.CFG.n_used)) + 0j
        tx = modulate_frame(values, self.CFG)
        bins = used_subcarrier_bins(self.CFG)
        h = stacked.frequency_responses(self.CFG.n_fft, bins)
        over = overrun(tx, stacked, self.CFG)
        assert h.shape == (3, 2, 2, self.CFG.n_used)
        assert over.shape == (3, 2, 7, 40 - 1 - self.CFG.cp_len)
        for i, ch in enumerate(chans):
            assert_allclose(h[i], ch.frequency_responses(self.CFG.n_fft, bins), rtol=0, atol=1e-15)
            assert_allclose(over[i], overrun(tx[i], ch, self.CFG), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n_tx, n_rx", [(2, 2), (1, 2), (2, 1)])
    def test_stacked_slots_overrun_bit_identical_to_slot_by_slot(self, n_tx, n_rx):
        # two slots on a leading axis, each with its own channel, give each
        # slot's own frames exactly
        rng = np.random.default_rng(31)
        pdp = PowerDelayProfile.uniform(40)
        chans = [generate_channel(pdp, n_tx, n_rx, rng) for _ in range(2)]
        stacked = ChannelRealization(np.stack([ch.taps for ch in chans]), pdp)
        values = rng.standard_normal((2, n_tx, 7, self.CFG.n_used)) + 0j
        tx = modulate_frame(values, self.CFG)
        over = overrun(tx, stacked, self.CFG)
        assert over.shape == (2, n_rx, 7, 40 - 1 - self.CFG.cp_len)
        for i, ch in enumerate(chans):
            assert np.array_equal(over[i], overrun(tx[i], ch, self.CFG))
            want = window_overrun(tx[i], ch, self.CFG)
            assert_allclose(over[i], want[..., : over.shape[-1]], rtol=0, atol=1e-12)

    def test_rejects_taps_without_pair_axes(self):
        with pytest.raises(ValueError, match="n_tx, n_rx, n_taps"):
            ChannelRealization(np.ones((2, 4), dtype=complex), PowerDelayProfile.uniform(4))


class TestAwgn:
    def test_no_noise_sentinel(self):
        # nothing drawn and nothing added
        sig = np.ones((2, 8), dtype=complex)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert add_awgn(sig, noise_variance(np.inf), rng) is None
        assert np.array_equal(sig, np.ones((2, 8))) and rng.bit_generator.state == state

    def test_zero_db_variance(self):
        rng = np.random.default_rng(9)
        sig = np.zeros(100_000, dtype=complex)
        add_awgn(sig, noise_variance(0.0), rng)
        assert 0.98 < np.mean(np.abs(sig) ** 2) < 1.02

    def test_snr_scaling(self):
        rng = np.random.default_rng(10)
        sig = np.zeros(100_000, dtype=complex)
        add_awgn(sig, noise_variance(10.0), rng)
        assert np.mean(np.abs(sig) ** 2) == pytest.approx(0.1, rel=0.03)

    def test_one_draw_equals_the_two_draw_sum(self):
        # one (2, *shape) draw holds the real parts, then the imaginary ones:
        # bit for bit the sum of two draws, added into the signal in place,
        # here a strided slot of a larger buffer whose other slots stay as
        # they were
        rng = np.random.default_rng(11)
        buffer = rng.standard_normal((3, 2, 3, 50)) + 1j * rng.standard_normal((3, 2, 3, 50))
        before = buffer.copy()
        noise = noise_variance(7.0)
        scale = np.sqrt(noise / 2.0)
        draws = np.random.default_rng(12)
        a, b = draws.standard_normal((2, 3, 50)), draws.standard_normal((2, 3, 50))
        add_awgn(buffer[1], noise, np.random.default_rng(12))
        assert buffer[1].tobytes() == (before[1] + scale * (a + 1j * b)).tobytes()
        assert np.array_equal(buffer[::2], before[::2])

    @pytest.mark.parametrize("dtype", [float, np.complex64])
    def test_rejects_a_signal_that_is_not_complex128(self, dtype):
        rng = np.random.default_rng(13)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="complex128"):
            add_awgn(np.zeros(8, dtype=dtype), noise_variance(5.0), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("var", [-0.5, np.nan, np.inf], ids=["negative", "nan", "inf"])
    def test_rejects_a_variance_that_is_negative_or_not_finite(self, var):
        sig, rng = np.ones(8, dtype=complex), np.random.default_rng(14)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="noise_variance must be finite and non-negative"):
            add_awgn(sig, var, rng)
        assert np.array_equal(sig, np.ones(8)) and rng.bit_generator.state == state

    def test_reproducible(self):
        a, b = np.ones(64, dtype=complex), np.ones(64, dtype=complex)
        add_awgn(a, noise_variance(5.0), np.random.default_rng(1))
        add_awgn(b, noise_variance(5.0), np.random.default_rng(1))
        assert np.array_equal(a, b) and not np.array_equal(a, np.ones(64))

    def test_spec_rejects_nan_and_minus_inf(self):
        with pytest.raises(ValueError, match="snr_db"):
            noise_variance(np.nan)
        with pytest.raises(ValueError, match="snr_db"):
            noise_variance(-np.inf)

    @pytest.mark.parametrize(
        "snr_db",
        [
            *(-3082.6, -3100.0, -4000.0, np.float64(-4000.0), -3080.0),
            np.nextafter(MIN_SNR_DB, -np.inf),
        ],
        ids=[
            "inf-3082.6",
            "inf-3100",
            "zero-power-4000",
            "zero-power-4000-numpy",
            "overflowing-3080",
            "below-the-floor",
        ],
    )
    def test_an_snr_without_a_finite_variance_is_invalid(self, snr_db):
        # 1 / 10 ** (snr / 10) is inf below about -3082.5 dB, and 10 ** (snr / 10)
        # underflows to 0 far enough below; nearer, below MIN_SNR_DB, the
        # variance is finite but overflows the receiver's sums
        with pytest.raises(ValueError, match=re.escape(f"invalid snr_db: {float(snr_db)}")):
            noise_variance(snr_db)

    def test_noise_variance_values(self):
        assert noise_variance(0.0) == pytest.approx(1.0)
        assert noise_variance(20.0) == pytest.approx(0.01)
        assert noise_variance(np.inf) == 0.0
        # the lowest valid SNR and its variance, 1e100
        assert MIN_SNR_DB == -1000.0
        assert noise_variance(MIN_SNR_DB) == pytest.approx(1e100, rel=1e-12)

    @pytest.mark.parametrize("snr_db", [4000.0, np.float64(4000.0)], ids=["float", "numpy"])
    def test_noise_variance_past_the_float_range_is_zero(self, snr_db):
        # 10 ** 400 overflows a float; the variance it divides is no noise
        assert noise_variance(snr_db) == 0.0
