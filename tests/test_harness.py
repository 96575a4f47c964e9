"""Tests for the sweep harness: scoring, trials, records, CSV."""

import dataclasses
import io
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from oracles import (
    calibration_curves,
    correlation_matrices,
    interpolate_ls,
    lmmse_filter_solve,
    time_domain_chain,
)

from ltelink import estimation, harness, kernels, linkproc, ofdm
from ltelink.channel import ChannelRealization, PowerDelayProfile, noise_variance
from ltelink.grid import Constellation, GridLayout, SystemConfig, build_pilot_pattern
from ltelink.harness import (
    CSV_HEADER,
    Estimator,
    SweepConfig,
    SweepRecord,
    _energy,
    _make_context,
    _run_cell,
    _stream,
    emit_csv,
    format_summary,
    run_sweep,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


SMALL = SweepConfig(
    channel_lengths=(6,),
    snr_grid_db=(10.0,),
    n_frames=3,
    seed=7,
    estimators=(Estimator.LS, Estimator.PERFECT),
)


def compute_mse(h_hat, h_true, positions=None):
    """Normalized MSE of one (n_used,) response as the sweep scores it.

    The vector is scored as a single (tx, rx) pair whose pilot comb is
    positions; the ratio of the returned energy sums is the cell's MSE.
    """
    h_hat = np.asarray(h_hat, dtype=complex)[None, None, :]
    h_true = np.asarray(h_true, dtype=complex)[None, None, :]
    comb = np.arange(h_true.shape[-1]) if positions is None else positions
    num_all, num_pil = _energy(h_hat - h_true, comb)
    den_all, den_pil = _energy(h_true, comb)
    if positions is None:
        assert (num_pil, den_pil) == (num_all, den_all)
    return num_pil / den_pil


_TINY = SystemConfig(n_used=24)
_NO_CP = SystemConfig(cp_len=0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ChannelRealization(np.ones((2, 2, 3), complex), PowerDelayProfile.uniform(3)),
        lambda: estimation.ls_interpolation_taps(np.arange(0, 24, 3), 24),
        lambda: build_pilot_pattern(_TINY),
        lambda: GridLayout.build(_TINY, build_pilot_pattern(_TINY)),
        lambda: estimation._memoized_model(_TINY, PowerDelayProfile.uniform(4)),
        lambda: _make_context(_TINY, 0),
    ],
    ids=[
        "ChannelRealization",
        "LsTaps",
        "PilotPattern",
        "GridLayout",
        "CorrelationModel",
        "_LinkContext",
    ],
)
def test_array_holding_dataclasses_compare_without_raising(make):
    # a generated __eq__ would compare their arrays and raise; these compare
    # and hash by identity
    x = make()
    y = dataclasses.replace(x)
    assert isinstance(x == y, bool)
    assert x == x
    assert hash(x) == hash(x)


class TestComputeMse:
    """The energy-weighted MSE sums of harness._energy."""

    def test_exact_estimate_is_zero(self):
        h = np.array([1 + 1j, 2.0, -3j])
        assert compute_mse(h, h) == 0.0

    def test_flat_offset(self):
        h = np.exp(1j * np.linspace(0, 2, 8))  # |h| = 1 everywhere
        eps = 0.01
        assert compute_mse(h + eps, h) == pytest.approx(eps**2)

    def test_scale_invariance(self):
        rng = _rng(1)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        h_hat = h + 0.1 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        a = compute_mse(h_hat, h)
        b = compute_mse(3.7j * h_hat, 3.7j * h)
        assert a == pytest.approx(b)

    def test_position_filter(self):
        h = np.ones(4, dtype=complex)
        h_hat = np.array([1.0, 2.0, 1.0, 1.0], dtype=complex)
        assert compute_mse(h_hat, h, np.array([1])) == pytest.approx(1.0)
        assert compute_mse(h_hat, h, np.array([0, 2])) == 0.0

    def test_pairs_and_ports_are_energy_weighted(self):
        # all-subcarrier sums cover every pair; pilot sums only the comb's
        # subcarriers, which every port shares, on every (tx, rx) pair
        rng = _rng(2)
        h_true = rng.standard_normal((2, 2, 6)) + 1j * rng.standard_normal((2, 2, 6))
        h_hat = h_true + 0.1 * (rng.standard_normal((2, 2, 6)) + 0j)
        comb = np.array([0, 3])
        num_all, num_pil = _energy(h_hat - h_true, comb)
        den_all, den_pil = _energy(h_true, comb)
        err2, ref2 = np.abs(h_hat - h_true) ** 2, np.abs(h_true) ** 2
        assert num_all == pytest.approx(err2.sum())
        assert den_all == pytest.approx(ref2.sum())
        pairs = [(t, r) for t in range(2) for r in range(2)]
        assert num_pil == pytest.approx(sum(err2[t, r, [0, 3]].sum() for t, r in pairs))
        assert den_pil == pytest.approx(sum(ref2[t, r, [0, 3]].sum() for t, r in pairs))


class TestComputeBer:
    """Bit errors as the sweep counts them: detected payload bits against sent."""

    @staticmethod
    def _ber(monkeypatch, flip):
        # two noiseless slots of a CP-covered channel, detected with perfect
        # CSI, demap without error; flip picks the detected bits to report wrong
        demap, demapped = linkproc.demap_symbols, []

        def flipped(symbols, constellation):
            bits = demap(symbols, constellation)
            demapped.append(bits.size)
            return np.where(flip(np.arange(bits.size)), 1 - bits, bits)

        monkeypatch.setattr(linkproc, "demap_symbols", flipped)
        ctx = _make_context(SystemConfig(), 0)
        streams = [_rng(9), _rng(10)]
        pdp, methods = PowerDelayProfile.uniform(6), [Estimator.PERFECT]
        rows = _run_cell(ctx, pdp, np.inf, streams, methods, True)
        mse_all, mse_pilot, ber = rows[Estimator.PERFECT]
        assert demapped == [2 * 7600] and [mse_all, mse_pilot] == [0.0, 0.0]
        return ber

    def test_identical(self, monkeypatch):
        assert self._ber(monkeypatch, lambda i: np.zeros(i.shape, dtype=bool)) == 0.0

    def test_all_flipped(self, monkeypatch):
        assert self._ber(monkeypatch, lambda i: np.ones(i.shape, dtype=bool)) == 1.0

    def test_half_flipped(self, monkeypatch):
        assert self._ber(monkeypatch, lambda i: i % 2 == 1) == 0.5


def _oracle_trial(ctx, pdp, snr_db, rng, filters):
    """One trial rebuilt without the cell routine: the time-domain chain, LS
    by interpolate_ls, LMMSE by the dense solve, and per-slot ZF.  Returns
    one (|err|^2 all, |h|^2 all, |err|^2 comb, |h|^2 comb, errors, bits) row
    per filter name of ls, lmmse and perfect."""
    cfg = ctx.config
    bits, rx_grid, h_true = time_domain_chain(ctx, pdp, noise_variance(snr_db), rng)
    comb = ctx.layout.pattern.comb
    y_p = rx_grid[:, ctx.layout.pilot_symbols, comb].swapaxes(0, 1)  # (n_tx, n_rx, n_pilots)
    h_ls = y_p / ctx.pilot_values[:, None]
    snr = 10.0 ** (snr_db / 10.0)
    rows = []
    for name in filters:
        if name == "ls":
            h_hat = np.array([[interpolate_ls(h, comb, cfg.n_used) for h in h_t] for h_t in h_ls])
        elif name == "lmmse":
            corr = correlation_matrices(pdp.truncated(cfg.cp_len), comb, cfg)
            h_hat = h_ls @ lmmse_filter_solve(corr, cfg.constellation.beta / snr).T
        else:
            h_hat = h_true
        err2, ref2 = np.abs(h_hat - h_true) ** 2, np.abs(h_true) ** 2
        detected, _ = kernels.zf_detect_grid(rx_grid, h_hat)
        payload = detected.reshape(cfg.n_tx, -1)[:, ctx.layout.payload_index]
        rx_bits = [linkproc.demap_symbols(x, cfg.constellation) for x in payload]
        errors = np.count_nonzero(np.array(rx_bits) != bits)
        energies = [err2.sum(), ref2.sum(), err2[..., comb].sum(), ref2[..., comb].sum()]
        rows.append([*energies, errors, bits.size])
    return np.array(rows)


class TestRunSweep:
    def test_single_cell_single_frame(self):
        cfg = SweepConfig(
            channel_lengths=(6,),
            snr_grid_db=(20.0,),
            n_frames=1,
            seed=1,
            estimators=(Estimator.LMMSE,),
        )
        records = run_sweep(cfg)
        assert len(records) == 1
        assert records[0].n_trials == 1

    def test_record_count_is_cartesian_product(self):
        cfg = SweepConfig(
            channel_lengths=(6, 10),
            snr_grid_db=(0.0, 10.0, 20.0),
            n_frames=2,
            seed=1,
            estimators=(Estimator.LS, Estimator.PERFECT),
        )
        records = run_sweep(cfg)
        assert len(records) == 2 * 3 * 2

    def test_matches_chain_accumulation(self):
        # two full chunks and a partial one of a single trial; the cell rebuilt
        # trial by trial from the oracles must give the same bit errors, and
        # MSE up to the order of the sums
        cfg = SweepConfig(
            channel_lengths=(20,),
            snr_grid_db=(5.0, 25.0),
            n_frames=2 * harness._CHUNK + 1,
            seed=11,
            estimators=(Estimator.LS, Estimator.LMMSE, Estimator.PERFECT),
        )
        records = {(r.snr_db, r.estimator.value): r for r in run_sweep(cfg)}
        ctx = _make_context(cfg.system, cfg.seed)
        pdp = PowerDelayProfile.uniform(20)
        names = ("ls", "lmmse", "perfect")
        for si, snr in enumerate(cfg.snr_grid_db):
            sums = sum(
                _oracle_trial(ctx, pdp, snr, _stream(cfg.seed, 0, 0, si, trial), names)
                for trial in range(cfg.n_frames)
            )
            for name, (n_all, d_all, n_pil, d_pil, errors, bits) in zip(names, sums):
                rec = records[snr, name]
                assert rec.mse_all_subcarriers == pytest.approx(n_all / d_all, rel=1e-9)
                assert rec.mse_pilot_subcarriers == pytest.approx(n_pil / d_pil, rel=1e-9)
                assert rec.ber == errors / bits

    def test_calibration_curves_match_per_trial_oracle(self):
        # two full chunks and a partial one again, with streams spawned chunk
        # by chunk: the same children as spawning every trial's stream up front
        system, pdp, snrs = SystemConfig(), PowerDelayProfile.uniform(40), np.array([5.0, 25.0])
        n = 2 * harness._CHUNK + 1
        points = calibration_curves(system, pdp, snrs, n, _rng(3))
        assert [p[0] for p in points] == list(snrs)
        ctx = _make_context(system, 0)
        streams = _rng(3).spawn(len(snrs) * n)
        for i, (snr, ls, lmmse) in enumerate(points):
            sums = sum(
                _oracle_trial(ctx, pdp, snr, streams[i * n + j], ("ls", "lmmse"))
                for j in range(n)
            )
            assert ls == pytest.approx(sums[0, 0] / sums[0, 1], rel=1e-9)
            assert lmmse == pytest.approx(sums[1, 0] / sums[1, 1], rel=1e-9)

    def test_one_modulation_and_demodulation_per_chunk(self, monkeypatch):
        # the sweep modulates and demodulates each chunk once, the CP-covered
        # length included
        calls = {"modulate": 0, "demodulate": 0}

        def counting(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(ofdm, "modulate_frame", counting("modulate", ofdm.modulate_frame))
        monkeypatch.setattr(ofdm, "demodulate_frame", counting("demodulate", ofdm.demodulate_frame))
        cfg = SweepConfig(channel_lengths=(6, 20), snr_grid_db=(0.0, 30.0), n_frames=7, seed=6)
        run_sweep(cfg)
        # 2 lengths x 2 SNRs of sweep cells; L=20's threshold comes from its
        # own rows, with no cells of its own
        chunks = 2 * 2 * math.ceil(cfg.n_frames / harness._CHUNK)
        assert calls == {"modulate": chunks, "demodulate": chunks}

    @pytest.mark.parametrize("detect, sent, read", [(True, 7, 7), (False, 3, 2)])
    def test_calibration_receives_only_the_pilot_symbols(self, monkeypatch, detect, sent, read):
        # a cell that does not detect modulates symbols 0, 3 and 4 (4's overrun
        # reads 3) and demodulates the windows of pilot symbols 0 and 4 only
        system = SystemConfig()
        shapes = {"modulate": [], "demodulate": []}

        def spying(name, fn):
            def call(grid, config):
                shapes[name].append(grid.shape)
                return fn(grid, config)

            return call

        monkeypatch.setattr(ofdm, "modulate_frame", spying("modulate", ofdm.modulate_frame))
        monkeypatch.setattr(ofdm, "demodulate_frame", spying("demodulate", ofdm.demodulate_frame))
        ctx, pdp, methods = _make_context(system, 0), PowerDelayProfile.uniform(40), [Estimator.LS]
        c = harness._CHUNK
        _run_cell(ctx, pdp, 10.0, [_rng(s) for s in range(c + 1)], methods, detect)
        # a full chunk and one of a single trial, each with an antenna axis
        assert shapes["modulate"] == [(c, 2, sent, system.n_used), (1, 2, sent, system.n_used)]
        per_rx = (read, system.symbol_len)
        assert shapes["demodulate"] == [(c, 2, *per_rx), (1, 2, *per_rx)]

    @pytest.mark.parametrize(
        "length, detect",
        [(40, True), (40, False), (6, True)],
        ids=["L40-detect", "L40-calibrate", "L6-cp-covered"],
    )
    def test_grid_is_released_before_the_overrun(self, monkeypatch, length, detect):
        # the filled slot grid is dead by the time the overrun is formed: the
        # chain has already formed H * X from it and modulated it
        grids, entered = [], []
        fill, over = GridLayout.fill, harness.overrun

        def spying_fill(self, *args):
            values = fill(self, *args)
            grids.append(weakref.ref(values))
            return values

        def spying_overrun(*args):
            entered.append(grids[-1]() is None)
            return over(*args)

        monkeypatch.setattr(GridLayout, "fill", spying_fill)
        monkeypatch.setattr(harness, "overrun", spying_overrun)
        system = SystemConfig()  # 5 MHz, cp 16
        ctx, pdp = _make_context(system, 0), PowerDelayProfile.uniform(length)
        rngs = [_rng(s) for s in range(harness._CHUNK + 1)]
        _run_cell(ctx, pdp, 10.0, rngs, [Estimator.LS], detect)
        assert entered == [True, True]

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7])
    def test_results_do_not_depend_on_the_chunk_size(self, monkeypatch, chunk):
        # a sweep that detects and calibrates L = 20, 7 frames a cell: the
        # chunk size only regroups the trials, so it moves no draw and no
        # decision, and MSE and thresholds only by the order of the sums
        cfg = SweepConfig(channel_lengths=(6, 20), snr_grid_db=(5.0, 25.0), n_frames=7, seed=9)

        def each_threshold(records):
            return {n: harness._hybrid_threshold(cfg, n, records) for n in cfg.channel_lengths}

        want = run_sweep(cfg)
        monkeypatch.setattr(harness, "_CHUNK", chunk)
        got = run_sweep(cfg)
        thresholds, want_thresholds = each_threshold(got), each_threshold(want)
        # the CP covers L = 6, which has no threshold, and L = 20 calibrates one
        assert thresholds[6] == want_thresholds[6] == math.inf
        assert math.isfinite(thresholds[20])
        assert thresholds[20] == pytest.approx(want_thresholds[20], rel=1e-12)
        assert [r.branch_fraction_ls for r in got] == [r.branch_fraction_ls for r in want]
        assert {r.branch_fraction_ls for r in got} == {None, 0.0, 1.0}
        for a, b in zip(got, want, strict=True):
            assert (a.channel_len, a.snr_db, a.estimator) == (b.channel_len, b.snr_db, b.estimator)
            assert a.ber == b.ber
            assert a.mse_all_subcarriers == pytest.approx(b.mse_all_subcarriers, rel=1e-12)
            assert a.mse_pilot_subcarriers == pytest.approx(b.mse_pilot_subcarriers, rel=1e-12)

    def test_detecting_chunk_working_set_stays_lean(self, monkeypatch):
        """tracemalloc peak of one detecting chunk of _CHUNK trials, 5 MHz,
        L = 40: the receive chain and the detection of the LS, LMMSE and
        true-channel estimates.  It measured 0.316 MB a trial in chunks of 4,
        and the bound is 0.38 MB, 20% above.  A whole-frame overrun, a
        complex noise temporary per trial and out-of-place FFTs measured
        0.403 MB a trial in chunks of 3."""
        ctx, pdp = _make_context(SystemConfig(), 0), PowerDelayProfile.uniform(40)
        methods = (Estimator.LS, Estimator.LMMSE, Estimator.PERFECT)
        lmmse = estimation.lmmse_factors(ctx.config, pdp, noise_variance(10.0))
        monkeypatch.setattr(estimation, "lmmse_factors", lambda *args: lmmse)
        n = harness._CHUNK
        _run_cell(ctx, pdp, 10.0, [_rng(s) for s in range(n)], methods, detect=True)  # warm caches
        tracemalloc.start()
        try:
            _run_cell(ctx, pdp, 10.0, [_rng(s) for s in range(n)], methods, detect=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 0.38e6

    def test_perfect_csi_noiseless_is_exact(self):
        cfg = dataclasses.replace(
            SMALL, channel_lengths=(10,), snr_grid_db=(np.inf,), estimators=(Estimator.PERFECT,)
        )
        rec = run_sweep(cfg)[0]
        assert (rec.mse_all_subcarriers, rec.mse_pilot_subcarriers, rec.ber) == (0.0, 0.0, 0.0)

    def test_ls_mse_reasonable_at_high_snr(self):
        cfg = dataclasses.replace(SMALL, snr_grid_db=(30.0,), estimators=(Estimator.LS,))
        rec = run_sweep(cfg)[0]
        assert 0 < rec.mse_pilot_subcarriers < 0.01

    def test_branch_recorded_only_for_hybrid(self):
        cfg = dataclasses.replace(
            SMALL,
            channel_lengths=(6, 40),
            snr_grid_db=(30.0,),
            n_frames=1,
            estimators=(Estimator.LS, Estimator.HYBRID, Estimator.PERFECT),
            threshold_db=12.0,
        )
        branch = {(r.channel_len, r.estimator): r.branch_fraction_ls for r in run_sweep(cfg)}
        assert branch == {
            (6, Estimator.LS): None,
            (6, Estimator.HYBRID): 0.0,  # CP-covered channel stays on LMMSE
            (6, Estimator.PERFECT): None,
            (40, Estimator.LS): None,
            (40, Estimator.HYBRID): 1.0,
            (40, Estimator.PERFECT): None,
        }

    def test_hybrid_alone_equals_its_branch_rows(self):
        # the hybrid's branch is computed even when it is not requested itself
        base = SweepConfig(
            channel_lengths=(40,),
            snr_grid_db=(0.0, 30.0),
            n_frames=2,
            seed=4,
            threshold_db=12.0,
        )
        hybrid = run_sweep(dataclasses.replace(base, estimators=(Estimator.HYBRID,)))
        branches = run_sweep(dataclasses.replace(base, estimators=(Estimator.LS, Estimator.LMMSE)))
        rows = {(r.snr_db, r.estimator): r for r in branches}
        chosen = {0.0: Estimator.LMMSE, 30.0: Estimator.LS}
        assert [r.snr_db for r in hybrid] == [0.0, 30.0]
        for r in hybrid:
            expected = rows[r.snr_db, chosen[r.snr_db]]
            assert r.branch_fraction_ls == float(chosen[r.snr_db] is Estimator.LS)
            assert dataclasses.replace(r, estimator=expected.estimator, branch_fraction_ls=None) == expected

    def test_sweep_runs_no_second_monte_carlo(self, monkeypatch):
        # a calibrated threshold comes from the sweep's own rows: no
        # calibration cells, which do not detect, run besides them
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep ran a separate calibration")

        run_cell = harness._run_cell

        def detecting_only(*args, detect):
            if not detect:
                refuse()
            return run_cell(*args, detect=detect)

        monkeypatch.setattr(estimation, "calibrate_threshold", refuse)
        monkeypatch.setattr(harness, "_run_cell", detecting_only)
        cfg = SweepConfig(channel_lengths=(6, 20, 40), snr_grid_db=(0.0, 20.0), n_frames=1, seed=3)
        assert len(run_sweep(cfg)) == 3 * 2 * 4

    @pytest.mark.parametrize("seed", [3, 8])
    def test_threshold_is_the_crossover_of_the_lengths_own_rows(self, seed):
        # the finite SNRs of each CP-exceeding length's LS and LMMSE rows; the
        # rows at SNR = +inf take no part, and the hybrid follows the threshold
        cfg = SweepConfig(
            channel_lengths=(6, 20, 40),
            snr_grid_db=(0.0, 5.0, 10.0, 20.0, np.inf),
            n_frames=3,
            seed=seed,
        )
        records = run_sweep(cfg)
        rows = {(r.channel_len, r.snr_db, r.estimator): r for r in records}
        finite = [s for s in cfg.snr_grid_db if math.isfinite(s)]
        thresholds = {}
        for length in (20, 40):
            mse = {
                s: [rows[length, s, e].mse_all_subcarriers for e in (Estimator.LS, Estimator.LMMSE)]
                for s in finite
            }
            points = [(s, *mse[s]) for s in finite]
            thresholds[length] = estimation._crossover(points)
            assert harness._hybrid_threshold(cfg, length, records) == thresholds[length]
            for s in cfg.snr_grid_db:
                chooses_ls = thresholds[length] < math.inf and s >= thresholds[length]
                assert rows[length, s, Estimator.HYBRID].branch_fraction_ls == float(chooses_ls)
        assert math.isfinite(thresholds[20])
        assert harness._hybrid_threshold(cfg, 6, records) == math.inf

    @pytest.mark.parametrize(
        "threshold_db", [None, 12.0, -np.inf, np.inf], ids=["rows", "12dB", "-inf", "+inf"]
    )
    def test_hybrid_alone_takes_the_full_sweeps_thresholds(self, monkeypatch, threshold_db):
        # every cell of a hybrid sweep computes both branches, so a hybrid-only
        # sweep takes the four-estimator sweep's thresholds and gives its
        # hybrid rows, whether the threshold comes from the rows or the config
        base = SweepConfig(
            channel_lengths=(6, 20, 40),
            snr_grid_db=(0.0, 5.0, 10.0, 20.0),
            n_frames=3,
            seed=2,
            threshold_db=threshold_db,
        )
        taken, cells = {}, []
        threshold, run_cell = harness._hybrid_threshold, harness._run_cell

        def spying(config, length, records):
            taken[config.estimators, length] = threshold(config, length, records)
            return taken[config.estimators, length]

        def spying_cell(ctx, pdp, snr_db, streams, methods, detect):
            cells.append(methods)
            return run_cell(ctx, pdp, snr_db, streams, methods, detect)

        monkeypatch.setattr(harness, "_hybrid_threshold", spying)
        monkeypatch.setattr(harness, "_run_cell", spying_cell)
        full = run_sweep(base)
        cells.clear()
        alone = run_sweep(dataclasses.replace(base, estimators=(Estimator.HYBRID,)))
        assert cells == [(Estimator.LS, Estimator.LMMSE)] * 3 * 4
        hybrid_rows = [r for r in full if r.estimator is Estimator.HYBRID]
        assert alone == hybrid_rows
        texts = io.StringIO(), io.StringIO()
        emit_csv(alone, texts[0])
        emit_csv(hybrid_rows, texts[1])
        assert texts[0].getvalue() == texts[1].getvalue()
        for length in base.channel_lengths:
            want = threshold(base, length, full)
            assert taken[(Estimator.HYBRID,), length] == taken[base.estimators, length] == want
        assert taken[base.estimators, 6] == math.inf
        if threshold_db is None:
            assert math.isfinite(taken[base.estimators, 20])
        else:
            assert taken[base.estimators, 20] == taken[base.estimators, 40] == threshold_db

    @pytest.mark.parametrize("threshold_db", [None, 12.0])
    def test_no_isi_length_just_past_cp_stays_on_lmmse(self, threshold_db):
        # L = cp_len + 1: the last tap delay equals cp_len, so the CP still
        # absorbs the channel and the hybrid never leaves LMMSE
        cfg = SweepConfig(
            channel_lengths=(17,),
            snr_grid_db=(30.0, np.inf),
            n_frames=1,
            seed=5,
            estimators=(Estimator.LMMSE, Estimator.HYBRID),
            threshold_db=threshold_db,
        )
        rows = {(r.snr_db, r.estimator): r for r in run_sweep(cfg)}
        for snr_db in (30.0, np.inf):
            hybrid = rows[snr_db, Estimator.HYBRID]
            assert hybrid.branch_fraction_ls == 0.0
            assert dataclasses.replace(
                hybrid, estimator=Estimator.LMMSE, branch_fraction_ls=None
            ) == rows[snr_db, Estimator.LMMSE]

    @pytest.mark.parametrize(
        "threshold_db, branch", [(np.inf, Estimator.LMMSE), (-np.inf, Estimator.LS)]
    )
    def test_infinite_threshold_holds_at_infinite_snr(self, threshold_db, branch):
        # +inf is LMMSE and -inf LS at every SNR, SNR = +inf included
        cfg = SweepConfig(
            channel_lengths=(40,),
            snr_grid_db=(30.0, np.inf),
            n_frames=3,
            seed=1,
            estimators=(Estimator.LS, Estimator.LMMSE, Estimator.HYBRID),
            threshold_db=threshold_db,
        )
        rows = {(r.snr_db, r.estimator): r for r in run_sweep(cfg)}
        for snr_db in (30.0, np.inf):
            hybrid = rows[snr_db, Estimator.HYBRID]
            assert hybrid.branch_fraction_ls == float(branch is Estimator.LS)
            assert dataclasses.replace(
                hybrid, estimator=branch, branch_fraction_ls=None
            ) == rows[snr_db, branch]

    def test_unused_correlation_models_are_not_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("correlation model built for a sweep without LMMSE")

        estimation._memoized_model.cache_clear()  # a cached model would hide a build
        monkeypatch.setattr(estimation, "build_correlation_model", refuse)
        no_lmmse = SweepConfig(
            channel_lengths=(6, 40),
            snr_grid_db=(0.0, 30.0),
            n_frames=1,
            seed=3,
            estimators=(Estimator.LS, Estimator.PERFECT),
        )
        assert len(run_sweep(no_lmmse)) == 8

    def test_one_correlation_model_per_truncated_profile(self, monkeypatch):
        # at cp 16, L=20 and L=40 both truncate to 16 taps: the ports, both
        # lengths and the threshold calibration share one model
        built = []

        def counting(pdp, pilot_positions, config):
            built.append((pdp.n_taps, tuple(pilot_positions)))
            return build(pdp, pilot_positions, config)

        build = estimation.build_correlation_model
        estimation._memoized_model.cache_clear()
        monkeypatch.setattr(estimation, "build_correlation_model", counting)
        cfg = SweepConfig(
            channel_lengths=(20, 40),
            snr_grid_db=(0.0, 30.0),
            n_frames=1,
            seed=3,
            estimators=(Estimator.LS, Estimator.LMMSE, Estimator.HYBRID),
        )
        assert len(run_sweep(cfg)) == 12
        assert built == [(16, tuple(range(0, 300, 3)))]

    def test_prior_keeps_the_taps_at_delays_below_the_cp(self, monkeypatch):
        # three taps, two of them past cp 16: the prior is the delay-0 tap alone
        built = []

        def counting(pdp, pilot_positions, config):
            built.append((pdp.tap_delays.tolist(), pdp.tap_powers.tolist()))
            return build(pdp, pilot_positions, config)

        build = estimation.build_correlation_model
        estimation._memoized_model.cache_clear()
        monkeypatch.setattr(estimation, "build_correlation_model", counting)
        pdp = PowerDelayProfile(np.array([0, 20, 40]), np.full(3, 1 / 3))
        estimation.calibrate_threshold(SystemConfig(), pdp, np.array([10.0]), 1, _rng(4))
        assert built == [([0], [1.0])]

    def test_failing_cell_names_its_cell(self, monkeypatch):
        cause = ValueError("demapper broke")

        def failing(symbols, constellation):
            raise cause

        monkeypatch.setattr(linkproc, "demap_symbols", failing)
        with pytest.raises(RuntimeError) as exc:
            run_sweep(SMALL)
        assert str(exc.value) == "cell failed (channel_len=6, snr_db=10.0)"
        assert exc.value.__cause__ is cause

    def test_one_eigendecomposition_serves_every_snr(self, monkeypatch):
        # the model carries the SVD of its (n_pilots, n_taps) tap-phase rows,
        # so every cell of both lengths, whose priors truncate alike, reuses
        # one factorisation, and nothing decomposes an n_p x n_p matrix
        calls = []

        def counting(name, fn):
            def call(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return fn(a, *args, **kwargs)

            return call

        estimation._memoized_model.cache_clear()
        for name in ("svd", "eigh", "eig"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        cfg = SweepConfig(
            channel_lengths=(20, 40),
            snr_grid_db=(0.0, 30.0),
            n_frames=1,
            seed=3,
            estimators=(Estimator.LS, Estimator.LMMSE, Estimator.HYBRID),
        )
        assert len(run_sweep(cfg)) == 12
        assert calls == [("svd", (100, 16))]

    def test_estimators_share_trial_randomness(self):
        # hybrid on a CP-covered channel must reproduce LMMSE exactly
        cfg = SweepConfig(
            channel_lengths=(6,),
            snr_grid_db=(10.0,),
            n_frames=5,
            seed=2,
            estimators=(Estimator.LMMSE, Estimator.HYBRID),
        )
        by_est = {r.estimator: r for r in run_sweep(cfg)}
        assert (
            by_est[Estimator.HYBRID].mse_all_subcarriers
            == by_est[Estimator.LMMSE].mse_all_subcarriers
        )
        assert by_est[Estimator.HYBRID].ber == by_est[Estimator.LMMSE].ber
        assert by_est[Estimator.HYBRID].branch_fraction_ls == 0.0

    def test_channel_length_order_is_canonical(self):
        a = SweepConfig(channel_lengths=(10, 6), seed=3)
        assert a.channel_lengths == (6, 10)

    def test_qam16_configuration_runs_end_to_end(self):
        cfg = SweepConfig(
            system=SystemConfig(constellation=Constellation.QAM16),
            channel_lengths=(6,),
            snr_grid_db=(np.inf,),
            n_frames=2,
            seed=13,
            estimators=(Estimator.PERFECT,),
        )
        rec = run_sweep(cfg)[0]
        assert rec.ber == 0.0

    def test_numpy_reals_accepted_as_floats(self):
        cfg = SweepConfig(
            system=SystemConfig(bandwidth_mhz=np.int64(5)),
            snr_grid_db=(np.float32(2.5), np.int64(5)),
            threshold_db=np.int8(3),
        )
        assert cfg.system == SystemConfig() and type(cfg.system.bandwidth_mhz) is float
        assert cfg.snr_grid_db == (2.5, 5.0) and all(type(v) is float for v in cfg.snr_grid_db)
        assert cfg.threshold_db == 3.0 and type(cfg.threshold_db) is float

    def test_numpy_integer_counts_accepted(self):
        system = SystemConfig(n_used=np.int64(300), cp_len=np.int32(16), n_tx=np.uint8(2))
        cfg = SweepConfig(
            system=system, channel_lengths=(np.int64(6),), n_frames=np.int16(3), seed=np.int64(7)
        )
        assert (system.n_used, system.cp_len, system.n_tx) == (300, 16, 2)
        assert (cfg.channel_lengths, cfg.n_frames, cfg.seed) == ((6,), 3, 7)
        assert system == SystemConfig() and type(cfg.seed) is int

    def test_distinct_seeds_draw_distinct_streams(self):
        # the seed column records the seed as given, so no two seeds may share draws
        def mse(seed):
            return run_sweep(dataclasses.replace(SMALL, seed=seed))[0].mse_all_subcarriers

        assert mse(0) != mse(2**64)
        assert mse(2**64 - 1) != mse(2**65 - 1)

    def test_finite_snr_past_the_float_range_runs_as_noiseless(self):
        def rows(snr_db):
            cfg = SweepConfig(
                channel_lengths=(6, 40), snr_grid_db=(snr_db,), n_frames=2, threshold_db=10.0
            )
            return [dataclasses.replace(r, snr_db=0.0) for r in run_sweep(cfg)]

        assert rows(4000.0) == rows(np.inf)

    def test_channel_lengths_up_to_the_fft_size(self):
        # the response is sampled at n_fft bins, so a longer channel would
        # alias its late taps onto the early ones
        assert SweepConfig(channel_lengths=(6, 512)).channel_lengths == (6, 512)
        wide = SystemConfig(bandwidth_mhz=10.0, cp_len=72)
        assert SweepConfig(system=wide, channel_lengths=(1024,)).channel_lengths == (1024,)

    def test_lmmse_and_hybrid_need_a_cyclic_prefix(self):
        # LS and perfect CSI use no prior
        SweepConfig(system=_NO_CP, estimators=(Estimator.LS, Estimator.PERFECT))

    def test_infinite_snr_alone_runs_where_no_crossing_is_read(self):
        # no crossing to read: a set threshold, no hybrid, or a covering CP
        SweepConfig(channel_lengths=(40,), snr_grid_db=(np.inf,), threshold_db=12.0)
        SweepConfig(channel_lengths=(40,), snr_grid_db=(np.inf,), estimators=(Estimator.LS,))
        SweepConfig(channel_lengths=(6, 17), snr_grid_db=(np.inf,))


# (id, make, message): each configuration SweepConfig or SystemConfig refuses
INVALID_CONFIGS = [
    ("snr-descending", lambda: SweepConfig(snr_grid_db=(10.0, 0.0)),
     "snr grid must be strictly ascending (sorted, no repeats)"),
    # a repeated SNR would run its cell twice and write two rows for it
    ("snr-repeated", lambda: SweepConfig(snr_grid_db=(10.0, 10.0)),
     "snr grid must be strictly ascending"),
    ("snr-repeated-inf", lambda: SweepConfig(snr_grid_db=(0.0, np.inf, np.inf)),
     "snr grid must be strictly ascending"),
    ("snr-minus-inf", lambda: SweepConfig(snr_grid_db=(-np.inf, 0.0)), "invalid snr_db: -inf"),
    ("no-snrs", lambda: SweepConfig(snr_grid_db=()), "snr grid must be non-empty"),
    ("no-lengths", lambda: SweepConfig(channel_lengths=()),
     "channel_lengths must be a non-empty list of positive ints"),
    ("no-frames", lambda: SweepConfig(n_frames=0), "n_frames must be at least 1"),
    ("estimator-text", lambda: SweepConfig(estimators=("ls",)),
     "estimators must be a non-empty list of Estimator members"),
    ("duplicate-estimator", lambda: SweepConfig(estimators=(Estimator.LS, Estimator.LS)),
     "duplicate estimator requested"),
    ("negative-seed", lambda: SweepConfig(seed=-1), "seed must be non-negative, got -1"),
    # int() would truncate 6.7 to 6, and a float count fails deep in a cell
    ("channel_lengths", lambda: SweepConfig(channel_lengths=(6, 6.7)),
     "channel_lengths must be integral, got 6.7"),
    ("n_frames", lambda: SweepConfig(n_frames=1.5), "n_frames must be integral, got 1.5"),
    ("seed", lambda: SweepConfig(seed=1.5), "seed must be integral, got 1.5"),
    ("cp_len", lambda: SystemConfig(cp_len=16.0), "cp_len must be integral, got 16.0"),
    ("n_tx", lambda: SystemConfig(n_tx=2.0), "n_tx must be integral, got 2.0"),
    ("n_rx", lambda: SystemConfig(n_rx=np.float64(2.0)), "n_rx must be integral"),
    ("n_used", lambda: SystemConfig(n_used=300.0), "n_used must be integral, got 300.0"),
    # float() would read "3" as 3.0 and True as 1.0, and a bool is an int
    ("snr-str", lambda: SweepConfig(snr_grid_db=("3",)),
     "snr_grid_db must be a real number, got '3'"),
    ("snr-bool", lambda: SweepConfig(snr_grid_db=(True,)),
     "snr_grid_db must be a real number, got True"),
    ("n_frames-bool", lambda: SweepConfig(n_frames=True), "n_frames must be integral, got True"),
    ("cp_len-bool", lambda: SystemConfig(cp_len=True), "cp_len must be integral, got True"),
    ("bandwidth-str", lambda: SystemConfig(bandwidth_mhz="5"),
     "bandwidth_mhz must be a real number, got '5'"),
    # True would otherwise switch the hybrid at 1 dB
    ("threshold-str", lambda: SweepConfig(threshold_db="3"),
     "threshold_db must be a real number, got '3'"),
    ("threshold-nan", lambda: SweepConfig(threshold_db=math.nan),
     "threshold_db must be a real number, not NaN"),
    ("threshold-bool", lambda: SweepConfig(threshold_db=True),
     "threshold_db must be a real number, got True"),
    ("length-past-the-fft", lambda: SweepConfig(channel_lengths=(6, 513)),
     "channel length 513 exceeds the FFT size 512"),
    ("length-past-the-fft-10mhz",
     lambda: SweepConfig(
         system=SystemConfig(bandwidth_mhz=10.0, cp_len=72), channel_lengths=(1025,)
     ),
     "channel length 1025 exceeds the FFT size 1024"),
    # the LMMSE prior keeps the taps below cp_len: none at cp 0
    ("cp0-lmmse", lambda: SweepConfig(system=_NO_CP, estimators=(Estimator.LS, Estimator.LMMSE)),
     "the lmmse and hybrid estimators need cp_len >= 1"),
    ("cp0-hybrid", lambda: SweepConfig(system=_NO_CP, estimators=(Estimator.LS, Estimator.HYBRID)),
     "the lmmse and hybrid estimators need cp_len >= 1"),
    ("hybrid-without-finite-snr",
     lambda: SweepConfig(channel_lengths=(40,), snr_grid_db=(np.inf,)),
     "no LS/LMMSE crossing to take a hybrid threshold from without finite SNRs"),
]


@pytest.mark.parametrize(
    "make, message", [row[1:] for row in INVALID_CONFIGS], ids=[row[0] for row in INVALID_CONFIGS]
)
def test_invalid_config_is_refused(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


class TestRecordsAndCsv:
    def _records(self):
        return [
            SweepRecord(
                snr_db=0.0,
                channel_len=6,
                estimator=Estimator.LS,
                mse_all_subcarriers=0.5,
                mse_pilot_subcarriers=1.0,
                ber=0.25,
                n_trials=10,
                branch_fraction_ls=None,
                seed=42,
            ),
            SweepRecord(
                snr_db=0.0,
                channel_len=6,
                estimator=Estimator.HYBRID,
                mse_all_subcarriers=0.1,
                mse_pilot_subcarriers=0.2,
                ber=0.125,
                n_trials=10,
                branch_fraction_ls=0.0,
                seed=42,
            ),
        ]

    def test_empty_records_give_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_one_record_two_lines(self):
        buf = io.StringIO()
        emit_csv(self._records()[:1], buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER
        assert lines[1] == "0,6,ls,0.5,1,0.25,10,,42"

    def test_header_and_infinite_snr_line_text(self):
        buf = io.StringIO()
        emit_csv([SweepRecord(math.inf, 40, Estimator.HYBRID, 0.5, 1.0, 0.25, 10, 1.0, 42)], buf)
        assert buf.getvalue().splitlines() == [
            "snr_db,channel_len,estimator,mse_all_subcarriers,mse_pilot_subcarriers,"
            "ber,n_trials,branch_fraction_ls,seed",
            "inf,40,hybrid,0.5,1,0.25,10,1,42",
        ]

    def test_rows_sorted_ls_before_hybrid(self):
        buf = io.StringIO()
        emit_csv(list(reversed(self._records())), buf)
        lines = buf.getvalue().splitlines()
        assert lines[1].split(",")[2] == "ls"
        assert lines[2].split(",")[2] == "hybrid"
        assert lines[2].split(",")[7] == "0"

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        cfg = SweepConfig(
            channel_lengths=(6,),
            snr_grid_db=(0.0, 10.0),
            n_frames=2,
            seed=5,
            estimators=(Estimator.LS, Estimator.LMMSE),
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(cfg), p1)
        emit_csv(run_sweep(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_failure_names_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            emit_csv([], tmp_path / "no" / "such" / "dir.csv")

    def test_record_validation(self):
        with pytest.raises(ValueError, match="ber"):
            SweepRecord(0.0, 6, Estimator.LS, 0.0, 0.0, 1.5, 1, None, 0)
        with pytest.raises(ValueError, match="branch"):
            SweepRecord(0.0, 6, Estimator.HYBRID, 0.0, 0.0, 0.5, 1, 1.5, 0)
        with pytest.raises(ValueError, match="mse"):
            SweepRecord(0.0, 6, Estimator.LS, float("nan"), 0.0, 0.5, 1, None, 0)
        with pytest.raises(ValueError, match="mse"):
            SweepRecord(0.0, 6, Estimator.LS, 0.0, float("nan"), 0.5, 1, None, 0)
        with pytest.raises(ValueError, match="mse must be finite"):
            SweepRecord(0.0, 6, Estimator.LS, math.inf, 0.0, 0.5, 1, None, 0)
        with pytest.raises(ValueError, match="mse must be finite"):
            SweepRecord(0.0, 6, Estimator.LS, 0.0, math.inf, 0.5, 1, None, 0)

    def test_summary_mentions_branch_only_for_hybrid(self):
        text = format_summary(self._records())
        ls_line, hybrid_line = text.splitlines()
        assert "ls_branch" not in ls_line
        assert "ls_branch=0.00" in hybrid_line
