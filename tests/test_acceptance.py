"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The two Monte Carlo sweeps (CP-covered lengths at 200 trials/point and the
CP-exceeding length at 500 trials/point) are shared across criteria through
module-scoped fixtures; every estimator of a cell sees identical channels,
payloads and noise, so the orderings checked here are paired comparisons.
"""

from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    apply_channel,
    correlation_matrices,
    lmmse_estimate_full,
    lmmse_estimate_simplified,
    lmmse_mse_closed_form,
    lmmse_zf_qpsk_ber_closed_form,
    mrc_qpsk_ber_rayleigh,
    zf_qam16_ber_rayleigh,
    zf_qpsk_ber_rayleigh,
)

from ltelink.channel import PowerDelayProfile, generate_channel
from ltelink.estimation import build_correlation_model, lmmse_filter
from ltelink.grid import (
    LTE_PROFILES,
    Constellation,
    GridLayout,
    SystemConfig,
    build_pilot_pattern,
    random_pilot_sequence,
    used_subcarrier_bins,
)
from ltelink.harness import Estimator, SweepConfig, _hybrid_threshold, emit_csv, run_sweep
from ltelink.ofdm import demodulate_frame, modulate_frame

SNR_GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
SEED = 42


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def _by_cell(records):
    return {(r.channel_len, r.snr_db, r.estimator): r for r in records}


@pytest.fixture(scope="module")
def sweep_short():
    """L in {6, 10}, 200 trials/point, all estimators."""
    cfg = SweepConfig(
        channel_lengths=(6, 10),
        snr_grid_db=SNR_GRID,
        n_frames=200,
        seed=SEED,
    )
    return cfg, _by_cell(run_sweep(cfg))


@pytest.fixture(scope="module")
def sweep_long():
    """L = 40 > CP, 500 trials/point, all estimators."""
    cfg = SweepConfig(
        channel_lengths=(40,),
        snr_grid_db=SNR_GRID,
        n_frames=500,
        seed=SEED,
    )
    return cfg, _by_cell(run_sweep(cfg))


def test_ac1_cp_covered_frame_diagonalizes():
    """Noiseless L=10 frame: per-subcarrier relative residual below 1e-10."""
    cfg = SystemConfig()
    rng = np.random.default_rng(SEED)
    pattern = build_pilot_pattern(cfg)
    pilots = random_pilot_sequence(pattern.n_entries, rng)
    n_data = cfg.n_used * cfg.n_symbols_per_slot - len(pattern.entries)
    corners = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
    data = [corners[rng.integers(0, 4, n_data)] for _ in range(cfg.n_tx)]
    values = GridLayout.build(cfg, pattern).fill(data, pilots[pattern.entry_index])
    ch = generate_channel(PowerDelayProfile.uniform(10), cfg.n_tx, cfg.n_rx, rng)
    rx = apply_channel(modulate_frame(values, cfg), ch)
    got = demodulate_frame(rx, cfg)
    h = ch.frequency_responses(cfg.n_fft, used_subcarrier_bins(cfg))
    predicted = np.einsum("trk,tsk->rsk", h, values)
    rel = np.abs(got - predicted) / np.abs(predicted)
    worst = float(rel.max())
    _report("AC-1", worst < 1e-10, f"max per-subcarrier residual {worst:.3e} < 1e-10")


def test_ac2_ls_pilot_mse_matches_analytic():
    """LS pilot-column MSE equals 1/SNR within 10% over >= 1e4 pilot REs."""
    cfg = SweepConfig(
        channel_lengths=(6,),
        snr_grid_db=(0.0, 10.0, 20.0),
        n_frames=400,
        seed=SEED,
        estimators=(Estimator.LS,),
    )
    records = run_sweep(cfg)
    n_obs = 400 * 4 * 100  # trials x (tx,rx) pairs x stacked pilots per pair
    assert n_obs >= 10_000
    details = []
    ok = True
    for r in records:
        expected = 10 ** (-r.snr_db / 10)
        deviation = abs(r.mse_pilot_subcarriers / expected - 1.0)
        ok &= deviation < 0.10
        details.append(f"{r.snr_db:g}dB: {r.mse_pilot_subcarriers:.4f} vs {expected:.4f}")
    _report("AC-2", ok, "; ".join(details))


def test_ac3_lmmse_beats_ls_when_cp_covers_channel(sweep_short):
    """L in {6, 10}: LMMSE MSE below LS MSE at every SNR, both columns."""
    _, cells = sweep_short
    ok = True
    worst = ""
    for length in (6, 10):
        for snr in SNR_GRID:
            ls = cells[(length, snr, Estimator.LS)]
            lm = cells[(length, snr, Estimator.LMMSE)]
            for col in ("mse_all_subcarriers", "mse_pilot_subcarriers"):
                if not getattr(lm, col) < getattr(ls, col):
                    ok = False
                    worst = f"L={length} snr={snr} {col}"
    _report("AC-3", ok, worst or "LMMSE < LS at all 14 grid points, both MSE columns")


def test_ac4_crossover_when_channel_exceeds_cp(sweep_long):
    """L=40: LMMSE wins at 0 dB, LS wins at 30 dB, finite crossover inside (0, 30)."""
    cfg, cells = sweep_long
    checks = []
    for col in ("mse_all_subcarriers", "mse_pilot_subcarriers"):
        low_lm = getattr(cells[(40, 0.0, Estimator.LMMSE)], col)
        low_ls = getattr(cells[(40, 0.0, Estimator.LS)], col)
        high_lm = getattr(cells[(40, 30.0, Estimator.LMMSE)], col)
        high_ls = getattr(cells[(40, 30.0, Estimator.LS)], col)
        checks.append(low_lm < low_ls)
        checks.append(high_ls < high_lm)
    threshold = _hybrid_threshold(cfg, 40, cells.values())
    finite = bool(np.isfinite(threshold) and 0.0 < threshold < 30.0)
    ok = all(checks) and finite
    _report(
        "AC-4",
        ok,
        f"orderings {checks}, calibrated crossover {threshold:.2f} dB in (0, 30)",
    )


BANDWIDTH_SNRS = (0.0, 5.0, 10.0, 20.0, 30.0)


@pytest.fixture(scope="module", params=sorted(LTE_PROFILES), ids=lambda bw: f"{bw:g}MHz")
def bandwidth_sweep(request):
    """All four estimators at one LTE bandwidth, its normal CP scaled from 144
    of 2048 samples: L = cp // 2, which the CP covers, and L = 2 cp + 2, which
    it does not; 10 trials per point."""
    n_fft, _ = LTE_PROFILES[request.param]
    cp = n_fft * 144 // 2048
    cfg = SweepConfig(
        system=SystemConfig(bandwidth_mhz=request.param, cp_len=cp),
        channel_lengths=(cp // 2, 2 * cp + 2),
        snr_grid_db=BANDWIDTH_SNRS,
        n_frames=10,
        seed=11,
    )
    return cfg, _by_cell(run_sweep(cfg))


def _mse_pairs(cells, length):
    """(snr, column, LS MSE, LMMSE MSE) of every point of one length."""
    for snr in BANDWIDTH_SNRS:
        ls, lm = cells[(length, snr, Estimator.LS)], cells[(length, snr, Estimator.LMMSE)]
        for col in ("mse_all_subcarriers", "mse_pilot_subcarriers"):
            yield snr, col, getattr(ls, col), getattr(lm, col)


def test_ac3_lmmse_beats_ls_when_cp_covers_at_every_bandwidth(bandwidth_sweep):
    """L = cp // 2: LMMSE MSE below LS MSE at every SNR, both columns."""
    cfg, cells = bandwidth_sweep
    length = cfg.channel_lengths[0]
    losses = [f"{snr:g} dB {col}" for snr, col, ls, lm in _mse_pairs(cells, length) if lm >= ls]
    detail = ", ".join(losses) or "LMMSE < LS at every SNR, both MSE columns"
    _report(f"AC-3 {cfg.system.bandwidth_mhz:g} MHz L={length}", not losses, detail)


def test_ac4_crossover_past_the_cp_at_every_bandwidth(bandwidth_sweep):
    """L = 2 cp + 2: LMMSE wins at 0 dB and LS from 5 dB up, both columns."""
    cfg, cells = bandwidth_sweep
    length = cfg.channel_lengths[1]
    losses = [
        f"{snr:g} dB {col}"
        for snr, col, ls, lm in _mse_pairs(cells, length)
        if (lm >= ls if snr == 0.0 else ls >= lm)
    ]
    detail = ", ".join(losses) or "LMMSE < LS at 0 dB, LS < LMMSE from 5 dB, both MSE columns"
    _report(f"AC-4 {cfg.system.bandwidth_mhz:g} MHz L={length}", not losses, detail)


def _ac5_misses(cfg, cells) -> tuple[list[str], float, float]:
    """The cells of a sweep where the hybrid breaks AC-5, and the in-sample
    and out-of-sample switching SNRs of its longest length.  A cell breaks it
    when the hybrid's MSE is above 1.05x the better of LS and LMMSE in either
    column, or its branch is not the indicator of snr >= its length's
    switching SNR, which never chooses LS where the CP covers the channel.
    The sweep takes that SNR from the same rows, so past the CP the check is
    repeated out of sample: the branch that the switching SNR of a second
    sweep picks must also be within 1.05x of the better estimator.  That
    sweep runs the length alone, LS and LMMSE only, at seed + 1, which draws
    none of the first sweep's trials or pilots."""
    misses = []
    for length in cfg.channel_lengths:
        threshold = _hybrid_threshold(cfg, length, cells.values())
        covered = cfg.system.cp_covers(length)
        if covered:
            replicate = threshold
        else:
            second = replace(
                cfg,
                channel_lengths=(length,),
                seed=cfg.seed + 1,
                estimators=(Estimator.LS, Estimator.LMMSE),
            )
            replicate = _hybrid_threshold(second, length, run_sweep(second))
        for snr in cfg.snr_grid_db:
            hy, ls, lm = (
                cells[(length, snr, e)] for e in (Estimator.HYBRID, Estimator.LS, Estimator.LMMSE)
            )
            out_of_sample = ls if replicate < np.inf and snr >= replicate else lm
            for col in ("mse_all_subcarriers", "mse_pilot_subcarriers"):
                best = min(getattr(ls, col), getattr(lm, col))
                if not getattr(hy, col) <= 1.05 * best:
                    misses.append(f"L={length} snr={snr} {col}")
                if not getattr(out_of_sample, col) <= 1.05 * best:
                    misses.append(f"L={length} snr={snr} {col} at {replicate:.2f} dB out of sample")
            if covered and hy.branch_fraction_ls != 0.0:
                misses.append(f"branch_fraction_ls != 0 at L={length} snr={snr}")
            expected = 1.0 if snr >= threshold else 0.0
            if hy.branch_fraction_ls != expected:
                misses.append(f"L={length} snr={snr} branch {hy.branch_fraction_ls} != {expected}")
    return misses, threshold, replicate


def test_ac5_hybrid_dominates_both_sweeps(sweep_short, sweep_long):
    """Hybrid MSE within 1.05x of the better estimator; branch matches the policy."""
    misses, _, _ = _ac5_misses(*sweep_short)
    long_misses, threshold, replicate = _ac5_misses(*sweep_long)
    misses += long_misses
    detail = (
        f"hybrid within 1.05x of best everywhere; L=40 switch at {threshold:.2f} dB, "
        f"{replicate:.2f} dB out of sample"
    )
    _report("AC-5", not misses, ", ".join(misses) or detail)


def test_ac5_hybrid_dominates_at_every_bandwidth(bandwidth_sweep):
    """AC-5 at L = cp // 2 and L = 2 cp + 2 of every LTE bandwidth."""
    cfg, cells = bandwidth_sweep
    misses, threshold, replicate = _ac5_misses(cfg, cells)
    length = cfg.channel_lengths[-1]
    detail = (
        f"hybrid within 1.05x of best everywhere; L={length} switch at {threshold:.2f} dB, "
        f"{replicate:.2f} dB out of sample"
    )
    _report(f"AC-5 {cfg.system.bandwidth_mhz:g} MHz", not misses, ", ".join(misses) or detail)


def test_ac6_full_and_simplified_lmmse_coincide():
    """Unit-modulus pilots, beta=1, sigma^2=1/SNR: forms agree within 1e-12,
    and the sweep's factored filter matches them within 1e-10 relative."""
    rng = np.random.default_rng(SEED)
    cfg = SystemConfig(n_used=48, n_tx=1, n_rx=1)
    corners = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
    worst = worst_filter = 0.0
    for _ in range(100):
        taps = int(rng.integers(1, 17))
        n_p = int(rng.integers(2, 20))
        positions = np.sort(rng.choice(48, n_p, replace=False))
        pdp = PowerDelayProfile.uniform(taps)
        dense = correlation_matrices(pdp, positions, cfg)
        h_ls = rng.standard_normal(n_p) + 1j * rng.standard_normal(n_p)
        x_p = corners[rng.integers(0, 4, n_p)]
        snr = float(10 ** rng.uniform(-1, 3))
        full = lmmse_estimate_full(h_ls, dense, x_p, 1.0 / snr)
        simp = lmmse_estimate_simplified(h_ls, dense, snr, 1.0)
        f, g = lmmse_filter(build_correlation_model(pdp, positions, cfg), 1.0 / snr)
        filt = f @ (g @ h_ls)
        worst = max(worst, float(np.max(np.abs(full - simp))))
        worst_filter = max(
            worst_filter, float(np.max(np.abs(filt - simp)) / np.max(np.abs(simp)))
        )
    _report(
        "AC-6",
        worst < 1e-12 and worst_filter < 1e-10,
        f"max deviation {worst:.2e} between the forms, filter within "
        f"{worst_filter:.2e} relative, over 100 instances",
    )


def test_ac7_beta_constants():
    """Exact constellation scaling factors."""
    ok = (
        Constellation.QPSK.beta == 1.0
        and Constellation.QAM16.beta == 17.0 / 9.0
    )
    _report("AC-7", ok, "beta(QPSK)=1, beta(16QAM)=17/9, both exact")


def test_ac8_end_to_end_sanity(sweep_short):
    """Perfect CSI noiseless BER is 0; BER never increases with SNR at L <= CP."""
    noiseless = run_sweep(
        SweepConfig(
            channel_lengths=(10,),
            snr_grid_db=(np.inf,),
            n_frames=100,
            seed=SEED,
            estimators=(Estimator.PERFECT,),
        )
    )
    zero_ber = noiseless[0].ber == 0.0
    _, cells = sweep_short
    monotone = True
    worst = ""
    for length in (6, 10):
        for est in (Estimator.LS, Estimator.LMMSE, Estimator.HYBRID, Estimator.PERFECT):
            bers = [cells[(length, snr, est)].ber for snr in SNR_GRID]
            for a, b, s in zip(bers, bers[1:], SNR_GRID[1:]):
                if b > a:
                    monotone = False
                    worst = f"L={length} {est.value} rises at {s} dB"
    ok = zero_ber and monotone
    _report(
        "AC-8",
        ok,
        worst
        or f"noiseless perfect-CSI BER = {noiseless[0].ber}; BER non-increasing "
        f"for all estimators at L in {{6, 10}}",
    )


def test_ac9_default_sweep_is_byte_deterministic(tmp_path):
    """Two 100-frame default sweeps with seed 42 produce identical CSV bytes."""
    cfg = SweepConfig(seed=SEED)
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    emit_csv(run_sweep(cfg), p1)
    emit_csv(run_sweep(cfg), p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    _report("AC-9", b1 == b2, f"{len(b1)} CSV bytes identical across runs")


def _ber_undercuts(cells) -> list[str]:
    """Cells where an estimated-CSI BER is below the perfect-CSI BER."""
    violations = []
    for (length, snr, est), r in cells.items():
        if est is not Estimator.PERFECT and r.ber < cells[(length, snr, Estimator.PERFECT)].ber:
            violations.append(f"L={length} snr={snr} {est.value}")
    return violations


def test_invariant_perfect_csi_lower_bounds_ber(sweep_short, sweep_long):
    """Estimated-CSI BER never undercuts perfect-CSI BER (1 grid point of slack)."""
    violations = [v for _, cells in (sweep_short, sweep_long) for v in _ber_undercuts(cells)]
    assert len(violations) <= 1, violations


def test_invariant_perfect_csi_lower_bounds_ber_at_every_bandwidth(bandwidth_sweep):
    """The same bound, with the same slack, at every LTE bandwidth."""
    violations = _ber_undercuts(bandwidth_sweep[1])
    assert len(violations) <= 1, violations


def _perfect_csi_ber_against_theory(system, snrs, theory):
    """(ok, detail) of twelve 10-frame perfect-CSI sweeps (seeds 0-11) at
    L = 6 and 17, the batches, against the closed form theory(snr_db).  Each
    cell's mean batch BER must lie within 4 standard errors of the closed
    form, the standard error taken from the spread of the batches, and that
    standard error must be below 25% of the closed form, so the bound cannot
    go slack."""
    batches = np.array(
        [
            [
                r.ber
                for r in run_sweep(
                    SweepConfig(
                        system=system,
                        channel_lengths=(6, 17),  # 17 = cp_len + 1, the longest covered
                        snr_grid_db=snrs,
                        n_frames=10,
                        seed=seed,
                        estimators=(Estimator.PERFECT,),
                    )
                )
            ]
            for seed in range(12)
        ]
    )
    mean = batches.mean(axis=0)
    stderr = batches.std(axis=0, ddof=1) / np.sqrt(len(batches))
    expected = np.tile([theory(snr) for snr in snrs], 2)
    ok = bool(np.all(np.abs(mean - expected) <= 4 * stderr) and np.all(stderr < 0.25 * expected))
    cells = [f"L={length} {snr:g}dB" for length in (6, 17) for snr in snrs]
    detail = "; ".join(
        f"{c}: {m:.4g} vs {t:.4g} ({(m - t) / e:+.1f} se)"
        for c, m, t, e in zip(cells, mean, expected, stderr)
    )
    return ok, detail


def test_perfect_csi_ber_matches_closed_form():
    """QPSK 2x2 perfect-CSI BER at CP-covered lengths against the closed form.
    At these seeds the standard error is 1.4-13% of the closed form and the
    largest deviation 2.6 standard errors."""
    snrs = (0.0, 5.0, 10.0, 15.0, 20.0)
    _report("BER-theory", *_perfect_csi_ber_against_theory(SystemConfig(), snrs, zf_qpsk_ber_rayleigh))


def test_perfect_csi_qam16_ber_matches_closed_form():
    """16-QAM 2x2 perfect-CSI BER at CP-covered lengths against its closed form,
    with the QPSK test's batches and bounds.  16-QAM decides on magnitudes as
    well as signs, so this checks the zero-forcing gain, not only its phase.
    At these seeds the standard error is 0.7-9% of the closed form and the
    largest deviation 1.8 standard errors."""
    snrs = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
    system = SystemConfig(constellation=Constellation.QAM16)
    _report("BER-theory-16QAM", *_perfect_csi_ber_against_theory(system, snrs, zf_qam16_ber_rayleigh))


def test_perfect_csi_1x2_ber_matches_mrc_closed_form():
    """QPSK 1x2 perfect-CSI BER at CP-covered lengths against the two-branch
    MRC closed form, with the QPSK test's batches and bounds: with one
    transmit antenna, zero-forcing is maximal-ratio combining.  At these seeds
    the standard error is 2.0-15% of the closed form and the largest deviation
    2.9 standard errors; at 15 dB it would be 25% of the closed form, at the
    bound."""
    snrs = (0.0, 5.0, 10.0, 12.5)
    system = SystemConfig(n_tx=1)
    _report("BER-theory-1x2", *_perfect_csi_ber_against_theory(system, snrs, mrc_qpsk_ber_rayleigh))


# CP-covered lengths of the LMMSE closed forms; at each, the receiver's prior
# is the channel's profile
CLOSED_FORM_LENGTHS = (6, 10, 16)


@pytest.fixture(scope="module")
def lmmse_batches():
    """Twelve 10-frame QPSK 2x2 sweeps (seeds 0-11) of LMMSE and perfect CSI at
    CLOSED_FORM_LENGTHS over SNR_GRID, the batches of the closed-form checks."""
    return [
        run_sweep(
            SweepConfig(
                channel_lengths=CLOSED_FORM_LENGTHS,
                snr_grid_db=SNR_GRID,
                n_frames=10,
                seed=seed,
                estimators=(Estimator.LMMSE, Estimator.PERFECT),
            )
        )
        for seed in range(12)
    ]


def _batch_values(batches, estimator: Estimator, name: str) -> np.ndarray:
    """(batches, cells) array of one field of one estimator's rows, cells in
    record order: by length, then SNR."""
    return np.array(
        [[getattr(r, name) for r in records if r.estimator is estimator] for records in batches]
    )


def _closed_form_cells(theory) -> tuple[list[str], np.ndarray]:
    """Labels and theory(model, snr_db) of each (length, SNR) cell of
    lmmse_batches, with the default system's model of each length."""
    config = SystemConfig()
    comb = build_pilot_pattern(config).comb
    cells, values = [], []
    for length in CLOSED_FORM_LENGTHS:
        model = build_correlation_model(PowerDelayProfile.uniform(length), comb, config)
        for snr in SNR_GRID:
            cells.append(f"L={length} {snr:g}dB")
            values.append(theory(model, snr))
    return cells, np.array(values)


def test_lmmse_mse_matches_closed_form_where_the_cp_covers(lmmse_batches):
    """QPSK 2x2 LMMSE MSE at CP-covered lengths against its closed form.

    Where the CP covers the channel the receiver's prior is the channel's
    profile, so each subcarrier's LMMSE error variance follows from the
    model's factors (oracles.lmmse_mse_closed_form).  Twelve 10-frame sweeps
    (seeds 0-11) are the batches; each cell's mean batch MSE must lie within
    4 standard errors of the closed form, and that standard error must be
    below 10% of it.  At these seeds the standard error is 1.1-4.2% of the
    closed form and the largest deviation 2.75 standard errors.
    """
    batches = _batch_values(lmmse_batches, Estimator.LMMSE, "mse_all_subcarriers")
    mean = batches.mean(axis=0)
    stderr = batches.std(axis=0, ddof=1) / np.sqrt(len(batches))
    cells, theory = _closed_form_cells(
        lambda model, snr: lmmse_mse_closed_form(model, 10.0 ** (-snr / 10.0))
    )
    ok = bool(np.all(np.abs(mean - theory) <= 4 * stderr) and np.all(stderr < 0.1 * theory))
    detail = "; ".join(
        f"{c}: {m:.4g} vs {t:.4g} ({(m - t) / e:+.1f} se, {e / t:.1%})"
        for c, m, t, e in zip(cells, mean, theory, stderr)
    )
    _report("LMMSE-MSE-theory", ok, detail)


def test_lmmse_ber_matches_closed_form_where_the_cp_covers(lmmse_batches):
    """QPSK 2x2 LMMSE BER at CP-covered lengths against its closed form, as the
    paired ratio of LMMSE BER over perfect-CSI BER.

    Zero-forcing with the LMMSE estimate sees each stream's SNR exponential
    with mean (1 - sigma_e^2(k)) / (sigma^2 + n_tx sigma_e^2(k))
    (oracles.lmmse_zf_qpsk_ber_closed_form), and perfect CSI the same with
    sigma_e^2 = 0 (oracles.zf_qpsk_ber_rayleigh).  Both rows of a cell read
    the same trials, so their ratio cancels most of the fading noise.  The
    ratio of the mean batch BERs of the lmmse_batches must lie within 4
    standard errors of the ratio of the closed forms, the standard error the
    delta-method one of a ratio of batch means, and that standard error must
    be below 10% of it.  At these seeds the standard error is 0.4-7.1% of
    the closed form and the largest deviation 1.96 standard errors; a closed
    form with one stream's error energy, sigma^2 + sigma_e^2, in place of
    n_tx streams' reads up to 8.4.
    """
    lmmse = _batch_values(lmmse_batches, Estimator.LMMSE, "ber")
    perfect = _batch_values(lmmse_batches, Estimator.PERFECT, "ber")
    ratio = lmmse.mean(axis=0) / perfect.mean(axis=0)
    residual = lmmse - ratio * perfect
    stderr = residual.std(axis=0, ddof=1) / np.sqrt(len(lmmse)) / perfect.mean(axis=0)
    config = SystemConfig()
    payload_index = GridLayout.build(config, build_pilot_pattern(config)).payload_index
    data_subcarriers = payload_index % config.n_used

    def paired_ratio(model, snr):
        ber = lmmse_zf_qpsk_ber_closed_form(model, 10.0 ** (-snr / 10.0), config.n_tx, data_subcarriers)
        return ber / zf_qpsk_ber_rayleigh(snr)

    cells, theory = _closed_form_cells(paired_ratio)
    ok = bool(np.all(np.abs(ratio - theory) <= 4 * stderr) and np.all(stderr < 0.1 * theory))
    detail = "; ".join(
        f"{c}: {m:.4g} vs {t:.4g} ({(m - t) / e:+.1f} se, {e / t:.1%})"
        for c, m, t, e in zip(cells, ratio, theory, stderr)
    )
    _report("LMMSE-BER-theory", ok, detail)
