"""Tests for the LS, LMMSE and hybrid channel estimators."""

import dataclasses
import functools
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import (
    calibration_curves,
    correlation_matrices,
    interpolate_ls,
    lmmse_estimate_full,
    lmmse_estimate_simplified,
    lmmse_filter_solve,
    model_matrices,
)

from ltelink.channel import PowerDelayProfile
from ltelink.estimation import (
    _crossover,
    build_correlation_model,
    calibrate_threshold,
    lmmse_filter,
    ls_estimate,
    ls_interpolation_taps,
)
from ltelink.estimation import interpolate_ls as apply_ls_taps
from ltelink.grid import (
    Constellation,
    SystemConfig,
    build_pilot_pattern,
    used_subcarrier_bins,
)
from ltelink import harness
from ltelink.harness import Estimator, SweepConfig, run_sweep


def steering(cfg: SystemConfig, pdp: PowerDelayProfile, positions=None) -> np.ndarray:
    """Tap-to-subcarrier response matrix, an independent reference for H draws."""
    bins = used_subcarrier_bins(cfg)
    if positions is not None:
        bins = bins[positions]
    # bin * delay reduced modulo N in integers: the phase is exact to rounding
    return np.exp(-2j * np.pi * (np.outer(bins, pdp.tap_delays) % cfg.n_fft) / cfg.n_fft)


class TestLsEstimate:
    def test_unit_pilot(self):
        out = ls_estimate(np.array([2 + 2j]), np.array([1 + 0j]))
        assert out[0] == pytest.approx(2 + 2j)

    def test_noiseless_inversion(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
        assert_allclose(ls_estimate(h * x, x), h, atol=1e-14)

    def test_rejects_zero_pilot(self):
        with pytest.raises(ValueError, match="zero"):
            ls_estimate(np.ones(2), np.array([1.0, 0.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            ls_estimate(np.ones(3), np.ones(2))
        with pytest.raises(ValueError, match="mismatch"):
            ls_estimate(np.ones((2, 3)), np.ones(2))

    def test_stacked_observations_share_one_pilot_vector(self):
        # one (n_rx, n_pilots) observation per port, one (n_pilots,) pilot vector
        rng = np.random.default_rng(14)
        y = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
        got = ls_estimate(y, x)
        assert got.shape == (2, 16)
        for r in range(2):
            assert np.array_equal(got[r], ls_estimate(y[r], x))

    def test_per_port_pilots_broadcast_over_receive_antennas(self):
        # (n_tx, n_rx, n_pilots) observations, (n_tx, 1, n_pilots) pilots
        rng = np.random.default_rng(15)
        y = rng.standard_normal((2, 2, 8)) + 1j * rng.standard_normal((2, 2, 8))
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 1, 8)))
        got = ls_estimate(y, x)
        assert got.shape == (2, 2, 8)
        for p in range(2):
            assert np.array_equal(got[p], ls_estimate(y[p], x[p, 0]))
        with pytest.raises(ValueError, match="mismatch"):
            ls_estimate(y, x[..., :4])
        with pytest.raises(ValueError, match="zero"):
            ls_estimate(y, np.zeros((2, 1, 8)))

    def test_analytic_mse_at_10db(self):
        # MSE of LS under AWGN with unit-modulus pilots is exactly 1/SNR
        rng = np.random.default_rng(1)
        n, trials, sigma2 = 64, 200, 0.1
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        err_energy = 0.0
        for _ in range(trials):
            w = np.sqrt(sigma2 / 2) * (
                rng.standard_normal(n) + 1j * rng.standard_normal(n)
            )
            err_energy += np.sum(np.abs(ls_estimate(h * x + w, x) - h) ** 2)
        mse = err_energy / (trials * n)
        assert mse == pytest.approx(sigma2, rel=0.05)

    def test_unbiased_at_pilots(self):
        rng = np.random.default_rng(2)
        n, trials, sigma2 = 32, 10_000, 0.5
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        acc = np.zeros(n, dtype=complex)
        for _ in range(trials):
            w = np.sqrt(sigma2 / 2) * (
                rng.standard_normal(n) + 1j * rng.standard_normal(n)
            )
            acc += ls_estimate(h * x + w, x) - h
        mean_err = acc / trials
        # chi-square bound: 2n-dof statistic within 3 standard deviations
        z = np.sum(np.abs(mean_err) ** 2) * trials / (sigma2 / 2)
        assert z < 2 * n + 3 * np.sqrt(4 * n)


class TestCorrelationModel:
    def test_flat_single_tap_model_is_all_ones(self):
        cfg = SystemConfig(n_used=16, n_tx=1, n_rx=1)
        corr = build_correlation_model(
            PowerDelayProfile.uniform(1), np.array([0, 4, 8]), cfg
        )
        for r in model_matrices(corr):
            assert_allclose(r, 1.0, atol=1e-14)

    def test_unit_diagonal_for_unit_power_profile(self):
        cfg = SystemConfig(n_used=64, n_tx=1, n_rx=1)
        for taps in (2, 5, 16):
            corr = build_correlation_model(
                PowerDelayProfile.uniform(taps), np.arange(0, 64, 4), cfg
            )
            assert_allclose(np.diag(model_matrices(corr)[1]), 1.0, atol=1e-14)

    def test_hermitian_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        cfg = SystemConfig(n_used=48, n_tx=1, n_rx=1)
        for _ in range(20):
            taps = int(rng.integers(1, 20))
            n_p = int(rng.integers(2, 24))
            positions = np.sort(rng.choice(48, n_p, replace=False))
            corr = build_correlation_model(PowerDelayProfile.uniform(taps), positions, cfg)
            r_hp_hp = model_matrices(corr)[1]
            assert_allclose(r_hp_hp, r_hp_hp.conj().T, atol=1e-13)
            assert np.linalg.eigvalsh(r_hp_hp).min() > -1e-10

    def test_pilot_block_is_restriction_of_full_model(self):
        cfg = SystemConfig(n_used=40, n_tx=1, n_rx=1)
        positions = np.array([1, 7, 13, 19, 25])
        corr = build_correlation_model(PowerDelayProfile.uniform(6), positions, cfg)
        r_hh_p, r_hp_hp = model_matrices(corr)
        assert_allclose(r_hh_p[positions, :], r_hp_hp, atol=1e-14)

    def test_matches_sample_correlation(self):
        # closed form against the sample statistics of simulated channel draws
        rng = np.random.default_rng(4)
        cfg = SystemConfig(n_used=24, n_tx=1, n_rx=1)
        pdp = PowerDelayProfile.uniform(4)
        positions = np.arange(0, 24, 3)
        corr = build_correlation_model(pdp, positions, cfg)
        v = steering(cfg, pdp, positions)
        taps = (
            rng.standard_normal((100_000, 4)) + 1j * rng.standard_normal((100_000, 4))
        ) * np.sqrt(pdp.tap_powers / 2)
        h = taps @ v.T
        sample = h.T.conj() @ h / len(h)
        assert np.max(np.abs(sample.conj() - model_matrices(corr)[1])) < 0.02

    def test_rejects_out_of_range_positions(self):
        cfg = SystemConfig(n_used=16, n_tx=1, n_rx=1)
        with pytest.raises(ValueError, match="position"):
            build_correlation_model(PowerDelayProfile.uniform(2), np.array([16]), cfg)

    @pytest.mark.parametrize("positions", [[], [[0, 3]]], ids=["empty", "2-d"])
    def test_rejects_positions_that_are_not_a_non_empty_1d_array(self, positions):
        cfg = SystemConfig(n_used=16, n_tx=1, n_rx=1)
        with pytest.raises(ValueError, match="non-empty 1-D index array"):
            build_correlation_model(PowerDelayProfile.uniform(2), np.array(positions), cfg)

    @pytest.mark.parametrize("bandwidth_mhz, cp_len", [(5.0, 16), (10.0, 72)])
    def test_lag_table_equals_phase_tensor(self, bandwidth_mhz, cp_len):
        # B A^H and A A^H multiplied out from the SVD factors against the
        # per-entry phase sums of the oracle
        cfg = SystemConfig(bandwidth_mhz=bandwidth_mhz, cp_len=cp_len)
        positions = build_pilot_pattern(cfg).comb
        pdp = PowerDelayProfile.uniform(cp_len)
        corr = build_correlation_model(pdp, positions, cfg)
        for got, expected in zip(model_matrices(corr), correlation_matrices(pdp, positions, cfg)):
            rel = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
            assert rel < 1e-12, f"relative deviation {rel:.2e}"

    def test_eigendecomposition_reconstructs_the_model(self):
        # Q and sigma^2 are the eigenpairs of R_hp_hp = A A^H with nonzero
        # eigenvalues, and bv = B V = B A^H Q diag(1/sigma)
        cfg = SystemConfig()
        positions = build_pilot_pattern(cfg).comb
        pdp = PowerDelayProfile.uniform(16)
        corr = build_correlation_model(pdp, positions, cfg)
        b = steering(cfg, pdp) * np.sqrt(pdp.tap_powers)
        a = b[positions]
        assert corr.q.shape == (100, 16) and corr.bv.shape == (cfg.n_used, 16)
        assert np.all(corr.sigma > 0) and np.all(np.diff(corr.sigma) <= 0)
        assert_allclose(corr.q.conj().T @ corr.q, np.eye(16), atol=1e-12)
        assert_allclose(a @ a.conj().T @ corr.q, corr.q * corr.sigma**2, atol=1e-12)
        assert_allclose(corr.bv * corr.sigma, b @ a.conj().T @ corr.q, atol=1e-12)
        for f in (corr.q, corr.sigma, corr.bv):
            assert not f.flags.writeable


BENCHMARK_SNRS_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)


def _worst_deviation_from_solve(cfg: SystemConfig, pdp: PowerDelayProfile) -> float:
    """Largest relative deviation of the factored filter from a linear solve
    over the benchmark SNRs; the factors never exceed rank n_taps."""
    positions = build_pilot_pattern(cfg).comb
    corr = build_correlation_model(pdp, positions, cfg)
    dense = correlation_matrices(pdp, positions, cfg)
    rank = min(pdp.n_taps, positions.size)
    worst = 0.0
    for snr_db in BENCHMARK_SNRS_DB:
        lam = 10.0 ** (-snr_db / 10.0)
        expected = lmmse_filter_solve(dense, lam)
        f, g = lmmse_filter(corr, lam)
        assert f.shape == (cfg.n_used, rank) and g.shape == (rank, positions.size)
        worst = max(worst, np.max(np.abs(f @ g - expected)) / np.max(np.abs(expected)))
    return worst


class TestLmmseFilter:
    @pytest.mark.parametrize("bandwidth_mhz, cp_len", [(5.0, 16), (10.0, 72)])
    def test_matches_linear_solve_at_benchmark_snrs(self, bandwidth_mhz, cp_len):
        cfg = SystemConfig(bandwidth_mhz=bandwidth_mhz, cp_len=cp_len)
        worst = _worst_deviation_from_solve(cfg, PowerDelayProfile.uniform(cp_len))
        assert worst < 1e-10, f"relative deviation {worst:.2e}"

    def test_matches_linear_solve_with_more_taps_than_pilots(self):
        # 40 taps on the 25-pilot comb of 1.25 MHz: A is wide and R_hp_hp full rank
        cfg = SystemConfig(bandwidth_mhz=1.25, cp_len=40)
        assert build_pilot_pattern(cfg).comb.size == 25
        worst = _worst_deviation_from_solve(cfg, PowerDelayProfile.uniform(40))
        assert worst < 1e-10, f"relative deviation {worst:.2e}"

    def test_matches_linear_solve_on_a_gapped_exponential_profile(self):
        delays = np.array([0, 3, 7, 15])
        powers = np.exp(-delays / 5.0)
        pdp = PowerDelayProfile(delays, powers / powers.sum())
        worst = _worst_deviation_from_solve(SystemConfig(), pdp)
        assert worst < 1e-10, f"relative deviation {worst:.2e}"

    def test_zero_regularizer_is_the_pseudo_inverse(self):
        # 16 taps on 100 pilots: R_hp_hp has rank 16, so it has no inverse
        cfg = SystemConfig()
        positions = build_pilot_pattern(cfg).comb
        pdp = PowerDelayProfile.uniform(16)
        corr = build_correlation_model(pdp, positions, cfg)
        f, g = lmmse_filter(corr, 0.0)
        w = f @ g
        r_hh_p, r_hp_hp = correlation_matrices(pdp, positions, cfg)
        # numpy's matrix_rank cutoff finds the 16 nonzero eigenvalues
        assert np.linalg.matrix_rank(r_hp_hp, hermitian=True) == 16
        # the pseudo-inverse reproduces R_hh_p on the range of R_hp_hp ...
        assert_allclose(w @ r_hp_hp, r_hh_p, rtol=0, atol=1e-12)
        # ... and maps its null space, the 84 left singular vectors of A
        # beyond its rank, to zero
        a = (steering(cfg, pdp) * np.sqrt(pdp.tap_powers))[positions]
        null = np.linalg.svd(a)[0][:, 16:]
        assert np.max(np.abs(w @ null)) < 1e-12

    @pytest.mark.parametrize(
        "bandwidth_mhz, cp_len, bound", [(5.0, 16, 1e-15), (10.0, 72, 1e-13)]
    )
    def test_cp_covered_channel_is_exact_at_infinite_snr(self, bandwidth_mhz, cp_len, bound):
        # noiseless pilots of a channel the model describes: the pseudo-inverse
        # filter interpolates them to the whole band up to rounding
        cfg = SweepConfig(
            system=SystemConfig(bandwidth_mhz=bandwidth_mhz, cp_len=cp_len),
            channel_lengths=(cp_len,),
            snr_grid_db=(np.inf,),
            n_frames=2,
            seed=5,
            estimators=(Estimator.LMMSE,),
        )
        (rec,) = run_sweep(cfg)
        assert rec.mse_all_subcarriers <= bound
        assert rec.mse_pilot_subcarriers <= bound

    def test_rejects_negative_or_nan_regularizer(self):
        cfg = SystemConfig(n_used=4, n_tx=1, n_rx=1)
        corr = build_correlation_model(PowerDelayProfile.uniform(2), np.array([1, 3]), cfg)
        for bad in (-1.0, np.nan):
            with pytest.raises(ValueError, match="non-negative"):
                lmmse_filter(corr, bad)


class TestLmmseFull:
    def test_zero_noise_pilots_everywhere_full_rank_is_identity(self):
        # with sigma=0 the filter is R_hh_p times the pseudo-inverse of
        # R_hp_hp, which for a full-rank model is the inverse, so the pilot
        # outputs reproduce h_ls up to rounding.  Pilots on the two bins next
        # to DC, full rank for a 2-tap profile.
        cfg = SystemConfig(n_used=4, n_tx=1, n_rx=1)
        positions = np.array([1, 2])
        corr = correlation_matrices(PowerDelayProfile.uniform(2), positions, cfg)
        rng = np.random.default_rng(5)
        h_ls = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        est = lmmse_estimate_full(h_ls, corr, np.ones(2, dtype=complex), 0.0)
        assert_allclose(est[positions], h_ls, atol=1e-6)

    def test_infinite_noise_shrinks_to_zero(self):
        cfg = SystemConfig(n_used=12, n_tx=1, n_rx=1)
        corr = correlation_matrices(
            PowerDelayProfile.uniform(3), np.arange(0, 12, 2), cfg
        )
        h_ls = np.ones(6, dtype=complex)
        est = lmmse_estimate_full(h_ls, corr, np.ones(6, dtype=complex), 1e12)
        assert np.linalg.norm(est) < 1e-9

    def test_two_pilot_case_against_cofactor_inverse(self):
        # hand-built 2x2 inversion: inv([[a,b],[c,d]]) = [[d,-b],[-c,a]]/(ad-bc)
        cfg = SystemConfig(n_used=4, n_tx=1, n_rx=1)
        pdp = PowerDelayProfile.uniform(2)
        positions = np.array([1, 3])
        corr = r_hh_p, r_hp_hp = correlation_matrices(pdp, positions, cfg)
        rng = np.random.default_rng(6)
        h_ls = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x_p = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        sigma2 = 0.37
        a_mat = r_hp_hp + sigma2 * np.diag(1.0 / np.abs(x_p) ** 2)
        (a, b), (c, d) = a_mat
        inv = np.array([[d, -b], [-c, a]]) / (a * d - b * c)
        expected = r_hh_p @ inv @ h_ls
        got = lmmse_estimate_full(h_ls, corr, x_p, sigma2)
        assert_allclose(got, expected, atol=1e-12)

    def test_rejects_negative_noise(self):
        cfg = SystemConfig(n_used=4, n_tx=1, n_rx=1)
        corr = correlation_matrices(PowerDelayProfile.uniform(2), np.array([1, 3]), cfg)
        with pytest.raises(ValueError, match="non-negative"):
            lmmse_estimate_full(np.ones(2), corr, np.ones(2), -1.0)


class TestLmmseSimplified:
    def test_high_snr_full_rank_recovers_h_ls(self):
        cfg = SystemConfig(n_used=4, n_tx=1, n_rx=1)
        positions = np.array([1, 2])
        corr = correlation_matrices(PowerDelayProfile.uniform(2), positions, cfg)
        rng = np.random.default_rng(7)
        h_ls = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        est = lmmse_estimate_simplified(h_ls, corr, 1e12, 1.0)
        assert_allclose(est[positions], h_ls, atol=1e-6)

    def test_coincides_with_full_form_for_unit_pilots(self):
        # beta=1 and sigma^2 = beta/SNR make the two filters identical
        rng = np.random.default_rng(8)
        cfg = SystemConfig(n_used=48, n_tx=1, n_rx=1)
        corners = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
        for _ in range(100):
            taps = int(rng.integers(1, 16))
            n_p = int(rng.integers(2, 16))
            positions = np.sort(rng.choice(48, n_p, replace=False))
            corr = correlation_matrices(PowerDelayProfile.uniform(taps), positions, cfg)
            h_ls = rng.standard_normal(n_p) + 1j * rng.standard_normal(n_p)
            x_p = corners[rng.integers(0, 4, n_p)]
            snr = float(10 ** rng.uniform(-1, 3))
            full = lmmse_estimate_full(h_ls, corr, x_p, 1.0 / snr)
            simp = lmmse_estimate_simplified(h_ls, corr, snr, 1.0)
            assert np.max(np.abs(full - simp)) < 1e-12

    def test_beats_ls_interpolation_under_matched_model(self):
        # CP-sufficient observations: y_p = h_p * x_p + w
        rng = np.random.default_rng(9)
        cfg = SystemConfig()
        positions = build_pilot_pattern(cfg).comb
        pdp = PowerDelayProfile.uniform(10)
        corr = correlation_matrices(pdp, positions, cfg)
        v_all = steering(cfg, pdp)
        v_p = v_all[positions]
        n_p = len(positions)
        corners = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
        for snr_db in range(0, 31, 5):
            snr = 10 ** (snr_db / 10)
            err_ls = err_lm = ref = 0.0
            for _ in range(200):
                g = (rng.standard_normal(10) + 1j * rng.standard_normal(10)) * np.sqrt(
                    pdp.tap_powers / 2
                )
                h_all = v_all @ g
                x_p = corners[rng.integers(0, 4, n_p)]
                w = np.sqrt(1 / (2 * snr)) * (
                    rng.standard_normal(n_p) + 1j * rng.standard_normal(n_p)
                )
                h_ls = ls_estimate((v_p @ g) * x_p + w, x_p)
                h_ls_full = interpolate_ls(h_ls, positions, cfg.n_used)
                h_lm = lmmse_estimate_simplified(h_ls, corr, snr, 1.0)
                err_ls += np.sum(np.abs(h_ls_full - h_all) ** 2)
                err_lm += np.sum(np.abs(h_lm - h_all) ** 2)
                ref += np.sum(np.abs(h_all) ** 2)
            assert err_lm / ref < err_ls / ref, f"LMMSE not better at {snr_db} dB"

    def test_shrinkage_monotone_at_pilot_positions(self):
        # at the pilot positions the filter is an eigendomain shrinkage, so the
        # restricted output norm grows with SNR; the off-pilot extension is not
        # simultaneously diagonalizable and carries no such guarantee
        rng = np.random.default_rng(10)
        cfg = SystemConfig(n_used=48, n_tx=1, n_rx=1)
        for _ in range(50):
            taps = int(rng.integers(1, 17))
            n_p = int(rng.integers(2, 24))
            positions = np.sort(rng.choice(48, n_p, replace=False))
            corr = correlation_matrices(PowerDelayProfile.uniform(taps), positions, cfg)
            h_ls = rng.standard_normal(n_p) + 1j * rng.standard_normal(n_p)
            snrs = np.sort(10 ** rng.uniform(-1, 4, 4))
            norms = [
                np.linalg.norm(
                    lmmse_estimate_simplified(h_ls, corr, s, 1.0)[positions]
                )
                for s in snrs
            ]
            assert all(a <= b * (1 + 1e-10) for a, b in zip(norms, norms[1:]))

    def test_rejects_bad_snr_and_beta(self):
        cfg = SystemConfig(n_used=4, n_tx=1, n_rx=1)
        corr = correlation_matrices(PowerDelayProfile.uniform(2), np.array([1, 3]), cfg)
        with pytest.raises(ValueError, match="snr"):
            lmmse_estimate_simplified(np.ones(2), corr, 0.0, 1.0)
        with pytest.raises(ValueError, match="beta"):
            lmmse_estimate_simplified(np.ones(2), corr, 1.0, 0.0)


class TestBeta:
    def test_qpsk(self):
        assert Constellation.QPSK.beta == 1.0

    def test_qam16(self):
        assert Constellation.QAM16.beta == 17.0 / 9.0


class TestInterpolateLs:
    def test_constant_pilots_give_constant_vector(self):
        c = 0.3 - 1.2j
        est = interpolate_ls(np.full(3, c), np.array([0, 4, 8]), 12)
        assert_allclose(est, c, atol=1e-15)

    def test_midpoint(self):
        est = interpolate_ls(np.array([0.0 + 0j, 2 + 2j]), np.array([0, 2]), 3)
        assert est[1] == pytest.approx(1 + 1j)

    def test_constant_extrapolation_beyond_edges(self):
        est = interpolate_ls(np.array([1 + 1j, 3 - 1j]), np.array([2, 4]), 8)
        assert_allclose(est[:2], 1 + 1j, atol=1e-15)
        assert_allclose(est[5:], 3 - 1j, atol=1e-15)

    def test_unsorted_positions_accepted(self):
        est = interpolate_ls(np.array([2 + 0j, 0 + 0j]), np.array([2, 0]), 3)
        assert est[1] == pytest.approx(1 + 0j)

    def test_flat_channel_zero_error(self):
        rng = np.random.default_rng(11)
        h = complex(rng.standard_normal(), rng.standard_normal())
        est = interpolate_ls(np.full(5, h), np.arange(0, 25, 5), 25)
        assert_allclose(est, h, atol=1e-15)

    def test_rejects_single_pilot(self):
        with pytest.raises(ValueError, match="at least 2"):
            interpolate_ls(np.ones(1), np.array([0]), 4)
        with pytest.raises(ValueError, match="at least 2"):
            ls_interpolation_taps(np.array([0]), 4)


class TestLsTaps:
    """The sweep's LS interpolation, two taps per subcarrier, against the oracle."""

    @pytest.mark.parametrize("bandwidth_mhz", [5.0, 10.0, 20.0])
    def test_taps_match_interpolation(self, bandwidth_mhz):
        cfg = SystemConfig(bandwidth_mhz=bandwidth_mhz)
        positions = build_pilot_pattern(cfg).comb
        taps = ls_interpolation_taps(positions, cfg.n_used)
        rng = np.random.default_rng(16)
        h_p = rng.standard_normal((4, positions.size)) + 1j * rng.standard_normal((4, positions.size))
        expected = np.array([interpolate_ls(h, positions, cfg.n_used) for h in h_p])
        assert_allclose(apply_ls_taps(h_p, taps), expected, rtol=0, atol=1e-12)

    def test_taps_accept_unsorted_positions(self):
        positions = np.array([7, 0, 3])
        h_p = np.array([1 + 2j, -1j, 0.5])
        got = apply_ls_taps(h_p, ls_interpolation_taps(positions, 9))
        assert_allclose(got, interpolate_ls(h_p, positions, 9), atol=1e-15)

    @pytest.mark.parametrize("n_used", [4, 300])
    def test_end_subcarriers_copy_the_end_pilots(self, n_used):
        # n_used = 4 is the smallest config with two pilots, at 0 and 3; at
        # 300 the comb ends at 297, so subcarriers 298 and 299 lie beyond it
        positions = build_pilot_pattern(SystemConfig(n_used=n_used)).comb
        taps = ls_interpolation_taps(positions, n_used)
        assert np.all((taps.weight >= 0) & (taps.weight <= 1))
        h_p = np.arange(1, positions.size + 1) * (1 - 2j)
        got = apply_ls_taps(h_p, taps)
        assert got[0] == h_p[0]
        assert np.all(got[positions[-1]:] == h_p[-1])
        assert_allclose(got, interpolate_ls(h_p, positions, n_used), rtol=0, atol=1e-12)

    def test_rejects_repeated_positions_and_a_mismatched_comb(self):
        with pytest.raises(ValueError, match="distinct"):
            ls_interpolation_taps(np.array([0, 3, 3]), 6)
        with pytest.raises(ValueError, match="pilots"):
            apply_ls_taps(np.ones(2), ls_interpolation_taps(np.array([0, 3, 6]), 8))


class TestHybrid:
    """SystemConfig.cp_covers and the threshold decide the branch; the sweep
    runs the chosen estimator."""

    CFG = SweepConfig(
        channel_lengths=(6, 40),
        snr_grid_db=(0.0, 30.0),
        n_frames=1,
        seed=7,
        estimators=(Estimator.LS, Estimator.LMMSE, Estimator.HYBRID),
        threshold_db=12.0,
    )

    @pytest.fixture(scope="class")
    def rows(self):
        return {(r.channel_len, r.snr_db, r.estimator): r for r in run_sweep(self.CFG)}

    @staticmethod
    def _assert_hybrid_row_is(rows, length, snr_db, branch):
        # field for field the branch's row, apart from the name and the branch share
        hybrid = rows[length, snr_db, Estimator.HYBRID]
        assert hybrid.branch_fraction_ls == float(branch is Estimator.LS)
        expected = rows[length, snr_db, branch]
        assert dataclasses.replace(
            hybrid, estimator=branch, branch_fraction_ls=None
        ) == expected

    def test_cp_covered_channel_always_lmmse(self, rows):
        assert self.CFG.system.cp_covers(6)
        for snr_db in (0.0, 30.0):
            self._assert_hybrid_row_is(rows, 6, snr_db, Estimator.LMMSE)

    def test_long_channel_high_snr_switches_to_ls(self, rows):
        assert not self.CFG.system.cp_covers(40)
        self._assert_hybrid_row_is(rows, 40, 30.0, Estimator.LS)

    def test_long_channel_low_snr_keeps_lmmse(self, rows):
        self._assert_hybrid_row_is(rows, 40, 0.0, Estimator.LMMSE)

    def test_decision_table_over_random_inputs(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            cp = int(rng.integers(1, 33))
            length = int(rng.integers(1, 64))
            # covered when the last tap delay fits in the prefix: a length of
            # cp + 1 has its last tap at delay cp, still no ISI
            last_delay = PowerDelayProfile.uniform(length).tap_delays.max()
            assert SystemConfig(cp_len=cp).cp_covers(length) is bool(last_delay <= cp)

    def test_threshold_boundary_is_ls(self):
        # the threshold itself belongs to LS
        cfg = dataclasses.replace(
            self.CFG,
            channel_lengths=(40,),
            snr_grid_db=(14.999, 15.0),
            estimators=(Estimator.HYBRID,),
            threshold_db=15.0,
        )
        assert [r.branch_fraction_ls for r in run_sweep(cfg)] == [0.0, 1.0]


@pytest.mark.parametrize("cp_len", [1, 16, 72])
@pytest.mark.parametrize("past_cp", [1, 2])
def test_cp_boundary_agrees_everywhere(cp_len, past_cp):
    """The sweep's check, the hybrid branch and the calibration all put a
    length of cp_len + 1 inside the CP and cp_len + 2 outside it."""
    system = SystemConfig(cp_len=cp_len)
    length = cp_len + past_cp
    covered = past_cp == 1
    assert system.cp_covers(length) is covered
    # the sweep needs a finite SNR to calibrate only a length past the CP
    hybrid_only = dict(system=system, channel_lengths=(length,), estimators=(Estimator.HYBRID,))
    if covered:
        SweepConfig(snr_grid_db=(np.inf,), **hybrid_only)
    else:
        with pytest.raises(ValueError, match="finite SNR"):
            SweepConfig(snr_grid_db=(np.inf,), **hybrid_only)
    # the hybrid branch: LMMSE at every SNR inside the CP, LS from 12 dB past it
    sweep = SweepConfig(
        snr_grid_db=(0.0, 30.0, np.inf), n_frames=1, threshold_db=12.0, **hybrid_only
    )
    rows = run_sweep(sweep)
    expected = [0.0, 0.0, 0.0] if covered else [0.0, 1.0, 1.0]
    assert [r.branch_fraction_ls for r in rows] == expected
    # the calibration takes only a length past the CP
    calibrate = functools.partial(
        calibrate_threshold,
        system,
        PowerDelayProfile.uniform(length),
        np.array([0.0, 30.0]),
        1,
        np.random.default_rng(0),
    )
    if covered:
        with pytest.raises(ValueError, match="exceeding the CP"):
            calibrate()
    else:
        assert not np.isnan(calibrate())


def curve(snrs, mse_ls, mse_lmmse):
    """Calibration points (snr_db, mse_ls, mse_lmmse) of parallel sequences."""
    return list(zip(snrs, mse_ls, mse_lmmse))


def first_crossing(points):
    """Reference search over the whole grid: the first downward crossing of
    d = log(mse_ls) - log(mse_lmmse), interpolated, else a sentinel."""
    snrs, mse_ls, mse_lmmse = (np.array(a, dtype=np.float64) for a in zip(*points))
    d = np.log(mse_ls) - np.log(mse_lmmse)
    for i in range(len(d) - 1):
        if d[i] > 0 >= d[i + 1]:
            frac = d[i] / (d[i] - d[i + 1])
            return float(snrs[i] + frac * (snrs[i + 1] - snrs[i]))
    return -np.inf if d[0] <= 0 else np.inf


class TestCrossover:
    def test_interpolated_crossing(self):
        # log difference +1 then -1: crossing at the midpoint
        got = _crossover(curve([0.0, 10.0], [np.e, 1 / np.e], [1.0, 1.0]))
        assert got == pytest.approx(5.0)

    def test_lmmse_always_better_gives_plus_inf(self):
        snrs = np.arange(0.0, 31.0, 5.0)
        assert _crossover(curve(snrs, np.full(7, 0.5), np.full(7, 0.1))) == np.inf

    def test_ls_always_better_gives_minus_inf(self):
        snrs = np.arange(0.0, 31.0, 5.0)
        assert _crossover(curve(snrs, np.full(7, 0.1), np.full(7, 0.5))) == -np.inf

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            _crossover(iter(()))

    def test_non_positive_mse_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            _crossover(curve([0.0, 10.0], [1.0, 0.0], [0.5, 0.5]))

    @pytest.mark.parametrize("i", range(6))
    def test_reads_no_point_past_the_crossing(self, i):
        # d = +1 up to point i and -1 from i + 1: points i + 2 onward are never
        # drawn, and the crossing is the midpoint of points i and i + 1
        snrs = np.arange(0.0, 31.0, 5.0)
        points = curve(snrs, np.where(np.arange(7) <= i, np.e, 1 / np.e), np.ones(7))
        read = []

        def lazy():
            for p in points:
                read.append(p[0])
                yield p

        assert _crossover(lazy()) == pytest.approx(snrs[i] + 2.5)
        assert read == list(snrs[: i + 2])

    def test_first_downward_crossing_after_an_upward_one(self):
        # LS better at 0 dB, LMMSE at 5 and 10 dB, LS again from 15 dB
        snrs = np.arange(0.0, 31.0, 5.0)
        points = curve(snrs, [0.1, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1], np.full(7, 0.2))
        got = _crossover(points)
        assert 10.0 < got < 15.0
        assert got == first_crossing(points)

    def test_calibrate_rejects_cp_covered_profile(self):
        cfg = SystemConfig()
        with pytest.raises(ValueError, match="exceeding the CP"):
            calibrate_threshold(
                cfg,
                PowerDelayProfile.uniform(10),
                np.array([0.0, 10.0]),
                4,
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize(
        "snrs, message",
        [
            (np.arange(30.0, -1.0, -5.0), "snr grid must be strictly ascending (sorted, no repeats)"),
            (np.array([0.0, np.nan, 10.0]), "invalid snr_db: nan"),
            (np.array([0.0, 0.0]), "snr grid must be strictly ascending (sorted, no repeats)"),
            (np.array([0.0, np.inf]), "the SNR grid must be a finite 1-D array"),
            (np.array([[0.0, 10.0]]), "the SNR grid must be a finite 1-D array"),
            (np.array(10.0), "the SNR grid must be a finite 1-D array"),
        ],
        ids=["descending", "nan", "repeat", "plus-inf", "2-d", "0-d"],
    )
    def test_calibrate_rejects_a_grid_it_cannot_search(self, snrs, message):
        # descending, a grid read as "always LS" (-inf); with a NaN, an error
        # deep in the filter build; with a repeat, a zero-width interpolation;
        # a sweep takes +inf, its no-noise point, but the crossing search does not
        with pytest.raises(ValueError, match=re.escape(message)):
            calibrate_threshold(
                SystemConfig(), PowerDelayProfile.uniform(40), snrs, 5, np.random.default_rng(1)
            )

    @pytest.mark.parametrize(
        "system, length, trials, message",
        [
            (SystemConfig(cp_len=0), 20, 2, "the lmmse and hybrid estimators need cp_len >= 1"),
            (SystemConfig(), 20, 2.5, "n_frames must be integral, got 2.5"),
            (SystemConfig(), 20, True, "n_frames must be integral, got True"),
            (SystemConfig(), 600, 2, "channel length 600 exceeds the FFT size 512"),
        ],
        ids=["cp0", "fractional-trials", "bool-trials", "longer-than-fft"],
    )
    def test_calibrate_validates_before_any_draw(self, system, length, trials, message):
        # without a CP the LMMSE prior keeps no tap; a fractional trial count
        # and a bool are no count; taps past the FFT size would alias: all are refused
        # before the first cell draws
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match=re.escape(message)):
            calibrate_threshold(
                system, PowerDelayProfile.uniform(length), np.array([0.0, 10.0]), trials, rng
            )
        assert rng.bit_generator.seed_seq.n_children_spawned == 0

    @pytest.mark.parametrize(
        "system, span, snrs, n_frames, message",
        [
            (SystemConfig(cp_len=0), 20, (0.0, 10.0), 2, "need cp_len >= 1"),
            (SystemConfig(), 600, (0.0, 10.0), 2, "channel length 600 exceeds the FFT size 512"),
            (SystemConfig(), 20, (0.0, 10.0), 0, "n_frames must be at least 1"),
            (SystemConfig(), 20, (0.0, 10.0), 2.5, "n_frames must be integral, got 2.5"),
            (SystemConfig(), 20, (0.0, 10.0), True, "n_frames must be integral, got True"),
            (SystemConfig(), 20, (10.0, 0.0), 2, "strictly ascending (sorted, no repeats)"),
            (SystemConfig(), 20, (5.0, 5.0), 2, "strictly ascending (sorted, no repeats)"),
            (SystemConfig(), 20, (0.0, np.nan), 2, "invalid snr_db: nan"),
            (SystemConfig(), 20, (-np.inf, 0.0), 2, "invalid snr_db: -inf"),
            (SystemConfig(), 20, (-4000.0, 0.0), 2, "invalid snr_db: -4000.0"),
        ],
        ids=[
            "cp0",
            "span-600",
            "zero-frames",
            "fractional-frames",
            "bool-frames",
            "descending",
            "repeat",
            "nan",
            "minus-inf",
            "minus-4000-db",
        ],
    )
    def test_a_shared_rule_reads_alike_in_a_sweep_and_a_calibration(
        self, system, span, snrs, n_frames, message
    ):
        # the calibration checks what it shares with a sweep as the sweep of its
        # cells, LS and LMMSE at its one span: the same rule, the same message
        with pytest.raises(ValueError) as sweep_error:
            SweepConfig(
                system=system,
                channel_lengths=(span,),
                snr_grid_db=snrs,
                n_frames=n_frames,
                estimators=(Estimator.LS, Estimator.LMMSE),
            )
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError) as calibration_error:
            calibrate_threshold(system, PowerDelayProfile.uniform(span), np.array(snrs), n_frames, rng)
        assert message in str(sweep_error.value)
        assert str(calibration_error.value) == str(sweep_error.value)
        assert rng.bit_generator.seed_seq.n_children_spawned == 0

    @pytest.mark.parametrize("trials", [np.int64(2)], ids=["numpy-int"])
    def test_calibrate_accepts_integral_counts(self, trials):
        pdp, snrs = PowerDelayProfile.uniform(40), np.array([0.0, 30.0])
        got = calibrate_threshold(SystemConfig(), pdp, snrs, trials, np.random.default_rng(3))
        want = calibrate_threshold(SystemConfig(), pdp, snrs, int(trials), np.random.default_rng(3))
        assert got == want

    def test_calibrate_finds_finite_crossover_for_long_channel(self):
        cfg = SystemConfig()
        got = calibrate_threshold(
            cfg,
            PowerDelayProfile.uniform(40),
            np.array([0.0, 10.0, 20.0, 30.0]),
            30,
            np.random.default_rng(1),
        )
        assert 0.0 < got < 30.0


SWEEP_GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

# (length, seed, trials, SNR grid, crossing): the calibration curves cross
# between points i and i + 1 of the grid for crossing = i, or never for a
# sentinel crossing
LAZY_CASES = [
    (18, 0, 2, SWEEP_GRID, 2),
    (20, 0, 2, SWEEP_GRID, 1),
    (40, 0, 2, SWEEP_GRID, 0),
    (60, 2, 1, SWEEP_GRID, -np.inf),
    (20, 3, 2, (-30.0, -20.0, -10.0), np.inf),
]


class TestLazyCalibration:
    """calibrate_threshold runs the paired cells in SNR order up to the crossing."""

    @pytest.mark.parametrize("length, seed, trials, snrs, crossing", LAZY_CASES)
    def test_runs_the_cells_up_to_the_crossing_only(
        self, monkeypatch, length, seed, trials, snrs, crossing
    ):
        system, pdp, snrs = SystemConfig(), PowerDelayProfile.uniform(length), np.array(snrs)
        points = calibration_curves(system, pdp, snrs, trials, np.random.default_rng(seed))
        d = [np.log(ls) - np.log(lmmse) for _, ls, lmmse in points]
        downward = [i for i in range(len(d) - 1) if d[i] > 0 >= d[i + 1]]
        if np.isinf(crossing):
            assert downward == [] and (d[0] > 0) == (crossing > 0)
            n_cells = len(snrs)  # a sentinel is known only at the end of the grid
        else:
            assert downward[0] == crossing
            n_cells = crossing + 2
        cells = []
        run_cell = harness._run_cell

        def counting(ctx, pdp, snr_db, *args, **kwargs):
            cells.append(snr_db)
            return run_cell(ctx, pdp, snr_db, *args, **kwargs)

        monkeypatch.setattr(harness, "_run_cell", counting)
        rng = np.random.default_rng(seed)
        calibrate_threshold(system, pdp, snrs, trials, rng)
        assert cells == list(snrs[:n_cells])
        # one child of rng per trial of each cell run, and no more
        assert rng.bit_generator.seed_seq.n_children_spawned == n_cells * trials

    @pytest.mark.parametrize("length, seed, trials, snrs, crossing", LAZY_CASES)
    def test_matches_the_search_of_the_full_curves(self, length, seed, trials, snrs, crossing):
        system, pdp, snrs = SystemConfig(), PowerDelayProfile.uniform(length), np.array(snrs)
        full = calibration_curves(system, pdp, snrs, trials, np.random.default_rng(seed))
        assert [p[0] for p in full] == list(snrs)
        got = calibrate_threshold(system, pdp, snrs, trials, np.random.default_rng(seed))
        assert got == _crossover(full) == first_crossing(full)
        if np.isinf(crossing):
            assert got == crossing
        else:
            assert snrs[crossing] < got <= snrs[crossing + 1]
