"""A seeded fuzz of one-frame sweeps over the configuration axes.

Each drawn configuration either is rejected by its config with ValueError or
runs, under warnings as errors, to rows with finite MSEs, a BER in [0, 1] and
hybrid rows equal to the row of the branch each one copies.  The axes reach
the edges of every rule: a CP of 0 or 1 sample, a channel as long as the FFT,
the lowest SNR whose noise level the chain holds (channel.MIN_SNR_DB), a
noise variance of 1e-300, no noise at all, and the largest seed.
"""

import dataclasses
import math
import random
import warnings

from ltelink.channel import MIN_SNR_DB
from ltelink.grid import LTE_PROFILES, SystemConfig
from ltelink.harness import Estimator, SweepConfig, run_sweep
from ltelink.linkproc import Constellation

N_CONFIGS = 240
SEED = 20240531
BRANCHES = (Estimator.LS, Estimator.LMMSE)


def _draw(rng: random.Random) -> dict:
    """One configuration's arguments, each axis drawn independently."""
    bandwidth = rng.choice(sorted(LTE_PROFILES))
    n_fft = LTE_PROFILES[bandwidth][0]
    cp = rng.choice((0, 1, 2, 9, n_fft // 8, n_fft // 4))
    n_tx, n_rx = rng.choice(((1, 1), (1, 2), (2, 2), (2, 3)))
    lengths = rng.sample((1, cp, cp + 1, cp + 2, n_fft), rng.randint(1, 2))
    snrs = sorted(rng.sample((MIN_SNR_DB, 10.0, 3000.0, math.inf), rng.randint(1, 3)))
    if rng.random() < 0.25:
        estimators = (Estimator.HYBRID,)
    else:
        estimators = tuple(rng.sample(list(Estimator), rng.randint(1, len(Estimator))))
    return {
        "system": {
            "bandwidth_mhz": bandwidth,
            "n_used": rng.choice((None, 4, 5, 7, 12)),
            "cp_len": cp,
            "n_tx": n_tx,
            "n_rx": n_rx,
            "constellation": rng.choice(list(Constellation)),
        },
        "channel_lengths": lengths,
        "snr_grid_db": snrs,
        "n_frames": 1,
        "seed": rng.choice((0, 2**64 - 1, rng.getrandbits(64))),
        "estimators": estimators,
        "threshold_db": rng.choice((None, -math.inf, 0.0, math.inf)),
    }


def _config(args: dict) -> SweepConfig:
    return SweepConfig(**{**args, "system": SystemConfig(**args["system"])})


def test_fuzzed_configs_are_rejected_or_run_cleanly():
    rng = random.Random(SEED)
    ran = rejected = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(N_CONFIGS):
            args = _draw(rng)
            try:
                cfg = _config(args)
            except ValueError:
                rejected += 1
                continue
            assert args["system"]["n_rx"] != 3, args
            records = run_sweep(cfg)
            assert len(records) == len(cfg.channel_lengths) * len(cfg.snr_grid_db) * len(cfg.estimators)
            for r in records:
                assert math.isfinite(r.mse_all_subcarriers) and math.isfinite(r.mse_pilot_subcarriers)
                assert 0.0 <= r.ber <= 1.0
            hybrid = [r for r in records if r.estimator is Estimator.HYBRID]
            # the branch rows of the same cells, computed here if not requested
            if hybrid and not set(BRANCHES) <= set(cfg.estimators):
                records = run_sweep(dataclasses.replace(cfg, estimators=BRANCHES))
            rows = {(r.channel_len, r.snr_db, r.estimator): r for r in records}
            for r in hybrid:
                branch = Estimator.LS if r.branch_fraction_ls == 1.0 else Estimator.LMMSE
                assert r.branch_fraction_ls in (0.0, 1.0)
                want = rows[r.channel_len, r.snr_db, branch]
                assert dataclasses.replace(r, estimator=branch, branch_fraction_ls=None) == want
            ran += 1
    assert ran + rejected == N_CONFIGS
    assert ran >= N_CONFIGS // 2, (ran, rejected)
