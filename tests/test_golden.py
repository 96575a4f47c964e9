"""Pinned golden outputs of three small sweeps.

Refactors may reorder floating-point sums but must not change a random draw
or a decision, so "the same numbers" is defined as in sweepbench/workloads.py:
exact bit-error counts (ber x bits), MSE within a relative 1e-6 (plus 1e-12
absolute for the exactly-zero perfect-CSI rows), calibrated thresholds within
1e-6 dB, and infinite values equal exactly.  Reordering moves an MSE by about
1e-9 relative; a changed draw or estimator moves it by the Monte Carlo error
of these frame counts, 1e-3 relative or more.

Regenerate the files under tests/data/ with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import io
import json
import math
from pathlib import Path

import pytest

from ltelink.grid import Constellation, SystemConfig
from ltelink.harness import SweepConfig, _hybrid_threshold, emit_csv, run_sweep

DATA = Path(__file__).resolve().parent / "data"

MSE_RTOL = 1e-6
MSE_ATOL = 1e-12
THRESHOLD_TOL_DB = 1e-6

# name -> (sweep config, payload bits per slot)
GOLDEN = {
    "short": (
        SweepConfig(channel_lengths=(6, 10), snr_grid_db=(0.0, 10.0, 20.0, 30.0), n_frames=5, seed=11),
        7600,
    ),
    # L=20 calibrates to a finite threshold, L=40 to the always-LS sentinel
    "long": (
        SweepConfig(channel_lengths=(20, 40), snr_grid_db=(5.0, 15.0, 25.0), n_frames=5, seed=11),
        7600,
    ),
    "qam16": (
        SweepConfig(
            system=SystemConfig(constellation=Constellation.QAM16),
            channel_lengths=(10, 40),
            snr_grid_db=(0.0, 10.0, 20.0, 30.0),
            n_frames=4,
            seed=12,
            threshold_db=15.0,
        ),
        15200,
    ),
}


def _csv_text(cfg: SweepConfig) -> str:
    buf = io.StringIO()
    emit_csv(run_sweep(cfg), buf)
    return buf.getvalue()


def _thresholds(cfg: SweepConfig) -> dict[str, float]:
    """The hybrid threshold of every length of the sweep, from its rows; each
    length of the golden thresholds exceeds the CP, so each is calibrated."""
    records = run_sweep(cfg)
    return {str(n): _hybrid_threshold(cfg, n, records) for n in cfg.channel_lengths}


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * abs(b) + atol


def _mismatches(got_text: str, ref_text: str, bits_per_slot: int) -> list[str]:
    got = {(r["channel_len"], r["snr_db"], r["estimator"]): r for r in csv.DictReader(io.StringIO(got_text))}
    ref = {(r["channel_len"], r["snr_db"], r["estimator"]): r for r in csv.DictReader(io.StringIO(ref_text))}
    bad = [f"missing or extra cell {k}" for k in set(got) ^ set(ref)]
    for key in sorted(set(got) & set(ref)):
        g, r = got[key], ref[key]
        for col in ("n_trials", "seed", "branch_fraction_ls"):
            if g[col] != r[col]:
                bad.append(f"{key} {col}: {g[col]} != {r[col]}")
        for col in ("mse_all_subcarriers", "mse_pilot_subcarriers"):
            if not _close(float(g[col]), float(r[col]), MSE_RTOL, MSE_ATOL):
                bad.append(f"{key} {col}: {g[col]} != {r[col]}")
        bits = int(r["n_trials"]) * bits_per_slot
        errors, ref_errors = float(g["ber"]) * bits, round(float(r["ber"]) * bits)
        if abs(errors - round(errors)) > 1e-6 or round(errors) != ref_errors:
            bad.append(f"{key} bit errors: {errors} != {ref_errors}")
    return bad


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweep_matches_golden(name):
    cfg, bits_per_slot = GOLDEN[name]
    ref_text = (DATA / f"golden_{name}.csv").read_text()
    assert _mismatches(_csv_text(cfg), ref_text, bits_per_slot) == []


def test_calibrated_thresholds_match_golden():
    ref = json.loads((DATA / "golden_thresholds.json").read_text())
    got = _thresholds(GOLDEN["long"][0])
    assert set(got) == set(ref)
    assert any(math.isinf(v) for v in ref.values())
    for length, value in got.items():
        assert _close(value, ref[length], 0.0, THRESHOLD_TOL_DB), (length, value, ref[length])


def test_comparator_rejects_one_error_and_small_mse_shift():
    cfg, bits_per_slot = GOLDEN["short"]
    text = (DATA / "golden_short.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    lmmse = next(r for r in rows if r["estimator"] == "lmmse")
    lmmse["mse_all_subcarriers"] = repr(float(lmmse["mse_all_subcarriers"]) * (1 + 10 * MSE_RTOL))
    ls = next(r for r in rows if r["estimator"] == "ls")
    bits = int(ls["n_trials"]) * bits_per_slot
    ls["ber"] = repr((round(float(ls["ber"]) * bits) + 1) / bits)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    assert len(_mismatches(text, buf.getvalue(), bits_per_slot)) == 2


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, (cfg, _) in GOLDEN.items():
        (DATA / f"golden_{name}.csv").write_text(_csv_text(cfg))
    thresholds = _thresholds(GOLDEN["long"][0])
    (DATA / "golden_thresholds.json").write_text(json.dumps(thresholds, indent=1) + "\n")
