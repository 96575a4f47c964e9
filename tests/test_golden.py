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

which rewrites only the files whose values moved beyond these tolerances, so
a file that only reordered sums keeps its bytes, and prints each file it
skipped.
"""

import csv
import io
import json
import math
import shutil
from pathlib import Path
from typing import Callable

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


def _threshold_mismatches(got: dict[str, float], ref: dict[str, float]) -> list[str]:
    bad = [f"missing or extra length {k}" for k in set(got) ^ set(ref)]
    for length in sorted(set(got) & set(ref)):
        if not _close(got[length], ref[length], 0.0, THRESHOLD_TOL_DB):
            bad.append(f"L={length} threshold: {got[length]} != {ref[length]}")
    return bad


def test_calibrated_thresholds_match_golden():
    ref = json.loads((DATA / "golden_thresholds.json").read_text())
    assert any(math.isinf(v) for v in ref.values())
    assert _threshold_mismatches(_thresholds(GOLDEN["long"][0]), ref) == []


def _add_bit_error(row: dict[str, str], bits_per_slot: int) -> None:
    bits = int(row["n_trials"]) * bits_per_slot
    row["ber"] = repr((round(float(row["ber"]) * bits) + 1) / bits)


def _rows_text(rows: list[dict[str, str]]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def test_comparator_rejects_one_error_and_small_mse_shift():
    cfg, bits_per_slot = GOLDEN["short"]
    text = (DATA / "golden_short.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    lmmse = next(r for r in rows if r["estimator"] == "lmmse")
    lmmse["mse_all_subcarriers"] = repr(float(lmmse["mse_all_subcarriers"]) * (1 + 10 * MSE_RTOL))
    _add_bit_error(next(r for r in rows if r["estimator"] == "ls"), bits_per_slot)
    assert len(_mismatches(text, _rows_text(rows), bits_per_slot)) == 2


def _write_if_moved(path: Path, text: str, mismatches: Callable[[str], list[str]]) -> bool:
    """Write text to path unless path holds values within the tolerances."""
    if path.exists() and not mismatches(path.read_text()):
        print(f"skipped {path}: within tolerance")
        return False
    path.write_text(text)
    print(f"wrote {path}")
    return True


def regenerate(data: Path) -> list[Path]:
    """Rewrite each golden file under data that is missing or whose values
    moved beyond the tolerances of the tests above; returns the files written."""
    data.mkdir(exist_ok=True)
    written = []
    for name, (cfg, bits_per_slot) in GOLDEN.items():
        path, text = data / f"golden_{name}.csv", _csv_text(cfg)
        if _write_if_moved(path, text, lambda ref: _mismatches(text, ref, bits_per_slot)):
            written.append(path)
    thresholds = _thresholds(GOLDEN["long"][0])
    path, text = data / "golden_thresholds.json", json.dumps(thresholds, indent=1) + "\n"
    if _write_if_moved(path, text, lambda ref: _threshold_mismatches(thresholds, json.loads(ref))):
        written.append(path)
    return written


def _copy_of_data(tmp_path: Path) -> dict[str, bytes]:
    for path in DATA.iterdir():
        shutil.copy(path, tmp_path)
    return {p.name: p.read_bytes() for p in tmp_path.iterdir()}


def test_generator_writes_nothing_within_tolerance(tmp_path, capsys):
    before = _copy_of_data(tmp_path)
    assert regenerate(tmp_path) == []
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert capsys.readouterr().out.count("skipped") == len(before) == 4


def test_generator_writes_only_the_moved_file(tmp_path):
    # one bit error more in one row moves golden_short.csv alone, and the
    # file written in its place matches the committed one
    before = _copy_of_data(tmp_path)
    _, bits_per_slot = GOLDEN["short"]
    short = tmp_path / "golden_short.csv"
    rows = list(csv.DictReader(io.StringIO(short.read_text())))
    _add_bit_error(rows[0], bits_per_slot)
    short.write_text(_rows_text(rows))
    assert regenerate(tmp_path) == [short]
    for path in tmp_path.iterdir():
        if path != short:
            assert path.read_bytes() == before[path.name], path
    assert _mismatches(short.read_text(), before[short.name].decode(), bits_per_slot) == []


if __name__ == "__main__":
    regenerate(DATA)
