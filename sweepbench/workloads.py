"""Workload definitions and the reference check shared by the runner, the
worker and the reference generator.

Every workload uses QPSK, 2x2 antennas and the SNR grid 0:30:5.  The
workloads and their run lengths are fixed here; only the input seed varies.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"

SNR_GRID_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

# `--seed n` selects BENCH_SEEDS[n % len(BENCH_SEEDS)] unless n is itself a
# committed reference seed.  BENCH_SEEDS[0] is the default; HELD_OUT_SEED is
# reachable only by passing it explicitly, so a later claim can be rechecked
# on inputs it was not tuned on.  None of them is the test suite's 42.
BENCH_SEEDS = (2024, 3137, 4271, 5113, 6091, 7043)
HELD_OUT_SEED = 90001
REFERENCE_SEEDS = BENCH_SEEDS + (HELD_OUT_SEED,)

# Tolerances of the reference check.  Refactors planned for the sweep reorder
# floating-point sums (batched trials, eigendecomposed LMMSE filters), which
# moves results in the last digits but must not change a single random draw
# or decision.
#  - Bit errors are integers and are compared exactly: a reordered sum moves a
#    detected symbol across a decision boundary only if it lies within ~1e-12
#    of it, which none of the committed cells does.
#  - MSE: relative 1e-6.  Double-precision reordering changes an MSE by
#    ~1e-9 relative at most (eps 2.2e-16 times the ~1e5 condition number of
#    the regularized pilot autocorrelation at 30 dB), while any change to the
#    random draws or to the estimator algebra moves it by the Monte Carlo
#    error of these trial counts, 1e-3 relative or more.  MSE_ATOL covers the
#    perfect-CSI rows, whose MSE is exactly 0.
#  - Calibrated thresholds: 1e-6 dB.  The crossover interpolates the log-MSE
#    gap linearly inside one 5 dB grid step; a 1e-9 relative MSE change moves
#    it by ~1e-8 dB, Monte Carlo noise by ~0.1 dB.  The +/-inf sentinels must
#    match exactly.
MSE_RTOL = 1e-6
MSE_ATOL = 1e-12
THRESHOLD_TOL_DB = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" runs ltelink.cli.main, "calibrate" calibrate_threshold
    bandwidth_mhz: float
    cp_len: int
    channel_lengths: tuple[int, ...]
    n_frames: int  # frames per sweep cell, or calibration trials per SNR

    @property
    def slots(self) -> int:
        """Slots the workload defines: lengths x SNRs x frames (or trials)."""
        return len(self.channel_lengths) * len(SNR_GRID_DB) * self.n_frames

    @property
    def cells(self) -> int:
        """Outputs checked per call: CSV rows of a sweep, or thresholds."""
        if self.kind == "sweep":
            return len(self.channel_lengths) * len(SNR_GRID_DB) * 4
        return len(self.channel_lengths)

    def cli_argv(self, seed: int, out_csv: Path, config_file: Path) -> list[str]:
        argv = [
            "simulate",
            "--snr", "0:30:5",
            "--channel-lengths", ",".join(map(str, self.channel_lengths)),
            "--estimators", "ls,lmmse,hybrid,perfect",
            "--frames", str(self.n_frames),
            "--seed", str(seed),
            "--calibrate-threshold",
            "--out", str(out_csv),
        ]
        if (self.bandwidth_mhz, self.cp_len) != (5.0, 16):
            config_file.write_text(
                f"bandwidth_mhz = {self.bandwidth_mhz:g}\ncp_len = {self.cp_len}\n"
            )
            argv[1:1] = ["--config", str(config_file)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_5mhz", "sweep", 5.0, 16, (6, 10, 20, 40), 100),
        Workload("wide_10mhz", "sweep", 10.0, 72, (20, 100), 1),
        Workload("calibrate_5mhz", "calibrate", 5.0, 16, (20, 40), 100),
    )
}


def program_seed(bench_seed: int) -> int:
    """Map the benchmark's --seed onto a seed with a committed reference."""
    if bench_seed in REFERENCE_SEEDS:
        return bench_seed
    return BENCH_SEEDS[bench_seed % len(BENCH_SEEDS)]


def reference_path(workload: Workload, seed: int) -> Path:
    suffix = "csv" if workload.kind == "sweep" else "json"
    return REFERENCE_DIR / f"{workload.name}-{seed}.{suffix}"


def _parse(workload: Workload, text: str):
    if workload.kind == "sweep":
        rows = list(csv.DictReader(io.StringIO(text)))
        return {(r["channel_len"], r["snr_db"], r["estimator"]): r for r in rows}
    return {k: float(v) for k, v in json.loads(text).items()}


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * abs(b) + atol


def _row_matches(row: dict, ref: dict, bits_per_cell: int) -> bool:
    if int(row["n_trials"]) != int(ref["n_trials"]) or int(row["seed"]) != int(ref["seed"]):
        return False
    # branch_fraction_ls is empty for every estimator but hybrid
    a, b = row["branch_fraction_ls"], ref["branch_fraction_ls"]
    if a != b and not (a and b and float(a) == float(b)):
        return False
    for key in ("mse_all_subcarriers", "mse_pilot_subcarriers"):
        if not _close(float(row[key]), float(ref[key]), MSE_RTOL, MSE_ATOL):
            return False
    errors = float(row["ber"]) * bits_per_cell
    ref_errors = round(float(ref["ber"]) * bits_per_cell)
    return abs(errors - round(errors)) < 1e-6 and round(errors) == ref_errors


def count_failures(workload: Workload, output_text: str, reference_text: str, bits_per_cell: int) -> int:
    """Cells of output_text outside the reference tolerance (missing cells fail)."""
    got = _parse(workload, output_text)
    ref = _parse(workload, reference_text)
    failed = len(set(got) ^ set(ref))
    for key in set(got) & set(ref):
        if workload.kind == "sweep":
            failed += not _row_matches(got[key], ref[key], bits_per_cell)
        else:
            failed += not _close(got[key], ref[key], 0.0, THRESHOLD_TOL_DB)
    return failed


def perturb_reference(workload: Workload, reference_text: str, bits_per_cell: int) -> tuple[str, int]:
    """A copy of the reference with cells moved just outside the tolerance.

    Returns (perturbed text, number of perturbed cells); checking the true
    output against it must report exactly that many failures.
    """
    if workload.kind == "calibrate":
        ref = json.loads(reference_text)
        key = next(k for k, v in ref.items() if math.isfinite(v))
        ref[key] += 10 * THRESHOLD_TOL_DB
        return json.dumps(ref), 1
    rows = list(csv.DictReader(io.StringIO(reference_text)))
    lmmse = next(r for r in rows if r["estimator"] == "lmmse")
    lmmse["mse_all_subcarriers"] = repr(float(lmmse["mse_all_subcarriers"]) * (1 + 10 * MSE_RTOL))
    ls = next(r for r in rows if r["estimator"] == "ls")
    ls["ber"] = repr((round(float(ls["ber"]) * bits_per_cell) + 1) / bits_per_cell)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue(), 2


def load_manifest() -> dict:
    return json.loads((REFERENCE_DIR / "manifest.json").read_text())
