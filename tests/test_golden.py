"""Pinned golden outputs of three small sweeps and of the hybrid thresholds of
one of them.

Refactors may reorder floating-point sums but must not change a random draw
or a decision.  "The same numbers" has one definition, the benchmark's
reference check in sweepbench/workloads.py: each golden is checked as a
workload of that file by its count_failures, with exact bit-error counts and
MSE and thresholds within the tolerances it states and justifies.

Regenerate the files under tests/data/ with

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the files that count_failures finds moved, so a file that
only reordered sums keeps its bytes, and prints each file it skipped.
"""

import importlib.util
import io
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

from ltelink.grid import Constellation, GridLayout, SystemConfig, build_pilot_pattern
from ltelink.harness import SweepConfig, _hybrid_threshold, emit_csv, run_sweep

DATA = Path(__file__).resolve().parent / "data"

_spec = importlib.util.spec_from_file_location(
    "sweepbench_workloads", Path(__file__).resolve().parent.parent / "sweepbench" / "workloads.py"
)
# registered first: the dataclasses of workloads.py look their module up
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# name -> sweep config of golden_<name>.csv
GOLDEN = {
    "short": SweepConfig(channel_lengths=(6, 10), snr_grid_db=(0.0, 10.0, 20.0, 30.0), n_frames=5, seed=11),
    # LS and LMMSE cross at L=20; at L=40 LS wins at every SNR, the -inf sentinel
    "long": SweepConfig(channel_lengths=(20, 40), snr_grid_db=(5.0, 15.0, 25.0), n_frames=5, seed=11),
    "qam16": SweepConfig(
        system=SystemConfig(constellation=Constellation.QAM16),
        channel_lengths=(10, 40),
        snr_grid_db=(0.0, 10.0, 20.0, 30.0),
        n_frames=4,
        seed=12,
        threshold_db=15.0,
    ),
}
# golden_thresholds.json holds the hybrid threshold of each length of this
# sweep, taken from the sweep's own LS and LMMSE rows
THRESHOLDS = "long"

# (file under tests/data, golden sweep, workload kind)
FILES = [(f"golden_{name}.csv", name, "sweep") for name in GOLDEN]
FILES.append(("golden_thresholds.json", THRESHOLDS, "calibrate"))


def _workload(name: str, kind: str):
    """Golden `name` as a benchmark workload, and its payload bits per cell."""
    cfg = GOLDEN[name]
    system = cfg.system
    workload = workloads.Workload(
        name=name,
        kind=kind,
        bandwidth_mhz=system.bandwidth_mhz,
        cp_len=system.cp_len,
        channel_lengths=cfg.channel_lengths,
        n_frames=cfg.n_frames,
    )
    n_data = GridLayout.build(system, build_pilot_pattern(system)).n_data_per_port
    return workload, cfg.n_frames * n_data * system.constellation.bits_per_symbol * system.n_tx


def _output(name: str, kind: str) -> str:
    """The text the golden file of `name` and `kind` holds when regenerated."""
    cfg = GOLDEN[name]
    records = run_sweep(cfg)
    if kind == "calibrate":
        thresholds = {str(n): _hybrid_threshold(cfg, n, records) for n in cfg.channel_lengths}
        return json.dumps(thresholds, indent=1) + "\n"
    buf = io.StringIO()
    emit_csv(records, buf)
    return buf.getvalue()


def _failures(name: str, kind: str, output_text: str, reference_text: str) -> int:
    workload, bits_per_cell = _workload(name, kind)
    return workloads.count_failures(workload, output_text, reference_text, bits_per_cell)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweep_matches_golden(name):
    ref_text = (DATA / f"golden_{name}.csv").read_text()
    assert _failures(name, "sweep", _output(name, "sweep"), ref_text) == 0


def test_calibrated_thresholds_match_golden():
    ref_text = (DATA / "golden_thresholds.json").read_text()
    assert any(math.isinf(v) for v in json.loads(ref_text).values())
    assert _failures(THRESHOLDS, "calibrate", _output(THRESHOLDS, "calibrate"), ref_text) == 0


def test_comparator_rejects_one_error_and_small_mse_shift():
    workload, bits_per_cell = _workload("short", "sweep")
    text = (DATA / "golden_short.csv").read_text()
    perturbed, planted = workloads.perturb_reference(workload, text, bits_per_cell)
    assert planted == 2
    assert _failures("short", "sweep", text, perturbed) == 2


def regenerate(data: Path) -> list[Path]:
    """Rewrite each golden file under data that is missing or in which
    count_failures finds a moved cell; returns the files written."""
    data.mkdir(exist_ok=True)
    written = []
    for file, name, kind in FILES:
        path, text = data / file, _output(name, kind)
        if path.exists() and not _failures(name, kind, text, path.read_text()):
            print(f"skipped {path}: within tolerance")
            continue
        path.write_text(text)
        print(f"wrote {path}")
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
    # two cells planted just outside the tolerance move golden_short.csv
    # alone, and the file written in its place matches the committed one
    before = _copy_of_data(tmp_path)
    workload, bits_per_cell = _workload("short", "sweep")
    short = tmp_path / "golden_short.csv"
    short.write_text(workloads.perturb_reference(workload, short.read_text(), bits_per_cell)[0])
    assert regenerate(tmp_path) == [short]
    for path in tmp_path.iterdir():
        if path != short:
            assert path.read_bytes() == before[path.name], path
    assert _failures("short", "sweep", short.read_text(), before[short.name].decode()) == 0


if __name__ == "__main__":
    regenerate(DATA)
