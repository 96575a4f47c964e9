"""Regenerate the committed reference outputs.

    python3 sweepbench/make_reference.py [WORKLOAD ...]

Runs each workload once per reference seed through the same worker the
benchmark uses and writes reference/<workload>-<seed>.{csv,json}, plus
reference/manifest.json with the payload bits per slot that turn a BER back
into an exact bit-error count.  The committed files were produced by the
simulator as it stood when the benchmark was added; regenerate them only when
a change is meant to alter the sweep's numbers, and say so.
"""

from __future__ import annotations

import json
import sys

from run import spawn_worker
from workloads import OUT_DIR, REFERENCE_DIR, REFERENCE_SEEDS, SRC, WORKLOADS, reference_path


def bits_per_slot(workload) -> int:
    sys.path.insert(0, str(SRC))
    from ltelink.grid import GridLayout, SystemConfig, build_pilot_pattern

    config = SystemConfig.from_profile(workload.bandwidth_mhz, cp_len=workload.cp_len)
    n_data = GridLayout.build(config, build_pilot_pattern(config)).n_data_per_port
    return n_data * config.constellation.bits_per_symbol * config.n_tx


def main(names: list[str]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    manifest_path = REFERENCE_DIR / "manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {"bits_per_slot": {}}
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        if workload.kind == "sweep":
            manifest["bits_per_slot"][name] = bits_per_slot(workload)
        for seed in REFERENCE_SEEDS:
            result = spawn_worker(name, seed, "plain", 600.0)
            reference_path(workload, seed).write_text(result["output"])
            print(f"{name} seed {seed}: {result['wall_s']:.2f} s", file=sys.stderr)
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
