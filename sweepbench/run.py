"""Sweep benchmark runner.

    python3 sweepbench/run.py --workload sweep_5mhz --seed 0 --seconds 30 --trace 0

Run from the root of an ltelink checkout.  Every call is a fresh interpreter
(sweepbench/worker.py) with OPENBLAS/OMP/MKL_NUM_THREADS pinned to 1 before
numpy loads.  A run first times import-only interpreters for setup_s, then
repeats the workload call as long as another call fits in --seconds (at least
once; a traced run makes two traced calls and one plain), checks every output
against the committed reference for the input seed, and prints one JSON line
last: end-to-end metrics (medians over calls) with --trace 0, per-layer
metrics from traced calls with --trace 1.  See sweepbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from tracing import COMPUTED, PER_LAYER
from workloads import (
    OUT_DIR,
    ROOT,
    SRC,
    WORKLOADS,
    count_failures,
    load_manifest,
    perturb_reference,
    program_seed,
    reference_path,
)

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7  # import-only interpreters per run, besides the workload calls
RUN_DEADLINE_S = 165.0  # the whole run must end within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "slots_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class CallFailed(RuntimeError):
    pass


def spawn_worker(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Run worker.py once in a fresh interpreter and return its result record."""
    result_path = OUT_DIR / f"result-{os.getpid()}.json"
    env = dict(os.environ, **BLAS_ENV)
    # bytecode caching on, so setup_s is the import cost of a compiled
    # install whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["SWEEPBENCH_T0"] = repr(time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seed), mode, str(result_path)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise CallFailed(f"{mode} call of {workload} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise CallFailed(f"{mode} call of {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        return json.loads(result_path.read_text())
    finally:
        result_path.unlink(missing_ok=True)


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # a SIGTERM unwinds through subprocess.run, which kills and reaps the
    # running worker before the runner exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "ltelink" / "__init__.py").is_file():
        print(f"error: no ltelink source tree at {SRC}; run from an ltelink checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = program_seed(args.seed)
    reference = reference_path(workload, seed).read_text()
    bits_per_cell = load_manifest()["bits_per_slot"].get(workload.name, 0) * workload.n_frames
    perturbed, n_perturbed = perturb_reference(workload, reference, bits_per_cell)
    OUT_DIR.mkdir(exist_ok=True)

    def remaining() -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - started)

    # warm-up: byte-compiles a fresh checkout and fills the file cache
    spawn_worker(workload.name, seed, "setup", remaining())
    setup = [spawn_worker(workload.name, seed, "setup", remaining())["setup_s"] for _ in range(SETUP_PROBES)]

    calls: dict[str, list[dict]] = {"plain": [], "trace": []}
    attempted = failed = 0
    self_check_ok = True
    errors: list[str] = []
    # trace runs alternate traced and plain calls, at least two traced
    plan = ["trace", "plain", "trace"] if args.trace else ["plain"]
    measure_start = time.perf_counter()
    last_call_s = 0.0
    i = 0
    while True:
        # after the planned calls, start another only if it should end
        # within --seconds of measuring and well before the run deadline
        if i >= len(plan):
            elapsed = time.perf_counter() - measure_start
            if elapsed + last_call_s > args.seconds or remaining() < 1.5 * last_call_s + 5.0:
                break
        mode = plan[i % len(plan)]
        i += 1
        attempted += workload.cells
        t0 = time.perf_counter()
        try:
            res = spawn_worker(workload.name, seed, mode, remaining())
        except CallFailed as exc:
            failed += workload.cells
            errors.append(str(exc))
            print(exc, file=sys.stderr)
            break
        last_call_s = time.perf_counter() - t0
        output = res.pop("output")
        failed += count_failures(workload, output, reference, bits_per_cell)
        self_check_ok &= count_failures(workload, output, perturbed, bits_per_cell) == n_perturbed
        setup.append(res["setup_s"])
        calls[mode].append(res)

    plain = calls["plain"]
    traced = calls["trace"]
    if not plain or (args.trace and not traced):
        print("error: no successful call to measure", file=sys.stderr)
        return 1

    first = plain[0]
    env = dict(
        first["env"],
        nproc=os.cpu_count(),
        cpu_affinity=len(os.sched_getaffinity(0)),
        git_sha=_git_sha(),
        bench_seed=args.seed,
        seed=seed,
        n_frames=workload.n_frames,
        slots=workload.slots,
        ltelink_file=first["ltelink_file"],
    )
    wall = [c["wall_s"] for c in plain]
    info = {
        "workload": workload.name,
        "env": env,
        "samples": {"plain": len(plain), "trace": len(traced), "setup": len(setup)},
        "failed_frac": failed / attempted,
        "reference_self_check": self_check_ok,
        "wall_s_all": wall,
        "setup_s_all": setup,
        "errors": errors,
    }
    correct = failed == 0 and self_check_ok and not errors

    if args.trace:
        layer = {}
        for name in PER_LAYER:
            if name == "trace_overhead_frac":
                continue
            values = [c["layer"][name] for c in traced]
            if name in COMPUTED and len(set(values)) != 1:
                correct = False
                errors.append(f"computed count {name} differs across traced calls: {values}")
            layer[name] = values[0] if name in COMPUTED else statistics.median(values)
        layer["trace_overhead_frac"] = statistics.median([c["wall_s"] for c in traced]) / statistics.median(wall) - 1.0
        for c in traced:
            checks = c["checks"]
            if not (checks["self_sum_matches_wall"] and checks["demodulate_matches_modulate"]):
                correct = False
                errors.append(f"trace accounting failed: {checks}")
        info["trace_checks"] = traced[-1]["checks"]
        info["spans_file"] = traced[-1]["spans_file"]
        metrics = {k: {"value": layer[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        values = {
            "wall_s": statistics.median(wall),
            "slots_per_s": statistics.median([workload.slots / w for w in wall]),
            "cpu_s": statistics.median([c["cpu_s"] for c in plain]),
            "peak_rss_mb": statistics.median([c["peak_rss_mb"] for c in plain]),
            "setup_s": statistics.median(setup),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    info["metrics"] = metrics
    (OUT_DIR / f"{workload.name}-{seed}-trace{args.trace}.json").write_text(json.dumps(info, indent=1))
    print(json.dumps({k: v for k, v in info.items() if k != "metrics"}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
