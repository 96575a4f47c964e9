"""One benchmark call in a fresh interpreter.

    python3 sweepbench/worker.py WORKLOAD SEED MODE RESULT_JSON

MODE is "setup" (import only), "plain" (untraced call) or "trace".  The
runner sets the BLAS thread variables before this interpreter starts and
passes the spawn time in SWEEPBENCH_T0 (time.perf_counter, a system-wide
monotonic clock on Linux), so setup_s covers interpreter start-up and the
numpy and ltelink imports that every `ltelink simulate` pays.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import ltelink  # noqa: E402

T_IMPORTED = time.perf_counter()

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import OUT_DIR, SNR_GRID_DB, WORKLOADS  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def _environment() -> dict:
    from ltelink import kernels

    numba_enabled = getattr(kernels, "numba_enabled", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numba_enabled": numba_enabled() if numba_enabled else "absent",
    }


def _call(workload, seed: int, tag: str) -> str:
    """Run the workload through its public entry point; return its output as
    the text its reference file holds (CSV, or JSON thresholds by length)."""
    if workload.kind == "sweep":
        from ltelink import cli

        out_csv = OUT_DIR / f"{tag}.csv"
        argv = workload.cli_argv(seed, out_csv, OUT_DIR / f"{tag}.cfg")
        status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"ltelink simulate exited with {status}")
        text = out_csv.read_text()
        for path in (out_csv, OUT_DIR / f"{tag}.cfg"):
            path.unlink(missing_ok=True)
        return text
    from ltelink import estimation
    from ltelink.channel import PowerDelayProfile
    from ltelink.grid import SystemConfig

    system = SystemConfig.from_profile(workload.bandwidth_mhz, cp_len=workload.cp_len)
    snrs = np.array(SNR_GRID_DB)
    thresholds = {
        str(length): estimation.calibrate_threshold(
            system,
            PowerDelayProfile.uniform(length),
            snrs,
            workload.n_frames,
            np.random.default_rng([seed, length]),
        )
        for length in workload.channel_lengths
    }
    return json.dumps(thresholds, indent=1) + "\n"


def main() -> None:
    name, seed, mode, result_path = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    result = {
        "setup_s": T_IMPORTED - float(os.environ["SWEEPBENCH_T0"]),
        "ltelink_file": ltelink.__file__,
        "env": _environment(),
    }
    if mode != "setup":
        workload = WORKLOADS[name]
        tag = f"{name}-{seed}-{os.getpid()}"
        tracer = tracing.Tracer()
        if mode == "trace":
            tracer.install(ltelink)
        root = tracer.span(tracing.ROOT_SPAN, _call)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        output = root(workload, seed, tag)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        tracer.uninstall()
        result.update(
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            output=output,
        )
        if mode == "trace":
            metrics, checks = tracing.layer_metrics(tracer.spans, workload.slots)
            spans_path = OUT_DIR / f"{name}-{seed}.spans.json"
            spans_path.write_text(json.dumps({"names": ["name", "start", "end", "parent", "payload"], "spans": tracer.spans}))
            result.update(layer=metrics, checks=checks, spans_file=str(spans_path))
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
