"""Outside-in tracing of the ltelink layers.

Tracer.install wraps the public functions of the simulator's modules, in the
module that defines each one and in every module that imported it by name,
plus the two methods the trial chain calls on objects.  Every call records a
span [name, start, end, parent index, payload]; spans stay in memory and are
written out when the run ends.  Nothing under src/ is modified: the wrappers
live only in the benchmark process.

layer_metrics turns the spans into the per-layer metrics of BENCHMARK.json.
Counts marked "computed" come from argument shapes, never from timing, so two
runs of the same code must give identical values.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import time

import numpy as np

LAYERS = ("grid", "ofdm", "channel", "kernels", "linkproc", "estimation", "harness", "cli")
PATCHED_METHODS = (("grid", "GridLayout", "fill"), ("channel", "ChannelRealization", "frequency_responses"))

# A family is the set of spans one metric covers; nested members (a dispatcher
# calling its numpy path, map_bits calling qpsk_map) are counted once, at the
# outermost member.
FAMILIES = {
    "kernels.zf_detect": {"kernels.zf_detect_grid", "kernels.zf_detect_grid_numpy", "kernels.zf_detect_grid_numba"},
    "kernels.mimo_convolve": {"kernels.mimo_convolve", "kernels.mimo_convolve_numpy", "kernels.mimo_convolve_numba"},
    "channel.generate": {"channel.generate_channel"},
    "channel.awgn": {"channel.add_awgn"},
    "channel.freq_response": {"channel.ChannelRealization.frequency_responses", "channel.channel_frequency_response"},
    "ofdm.modulate": {"ofdm.modulate_frame", "ofdm.ofdm_modulate"},
    "ofdm.demodulate": {"ofdm.demodulate_frame", "ofdm.ofdm_demodulate"},
    "grid.fill": {"grid.GridLayout.fill", "grid.map_to_grid"},
    "linkproc.map": {"linkproc.map_bits", "linkproc.qpsk_map", "linkproc.qam16_map"},
    "linkproc.demap": {"linkproc.demap_symbols", "linkproc.qpsk_demap", "linkproc.qam16_demap"},
    "estimation.corr_build": {"estimation.build_correlation_model"},
    "estimation.lmmse_solve": {"estimation.lmmse_filter"},
    "estimation.ls_interp": {"estimation.interpolate_ls"},
    "estimation.calibrate": {"estimation.calibrate_threshold"},
    "harness.run_sweep": {"harness.run_sweep"},
    "harness.emit_csv": {"harness.emit_csv"},
}

# Per-layer metrics: name -> (unit, better).  Order is the output order.
PER_LAYER = {
    "kernels.zf_detect_s": ("s", "lower"),
    "kernels.zf_detect_res": ("count", "lower"),
    "kernels.zf_erased_frac": ("fraction", "lower"),
    "kernels.mimo_convolve_s": ("s", "lower"),
    "kernels.mimo_convolve_calls": ("count", "lower"),
    "kernels.mimo_convolve_flops": ("flop", "lower"),
    "channel.generate_s": ("s", "lower"),
    "channel.apply_self_s": ("s", "lower"),
    "channel.awgn_s": ("s", "lower"),
    "channel.freq_response_s": ("s", "lower"),
    "ofdm.modulate_s": ("s", "lower"),
    "ofdm.modulate_calls": ("count", "lower"),
    "ofdm.demodulate_s": ("s", "lower"),
    "ofdm.demodulate_calls": ("count", "lower"),
    "grid.fill_s": ("s", "lower"),
    "linkproc.map_s": ("s", "lower"),
    "linkproc.demap_s": ("s", "lower"),
    "estimation.corr_build_s": ("s", "lower"),
    "estimation.corr_build_calls": ("count", "lower"),
    "estimation.corr_build_unique_frac": ("fraction", "higher"),
    "estimation.corr_bytes": ("B", "lower"),
    "estimation.lmmse_solve_s": ("s", "lower"),
    "estimation.lmmse_solve_calls": ("count", "lower"),
    "estimation.ls_interp_s": ("s", "lower"),
    "estimation.ls_interp_calls": ("count", "lower"),
    "estimation.calibrate_s": ("s", "lower"),
    "harness.paired_mse_self_s": ("s", "lower"),
    "harness.chain_ratio": ("ratio", "lower"),
    "harness.run_sweep_s": ("s", "lower"),
    "harness.emit_csv_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace_overhead_frac": ("fraction", "lower"),
}

# Counts derived from argument shapes; they must repeat exactly across runs.
COMPUTED = (
    "kernels.zf_detect_res",
    "kernels.mimo_convolve_calls",
    "kernels.mimo_convolve_flops",
    "ofdm.modulate_calls",
    "ofdm.demodulate_calls",
    "estimation.corr_build_calls",
    "estimation.corr_build_unique_frac",
    "estimation.corr_bytes",
    "estimation.lmmse_solve_calls",
    "estimation.ls_interp_calls",
    "harness.chain_ratio",
)

ROOT_SPAN = "workload"


def _convolve_payload(args: dict, result) -> dict:
    n_tx, n = np.shape(args["tx"])
    _, n_rx, taps = np.shape(args["impulse"])
    # one complex multiply-add (8 real flops) per output sample, tap and pair
    return {"flops": 8 * n_tx * n_rx * n * taps}


def _zf_payload(args: dict, result) -> dict:
    return {"res": int(np.shape(args["y"])[0]), "erased": int(np.count_nonzero(result[1]))}


def _corr_payload(args: dict, result) -> dict:
    pdp, config = args["pdp"], args["config"]
    positions = np.asarray(args["pilot_positions"], dtype=np.int64)
    n_p, taps = positions.size, len(pdp.tap_delays)
    key = hashlib.sha1()
    for a in (pdp.tap_delays, pdp.tap_powers, positions):
        key.update(np.ascontiguousarray(a).tobytes())
    # complex128 phase tensors: used x pilot x taps and pilot x pilot x taps
    return {"bytes": 16 * taps * (config.n_used * n_p + n_p * n_p), "key": key.hexdigest()}


PAYLOADS = {
    "kernels.mimo_convolve": _convolve_payload,
    "kernels.mimo_convolve_numpy": _convolve_payload,
    "kernels.mimo_convolve_numba": _convolve_payload,
    "kernels.zf_detect_grid": _zf_payload,
    "kernels.zf_detect_grid_numpy": _zf_payload,
    "kernels.zf_detect_grid_numba": _zf_payload,
    "estimation.build_correlation_model": _corr_payload,
}


class Tracer:
    """In-memory span recorder; install() patches the ltelink package."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, payload=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if payload else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1], None])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if payload:
                spans[idx][4] = payload(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap every public function of LAYERS wherever it is bound by name."""
        import importlib

        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.span(name, fn, PAYLOADS.get(name))
                for ns in namespaces:
                    for bound, obj in list(vars(ns).items()):
                        if obj is fn:
                            self._set(ns, bound, wrapped)
        for layer, cls_name, method in PATCHED_METHODS:
            cls = getattr(modules[layer], cls_name)
            self._set(cls, method, self.span(f"{layer}.{cls_name}.{method}", vars(cls)[method]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _self_times(spans: list[list]) -> list[float]:
    self_t = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_t[s[3]] -= s[2] - s[1]
    return self_t


def _outermost(spans: list[list], members: set[str]) -> list[int]:
    """Indices of spans in members with no ancestor in members."""
    inside = [False] * len(spans)
    out = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        covered = parent >= 0 and (inside[parent] or spans[parent][0] in members)
        inside[i] = covered
        if name in members and not covered:
            out.append(i)
    return out


def layer_metrics(spans: list[list], slots: int) -> tuple[dict, dict]:
    """Per-layer metrics (except trace_overhead_frac) and accounting checks."""
    self_t = _self_times(spans)
    dur = [s[2] - s[1] for s in spans]
    fam = {key: _outermost(spans, members) for key, members in FAMILIES.items()}

    def total(key: str) -> float:
        return sum(dur[i] for i in fam[key])

    def self_of(prefix: str) -> float:
        return sum(t for s, t in zip(spans, self_t) if s[0].startswith(prefix))

    def payload_sum(key: str, field: str) -> int:
        return sum(spans[i][4][field] for i in fam[key] if spans[i][4])

    zf_res = payload_sum("kernels.zf_detect", "res")
    corr_calls = len(fam["estimation.corr_build"])
    corr_keys = {spans[i][4]["key"] for i in fam["estimation.corr_build"]}
    m = {
        "kernels.zf_detect_s": total("kernels.zf_detect"),
        "kernels.zf_detect_res": zf_res,
        "kernels.zf_erased_frac": payload_sum("kernels.zf_detect", "erased") / zf_res if zf_res else 0.0,
        "kernels.mimo_convolve_s": total("kernels.mimo_convolve"),
        "kernels.mimo_convolve_calls": len(fam["kernels.mimo_convolve"]),
        "kernels.mimo_convolve_flops": payload_sum("kernels.mimo_convolve", "flops"),
        "channel.generate_s": total("channel.generate"),
        "channel.apply_self_s": self_of("channel.apply_channel"),
        "channel.awgn_s": total("channel.awgn"),
        "channel.freq_response_s": total("channel.freq_response"),
        "ofdm.modulate_s": total("ofdm.modulate"),
        "ofdm.modulate_calls": len(fam["ofdm.modulate"]),
        "ofdm.demodulate_s": total("ofdm.demodulate"),
        "ofdm.demodulate_calls": len(fam["ofdm.demodulate"]),
        "grid.fill_s": total("grid.fill"),
        "linkproc.map_s": total("linkproc.map"),
        "linkproc.demap_s": total("linkproc.demap"),
        "estimation.corr_build_s": total("estimation.corr_build"),
        "estimation.corr_build_calls": corr_calls,
        "estimation.corr_build_unique_frac": len(corr_keys) / corr_calls if corr_calls else 0.0,
        "estimation.corr_bytes": payload_sum("estimation.corr_build", "bytes"),
        "estimation.lmmse_solve_s": total("estimation.lmmse_solve"),
        "estimation.lmmse_solve_calls": len(fam["estimation.lmmse_solve"]),
        "estimation.ls_interp_s": total("estimation.ls_interp"),
        "estimation.ls_interp_calls": len(fam["estimation.ls_interp"]),
        "estimation.calibrate_s": total("estimation.calibrate"),
        "harness.paired_mse_self_s": self_of("harness.paired_mse_curves"),
        "harness.chain_ratio": len(fam["ofdm.modulate"]) / slots,
        "harness.run_sweep_s": total("harness.run_sweep"),
        "harness.emit_csv_s": total("harness.emit_csv"),
        "harness.self_s": self_of("harness."),
        "cli.self_s": self_of("cli."),
    }
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    wall = sum(dur[i] for i in roots)
    layer_self = {layer: self_of(layer + ".") for layer in LAYERS}
    layer_self[ROOT_SPAN] = self_of(ROOT_SPAN)
    checks = {
        "roots": [spans[i][0] for i in roots],
        "traced_wall_s": wall,
        "layer_self_s": layer_self,
        "self_sum_matches_wall": abs(sum(layer_self.values()) - wall) <= 1e-9 * max(wall, 1.0),
        "demodulate_matches_modulate": m["ofdm.demodulate_calls"] == m["ofdm.modulate_calls"],
    }
    return m, checks
