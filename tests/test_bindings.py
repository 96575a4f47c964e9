"""The names the benchmark under sweepbench/ binds in the package.

sweepbench/tracing.py wraps every public function of a layer whose __module__
is that layer, plus the methods in its PATCHED_METHODS, and its per-layer
metrics read spans by those names.  sweepbench/worker.py and
sweepbench/make_reference.py call a few more names directly, and
tests/test_golden.py checks its goldens through sweepbench/workloads.py.  A
name that moves to another module, turns private or changes its parameters
leaves a metric at zero, breaks a run or stops the golden tests; these tests
catch that without running the benchmark.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import ltelink
from ltelink.grid import GridLayout, SystemConfig, build_pilot_pattern

SWEEPBENCH = Path(__file__).resolve().parent.parent / "sweepbench"

# (layer, function, parameters the tracer's payloads read by name)
TRACED_FUNCTIONS = [
    ("estimation", "calibrate_threshold", ()),
    ("estimation", "build_correlation_model", ("pdp", "pilot_positions", "config")),
    ("estimation", "lmmse_filter", ()),
    ("estimation", "interpolate_ls", ()),
    ("kernels", "zf_detect_grid", ("y",)),
    ("linkproc", "map_bits", ()),
    ("linkproc", "demap_symbols", ()),
    ("ofdm", "modulate_frame", ()),
    ("ofdm", "demodulate_frame", ()),
]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"sweepbench_{name}", SWEEPBENCH / f"{name}.py")
    # registered first: the dataclasses of workloads.py look their module up
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.mark.parametrize(
    "layer, name, params", TRACED_FUNCTIONS, ids=[f"{layer}.{name}" for layer, name, _ in TRACED_FUNCTIONS]
)
def test_traced_function_is_public_and_defined_in_its_layer(tracing, layer, name, params):
    assert layer in tracing.LAYERS
    assert f"{layer}.{name}" in set().union(*tracing.FAMILIES.values())  # a metric reads its spans
    module = importlib.import_module(f"ltelink.{layer}")
    fn = vars(module).get(name)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
    assert set(params) <= set(inspect.signature(fn).parameters)


def test_patched_methods_are_defined_on_their_classes(tracing):
    fill, responses = ("grid", "GridLayout", "fill"), ("channel", "ChannelRealization", "frequency_responses")
    assert {fill, responses} <= set(tracing.PATCHED_METHODS)
    for layer, cls_name, method in tracing.PATCHED_METHODS:
        module = importlib.import_module(f"ltelink.{layer}")
        cls = vars(module)[cls_name]
        assert cls.__module__ == module.__name__
        assert inspect.isfunction(vars(cls).get(method)), f"{cls_name}.{method}"


def test_the_tracer_wraps_every_bound_name(tracing):
    tracer = tracing.Tracer()
    tracer.install(ltelink)
    try:
        for layer, name, _ in TRACED_FUNCTIONS:
            fn = getattr(importlib.import_module(f"ltelink.{layer}"), name)
            assert hasattr(fn, "__wrapped__"), f"{layer}.{name}"
        for layer, cls_name, method in tracing.PATCHED_METHODS:
            cls = getattr(importlib.import_module(f"ltelink.{layer}"), cls_name)
            assert hasattr(vars(cls)[method], "__wrapped__"), f"{cls_name}.{method}"
    finally:
        tracer.uninstall()
    for layer, name, _ in TRACED_FUNCTIONS:
        assert not hasattr(getattr(importlib.import_module(f"ltelink.{layer}"), name), "__wrapped__")


def test_worker_calls_resolve():
    # worker.py: SystemConfig.from_profile(bandwidth, cp_len=...) and
    # estimation.calibrate_threshold(system, pdp, snrs, n_frames, rng), positionally
    from ltelink import estimation

    assert SystemConfig.from_profile(10.0, cp_len=72) == SystemConfig(bandwidth_mhz=10.0, cp_len=72)
    params = inspect.signature(estimation.calibrate_threshold).parameters.values()
    assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 5


def test_reference_bits_per_slot_resolve():
    # make_reference.bits_per_slot: GridLayout.build(config, pattern).n_data_per_port
    config = SystemConfig()
    n_data = GridLayout.build(config, build_pilot_pattern(config)).n_data_per_port
    assert isinstance(n_data, int) and n_data == 1900


def test_golden_comparator_resolves():
    # test_golden.py builds a Workload by keyword, selecting the comparator by
    # its kind, and calls count_failures and perturb_reference positionally;
    # the tolerances are the ones README.md states
    workloads = _load("workloads")
    fields = [f.name for f in dataclasses.fields(workloads.Workload)]
    assert fields == ["name", "kind", "bandwidth_mhz", "cp_len", "channel_lengths", "n_frames"]
    params = inspect.signature(workloads.count_failures).parameters
    assert list(params) == ["workload", "output_text", "reference_text", "bits_per_cell"]
    params = inspect.signature(workloads.perturb_reference).parameters
    assert list(params) == ["workload", "reference_text", "bits_per_cell"]
    tolerances = (workloads.MSE_RTOL, workloads.MSE_ATOL, workloads.THRESHOLD_TOL_DB)
    assert tolerances == (1e-6, 1e-12, 1e-6)
