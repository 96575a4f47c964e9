"""Command-line entry point: `ltelink simulate`.

Reads an optional flat key=value config file, applies flag overrides, runs the
Monte Carlo sweep and writes the CSV.  Flags always win over file values.

Before the sweep, main has glibc keep the heap that one chunk of trials frees
for the next (_keep_freed_heap).
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import fields
from enum import Enum
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .grid import SystemConfig
from .harness import (
    Estimator,
    SweepConfig,
    emit_csv,
    format_summary,
    run_sweep,
)
from .linkproc import Constellation

__all__ = ["main", "build_parser", "parse_config_file", "sweep_config_from_sources"]


def _parse_list(text: str, parse: Callable[[str], Any]) -> tuple[Any, ...]:
    return tuple(parse(v) for v in text.split(",") if v.strip())


def _parse_enum(cls: type[Enum], text: str) -> Enum:
    """The member of cls whose value is text, in any case; an unknown name lists the values."""
    try:
        return cls(text.strip().lower())
    except ValueError:
        choices = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown {cls.__name__.lower()} {text!r}; choose from {choices}") from None


def _parse_snr_grid(text: str) -> tuple[float, ...]:
    """A comma-separated list, sorted, or a:b:step: a, a + step, ... up to b,
    which is included when it lies on the grid: 0:30:5 ends at 30, 0:13:5 at 10."""
    if ":" not in text:
        return tuple(sorted(_parse_list(text, float)))
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected a:b:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not (np.isfinite((start, stop, step)).all() and step > 0):
        raise ValueError(f"a:b:step needs finite a and b and a finite step > 0, got {text!r}")
    try:
        grid = np.arange(start, stop + step / 2.0, step)
    except (ValueError, MemoryError):  # more points than numpy can allocate
        raise ValueError(f"the range {text!r} has too many points to build") from None
    # the half step keeps a b rounding puts past the last point, the filter drops one past b
    return tuple(float(v) for v in grid if v <= stop + 1e-9 * step)


def _flag(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """parse as an argparse type: argparse prints the message of an
    ArgumentTypeError, but only the function's name for a ValueError."""

    def parse_flag(text: str) -> Any:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse_flag


# Config-file key -> parser of its value, in the file and on its flag alike.
# Each key names a SystemConfig field, which configures the link, or a
# SweepConfig field, and the dest of its flag.
_CONFIG_KEYS: dict[str, Callable[[str], Any]] = {
    "bandwidth_mhz": float,
    "n_used": int,
    "cp_len": int,
    "n_tx": int,
    "n_rx": int,
    "constellation": lambda text: _parse_enum(Constellation, text),
    "channel_lengths": lambda text: _parse_list(text, int),
    "snr_grid_db": _parse_snr_grid,
    "n_frames": int,
    "seed": int,
    "estimators": lambda text: _parse_list(text, lambda name: _parse_enum(Estimator, name)),
    "threshold_db": float,
}
_SYSTEM_FIELDS = frozenset(f.name for f in fields(SystemConfig))


def parse_config_file(path: str | Path) -> dict[str, Any]:
    """{key: parsed value} of `key = value` lines; '#' starts a comment, blank lines ignored.
    A key may appear once."""
    text = Path(path).read_text()
    values: dict[str, Any] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if (first := first_line.setdefault(key, lineno)) != lineno:
            raise ValueError(f"{path}:{lineno}: {key} is already set on line {first}")
        try:  # parsed here, where the file and line of a bad value are known
            values[key] = _CONFIG_KEYS[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def sweep_config_from_sources(
    file_values: dict[str, Any], args: argparse.Namespace
) -> SweepConfig:
    """Merge parsed config-file values and CLI flags (flags win) into a SweepConfig."""
    values = dict(file_values)
    values.update((k, v) for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None)
    if args.calibrate_threshold:
        values.pop("threshold_db", None)
    system = SystemConfig(**{k: v for k, v in values.items() if k in _SYSTEM_FIELDS})
    sweep = {k: v for k, v in values.items() if k not in _SYSTEM_FIELDS}
    return SweepConfig(system=system, **sweep)


# (glibc mallopt parameter from malloc.h, value): keep a freed heap top of up
# to 8 MiB (M_TRIM_THRESHOLD) and give only blocks of 4 MiB or more a mapping
# of their own (M_MMAP_THRESHOLD).  Setting either one turns off glibc's
# dynamic thresholds, so both are set.
_MALLOPT_SETTINGS = ((-1, 8 << 20), (-3, 4 << 20))


def _keep_freed_heap() -> None:
    """Stop glibc from trimming the heap and mapping mid-sized arrays.

    Each chunk of trials frees arrays that the next chunk allocates again; by
    default glibc returns that memory to the kernel in between, and every
    chunk faults its pages back in.  A no-op where the C library has no
    mallopt (not glibc).  Only the memory policy of this process changes, no
    computed value.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOPT_SETTINGS:
        mallopt(param, value)


_SIGNED_OPTIONS = ("--snr", "--threshold-db")  # their values may start with '-'


class _Parser(argparse.ArgumentParser):
    """Reads `--snr -5:30:5`, `--snr -5,0` and `--threshold-db -inf`,
    abbreviated or not, as their '=' forms: argparse takes a token that starts
    with '-' and is not a plain negative number for an option, so the token
    after either option is joined to it, unless it starts with '--' and so is
    an option itself."""

    def parse_known_args(self, args=None, namespace=None):
        joined: list[str] = []
        for arg in sys.argv[1:] if args is None else args:
            option = joined[-1] if joined else ""
            signed = len(option) > 2 and any(o.startswith(option) for o in _SIGNED_OPTIONS)
            if signed and not arg.startswith("--"):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


# (flag, config key, metavar, help) of each flag that sets a config key
_VALUE_FLAGS = (
    ("--snr", "snr_grid_db", "GRID", "SNRs in dB: a list or A:B:STEP (default 0:30:5)"),
    ("--channel-lengths", "channel_lengths", "CSV", "channel tap counts, e.g. 6,10,20,40"),
    ("--frames", "n_frames", "FRAMES", "trials per grid cell"),
    ("--seed", "seed", "SEED", "master seed, a non-negative integer"),
    ("--estimators", "estimators", "CSV", "subset of ls,lmmse,hybrid,perfect"),
    ("--threshold-db", "threshold_db", "DB", "fixed hybrid switching SNR (skips calibration)"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ltelink",
        description="Link-level downlink simulator: MSE/BER versus SNR sweeps "
        "with LS, LMMSE and hybrid channel estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sim = sub.add_parser("simulate", help="run a Monte Carlo sweep and write CSV")
    sim.add_argument("--config", type=Path, default=None, help="flat key=value config file")
    group = sim.add_mutually_exclusive_group()
    for flag, key, metavar, help_text in _VALUE_FLAGS:
        (group if key == "threshold_db" else sim).add_argument(
            flag, dest=key, type=_flag(_CONFIG_KEYS[key]), metavar=metavar, help=help_text
        )
    group.add_argument(
        "--calibrate-threshold",
        action="store_true",
        help="force threshold calibration, ignoring any configured value",
    )
    sim.add_argument(
        "--out", type=Path, default=Path("results.csv"), help="output CSV path"
    )
    sim.add_argument(
        "--summary", action="store_true", help="print per-cell means to stdout"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        config = sweep_config_from_sources(file_values, args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    if args.out.is_dir() or not args.out.parent.is_dir():  # fail before the sweep
        parser.error(f"--out {args.out} is not a file path in an existing directory")
    _keep_freed_heap()
    records = run_sweep(config)
    try:
        emit_csv(records, args.out)
    except OSError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    if args.summary:
        print(format_summary(records))
    print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
