"""LTE-style time-frequency resource lattice.

Builds the per-slot grid of (antenna port, OFDM symbol, subcarrier) cells,
places cell-specific reference signals on the two pilot-bearing symbols of a
short-CP slot, and fills a slot with data and pilot symbols.  Every stage,
from the fill to zero-forcing, keeps that layout, subcarriers innermost, in
memory too: its arrays are C-contiguous.  The used subcarriers sit in two
contiguous runs of FFT bins (used_bin_runs), which the modem reads and writes
as two slices.  All objects are immutable after construction and safe to
share across concurrent trials.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .linkproc import Constellation

__all__ = [
    "Constellation",
    "SystemConfig",
    "PilotPattern",
    "GridLayout",
    "LTE_PROFILES",
    "PILOT_SYMBOLS",
    "PILOT_SPACING",
    "used_subcarrier_bins",
    "used_bin_runs",
    "build_pilot_pattern",
    "random_pilot_sequence",
]

# bandwidth (MHz) -> (FFT size, occupied subcarriers incl. DC)
LTE_PROFILES: dict[float, tuple[int, int]] = {
    1.25: (128, 76),
    2.5: (256, 151),
    5.0: (512, 301),
    10.0: (1024, 601),
    15.0: (1536, 901),
    20.0: (2048, 1201),
}

# Reference signals live in the first and fifth symbol of a short-CP slot.
PILOT_SYMBOLS: tuple[int, int] = (0, 4)
PILOT_SPACING: int = 6
_SECOND_SYMBOL_SHIFT = 3  # frequency shift of the fifth-symbol comb
_PORT_SHIFT = 3  # frequency shift between antenna ports

def as_int(name: str, value: object) -> int:
    """value as an int, numpy integers included, a bool not; else a ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be integral, got {value!r}")
    return int(value)


def as_real(name: str, value: object) -> float:
    """value as a float, numpy reals included, a bool or a string not; else a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SystemConfig:
    """Static link parameters of one downlink configuration.

    The bandwidth names one of the standard transmission profiles, which fixes
    the FFT size; n_used defaults to the profile's occupied subcarriers minus
    the nulled DC bin, and the used subcarriers sit centered around DC with
    equal guard bands.  The slot is the 7-symbol short-CP (normal CP) slot,
    with reference signals in symbols 0 and 4.
    """

    n_symbols_per_slot: ClassVar[int] = 7

    bandwidth_mhz: float = 5.0
    n_used: int | None = None
    cp_len: int = 16
    n_tx: int = 2
    n_rx: int = 2
    constellation: Constellation = Constellation.QPSK

    def __post_init__(self) -> None:
        object.__setattr__(self, "bandwidth_mhz", as_real("bandwidth_mhz", self.bandwidth_mhz))
        if self.bandwidth_mhz not in LTE_PROFILES:
            raise ValueError(
                f"unknown bandwidth {self.bandwidth_mhz} MHz; "
                f"choose from {sorted(LTE_PROFILES)}"
            )
        if self.n_used is None:
            object.__setattr__(self, "n_used", LTE_PROFILES[self.bandwidth_mhz][1] - 1)
        for name in ("n_used", "cp_len", "n_tx", "n_rx"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        if not 4 <= self.n_used < self.n_fft:
            raise ValueError(
                f"n_used must be in [4, n_fft) so every antenna port has two pilot "
                f"subcarriers; got {self.n_used}"
            )
        if not 0 <= self.cp_len < self.n_fft:
            raise ValueError(f"cp_len must be in [0, n_fft); got {self.cp_len}")
        if self.n_tx not in (1, 2) or self.n_rx not in (1, 2):
            raise ValueError("n_tx and n_rx must be 1 or 2")
        if self.n_tx > self.n_rx:
            raise ValueError(
                f"n_tx={self.n_tx} exceeds n_rx={self.n_rx}; zero-forcing needs "
                "at least as many receive as transmit antennas"
            )
        if not isinstance(self.constellation, Constellation):
            raise ValueError(f"unsupported constellation: {self.constellation!r}")

    @classmethod
    def from_profile(cls, bandwidth_mhz: float, **overrides) -> "SystemConfig":
        """Build a config from a named bandwidth profile; same as the constructor."""
        return cls(bandwidth_mhz=bandwidth_mhz, **overrides)

    @property
    def n_fft(self) -> int:
        return LTE_PROFILES[self.bandwidth_mhz][0]

    @property
    def symbol_len(self) -> int:
        return self.n_fft + self.cp_len

    def cp_covers(self, span: int) -> bool:
        """Whether the cyclic prefix absorbs a channel of span taps: its last
        tap delay, span - 1, is at most cp_len, so there is no ISI."""
        return span <= self.cp_len + 1


def used_bin_runs(config: SystemConfig) -> tuple[slice, slice]:
    """The used FFT bins as two contiguous runs, in used-subcarrier order: the
    n_used // 2 negative frequencies [n_fft - n_used // 2, n_fft), which are
    used subcarriers [0, n_used // 2), then the positive ones from bin 1 up,
    past the nulled DC bin.  Slicing by them reads and writes the used bins
    as views, subcarriers innermost."""
    n_low = config.n_used // 2
    return slice(config.n_fft - n_low, config.n_fft), slice(1, config.n_used - n_low + 1)


@functools.lru_cache(maxsize=16)
def used_subcarrier_bins(config: SystemConfig) -> np.ndarray:
    """FFT bin index of each used subcarrier, in ascending physical frequency.

    Index d in [0, n_used) maps to the d-th occupied bin counting up from the
    lowest negative frequency, skipping the nulled DC bin: the bins of
    used_bin_runs, concatenated.  Each config computes it once, read-only.
    """
    bins = np.concatenate([np.arange(run.start, run.stop) for run in used_bin_runs(config)])
    bins.setflags(write=False)
    return bins


@dataclass(frozen=True, eq=False)
class PilotPattern:
    """Reference-signal placement for all antenna ports of one slot.

    entries holds (subcarrier, symbol, port) rows sorted by (port, symbol,
    subcarrier); that entry order fixes the pilot-sequence assignment.  Every
    port pilots the same subcarriers, comb, in ascending order (its two
    symbols' combs interleave), and that order fixes the estimators'
    observation order: row p of entry_index holds the indices of port p's
    entries on the comb.
    """

    entries: np.ndarray  # (n_entries, 3)
    comb: np.ndarray  # (n_pilots,)
    entry_index: np.ndarray  # (n_ports, n_pilots)

    def __post_init__(self) -> None:
        for a in (self.entries, self.comb, self.entry_index):
            a.setflags(write=False)

    @property
    def n_entries(self) -> int:
        return len(self.entries)


@functools.lru_cache(maxsize=16)
def build_pilot_pattern(config: SystemConfig) -> PilotPattern:
    """Place reference signals on symbols 0 and 4 of a short-CP slot.

    Within a pilot symbol every 6th subcarrier carries a pilot; the
    fifth-symbol comb is offset by 3 subcarriers from the first-symbol comb,
    and port 1's combs are offset by 3 subcarriers from port 0's, so the two
    ports never share a resource element and each pilots every third
    subcarrier.  Each config builds it once; it is read-only.
    """
    rows = []
    for port in range(config.n_tx):
        for sym in PILOT_SYMBOLS:
            shift = _SECOND_SYMBOL_SHIFT if sym == PILOT_SYMBOLS[1] else 0
            offset = (_PORT_SHIFT * port + shift) % PILOT_SPACING
            rows.extend((k, sym, port) for k in range(offset, config.n_used, PILOT_SPACING))
    entries = np.array(rows, dtype=np.int64)  # already in (port, symbol, subcarrier) order
    # each port's entries by subcarrier; every port has one per comb subcarrier
    entry_index = np.lexsort((entries[:, 0], entries[:, 2])).reshape(config.n_tx, -1)
    return PilotPattern(entries, entries[entry_index[0], 0], entry_index)


@dataclass(frozen=True, eq=False)
class GridLayout:
    """The resource-element map of every slot built from one pattern.

    The payload resource elements are those no pilot entry occupies: a pilot
    element is nulled on all non-owning ports, so every port has the same
    ones.  payload_index enumerates them as positions in a port's raveled
    (n_symbols, n_used) slot, ascending, which is the fill order (symbols
    ascending, subcarriers ascending within a symbol) and the order of their
    bits.  pilot_symbols holds the symbol of each port's pilot on each comb
    subcarrier, in the comb order of pattern.entry_index: fill writes the
    pilots by that map, and the receiver reads them by it.
    """

    pattern: PilotPattern
    shape: tuple[int, int, int]  # (n_ports, n_symbols, n_used) of one slot
    payload_index: np.ndarray  # (n_data_per_port,)
    pilot_symbols: np.ndarray  # (n_ports, n_pilots)

    def __post_init__(self) -> None:
        for a in (self.payload_index, self.pilot_symbols):
            a.setflags(write=False)

    @property
    def n_data_per_port(self) -> int:
        return len(self.payload_index)

    @classmethod
    def build(cls, config: SystemConfig, pattern: PilotPattern) -> "GridLayout":
        """The layout of config's slots; pattern must be build_pilot_pattern(config).

        Its entries are compared by value, not by identity: the memo of
        build_pilot_pattern is bounded, so a pattern kept past it is rebuilt as
        another object with the same entries."""
        if not np.array_equal(pattern.entries, build_pilot_pattern(config).entries):
            raise ValueError("pattern is not build_pilot_pattern(config): built for another config")
        occupied = np.zeros((config.n_symbols_per_slot, config.n_used), dtype=bool)
        occupied[pattern.entries[:, 1], pattern.entries[:, 0]] = True
        return cls(
            pattern=pattern,
            shape=(config.n_tx, config.n_symbols_per_slot, config.n_used),
            payload_index=np.flatnonzero(~occupied),
            pilot_symbols=pattern.entries[pattern.entry_index, 1],
        )

    def fill(
        self, data_symbols: np.ndarray | Sequence[np.ndarray], pilot_values: np.ndarray
    ) -> np.ndarray:
        """The (..., n_ports, n_symbols, n_used) values of slots whose data_symbols
        are (..., n_ports, n_data_per_port), leading axes stacking slots, and
        whose pilots are pilot_values, (n_ports, n_pilots) in comb order: port
        p's value on comb subcarrier j goes to symbol pilot_symbols[p, j], the
        resource element the receiver reads it from."""
        data, pilots = np.asarray(data_symbols), np.asarray(pilot_values)
        got = data.shape[-1] if data.ndim else 0
        if got != self.n_data_per_port:
            short = self.n_data_per_port - got
            kind = "missing" if short > 0 else "extra"
            raise ValueError(
                f"expected {self.n_data_per_port} data symbols, got {got} ({abs(short)} {kind})"
            )
        if data.shape[-2:-1] != self.shape[:1]:
            raise ValueError(f"data symbols must be (..., {self.shape[0]}, {got}), got {data.shape}")
        if pilots.shape != (want := self.pilot_symbols.shape):
            raise ValueError(f"pilot values must be (n_ports, n_pilots) = {want}, got {pilots.shape}")
        values = np.zeros((*data.shape[:-2], *self.shape), dtype=np.complex128)
        values.reshape(*values.shape[:-2], -1)[..., self.payload_index] = data
        ports = np.arange(self.shape[0])[:, None]
        values[..., ports, self.pilot_symbols, self.pattern.comb] = pilots
        return values


def random_pilot_sequence(n: int, rng: np.random.Generator) -> np.ndarray:
    """Pseudo-random unit-modulus QPSK pilot sequence (trivially invertible),
    in the points of the QPSK payload alphabet."""
    return Constellation.QPSK.points[rng.integers(0, 4, size=n)]
