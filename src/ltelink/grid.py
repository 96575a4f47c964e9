"""LTE-style time-frequency resource lattice.

Builds the per-slot grid of (subcarrier, OFDM symbol, antenna port) cells,
places cell-specific reference signals on the two pilot-bearing symbols of a
short-CP slot, and fills a slot with data and pilot symbols.  All objects are
immutable after construction and safe to share across concurrent trials.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import ClassVar, Sequence

import numpy as np

__all__ = [
    "Constellation",
    "SystemConfig",
    "CellLabel",
    "PilotPattern",
    "GridLayout",
    "LTE_PROFILES",
    "PILOT_SYMBOLS",
    "PILOT_SPACING",
    "used_subcarrier_bins",
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

_QPSK_CORNERS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


class Constellation(Enum):
    QPSK = "qpsk"
    QAM16 = "qam16"

    @property
    def bits_per_symbol(self) -> int:
        return 2 if self is Constellation.QPSK else 4


class CellLabel(IntEnum):
    DATA = 0
    PILOT = 1
    NULL = 2


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
        if self.bandwidth_mhz not in LTE_PROFILES:
            raise ValueError(
                f"unknown bandwidth {self.bandwidth_mhz} MHz; "
                f"choose from {sorted(LTE_PROFILES)}"
            )
        if self.n_used is None:
            object.__setattr__(self, "n_used", LTE_PROFILES[self.bandwidth_mhz][1] - 1)
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


@functools.lru_cache(maxsize=16)
def used_subcarrier_bins(config: SystemConfig) -> np.ndarray:
    """FFT bin index of each used subcarrier, in ascending physical frequency.

    Index d in [0, n_used) maps to the d-th occupied bin counting up from the
    lowest negative frequency, skipping the nulled DC bin.  Every slot's
    (de)modulation reads it, so each config computes it once, read-only.
    """
    n_low = config.n_used // 2
    n_high = config.n_used - n_low
    bins = np.concatenate(
        [
            np.arange(config.n_fft - n_low, config.n_fft),
            np.arange(1, n_high + 1),
        ]
    )
    bins.setflags(write=False)
    return bins


@dataclass(frozen=True)
class PilotPattern:
    """Reference-signal placement for all antenna ports of one slot.

    entries holds (subcarrier, symbol, port) rows sorted by (port, symbol,
    subcarrier); that entry order fixes the pilot-sequence assignment.  Every
    port pilots the same subcarriers (its two symbols' combs interleave), and
    that shared comb, in ascending subcarrier order, fixes the estimators'
    observation order: see comb().
    """

    entries: np.ndarray
    pilot_spacing: int
    n_used: int
    n_symbols: int
    n_ports: int

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.int64)
        if entries.ndim != 2 or entries.shape[1] != 3:
            raise ValueError("entries must be an (n, 3) array of (subcarrier, symbol, port)")
        object.__setattr__(self, "entries", entries)
        sc, sym, port = entries.T
        if entries.size and (
            sc.min() < 0
            or sc.max() >= self.n_used
            or sym.min() < 0
            or sym.max() >= self.n_symbols
            or port.min() < 0
            or port.max() >= self.n_ports
        ):
            raise ValueError("pilot entry outside the grid bounds")
        order = np.lexsort((sc, sym, port))
        if not np.array_equal(order, np.arange(len(entries))):
            raise ValueError("entries must be sorted by (port, symbol, subcarrier)")
        # No two ports may share a resource element.
        res = entries[:, 0] * self.n_symbols + entries[:, 1]
        if len(np.unique(res)) != len(res):
            raise ValueError("two antenna ports share a pilot resource element")
        # Within one (symbol, port), subcarriers form an arithmetic progression.
        for p in range(self.n_ports):
            for s in np.unique(sym[port == p]):
                ks = sc[(port == p) & (sym == s)]
                if len(ks) > 1 and not np.all(np.diff(ks) == self.pilot_spacing):
                    raise ValueError(
                        f"pilot subcarriers of port {p}, symbol {s} are not an "
                        f"arithmetic progression with step {self.pilot_spacing}"
                    )
        entries.setflags(write=False)

    @property
    def n_entries(self) -> int:
        return len(self.entries)

    def entry_indices(self, port: int) -> np.ndarray:
        """Row indices of this port's entries (also its pilot-sequence slots)."""
        idx = np.nonzero(self.entries[:, 2] == port)[0]
        if idx.size == 0:
            raise ValueError(f"port {port} has no pilots in this pattern")
        return idx

    def comb(self) -> tuple[np.ndarray, np.ndarray]:
        """The pilot subcarriers every port shares, and each port's entries on them.

        Returns (subcarriers, entry_index): the ascending pilot subcarriers
        and an (n_ports, n_pilots) array whose row p holds the indices of
        port p's entries in subcarrier order.  Raises ValueError when the
        ports pilot different subcarriers.
        """
        sc = self.entries[:, 0]
        rows = []
        for p in range(self.n_ports):
            idx = self.entry_indices(p)
            rows.append(idx[np.argsort(sc[idx], kind="stable")])
        if any(not np.array_equal(sc[row], sc[rows[0]]) for row in rows):
            raise ValueError("the antenna ports pilot different subcarriers")
        entry_index = np.stack(rows)
        return sc[entry_index[0]], entry_index


def build_pilot_pattern(config: SystemConfig) -> PilotPattern:
    """Place reference signals on symbols 0 and 4 of a short-CP slot.

    Within a pilot symbol every 6th subcarrier carries a pilot; the
    fifth-symbol comb is offset by 3 subcarriers from the first-symbol comb,
    and port 1's combs are offset by 3 subcarriers from port 0's, so the two
    ports never share a resource element.
    """
    rows = []
    for port in range(config.n_tx):
        for sym in PILOT_SYMBOLS:
            shift = _SECOND_SYMBOL_SHIFT if sym == PILOT_SYMBOLS[1] else 0
            offset = (_PORT_SHIFT * port + shift) % PILOT_SPACING
            for k in range(offset, config.n_used, PILOT_SPACING):
                rows.append((k, sym, port))
    rows.sort(key=lambda r: (r[2], r[1], r[0]))
    return PilotPattern(
        entries=np.array(rows, dtype=np.int64),
        pilot_spacing=PILOT_SPACING,
        n_used=config.n_used,
        n_symbols=config.n_symbols_per_slot,
        n_ports=config.n_tx,
    )


@dataclass(frozen=True)
class GridLayout:
    """Precomputed cell bookkeeping shared by every slot built from one pattern.

    data_subcarriers/data_symbols enumerate the Data resource elements in the
    deterministic fill order (symbols ascending, subcarriers ascending within a
    symbol); the same order applies to every port because a pilot element is
    nulled on all non-owning ports.
    """

    labels: np.ndarray  # (n_ports, n_used, n_symbols) int8
    data_subcarriers: np.ndarray
    data_symbols: np.ndarray
    n_data_per_port: int

    @classmethod
    def build(cls, config: SystemConfig, pattern: PilotPattern) -> "GridLayout":
        n_ports = config.n_tx
        shape = (n_ports, config.n_used, config.n_symbols_per_slot)
        labels = np.zeros(shape, dtype=np.int8)
        sc, sym, port = pattern.entries.T
        for p in range(n_ports):
            mine = port == p
            labels[p, sc[mine], sym[mine]] = CellLabel.PILOT
            labels[p, sc[~mine], sym[~mine]] = CellLabel.NULL
        data_mask = labels[0] == CellLabel.DATA  # identical across ports
        sym_idx, sc_idx = np.nonzero(data_mask.T)
        labels.setflags(write=False)
        return cls(
            labels=labels,
            data_subcarriers=sc_idx,
            data_symbols=sym_idx,
            n_data_per_port=int(sc_idx.size),
        )

    def fill(
        self,
        data_symbols: np.ndarray | Sequence[np.ndarray],
        pilot_seq: np.ndarray,
        pattern: PilotPattern,
    ) -> np.ndarray:
        """The (..., n_ports, n_used, n_symbols) values of slots whose data_symbols
        are (..., n_ports, n_data_per_port); leading axes stack slots."""
        data = np.asarray(data_symbols)
        got = data.shape[-1]
        if got != self.n_data_per_port:
            short = self.n_data_per_port - got
            kind = "missing" if short > 0 else "extra"
            raise ValueError(
                f"expected {self.n_data_per_port} data symbols, got {got} ({abs(short)} {kind})"
            )
        if len(pilot_seq) < pattern.n_entries:
            raise ValueError(
                f"pilot sequence too short: need {pattern.n_entries}, "
                f"got {len(pilot_seq)} ({pattern.n_entries - len(pilot_seq)} missing)"
            )
        values = np.zeros((*data.shape[:-2], *self.labels.shape), dtype=np.complex128)
        values[..., self.data_subcarriers, self.data_symbols] = data
        sc, sym, port = pattern.entries.T
        values[..., port, sc, sym] = np.asarray(pilot_seq)[: pattern.n_entries]
        return values


def random_pilot_sequence(n: int, rng: np.random.Generator) -> np.ndarray:
    """Pseudo-random unit-modulus QPSK pilot sequence (trivially invertible)."""
    return _QPSK_CORNERS[rng.integers(0, 4, size=n)]
