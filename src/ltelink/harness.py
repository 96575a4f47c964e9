"""Monte Carlo sweep driver: TX -> channel -> RX -> estimate -> detect -> score.

One trial is one slot: draw a block-fading channel, fill the grid with random
payload bits and the run's pilots, and receive it through the channel
and the modem (_receive).  Every (tx, rx) response is then estimated from the
pilots on the comb all ports share, each subcarrier's symbols are zero-forced
with the estimate, and MSE is scored against the exact frequency response and
BER against the payload.  A cell that detects reads all 7 symbols; a cell of
paired_mse_curves, which scores MSE alone, reads pilot symbols 0 and 4 with
the same draws.  One routine owns a cell, its noise, LMMSE filter and one row
per estimator, for the sweep and paired_mse_curves alike.

The hybrid estimator computes nothing of its own: its row is the row of the
branch it chooses at its length's switching SNR (_hybrid_threshold), so every
cell of a sweep that requests it computes LS and LMMSE.  Unless the CP covers
the channel or the configuration fixes that SNR, it is where the length's own
LS and LMMSE rows first cross, taken once every cell of the length has run:
the sweep runs no second Monte Carlo.  Choosing the branch from the rows it
reports is in-sample, optimistic by at most the LS-LMMSE gap at the cells
next to the crossing.  estimation.calibrate_threshold gives the out-of-sample
threshold; it and paired_mse_curves serve only the benchmark's calibrate_5mhz
workload and ac5 until that workload is restated as a sweep.

A cell runs _CHUNK trials at a time, stacked on a leading axis, so each chunk
makes one call per stage and one per estimate.  The chunk size only regroups
the trials: it moves no draw and no decision.

Reproducibility contract: every random draw of a sweep, its trials' and its
pilots', comes from a stream derived from (seed, purpose tag, cell indices,
trial index), and distinct non-negative seeds, however large, draw distinct
streams.  A sweep has no calibration stream.  Results are independent of scheduling and
identical across runs at a fixed BLAS thread count, e.g.
OPENBLAS_NUM_THREADS=1 (the SVD and the matrix products can round differently
with another count).  All estimators of a cell share the same trial streams
(common random numbers), which makes estimator comparisons paired.
paired_mse_curves draws from its caller's generator instead: one child per
trial, SNR by SNR in ascending order, and only for the SNRs it is asked for;
its pilots are always seed 0's.

MSE aggregation across trials is energy weighted: |error|^2 and |h|^2 sums are
accumulated separately and divided once, so the pilot-column MSE of the LS
estimator converges to 1/SNR exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from . import estimation, kernels, linkproc, ofdm
from .channel import (
    ChannelRealization,
    PowerDelayProfile,
    add_awgn,
    generate_channel,
    noise_variance,
    overrun,
)
from .estimation import (
    LsTaps,
    interpolate_ls,
    ls_estimate,
    ls_interpolation_taps,
)
from .grid import (
    PILOT_SYMBOLS,
    GridLayout,
    SystemConfig,
    as_int,
    as_real,
    build_pilot_pattern,
    random_pilot_sequence,
    used_subcarrier_bins,
)

__all__ = [
    "Estimator",
    "SweepConfig",
    "SweepRecord",
    "run_sweep",
    "paired_mse_curves",
    "emit_csv",
    "format_summary",
    "CSV_HEADER",
]

# Stream purpose tags: keep trial and pilot-sequence draws disjoint.
_TAG_TRIAL = 0
_TAG_PILOTS = 1

# Trials per chunk of a cell.  Larger chunks pay less numpy call overhead but
# hold more arrays at once.  With one receive buffer per chunk and the modem
# transforming in place, a 5 MHz chunk peaks near 0.32 MB a trial.  Against the
# chunks of 3 before that, chunks of 4 took 7.7% less sweep_5mhz and 10% less
# calibrate_5mhz wall time for +0.5% peak RSS, and chunks of 5 added 2.1% to
# the sweep's peak RSS (3 alternating runs of sweepbench/run.py --seconds 5,
# 2 vCPU, BLAS at 1 thread): 4 is the largest within +1.5% of that peak RSS.
_CHUNK = 4

# The symbols a detecting cell reads; a calibration cell reads PILOT_SYMBOLS.
_SLOT_SYMBOLS = tuple(range(SystemConfig.n_symbols_per_slot))


class Estimator(Enum):
    LS = "ls"
    LMMSE = "lmmse"
    HYBRID = "hybrid"
    PERFECT = "perfect"


ESTIMATOR_ORDER: tuple[Estimator, ...] = tuple(Estimator)


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one Monte Carlo sweep."""

    system: SystemConfig = field(default_factory=SystemConfig)
    channel_lengths: tuple[int, ...] = (6, 10, 20, 40)
    snr_grid_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    n_frames: int = 100
    seed: int = 42
    estimators: tuple[Estimator, ...] = ESTIMATOR_ORDER
    threshold_db: float | None = None

    def __post_init__(self) -> None:
        # channel lengths are canonicalized (sorted, deduplicated) so cell
        # indices, and with them the rng streams, do not depend on input order
        lengths = tuple(sorted({as_int("channel_lengths", v) for v in self.channel_lengths}))
        snrs = tuple(as_real("snr_grid_db", v) for v in self.snr_grid_db)
        ests = tuple(self.estimators)
        object.__setattr__(self, "channel_lengths", lengths)
        object.__setattr__(self, "n_frames", as_int("n_frames", self.n_frames))
        object.__setattr__(self, "seed", as_int("seed", self.seed))
        object.__setattr__(self, "snr_grid_db", snrs)
        object.__setattr__(self, "estimators", ests)
        if not lengths or any(v < 1 for v in lengths):
            raise ValueError("channel_lengths must be a non-empty list of positive ints")
        n_fft = self.system.n_fft
        if lengths[-1] > n_fft:  # later taps would alias in the frequency response
            raise ValueError(f"channel length {lengths[-1]} exceeds the FFT size {n_fft}")
        if not snrs:
            raise ValueError("snr grid must be non-empty")
        if any(a >= b for a, b in zip(snrs, snrs[1:])):
            raise ValueError("snr grid must be strictly ascending (sorted, no repeats)")
        for v in snrs:  # an SNR is valid when it sets a noise level
            noise_variance(v)
        if self.n_frames < 1:
            raise ValueError("n_frames must be at least 1")
        if not ests or any(not isinstance(e, Estimator) for e in ests):
            raise ValueError("estimators must be a non-empty list of Estimator members")
        if len(set(ests)) != len(ests):
            raise ValueError("duplicate estimator requested")
        if self.system.cp_len < 1 and (Estimator.LMMSE in ests or Estimator.HYBRID in ests):
            # the receiver's LMMSE prior keeps the taps at delays below cp_len
            raise ValueError("the lmmse and hybrid estimators need cp_len >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.threshold_db is not None:
            threshold = as_real("threshold_db", self.threshold_db)
            if math.isnan(threshold):
                raise ValueError(f"threshold_db must be a real number, not NaN, got {threshold!r}")
            object.__setattr__(self, "threshold_db", threshold)
        if (
            Estimator.HYBRID in ests
            and self.threshold_db is None
            and not self.system.cp_covers(lengths[-1])
            and not any(math.isfinite(v) for v in snrs)
        ):
            raise ValueError(
                "no LS/LMMSE crossing to take a hybrid threshold from without finite "
                "SNRs: add a finite SNR or set a threshold"
            )


@dataclass(frozen=True)
class SweepRecord:
    """One (SNR, channel length, estimator) measurement row."""

    snr_db: float
    channel_len: int
    estimator: Estimator
    mse_all_subcarriers: float
    mse_pilot_subcarriers: float
    ber: float
    n_trials: int
    branch_fraction_ls: float | None
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.ber <= 1.0:
            raise ValueError(f"ber out of [0, 1]: {self.ber}")
        mse = (self.mse_all_subcarriers, self.mse_pilot_subcarriers)
        if not all(0.0 <= v < math.inf for v in mse):
            raise ValueError(f"mse must be finite and non-negative, got {mse}")
        if self.branch_fraction_ls is not None and not 0.0 <= self.branch_fraction_ls <= 1.0:
            raise ValueError(f"branch_fraction_ls out of [0, 1]: {self.branch_fraction_ls}")


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


@dataclass(frozen=True, eq=False)
class _LinkContext:
    """Everything about one configuration that is fixed across trials."""

    config: SystemConfig
    layout: GridLayout
    pilot_values: np.ndarray  # (n_tx, n_pilots) each port's pilots on the comb
    ls_taps: LsTaps  # LS interpolation from the comb to every used subcarrier


def _make_context(config: SystemConfig, seed: int) -> _LinkContext:
    pattern = build_pilot_pattern(config)
    # one draw per pilot entry, in entries order, kept in comb order
    pilot_seq = random_pilot_sequence(pattern.n_entries, _stream(seed, _TAG_PILOTS))
    return _LinkContext(
        config=config,
        layout=GridLayout.build(config, pattern),
        pilot_values=pilot_seq[pattern.entry_index],
        ls_taps=ls_interpolation_taps(pattern.comb, config.n_used),
    )


def _rows(rows: Sequence[int]) -> slice | list[int]:
    """Ascending indices as a slice when they are consecutive, so that a whole
    slot is read through views, not copies."""
    return slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] == len(rows) - 1 else list(rows)


def _receive(
    ctx: _LinkContext,
    pdp: PowerDelayProfile,
    noise_var: float,
    rngs: Sequence[np.random.Generator],
    symbols: tuple[int, ...] = _SLOT_SYMBOLS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transmit and receive a chunk of slots along a leading trial axis, in
    the OFDM symbols listed in symbols (ascending) only.

    Trial i draws its channel taps, then its payload bits, then the noise of
    its whole slot, of variance noise_var, from rngs[i], whatever symbols it
    reads.  Returns bits (c, n_tx, n_bits) as int8, rx_grid
    (c, n_rx, len(symbols), n_used) in the slot layout of the grid, the modem
    and zero-forcing, and h_true (c, n_tx, n_rx, n_used) in the layout of the
    taps and zero-forcing, both C-contiguous.  The received grid is H * X plus
    the demodulated sum of the noise and the channel's overrun past the cyclic
    prefix, which equals the demodulated linear convolution of the sent
    symbols.  The stages are ordered so that no large array outlives its last
    reader: H * X is formed from the filled grid before it is modulated and
    dropped, the frames are dropped once the overrun heads are formed, and the
    noise and the heads go into one receive buffer per chunk, whose read
    windows are demodulated in place."""
    cfg = ctx.config
    n, n_bits = len(rngs), ctx.layout.n_data_per_port * cfg.constellation.bits_per_symbol
    taps, bits = [], []
    for rng in rngs:
        taps.append(generate_channel(pdp, cfg.n_tx, cfg.n_rx, rng).taps)
        # drawn as int64, as a narrower dtype would change the stream, kept as int8
        bits.append(rng.integers(0, 2, size=(cfg.n_tx, n_bits)).astype(np.int8))
    ch = ChannelRealization(np.stack(taps), pdp)
    bits = np.stack(bits)
    values = ctx.layout.fill(  # (c, n_tx, n_symbols, n_used)
        linkproc.map_bits(bits, cfg.constellation).reshape(n, cfg.n_tx, -1),
        ctx.pilot_values,
    )
    # each read symbol is sent with the one before it, which its overrun reads
    sent, read = sorted({*symbols, *(s - 1 for s in symbols if s > 0)}), _rows(symbols)
    h_true = ch.frequency_responses(cfg.n_fft, used_subcarrier_bins(cfg))
    # H * X summed over tx, (c, n_rx, len(symbols), n_used), plus the demodulated impairment
    rx_grid = h_true[:, 0, :, None] * values[:, 0, read][:, None]
    for t in range(1, cfg.n_tx):
        rx_grid += h_true[:, t, :, None] * values[:, t, read][:, None]
    tx = ofdm.modulate_frame(values[:, :, _rows(sent)], cfg)  # (c, n_tx, len(sent), symbol_len)
    del values
    heads = overrun(tx, ch, cfg)[:, :, _rows([sent.index(s) for s in symbols])]
    del tx
    # the receive buffer: each trial's noise over its whole slot, then the heads
    rx = np.zeros((n, cfg.n_rx, cfg.n_symbols_per_slot, cfg.symbol_len), dtype=np.complex128)
    for i, rng in enumerate(rngs):
        add_awgn(rx[i], noise_var, rng)
    rx[:, :, read, cfg.cp_len : cfg.cp_len + heads.shape[-1]] += heads
    del heads
    impairment = ofdm.demodulate_frame(rx[:, :, read], cfg)
    del rx
    rx_grid += impairment
    return bits, rx_grid, h_true


def _energy(h: np.ndarray, pilot_subcarriers: np.ndarray) -> tuple[float, float]:
    """Sums of |h|^2 over all used subcarriers, then over the pilot subcarriers,
    of (..., n_used) responses; a cell's normalized MSE is the ratio of its
    estimate errors' sums to its true channels' sums."""
    h2 = np.abs(h) ** 2
    return float(h2.sum()), float(h2[..., pilot_subcarriers].sum())


def _bit_errors(ctx: _LinkContext, rx_grid: np.ndarray, h_hat: np.ndarray, bits: np.ndarray) -> int:
    """Payload bit errors of a chunk zero-forced with the estimate h_hat."""
    detected, _ = kernels.zf_detect_grid(rx_grid, h_hat)
    # (c, n_tx, n_data_per_port) payload symbols, in the order of their bits
    symbols = np.take(detected.reshape(*detected.shape[:2], -1), ctx.layout.payload_index, axis=-1)
    rx_bits = linkproc.demap_symbols(symbols, ctx.config.constellation)
    return int(np.count_nonzero(rx_bits != bits.reshape(-1)))


def _run_cell(
    ctx: _LinkContext,
    pdp: PowerDelayProfile,
    snr_db: float,
    streams: Iterable[np.random.Generator],
    methods: Sequence[Estimator],
    detect: bool,
) -> dict[Estimator, tuple[float, float, float]]:
    """Normalized MSE and BER of each estimate over the trials of one cell.

    streams yields one generator per trial; the trials run _CHUNK at a time.
    methods lists the estimates, each LS, LMMSE or PERFECT (the true channel).
    Returns {method: (mse_all, mse_pilot, ber)}: the MSE over all used
    subcarriers and over the pilot comb, and the BER, 0 without detection.
    Errors and energies are summed over the whole cell and divided once.
    """
    noise_var = noise_variance(snr_db)
    if Estimator.LMMSE in methods:
        f, g = estimation.lmmse_factors(ctx.config, pdp, noise_var)
    pilots = ctx.layout.pattern.comb
    err2 = np.zeros((len(methods), 2))  # the _energy of each estimate's error
    ref2 = np.zeros(2)  # and of the true channel
    errors = np.zeros(len(methods), dtype=np.int64)
    n_bits = 0
    # detection reads the whole slot, the MSE alone only the pilot symbols
    symbols = _SLOT_SYMBOLS if detect else PILOT_SYMBOLS
    pilot_rows = np.searchsorted(symbols, ctx.layout.pilot_symbols)  # in rx_grid's symbol axis
    streams = iter(streams)
    while rngs := list(itertools.islice(streams, _CHUNK)):
        bits, rx_grid, h_true = _receive(ctx, pdp, noise_var, rngs, symbols)
        # (c, n_rx, n_tx, n_pilots) -> (c, n_tx, n_rx, n_pilots)
        y_p = rx_grid[:, :, pilot_rows, pilots].swapaxes(1, 2)
        h_ls = ls_estimate(y_p, ctx.pilot_values[:, None]).reshape(-1, len(pilots))
        ref2 += _energy(h_true, pilots)
        n_bits += bits.size
        for k, method in enumerate(methods):
            if method is Estimator.LS:
                h_hat = interpolate_ls(h_ls, ctx.ls_taps).reshape(h_true.shape)
            elif method is Estimator.LMMSE:
                # 2-D products over trials and pairs: BLAS beats a stacked matmul here
                h_hat = ((h_ls @ g.T) @ f.T).reshape(h_true.shape)
            else:
                h_hat = h_true
            err2[k] += _energy(h_hat - h_true, pilots)
            if detect:
                errors[k] += _bit_errors(ctx, rx_grid, h_hat, bits)
    mse, ber = err2 / ref2, errors / n_bits
    return {m: (float(mse[k, 0]), float(mse[k, 1]), float(ber[k])) for k, m in enumerate(methods)}


def paired_mse_curves(
    system: SystemConfig,
    pdp: PowerDelayProfile,
    snrs_db: np.ndarray,
    n_trials: int,
    rng: np.random.Generator,
) -> Iterator[tuple[float, float, float]]:
    """All-subcarrier MSE of LS and LMMSE over an SNR grid, common random numbers.

    Yields (snr_db, mse_ls, mse_lmmse) one SNR at a time, in grid order, and
    runs a cell only when it is asked for, so a caller that stops early runs
    and draws no more.  Used by estimation.calibrate_threshold, which
    run_sweep does not call; aggregation matches run_sweep.
    """
    ctx = _make_context(system, 0)
    methods = (Estimator.LS, Estimator.LMMSE)
    for snr_db in np.asarray(snrs_db, dtype=np.float64):
        rows = _run_cell(ctx, pdp, snr_db, rng.spawn(n_trials), methods, detect=False)
        yield float(snr_db), rows[Estimator.LS][0], rows[Estimator.LMMSE][0]


def _hybrid_threshold(config: SweepConfig, length: int, records: Iterable[SweepRecord]) -> float:
    """The hybrid's switching SNR for one channel length: LS from it up, LMMSE
    below it.

    +inf where the CP covers the channel, so the hybrid keeps it on LMMSE;
    else the configured threshold_db; else the SNR where this length's own LS
    and LMMSE mse_all_subcarriers rows among records first cross over the
    finite SNRs of the grid (estimation._crossover).
    """
    if config.system.cp_covers(length):
        return math.inf
    if config.threshold_db is not None:
        return config.threshold_db
    mse = {
        (r.snr_db, r.estimator): r.mse_all_subcarriers for r in records if r.channel_len == length
    }
    finite = (s for s in config.snr_grid_db if math.isfinite(s))
    points = ((s, mse[s, Estimator.LS], mse[s, Estimator.LMMSE]) for s in finite)
    return estimation._crossover(points)


def _branch(threshold: float, snr_db: float) -> Estimator:
    """The estimate the hybrid copies: LS from the threshold up, LMMSE below
    it; a +inf threshold never chooses LS, not even at SNR = +inf."""
    return Estimator.LS if threshold < math.inf and snr_db >= threshold else Estimator.LMMSE


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Run the cartesian (channel length x SNR x estimator) sweep.

    Records are ordered by (channel length, SNR, estimator); channel lengths
    are processed in ascending order regardless of the configured order.  Each
    trial stream derives from (seed, purpose, length index, snr index, trial),
    shared by every estimator of the cell.  Every cell computes each requested
    estimate once, and LS and LMMSE whenever the hybrid is requested: a hybrid
    row copies the row of the branch its length's threshold chooses
    (_hybrid_threshold), once every cell of the length has run.
    """
    ctx = _make_context(config.system, config.seed)
    requested = tuple(e for e in ESTIMATOR_ORDER if e in config.estimators)
    hybrid = Estimator.HYBRID in requested
    branches = (Estimator.LS, Estimator.LMMSE) if hybrid else ()
    methods = tuple(
        e for e in ESTIMATOR_ORDER if e is not Estimator.HYBRID and (e in requested or e in branches)
    )
    records: list[SweepRecord] = []
    for li, length in enumerate(config.channel_lengths):
        pdp = PowerDelayProfile.uniform(length)
        rows: list[SweepRecord] = []
        for si, snr_db in enumerate(config.snr_grid_db):
            streams = (_stream(config.seed, _TAG_TRIAL, li, si, t) for t in range(config.n_frames))
            try:
                cell = _run_cell(ctx, pdp, snr_db, streams, methods, detect=True)
            except Exception as exc:
                raise RuntimeError(f"cell failed (channel_len={length}, snr_db={snr_db})") from exc
            rows += (
                SweepRecord(snr_db, length, m, *v, config.n_frames, None, config.seed)
                for m, v in cell.items()
            )
        if hybrid:
            threshold = _hybrid_threshold(config, length, rows)
            for r in list(rows):
                if r.estimator is _branch(threshold, r.snr_db):
                    branch_ls = float(r.estimator is Estimator.LS)
                    rows.append(replace(r, estimator=Estimator.HYBRID, branch_fraction_ls=branch_ls))
        records += sorted((r for r in rows if r.estimator in requested), key=_row_order)
    return records


CSV_HEADER = ",".join(f.name for f in fields(SweepRecord))


def _row_order(r: SweepRecord) -> tuple[int, float, int]:
    """CSV row order: channel length, then SNR, then estimator."""
    return (r.channel_len, r.snr_db, ESTIMATOR_ORDER.index(r.estimator))


def _csv_field(v: object) -> str:
    if v is None:
        return ""
    if isinstance(v, Estimator):
        return v.value
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def _record_line(r: SweepRecord) -> str:
    return ",".join(_csv_field(getattr(r, f.name)) for f in fields(SweepRecord))


def emit_csv(records: Iterable[SweepRecord], destination: str | Path | IO[str]) -> None:
    """Write records as CSV: header then one line per record, 12 significant digits.

    Rows are sorted by (channel length, SNR, estimator) no matter the input
    order, so a re-run with the same config and seed is byte-identical.
    """
    ordered = sorted(records, key=_row_order)
    text = "\n".join([CSV_HEADER, *map(_record_line, ordered)]) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
        return
    path = Path(destination)
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"failed to write CSV to {path}: {exc}") from exc


def format_summary(records: Sequence[SweepRecord]) -> str:
    """Human-readable per-cell means, one line per record in CSV order."""
    ordered = sorted(records, key=_row_order)
    lines = []
    for r in ordered:
        branch = (
            ""
            if r.branch_fraction_ls is None
            else f"  ls_branch={r.branch_fraction_ls:.2f}"
        )
        lines.append(
            f"L={r.channel_len:>3d}  snr={r.snr_db:>5g} dB  {r.estimator.value:<7s}"
            f"  mse_all={r.mse_all_subcarriers:.4e}"
            f"  mse_pilot={r.mse_pilot_subcarriers:.4e}"
            f"  ber={r.ber:.4e}{branch}"
        )
    return "\n".join(lines)
