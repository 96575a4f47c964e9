"""Monte Carlo sweep driver: TX -> channel -> RX -> estimate -> detect -> score.

One trial is one slot: draw a block-fading channel, fill the grid with random
payload bits and the run's pilot sequence, and modulate the symbols the cell
reads.  The received grid is H * X plus the demodulated sum of AWGN and the
channel's overrun past the cyclic prefix (see ltelink.channel), which equals
the demodulated linear convolution of the stream; H is the exact frequency
response that also scores the estimates.  A cell that detects reads all 7
symbols; a calibration cell, which scores MSE alone, reads pilot symbols 0
and 4 with the same draws.  Every (tx, rx) response is then estimated from
the pilots on the comb all ports share (every third subcarrier), each
subcarrier's channel matrix is inverted once to zero-force its symbols, and
MSE is scored against H and BER against the payload.  One routine owns a
cell, its noise, LMMSE filter and one row per estimator, for the sweep and
the threshold calibration alike.  It runs _CHUNK trials at a time, stacked on
a leading axis, so each chunk makes one call per stage and one per estimate.
A chunk keeps one slot layout from the grid fill to zero-forcing: (trial,
antenna, symbol, subcarrier).  Its stages are ordered so that no large array
outlives its last reader: modulate the filled grid and form H * X from it,
drop the grid, form the overrun from the stream, drop the stream, then add
the noise and demodulate.  Payload bits are drawn as int64 and kept as int8.

The LMMSE correlation model depends only on the configuration, which fixes the
pilot comb, and on the channel profile truncated to the cyclic prefix.  It is
built once per (config, truncated profile) and memoized, so the antenna ports,
the channel lengths that truncate alike and the threshold calibration share
it, and with it its SVD.  Each cell's LMMSE filter is then two thin factors,
never multiplied out, and LS interpolation two taps per subcarrier, built once
per context; each estimator has one application path, which serves every
(tx, rx) pair of a chunk at once.

Reproducibility contract: every random draw comes from a stream derived from
(seed, purpose tag, cell indices, trial index), so results are independent of
scheduling and identical across runs at a fixed BLAS thread count, e.g.
OPENBLAS_NUM_THREADS=1 (the SVD and the matrix products can round
differently with another count).  The threshold calibration of a length
spawns one child of its stream per trial, SNR by SNR in ascending order, and
stops at the first LS/LMMSE crossing: it draws from the stream only up to the
crossing, and the cells past it are never run.  All estimators of a cell
share the same trial streams (common random numbers), which makes estimator
comparisons paired.  The hybrid estimator computes nothing of its own: its
row is the row of the branch it chooses.

MSE aggregation across trials is energy weighted: |error|^2 and |h|^2 sums are
accumulated separately and divided once, so the pilot-column MSE of the LS
estimator converges to 1/SNR exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from . import estimation, kernels, linkproc, ofdm
from .channel import (
    ChannelRealization,
    NoiseSpec,
    PowerDelayProfile,
    add_awgn,
    generate_channel,
    overrun,
)
from .estimation import (
    CorrelationModel,
    LsTaps,
    beta_for_constellation,
    interpolate_ls,
    ls_estimate,
    ls_interpolation_taps,
)
from .grid import (
    PILOT_SYMBOLS,
    GridLayout,
    SystemConfig,
    as_int,
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

# Stream purpose tags: keep trial, pilot-sequence and calibration draws disjoint.
_TAG_TRIAL = 0
_TAG_PILOTS = 1
_TAG_CALIBRATION = 2

_SEED_MASK = (1 << 64) - 1

# Trials per chunk of a cell.  Larger chunks pay less numpy call overhead but
# hold more arrays at once: against one trial at a time, chunks of 3 added
# 1.18 MB (3.0%) to the median peak RSS of the default 5 MHz sweep and took
# 20% less CPU (6 alternating single calls each, 2 vCPU, BLAS at 1 thread).
_CHUNK = 3

# The symbols a detecting cell reads; a calibration cell reads PILOT_SYMBOLS.
_SLOT_SYMBOLS = tuple(range(SystemConfig.n_symbols_per_slot))


class Estimator(Enum):
    LS = "ls"
    LMMSE = "lmmse"
    HYBRID = "hybrid"
    PERFECT = "perfect"

    @classmethod
    def parse(cls, name: str) -> "Estimator":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown estimator {name!r}; choose from "
                f"{', '.join(e.value for e in cls)}"
            ) from None


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
    threshold_override_db: float | None = None

    def __post_init__(self) -> None:
        # channel lengths are canonicalized (sorted, deduplicated) so cell
        # indices, and with them the rng streams, do not depend on input order
        lengths = tuple(sorted({as_int("channel_lengths", v) for v in self.channel_lengths}))
        snrs = tuple(float(v) for v in self.snr_grid_db)
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
        if any(math.isnan(v) or v == -math.inf for v in snrs):
            raise ValueError("snr grid must not contain NaN or -inf")
        if self.n_frames < 1:
            raise ValueError("n_frames must be at least 1")
        if not ests or any(not isinstance(e, Estimator) for e in ests):
            raise ValueError("estimators must be a non-empty list of Estimator members")
        if len(set(ests)) != len(ests):
            raise ValueError("duplicate estimator requested")
        if self.system.cp_len < 1 and (Estimator.LMMSE in ests or Estimator.HYBRID in ests):
            # the receiver's LMMSE prior keeps the taps at delays below cp_len
            raise ValueError("the lmmse and hybrid estimators need cp_len >= 1")
        if self.threshold_override_db is not None and math.isnan(self.threshold_override_db):
            raise ValueError("threshold_override_db must not be NaN")
        if (
            Estimator.HYBRID in ests
            and self.threshold_override_db is None
            and not self.system.cp_covers(lengths[-1])
            and not any(math.isfinite(v) for v in snrs)
        ):
            raise ValueError(
                "cannot calibrate a hybrid threshold without finite SNRs: add a "
                "finite SNR or set a threshold"
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
        if self.mse_all_subcarriers < 0 or self.mse_pilot_subcarriers < 0:
            raise ValueError("mse must be non-negative")
        if self.branch_fraction_ls is not None and not 0.0 <= self.branch_fraction_ls <= 1.0:
            raise ValueError(f"branch_fraction_ls out of [0, 1]: {self.branch_fraction_ls}")


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & _SEED_MASK, *key]))


@dataclass(frozen=True)
class _LinkContext:
    """Everything about one configuration that is fixed across trials."""

    config: SystemConfig
    layout: GridLayout
    pilot_seq: np.ndarray
    pilot_subcarriers: np.ndarray  # (n_pilots,) the comb every port shares
    pilot_symbols: np.ndarray  # (n_tx, n_pilots) each port's symbol on the comb
    pilot_values: np.ndarray  # (n_tx, n_pilots) each port's pilots on the comb
    ls_taps: LsTaps  # LS interpolation from the comb to every used subcarrier
    payload_index: np.ndarray  # (n_data_per_port,) payload positions in a raveled slot


def _make_context(config: SystemConfig, seed: int) -> _LinkContext:
    pattern = build_pilot_pattern(config)
    layout = GridLayout.build(config, pattern)
    pilot_seq = random_pilot_sequence(pattern.n_entries, _stream(seed, _TAG_PILOTS))
    return _LinkContext(
        config=config,
        layout=layout,
        pilot_seq=pilot_seq,
        pilot_subcarriers=pattern.comb,
        pilot_symbols=pattern.entries[pattern.entry_index, 1],
        pilot_values=pilot_seq[pattern.entry_index],
        ls_taps=ls_interpolation_taps(pattern.comb, config.n_used),
        payload_index=layout.data_symbols * config.n_used + layout.data_subcarriers,
    )


def _rows(rows: Sequence[int]) -> slice | list[int]:
    """Ascending indices as a slice when they are consecutive, so that a whole
    slot is read through views, not copies."""
    return slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] == len(rows) - 1 else list(rows)


def _receive(
    ctx: _LinkContext,
    pdp: PowerDelayProfile,
    noise: NoiseSpec,
    rngs: Sequence[np.random.Generator],
    symbols: tuple[int, ...] = _SLOT_SYMBOLS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transmit and receive a chunk of slots along a leading trial axis, in
    the OFDM symbols listed in symbols (ascending) only.

    Trial i draws its channel taps, then its payload bits, then the noise of
    its whole slot from rngs[i], whatever symbols it reads.  The stages hold
    each array only while they read it: the filled grid is modulated and
    multiplied by H, then dropped before the overrun allocates its buffer,
    and the modulated stream is dropped once the overrun is formed.  Returns
    bits (c, n_tx, n_bits) as int8, rx_grid (c, n_rx, len(symbols), n_used)
    in the slot layout of the grid, the modem and zero-forcing, and h_true
    (c, n_tx, n_rx, n_used)."""
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
        ctx.pilot_seq,
    )
    # a window's overrun reaches back one symbol, so each read symbol is sent
    # with the one before it; only the read windows are kept
    sent, read = sorted({*symbols, *(s - 1 for s in symbols if s > 0)}), _rows(symbols)
    tx = ofdm.modulate_frame(values[:, :, _rows(sent)].reshape(n * cfg.n_tx, -1, cfg.n_used), cfg)
    h_true = ch.frequency_responses(cfg.n_fft, used_subcarrier_bins(cfg))
    # H * X summed over tx, (c, n_rx, len(symbols), n_used), plus the demodulated impairment
    rx_grid = h_true[:, 0, :, None] * values[:, 0, read][:, None]
    for t in range(1, cfg.n_tx):
        rx_grid += h_true[:, t, :, None] * values[:, t, read][:, None]
    del values  # the grid, before the overrun allocates its buffer
    impairment = overrun(tx.reshape(n, cfg.n_tx, -1), ch, cfg).reshape(n, cfg.n_rx, len(sent), -1)
    del tx
    impairment = impairment[:, :, _rows([sent.index(s) for s in symbols])]
    # each trial's noise is drawn over its whole slot, onto zeros (0 + w is w
    # exactly), and only its read windows are added
    slot = np.broadcast_to(np.complex128(0), (cfg.n_rx, cfg.n_symbols_per_slot, cfg.symbol_len))
    for i, rng in enumerate(rngs):
        impairment[i] += add_awgn(slot, noise, rng)[:, read]
    rx = ofdm.demodulate_frame(impairment.reshape(n * cfg.n_rx, -1), cfg)
    rx_grid += rx.reshape(rx_grid.shape)
    return bits, rx_grid, h_true


def _energy(h: np.ndarray, pilot_subcarriers: np.ndarray) -> tuple[float, float]:
    """Sums of |h|^2 over all used subcarriers, then over the pilot subcarriers,
    of (..., n_used) responses; a cell's normalized MSE is the ratio of its
    estimate errors' sums to its true channels' sums."""
    h2 = np.abs(h) ** 2
    return float(h2.sum()), float(h2[..., pilot_subcarriers].sum())


def _bit_errors(ctx: _LinkContext, rx_grid: np.ndarray, h_hat: np.ndarray, bits: np.ndarray) -> int:
    """Payload bit errors of a chunk zero-forced with the estimate h_hat."""
    detected, _ = kernels.zf_detect_grid(rx_grid, h_hat.swapaxes(1, 2))
    # (c, n_tx, n_data_per_port) payload symbols, in the order of their bits
    symbols = np.take(detected.reshape(*detected.shape[:2], -1), ctx.payload_index, axis=-1)
    rx_bits = linkproc.demap_symbols(symbols, ctx.config.constellation)
    return int(np.count_nonzero(rx_bits != bits.reshape(-1)))


def _lmmse_factors(
    config: SystemConfig, pdp: PowerDelayProfile, noise: NoiseSpec
) -> tuple[np.ndarray, np.ndarray]:
    """A cell's LMMSE filter factors (F, G), W = F @ G, regularized by
    beta / SNR = beta * sigma^2.

    The receiver's prior keeps the taps at delays below cp_len: the
    demodulator is designed for delay spreads the CP absorbs, and a longer
    channel is precisely the unforeseen case the hybrid estimator exists for.
    """
    model = _memoized_model(config, pdp.truncated(config.cp_len))
    beta = beta_for_constellation(config.constellation)
    return estimation.lmmse_filter(model, beta * noise.noise_variance)


@functools.lru_cache(maxsize=8)
def _memoized_model(config: SystemConfig, prior: PowerDelayProfile) -> CorrelationModel:
    """The model of one (config, truncated profile); the comb follows from the
    config.  Models are read-only, so callers share them; the bound caps memory."""
    return estimation.build_correlation_model(prior, build_pilot_pattern(config).comb, config)


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
    noise = NoiseSpec(snr_db)
    lmmse = _lmmse_factors(ctx.config, pdp, noise) if Estimator.LMMSE in methods else None
    pilots = ctx.pilot_subcarriers
    err2 = np.zeros((len(methods), 2))  # the _energy of each estimate's error
    ref2 = np.zeros(2)  # and of the true channel
    errors = np.zeros(len(methods), dtype=np.int64)
    n_bits = 0
    # detection reads the whole slot, the MSE alone only the pilot symbols
    symbols = _SLOT_SYMBOLS if detect else PILOT_SYMBOLS
    pilot_rows = np.searchsorted(symbols, ctx.pilot_symbols)  # in rx_grid's symbol axis
    streams = iter(streams)
    while rngs := list(itertools.islice(streams, _CHUNK)):
        bits, rx_grid, h_true = _receive(ctx, pdp, noise, rngs, symbols)
        # (c, n_rx, n_tx, n_pilots) -> (c, n_tx, n_rx, n_pilots)
        y_p = rx_grid[:, :, pilot_rows, pilots].swapaxes(1, 2)
        h_ls = ls_estimate(y_p, ctx.pilot_values[:, None]).reshape(-1, len(pilots))
        ref2 += _energy(h_true, pilots)
        n_bits += bits.size
        for k, method in enumerate(methods):
            if method is Estimator.LS:
                h_hat = interpolate_ls(h_ls, ctx.ls_taps).reshape(h_true.shape)
            elif method is Estimator.LMMSE:
                f, g = lmmse
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
    and draws no more.  Used by the hybrid threshold calibration; aggregation
    matches run_sweep.
    """
    ctx = _make_context(system, 0)
    methods = (Estimator.LS, Estimator.LMMSE)
    for snr_db in np.asarray(snrs_db, dtype=np.float64):
        # spawned as the chunks take them: the children that spawning n_trials
        # per SNR up front would give the SNRs run, in the same order
        streams = (rng.spawn(1)[0] for _ in range(n_trials))
        rows = _run_cell(ctx, pdp, snr_db, streams, methods, detect=False)
        yield float(snr_db), rows[Estimator.LS][0], rows[Estimator.LMMSE][0]


def _resolve_thresholds(config: SweepConfig) -> dict[int, float]:
    """Hybrid switching threshold of each channel length the CP does not cover.

    The lengths it covers have none: the hybrid keeps them on LMMSE.  The
    others use the override when set, otherwise the calibrated LS/LMMSE
    crossover for this configuration and profile.
    """
    thresholds: dict[int, float] = {}
    finite_snrs = np.array([s for s in config.snr_grid_db if math.isfinite(s)])
    for li, length in enumerate(config.channel_lengths):
        if config.system.cp_covers(length):
            continue
        if config.threshold_override_db is not None:
            thresholds[length] = config.threshold_override_db
        else:
            thresholds[length] = estimation.calibrate_threshold(
                config.system,
                PowerDelayProfile.uniform(length),
                finite_snrs,
                config.n_frames,
                _stream(config.seed, _TAG_CALIBRATION, li),
            )
    return thresholds


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Run the cartesian (channel length x SNR x estimator) sweep.

    Records are ordered by (channel length, SNR, estimator); channel lengths
    are processed in ascending order regardless of the configured order.  Each
    trial stream derives from (seed, purpose, length index, snr index, trial),
    shared by every estimator of the cell.  A cell computes each distinct
    estimate once: the hybrid row copies the row of the LS or LMMSE estimate
    it chooses for the cell, computed even when not requested itself.
    """
    ctx = _make_context(config.system, config.seed)
    requested = tuple(e for e in ESTIMATOR_ORDER if e in config.estimators)
    methods = tuple(e for e in requested if e is not Estimator.HYBRID)
    hybrid = Estimator.HYBRID in requested
    thresholds = _resolve_thresholds(config) if hybrid else {}
    records: list[SweepRecord] = []
    for li, length in enumerate(config.channel_lengths):
        pdp = PowerDelayProfile.uniform(length)
        for si, snr_db in enumerate(config.snr_grid_db):
            if hybrid:
                # LS from the threshold up, LMMSE below it; a length the CP
                # covers has no threshold, and neither it nor a +inf threshold
                # ever chooses LS, not even at SNR = +inf
                threshold = thresholds.get(length, math.inf)
                chooses_ls = threshold < math.inf and snr_db >= threshold
                branch = Estimator.LS if chooses_ls else Estimator.LMMSE
            cell_methods = (*methods, branch) if hybrid and branch not in methods else methods
            streams = (_stream(config.seed, _TAG_TRIAL, li, si, t) for t in range(config.n_frames))
            try:
                rows = _run_cell(ctx, pdp, snr_db, streams, cell_methods, detect=True)
            except Exception as exc:
                raise RuntimeError(f"cell failed (channel_len={length}, snr_db={snr_db})") from exc
            if hybrid:
                rows[Estimator.HYBRID] = rows[branch]
            for est in requested:
                branch_ls = float(chooses_ls) if est is Estimator.HYBRID else None
                row = (*rows[est], config.n_frames, branch_ls, config.seed)
                records.append(SweepRecord(snr_db, length, est, *row))
    return records


CSV_HEADER = (
    "snr_db,channel_len,estimator,mse_all_subcarriers,mse_pilot_subcarriers,"
    "ber,n_trials,branch_fraction_ls,seed"
)


def _fmt_float(v: float) -> str:
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.12g}"


def _row_order(r: SweepRecord) -> tuple[int, float, int]:
    """CSV row order: channel length, then SNR, then estimator."""
    return (r.channel_len, r.snr_db, ESTIMATOR_ORDER.index(r.estimator))


def _record_line(r: SweepRecord) -> str:
    branch = "" if r.branch_fraction_ls is None else _fmt_float(r.branch_fraction_ls)
    return ",".join(
        [
            _fmt_float(r.snr_db),
            str(r.channel_len),
            r.estimator.value,
            _fmt_float(r.mse_all_subcarriers),
            _fmt_float(r.mse_pilot_subcarriers),
            _fmt_float(r.ber),
            str(r.n_trials),
            branch,
            str(r.seed),
        ]
    )


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
