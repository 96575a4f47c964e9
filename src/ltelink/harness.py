"""Monte Carlo sweep driver: TX -> channel -> RX -> estimate -> detect -> score.

One trial is one slot: draw a block-fading channel, fill the grid with random
payload bits and the run's pilot sequence, and modulate all symbols.  The
received grid is H * X plus the demodulated sum of AWGN and the channel's
overrun past the cyclic prefix (see ltelink.channel), which equals the
demodulated linear convolution of the stream; H is the exact frequency
response that also scores the estimates.  Every (tx, rx) response is then
estimated from the pilots on the comb all ports share (every third
subcarrier), each subcarrier's channel matrix is inverted once to zero-force
its symbols, and MSE is scored against H and BER against the payload.  One
routine runs a cell's trials, for the sweep and the threshold calibration
alike: _CHUNK trials at a time, stacked on a leading axis, so each chunk makes
one call per stage.

The LMMSE correlation model depends only on the configuration, which fixes the
pilot comb, and on the channel profile truncated to the cyclic prefix.  It is
built once per (config, truncated profile) and memoized, so the antenna ports,
the channel lengths that truncate alike and the threshold calibration share
it, and with it its SVD.  Each cell's LMMSE filter is then two thin factors,
never multiplied out, and LS interpolation one fixed matrix; both estimators
apply the factors of their filter to h_ls, for every (tx, rx) pair at once.

Reproducibility contract: every random draw comes from a stream derived from
(seed, purpose tag, cell indices, trial index), so results are independent of
scheduling and identical across runs at a fixed BLAS thread count, e.g.
OPENBLAS_NUM_THREADS=1 (the SVD and the matrix products can round
differently with another count).  All estimators of a cell share the
same trial streams (common random numbers), which makes estimator comparisons
paired.  The hybrid estimator computes nothing of its own: its row is the row
of the branch it chooses.

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
from typing import IO, Iterable, Sequence

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
    HybridPolicy,
    beta_for_constellation,
    ls_estimate,
    ls_interpolation_matrix,
)
from .grid import (
    GridLayout,
    PilotPattern,
    SystemConfig,
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
# hold more arrays at once: chunks of 3 add about 1.2 MB (3%) to the peak RSS
# of the default 5 MHz sweep.
_CHUNK = 3


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


ESTIMATOR_ORDER: tuple[Estimator, ...] = (
    Estimator.LS,
    Estimator.LMMSE,
    Estimator.HYBRID,
    Estimator.PERFECT,
)


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
        lengths = tuple(sorted({int(v) for v in self.channel_lengths}))
        snrs = tuple(float(v) for v in self.snr_grid_db)
        ests = tuple(self.estimators)
        object.__setattr__(self, "channel_lengths", lengths)
        object.__setattr__(self, "snr_grid_db", snrs)
        object.__setattr__(self, "estimators", ests)
        if not lengths or any(v < 1 for v in lengths):
            raise ValueError("channel_lengths must be a non-empty list of positive ints")
        n_fft = self.system.n_fft
        if lengths[-1] > n_fft:  # later taps would alias in the frequency response
            raise ValueError(f"channel length {lengths[-1]} exceeds the FFT size {n_fft}")
        if not snrs:
            raise ValueError("snr grid must be non-empty")
        if any(a > b for a, b in zip(snrs, snrs[1:])):
            raise ValueError("snr grid must be sorted ascending")
        if any(math.isnan(v) or v == -math.inf for v in snrs):
            raise ValueError("snr grid must not contain NaN or -inf")
        if self.n_frames < 1:
            raise ValueError("n_frames must be at least 1")
        if not ests or any(not isinstance(e, Estimator) for e in ests):
            raise ValueError("estimators must be a non-empty list of Estimator members")
        if len(set(ests)) != len(ests):
            raise ValueError("duplicate estimator requested")
        if self.threshold_override_db is not None and math.isnan(self.threshold_override_db):
            raise ValueError("threshold_override_db must not be NaN")
        if (
            Estimator.HYBRID in ests
            and self.threshold_override_db is None
            and lengths[-1] > self.system.cp_len + 1
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
    pattern: PilotPattern
    layout: GridLayout
    pilot_seq: np.ndarray
    pilot_subcarriers: np.ndarray  # (n_pilots,) the comb every port shares
    pilot_symbols: np.ndarray  # (n_tx, n_pilots) each port's symbol on the comb
    pilot_values: np.ndarray  # (n_tx, n_pilots) each port's pilots on the comb
    ls_interp: np.ndarray  # (n_used, n_pilots) LS interpolation, complex like h_ls
    beta: float
    # (_CHUNK * n_tx * n_data_per_port,) data resource elements of a raveled
    # (trial, subcarrier, port, symbol) chunk, in the payload bits' order
    data_index: np.ndarray


def _make_context(config: SystemConfig, seed: int) -> _LinkContext:
    pattern = build_pilot_pattern(config)
    layout = GridLayout.build(config, pattern)
    pilot_seq = random_pilot_sequence(pattern.n_entries, _stream(seed, _TAG_PILOTS))
    subcarriers, entry_index = pattern.comb()
    n_tx, n_sym = config.n_tx, config.n_symbols_per_slot
    in_trial = (layout.data_subcarriers * n_tx + np.arange(n_tx)[:, None]) * n_sym
    trial_start = np.arange(_CHUNK)[:, None, None] * (config.n_used * n_tx * n_sym)
    return _LinkContext(
        config=config,
        pattern=pattern,
        layout=layout,
        pilot_seq=pilot_seq,
        pilot_subcarriers=subcarriers,
        pilot_symbols=pattern.entries[entry_index, 1],
        pilot_values=pilot_seq[entry_index],
        ls_interp=ls_interpolation_matrix(subcarriers, config.n_used).astype(np.complex128),
        beta=beta_for_constellation(config.constellation),
        data_index=(trial_start + in_trial + layout.data_symbols).reshape(-1),
    )


def _receive(
    ctx: _LinkContext,
    pdp: PowerDelayProfile,
    noise: NoiseSpec,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transmit and receive a chunk of slots along a leading trial axis.

    Trial i draws its channel taps, then its payload bits, then its noise from
    rngs[i].  Returns bits (c, n_tx, n_bits), the subcarrier-major rx_grid
    (c, n_used, n_rx, n_symbols) that zero-forcing takes, and h_true
    (c, n_tx, n_rx, n_used)."""
    cfg = ctx.config
    n, n_bits = len(rngs), ctx.layout.n_data_per_port * cfg.constellation.bits_per_symbol
    taps, bits = [], []
    for rng in rngs:
        taps.append(generate_channel(pdp, cfg.n_tx, cfg.n_rx, rng).taps)
        bits.append(rng.integers(0, 2, size=(cfg.n_tx, n_bits)))
    ch = ChannelRealization(np.stack(taps), pdp)
    bits = np.stack(bits)
    values = ctx.layout.fill(  # (c, n_tx, n_used, n_symbols)
        linkproc.map_bits(bits, cfg.constellation).reshape(n, cfg.n_tx, -1),
        ctx.pilot_seq,
        ctx.pattern,
    )
    tx = ofdm.modulate_frame(values.reshape(n * cfg.n_tx, cfg.n_used, -1), cfg)
    impairment = overrun(tx.reshape(n, cfg.n_tx, -1), ch, cfg)
    h_true = ch.frequency_responses(cfg.n_fft, used_subcarrier_bins(cfg))
    # H * X summed over tx, (c, n_used, n_rx, n_symbols), plus the demodulated impairment
    rx_grid = h_true[:, 0].swapaxes(1, 2)[..., None] * values[:, 0, :, None]
    for t in range(1, cfg.n_tx):
        rx_grid += h_true[:, t].swapaxes(1, 2)[..., None] * values[:, t, :, None]
    del tx, values  # freed before the noise and the demodulation add theirs
    for i, rng in enumerate(rngs):
        impairment[i] = add_awgn(impairment[i], noise, rng)
    rx = ofdm.demodulate_frame(impairment.reshape(n * cfg.n_rx, -1), cfg)
    rx_grid += rx.reshape(n, cfg.n_rx, cfg.n_used, -1).swapaxes(1, 2)
    return bits, rx_grid, h_true


def _score_estimate(
    h_hat: np.ndarray, h_true: np.ndarray, pilot_subcarriers: np.ndarray
) -> tuple[float, float, float, float]:
    """Energy sums of estimates: (|err|^2, |h|^2) over all used subcarriers,
    then over the pilot subcarriers.

    h_hat and h_true are (..., n_tx, n_rx, n_used), any leading axes being
    trials; the normalized MSE of a cell is the ratio of the error sum to the
    energy sum over all its trials.
    """
    err2 = np.abs(h_hat - h_true) ** 2
    ref2 = np.abs(h_true) ** 2
    return (
        float(err2.sum()),
        float(ref2.sum()),
        float(err2[..., pilot_subcarriers].sum()),
        float(ref2[..., pilot_subcarriers].sum()),
    )


def _bit_errors(ctx: _LinkContext, rx_grid: np.ndarray, h_hat: np.ndarray, bits: np.ndarray) -> int:
    """Payload bit errors of a chunk zero-forced with the estimate h_hat."""
    cfg = ctx.config
    # one (n_rx, n_tx) matrix per (trial, subcarrier)
    h_sc = h_hat.transpose(0, 3, 2, 1).reshape(-1, cfg.n_rx, cfg.n_tx)
    detected, _ = kernels.zf_detect_grid(rx_grid.reshape(len(h_sc), cfg.n_rx, -1), h_sc)
    n_symbols = bits.size // cfg.constellation.bits_per_symbol
    symbols = detected.reshape(-1).take(ctx.data_index[:n_symbols])
    rx_bits = linkproc.demap_symbols(symbols, cfg.constellation)
    return int(np.count_nonzero(rx_bits != bits.reshape(-1)))


def _run_cell(
    ctx: _LinkContext,
    pdp: PowerDelayProfile,
    noise: NoiseSpec,
    streams: Iterable[np.random.Generator],
    filters: Sequence[tuple[np.ndarray, ...] | None],
    detect: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized MSE and BER of each estimate over the trials of one cell.

    streams yields one generator per trial; the trials run _CHUNK at a time.
    An estimate is the factors of its filter W = F_1 ... F_k, applied to h_ls
    right to left, or None for the true channel.  Returns (mse, ber): mse is
    (n_filters, 2), over all used subcarriers and over the pilot comb, and ber
    (n_filters,) is 0 without detection.  Errors and energies are summed over
    the whole cell and divided once.
    """
    pilots = ctx.pilot_subcarriers
    sums = np.zeros((len(filters), 4))  # the sums of _score_estimate
    errors = np.zeros(len(filters), dtype=np.int64)
    n_bits = 0
    streams = iter(streams)
    while rngs := list(itertools.islice(streams, _CHUNK)):
        bits, rx_grid, h_true = _receive(ctx, pdp, noise, rngs)
        # (n_tx, n_pilots, c, n_rx) -> (c, n_tx, n_rx, n_pilots)
        y_p = rx_grid[:, pilots, :, ctx.pilot_symbols].transpose(2, 0, 3, 1)
        h_ls = ls_estimate(y_p, ctx.pilot_values[:, None]).reshape(-1, len(pilots))
        n_bits += bits.size
        for k, factors in enumerate(filters):
            h_hat = h_true
            if factors is not None:
                # 2-D products over trials and pairs: BLAS beats a stacked matmul here
                h_hat = h_ls
                for f in reversed(factors):
                    h_hat = h_hat @ f.T
                h_hat = h_hat.reshape(h_true.shape)
            sums[k] += _score_estimate(h_hat, h_true, pilots)
            if detect:
                errors[k] += _bit_errors(ctx, rx_grid, h_hat, bits)
    return sums[:, 0::2] / sums[:, 1::2], errors / n_bits


def _correlation_model(config: SystemConfig, pdp: PowerDelayProfile) -> CorrelationModel:
    """The receiver's correlation model of one channel profile, on the pilot comb.

    The receiver's correlation prior covers at most the cyclic prefix: the
    demodulator is designed for delay spreads the CP absorbs, and a longer
    channel is precisely the unforeseen case the hybrid estimator exists for.
    One model serves every port, and it is memoized by (config, truncated
    profile), so lengths that truncate alike and the calibration share it.
    """
    model_pdp = pdp.truncated(min(pdp.n_taps, config.cp_len))
    return _memoized_model(
        config, tuple(model_pdp.tap_delays.tolist()), tuple(model_pdp.tap_powers.tolist())
    )


@functools.lru_cache(maxsize=8)
def _memoized_model(
    config: SystemConfig, tap_delays: tuple[int, ...], tap_powers: tuple[float, ...]
) -> CorrelationModel:
    """The model of one (config, truncated profile); the comb follows from the
    config.  Models are read-only, so callers share them; the bound caps memory."""
    pdp = PowerDelayProfile(np.array(tap_delays), np.array(tap_powers))
    pilot_subcarriers, _ = build_pilot_pattern(config).comb()
    return estimation.build_correlation_model(pdp, pilot_subcarriers, config)


def _filter_from_model(
    model: CorrelationModel, snr_db: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    snr_linear = 10.0 ** (snr_db / 10.0)
    reg = 0.0 if math.isinf(snr_linear) else beta / snr_linear
    return estimation.lmmse_filter(model, reg)


def paired_mse_curves(
    system: SystemConfig,
    pdp: PowerDelayProfile,
    snrs_db: np.ndarray,
    n_trials: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """All-subcarrier MSE of LS and LMMSE over an SNR grid, common random numbers.

    Used by the hybrid threshold calibration; aggregation matches run_sweep.
    """
    ctx = _make_context(system, 0)
    model = _correlation_model(system, pdp)
    mse = np.empty((2, len(snrs_db)))
    for i, snr_db in enumerate(np.asarray(snrs_db, dtype=np.float64)):
        filters = ((ctx.ls_interp,), _filter_from_model(model, snr_db, ctx.beta))
        # spawned as the chunks take them: the children of spawning all
        # len(snrs_db) * n_trials up front, in the same order
        streams = (rng.spawn(1)[0] for _ in range(n_trials))
        mse[:, i] = _run_cell(ctx, pdp, NoiseSpec(snr_db), streams, filters, detect=False)[0][:, 0]
    return mse[0], mse[1]


def _resolve_thresholds(config: SweepConfig) -> dict[int, float]:
    """Hybrid switching threshold per channel length.

    Lengths the CP covers (span <= cp_len + 1, no ISI) never consult the
    threshold (+inf placeholder).  Genuinely CP-exceeding lengths use the
    override when set, otherwise the calibrated LS/LMMSE crossover for this
    configuration and profile.
    """
    thresholds: dict[int, float] = {}
    finite_snrs = np.array([s for s in config.snr_grid_db if math.isfinite(s)])
    for li, length in enumerate(config.channel_lengths):
        if length <= config.system.cp_len + 1:
            thresholds[length] = np.inf
        elif config.threshold_override_db is not None:
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
    its policy chooses for the cell, computed even when not requested itself.
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
            cell_methods = methods
            if hybrid:
                policy = HybridPolicy(config.system.cp_len, length, thresholds[length])
                chooses_ls = policy.chooses_ls(snr_db)
                branch = Estimator.LS if chooses_ls else Estimator.LMMSE
                if branch not in methods:
                    cell_methods = (*methods, branch)
            filters = {Estimator.LS: (ctx.ls_interp,), Estimator.PERFECT: None}
            if Estimator.LMMSE in cell_methods:
                model = _correlation_model(config.system, pdp)
                filters[Estimator.LMMSE] = _filter_from_model(model, snr_db, ctx.beta)
            streams = (_stream(config.seed, _TAG_TRIAL, li, si, t) for t in range(config.n_frames))
            try:
                mse, ber = _run_cell(
                    ctx, pdp, NoiseSpec(snr_db), streams, [filters[m] for m in cell_methods], True
                )
            except Exception as exc:
                raise RuntimeError(f"cell failed (channel_len={length}, snr_db={snr_db})") from exc
            for est in requested:
                k = cell_methods.index(branch if est is Estimator.HYBRID else est)
                records.append(
                    SweepRecord(
                        snr_db=snr_db,
                        channel_len=length,
                        estimator=est,
                        mse_all_subcarriers=float(mse[k, 0]),
                        mse_pilot_subcarriers=float(mse[k, 1]),
                        ber=float(ber[k]),
                        n_trials=config.n_frames,
                        branch_fraction_ls=(
                            float(chooses_ls) if est is Estimator.HYBRID else None
                        ),
                        seed=config.seed,
                    )
                )
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
