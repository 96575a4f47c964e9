"""Monte Carlo sweep driver: TX -> channel -> RX -> estimate -> detect -> score.

One trial is one slot: draw a block-fading channel, fill the grid with random
payload bits and the run's pilot sequence, and modulate all symbols.  The
received grid is H * X plus the demodulated sum of AWGN and the channel's
overrun past the cyclic prefix (see ltelink.channel), which equals the
demodulated linear convolution of the stream; H is the exact frequency
response that also scores the estimates.  Every (tx, rx) response is then
estimated from the pilots on the comb all ports share (every third
subcarrier), each subcarrier's channel matrix is inverted once to zero-force
its symbols, and MSE is scored against H and BER against the payload.

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
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from . import estimation, kernels, linkproc, ofdm
from .channel import (
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


def _make_context(config: SystemConfig, seed: int) -> _LinkContext:
    pattern = build_pilot_pattern(config)
    layout = GridLayout.build(config, pattern)
    pilot_seq = random_pilot_sequence(pattern.n_entries, _stream(seed, _TAG_PILOTS))
    subcarriers, entry_index = pattern.comb()
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
    )


@dataclass(frozen=True)
class _ChainState:
    """Estimator-independent products of one trial's chain."""

    bits: np.ndarray  # (n_tx, n_payload_bits_per_port)
    rx_grid: np.ndarray  # (n_rx, n_used, n_symbols)
    h_true: np.ndarray  # (n_tx, n_rx, n_used)
    h_ls: np.ndarray  # (n_tx, n_rx, n_pilots), on the pilot comb


def _run_chain(
    ctx: _LinkContext, pdp: PowerDelayProfile, noise: NoiseSpec, rng: np.random.Generator
) -> _ChainState:
    cfg = ctx.config
    ch = generate_channel(pdp, cfg.n_tx, cfg.n_rx, rng)
    bits_per_sym = cfg.constellation.bits_per_symbol
    bits = rng.integers(0, 2, size=(cfg.n_tx, ctx.layout.n_data_per_port * bits_per_sym))
    data = [linkproc.map_bits(bits[p], cfg.constellation) for p in range(cfg.n_tx)]
    values = ctx.layout.fill(data, ctx.pilot_seq, ctx.pattern)
    tx = ofdm.modulate_frame(values, cfg)
    h_true = ch.frequency_responses(cfg.n_fft, used_subcarrier_bins(cfg))
    impairment = add_awgn(overrun(tx, ch, cfg), noise, rng)
    # plus H * X: (n_tx, n_rx, n_used, 1) * (n_tx, 1, n_used, n_symbols) summed over tx
    rx_grid = ofdm.demodulate_frame(impairment, cfg) + (h_true[..., None] * values[:, None]).sum(0)
    # (n_rx, n_tx, n_pilots) -> (n_tx, n_rx, n_pilots)
    y_p = rx_grid[:, ctx.pilot_subcarriers, ctx.pilot_symbols].swapaxes(0, 1)
    h_ls = ls_estimate(y_p, ctx.pilot_values[:, None])
    return _ChainState(bits=bits, rx_grid=rx_grid, h_true=h_true, h_ls=h_ls)


def _estimate(
    state: _ChainState,
    ctx: _LinkContext,
    method: Estimator,
    lmmse_factors: tuple[np.ndarray, ...] | None,
) -> np.ndarray:
    """(n_tx, n_rx, n_used) estimate of every pair by LS, LMMSE or perfect CSI;
    a filter W = F_1 ... F_k is applied factor by factor, right to left."""
    if method is Estimator.PERFECT:
        return state.h_true
    factors = lmmse_factors if method is Estimator.LMMSE else (ctx.ls_interp,)
    # 2-D products over all pairs: BLAS does them faster than a stacked matmul
    n_tx, n_rx, n_pilots = state.h_ls.shape
    h = state.h_ls.reshape(-1, n_pilots)
    for f in reversed(factors):
        h = h @ f.T
    return h.reshape(n_tx, n_rx, -1)


def _detect_and_count(
    state: _ChainState, ctx: _LinkContext, h_hat: np.ndarray
) -> tuple[int, int, int]:
    """ZF-detect the slot per subcarrier and count bit errors on the data
    resource elements; returns (bit_errors, bit_count, erased data REs)."""
    cfg = ctx.config
    sc, sym = ctx.layout.data_subcarriers, ctx.layout.data_symbols
    # (n_used, n_rx, n_symbols) and (n_used, n_rx, n_tx) views
    detected, erased = kernels.zf_detect_grid(state.rx_grid.swapaxes(0, 1), h_hat.T)
    errors = 0
    for p in range(cfg.n_tx):
        rx_bits = linkproc.demap_symbols(detected[sc, p, sym], cfg.constellation)
        errors += int(np.count_nonzero(rx_bits != state.bits[p]))
    return errors, int(state.bits.size), int(np.count_nonzero(erased[sc]))


def _score_estimate(
    h_hat: np.ndarray, h_true: np.ndarray, pilot_subcarriers: np.ndarray
) -> tuple[float, float, float, float]:
    """Energy sums of one slot's estimate: (|err|^2, |h|^2) over all used
    subcarriers, then over the pilot subcarriers.

    h_hat and h_true are (n_tx, n_rx, n_used); the normalized MSE of a cell
    is the ratio of the error sum to the energy sum over all its trials.
    """
    err2 = np.abs(h_hat - h_true) ** 2
    ref2 = np.abs(h_true) ** 2
    return (
        float(err2.sum()),
        float(ref2.sum()),
        float(err2[..., pilot_subcarriers].sum()),
        float(ref2[..., pilot_subcarriers].sum()),
    )


@dataclass
class _Sums:
    """One estimate's sums over the trials of a cell, added in trial order."""

    num_all: float = 0.0
    den_all: float = 0.0
    num_pil: float = 0.0
    den_pil: float = 0.0
    errors: int = 0
    bits: int = 0

    def add_trial(self, state: _ChainState, ctx: _LinkContext, h_hat: np.ndarray) -> None:
        num_all, den_all, num_pil, den_pil = _score_estimate(
            h_hat, state.h_true, ctx.pilot_subcarriers
        )
        errors, bits, _ = _detect_and_count(state, ctx, h_hat)
        self.num_all += num_all
        self.den_all += den_all
        self.num_pil += num_pil
        self.den_pil += den_pil
        self.errors += errors
        self.bits += bits


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
    snrs_db = np.asarray(snrs_db, dtype=np.float64)
    streams = rng.spawn(len(snrs_db) * n_trials)
    model = _correlation_model(system, pdp)
    ls_curve = np.empty(len(snrs_db))
    lmmse_curve = np.empty(len(snrs_db))
    for i, snr_db in enumerate(snrs_db):
        lmmse_factors = _filter_from_model(model, snr_db, ctx.beta)
        noise = NoiseSpec(snr_db)
        acc = {Estimator.LS: [0.0, 0.0], Estimator.LMMSE: [0.0, 0.0]}
        for j in range(n_trials):
            state = _run_chain(ctx, pdp, noise, streams[i * n_trials + j])
            for est, sums in acc.items():
                h_hat = _estimate(state, ctx, est, lmmse_factors)
                num, den, _, _ = _score_estimate(h_hat, state.h_true, ctx.pilot_subcarriers)
                sums[0] += num
                sums[1] += den
        ls_curve[i] = acc[Estimator.LS][0] / acc[Estimator.LS][1]
        lmmse_curve[i] = acc[Estimator.LMMSE][0] / acc[Estimator.LMMSE][1]
    return ls_curve, lmmse_curve


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
    shared by every estimator of the cell.  A trial computes each distinct
    estimate once: the hybrid row copies the sums of the LS or LMMSE estimate
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
            lmmse_factors = None
            if Estimator.LMMSE in cell_methods:
                model = _correlation_model(config.system, pdp)
                lmmse_factors = _filter_from_model(model, snr_db, ctx.beta)
            noise = NoiseSpec(snr_db)
            sums = {m: _Sums() for m in cell_methods}
            for trial in range(config.n_frames):
                rng = _stream(config.seed, _TAG_TRIAL, li, si, trial)
                try:
                    state = _run_chain(ctx, pdp, noise, rng)
                    for method, acc in sums.items():
                        acc.add_trial(state, ctx, _estimate(state, ctx, method, lmmse_factors))
                except Exception as exc:
                    raise RuntimeError(
                        f"trial failed (channel_len={length}, snr_db={snr_db}, "
                        f"trial={trial})"
                    ) from exc
            for est in requested:
                acc = sums[branch if est is Estimator.HYBRID else est]
                records.append(
                    SweepRecord(
                        snr_db=snr_db,
                        channel_len=length,
                        estimator=est,
                        mse_all_subcarriers=acc.num_all / acc.den_all,
                        mse_pilot_subcarriers=acc.num_pil / acc.den_pil,
                        ber=acc.errors / acc.bits,
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
