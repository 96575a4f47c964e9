"""Link-level simulator for a 2x2 LTE-style OFDM downlink.

Pilot-based LS, LMMSE and hybrid channel estimation over Rayleigh tap-delay
channels, with true inter-symbol/inter-carrier interference when the channel
exceeds the cyclic prefix, and a reproducible MSE/BER-versus-SNR sweep CLI.
"""

from .channel import (
    ChannelRealization,
    NoiseSpec,
    PowerDelayProfile,
    add_awgn,
    generate_channel,
)
from .estimation import (
    CorrelationModel,
    HybridPolicy,
    beta_for_constellation,
    build_correlation_model,
    calibrate_threshold,
    ls_estimate,
)
from .grid import (
    CellLabel,
    Constellation,
    GridLayout,
    PilotPattern,
    SystemConfig,
    build_pilot_pattern,
)
from .harness import (
    Estimator,
    SweepConfig,
    SweepRecord,
    emit_csv,
    run_sweep,
)
from .kernels import zf_detect_grid
from .linkproc import qpsk_demap, qpsk_map
from .ofdm import demodulate_frame, modulate_frame

__version__ = "0.1.0"

__all__ = [
    "CellLabel",
    "ChannelRealization",
    "Constellation",
    "CorrelationModel",
    "Estimator",
    "GridLayout",
    "HybridPolicy",
    "NoiseSpec",
    "PilotPattern",
    "PowerDelayProfile",
    "SweepConfig",
    "SweepRecord",
    "SystemConfig",
    "add_awgn",
    "beta_for_constellation",
    "build_correlation_model",
    "build_pilot_pattern",
    "calibrate_threshold",
    "demodulate_frame",
    "emit_csv",
    "generate_channel",
    "ls_estimate",
    "modulate_frame",
    "qpsk_demap",
    "qpsk_map",
    "run_sweep",
    "zf_detect_grid",
]
