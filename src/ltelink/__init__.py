"""Link-level simulator for a 2x2 LTE-style OFDM downlink.

Pilot-based LS, LMMSE and hybrid channel estimation over Rayleigh tap-delay
channels, with true inter-symbol/inter-carrier interference when the channel
exceeds the cyclic prefix, and a reproducible MSE/BER-versus-SNR sweep CLI.
The package exports the configuration and sweep API, linkproc's Constellation
included; the stages of the link (ofdm, channel, estimation, kernels,
linkproc) are imported from their modules.
"""

from .channel import ChannelRealization, PowerDelayProfile
from .estimation import CorrelationModel, calibrate_threshold
from .grid import GridLayout, PilotPattern, SystemConfig
from .harness import Estimator, SweepConfig, SweepRecord, emit_csv, run_sweep
from .linkproc import Constellation

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization",
    "Constellation",
    "CorrelationModel",
    "Estimator",
    "GridLayout",
    "PilotPattern",
    "PowerDelayProfile",
    "SweepConfig",
    "SweepRecord",
    "SystemConfig",
    "calibrate_threshold",
    "emit_csv",
    "run_sweep",
]
