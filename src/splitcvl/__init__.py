"""Cost-model simulator and optimizer for split-inference cross-view
localization in a space-air-ground network."""

from .netmodel import (
    ChannelDistribution,
    ChannelState,
    DeviceProfile,
    shannon_rate,
)
from .nnprofile import (
    LayerProfile,
    ModelProfile,
    build_resnet50_usam_profile,
    device_flops,
    intermediate_bytes,
)
from .trico import (
    Scenario,
    TriCoWeights,
    default_scenario,
    optimal_decision,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelDistribution",
    "ChannelState",
    "DeviceProfile",
    "LayerProfile",
    "ModelProfile",
    "Scenario",
    "TriCoWeights",
    "build_resnet50_usam_profile",
    "default_scenario",
    "device_flops",
    "intermediate_bytes",
    "optimal_decision",
    "shannon_rate",
]
