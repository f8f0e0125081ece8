"""Edge devices and wireless links.

A link with bandwidth B (Hz) and linear signal-to-noise ratio S carries at
most B*log2(1+S) bit/s (Shannon capacity). Transmission latency and energy
for a payload follow from that rate and the device's transmit power.

Channel randomness is modeled exogenously: bandwidth is drawn uniformly
from a range and SNR uniformly in dB (then converted to linear), which is
how link budgets are usually specified. No path-loss or mobility model is
attached; the channel is an input.

All types are immutable and all operations are pure, so values can be
shared freely across threads. A distribution holds only its two ranges:
the cost model reads its ``mean_channel``, and the RL env bins and draws
channels from the ranges itself. Every number must be finite; the
constructors reject NaN, infinities, booleans and integers past the
largest float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Default device constants per kind; its keys are the only device kinds.
# The UAV is modeled on a Quadro P400 class board (0.641 TFLOPS FP32, 30 W
# max draw); the vehicle on a DRIVE AGX Xavier class board (1.3 TFLOPS
# FP32). The vehicle wattage and both transmit powers are artifact
# defaults, overridable per device in the scenario config.
KIND_DEFAULTS: dict[str, dict[str, float]] = {
    "uav": {"peak_flops": 0.641e12, "compute_power_w": 30.0, "tx_power_w": 1.0},
    "vehicle": {"peak_flops": 1.3e12, "compute_power_w": 30.0, "tx_power_w": 2.0},
}


def fits_float(value, name: str):
    """``value`` itself, once ``float(value)`` is known not to overflow;
    ValueError naming ``name`` for an integer past the largest float,
    which every float operation downstream would refuse with OverflowError,
    and for a bool, which Python would otherwise count as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer past the "
                         "largest float") from None
    return value


@dataclass(frozen=True)
class DeviceProfile:
    """One terminal device (UAV or vehicle) running the front model part."""

    id: str
    kind: str
    peak_flops: float        # FLOP/s at full compute load
    compute_power_w: float   # W drawn at full compute load
    tx_power_w: float        # W drawn while transmitting

    def __post_init__(self) -> None:
        if self.kind not in KIND_DEFAULTS:
            raise ValueError(f"device {self.id!r}: unknown kind {self.kind!r}")
        for name in ("peak_flops", "compute_power_w", "tx_power_w"):
            field = f"device {self.id!r}: {name}"
            if not 0 < fits_float(getattr(self, name), field) < math.inf:
                raise ValueError(f"{field} must be finite and > 0")


def device_from_kind(id: str, kind: str, **overrides) -> DeviceProfile:
    """Build a DeviceProfile from per-kind defaults plus overrides."""
    if kind not in KIND_DEFAULTS:
        raise ValueError(f"unknown kind {kind!r}; allowed: {sorted(KIND_DEFAULTS)}")
    fields = dict(KIND_DEFAULTS[kind])
    fields.update(overrides)
    return DeviceProfile(id=id, kind=kind, **fields)


@dataclass(frozen=True)
class ChannelState:
    """A concrete link realization."""

    bandwidth_hz: float
    snr_linear: float  # dimensionless, linear scale

    def __post_init__(self) -> None:
        if not 0 < fits_float(self.bandwidth_hz, "bandwidth_hz") < math.inf:
            raise ValueError("bandwidth_hz must be finite and > 0")
        if not 0 <= fits_float(self.snr_linear, "snr_linear") < math.inf:
            raise ValueError("snr_linear must be finite and >= 0")


@dataclass(frozen=True)
class ChannelDistribution:
    """Uniform ranges the link state is drawn from.

    Bandwidth is uniform in Hz over ``bandwidth_range``; SNR is uniform in
    dB over ``snr_range_db`` and converted to linear after sampling.
    """

    bandwidth_range: tuple[float, float]  # (min_hz, max_hz)
    snr_range_db: tuple[float, float]     # (min_db, max_db)

    def __post_init__(self) -> None:
        lo, hi = (fits_float(x, "bandwidth_range") for x in self.bandwidth_range)
        if not 0 < lo <= hi < math.inf:
            raise ValueError("bandwidth_range must be finite with 0 < min <= max")
        lo_db, hi_db = (fits_float(x, "snr_range_db") for x in self.snr_range_db)
        if not -math.inf < lo_db <= hi_db < math.inf:
            raise ValueError("snr_range_db must be finite with min <= max")

    def mean_channel(self) -> ChannelState:
        """Midpoint channel, in the sampling parameterization (SNR in dB).

        Halving is exact, so ``0.5 * lo + 0.5 * hi`` is the float
        ``0.5 * (lo + hi)`` gives, without overflowing near the float limit.
        """
        bw = 0.5 * self.bandwidth_range[0] + 0.5 * self.bandwidth_range[1]
        db = 0.5 * self.snr_range_db[0] + 0.5 * self.snr_range_db[1]
        return ChannelState(bandwidth_hz=bw, snr_linear=snr_db_to_linear(db))


def snr_db_to_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def shannon_rate(ch: ChannelState) -> float:
    """Capacity B*log2(1+SNR) in bit/s; 0 when the SNR is 0."""
    return ch.bandwidth_hz * math.log2(1.0 + ch.snr_linear)


def resolve_channel(ch: ChannelState | ChannelDistribution) -> ChannelState:
    """Fixed channels pass through; distributions collapse to their mean."""
    if isinstance(ch, ChannelDistribution):
        return ch.mean_channel()
    return ch
