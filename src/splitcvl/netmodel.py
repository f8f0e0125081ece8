"""Edge devices and wireless links.

A link with bandwidth B (Hz) and linear signal-to-noise ratio S carries at
most B*log2(1+S) bit/s (Shannon capacity). Transmission latency and energy
for a payload follow from that rate and the device's transmit power.

Channel randomness is modeled exogenously: bandwidth is drawn uniformly
from a range and SNR uniformly in dB (then converted to linear), which is
how link budgets are usually specified. No path-loss or mobility model is
attached; the channel is an input.

All types are immutable and all operations are pure, so values can be
shared freely across threads. Sampling maps uniform draws the caller
supplies (``ChannelDistribution.at``), so parallel runs never share RNG
state. Every number must be finite; the constructors reject NaN and
infinities.
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
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"device {self.id!r}: {name} must be finite and > 0")


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
        if not 0 < self.bandwidth_hz < math.inf:
            raise ValueError("bandwidth_hz must be finite and > 0")
        if not 0 <= self.snr_linear < math.inf:
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
        lo, hi = self.bandwidth_range
        if not 0 < lo <= hi < math.inf:
            raise ValueError("bandwidth_range must be finite with 0 < min <= max")
        lo_db, hi_db = self.snr_range_db
        if not -math.inf < lo_db <= hi_db < math.inf:
            raise ValueError("snr_range_db must be finite with min <= max")
        # (low, width) of each range, as Generator.uniform scales a draw
        object.__setattr__(self, "bw_scale", (float(lo), float(hi) - float(lo)))
        object.__setattr__(
            self, "db_scale", (float(lo_db), float(hi_db) - float(lo_db))
        )

    def at(self, u_bw: float, u_snr: float) -> tuple[float, float]:
        """(bandwidth_hz, snr_linear) at uniform draws ``u_bw``, ``u_snr`` in [0, 1).

        A range maps a draw ``u`` to ``low + (high - low) * u``, the float
        ``Generator.uniform`` makes of its single draw, so
        ``at(rng.random(), rng.random())`` equals two ``rng.uniform`` calls,
        down to the OverflowError for a range of non-finite width.
        """
        bw_lo, bw_width = self.bw_scale
        db_lo, db_width = self.db_scale
        if not (math.isfinite(bw_width) and math.isfinite(db_width)):
            raise OverflowError("high - low range exceeds valid bounds")
        return bw_lo + bw_width * u_bw, snr_db_to_linear(db_lo + db_width * u_snr)

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
