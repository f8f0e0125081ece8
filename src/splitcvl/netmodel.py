"""Edge devices and wireless links.

A link with bandwidth B (Hz) and linear signal-to-noise ratio S carries at
most B*log2(1+S) bit/s (Shannon capacity). Transmission latency and energy
for a payload follow from that rate and the device's transmit power.

Channel randomness is modeled exogenously: bandwidth is drawn uniformly
from a range and SNR uniformly in dB (then converted to linear), which is
how link budgets are usually specified. No path-loss or mobility model is
attached; the channel is an input.

All types are immutable and all operations are pure, so values can be
shared freely across threads. Sampling takes an explicit numpy Generator
so parallel runs never share RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroRateError

DEVICE_KINDS = ("uav", "vehicle")

# Default device constants. The UAV is modeled on a Quadro P400 class
# board (0.641 TFLOPS FP32, 30 W max draw); the vehicle on a DRIVE AGX
# Xavier class board (1.3 TFLOPS FP32). The vehicle wattage and both
# transmit powers are artifact defaults, overridable per device in the
# scenario config.
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
        if self.kind not in DEVICE_KINDS:
            raise ValueError(f"device {self.id!r}: unknown kind {self.kind!r}")
        if self.peak_flops <= 0:
            raise ValueError(f"device {self.id!r}: peak_flops must be > 0")
        if self.compute_power_w <= 0:
            raise ValueError(f"device {self.id!r}: compute_power_w must be > 0")
        if self.tx_power_w <= 0:
            raise ValueError(f"device {self.id!r}: tx_power_w must be > 0")


def device_from_kind(id: str, kind: str, **overrides) -> DeviceProfile:
    """Build a DeviceProfile from per-kind defaults plus overrides."""
    if kind not in KIND_DEFAULTS:
        raise ValueError(f"unknown device kind {kind!r}")
    fields = dict(KIND_DEFAULTS[kind])
    fields.update(overrides)
    return DeviceProfile(id=id, kind=kind, **fields)


@dataclass(frozen=True)
class ChannelState:
    """A concrete link realization."""

    bandwidth_hz: float
    snr_linear: float  # dimensionless, linear scale

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be > 0")
        if self.snr_linear < 0:
            raise ValueError("snr_linear must be >= 0")


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
        if lo <= 0 or lo > hi:
            raise ValueError("bandwidth_range must satisfy 0 < min <= max")
        lo_db, hi_db = self.snr_range_db
        if lo_db > hi_db:
            raise ValueError("snr_range_db must satisfy min <= max")
        # (low, width) of each range, as Generator.uniform scales a draw
        object.__setattr__(self, "_bw_scale", (float(lo), float(hi) - float(lo)))
        object.__setattr__(
            self, "_db_scale", (float(lo_db), float(hi_db) - float(lo_db))
        )

    def at(self, u_bw: float, u_snr: float) -> tuple[float, float]:
        """(bandwidth_hz, snr_linear) at uniform draws ``u_bw``, ``u_snr`` in [0, 1).

        A range maps a draw ``u`` to ``low + (high - low) * u``, the float
        ``Generator.uniform`` makes of its single draw, so
        ``at(rng.random(), rng.random())`` equals two ``rng.uniform`` calls,
        down to the OverflowError for a range of non-finite width.
        """
        bw_lo, bw_width = self._bw_scale
        db_lo, db_width = self._db_scale
        if not (math.isfinite(bw_width) and math.isfinite(db_width)):
            raise OverflowError("high - low range exceeds valid bounds")
        return bw_lo + bw_width * u_bw, snr_db_to_linear(db_lo + db_width * u_snr)

    def mean_channel(self) -> ChannelState:
        """Midpoint channel, in the sampling parameterization (SNR in dB)."""
        bw = 0.5 * (self.bandwidth_range[0] + self.bandwidth_range[1])
        db = 0.5 * (self.snr_range_db[0] + self.snr_range_db[1])
        return ChannelState(bandwidth_hz=bw, snr_linear=snr_db_to_linear(db))


def snr_db_to_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def shannon_rate(ch: ChannelState) -> float:
    """Capacity B*log2(1+SNR) in bit/s; 0 when the SNR is 0."""
    return ch.bandwidth_hz * math.log2(1.0 + ch.snr_linear)


def tx_latency(payload_bytes: float, rate_bps: float) -> float:
    """Seconds to push ``payload_bytes`` through a link at ``rate_bps``."""
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be >= 0")
    if rate_bps <= 0:
        raise ZeroRateError("link rate is zero, transmission infeasible")
    return payload_bytes * 8.0 / rate_bps


def tx_energy(tx_power_w: float, latency_s: float) -> float:
    """Joules spent transmitting for ``latency_s`` at ``tx_power_w``."""
    if tx_power_w < 0 or latency_s < 0:
        raise ValueError("tx_energy inputs must be >= 0")
    return tx_power_w * latency_s


def sample_channel(dist: ChannelDistribution, rng: np.random.Generator) -> ChannelState:
    """Draw one channel state; deterministic for a given generator state.

    Bandwidth takes the first draw, SNR the second.
    """
    bw, snr = dist.at(rng.random(), rng.random())
    return ChannelState(bandwidth_hz=bw, snr_linear=snr)


def resolve_channel(ch: ChannelState | ChannelDistribution) -> ChannelState:
    """Fixed channels pass through; distributions collapse to their mean."""
    if isinstance(ch, ChannelDistribution):
        return ch.mean_channel()
    return ch
