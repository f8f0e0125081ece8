"""Joint communication / computation / confidentiality cost model.

For one device, one channel and one cut the three raw costs are:

  communication  latency  = intermediate_bytes * 8 / shannon_rate
                 energy   = tx_power * latency
  computation    energy   = device_flops / peak_flops * compute_power
  confidentiality cost    = 1 - [a*kl_open + (1-a)*kl_closed] / max_kl

where max_kl is the table's largest KL. The confidentiality cost is
clipped to [0, 1], and is 1 at every cut when every KL is 0.

The confidentiality direction is deliberate: larger KL divergence between
originals and attack reconstructions means stronger confidentiality, so
the weighted KL ratio is inverted to become a cost. A raw-ratio cost would
reward weak privacy.

Raw communication and computation costs carry physical units, so each is
min-max normalized over the candidate set (per device) before weighting;
a degenerate range (max == min) normalizes to 0. The communication term
blends latency and energy with ``lambda_latency`` after each is scaled.
The effect value of a decision is the weighted sum of the three
normalized terms, averaged over devices, and lies in [0, 1] whenever the
weights sum to 1. The reward used by the optimizer is its additive
inverse.

``EffectKernel`` (built once per scenario as ``Scenario.effect_kernel``)
is the one form of this model. It holds the channel-free terms of every
device and cut as (devices, cuts) arrays, with both sets of min-max
bounds, and maps link rates to the communication terms and the effects.
The cost table, ``effect_table`` and the RL env's blocks of steps all
read it.

``optimal_decision`` is the exact oracle the learning agents are
validated against. The effect of a joint decision is the mean of
independent per-device terms, so each device takes its own minimum; ties
break toward the deeper cut (better confidentiality at equal effect).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ZeroRateError
from .netmodel import (
    ChannelDistribution,
    ChannelState,
    DeviceProfile,
    device_from_kind,
    fits_float,
    resolve_channel,
    shannon_rate,
)
from .nnprofile import (
    ModelProfile,
    build_resnet50_usam_profile,
    device_flops,
    intermediate_bytes,
)


@dataclass(frozen=True)
class ConfEntry:
    """Per-cut KL divergences (nats) of the two attack reconstructions."""

    kl_open: float
    kl_closed: float
    ssim_open: float | None = None   # optional cross-check columns
    ssim_closed: float | None = None

    def __post_init__(self) -> None:
        for name in ("kl_open", "kl_closed"):
            if not 0 <= fits_float(getattr(self, name), name) < math.inf:
                raise ValueError("KL divergences must be finite and >= 0")
        for name in ("ssim_open", "ssim_closed"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= fits_float(value, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


def default_conf_table(num_candidates: int = 5) -> tuple[ConfEntry, ...]:
    """Illustrative monotone table: KL doubles with each deeper cut.

    For five cuts this is (0.5, 1, 2, 4, 8) nats in both columns. These are
    plumbing defaults, not measured values; real tables come from a
    reconstruction corpus via the privacy metrics.
    """
    return tuple(ConfEntry(0.5 * 2**i, 0.5 * 2**i) for i in range(num_candidates))


@dataclass(frozen=True)
class TriCoWeights:
    """Weights of the three cost terms plus two inner mixing knobs."""

    w_comm: float = 1.0 / 3.0
    w_comp: float = 1.0 / 3.0
    w_conf: float = 1.0 / 3.0
    alpha_open: float = 0.5      # open-box share of the KL ratio
    lambda_latency: float = 0.5  # latency share inside the comm term

    def __post_init__(self) -> None:
        for name in ("w_comm", "w_comp", "w_conf"):
            if not fits_float(getattr(self, name), name) >= 0:
                raise ValueError(f"{name} must be a number >= 0")
        total = self.w_comm + self.w_comp + self.w_conf
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"cost weights must sum to 1, got {total}")
        for name in ("alpha_open", "lambda_latency"):
            if not 0.0 <= fits_float(getattr(self, name), name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


class EffectKernel:
    """A scenario's cost model: every device's terms at every cut, as arrays.

    The channel-free terms are (devices, cuts) arrays, built once: payload
    bits, raw computation energy and its per-device min-max, and the
    confidentiality cost (which is also its normalized term). The payload
    bounds and transmit powers are (devices, 1) columns. Rates of shape
    (..., devices) map to communication terms and effects of shape
    (..., devices, cuts). Every element goes through the scalar float
    operations of the cost model in their order, and numpy rounds each one
    as Python floats do, so no result depends on the shape it is computed
    in. Integer counts and constants enter as their floats, so a quotient
    of two integers past 2**53 can differ in the last bit from Python's
    exactly rounded ``int / int``. Rates must be ``feasible``; callers
    deal with the others first.
    A non-finite channel-free term (a computation energy that overflows,
    say, from a subnormal ``peak_flops``, or a FLOP or byte count past the
    largest float, which reads inf) raises ValueError naming the device,
    the term and the cut: its min-max would read inf == inf as a
    degenerate range, or give nan.

    Latency and energy grow with the payload for any positive rate, and
    rounding keeps that order, so the communication min-max bounds are
    the smallest and the largest payload's: the same floats as
    normalizing the full latency and energy vectors, without a pass over
    the cuts.
    """

    def __init__(self, scenario: Scenario):
        profile, weights, devices = scenario.profile, scenario.weights, scenario.devices
        cuts = range(profile.num_candidates)
        self.cut_names = [profile.cut_name(c) for c in cuts]
        # Python floats: bits and FLOPs that overflow read inf, which is
        # rejected below
        bits = [_as_float(intermediate_bytes(profile, c)) * 8.0 for c in cuts]
        self.bits = np.array([bits] * scenario.num_devices)
        self.bits_lo = self.bits.min(axis=1, keepdims=True)
        self.bits_hi = self.bits.max(axis=1, keepdims=True)
        # dtype=float: integer constants meet float arithmetic, as in Python
        self.tx_power_w = np.array([[dev.tx_power_w] for dev in devices], dtype=float)
        flops = np.array([_as_float(device_flops(profile, c)) for c in cuts])
        peak_flops = np.array([[dev.peak_flops] for dev in devices], dtype=float)
        power_w = np.array([[dev.compute_power_w] for dev in devices], dtype=float)
        kl = np.array([(e.kl_open, e.kl_closed) for e in scenario.conf_table], dtype=float)
        max_kl, a = kl.max(), weights.alpha_open
        # an overflow reads inf: an energy is rejected below, a KL ratio clips to 0
        with np.errstate(over="ignore"):
            self.comp_energy_j = comp = flops / peak_flops * power_w
            if max_kl == 0.0:  # reconstructions match everywhere: no confidentiality
                conf = np.ones(len(kl))
            else:
                ratio = (a * kl[:, 0] + (1.0 - a) * kl[:, 1]) / max_kl
                conf = np.clip(1.0 - ratio, 0.0, 1.0)
        self.conf = np.tile(conf, (len(devices), 1))
        for term, values in (("payload bits", self.bits), ("computation energy", comp),
                             ("confidentiality cost", self.conf)):
            if not np.isfinite(values).all():
                d, c = np.argwhere(~np.isfinite(values))[0].tolist()
                raise ValueError(
                    f"device {devices[d].id!r}: {term} at cut "
                    f"{self.cut_names[c]!r} is {float(values[d, c])!r}, not a finite number")
        self.n_comp = _scaled(comp, comp.min(axis=1, keepdims=True),
                              comp.max(axis=1, keepdims=True))
        self.comp_terms = weights.w_comp * self.n_comp
        self.conf_terms = weights.w_conf * self.conf
        self.weights = weights

    def feasible(self, rates: np.ndarray) -> np.ndarray:
        """Whether each rate of shape (..., devices) leaves every cut's
        transmit latency and energy finite: the largest payload's, in the
        float operations of ``comm_terms``. A zero rate is infeasible, and
        so is a positive one too low to carry the payload."""
        with np.errstate(over="ignore", divide="ignore"):
            return np.isfinite(self.tx_power_w[:, 0] * (self.bits_hi[:, 0] / rates))

    def comm_terms(self, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(latency_s, energy_j, n_comm) of every device and cut."""
        rate = rates[..., None]
        # a rate below about 1e-300 overflows a latency to inf, which Python
        # floats give without a warning; so does the kernel, and its masked
        # differences of two infs are never read
        with np.errstate(over="ignore", invalid="ignore"):
            lat = self.bits / rate
            lat_lo = self.bits_lo / rate
            lat_hi = self.bits_hi / rate
            tx_power = self.tx_power_w
            en = tx_power * lat
            n_lat = _scaled(lat, lat_lo, lat_hi)
            n_en = _scaled(en, tx_power * lat_lo, tx_power * lat_hi)
        lam = self.weights.lambda_latency
        return lat, en, lam * n_lat + (1.0 - lam) * n_en

    def __call__(self, rates: np.ndarray) -> np.ndarray:
        """The effect of every device and cut: the weighted sum
        w_comm * n_comm + w_comp * n_comp + w_conf * n_conf."""
        n_comm = self.comm_terms(rates)[2]
        return self.weights.w_comm * n_comm + self.comp_terms + self.conf_terms


def _as_float(count: int) -> float:
    """``float(count)``, or inf where the count is past the largest float."""
    try:
        return float(count)
    except OverflowError:
        return math.inf


def _scaled(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(x - lo) / (hi - lo), and 0.0 where hi == lo, without dividing there."""
    return np.divide(x - lo, hi - lo, out=np.zeros(x.shape), where=hi != lo)


@dataclass(frozen=True)
class Scenario:
    """One optimization instance: devices, channels, model, table, weights."""

    devices: tuple[DeviceProfile, ...]
    channels: tuple[ChannelState | ChannelDistribution, ...]
    profile: ModelProfile
    conf_table: tuple[ConfEntry, ...]  # one row per cut, in candidate order
    weights: TriCoWeights

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("scenario needs at least one device")
        if len(self.channels) != len(self.devices):
            raise ValueError("scenario needs exactly one channel per device")
        rows, cuts = len(self.conf_table), self.profile.num_candidates
        if rows != cuts:
            raise ValueError(
                "confidentiality table must cover all partition candidates with "
                f"one row per cut: got {rows} rows for {cuts} cuts"
            )

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def num_candidates(self) -> int:
        return self.profile.num_candidates

    @cached_property
    def effect_kernel(self) -> EffectKernel:
        """The effect of every device and cut over link rates, built on first use."""
        return EffectKernel(self)


def link_rates(scenario: Scenario) -> np.ndarray:
    """Each device's rate, with distributions at their means;
    ZeroRateError if one is not ``EffectKernel.feasible``."""
    rates = np.array([shannon_rate(resolve_channel(ch)) for ch in scenario.channels])
    feasible = scenario.effect_kernel.feasible(rates)
    if not feasible.all():
        d = int(feasible.argmin())
        raise ZeroRateError(
            f"device {scenario.devices[d].id!r}: link rate {float(rates[d])!r} bit/s "
            "is zero or too low to carry the payload, transmission infeasible")
    return rates


def effect_table(scenario: Scenario) -> list[list[float]]:
    """Per-device effect of every candidate cut, with distributions at
    their means."""
    return scenario.effect_kernel(link_rates(scenario)).tolist()


def optimal_decision(scenario: Scenario) -> tuple[tuple[int, ...], float]:
    """Exact argmin of the effect over every joint decision: one cut per
    device, and the effect.

    Each device takes the deepest cut among its float-equal minima. fsum
    is correctly rounded, hence monotone in each term, so the returned
    effect is the smallest over all candidates^devices decisions, bit for
    bit. The decision can differ from the lexicographically deepest of the
    joint minima only when two different exact sums round to one float.
    """
    cuts, minima = [], []
    for row in effect_table(scenario):
        low = min(row)
        cuts.append(max(c for c, e in enumerate(row) if e == low))
        minima.append(low)
    return tuple(cuts), math.fsum(minima) / len(minima)


CONF_TABLE_HEADER = "cut_name,kl_open,kl_closed,ssim_open,ssim_closed"


def format_conf_table(
    table: tuple[ConfEntry, ...], cut_names: list[str] | None = None
) -> str:
    """CSV confidentiality table, rows in candidate order.

    Absent SSIM columns stay empty. Floats use shortest round-trip decimal
    formatting.
    """
    names = cut_names or [f"cut{i}" for i in range(len(table))]
    if len(names) != len(table):
        raise ValueError("need one cut name per table row")
    lines = [CONF_TABLE_HEADER]
    for name, e in zip(names, table):
        ssim_open = "" if e.ssim_open is None else repr(e.ssim_open)
        ssim_closed = "" if e.ssim_closed is None else repr(e.ssim_closed)
        lines.append(f"{name},{e.kl_open!r},{e.kl_closed!r},{ssim_open},{ssim_closed}")
    return "\n".join(lines) + "\n"


def parse_conf_table(text: str) -> tuple[tuple[ConfEntry, ...], list[str]]:
    from .errors import ConfigError

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != CONF_TABLE_HEADER:
        raise ConfigError(
            f"confidentiality table must start with header {CONF_TABLE_HEADER!r}"
        )
    entries, names = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 5:
            raise ConfigError(f"conf table line {lineno}: expected 5 fields")
        name, kl_open, kl_closed, ssim_open, ssim_closed = (p.strip() for p in parts)
        try:
            entries.append(
                ConfEntry(
                    kl_open=float(kl_open),
                    kl_closed=float(kl_closed),
                    ssim_open=float(ssim_open) if ssim_open else None,
                    ssim_closed=float(ssim_closed) if ssim_closed else None,
                )
            )
        except ValueError as exc:
            raise ConfigError(f"conf table line {lineno}: {exc}") from exc
        names.append(name)
    return tuple(entries), names


COST_TABLE_HEADER = (
    "device,cut_name,comm_latency_s,comm_energy_j,comp_energy_j,"
    "conf_cost,n_comm,n_comp,n_conf,effect"
)


def format_cost_table(scenario: Scenario) -> str:
    """CSV cost table, one row per (device, candidate cut), with
    distributions at their means.

    Floats use shortest round-trip decimal formatting, so re-running a
    scenario reproduces the file byte for byte.
    """
    kernel = scenario.effect_kernel
    rates = link_rates(scenario)
    lat, en, n_comm = kernel.comm_terms(rates)
    # in header order; the confidentiality cost is also its normalized term
    columns = (lat, en, kernel.comp_energy_j, kernel.conf, n_comm, kernel.n_comp,
               kernel.conf, kernel(rates))
    lines = [COST_TABLE_HEADER]
    for dev, *rows in zip(scenario.devices, *(c.tolist() for c in columns)):
        for name, *values in zip(kernel.cut_names, *rows):
            lines.append(",".join([dev.id, name, *map(repr, values)]))
    return "\n".join(lines) + "\n"


def default_scenario() -> Scenario:
    """The stock 2-device, 5-cut instance used by examples and tests.

    One UAV and one vehicle with the standard device constants, both on a
    5..20 MHz / 5..15 dB channel, the 224x224 backbone profile, the
    monotone confidentiality table and equal weights.
    """
    profile = build_resnet50_usam_profile(224, 224)
    dist = ChannelDistribution(bandwidth_range=(5e6, 20e6), snr_range_db=(5.0, 15.0))
    return Scenario(
        devices=(device_from_kind("uav1", "uav"), device_from_kind("veh1", "vehicle")),
        channels=(dist, dist),
        profile=profile,
        conf_table=default_conf_table(profile.num_candidates),
        weights=TriCoWeights(),
    )
