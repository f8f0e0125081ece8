"""Joint communication / computation / confidentiality cost model.

For one device, one channel and one cut the three raw costs are:

  communication  latency  = intermediate_bytes * 8 / shannon_rate
                 energy   = tx_power * latency
  computation    energy   = device_flops / peak_flops * compute_power
  confidentiality cost    = 1 - [a*kl_open + (1-a)*kl_closed] / kl_max

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

``optimal_decision`` is the exact oracle the learning agents are
validated against. The effect of a joint decision is the mean of
independent per-device terms, so each device takes its own minimum; ties
break toward the deeper cut (better confidentiality at equal effect).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import MissingEntryError, ZeroRateError
from .netmodel import (
    ChannelDistribution,
    ChannelState,
    DeviceProfile,
    device_from_kind,
    resolve_channel,
    shannon_rate,
)
from .nnprofile import (
    ModelProfile,
    build_resnet50_usam_profile,
    device_flops,
    intermediate_bytes,
    _cut_index,
)


@dataclass(frozen=True)
class ConfEntry:
    """Per-cut KL divergences (nats) of the two attack reconstructions."""

    kl_open: float
    kl_closed: float
    ssim_open: float | None = None   # optional cross-check columns
    ssim_closed: float | None = None

    def __post_init__(self) -> None:
        if self.kl_open < 0 or self.kl_closed < 0:
            raise ValueError("KL divergences must be >= 0")
        for name in ("ssim_open", "ssim_closed"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class ConfidentialityTable:
    """One ConfEntry per partition candidate, in candidate order."""

    entries: tuple[ConfEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("confidentiality table must not be empty")
        object.__setattr__(
            self,
            "_kl_max",
            max(max(e.kl_open, e.kl_closed) for e in self.entries),
        )

    @property
    def kl_max(self) -> float:
        return self._kl_max

    def entry(self, cut_index: int) -> ConfEntry:
        if not 0 <= cut_index < len(self.entries):
            raise MissingEntryError(
                f"confidentiality table has no entry for cut {cut_index}"
            )
        return self.entries[cut_index]


def default_conf_table(num_candidates: int = 5) -> ConfidentialityTable:
    """Illustrative monotone table: KL doubles with each deeper cut.

    For five cuts this is (0.5, 1, 2, 4, 8) nats in both columns. These are
    plumbing defaults, not measured values; real tables come from a
    reconstruction corpus via the privacy metrics.
    """
    return ConfidentialityTable(
        tuple(ConfEntry(0.5 * 2**i, 0.5 * 2**i) for i in range(num_candidates))
    )


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
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be a number >= 0")
        total = self.w_comm + self.w_comp + self.w_conf
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"cost weights must sum to 1, got {total}")
        if not 0.0 <= self.alpha_open <= 1.0:
            raise ValueError("alpha_open must lie in [0, 1]")
        if not 0.0 <= self.lambda_latency <= 1.0:
            raise ValueError("lambda_latency must lie in [0, 1]")


@dataclass(frozen=True)
class TriCoBreakdown:
    """Raw and normalized costs of one (device, cut) pair."""

    cut_name: str
    comm_latency_s: float
    comm_energy_j: float
    comp_energy_j: float
    conf_cost: float
    n_comm: float
    n_comp: float
    n_conf: float
    effect: float


@dataclass(frozen=True)
class CutCosts:
    """The channel-free cost terms of one device at every candidate cut.

    Only the communication term depends on the channel, so a scenario
    computes the rest once per device: the per-cut payload, the raw and
    normalized computation energy, and the confidentiality cost (which is
    also its normalized term). Latency and energy grow with the payload
    for any positive rate, and rounding keeps that order, so the
    communication min-max bounds are the smallest and the largest
    payload's; ``comm_terms`` needs no pass over the cuts and yields the
    same floats as normalizing the full latency and energy vectors.

    Each cut's payload in bits and its weighted computation and
    confidentiality terms are computed once, when the costs are built.
    ``effect`` evaluates ``comm_terms`` and ``effect_value`` on them in
    one frame, with every float operation in the same order, so it
    returns the same float as ``effect_value(weights, comm_terms(rate,
    cut)[2], n_comp[cut], conf[cut])``.
    """

    cut_names: tuple[str, ...]
    payload_bytes: tuple[int, ...]
    comp_energy_j: tuple[float, ...]
    n_comp: tuple[float, ...]
    conf: tuple[float, ...]
    tx_power_w: float
    weights: TriCoWeights

    @classmethod
    def build(
        cls,
        dev: DeviceProfile,
        profile: ModelProfile,
        table: ConfidentialityTable,
        weights: TriCoWeights,
    ) -> "CutCosts":
        cuts = range(profile.num_candidates)
        comps = [comp_cost(dev, profile, c) for c in cuts]
        return cls(
            cut_names=tuple(profile.cut_name(c) for c in cuts),
            payload_bytes=tuple(intermediate_bytes(profile, c) for c in cuts),
            comp_energy_j=tuple(comps),
            n_comp=tuple(_minmax(comps)),
            conf=tuple(conf_cost(table, c, weights.alpha_open) for c in cuts),
            tx_power_w=dev.tx_power_w,
            weights=weights,
        )

    def __post_init__(self) -> None:
        w = self.weights
        object.__setattr__(self, "_bits", tuple(b * 8.0 for b in self.payload_bytes))
        object.__setattr__(self, "_bits_lo", min(self.payload_bytes) * 8.0)
        object.__setattr__(self, "_bits_hi", max(self.payload_bytes) * 8.0)
        object.__setattr__(self, "_w_comp_terms", tuple(w.w_comp * n for n in self.n_comp))
        object.__setattr__(self, "_w_conf_terms", tuple(w.w_conf * c for c in self.conf))

    def comm_terms(self, rate_bps: float, cut: int) -> tuple[float, float, float]:
        """(latency_s, energy_j, n_comm) of one cut over a link of ``rate_bps``."""
        if rate_bps <= 0:
            raise ZeroRateError("link rate is zero, transmission infeasible")
        lat = self._bits[cut] / rate_bps
        lat_lo = self._bits_lo / rate_bps
        lat_hi = self._bits_hi / rate_bps
        tx_power = self.tx_power_w
        en = tx_power * lat
        en_lo = tx_power * lat_lo
        en_hi = tx_power * lat_hi
        n_lat = 0.0 if lat_hi == lat_lo else (lat - lat_lo) / (lat_hi - lat_lo)
        n_en = 0.0 if en_hi == en_lo else (en - en_lo) / (en_hi - en_lo)
        lam = self.weights.lambda_latency
        return lat, en, lam * n_lat + (1.0 - lam) * n_en

    def effect(self, rate_bps: float, cut: int) -> float:
        """Effect value of one cut over a link of ``rate_bps``."""
        if rate_bps <= 0:
            raise ZeroRateError("link rate is zero, transmission infeasible")
        lat = self._bits[cut] / rate_bps
        lat_lo = self._bits_lo / rate_bps
        lat_hi = self._bits_hi / rate_bps
        tx_power = self.tx_power_w
        en = tx_power * lat
        en_lo = tx_power * lat_lo
        en_hi = tx_power * lat_hi
        n_lat = 0.0 if lat_hi == lat_lo else (lat - lat_lo) / (lat_hi - lat_lo)
        n_en = 0.0 if en_hi == en_lo else (en - en_lo) / (en_hi - en_lo)
        w = self.weights
        lam = w.lambda_latency
        return (w.w_comm * (lam * n_lat + (1.0 - lam) * n_en)
                + self._w_comp_terms[cut] + self._w_conf_terms[cut])

    def breakdowns(self, ch: ChannelState) -> list[TriCoBreakdown]:
        """Raw and normalized costs of every cut under one channel."""
        rate = shannon_rate(ch)
        rows = []
        for c, name in enumerate(self.cut_names):
            lat, en, n_comm = self.comm_terms(rate, c)
            rows.append(
                TriCoBreakdown(
                    cut_name=name,
                    comm_latency_s=lat,
                    comm_energy_j=en,
                    comp_energy_j=self.comp_energy_j[c],
                    conf_cost=self.conf[c],
                    n_comm=n_comm,
                    n_comp=self.n_comp[c],
                    n_conf=self.conf[c],
                    effect=effect_value(
                        self.weights, n_comm, self.n_comp[c], self.conf[c]
                    ),
                )
            )
        return rows


@dataclass(frozen=True)
class Scenario:
    """One optimization instance: devices, channels, model, table, weights."""

    devices: tuple[DeviceProfile, ...]
    channels: tuple[ChannelState | ChannelDistribution, ...]
    profile: ModelProfile
    conf_table: ConfidentialityTable
    weights: TriCoWeights

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("scenario needs at least one device")
        if len(self.channels) != len(self.devices):
            raise ValueError("scenario needs exactly one channel per device")
        rows, cuts = len(self.conf_table.entries), self.profile.num_candidates
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
    def cut_costs(self) -> tuple[CutCosts, ...]:
        """Per-device channel-free cost terms, computed on first use."""
        return tuple(
            CutCosts.build(dev, self.profile, self.conf_table, self.weights)
            for dev in self.devices
        )

    def resolved_channels(self) -> tuple[ChannelState, ...]:
        return tuple(resolve_channel(ch) for ch in self.channels)


@dataclass(frozen=True)
class PartitionDecision:
    """One candidate index per device."""

    cuts: tuple[int, ...]


def comp_cost(dev: DeviceProfile, profile: ModelProfile, cut: int) -> float:
    """Energy (J) the device spends on its side of the forward pass."""
    return device_flops(profile, cut) / dev.peak_flops * dev.compute_power_w


def conf_cost(table: ConfidentialityTable, cut: int, alpha_open: float = 0.5) -> float:
    """Confidentiality cost in [0, 1]; 0 at the table's KL maximum.

    When every KL in the table is zero (reconstructions match originals
    everywhere) there is no confidentiality anywhere and the cost is 1.
    """
    entry = table.entry(int(cut))
    kl_max = table.kl_max
    if kl_max == 0.0:
        return 1.0
    ratio = (alpha_open * entry.kl_open + (1.0 - alpha_open) * entry.kl_closed) / kl_max
    return min(1.0, max(0.0, 1.0 - ratio))


def _minmax(values: list[float]) -> list[float]:
    """Min-max scale to [0, 1]; a degenerate range maps everything to 0."""
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0 for _ in values]
    return [(v - lo) / (hi - lo) for v in values]


def effect_value(
    weights: TriCoWeights, n_comm: float, n_comp: float, n_conf: float
) -> float:
    return weights.w_comm * n_comm + weights.w_comp * n_comp + weights.w_conf * n_conf


def scenario_breakdowns(
    scenario: Scenario, channels: tuple[ChannelState, ...] | None = None
) -> list[list[TriCoBreakdown]]:
    """Per-device candidate cost tables, with distributions at their means
    unless concrete channels are supplied."""
    chans = channels if channels is not None else scenario.resolved_channels()
    return [costs.breakdowns(ch) for costs, ch in zip(scenario.cut_costs, chans)]


def effect_table(
    scenario: Scenario, channels: tuple[ChannelState, ...] | None = None
) -> list[list[float]]:
    """Per-device effect of every candidate cut, with distributions at
    their means unless concrete channels are supplied."""
    chans = channels if channels is not None else scenario.resolved_channels()
    table = []
    for costs, ch in zip(scenario.cut_costs, chans):
        rate = shannon_rate(ch)
        table.append([costs.effect(rate, c) for c in range(len(costs.cut_names))])
    return table


def decision_effect(
    scenario: Scenario,
    decision: PartitionDecision,
    channels: tuple[ChannelState, ...] | None = None,
) -> float:
    """Effect of one joint decision: mean of the per-device effects.

    Only the chosen cut of each device is evaluated. fsum keeps the mean
    exactly permutation invariant in device order.
    """
    if len(decision.cuts) != scenario.num_devices:
        raise ValueError("decision must assign one cut per device")
    chans = channels if channels is not None else scenario.resolved_channels()
    profile = scenario.profile
    per_device = [
        costs.effect(shannon_rate(ch), _cut_index(profile, c))
        for costs, ch, c in zip(scenario.cut_costs, chans, decision.cuts, strict=True)
    ]
    return math.fsum(per_device) / len(per_device)


def optimal_decision(
    scenario: Scenario, channels: tuple[ChannelState, ...] | None = None
) -> tuple[PartitionDecision, float]:
    """Exact argmin of the effect over every joint decision.

    Each device takes the deepest cut among its float-equal minima. fsum
    is correctly rounded, hence monotone in each term, so the returned
    effect is the smallest over all candidates^devices decisions, bit for
    bit. The decision can differ from the lexicographically deepest of the
    joint minima only when two different exact sums round to one float.
    """
    cuts, minima = [], []
    for row in effect_table(scenario, channels):
        low = min(row)
        cuts.append(max(c for c, e in enumerate(row) if e == low))
        minima.append(low)
    return PartitionDecision(tuple(cuts)), math.fsum(minima) / len(minima)


CONF_TABLE_HEADER = "cut_name,kl_open,kl_closed,ssim_open,ssim_closed"


def format_conf_table(
    table: ConfidentialityTable, cut_names: list[str] | None = None
) -> str:
    """CSV confidentiality table, rows in candidate order.

    Absent SSIM columns stay empty. Floats use shortest round-trip decimal
    formatting.
    """
    names = cut_names or [f"cut{i}" for i in range(len(table.entries))]
    if len(names) != len(table.entries):
        raise ValueError("need one cut name per table entry")
    lines = [CONF_TABLE_HEADER]
    for name, e in zip(names, table.entries):
        ssim_open = "" if e.ssim_open is None else repr(e.ssim_open)
        ssim_closed = "" if e.ssim_closed is None else repr(e.ssim_closed)
        lines.append(f"{name},{e.kl_open!r},{e.kl_closed!r},{ssim_open},{ssim_closed}")
    return "\n".join(lines) + "\n"


def parse_conf_table(text: str) -> tuple[ConfidentialityTable, list[str]]:
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
    try:
        return ConfidentialityTable(tuple(entries)), names
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


COST_TABLE_HEADER = (
    "device,cut_name,comm_latency_s,comm_energy_j,comp_energy_j,"
    "conf_cost,n_comm,n_comp,n_conf,effect"
)


def format_cost_table(
    scenario: Scenario, tables: list[list[TriCoBreakdown]] | None = None
) -> str:
    """CSV cost table, one row per (device, candidate cut).

    Floats use shortest round-trip decimal formatting, so re-running a
    scenario reproduces the file byte for byte.
    """
    if tables is None:
        tables = scenario_breakdowns(scenario)
    lines = [COST_TABLE_HEADER]
    for dev, rows in zip(scenario.devices, tables):
        for r in rows:
            lines.append(
                f"{dev.id},{r.cut_name},{r.comm_latency_s!r},{r.comm_energy_j!r},"
                f"{r.comp_energy_j!r},{r.conf_cost!r},{r.n_comm!r},{r.n_comp!r},"
                f"{r.n_conf!r},{r.effect!r}"
            )
    return "\n".join(lines) + "\n"


def default_scenario(seeded_conf: ConfidentialityTable | None = None) -> Scenario:
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
        conf_table=seeded_conf or default_conf_table(profile.num_candidates),
        weights=TriCoWeights(),
    )
