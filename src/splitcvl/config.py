"""Scenario configuration loading and validation.

Configs are YAML files with explicit sections. Unknown keys are rejected
anywhere in the tree so typos fail loudly instead of silently falling
back to defaults. Every module-level invariant is checked at load time
and reported with the offending key path.

Sections (all optional unless a command needs them):

  devices:          list of DeviceProfile fields {id, kind, peak_flops?,
                    compute_power_w?, tx_power_w?}; omitted numbers fall
                    back to the per-kind defaults
  channels:         per device id, either {fixed: {bandwidth_hz,
                    snr_db | snr_linear}} or {distribution: {bandwidth_hz:
                    [lo, hi], snr_db: [lo, hi]}}
  model:            {builtin: resnet50_usam, input_h? (224), input_w? (224),
                    usam_flops_fraction?} or {profile_file: path}
  confidentiality:  {table: [ConfEntry fields, ...]}, one row per cut in
                    candidate order, or {corpus_dir: path}, or
                    {table_file: path}; omitted entirely means the
                    monotone default table
  weights:          TriCoWeights fields
  optimizer:        OptimizerConfig fields; hyper: Hyperparams fields
  retrieval:        RetrievalConfig fields; noise: ViewNoise fields

Each key is read by the type of its dataclass field. Integer keys take an
int or a float with an integral value, so 1.0e3 is 1000 and 2.5 is an
error; seeds must be >= 0. Name keys (id, kind, agent, fusion) take a
scalar as its text, so ``id: 7`` is "7"; a list or mapping is an error.
An omitted key takes the default of the dataclass or builder that
receives it; only input_h and input_w default here. A whole top-level
section may be null, meaning all defaults; a nested one may not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, asdict, dataclass, fields as dataclass_fields
from pathlib import Path

import yaml

from .errors import ConfigError, DimensionError
from .netmodel import (
    ChannelDistribution,
    ChannelState,
    DeviceProfile,
    device_from_kind,
    shannon_rate,
    snr_db_to_linear,
)
from .nnprofile import ModelProfile, build_resnet50_usam_profile, load_profile
from .rlopt.agents import AGENTS, Hyperparams
from .trico import (
    ConfEntry,
    ConfidentialityTable,
    Scenario,
    TriCoWeights,
    default_conf_table,
    parse_conf_table,
)

# libyaml's scanner and parser feed the same SafeConstructor and implicit
# resolvers as yaml.SafeLoader, so both build the same objects; the C one
# is several times faster, and the pure-Python one is only for PyYAML
# builds without libyaml
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class OptimizerConfig:
    agent: str = "q_learning"
    steps: int = 3000
    seed: int = 0
    bandwidth_bins: int = 1
    snr_bins: int = 2
    hyper: Hyperparams = Hyperparams()

    def __post_init__(self) -> None:
        if self.agent not in AGENTS:
            raise ValueError(
                f"unknown agent {self.agent!r}; choose one of {sorted(AGENTS)}"
            )
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.bandwidth_bins < 1 or self.snr_bins < 1:
            raise ValueError("bandwidth_bins and snr_bins must be >= 1")


@dataclass(frozen=True)
class ViewNoise:
    """Embedding noise of each view's images."""

    satellite: float = 0.0
    uav: float = 0.5
    ground: float = 0.5


@dataclass(frozen=True)
class RetrievalConfig:
    locations: int = 200
    dim: int = 64
    seeds: int = 10
    seed: int = 0
    noise: ViewNoise = ViewNoise()
    images_per_view: int = 4
    fusion: str = "mean"

    def __post_init__(self) -> None:
        if self.locations < 2 or self.dim < 2:
            raise ValueError("locations and dim must be >= 2")
        if self.seeds < 1 or self.images_per_view < 1:
            raise ValueError("seeds and images_per_view must be >= 1")
        if min(vars(self.noise).values()) < 0:
            raise ValueError("noise must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.fusion not in ("mean", "max_score"):
            raise ValueError(f"fusion must be 'mean' or 'max_score', got {self.fusion!r}")

    @property
    def view_noise(self) -> dict[str, float]:
        return asdict(self.noise)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: Scenario | None
    optimizer: OptimizerConfig
    retrieval: RetrievalConfig
    profile: ModelProfile | None


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed: set[str], path: str) -> None:
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(
            f"{path}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _coerce_number(value, path: str):
    # YAML 1.1 reads exponents without a sign ("1.0e6") as strings, so
    # numeric-looking strings are accepted too; NaN and infinities are not
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            float(value)  # every number meets float arithmetic downstream
        except OverflowError:
            raise ConfigError(f"{path}: expected a finite number, got an integer "
                              "past the largest float") from None
        return value
    if isinstance(value, float) and math.isfinite(value):
        return value
    raise ConfigError(f"{path}: expected a finite number, got {value!r}")


def _coerce_int(value, path: str) -> int:
    """An int, or a float with an integral value (``1.0e3`` is 1000)."""
    number = _coerce_number(value, path)
    if isinstance(number, float) and not number.is_integer():
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(number)


def _get_number(node: dict, key: str, path: str):
    if key not in node:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return _coerce_number(node[key], f"{path}.{key}")


def _read_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def _read_name(value, path: str) -> str:
    """A scalar as its text (``id: 7`` is ``"7"``); a list or mapping is an error."""
    if isinstance(value, (list, dict, set)):
        raise ConfigError(f"{path}: expected a name, got {type(value).__name__}")
    return str(value)


def _read_int_tuple(value, path: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of ints")
    return tuple(_coerce_int(v, f"{path}[{i}]") for i, v in enumerate(value))


@functools.cache
def _field_readers(cls) -> tuple[dict, tuple[str, ...]]:
    """``cls``'s reader per field name, and its fields without a default."""
    readers, required = {}, []
    for f in dataclass_fields(cls):
        if f.type not in _READERS:
            raise TypeError(f"{cls.__name__}.{f.name}: no config reader for {f.type!r}")
        readers[f.name] = _READERS[f.type]
        if f.default is MISSING:
            required.append(f.name)
    return readers, tuple(required)


def _read_fields(cls, node, path: str) -> dict:
    """The keys ``node`` sets, each read by the type of ``cls``'s field."""
    node = _require_mapping(node, path)
    readers, _ = _field_readers(cls)
    _check_keys(node, readers.keys(), path)
    return {key: readers[key](value, f"{path}.{key}") for key, value in node.items()}


def _read(cls, node, path: str):
    """A ``cls`` built from a mapping; omitted keys take the class defaults."""
    values = _read_fields(cls, node, path)
    for name in _field_readers(cls)[1]:
        if name not in values:
            raise ConfigError(f"{path}: missing required key {name!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# the reader of each field annotation the config dataclasses use; under
# ``from __future__ import annotations`` an annotation is its source text
_READERS = {
    "int": _coerce_int,
    "float": _coerce_number,
    "float | None": _coerce_number,  # None is only the default; null is an error
    "bool": _read_bool,
    "str": _read_name,
    "tuple[int, ...]": _read_int_tuple,
    "Hyperparams": functools.partial(_read, Hyperparams),
    "ViewNoise": functools.partial(_read, ViewNoise),
}


def _parse_devices(node, path: str) -> tuple[DeviceProfile, ...]:
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{path}: expected a nonempty list of devices")
    devices = []
    seen_ids = set()
    for i, entry in enumerate(node):
        dpath = f"{path}[{i}]"
        values = _read_fields(DeviceProfile, entry, dpath)
        if "id" not in values or "kind" not in values:
            raise ConfigError(f"{dpath}: devices need 'id' and 'kind'")
        if values["id"] in seen_ids:
            raise ConfigError(f"{dpath}.id: duplicate device id {values['id']!r}")
        seen_ids.add(values["id"])
        try:
            devices.append(device_from_kind(**values))
        except ValueError as exc:
            raise ConfigError(f"{dpath}: {exc}") from exc
    return tuple(devices)


def _snr_linear(snr_db: float, path: str) -> float:
    try:
        return snr_db_to_linear(snr_db)
    except OverflowError:
        raise ConfigError(f"{path}: {snr_db!r} dB overflows the linear SNR") from None


def _require_finite_rate(peak: ChannelState, path: str) -> None:
    # every rate of a channel is at most its peak's, so one check bounds them all
    if not math.isfinite(shannon_rate(peak)):
        raise ConfigError(
            f"{path}: peak rate {peak.bandwidth_hz!r} Hz * log2(1 + {peak.snr_linear!r}) "
            "is not finite"
        )


def _parse_channel(node, path: str):
    node = _require_mapping(node, path)
    _check_keys(node, {"fixed", "distribution"}, path)
    if ("fixed" in node) == ("distribution" in node):
        raise ConfigError(f"{path}: give exactly one of 'fixed' or 'distribution'")
    try:
        if "fixed" in node:
            fixed = _require_mapping(node["fixed"], f"{path}.fixed")
            _check_keys(fixed, {"bandwidth_hz", "snr_db", "snr_linear"}, f"{path}.fixed")
            if ("snr_db" in fixed) == ("snr_linear" in fixed):
                raise ConfigError(
                    f"{path}.fixed: give exactly one of 'snr_db' or 'snr_linear'"
                )
            snr = (
                _snr_linear(
                    _get_number(fixed, "snr_db", f"{path}.fixed"), f"{path}.fixed.snr_db"
                )
                if "snr_db" in fixed
                else _get_number(fixed, "snr_linear", f"{path}.fixed")
            )
            channel = ChannelState(
                bandwidth_hz=_get_number(fixed, "bandwidth_hz", f"{path}.fixed"),
                snr_linear=snr,
            )
            _require_finite_rate(channel, f"{path}.fixed")
            return channel
        dist = _require_mapping(node["distribution"], f"{path}.distribution")
        _check_keys(dist, {"bandwidth_hz", "snr_db"}, f"{path}.distribution")
        for key in ("bandwidth_hz", "snr_db"):
            if key not in dist or not isinstance(dist[key], list) or len(dist[key]) != 2:
                raise ConfigError(
                    f"{path}.distribution.{key}: expected a [min, max] pair"
                )
        channel = ChannelDistribution(
            bandwidth_range=tuple(
                _coerce_number(v, f"{path}.distribution.bandwidth_hz")
                for v in dist["bandwidth_hz"]
            ),
            snr_range_db=tuple(
                _coerce_number(v, f"{path}.distribution.snr_db")
                for v in dist["snr_db"]
            ),
        )
        peak = ChannelState(
            channel.bandwidth_range[1],
            _snr_linear(channel.snr_range_db[1], f"{path}.distribution.snr_db"),
        )
        _require_finite_rate(peak, f"{path}.distribution")
        return channel
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_model(node, path: str, base_dir: Path) -> ModelProfile:
    node = _require_mapping(node, path)
    _check_keys(
        node,
        {"builtin", "input_h", "input_w", "usam_flops_fraction", "profile_file"},
        path,
    )
    if ("builtin" in node) == ("profile_file" in node):
        raise ConfigError(f"{path}: give exactly one of 'builtin' or 'profile_file'")
    try:
        if "profile_file" in node:
            return load_profile(base_dir / str(node["profile_file"]))
        if node["builtin"] != "resnet50_usam":
            raise ConfigError(
                f"{path}.builtin: only 'resnet50_usam' is available, "
                f"got {node['builtin']!r}"
            )
        kwargs = {
            key: _coerce_int(node.get(key, 224), f"{path}.{key}")
            for key in ("input_h", "input_w")
        }
        if "usam_flops_fraction" in node:
            kwargs["usam_flops_fraction"] = _get_number(node, "usam_flops_fraction", path)
        return build_resnet50_usam_profile(**kwargs)
    except (ValueError, OSError, DimensionError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_confidentiality(node, path: str, base_dir: Path, num_candidates: int):
    if node is None:
        return default_conf_table(num_candidates)
    node = _require_mapping(node, path)
    _check_keys(node, {"table", "corpus_dir", "table_file"}, path)
    given = [k for k in ("table", "corpus_dir", "table_file") if k in node]
    if len(given) != 1:
        raise ConfigError(
            f"{path}: give exactly one of 'table', 'corpus_dir' or 'table_file'"
        )
    try:
        if "table" in node:
            rows = node["table"]
            if not isinstance(rows, list) or not rows:
                raise ConfigError(f"{path}.table: expected a nonempty list")
            return ConfidentialityTable(tuple(
                _read(ConfEntry, row, f"{path}.table[{i}]") for i, row in enumerate(rows)
            ))
        if "table_file" in node:
            text = (base_dir / str(node["table_file"])).read_text()
            table, _ = parse_conf_table(text)
            return table
        from .privmetrics import build_conf_table, load_corpus_dir

        corpus = load_corpus_dir(base_dir / str(node["corpus_dir"]))
        return build_conf_table(corpus)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read_section(root: dict, name: str, cls):
    """A top-level section; an omitted or null one is all defaults."""
    node = root.get(name)
    return cls() if node is None else _read(cls, node, name)


TOP_LEVEL_SECTIONS = {
    "devices", "channels", "model", "confidentiality", "weights",
    "optimizer", "retrieval",
}


def _yaml_error_message(exc: yaml.YAMLError) -> str:
    """One line for PyYAML's multi-line error text."""
    if isinstance(exc, yaml.reader.ReaderError):
        return f"config is not valid YAML at position {exc.position}: {exc.reason}"
    mark = getattr(exc, "problem_mark", None)
    if mark is None:
        return "config is not valid YAML: " + " ".join(str(exc).split())
    return (
        f"config is not valid YAML at line {mark.line + 1}, "
        f"column {mark.column + 1}: {exc.problem}"
    )


def parse_config(text: str, base_dir: Path | None = None) -> ScenarioConfig:
    base_dir = base_dir or Path(".")
    try:
        root = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(_yaml_error_message(exc)) from exc
    except ValueError as exc:
        # a plain scalar shaped like a date that is not one, e.g. 2001-13-45
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if root is None:
        root = {}
    root = _require_mapping(root, "config")
    _check_keys(root, TOP_LEVEL_SECTIONS, "config")

    profile = None
    if "model" in root:
        profile = _parse_model(root["model"], "model", base_dir)

    scenario = None
    if "devices" in root:
        if profile is None:
            raise ConfigError("config: a 'devices' section needs a 'model' section")
        devices = _parse_devices(root["devices"], "devices")
        channels_node = _require_mapping(root.get("channels", {}), "channels")
        _check_keys(channels_node, {d.id for d in devices}, "channels")
        channels = []
        for dev in devices:
            if dev.id not in channels_node:
                raise ConfigError(f"channels: missing channel for device {dev.id!r}")
            channels.append(_parse_channel(channels_node[dev.id], f"channels.{dev.id}"))
        conf_table = _parse_confidentiality(
            root.get("confidentiality"), "confidentiality", base_dir,
            profile.num_candidates,
        )
        weights = _read_section(root, "weights", TriCoWeights)
        try:
            scenario = Scenario(
                devices=devices,
                channels=tuple(channels),
                profile=profile,
                conf_table=conf_table,
                weights=weights,
            )
            scenario.effect_kernel  # rejects a non-finite cost term
        except ValueError as exc:
            raise ConfigError(f"config: {exc}") from exc
    elif "channels" in root or "confidentiality" in root or "weights" in root:
        raise ConfigError(
            "config: channels/confidentiality/weights sections need a "
            "'devices' section"
        )

    return ScenarioConfig(
        scenario=scenario,
        optimizer=_read_section(root, "optimizer", OptimizerConfig),
        retrieval=_read_section(root, "retrieval", RetrievalConfig),
        profile=profile,
    )


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"cannot read config {path}: not UTF-8 at byte {exc.start}: {exc.reason}"
        ) from exc
    return parse_config(text, base_dir=path.parent)

