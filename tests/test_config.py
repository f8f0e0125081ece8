import re
from dataclasses import dataclass, fields
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcvl import config
from splitcvl.config import (
    OptimizerConfig,
    RetrievalConfig,
    ViewNoise,
    load_config,
    parse_config,
)
from splitcvl.errors import ConfigError
from splitcvl.netmodel import ChannelDistribution, ChannelState, DeviceProfile
from splitcvl.rlopt.agents import Hyperparams
from splitcvl.trico import ConfEntry, TriCoWeights, format_conf_table, default_conf_table

from helpers import save_profile

REPO = Path(__file__).resolve().parents[1]
STOCK_YAML = (REPO / "configs" / "scenario.yaml").read_text()

MINIMAL = """\
devices:
  - {id: u1, kind: uav}
channels:
  u1: {fixed: {bandwidth_hz: 1.0e6, snr_db: 10.0}}
model: {builtin: resnet50_usam, input_h: 224, input_w: 224}
"""


class TestParsing:
    def test_default_config_parses(self):
        cfg = parse_config(STOCK_YAML)
        assert cfg.scenario is not None
        assert cfg.scenario.num_devices == 2
        assert cfg.optimizer.agent == "actor_critic"
        assert cfg.retrieval.locations == 200

    def test_minimal_config(self):
        cfg = parse_config(MINIMAL)
        scenario = cfg.scenario
        assert scenario.devices[0].peak_flops == 0.641e12  # kind default
        assert isinstance(scenario.channels[0], ChannelState)
        assert scenario.channels[0].snr_linear == pytest.approx(10.0)
        # omitted confidentiality section falls back to the monotone table
        assert scenario.conf_table == default_conf_table(5)

    def test_distribution_channel(self):
        text = MINIMAL.replace(
            "{fixed: {bandwidth_hz: 1.0e6, snr_db: 10.0}}",
            "{distribution: {bandwidth_hz: [1.0e6, 2.0e6], snr_db: [0.0, 10.0]}}",
        )
        cfg = parse_config(text)
        ch = cfg.scenario.channels[0]
        assert isinstance(ch, ChannelDistribution)
        assert ch.bandwidth_range == (1.0e6, 2.0e6)

    def test_device_overrides(self):
        text = MINIMAL.replace(
            "{id: u1, kind: uav}",
            "{id: u1, kind: uav, tx_power_w: 5.0}",
        )
        dev = parse_config(text).scenario.devices[0]
        assert dev.tx_power_w == 5.0

    def test_snr_linear_form(self):
        text = MINIMAL.replace("snr_db: 10.0", "snr_linear: 3.0")
        assert parse_config(text).scenario.channels[0].snr_linear == 3.0

    def test_profile_file_model(self, tmp_path):
        from splitcvl.nnprofile import build_resnet50_usam_profile

        save_profile(build_resnet50_usam_profile(224, 224), tmp_path / "prof.csv")
        text = MINIMAL.replace(
            "model: {builtin: resnet50_usam, input_h: 224, input_w: 224}",
            "model: {profile_file: prof.csv}",
        )
        (tmp_path / "cfg.yaml").write_text(text)
        cfg = load_config(tmp_path / "cfg.yaml")
        assert cfg.profile.num_candidates == 5

    def test_inline_conf_table(self):
        text = MINIMAL + (
            "confidentiality:\n"
            "  table:\n"
            + "".join(
                f"    - {{kl_open: {k}, kl_closed: {k}}}\n" for k in (1, 2, 3, 4, 5)
            )
        )
        scenario = parse_config(text).scenario
        assert [e.kl_open for e in scenario.conf_table] == [1, 2, 3, 4, 5]
        # the largest KL, 5, scales every cut's confidentiality cost
        assert scenario.effect_kernel.conf[0].tolist() == [1.0 - k / 5 for k in (1, 2, 3, 4, 5)]

    def test_conf_table_file(self, tmp_path):
        (tmp_path / "table.csv").write_text(
            format_conf_table(default_conf_table(5))
        )
        text = MINIMAL + "confidentiality: {table_file: table.csv}\n"
        (tmp_path / "cfg.yaml").write_text(text)
        cfg = load_config(tmp_path / "cfg.yaml")
        assert cfg.scenario.conf_table == default_conf_table(5)

    def test_optimizer_hyper_overrides(self):
        text = MINIMAL + (
            "optimizer:\n"
            "  agent: dqn\n"
            "  steps: 50\n"
            "  hyper: {lr_net: 0.5, hidden: [8, 8]}\n"
        )
        opt = parse_config(text).optimizer
        assert opt.agent == "dqn"
        assert opt.hyper.lr_net == 0.5
        assert opt.hyper.hidden == (8, 8)

    def test_retrieval_section(self):
        text = "retrieval: {locations: 42, noise: {uav: 0.7}}\n"
        ret = parse_config(text).retrieval
        assert ret.locations == 42
        assert ret.view_noise["uav"] == 0.7
        assert ret.view_noise["ground"] == 0.5
        assert ret.noise == ViewNoise(uav=0.7)

    def test_null_top_level_sections_are_defaults(self):
        cfg = parse_config(MINIMAL + "weights: null\noptimizer: null\nretrieval: null\n")
        assert cfg.scenario.weights == TriCoWeights()
        assert cfg.optimizer == OptimizerConfig()
        assert cfg.retrieval == RetrievalConfig()

    def test_scalar_names_read_as_text(self):
        text = MINIMAL.replace("id: u1", "id: 7").replace("  u1:", "  '7':")
        assert parse_config(text).scenario.devices[0].id == "7"

    def test_readme_config_example_parses(self):
        readme = (REPO / "README.md").read_text()
        section = readme[readme.index("## Configuration"):]
        block = re.search(r"```yaml\n(.*?)```", section, re.DOTALL).group(1)
        cfg = parse_config(block)
        assert cfg.scenario.num_devices == 2
        assert cfg.scenario.conf_table == default_conf_table(5)
        assert cfg.optimizer.agent == "actor_critic"


@pytest.mark.parametrize("cls", [
    OptimizerConfig, Hyperparams, RetrievalConfig, ViewNoise, TriCoWeights,
    ConfEntry, DeviceProfile,
])
def test_every_config_field_has_a_reader(cls):
    readers, _ = config._field_readers(cls)
    assert list(readers) == [f.name for f in fields(cls)]


def test_field_without_reader_is_an_error():
    @dataclass(frozen=True)
    class Odd:
        value: complex = 0j

    with pytest.raises(TypeError, match="Odd.value: no config reader"):
        config._field_readers(Odd)


class TestRejection:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "bogus: 1\n")

    def test_unknown_device_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL.replace("kind: uav", "kind: uav, speed: 9"))

    @pytest.mark.parametrize("text", [
        MINIMAL.replace("kind: uav", "kind: uav, battery_j: 1000.0"),
        MINIMAL + "optimizer: {battery_bins: 1}\n",
    ], ids=["battery_j", "battery_bins"])
    def test_battery_keys_rejected(self, text):
        with pytest.raises(ConfigError, match="unknown key.*battery"):
            parse_config(text)

    def test_unknown_hyper_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "optimizer: {hyper: {learning: 1}}\n")

    @pytest.mark.parametrize("field", [
        "seeds: 0", "images_per_view: 0", "locations: 1", "dim: 1", "noise: {uav: -0.1}",
    ])
    def test_retrieval_out_of_range(self, field):
        with pytest.raises(ConfigError, match="retrieval"):
            parse_config(f"retrieval: {{{field}}}\n")

    @pytest.mark.parametrize("field, message", [
        ("dim: 1000000000", "locations x (2 + 2 x images_per_view) x dim is "
                            "2000000000000 elements"),
        ("locations: 1000000000", "locations x (2 + 2 x images_per_view) x dim is "
                                  "640000000000 elements"),
        ("images_per_view: 1000000000", "locations x (2 + 2 x images_per_view) x dim is "
                                        "25600000025600 elements"),
        # a corpus draw of 33 million elements, a score buffer of 2.7 billion
        ("images_per_view: 1300", "8 x images_per_view**2 x locations is "
                                  "2704000000 elements"),
    ], ids=["dim", "locations", "images_per_view", "score_buffer"])
    def test_oversized_retrieval_section(self, field, message):
        with pytest.raises(ConfigError) as info:
            parse_config(f"retrieval: {{{field}}}\n")
        assert str(info.value) == f"retrieval: {message}, past the cap of 134217728"

    def test_retrieval_sizes_at_the_cap_accepted(self):
        # 2**24 locations of 1 image per view and dim 2: a corpus draw and a
        # score buffer of 2**27 elements each. Building the config draws nothing.
        at_cap = "retrieval: {locations: %d, dim: 2, images_per_view: 1}\n"
        assert parse_config(at_cap % 2**24).retrieval.locations == 2**24
        with pytest.raises(ConfigError, match="past the cap"):
            parse_config(at_cap % (2**24 + 1))

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf", "'nan'", "'1e999'"])
    def test_non_finite_number(self, value):
        with pytest.raises(ConfigError, match="weights.w_comm: expected a finite number"):
            parse_config(MINIMAL + f"weights: {{w_comm: {value}}}\n")

    def test_integer_past_the_largest_float(self):
        # the rule and the wording of netmodel.fits_float, naming the key
        with pytest.raises(ConfigError) as info:
            parse_config(MINIMAL + f"weights: {{w_comm: {10**400}}}\n")
        assert str(info.value) == (
            "weights.w_comm must be finite, got an integer past the largest float"
        )

    def test_unknown_agent(self):
        with pytest.raises(ConfigError, match="unknown agent"):
            parse_config(MINIMAL + "optimizer: {agent: sarsa}\n")

    def test_missing_channel(self):
        text = MINIMAL.replace("  u1: {fixed: {bandwidth_hz: 1.0e6, snr_db: 10.0}}\n", "  {}\n")
        with pytest.raises(ConfigError, match="missing channel"):
            parse_config(text)

    def test_channel_for_unknown_device(self):
        text = MINIMAL.replace(
            "channels:\n",
            "channels:\n  ghost: {fixed: {bandwidth_hz: 1.0e6, snr_db: 1.0}}\n",
        )
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(text)

    def test_both_fixed_and_distribution(self):
        text = MINIMAL.replace(
            "{fixed: {bandwidth_hz: 1.0e6, snr_db: 10.0}}",
            "{fixed: {bandwidth_hz: 1.0e6, snr_db: 10.0}, "
            "distribution: {bandwidth_hz: [1, 2], snr_db: [0, 1]}}",
        )
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(text)

    def test_invalid_weights_sum(self):
        text = MINIMAL + "weights: {w_comm: 0.5, w_comp: 0.5, w_conf: 0.5}\n"
        with pytest.raises(ConfigError, match="sum to 1"):
            parse_config(text)

    def test_bad_model_dimensions(self):
        text = MINIMAL.replace("input_h: 224", "input_h: 225")
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_conf_table_too_short(self):
        text = MINIMAL + (
            "confidentiality:\n  table:\n    - {kl_open: 1, kl_closed: 1}\n"
        )
        with pytest.raises(ConfigError, match="cover all partition candidates"):
            parse_config(text)

    def test_devices_without_model(self):
        text = "devices:\n  - {id: u1, kind: uav}\n"
        with pytest.raises(ConfigError, match="needs a 'model' section"):
            parse_config(text)

    def test_weights_without_devices(self):
        with pytest.raises(ConfigError, match="need a"):
            parse_config("weights: {w_comm: 1.0, w_comp: 0.0, w_conf: 0.0}\n")

    def test_not_yaml(self):
        with pytest.raises(ConfigError, match="not valid YAML"):
            parse_config("devices: [::\n")

    def test_duplicate_device_ids(self):
        text = MINIMAL.replace(
            "devices:\n  - {id: u1, kind: uav}\n",
            "devices:\n  - {id: u1, kind: uav}\n  - {id: u1, kind: uav}\n",
        )
        with pytest.raises(ConfigError, match="duplicate device id"):
            parse_config(text)

    def test_ids_compare_as_their_text(self):
        text = MINIMAL.replace(
            "devices:\n  - {id: u1, kind: uav}\n",
            "devices:\n  - {id: 1, kind: uav}\n  - {id: '1', kind: uav}\n",
        ).replace("  u1:", "  '1':")
        with pytest.raises(ConfigError, match=r"devices\[1\].id: duplicate device id '1'"):
            parse_config(text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "missing.yaml")


libyaml = pytest.mark.skipif(
    not yaml.__with_libyaml__, reason="PyYAML was built without libyaml"
)

# YAML 1.1 scalars that PyYAML's implicit resolvers turn into floats, ints,
# bools, None or dates, or that only look as if they would (1.0e3, 0o17)
EDGE_SCALARS = (
    "1.0e3", "1e3", ".nan", "-.inf", "0x1F", "0o17", "017", "1_000", "1:30",
    "yes", "off", "~", "2001-12-14",
)


class _Plain(str):
    """A leaf written into the YAML text unquoted, so the resolvers see it."""


def _dump_with_plain_leaves(tree) -> str:
    plain = []

    def swap(node):
        if isinstance(node, _Plain):
            plain.append(str(node))
            return f"plain_leaf_{len(plain) - 1}_"
        if isinstance(node, dict):
            return {key: swap(value) for key, value in node.items()}
        if isinstance(node, list):
            return [swap(value) for value in node]
        return node

    text = yaml.safe_dump(swap(tree))
    # highest index first, so plain_leaf_1_ cannot match inside plain_leaf_10_
    for i in reversed(range(len(plain))):
        text = text.replace(f"plain_leaf_{i}_", plain[i])
    return text


yaml_scalars = st.one_of(
    st.sampled_from(EDGE_SCALARS),            # str values: dumped quoted if needed
    st.sampled_from(EDGE_SCALARS).map(_Plain),  # written plain: resolved
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(alphabet="ab :#-'\"\n\t.0189eE_", max_size=8),
)
yaml_trees = st.recursive(
    yaml_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(alphabet="abc_ 0", min_size=1, max_size=4),
                        children, max_size=4),
    ),
    max_leaves=12,
)


def _both_loaders(text: str) -> tuple[str, str]:
    return (repr(yaml.load(text, Loader=yaml.CSafeLoader)),
            repr(yaml.load(text, Loader=yaml.SafeLoader)))


@libyaml
class TestLibyamlLoader:
    @pytest.mark.parametrize("text", [STOCK_YAML], ids=["scenario.yaml"])
    def test_stock_configs_load_alike(self, text):
        fast, slow = _both_loaders(text)
        assert fast == slow

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(tree=st.dictionaries(st.sampled_from("abcde"), yaml_trees, max_size=5))
    def test_dumped_trees_load_alike(self, tree):
        text = _dump_with_plain_leaves(tree)
        fast, slow = _both_loaders(text)
        assert fast == slow, text

    def test_config_parses_with_libyaml(self, monkeypatch):
        assert config._LOADER is yaml.CSafeLoader
        documents = []
        construct = yaml.CSafeLoader.construct_document

        def spy(loader, node):
            documents.append(type(loader))
            return construct(loader, node)

        monkeypatch.setattr(yaml.CSafeLoader, "construct_document", spy)
        parse_config(MINIMAL)
        assert documents == [yaml.CSafeLoader]
