"""End-to-end CLI checks through the public main() entry point."""

import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from splitcvl.cli import build_parser, main
from splitcvl.config import load_config
from splitcvl.privmetrics import build_conf_table, load_corpus_dir, write_demo_corpus
from splitcvl.trico import ConfEntry, format_conf_table

from helpers import perfbench_spans, save_profile


QUICK_CONFIG = """\
devices:
  - {id: uav1, kind: uav}
  - {id: veh1, kind: vehicle}
channels:
  uav1: {distribution: {bandwidth_hz: [5.0e6, 20.0e6], snr_db: [5.0, 15.0]}}
  veh1: {distribution: {bandwidth_hz: [5.0e6, 20.0e6], snr_db: [5.0, 15.0]}}
model: {builtin: resnet50_usam, input_h: 224, input_w: 224}
optimizer: {agent: q_learning, steps: 200, seed: 7}
retrieval: {locations: 20, dim: 16, seeds: 2}
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(QUICK_CONFIG)
    return str(path)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestProfileCommand:
    def test_builtin_profile(self, config_path, capsys):
        assert main(["profile", "--config", config_path]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "cut_name,device_flops,intermediate_bytes"
        assert len(out) == 6
        assert out[-1].endswith(",401408")

    def test_profile_file_round_trip(self, tmp_path, capsys):
        from splitcvl.nnprofile import build_resnet50_usam_profile

        save_profile(build_resnet50_usam_profile(224, 224), tmp_path / "prof.csv")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("model: {profile_file: prof.csv}\n")
        assert main(["profile", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 6

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("devices: [::\n")
        assert main(["profile", "--config", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["profile", "--config", str(tmp_path / "none.yaml")]) == 2
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("data, where", [
    (b"devices: [a\nmodel: {builtin: x}\n", "YAML at line 2, column 6: "),
    (b"devices:\n\t- {id: a}\n", "YAML at line 2, column 1: "),
    (b"devices: a\x07\n", "YAML at position 10: "),
    (b"devices: 2001-13-45\n", "YAML: "),
    (b"devices: \xff\xfe\n", "bad.yaml: not UTF-8 at byte 9: "),
], ids=["unclosed-flow", "tab-indent", "control-char", "impossible-date", "not-utf8"])
def test_unreadable_config_is_one_line_exit_2(data, where, tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_bytes(data)
    assert main(["cost", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and where in line


class TestParserReuse:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_options_do_not_reach_the_next_call(self, config_path, tmp_path, capsys):
        build_parser.cache_clear()
        fresh = tmp_path / "fresh.csv"
        assert main(["optimize", "--config", config_path, "--out", str(fresh)]) == 0
        seeded = tmp_path / "seeded.csv"
        argv = ["optimize", "--config", config_path, "--seed", "99", "--out", str(seeded)]
        assert main(argv) == 0
        seeded_bytes = seeded.read_bytes()
        capsys.readouterr()
        assert main(["optimize", "--config", config_path]) == 0
        out = capsys.readouterr().out
        # no --out: the trace goes to stdout, followed by the summary
        assert out.startswith(fresh.read_text())
        assert "\nseed=7\n" in out
        assert seeded.read_bytes() == seeded_bytes != fresh.read_bytes()


class TestCostCommand:
    def test_rows_and_argmin(self, config_path, capsys):
        assert main(["cost", "--config", config_path]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 10  # 2 devices x 5 cuts
        # deepest cut minimizes the effect column for this scenario
        uav_rows = [ln.split(",") for ln in lines[1:6]]
        effects = [float(r[-1]) for r in uav_rows]
        assert min(range(5), key=lambda i: effects[i]) == 4

    def test_comm_dominated_scenario_favors_deepest_cut(self, tmp_path, capsys):
        # no confidentiality weight, crawling link: shipping bytes dominates,
        # so the deepest (smallest-payload) cut wins; cross-check via oracle
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "devices:\n  - {id: u1, kind: uav}\n"
            "channels:\n  u1: {fixed: {bandwidth_hz: 1.0e4, snr_db: 0.1}}\n"
            "model: {builtin: resnet50_usam, input_h: 224, input_w: 224}\n"
            "weights: {w_comm: 0.9, w_comp: 0.1, w_conf: 0.0}\n"
        )
        assert main(["cost", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        best = min(lines, key=lambda ln: float(ln.split(",")[-1]))
        assert best.split(",")[1] == "stage4_b3"
        assert main(["oracle", "--config", str(cfg)]) == 0
        assert "u1:stage4_b3" in capsys.readouterr().out

    def test_comp_only_weights_favor_shallowest_cut(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "devices:\n  - {id: u1, kind: uav}\n"
            "channels:\n  u1: {fixed: {bandwidth_hz: 1.0e6, snr_db: 10.0}}\n"
            "model: {builtin: resnet50_usam, input_h: 224, input_w: 224}\n"
            "weights: {w_comm: 0.0, w_comp: 1.0, w_conf: 0.0}\n"
        )
        assert main(["cost", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        best = min(lines, key=lambda ln: float(ln.split(",")[-1]))
        assert best.split(",")[1] == "conv1"

    def test_zero_rate_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            QUICK_CONFIG.replace(
                "uav1: {distribution: {bandwidth_hz: [5.0e6, 20.0e6], "
                "snr_db: [5.0, 15.0]}}",
                "uav1: {fixed: {bandwidth_hz: 1.0e6, snr_linear: 0.0}}",
            )
        )
        assert main(["cost", "--config", str(cfg)]) == 3
        assert "infeasible" in capsys.readouterr().err


# a positive rate too low to carry the payload counts as zero rate: at
# 1e-301 bit/s the largest payload's latency overflows and the smallest's
# does not; at 1e-303 every latency overflows
def too_low_rate_config(bandwidth_hz):
    return QUICK_CONFIG.replace(
        "uav1: {distribution: {bandwidth_hz: [5.0e6, 20.0e6], snr_db: [5.0, 15.0]}}",
        f"uav1: {{fixed: {{bandwidth_hz: {bandwidth_hz}, snr_linear: 1.0}}}}",
    )


@pytest.mark.parametrize("command", ["cost", "oracle"])
@pytest.mark.parametrize("bandwidth_hz", ["1.0e-301", "1.0e-303"])
def test_too_low_rate_exits_3(bandwidth_hz, command, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(too_low_rate_config(bandwidth_hz))
    assert main([command, "--config", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: infeasible: device 'uav1': link rate ")
    assert "too low to carry the payload" in captured.err


NON_FINITE_CONFIGS = {
    "w_comm_nan": ("weights.w_comm", QUICK_CONFIG + "weights: {w_comm: .nan}\n"),
    "bandwidth_inf": (
        "channels.uav1.distribution.bandwidth_hz",
        QUICK_CONFIG.replace("bandwidth_hz: [5.0e6, 20.0e6]", "bandwidth_hz: [5.0e6, .inf]", 1),
    ),
    "snr_db_nan": (
        "channels.veh1.distribution.snr_db",
        QUICK_CONFIG.replace("snr_db: [5.0, 15.0]}}\nmodel", "snr_db: [5.0, .nan]}}\nmodel"),
    ),
    # finite numbers whose linear SNR or peak Shannon rate overflows
    "snr_db_overflows": (
        "channels.uav1.distribution.snr_db",
        QUICK_CONFIG.replace("snr_db: [5.0, 15.0]", "snr_db: [4000.0, 5000.0]", 1),
    ),
    "fixed_snr_db_overflows": (
        "channels.veh1.fixed.snr_db",
        QUICK_CONFIG.replace(
            "veh1: {distribution: {bandwidth_hz: [5.0e6, 20.0e6], snr_db: [5.0, 15.0]}}",
            "veh1: {fixed: {bandwidth_hz: 5.0e6, snr_db: 3100.0}}",
        ),
    ),
    "peak_rate_overflows": (
        "channels.uav1.distribution: peak rate",
        QUICK_CONFIG.replace(
            "bandwidth_hz: [5.0e6, 20.0e6]", "bandwidth_hz: [1.0e308, 1.7e308]", 1
        ),
    ),
    "fixed_rate_overflows": (
        "channels.veh1.fixed: peak rate",
        QUICK_CONFIG.replace(
            "veh1: {distribution: {bandwidth_hz: [5.0e6, 20.0e6], snr_db: [5.0, 15.0]}}",
            "veh1: {fixed: {bandwidth_hz: 1.0e308, snr_linear: 1.0e300}}",
        ),
    ),
}


@pytest.mark.parametrize("command", ["cost", "oracle"])
@pytest.mark.parametrize("case", sorted(NON_FINITE_CONFIGS))
def test_non_finite_config_number_exits_2(case, command, tmp_path, capsys):
    key_path, text = NON_FINITE_CONFIGS[case]
    assert text != QUICK_CONFIG
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "nan" not in captured.out and "inf" not in captured.out
    assert captured.err.count("\n") == 1
    assert key_path in captured.err


ONE_DEVICE_PROFILE_CONFIG = (
    "devices:\n  - {id: u1, kind: uav}\n"
    "channels:\n  u1: {fixed: {bandwidth_hz: 2.0e6, snr_db: 10.0}}\n"
    "model: {profile_file: prof.csv}\n"
    "optimizer: {agent: q_learning, steps: 20}\n"
)
# each input is finite, but FLOPs / peak_flops overflows to inf, or an
# integer of the profile is past the largest float and reads inf
NON_FINITE_COST_TERMS = {
    "peak_flops_1e-300": (
        "device 'uav1': computation energy at cut 'conv1' is inf",
        QUICK_CONFIG.replace("{id: uav1, kind: uav}", "{id: uav1, kind: uav, peak_flops: 1.0e-300}"),
    ),
    "peak_flops_1e-310": (
        "device 'uav1': computation energy at cut 'conv1' is inf",
        QUICK_CONFIG.replace("{id: uav1, kind: uav}", "{id: uav1, kind: uav, peak_flops: 1.0e-310}"),
    ),
    # a zero-FLOP first layer costs 0.0 where the others cost inf, which
    # min-max scaled to nan
    "zero_flop_first_layer": (
        "device 'u1': computation energy at cut 'l1' is inf",
        ONE_DEVICE_PROFILE_CONFIG.replace("kind: uav}", "kind: uav, peak_flops: 1.0e-310}"),
    ),
    "huge_out_elements": (
        "device 'u1': payload bits at cut 'l1' is inf", ONE_DEVICE_PROFILE_CONFIG,
    ),
    "huge_first_layer_flops": (
        "device 'u1': computation energy at cut 'l0' is inf", ONE_DEVICE_PROFILE_CONFIG,
    ),
}
# the profile each case reads from prof.csv, as (flops, out_elements) per layer
NON_FINITE_COST_PROFILES = {
    "huge_out_elements": ((0, 100), (1000, 3 * 10**308), (1000, 20)),
    "huge_first_layer_flops": ((3 * 10**308, 100), (1000, 50), (1000, 20)),
}


@pytest.mark.parametrize("command", ["cost", "oracle", "optimize"])
@pytest.mark.parametrize("case", sorted(NON_FINITE_COST_TERMS))
def test_non_finite_cost_term_exits_2(case, command, tmp_path, capsys):
    from splitcvl.nnprofile import LayerProfile, ModelProfile

    message, text = NON_FINITE_COST_TERMS[case]
    sizes = NON_FINITE_COST_PROFILES.get(case, ((0, 100), (1000, 50), (1000, 20)))
    layers = tuple(LayerProfile(f"l{i}", flops, out, 4) for i, (flops, out) in enumerate(sizes))
    save_profile(ModelProfile(layers, (0, 1, 2)), tmp_path / "prof.csv")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1
    assert f"{message}, not a finite number" in captured.err


QUICK_OPTIMIZER = "optimizer: {agent: q_learning, steps: 200, seed: 7}"
FIVE_ROW_TABLE = "confidentiality: {table: [%s]}\n" % ", ".join(
    ["{kl_open: 1.0, kl_closed: 1.0, ssim_open: abc}"]
    + ["{kl_open: 1.0, kl_closed: 1.0}"] * 4
)


def optimizer_config(fields: str) -> str:
    return QUICK_CONFIG.replace(QUICK_OPTIMIZER, f"optimizer: {{{fields}}}")


# 5 cuts ** 4 devices = 625 joint actions; each agent picks one cut per
# device, so RL, the cost model and the oracle all take it
FOUR_DEVICE_CONFIG = QUICK_CONFIG.replace(
    "  - {id: veh1, kind: vehicle}\n",
    "  - {id: veh1, kind: vehicle}\n  - {id: uav2, kind: uav}\n  - {id: veh2, kind: vehicle}\n",
).replace(
    "model:",
    "  uav2: {fixed: {bandwidth_hz: 2.0e6, snr_db: 10.0}}\n"
    "  veh2: {fixed: {bandwidth_hz: 8.0e6, snr_db: 12.0}}\nmodel:",
)


# (message fragment on stderr, config text); every one exits 2
INVALID_OPTIMIZE_CONFIGS = {
    "dqn_lr_net_unsigned_exponent": (
        "lower lr_net", optimizer_config("agent: dqn, steps: 50, hyper: {lr_net: 1.0e3}")
    ),
    "ppo_lr_net_unsigned_exponent": (
        "lower lr_net", optimizer_config("agent: ppo, steps: 800, hyper: {lr_net: 1.0e3}")
    ),
    "lr_nan": (
        "optimizer.hyper.lr: expected a finite number",
        optimizer_config("agent: ppo, hyper: {lr: .nan}"),
    ),
    "ppo_batch_zero": ("ppo_batch", optimizer_config("agent: ppo, hyper: {ppo_batch: 0}")),
    # episodes are one step: no horizon, discount or target net to set
    "target_sync_zero": (
        "optimizer.hyper: unknown key(s) ['target_sync']",
        optimizer_config("agent: dqn, hyper: {target_sync: 0}"),
    ),
    "gamma_unknown_key": (
        "optimizer.hyper: unknown key(s) ['gamma']",
        optimizer_config("agent: q_learning, hyper: {lr: 0.1, gamma: 0.9}"),
    ),
    "replay_capacity_zero": (
        "replay_capacity", optimizer_config("agent: dqn, hyper: {replay_capacity: 0}")
    ),
    "batch_size_float": ("batch_size", optimizer_config("agent: dqn, hyper: {batch_size: 2.5}")),
    "ac_replay_unknown_key": (
        "optimizer.hyper: unknown key(s) ['ac_replay']",
        optimizer_config("agent: actor_critic, hyper: {ac_replay: true}"),
    ),
    "hidden_zero": ("hidden", optimizer_config("agent: dqn, hyper: {hidden: [0]}")),
    # counts that size allocations have one ceiling, checked before training
    "batch_size_huge": (
        "batch_size must be <= 4096",
        optimizer_config("agent: dqn, hyper: {batch_size: 1000000000000}"),
    ),
    "replay_capacity_huge": (
        "replay_capacity must be <= 4096",
        optimizer_config("agent: dqn, hyper: {replay_capacity: 4097}"),
    ),
    "ppo_batch_huge": (
        "ppo_batch must be <= 4096", optimizer_config("agent: ppo, hyper: {ppo_batch: 100000}")
    ),
    "multi_q_tables_huge": (
        "multi_q_tables must be <= 4096",
        optimizer_config("agent: multi_q, hyper: {multi_q_tables: 1000000000}"),
    ),
    "hidden_huge": (
        "hidden sizes must sum to <= 4096",
        optimizer_config("agent: ppo, hyper: {hidden: [1000000, 1000000]}"),
    ),
    "hidden_layers_sum_huge": (
        "hidden sizes must sum to <= 4096",
        optimizer_config("agent: dqn, hyper: {hidden: [4096, 1]}"),
    ),
    "steps_negative": ("steps", optimizer_config("agent: dqn, steps: -5")),
    "horizon_zero": (
        "optimizer: unknown key(s) ['horizon']", optimizer_config("agent: dqn, horizon: 0")
    ),
    "horizon_one_unknown_key": (
        "optimizer: unknown key(s) ['horizon']", optimizer_config("agent: ppo, horizon: 1")
    ),
    "dqn_diverges": (
        "Q-network diverged",
        optimizer_config("agent: dqn, steps: 200, hyper: {lr_net: 1.0e+6}"),
    ),
    # 72 rows, more than a step's 2 x 33: the Q-network runs on each
    # step's rows, not on every row
    "dqn_diverges_many_rows": (
        "Q-network diverged",
        optimizer_config(
            "agent: dqn, steps: 200, bandwidth_bins: 6, snr_bins: 6, hyper: {lr_net: 1.0e+6}"
        ),
    ),
    # no step is greedy, so only the check after training sees the Q-values
    "dqn_diverges_always_exploring": (
        "Q-network diverged",
        optimizer_config(
            "agent: dqn, steps: 200, hyper: {lr_net: 1.0e+6, epsilon_start: 1.0,"
            " epsilon_final: 1.0}"
        ),
    ),
    # the RL rows (the devices' bin counts summed) are capped at 4096,
    # checked before any bin is built
    "bin_cap_snr_bins": (
        "error: optimizer: 4098 channel bins exceed the cap of 4096",
        optimizer_config("agent: q_learning, snr_bins: 2049"),
    ),
    "bin_cap_bin_grid": (
        "error: optimizer: 4160 channel bins exceed the cap of 4096",
        optimizer_config("agent: ppo, bandwidth_bins: 65, snr_bins: 32"),
    ),
    "actor_critic_diverges": (
        "diverged",
        optimizer_config("agent: actor_critic, steps: 50, hyper: {lr: 1.0e+300}"),
    ),
    "ssim_not_a_number": (
        "confidentiality.table[0].ssim_open", QUICK_CONFIG + FIVE_ROW_TABLE
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID_OPTIMIZE_CONFIGS))
def test_invalid_optimize_config_exits_2(case, tmp_path, capsys):
    fragment, text = INVALID_OPTIMIZE_CONFIGS[case]
    assert text != QUICK_CONFIG
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    out = tmp_path / "trace.csv"
    # a warning would print its own stderr lines before the error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [str(w.message) for w in caught] == []
    assert captured.err.count("\n") == 1
    assert fragment in captured.err


# integer keys take an int or a float with an integral value; a fraction
# exits 2 naming the key instead of being truncated
# (command, key path on stderr, config text)
NON_INTEGER_CONFIGS = {
    "steps": ("optimize", "optimizer.steps", optimizer_config("agent: q_learning, steps: 2.5")),
    "snr_bins": (
        "optimize", "optimizer.snr_bins",
        optimizer_config("agent: q_learning, steps: 20, snr_bins: 2.9"),
    ),
    "seed": ("optimize", "optimizer.seed", optimizer_config("agent: q_learning, seed: 7.6")),
    "hidden": (
        "optimize", "optimizer.hyper.hidden[1]",
        optimizer_config("agent: dqn, steps: 20, hyper: {hidden: [8, 4.5]}"),
    ),
    "input_h": ("profile", "model.input_h", QUICK_CONFIG.replace("input_h: 224", "input_h: 224.9")),
    "locations": (
        "retrieval-sim", "retrieval.locations",
        QUICK_CONFIG.replace("locations: 20", "locations: 20.9"),
    ),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_CONFIGS))
def test_non_integer_count_exits_2(case, tmp_path, capsys):
    command, key_path, text = NON_INTEGER_CONFIGS[case]
    assert text != QUICK_CONFIG
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"{key_path}: expected an integer" in captured.err


@pytest.mark.parametrize("written, plain", [
    ("agent: dqn, steps: 30, hyper: {batch_size: 1.0e1}", "agent: dqn, steps: 30, hyper: {batch_size: 10}"),
    ("agent: q_learning, steps: 1.0e2", "agent: q_learning, steps: 100"),
], ids=["batch_size", "steps"])
def test_integral_float_counts_as_its_integer(written, plain, tmp_path, capsys):
    traces = []
    for fields in (written, plain):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(optimizer_config(fields))
        out = tmp_path / "trace.csv"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        traces.append(out.read_bytes())
    assert traces[0] == traces[1]
    assert capsys.readouterr().err == ""


# the stock monotone table plus a sixth row: one more row than the model has cuts
SIX_KL_VALUES = (0.5, 1.0, 2.0, 4.0, 8.0, 80.0)


@pytest.mark.parametrize("source", ["table", "table_file"])
@pytest.mark.parametrize("command", ["cost", "oracle"])
def test_conf_table_longer_than_cut_list_exits_2(command, source, tmp_path, capsys):
    if source == "table":
        rows = ", ".join(f"{{kl_open: {k}, kl_closed: {k}}}" for k in SIX_KL_VALUES)
        section = f"confidentiality: {{table: [{rows}]}}\n"
    else:
        table = tuple(ConfEntry(k, k) for k in SIX_KL_VALUES)
        (tmp_path / "conf.csv").write_text(format_conf_table(table))
        section = "confidentiality: {table_file: conf.csv}\n"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(QUICK_CONFIG + section)
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "got 6 rows for 5 cuts" in captured.err


def test_conf_table_file_with_only_the_header_exits_2(tmp_path, capsys):
    (tmp_path / "conf.csv").write_text(format_conf_table(()))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(QUICK_CONFIG + "confidentiality: {table_file: conf.csv}\n")
    assert main(["cost", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: config: confidentiality table must cover all partition candidates "
        "with one row per cut: got 0 rows for 5 cuts\n")


@pytest.mark.parametrize("command", ["cost", "oracle"])
def test_four_devices_cost_and_oracle(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(FOUR_DEVICE_CONFIG)
    assert main([command, "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert all(dev in captured.out for dev in ("uav1", "veh1", "uav2", "veh2"))


def eight_device_config(agent, snr_bins=2):
    """An 8-device fleet of 5 cuts, shaped like perfbench's oracle-fleet
    inputs: both kinds, mixed transmit powers, and 8 channel ranges of
    ``snr_bins`` bins each, so 8 x ``snr_bins`` rows (``snr_bins ** 8``
    combinations of the devices' bins) and 5 ** 8 joint actions."""
    devices, channels = [], []
    for i in range(8):
        kind = ("uav", "vehicle")[i % 2]
        devices.append(f"  - {{id: d{i}, kind: {kind}, tx_power_w: {0.5 + 0.3 * i}}}")
        lo, db = 2.0e6 + 1.0e6 * i, 2.0 * i
        channels.append(f"  d{i}: {{distribution: {{bandwidth_hz: [{lo}, {3 * lo}], "
                        f"snr_db: [{db}, {db + 8.0}]}}}}")
    return "\n".join([
        "devices:", *devices, "channels:", *channels,
        "model: {builtin: resnet50_usam, input_h: 224, input_w: 224}",
        f"optimizer: {{agent: {agent}, steps: 120, seed: 3, snr_bins: {snr_bins}}}", "",
    ])


def optimize_summary(argv, capsys):
    """``optimize``'s trace rows and its summary, after exit 0."""
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    split = next(i for i, line in enumerate(lines) if "=" in line)
    return lines[1:split], dict(line.split("=", 1) for line in lines[split:])


@pytest.mark.parametrize("fleet", ["four_devices", "eight_devices", "eight_devices_3_bins"])
@pytest.mark.parametrize("agent", ["q_learning", "multi_q", "actor_critic", "dqn", "ppo"])
def test_optimize_trains_every_agent_on_fleets(agent, fleet, tmp_path, capsys):
    # one branch per device: no cap on the joint action count. A row per
    # (device, bin) and no joint state: 8 devices of 3 bins are 24 rows,
    # where their 3 ** 8 = 6561 combinations once exceeded a cap of 4096
    text = (FOUR_DEVICE_CONFIG.replace("agent: q_learning", f"agent: {agent}")
            if fleet == "four_devices"
            else eight_device_config(agent, 3 if fleet.endswith("3_bins") else 2))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert main(["oracle", "--config", str(cfg)]) == 0
    oracle = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    rows, summary = optimize_summary(["optimize", "--config", str(cfg)], capsys)
    effects = [float(value) for row in rows for value in row.split(",")[1:]]
    assert len(rows) == (200 if fleet == "four_devices" else 120)
    assert all(math.isfinite(e) and 0.0 <= e <= 1.0 for e in effects)
    assert summary["oracle_effect"] == oracle["effect"]
    assert float(summary["effect"]) >= float(oracle["effect"])
    assert summary["decision"].count(":") == (4 if fleet == "four_devices" else 8)


# exited 2 while the RL state was one joint id, past 4096 of them: 70 x 70
# and 72 x 72 combinations of two devices' bins. They are 140 and 144 rows
@pytest.mark.parametrize("fields", [
    "agent: q_learning, snr_bins: 70",
    "agent: ppo, bandwidth_bins: 9, snr_bins: 8",
], ids=["snr_bins_4900_combinations", "bin_grid_5184_combinations"])
def test_optimize_trains_past_the_old_joint_state_cap(fields, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(optimizer_config(fields))
    rows, summary = optimize_summary(["optimize", "--config", str(cfg)], capsys)
    assert len(rows) == 3000
    effects = [float(value) for row in rows for value in row.split(",")[1:]]
    assert all(math.isfinite(e) and 0.0 <= e <= 1.0 for e in effects)
    assert float(summary["effect"]) >= float(summary["oracle_effect"])
    assert math.isfinite(float(summary["gap"]))


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(jobs, config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--config", config_path, "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_negative_seed_flag_rejected(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--config", config_path, "--seed", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: argument --seed: must be >= 0, got -1\n"


# flag errors print one line in the form config errors use, with no usage line
@pytest.mark.parametrize("argv, line", [
    # flags are checked before the config is read
    (["profile", "--config", "unread.yaml", "--jobs", "0"],
     "error: argument --jobs: must be >= 1, got 0"),
    (["bogus"], "error: argument command: invalid choice: 'bogus' (choose from "
                "'profile', 'cost', 'optimize', 'oracle', 'retrieval-sim', 'privacy')"),
    (["optimize"], "error: the following arguments are required: --config"),
    (["cost", "--seed", "x"], "error: argument --seed: invalid int value: 'x'"),
])
def test_flag_errors_are_one_line(argv, line, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == line + "\n"


# values the config load rejects, whatever the command: (command, error
# text, config text); each exits 2 with that one stderr line
BAD_CONFIG_VALUES = {
    "optimizer_seed_negative": (
        "optimize", "optimizer: seed must be >= 0",
        optimizer_config("agent: q_learning, seed: -1"),
    ),
    "retrieval_seed_negative": (
        "retrieval-sim", "retrieval: seed must be >= 0",
        QUICK_CONFIG.replace("seeds: 2}", "seeds: 2, seed: -1}"),
    ),
    # an oversized section is refused before numpy is asked for memory
    "retrieval_dim_oversized": (
        "retrieval-sim", "retrieval: locations x (2 + 2 x images_per_view) x dim is "
        "200000000000 elements, past the cap of 134217728",
        QUICK_CONFIG.replace("dim: 16", "dim: 1000000000"),
    ),
    "agent_list": (
        "profile", "optimizer.agent: expected a name, got list", optimizer_config("agent: [1]"),
    ),
    "kind_list": (
        "cost", "devices[0].kind: expected a name, got list",
        QUICK_CONFIG.replace("kind: uav}", "kind: [uav]}"),
    ),
    "id_list": (
        "oracle", "devices[0].id: expected a name, got list",
        QUICK_CONFIG.replace("id: uav1,", "id: [1],"),
    ),
    "id_mapping": (
        "cost", "devices[0].id: expected a name, got dict",
        QUICK_CONFIG.replace("id: uav1,", "id: {a: 1},"),
    ),
    "fusion_list": (
        "retrieval-sim", "retrieval.fusion: expected a name, got list",
        QUICK_CONFIG.replace("seeds: 2}", "seeds: 2, fusion: [mean]}"),
    ),
    # only a whole top-level section may be null
    "table_row_null": (
        "cost", "confidentiality.table[0]: expected a mapping, got NoneType",
        QUICK_CONFIG
        + "confidentiality: {table: [null%s]}\n" % (", {kl_open: 1.0, kl_closed: 1.0}" * 4),
    ),
    "device_null": (
        "cost", "devices[0]: expected a mapping, got NoneType",
        "devices: [null]\nmodel: {builtin: resnet50_usam}\n",
    ),
    "hyper_null": (
        "optimize", "optimizer.hyper: expected a mapping, got NoneType",
        optimizer_config("agent: q_learning, hyper: null"),
    ),
    "noise_null": (
        "retrieval-sim", "retrieval.noise: expected a mapping, got NoneType",
        QUICK_CONFIG.replace("seeds: 2}", "seeds: 2, noise: null}"),
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_bad_config_value_exits_2(case, tmp_path, capsys):
    command, message, text = BAD_CONFIG_VALUES[case]
    assert text != QUICK_CONFIG
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command", ["profile", "cost", "oracle", "optimize", "retrieval-sim", "privacy"]
)
def test_every_command_accepts_one_job(command, config_path, tmp_path):
    if command == "privacy":
        write_demo_corpus(tmp_path / "corpus", seed=0, triples_per_cut=1)
        source = [str(tmp_path / "corpus")]
    else:
        source = ["--config", config_path]
    out = tmp_path / "out.csv"
    assert main([command, *source, "--jobs", "1", "--out", str(out)]) == 0


class TestOracleCommand:
    def test_matches_cost_argmin_for_single_device(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "devices:\n  - {id: u1, kind: uav}\n"
            "channels:\n  u1: {fixed: {bandwidth_hz: 2.0e6, snr_db: 10.0}}\n"
            "model: {builtin: resnet50_usam, input_h: 224, input_w: 224}\n"
        )
        assert main(["cost", "--config", str(cfg)]) == 0
        cost_lines = capsys.readouterr().out.strip().split("\n")[1:]
        best = min(cost_lines, key=lambda ln: float(ln.split(",")[-1]))
        best_cut = best.split(",")[1]
        assert main(["oracle", "--config", str(cfg)]) == 0
        oracle_out = capsys.readouterr().out
        assert f"decision=u1:{best_cut}" in oracle_out

    def test_three_device_oracle_under_one_second(self, tmp_path, capsys):
        import time

        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "devices:\n"
            "  - {id: u1, kind: uav}\n"
            "  - {id: u2, kind: uav}\n"
            "  - {id: v1, kind: vehicle}\n"
            "channels:\n"
            "  u1: {fixed: {bandwidth_hz: 2.0e6, snr_db: 10.0}}\n"
            "  u2: {fixed: {bandwidth_hz: 4.0e6, snr_db: 8.0}}\n"
            "  v1: {fixed: {bandwidth_hz: 8.0e6, snr_db: 12.0}}\n"
            "model: {builtin: resnet50_usam, input_h: 224, input_w: 224}\n"
        )
        started = time.perf_counter()
        assert main(["oracle", "--config", str(cfg)]) == 0
        assert time.perf_counter() - started < 1.0
        out = capsys.readouterr().out
        assert out.count(":") >= 3  # one cut per device

    def test_single_candidate_scenario(self, tmp_path, capsys):
        from splitcvl.nnprofile import LayerProfile, ModelProfile

        profile = ModelProfile((LayerProfile("only", 10, 100, 4),), (0,))
        save_profile(profile, tmp_path / "prof.csv")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "devices:\n  - {id: u1, kind: uav}\n"
            "channels:\n  u1: {fixed: {bandwidth_hz: 2.0e6, snr_db: 10.0}}\n"
            "model: {profile_file: prof.csv}\n"
            "confidentiality:\n  table:\n    - {kl_open: 1.0, kl_closed: 1.0}\n"
        )
        assert main(["oracle", "--config", str(cfg)]) == 0
        assert "decision=u1:only" in capsys.readouterr().out


class TestOptimizeCommand:
    def test_trace_and_summary(self, config_path, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["optimize", "--config", config_path, "--out", str(out)]) == 0
        trace_lines = out.read_text().strip().split("\n")
        assert trace_lines[0] == "step,effect,moving_avg"
        assert len(trace_lines) == 201
        captured = capsys.readouterr()
        assert captured.err == ""  # no zero-rate warning on a feasible channel
        summary = captured.out
        assert "agent=q_learning" in summary
        assert "oracle_effect=" in summary
        assert "gap=" in summary

    def test_unknown_agent_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(QUICK_CONFIG.replace("agent: q_learning", "agent: sarsa"))
        assert main(["optimize", "--config", str(cfg)]) == 2
        assert "unknown agent" in capsys.readouterr().err

    def test_zero_steps_empty_trace(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(QUICK_CONFIG.replace("steps: 200", "steps: 0"))
        out = tmp_path / "trace.csv"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text() == "step,effect,moving_avg\n"
        assert "trained=no" in capsys.readouterr().out

    @pytest.mark.parametrize("snr_db", ["[-4000.0, 15.0]", "[-3300.0, -3250.0]"])
    def test_underflowing_snr_range_trains_and_exits_0(self, snr_db, tmp_path, capsys):
        # below about -3236 dB the linear SNR underflows to 0.0; such draws
        # fall in SNR bin 0 and their steps get the zero-rate reward of -1
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(QUICK_CONFIG.replace("snr_db: [5.0, 15.0]", f"snr_db: {snr_db}"))
        out = tmp_path / "trace.csv"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 200
        assert any(row.split(",")[1] == "1.0" for row in rows)
        captured = capsys.readouterr()
        # the mean channel's rate is 0 too: its decisions score 1.0, said on stderr
        assert captured.err.startswith("warning: a link has zero rate at the mean channel")
        assert "effect=1.0\noracle_effect=1.0\ngap=nan\n" in captured.out

    def test_fixed_zero_snr_link_trains_and_exits_0(self, tmp_path, capsys):
        # cost exits 3 on this link (TestCostCommand); optimize trains on
        # it, every step taking the zero-rate reward, and leaves gap undefined
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            QUICK_CONFIG.replace(
                "uav1: {distribution: {bandwidth_hz: [5.0e6, 20.0e6], "
                "snr_db: [5.0, 15.0]}}",
                "uav1: {fixed: {bandwidth_hz: 1.0e6, snr_linear: 0.0}}",
            )
        )
        out = tmp_path / "trace.csv"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 200
        assert all(row.split(",")[1] == "1.0" for row in rows)
        captured = capsys.readouterr()
        assert captured.err.startswith("warning: a link has zero rate at the mean channel")
        assert "effect=1.0\noracle_effect=1.0\ngap=nan\n" in captured.out

    @pytest.mark.parametrize("bandwidth_hz", ["1.0e-301", "1.0e-303"])
    def test_too_low_rate_link_trains_and_exits_0(self, bandwidth_hz, tmp_path, capsys):
        # every step over the link takes the zero-rate reward, as at zero SNR
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(too_low_rate_config(bandwidth_hz))
        out = tmp_path / "trace.csv"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 200
        assert all(row.split(",")[1:] == ["1.0", "1.0"] for row in rows)
        captured = capsys.readouterr()
        assert captured.err.startswith("warning: a link has zero rate at the mean channel")
        assert "effect=1.0\noracle_effect=1.0\ngap=nan\n" in captured.out

    def test_seed_flag_overrides_config(self, config_path, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        main(["optimize", "--config", config_path, "--out", str(a)])
        main(["optimize", "--config", config_path, "--out", str(b), "--seed", "99"])
        main(["optimize", "--config", config_path, "--out", str(c), "--seed", "99"])
        assert sha256(a) != sha256(b)
        assert sha256(b) == sha256(c)


class TestRetrievalSimCommand:
    def test_grid_shape(self, config_path, capsys):
        assert main(["retrieval-sim", "--config", config_path]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 16
        assert lines[0].count(",") == 6  # 2 count columns + 5 metrics

    def test_noiseless_is_all_perfect(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "retrieval:\n  locations: 10\n  dim: 8\n  seeds: 2\n"
            "  noise: {satellite: 0.0, uav: 0.0, ground: 0.0}\n"
        )
        assert main(["retrieval-sim", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        for line in lines:
            values = [float(v) for v in line.split(",")[2:]]
            assert values == [100.0, 100.0, 100.0, 100.0, 100.0]

    def test_jobs_flag_gives_identical_output(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["retrieval-sim", "--config", config_path, "--out", str(a)])
        main(["retrieval-sim", "--config", config_path, "--out", str(b), "--jobs", "2"])
        assert sha256(a) == sha256(b)


def test_import_leaves_the_process_pool_unloaded():
    # retrieval_grid imports the pool only for --jobs above 1
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, splitcvl.cli; print('concurrent.futures.process' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert done.stdout == "False\n"


class TestPrivacyCommand:
    def test_demo_corpus_table(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        write_demo_corpus(corpus, seed=0, triples_per_cut=3)
        assert main(["privacy", str(corpus)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "cut_name,kl_open,kl_closed,ssim_open,ssim_closed"
        assert len(lines) == 6
        assert lines[1].startswith("0_conv1,")

    def test_identical_reconstruction_corpus_zero_kl(self, tmp_path, capsys):
        import numpy as np
        from splitcvl.privmetrics import Image, write_image

        corpus = tmp_path / "corpus"
        rng = np.random.default_rng(0)
        for cut in ("0_a", "1_b"):
            cut_dir = corpus / cut
            cut_dir.mkdir(parents=True)
            img = Image(rng.integers(0, 256, size=(16, 16, 1)).astype(np.uint8))
            for role in ("orig", "open", "closed"):
                write_image(img, cut_dir / f"{role}_000.pgm")
        assert main(["privacy", str(corpus)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        for line in lines:
            parts = line.split(",")
            assert float(parts[1]) == 0.0
            assert float(parts[2]) == 0.0

    def test_empty_cut_dir_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        (corpus / "0_empty").mkdir(parents=True)
        assert main(["privacy", str(corpus)]) == 2
        assert "no triples" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", ["0_conv,1", "0_conv\n1", "0_conv\r1", "0_conv1\x0c", "0_conv\u20281"],
        ids=["comma", "newline", "carriage_return", "form_feed", "line_separator"],
    )
    def test_cut_name_that_breaks_the_csv_exits_2(self, name, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        write_demo_corpus(corpus, seed=0, triples_per_cut=1)
        (corpus / "0_conv1").rename(corpus / name)
        out = tmp_path / "t.csv"
        assert main(["privacy", str(corpus), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (
            f"error: corpus directory {corpus}: cut name {name!r} contains a comma "
            "or line break, which the CSV confidentiality table cannot hold\n"
        )

    def test_table_file_round_trips_the_table_exactly(self, tmp_path):
        """A scenario that reads ``privacy --out``'s file gets the very
        floats ``build_conf_table`` computed, as one naming the corpus does."""
        corpus = tmp_path / "corpus"
        write_demo_corpus(corpus, seed=3, triples_per_cut=4)
        assert main(["privacy", str(corpus), "--out", str(tmp_path / "t.csv")]) == 0
        expected = build_conf_table(load_corpus_dir(corpus))
        for section in ("{table_file: t.csv}", "{corpus_dir: corpus}"):
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(QUICK_CONFIG + f"confidentiality: {section}\n")
            assert load_config(cfg).scenario.conf_table == expected


class TestDeterminism:
    def test_all_commands_byte_identical_across_runs(self, config_path, tmp_path):
        corpus = tmp_path / "corpus"
        write_demo_corpus(corpus, seed=1, triples_per_cut=2)
        invocations = {
            "profile": ["profile", "--config", config_path],
            "cost": ["cost", "--config", config_path],
            "oracle": ["oracle", "--config", config_path],
            "optimize": ["optimize", "--config", config_path],
            "retrieval": ["retrieval-sim", "--config", config_path],
            "privacy": ["privacy", str(corpus)],
        }
        for name, argv in invocations.items():
            hashes = set()
            for run in range(2):
                out = tmp_path / f"{name}_{run}.out"
                assert main(argv + ["--out", str(out)]) == 0
                hashes.add(sha256(out))
            assert len(hashes) == 1, f"{name} output not deterministic"


def test_perfbench_unresolved_sites():
    """The perfbench sites that name nothing in the package, so their
    layers read zero. A rename or deletion that empties another layer
    shows up here as a change to this list."""
    spans = perfbench_spans()
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert sorted(tracer.missing) == [
        "splitcvl.cli.brute_force_optimal",
        "splitcvl.cli.evaluate_cell",
        "splitcvl.cli.synth_gallery",
        "splitcvl.retrieval.rank_query_set",
        "splitcvl.rlopt.env.PartitionEnv.reset",
        "splitcvl.rlopt.env.PartitionEnv.step",
        "splitcvl.rlopt.env.decision_effect",
        "splitcvl.rlopt.env.sample_channel",
        "splitcvl.trico.scenario_breakdowns",
    ]


@pytest.mark.parametrize("agent", ["q_learning", "multi_q", "actor_critic", "dqn", "ppo"])
def test_perfbench_traces_every_train_site(agent, tmp_path):
    """perfbench's ``train`` layers wrap these sites by name. The env draws
    its steps a block at a time and has no ``step`` or ``reset`` left, so
    those two layers read zero until perfbench traces the block draw."""
    spans = perfbench_spans()
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(optimizer_config(f"agent: {agent}, steps: 200, seed: 7"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 0
    finally:
        tracer.uninstall()
    sites = {"splitcvl.cli.train_agent", "splitcvl.rlopt.nets.TinyNet.forward",
             "splitcvl.rlopt.nets.TinyNet.backward", "splitcvl.rlopt.nets.TinyNet.sgd_step"}
    assert sites.isdisjoint(tracer.missing)
    assert {"splitcvl.rlopt.env.PartitionEnv.step",
            "splitcvl.rlopt.env.PartitionEnv.reset"} <= set(tracer.missing)
    assert tracer.name_id.tolist().count(tracer.names.index(f"agents.{agent}")) == 1
