"""Cost-model checks, including a second, independently coded exhaustive
enumerator that re-derives the optimum from raw costs without touching the
package's breakdown tables."""

from itertools import permutations, product

import numpy as np
import pytest

from splitcvl import trico
from splitcvl.errors import MissingEntryError, ZeroRateError
from splitcvl.netmodel import ChannelState, device_from_kind, shannon_rate
from splitcvl.nnprofile import build_resnet50_usam_profile
from splitcvl.trico import (
    ConfEntry,
    ConfidentialityTable,
    CutCosts,
    PartitionDecision,
    Scenario,
    TriCoWeights,
    comp_cost,
    conf_cost,
    decision_effect,
    default_conf_table,
    default_scenario,
    effect_value,
    format_cost_table,
    optimal_decision,
    scenario_breakdowns,
)


from helpers import (
    enumerate_optimum,
    oracle_enumerate,
    random_scenario,
    synthetic_profile,
    tx_energy,
    tx_latency,
)


class TestCommCost:
    def test_stage4_over_slow_link(self):
        dev = device_from_kind("v", "vehicle")  # 2 W transmit
        ch = ChannelState(1e6, 3.0)  # rate 2e6
        profile = build_resnet50_usam_profile(224, 224)
        costs = CutCosts.build(dev, profile, default_conf_table(), TriCoWeights())
        lat, en, _ = costs.comm_terms(shannon_rate(ch), 4)
        assert lat == 1.605632
        assert en == pytest.approx(3.211264)

    def test_halving_rate_doubles_both(self):
        dev = device_from_kind("u", "uav")
        profile = build_resnet50_usam_profile(224, 224)
        costs = CutCosts.build(dev, profile, default_conf_table(), TriCoWeights())
        rng = np.random.default_rng(3)
        for _ in range(50):
            bw = float(rng.uniform(1e6, 1e8))
            snr = float(rng.uniform(0.1, 100))
            cut = int(rng.integers(0, 5))
            lat1, en1, _ = costs.comm_terms(shannon_rate(ChannelState(bw, snr)), cut)
            lat2, en2, _ = costs.comm_terms(shannon_rate(ChannelState(bw / 2, snr)), cut)
            assert lat2 == 2 * lat1
            assert en2 == 2 * en1

    def test_matches_independent_latency_and_energy_formulas(self):
        rng = np.random.default_rng(4)
        profile = build_resnet50_usam_profile(224, 224)
        for kind in ("uav", "vehicle"):
            dev = device_from_kind("d", kind, tx_power_w=float(rng.uniform(0.1, 5.0)))
            costs = CutCosts.build(dev, profile, default_conf_table(), TriCoWeights())
            for _ in range(100):
                rate = float(rng.uniform(1e3, 1e9))
                for cut, payload in enumerate(costs.payload_bytes):
                    lat, en, _ = costs.comm_terms(rate, cut)
                    assert lat == tx_latency(payload, rate)
                    assert en == tx_energy(dev.tx_power_w, lat)

    def test_zero_rate_propagates(self):
        dev = device_from_kind("u", "uav")
        profile = build_resnet50_usam_profile(224, 224)
        costs = CutCosts.build(dev, profile, default_conf_table(), TriCoWeights())
        with pytest.raises(ZeroRateError):
            costs.comm_terms(shannon_rate(ChannelState(1e6, 0.0)), 0)


class TestCompCost:
    def test_full_tflop_second_on_uav_is_30_joules(self):
        # 0.641e12 FLOPs on a 0.641 TFLOPS / 30 W device takes 1 s at 30 W.
        dev = device_from_kind("u", "uav")
        profile = synthetic_profile([4000], flops=[641_000_000_000])
        assert comp_cost(dev, profile, 0) == pytest.approx(30.0)

    def test_same_workload_on_vehicle(self):
        dev = device_from_kind("v", "vehicle")
        profile = synthetic_profile([4000], flops=[641_000_000_000])
        assert comp_cost(dev, profile, 0) == pytest.approx(0.641 / 1.3 * 30.0)
        assert comp_cost(dev, profile, 0) == pytest.approx(14.792307692307693)

    def test_zero_flops_cut(self):
        dev = device_from_kind("u", "uav")
        profile = synthetic_profile([4000, 2000], flops=[0, 5])
        assert comp_cost(dev, profile, 0) == 0.0


class TestConfCost:
    def test_at_kl_max_cost_zero(self):
        table = ConfidentialityTable((ConfEntry(2.0, 2.0), ConfEntry(1.0, 1.0)))
        assert conf_cost(table, 0, 0.5) == 0.0

    def test_zero_kl_cost_one(self):
        table = ConfidentialityTable((ConfEntry(0.0, 0.0), ConfEntry(3.0, 3.0)))
        assert conf_cost(table, 0, 0.5) == 1.0

    def test_half_mix(self):
        table = ConfidentialityTable((ConfEntry(4.0, 0.0),))
        assert conf_cost(table, 0, 0.5) == 0.5

    def test_alpha_extremes(self):
        table = ConfidentialityTable((ConfEntry(4.0, 1.0),))
        assert conf_cost(table, 0, 1.0) == 0.0
        assert conf_cost(table, 0, 0.0) == 0.75

    def test_all_zero_table_means_no_confidentiality(self):
        table = ConfidentialityTable((ConfEntry(0.0, 0.0), ConfEntry(0.0, 0.0)))
        assert conf_cost(table, 0) == 1.0
        assert conf_cost(table, 1) == 1.0

    def test_missing_entry(self):
        table = ConfidentialityTable((ConfEntry(1.0, 1.0),))
        with pytest.raises(MissingEntryError):
            conf_cost(table, 3)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            entries = tuple(
                ConfEntry(float(rng.uniform(0, 9)), float(rng.uniform(0, 9)))
                for _ in range(4)
            )
            table = ConfidentialityTable(entries)
            for c in range(4):
                assert 0.0 <= conf_cost(table, c, float(rng.uniform(0, 1))) <= 1.0


class TestNormalization:
    def test_endpoints(self):
        dev = device_from_kind("u", "uav")
        ch = ChannelState(1e6, 3.0)
        profile = synthetic_profile([4000, 2000, 1000], flops=[10, 20, 30])
        costs = CutCosts.build(dev, profile, default_conf_table(3), TriCoWeights())
        rows = costs.breakdowns(ch)
        assert (rows[0].n_comm, rows[0].n_comp) == (1.0, 0.0)
        assert (rows[2].n_comm, rows[2].n_comp) == (0.0, 1.0)

    def test_midpoint_is_half(self):
        dev = device_from_kind("u", "uav")
        ch = ChannelState(1e6, 3.0)
        # per-layer flops [10, 10, 10] make the device-side prefix sums
        # evenly spaced, so the middle candidate sits at 0.5 after scaling
        profile = synthetic_profile([4000, 3000, 2000], flops=[10, 10, 10])
        costs = CutCosts.build(dev, profile, default_conf_table(3), TriCoWeights())
        rows = costs.breakdowns(ch)
        assert rows[1].n_comm == pytest.approx(0.5)
        assert rows[1].n_comp == pytest.approx(0.5)

    def test_degenerate_range_normalizes_to_zero(self):
        dev = device_from_kind("u", "uav")
        ch = ChannelState(1e6, 3.0)
        # second layer adds no flops, so both prefix sums and both payload
        # sizes are identical: every range is degenerate
        profile = synthetic_profile([4000, 4000], flops=[10, 0])
        costs = CutCosts.build(dev, profile, default_conf_table(2), TriCoWeights())
        rows = costs.breakdowns(ch)
        assert all(r.n_comm == 0.0 and r.n_comp == 0.0 for r in rows)

    def test_conf_passes_through(self):
        dev = device_from_kind("u", "uav")
        ch = ChannelState(1e6, 3.0)
        profile = synthetic_profile([4000, 2000], flops=[10, 20])
        table = ConfidentialityTable((ConfEntry(1.0, 1.0), ConfEntry(2.0, 2.0)))
        costs = CutCosts.build(dev, profile, table, TriCoWeights())
        rows = costs.breakdowns(ch)
        assert rows[0].n_conf == conf_cost(table, 0)
        assert rows[1].n_conf == conf_cost(table, 1)


class TestEffect:
    def test_weighted_sum(self):
        w = TriCoWeights()
        assert effect_value(w, 0.3, 0.6, 0.0) == pytest.approx(0.3)

    def test_zero_terms(self):
        assert effect_value(TriCoWeights(), 0, 0, 0) == 0.0

    def test_single_weight_projects(self):
        w = TriCoWeights(1.0, 0.0, 0.0)
        assert effect_value(w, 0.42, 0.9, 0.1) == 0.42

    def test_cut_costs_effect_equals_effect_value_of_comm_terms_bit_for_bit(self):
        # effect inlines comm_terms and effect_value over per-cut constants;
        # rates span 1 bit/s to 100 Gbit/s, so the payload bounds also meet
        # rates that make latency and energy large or tiny
        rng = np.random.default_rng(27)
        for _ in range(40):
            scenario = random_scenario(rng)
            for costs in scenario.cut_costs:
                for rate in (10.0 ** rng.uniform(0.0, 11.0, size=25)).tolist():
                    cut = int(rng.integers(scenario.num_candidates))
                    expected = effect_value(
                        costs.weights, costs.comm_terms(rate, cut)[2],
                        costs.n_comp[cut], costs.conf[cut],
                    )
                    assert costs.effect(rate, cut).hex() == expected.hex()

    def test_effect_in_unit_interval_on_random_scenarios(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            scenario = random_scenario(rng)
            for cuts in product(
                range(scenario.num_candidates), repeat=scenario.num_devices
            ):
                eff = decision_effect(scenario, PartitionDecision(cuts))
                assert -1e-12 <= eff <= 1.0 + 1e-12

    def test_device_permutation_invariance(self):
        rng = np.random.default_rng(22)
        scenario = random_scenario(rng, max_devices=3)
        while scenario.num_devices < 2:
            scenario = random_scenario(rng, max_devices=3)
        cuts = tuple(
            int(rng.integers(0, scenario.num_candidates))
            for _ in range(scenario.num_devices)
        )
        base = decision_effect(scenario, PartitionDecision(cuts))
        for perm in permutations(range(scenario.num_devices)):
            shuffled = Scenario(
                tuple(scenario.devices[i] for i in perm),
                tuple(scenario.channels[i] for i in perm),
                scenario.profile,
                scenario.conf_table,
                scenario.weights,
            )
            assert decision_effect(
                shuffled, PartitionDecision(tuple(cuts[i] for i in perm))
            ) == base


class TestBruteForce:
    def test_single_candidate(self):
        profile = synthetic_profile([4000])
        scenario = Scenario(
            (device_from_kind("u", "uav"),),
            (ChannelState(1e6, 3.0),),
            profile,
            default_conf_table(1),
            TriCoWeights(),
        )
        decision, _ = optimal_decision(scenario)
        assert decision.cuts == (0,)

    def test_conf_only_weights_pick_deepest(self):
        scenario = default_scenario()
        scenario = Scenario(
            scenario.devices,
            scenario.channels,
            scenario.profile,
            scenario.conf_table,
            TriCoWeights(0.0, 0.0, 1.0),
        )
        decision, _ = optimal_decision(scenario)
        assert decision.cuts == (4, 4)

    def test_comp_only_weights_pick_shallowest(self):
        scenario = default_scenario()
        scenario = Scenario(
            scenario.devices,
            scenario.channels,
            scenario.profile,
            scenario.conf_table,
            TriCoWeights(0.0, 1.0, 0.0),
        )
        decision, _ = optimal_decision(scenario)
        assert decision.cuts == (0, 0)

    def test_matches_independent_enumerator_on_random_scenarios(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            scenario = random_scenario(rng)
            channels = scenario.resolved_channels()
            decision, eff = optimal_decision(scenario, channels)
            oracle_cuts, oracle_eff = oracle_enumerate(scenario, channels)
            assert decision.cuts == oracle_cuts
            assert eff == pytest.approx(oracle_eff, abs=1e-12)

    def test_returned_effect_is_minimum(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            scenario = random_scenario(rng, max_devices=3)
            decision, eff = optimal_decision(scenario)
            for cuts in product(
                range(scenario.num_candidates), repeat=scenario.num_devices
            ):
                assert eff <= decision_effect(scenario, PartitionDecision(cuts)) + 1e-12

    def test_tie_break_prefers_deeper_cut(self):
        # Two indistinguishable cuts produce identical effects everywhere.
        profile = synthetic_profile([4000, 4000], flops=[10, 0])
        table = ConfidentialityTable((ConfEntry(1.0, 1.0), ConfEntry(1.0, 1.0)))
        scenario = Scenario(
            (device_from_kind("u", "uav"), device_from_kind("v", "vehicle")),
            (ChannelState(1e6, 3.0), ChannelState(1e6, 3.0)),
            profile,
            table,
            TriCoWeights(),
        )
        decision, _ = optimal_decision(scenario)
        assert decision.cuts == (1, 1)

    def test_rounding_tie_keeps_per_device_cut_and_effect(self, monkeypatch):
        # fsum rounds 1e-17 + 0.5 and 2e-17 + 0.5 to the same float, so
        # decisions (0, 0) and (1, 0) tie at 0.25. Enumeration keeps the
        # lexicographically larger vector; the per-device argmin keeps the
        # first device's exact minimum. The effect is the same.
        table = [[1e-17, 2e-17, 0.9, 0.9, 0.9], [0.5, 0.9, 0.9, 0.9, 0.9]]
        monkeypatch.setattr(trico, "effect_table", lambda scenario, channels: table)
        decision, eff = optimal_decision(default_scenario())
        assert decision.cuts == (0, 0)
        assert eff == 0.25
        assert enumerate_optimum(table) == ((1, 0), 0.25)

    def test_six_device_fleet_matches_independent_enumerator(self):
        rng = np.random.default_rng(25)
        scenario = random_scenario(rng, max_devices=6)
        while (scenario.num_devices, scenario.num_candidates) != (6, 5):
            scenario = random_scenario(rng, max_devices=6)
        channels = scenario.resolved_channels()
        decision, eff = optimal_decision(scenario, channels)
        oracle_cuts, oracle_eff = oracle_enumerate(scenario, channels)
        assert decision.cuts == oracle_cuts
        assert eff == oracle_eff


class TestTradeOffDirection:
    def test_deeper_cut_direction_on_default_scenario(self):
        scenario = default_scenario()
        from splitcvl.nnprofile import device_flops, intermediate_bytes

        tables = scenario_breakdowns(scenario)
        for rows in tables:
            for a, b in zip(rows, rows[1:]):
                assert b.comp_energy_j > a.comp_energy_j
                assert b.comm_latency_s <= a.comm_latency_s
                assert b.conf_cost <= a.conf_cost
        for c in range(4):
            assert device_flops(scenario.profile, c + 1) > device_flops(
                scenario.profile, c
            )
            assert intermediate_bytes(scenario.profile, c + 1) <= intermediate_bytes(
                scenario.profile, c
            )


class TestCostTable:
    def test_header_and_shape(self):
        scenario = default_scenario()
        text = format_cost_table(scenario)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "device,cut_name,comm_latency_s,comm_energy_j,comp_energy_j,"
            "conf_cost,n_comm,n_comp,n_conf,effect"
        )
        assert len(lines) == 1 + 2 * 5
        assert lines[1].startswith("uav1,conv1,")

    def test_deterministic(self):
        scenario = default_scenario()
        assert format_cost_table(scenario) == format_cost_table(scenario)

    def test_values_round_trip(self):
        scenario = default_scenario()
        text = format_cost_table(scenario)
        row = text.strip().split("\n")[1].split(",")
        tables = scenario_breakdowns(scenario)
        assert float(row[2]) == tables[0][0].comm_latency_s
        assert float(row[9]) == tables[0][0].effect


class TestScenarioValidation:
    def test_needs_devices(self):
        profile = synthetic_profile([100])
        with pytest.raises(ValueError):
            Scenario((), (), profile, default_conf_table(1), TriCoWeights())

    def test_channel_count_must_match(self):
        profile = synthetic_profile([100])
        with pytest.raises(ValueError):
            Scenario(
                (device_from_kind("u", "uav"),),
                (),
                profile,
                default_conf_table(1),
                TriCoWeights(),
            )

    def test_conf_table_must_cover_candidates(self):
        profile = synthetic_profile([100, 50, 25])
        with pytest.raises(ValueError):
            Scenario(
                (device_from_kind("u", "uav"),),
                (ChannelState(1e6, 1.0),),
                profile,
                default_conf_table(2),
                TriCoWeights(),
            )

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            TriCoWeights(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            TriCoWeights(-0.1, 0.6, 0.5)
        with pytest.raises(ValueError):
            TriCoWeights(alpha_open=1.5)
        with pytest.raises(ValueError):
            TriCoWeights(lambda_latency=-0.2)

    def test_default_scenario_resolves_mean_channel(self):
        scenario = default_scenario()
        chans = scenario.resolved_channels()
        assert chans[0].bandwidth_hz == 12.5e6
        assert chans[0].snr_linear == pytest.approx(10.0)
