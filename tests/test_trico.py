"""Cost-model checks, including a second, independently coded exhaustive
enumerator that re-derives the optimum from raw costs without touching the
package's effect kernel, and a Python-float reference of the cost CSV."""

import dataclasses
from itertools import permutations, product

import numpy as np
import pytest

from splitcvl import trico
from splitcvl.errors import MissingEntryError, ZeroRateError
from splitcvl.netmodel import ChannelState, device_from_kind, shannon_rate
from splitcvl.nnprofile import build_resnet50_usam_profile, intermediate_bytes
from splitcvl.trico import (
    ConfEntry,
    ConfidentialityTable,
    Scenario,
    TriCoWeights,
    comp_cost,
    conf_cost,
    decision_effect,
    default_conf_table,
    default_scenario,
    format_cost_table,
    link_rates,
    optimal_decision,
)


from helpers import (
    enumerate_optimum,
    oracle_enumerate,
    random_fleet,
    random_scenario,
    reference_cost_table,
    scalar_comm_terms,
    scalar_effect,
    synthetic_profile,
    tx_energy,
    tx_latency,
)


def one_device(dev, profile, ch=ChannelState(1e6, 3.0), table=None):
    """A scenario of one device on one fixed channel, equal weights."""
    table = table or default_conf_table(profile.num_candidates)
    return Scenario((dev,), (ch,), profile, table, TriCoWeights())


def cost_rows(scenario):
    """The rows of a scenario's cost CSV as dicts, numbers as floats."""
    header, *lines = format_cost_table(scenario).splitlines()
    names = header.split(",")
    return [
        {name: value if name in ("device", "cut_name") else float(value)
         for name, value in zip(names, line.split(","))}
        for line in lines
    ]


def comm_terms(dev, profile, rate):
    """Per-cut (latencies, energies, n_comm) of one device over ``rate``."""
    terms = one_device(dev, profile).effect_kernel.comm_terms(np.array([rate]))
    return tuple(t[0].tolist() for t in terms)


class TestCommCost:
    def test_stage4_over_slow_link(self):
        dev = device_from_kind("v", "vehicle")  # 2 W transmit
        ch = ChannelState(1e6, 3.0)  # rate 2e6
        profile = build_resnet50_usam_profile(224, 224)
        lat, en, _ = comm_terms(dev, profile, shannon_rate(ch))
        assert lat[4] == 1.605632
        assert en[4] == pytest.approx(3.211264)

    def test_halving_rate_doubles_both(self):
        dev = device_from_kind("u", "uav")
        profile = build_resnet50_usam_profile(224, 224)
        rng = np.random.default_rng(3)
        for _ in range(50):
            bw = float(rng.uniform(1e6, 1e8))
            snr = float(rng.uniform(0.1, 100))
            lat1, en1, _ = comm_terms(dev, profile, shannon_rate(ChannelState(bw, snr)))
            lat2, en2, _ = comm_terms(dev, profile, shannon_rate(ChannelState(bw / 2, snr)))
            assert lat2 == [2 * x for x in lat1]
            assert en2 == [2 * x for x in en1]

    def test_matches_independent_latency_and_energy_formulas(self):
        rng = np.random.default_rng(4)
        profile = build_resnet50_usam_profile(224, 224)
        for kind in ("uav", "vehicle"):
            dev = device_from_kind("d", kind, tx_power_w=float(rng.uniform(0.1, 5.0)))
            payloads = [intermediate_bytes(profile, c) for c in range(profile.num_candidates)]
            for _ in range(100):
                rate = float(rng.uniform(1e3, 1e9))
                lats, ens, _ = comm_terms(dev, profile, rate)
                for payload, lat, en in zip(payloads, lats, ens, strict=True):
                    assert lat == tx_latency(payload, rate)
                    assert en == tx_energy(dev.tx_power_w, lat)

    def test_zero_rate_propagates(self):
        dev = device_from_kind("u", "uav")
        profile = build_resnet50_usam_profile(224, 224)
        scenario = one_device(dev, profile, ChannelState(1e6, 0.0))
        for evaluate in (format_cost_table, trico.effect_table):
            with pytest.raises(ZeroRateError):
                evaluate(scenario)
        with pytest.raises(ZeroRateError):
            decision_effect(scenario, (0,))


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
        rows = cost_rows(one_device(dev, profile, ch))
        assert (rows[0]["n_comm"], rows[0]["n_comp"]) == (1.0, 0.0)
        assert (rows[2]["n_comm"], rows[2]["n_comp"]) == (0.0, 1.0)

    def test_midpoint_is_half(self):
        dev = device_from_kind("u", "uav")
        ch = ChannelState(1e6, 3.0)
        # per-layer flops [10, 10, 10] make the device-side prefix sums
        # evenly spaced, so the middle candidate sits at 0.5 after scaling
        profile = synthetic_profile([4000, 3000, 2000], flops=[10, 10, 10])
        rows = cost_rows(one_device(dev, profile, ch))
        assert rows[1]["n_comm"] == pytest.approx(0.5)
        assert rows[1]["n_comp"] == pytest.approx(0.5)

    def test_degenerate_range_normalizes_to_zero(self):
        dev = device_from_kind("u", "uav")
        ch = ChannelState(1e6, 3.0)
        # second layer adds no flops, so both prefix sums and both payload
        # sizes are identical: every range is degenerate
        profile = synthetic_profile([4000, 4000], flops=[10, 0])
        rows = cost_rows(one_device(dev, profile, ch))
        assert all(r["n_comm"] == 0.0 and r["n_comp"] == 0.0 for r in rows)

    def test_conf_passes_through(self):
        dev = device_from_kind("u", "uav")
        ch = ChannelState(1e6, 3.0)
        profile = synthetic_profile([4000, 2000], flops=[10, 20])
        table = ConfidentialityTable((ConfEntry(1.0, 1.0), ConfEntry(2.0, 2.0)))
        rows = cost_rows(one_device(dev, profile, ch, table))
        assert rows[0]["n_conf"] == rows[0]["conf_cost"] == conf_cost(table, 0)
        assert rows[1]["n_conf"] == rows[1]["conf_cost"] == conf_cost(table, 1)


class TestEffect:
    def test_weighted_sum(self):
        # each row's effect is w_comm * n_comm + w_comp * n_comp + w_conf *
        # n_conf of its own columns, in that order, bit for bit
        rng = np.random.default_rng(26)
        for _ in range(30):
            scenario = random_scenario(rng)
            w = scenario.weights
            for r in cost_rows(scenario):
                assert r["effect"] == (
                    w.w_comm * r["n_comm"] + w.w_comp * r["n_comp"] + w.w_conf * r["n_conf"])

    def test_zero_terms(self):
        # equal payloads and equal prefix FLOPs collapse both ranges, and
        # every cut at the table's KL maximum costs no confidentiality
        profile = synthetic_profile([4000, 4000, 4000], flops=[10, 0, 0])
        table = ConfidentialityTable((ConfEntry(2.0, 2.0),) * 3)
        rows = cost_rows(one_device(device_from_kind("u", "uav"), profile, table=table))
        assert [r["effect"] for r in rows] == [0.0, 0.0, 0.0]

    def test_single_weight_projects(self):
        rng = np.random.default_rng(28)
        for _ in range(30):
            scenario = dataclasses.replace(
                random_scenario(rng), weights=TriCoWeights(1.0, 0.0, 0.0))
            rows = cost_rows(scenario)
            assert [r["effect"] for r in rows] == [r["n_comm"] for r in rows]

    def test_effect_kernel_equals_effect_value_of_comm_terms_bit_for_bit(self):
        # the kernel's comm terms and effects equal the scalar float code it
        # replaced (helpers.scalar_comm_terms and scalar_effect); rates span
        # 1 bit/s to 100 Gbit/s, so the payload bounds also meet rates that
        # make latency and energy large or tiny, and rates near 1e-310
        # overflow them to inf
        rng = np.random.default_rng(27)
        for case in range(40):
            scenario = random_scenario(rng)
            if case % 10 == 0:  # every payload equal: a degenerate comm range
                scenario = dataclasses.replace(
                    scenario, profile=synthetic_profile(
                        [4000] * scenario.num_candidates,
                        [layer.flops for layer in scenario.profile.layers]))
            exponents = rng.uniform(0.0, 11.0, size=(25, scenario.num_devices))
            exponents[:3] = rng.uniform(-310.0, -300.0, size=(3, scenario.num_devices))
            rates = 10.0 ** exponents
            kernel = scenario.effect_kernel
            effects = kernel(rates)
            terms = kernel.comm_terms(rates)
            assert effects.shape == (25, scenario.num_devices, scenario.num_candidates)
            profile, table, weights = scenario.profile, scenario.conf_table, scenario.weights
            scalar_effects = [scalar_effect(dev, profile, table, weights)
                              for dev in scenario.devices]
            for r, row_rates in enumerate(rates.tolist()):
                for d, (dev, rate) in enumerate(zip(scenario.devices, row_rates)):
                    for cut in range(scenario.num_candidates):
                        expected = scalar_comm_terms(dev, profile, weights, rate, cut)
                        got = tuple(float(t[r, d, cut]) for t in terms)
                        assert [x.hex() for x in got] == [x.hex() for x in expected]
                        effect = scalar_effects[d](rate, cut)
                        assert float(effects[r, d, cut]).hex() == effect.hex()

    def test_channel_count_must_match_devices(self):
        scenario = default_scenario()
        one_channel = scenario.resolved_channels()[:1]
        for evaluate in (link_rates, trico.effect_table):
            with pytest.raises(ValueError, match="one channel per device"):
                evaluate(scenario, one_channel)

    def test_effect_in_unit_interval_on_random_scenarios(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            scenario = random_scenario(rng)
            for cuts in product(
                range(scenario.num_candidates), repeat=scenario.num_devices
            ):
                eff = decision_effect(scenario, cuts)
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
        base = decision_effect(scenario, cuts)
        for perm in permutations(range(scenario.num_devices)):
            shuffled = Scenario(
                tuple(scenario.devices[i] for i in perm),
                tuple(scenario.channels[i] for i in perm),
                scenario.profile,
                scenario.conf_table,
                scenario.weights,
            )
            assert decision_effect(
                shuffled, tuple(cuts[i] for i in perm)
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
        cuts, _ = optimal_decision(scenario)
        assert cuts == (0,)

    def test_conf_only_weights_pick_deepest(self):
        scenario = default_scenario()
        scenario = Scenario(
            scenario.devices,
            scenario.channels,
            scenario.profile,
            scenario.conf_table,
            TriCoWeights(0.0, 0.0, 1.0),
        )
        cuts, _ = optimal_decision(scenario)
        assert cuts == (4, 4)

    def test_comp_only_weights_pick_shallowest(self):
        scenario = default_scenario()
        scenario = Scenario(
            scenario.devices,
            scenario.channels,
            scenario.profile,
            scenario.conf_table,
            TriCoWeights(0.0, 1.0, 0.0),
        )
        cuts, _ = optimal_decision(scenario)
        assert cuts == (0, 0)

    def test_matches_independent_enumerator_on_random_scenarios(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            scenario = random_scenario(rng)
            channels = scenario.resolved_channels()
            cuts, eff = optimal_decision(scenario, channels)
            oracle_cuts, oracle_eff = oracle_enumerate(scenario, channels)
            assert cuts == oracle_cuts
            assert eff == pytest.approx(oracle_eff, abs=1e-12)

    def test_returned_effect_is_minimum(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            scenario = random_scenario(rng, max_devices=3)
            _, eff = optimal_decision(scenario)
            for cuts in product(
                range(scenario.num_candidates), repeat=scenario.num_devices
            ):
                assert eff <= decision_effect(scenario, cuts) + 1e-12

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
        cuts, _ = optimal_decision(scenario)
        assert cuts == (1, 1)

    def test_rounding_tie_keeps_per_device_cut_and_effect(self, monkeypatch):
        # fsum rounds 1e-17 + 0.5 and 2e-17 + 0.5 to the same float, so
        # decisions (0, 0) and (1, 0) tie at 0.25. Enumeration keeps the
        # lexicographically larger vector; the per-device argmin keeps the
        # first device's exact minimum. The effect is the same.
        table = [[1e-17, 2e-17, 0.9, 0.9, 0.9], [0.5, 0.9, 0.9, 0.9, 0.9]]
        monkeypatch.setattr(trico, "effect_table", lambda scenario, channels: table)
        cuts, eff = optimal_decision(default_scenario())
        assert cuts == (0, 0)
        assert eff == 0.25
        assert enumerate_optimum(table) == ((1, 0), 0.25)

    def test_six_device_fleet_matches_independent_enumerator(self):
        rng = np.random.default_rng(25)
        scenario = random_scenario(rng, max_devices=6)
        while (scenario.num_devices, scenario.num_candidates) != (6, 5):
            scenario = random_scenario(rng, max_devices=6)
        channels = scenario.resolved_channels()
        cuts, eff = optimal_decision(scenario, channels)
        oracle_cuts, oracle_eff = oracle_enumerate(scenario, channels)
        assert cuts == oracle_cuts
        assert eff == oracle_eff


class TestTradeOffDirection:
    def test_deeper_cut_direction_on_default_scenario(self):
        scenario = default_scenario()
        from splitcvl.nnprofile import device_flops, intermediate_bytes

        rows = cost_rows(scenario)
        n = scenario.num_candidates
        for device_rows in (rows[:n], rows[n:]):
            for a, b in zip(device_rows, device_rows[1:]):
                assert b["comp_energy_j"] > a["comp_energy_j"]
                assert b["comm_latency_s"] <= a["comm_latency_s"]
                assert b["conf_cost"] <= a["conf_cost"]
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
        kernel, rates = scenario.effect_kernel, link_rates(scenario)
        assert float(row[2]) == kernel.comm_terms(rates)[0][0, 0]
        assert float(row[9]) == kernel(rates)[0, 0]

    def test_matches_scalar_reference_on_random_fleets(self):
        # fleets of 1 to 8 devices on fixed channels and distributions,
        # among them equal prefix FLOPs, equal payloads and all-zero KL
        # tables, so both min-max ranges and the KL maximum can collapse
        rng = np.random.default_rng(29)
        for case in range(200):
            scenario = random_fleet(rng, case)
            try:
                expected = reference_cost_table(scenario)
            except ZeroRateError:
                with pytest.raises(ZeroRateError):
                    format_cost_table(scenario)
                continue
            assert format_cost_table(scenario) == expected


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

    @pytest.mark.parametrize("case", ["payload", "comp"])
    def test_kernel_rejects_non_finite_terms(self, case):
        # 3e307 elements of 4 bytes is 9.6e308 bits; 1e-310 FLOP/s makes
        # every cut after the zero-FLOP first one cost inf
        sizes, peak, term, cut = {
            "payload": ([100, 12 * 10**307], 1e12, "payload bits", "l1"),
            "comp": ([100, 50, 25], 1e-310, "computation energy", "l1"),
        }[case]
        profile = synthetic_profile(sizes, flops=[0] + [10] * (len(sizes) - 1))
        devices = (device_from_kind("u", "uav"), device_from_kind("v", "vehicle", peak_flops=peak))
        scenario = Scenario(devices, (ChannelState(1e6, 1.0),) * 2, profile,
                            default_conf_table(len(sizes)), TriCoWeights())
        message = f"device {'u' if case == 'payload' else 'v'!r}: {term} at cut {cut!r} is inf"
        with pytest.raises(ValueError, match=message):
            scenario.effect_kernel

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
