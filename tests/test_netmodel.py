import math

import numpy as np
import pytest

from splitcvl.errors import ZeroRateError
from splitcvl.netmodel import (
    ChannelDistribution,
    ChannelState,
    DeviceProfile,
    device_from_kind,
    resolve_channel,
    shannon_rate,
    snr_db_to_linear,
)
from splitcvl.rlopt.agents import Hyperparams
from splitcvl.trico import ConfEntry, TriCoWeights

from helpers import channel_at, tx_energy, tx_latency


class TestShannonRate:
    def test_snr_3_doubles_bandwidth(self):
        assert shannon_rate(ChannelState(1e6, 3.0)) == 2e6

    def test_zero_snr_means_zero_rate(self):
        assert shannon_rate(ChannelState(1e6, 0.0)) == 0.0

    def test_snr_255_gives_8_bits_per_hz(self):
        assert shannon_rate(ChannelState(20e6, 255.0)) == pytest.approx(1.6e8)

    def test_strictly_increasing_in_bandwidth_and_snr(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            bw = rng.uniform(1e5, 1e8)
            snr = rng.uniform(1e-3, 1e3)
            base = shannon_rate(ChannelState(bw, snr))
            assert shannon_rate(ChannelState(bw * 1.01, snr)) > base
            assert shannon_rate(ChannelState(bw, snr * 1.01)) > base

    def test_doubling_bandwidth_exactly_doubles_rate(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            bw = rng.uniform(1e5, 1e8)
            snr = rng.uniform(0.0, 1e3)
            assert shannon_rate(ChannelState(2 * bw, snr)) == 2 * shannon_rate(
                ChannelState(bw, snr)
            )


class TestTxLatency:
    def test_stage4_payload_on_2mbps(self):
        assert tx_latency(401408, 2e6) == 1.605632

    def test_zero_payload(self):
        assert tx_latency(0, 123.0) == 0.0

    def test_one_second_case(self):
        assert tx_latency(1e6, 8e6) == 1.0

    def test_zero_rate_raises(self):
        with pytest.raises(ZeroRateError):
            tx_latency(100, 0.0)

    def test_halving_rate_exactly_doubles_latency(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            payload = rng.integers(1, 10**9)
            rate = rng.uniform(1.0, 1e9)
            assert tx_latency(payload, rate / 2) == 2 * tx_latency(payload, rate)


class TestTxEnergy:
    def test_product(self):
        assert tx_energy(2.0, 1.6) == 3.2

    def test_zero_time(self):
        assert tx_energy(17.0, 0.0) == 0.0

    def test_uav_power_case(self):
        assert tx_energy(30.0, 0.5) == 15.0

    def test_additive_in_time(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            p = rng.uniform(0.1, 50.0)
            t1, t2 = rng.uniform(0.0, 10.0, size=2)
            assert tx_energy(p, t1 + t2) == pytest.approx(
                tx_energy(p, t1) + tx_energy(p, t2), rel=1e-12
            )


class TestSampleChannel:
    def test_degenerate_ranges(self):
        dist = ChannelDistribution((1e6, 1e6), (6.0, 6.0))
        rng = np.random.default_rng(0)
        ch = ChannelState(*channel_at(dist, rng.random(), rng.random()))
        assert ch.bandwidth_hz == 1e6
        assert ch.snr_linear == pytest.approx(10**0.6)

    def test_same_seed_identical(self):
        dist = ChannelDistribution((1e6, 9e6), (0.0, 20.0))
        rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
        a = ChannelState(*channel_at(dist, rng_a.random(), rng_a.random()))
        b = ChannelState(*channel_at(dist, rng_b.random(), rng_b.random()))
        assert a == b

    def test_seed_stream_sequences_identical(self):
        dist = ChannelDistribution((1e6, 9e6), (0.0, 20.0))
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        seq_a = [channel_at(dist, rng_a.random(), rng_a.random()) for _ in range(50)]
        seq_b = [channel_at(dist, rng_b.random(), rng_b.random()) for _ in range(50)]
        assert seq_a == seq_b

    def test_equals_two_generator_uniform_calls(self):
        dist = ChannelDistribution((1e6, 9e6), (-20.0, 30.0))
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(200):
            bw, snr = channel_at(dist, rng.random(), rng.random())
            assert bw == twin.uniform(1e6, 9e6)
            assert snr == snr_db_to_linear(twin.uniform(-20.0, 30.0))

    def test_snr_range_exhaustive_sampling(self):
        # 0..10 dB must land in [1.0, 10.0] linear for every draw.
        dist = ChannelDistribution((1e6, 2e6), (0.0, 10.0))
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            ch = ChannelState(*channel_at(dist, rng.random(), rng.random()))
            assert 1.0 <= ch.snr_linear <= 10.0
            assert 1e6 <= ch.bandwidth_hz <= 2e6


class TestChannelTypes:
    def test_mean_channel_is_midpoint_in_db(self):
        dist = ChannelDistribution((5e6, 20e6), (5.0, 15.0))
        mean = dist.mean_channel()
        assert mean.bandwidth_hz == 12.5e6
        assert mean.snr_linear == pytest.approx(10.0)

    def test_mean_channel_of_huge_finite_range_is_finite(self):
        dist = ChannelDistribution((1e308, 1.7e308), (-1e308, 1e308))
        mean = dist.mean_channel()
        assert mean.bandwidth_hz == 1.35e308
        assert mean.snr_linear == 1.0

    def test_resolve_channel_passthrough(self):
        ch = ChannelState(1e6, 2.0)
        assert resolve_channel(ch) is ch

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            ChannelDistribution((2e6, 1e6), (0.0, 1.0))
        with pytest.raises(ValueError):
            ChannelDistribution((0.0, 1e6), (0.0, 1.0))
        with pytest.raises(ValueError):
            ChannelDistribution((1e6, 2e6), (3.0, 1.0))

    def test_finite_bounds_of_infinite_width_overflow_when_drawn(self):
        dist = ChannelDistribution((1e6, 2e6), (-1e308, 1e308))
        with pytest.raises(OverflowError):
            channel_at(dist, 0.5, 0.5)

    def test_snr_db_to_linear(self):
        assert snr_db_to_linear(0.0) == 1.0
        assert snr_db_to_linear(10.0) == pytest.approx(10.0)


class TestDeviceProfile:
    def test_kind_defaults(self):
        uav = device_from_kind("u", "uav")
        veh = device_from_kind("v", "vehicle")
        assert uav.peak_flops == 0.641e12
        assert uav.compute_power_w == 30.0
        assert uav.tx_power_w == 1.0
        assert veh.peak_flops == 1.3e12
        assert veh.tx_power_w == 2.0

    def test_overrides(self):
        dev = device_from_kind("u", "uav", tx_power_w=3.0)
        assert dev.tx_power_w == 3.0
        assert dev.peak_flops == 0.641e12

    def test_invariants(self):
        with pytest.raises(ValueError):
            DeviceProfile("x", "uav", peak_flops=0, compute_power_w=1, tx_power_w=1)
        with pytest.raises(ValueError):
            DeviceProfile("x", "boat", peak_flops=1, compute_power_w=1, tx_power_w=1)
        with pytest.raises(ValueError):
            DeviceProfile("x", "uav", peak_flops=1, compute_power_w=1, tx_power_w=0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ChannelState(math.nan, 1.0),
        lambda: ChannelState(1e6, math.inf),
        lambda: ChannelDistribution((1e6, math.inf), (0.0, 1.0)),
        lambda: ChannelDistribution((1e6, 2e6), (math.nan, 1.0)),
        lambda: ChannelDistribution((1e6, 2e6), (-math.inf, 1.0)),
        lambda: device_from_kind("u", "uav", peak_flops=math.inf),
        lambda: device_from_kind("u", "uav", compute_power_w=math.nan),
        lambda: device_from_kind("u", "uav", tx_power_w=math.nan),
        lambda: TriCoWeights(math.nan, math.nan, math.nan),
        lambda: ConfEntry(math.nan, 1.0),
        lambda: ConfEntry(1.0, math.inf),
    ],
    ids=[
        "channel_bandwidth_nan", "channel_snr_inf", "distribution_bandwidth_inf",
        "distribution_snr_nan", "distribution_snr_minus_inf", "device_peak_flops_inf",
        "device_compute_power_nan", "device_tx_power_nan", "weights_nan",
        "conf_kl_open_nan", "conf_kl_closed_inf",
    ],
)
def test_library_types_reject_non_finite_numbers(build):
    with pytest.raises(ValueError):
        build()


HUGE = 10**400  # an integer past the largest float: float(HUGE) overflows
HUGE_BUILDS = {
    "channel-bandwidth_hz": lambda: ChannelState(HUGE, 1.0),
    "channel-snr_linear": lambda: ChannelState(1e6, HUGE),
    "distribution-bandwidth_low": lambda: ChannelDistribution((HUGE, HUGE), (0.0, 1.0)),
    "distribution-bandwidth_high": lambda: ChannelDistribution((1e6, HUGE), (0.0, 1.0)),
    "distribution-snr_low": lambda: ChannelDistribution((1e6, 2e6), (-HUGE, 1.0)),
    "distribution-snr_high": lambda: ChannelDistribution((1e6, 2e6), (0.0, HUGE)),
    "device-peak_flops": lambda: DeviceProfile("a", "uav", HUGE, 1.0, 1.0),
    "device-compute_power_w": lambda: DeviceProfile("a", "uav", 1e12, HUGE, 1.0),
    "device-tx_power_w": lambda: DeviceProfile("a", "uav", 1e12, 1.0, HUGE),
    "conf-kl_open": lambda: ConfEntry(HUGE, 1.0),
    "conf-kl_closed": lambda: ConfEntry(1.0, HUGE),
    "conf-ssim_open": lambda: ConfEntry(1.0, 1.0, ssim_open=HUGE),
    "conf-ssim_closed": lambda: ConfEntry(1.0, 1.0, ssim_closed=HUGE),
    "weights-w_comm": lambda: TriCoWeights(HUGE, 0.0, 0.0),
    "weights-w_comp": lambda: TriCoWeights(0.0, HUGE, 0.0),
    "weights-w_conf": lambda: TriCoWeights(0.0, 0.0, HUGE),
}


@pytest.mark.parametrize("case", sorted(HUGE_BUILDS))
def test_library_types_reject_integers_past_the_largest_float(case):
    # an unbounded field would otherwise construct, and a later float
    # operation raise OverflowError (or, for peak_flops, read 0.0 FLOP
    # energy at every cut)
    with pytest.raises(ValueError):
        HUGE_BUILDS[case]()


# (build, the field its error names): each value passes the field's range
# check as the 0 or 1 Python counts a bool as
BOOL_BUILDS = {
    "channel-bandwidth_hz": (lambda: ChannelState(True, 1.0), "bandwidth_hz"),
    "channel-snr_linear": (lambda: ChannelState(1e6, True), "snr_linear"),
    "distribution-bandwidth_low": (
        lambda: ChannelDistribution((True, 2.0), (0.0, 1.0)), "bandwidth_range"),
    "distribution-bandwidth_high": (
        lambda: ChannelDistribution((0.5, True), (0.0, 1.0)), "bandwidth_range"),
    "distribution-snr_low": (
        lambda: ChannelDistribution((1e6, 2e6), (False, 1.0)), "snr_range_db"),
    "distribution-snr_high": (
        lambda: ChannelDistribution((1e6, 2e6), (0.0, True)), "snr_range_db"),
    "device-peak_flops": (
        lambda: DeviceProfile("a", "uav", True, 1.0, 1.0), "device 'a': peak_flops"),
    "device-compute_power_w": (
        lambda: DeviceProfile("a", "uav", 1e12, True, 1.0), "device 'a': compute_power_w"),
    "device-tx_power_w": (
        lambda: DeviceProfile("a", "uav", 1e12, 1.0, True), "device 'a': tx_power_w"),
    "conf-kl_open": (lambda: ConfEntry(True, 1.0), "kl_open"),
    "conf-kl_closed": (lambda: ConfEntry(1.0, False), "kl_closed"),
    "conf-ssim_open": (lambda: ConfEntry(1.0, 1.0, ssim_open=True), "ssim_open"),
    "conf-ssim_closed": (lambda: ConfEntry(1.0, 1.0, ssim_closed=False), "ssim_closed"),
    "weights-w_comm": (lambda: TriCoWeights(True, 0.0, 0.0), "w_comm"),
    "weights-w_comp": (lambda: TriCoWeights(0.0, True, 0.0), "w_comp"),
    "weights-w_conf": (lambda: TriCoWeights(0.0, 0.0, True), "w_conf"),
    "weights-alpha_open": (lambda: TriCoWeights(alpha_open=True), "alpha_open"),
    "weights-lambda_latency": (lambda: TriCoWeights(lambda_latency=False), "lambda_latency"),
}


@pytest.mark.parametrize("case", sorted(BOOL_BUILDS))
def test_library_types_reject_booleans(case):
    build, field = BOOL_BUILDS[case]
    with pytest.raises(ValueError, match=f"^{field} must be a number, got (True|False)$"):
        build()


# (build, the field its error names, the value as the error shows it)
NON_NUMBER_BUILDS = {
    "hyperparams-lr-str": (lambda: Hyperparams(lr="0.1"), "lr", "'0.1'"),
    "hyperparams-lr-none": (lambda: Hyperparams(lr=None), "lr", "None"),
    "weights-alpha_open": (lambda: TriCoWeights(alpha_open="0.5"), "alpha_open", "'0.5'"),
    "channel-bandwidth_hz": (lambda: ChannelState("1e6", 3.0), "bandwidth_hz", "'1e6'"),
    "conf-kl_open": (lambda: ConfEntry("1", 2.0), "kl_open", "'1'"),
    "device-peak_flops": (lambda: DeviceProfile("a", "uav", None, 1.0, 1.0),
                          "device 'a': peak_flops", "None"),
}


@pytest.mark.parametrize("case", sorted(NON_NUMBER_BUILDS))
def test_library_types_reject_non_numbers(case):
    # float() and the range comparisons would raise TypeError instead
    build, field, shown = NON_NUMBER_BUILDS[case]
    with pytest.raises(ValueError, match=f"^{field} must be a number, got {shown}$"):
        build()


@pytest.mark.parametrize("value", [np.float64(2.5), np.float32(2.5), np.int64(2), 2])
def test_numpy_numbers_pass(value):
    assert ChannelState(value, 1.0).bandwidth_hz == value
