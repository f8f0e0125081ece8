"""Profile builder checks against an independently coded shape and FLOP
oracle.

The oracle below propagates ResNet-50 shapes from the architecture
definition (channel widths and stride schedule) without reusing any of the
builder's code, and counts convolution FLOPs only. The builder adds small
elementwise and attention-module terms on top, which is why the FLOP
comparison carries a 5% band while the shape comparison is exact.
"""

import pytest

from splitcvl.errors import ConfigError, DimensionError
from splitcvl.nnprofile import (
    LayerProfile,
    ModelProfile,
    build_resnet50_usam_profile,
    device_flops,
    intermediate_bytes,
    load_profile,
    parse_profile_csv,
)

from helpers import format_profile_csv, save_profile


def total_flops(profile):
    return sum(layer.flops for layer in profile.layers)


def oracle_candidate_elements(h, w):
    """Output element counts at the five cuts, from first principles.

    Stem conv halves the spatial size to 64 channels; the first attention
    module preserves shape; stages 2..4 sit at 1/8, 1/16 and 1/32 of the
    input with 512, 1024 and 2048 channels.
    """
    return [
        64 * (h // 2) * (w // 2),
        64 * (h // 2) * (w // 2),
        512 * (h // 8) * (w // 8),
        1024 * (h // 16) * (w // 16),
        2048 * (h // 32) * (w // 32),
    ]


def oracle_conv_flops(h, w):
    """Total convolution FLOPs (2 per MAC) of the ResNet-50 backbone."""
    total = 2 * (7 * 7 * 3 * 64) * (h // 2) * (w // 2)  # stem
    spec = [  # (in_ch, planes, blocks, out_spatial_divisor)
        (64, 64, 3, 4),
        (256, 128, 4, 8),
        (512, 256, 6, 16),
        (1024, 512, 3, 32),
    ]
    for in_ch, planes, blocks, div in spec:
        oh, ow = h // div, w // div
        out_ch = 4 * planes
        in_h = oh if in_ch == 64 else oh * 2  # first block reduces at input res
        in_w = ow if in_ch == 64 else ow * 2
        # first block: reduce at input resolution, stride on the 3x3
        total += 2 * (
            in_ch * planes * in_h * in_w
            + 9 * planes * planes * oh * ow
            + planes * out_ch * oh * ow
            + in_ch * out_ch * oh * ow  # projection shortcut
        )
        # remaining blocks at the output resolution
        for _ in range(blocks - 1):
            total += 2 * (
                out_ch * planes * oh * ow
                + 9 * planes * planes * oh * ow
                + planes * out_ch * oh * ow
            )
    return total


@pytest.fixture(scope="module")
def profile224():
    return build_resnet50_usam_profile(224, 224)


class TestBuilderShapes:
    def test_candidate_bytes_match_oracle_exactly(self, profile224):
        expected = oracle_candidate_elements(224, 224)
        for cut, elems in enumerate(expected):
            layer = profile224.candidate_layer(cut)
            assert layer.out_elements == elems
            assert intermediate_bytes(profile224, cut) == elems * 4

    def test_frozen_byte_values_at_224(self, profile224):
        got = [intermediate_bytes(profile224, c) for c in range(5)]
        assert got == [3211264, 3211264, 1605632, 802816, 401408]

    def test_stage4_elements(self, profile224):
        assert profile224.candidate_layer(4).out_elements == 2048 * 7 * 7 == 100352

    def test_stem_elements(self, profile224):
        assert profile224.candidate_layer(0).out_elements == 64 * 112 * 112 == 802816

    def test_shapes_at_other_sizes(self):
        for h, w in [(224, 320), (256, 256), (320, 320)]:
            profile = build_resnet50_usam_profile(h, w)
            expected = oracle_candidate_elements(h, w)
            got = [profile.candidate_layer(c).out_elements for c in range(5)]
            assert got == expected

    def test_layer_chain_is_shape_consistent(self, profile224):
        # Downsampling happens exactly at maxpool and the first block of
        # stages 2..4; everywhere else consecutive rows share their size.
        shrink = {"maxpool": 2, "stage2_b1": 2, "stage3_b1": 2, "stage4_b1": 2}
        widen = {"stage1_b1": 4, "stage2_b1": 2, "stage3_b1": 2, "stage4_b1": 2}
        prev = profile224.layers[0]
        for layer in profile224.layers[1:]:
            factor = widen.get(layer.name, 1) / shrink.get(layer.name, 1) ** 2
            assert layer.out_elements == prev.out_elements * factor
            prev = layer

    def test_invalid_dimensions(self):
        for h, w in [(223, 224), (224, 100), (31, 32), (0, 224)]:
            with pytest.raises(DimensionError):
                build_resnet50_usam_profile(h, w)


class TestFlops:
    def test_total_flops_within_5pct_of_conv_oracle(self, profile224):
        oracle = oracle_conv_flops(224, 224)
        assert total_flops(profile224) == pytest.approx(oracle, rel=0.05)

    def test_oracle_magnitude(self):
        # The backbone is about 4.1 GMACs at 224x224, i.e. ~8.2e9 FLOPs.
        assert oracle_conv_flops(224, 224) == pytest.approx(8.2e9, rel=0.05)

    def test_device_flops_monotone_along_candidates(self, profile224):
        flops = [device_flops(profile224, c) for c in range(5)]
        assert all(a < b for a, b in zip(flops, flops[1:]))

    def test_full_prefix_at_last_cut(self, profile224):
        assert device_flops(profile224, 4) == total_flops(profile224)

    def test_first_cut_is_stem_only(self, profile224):
        assert device_flops(profile224, 0) == profile224.layers[0].flops

    def test_partition_conservation(self, profile224):
        # the device's prefix and the server's remaining rows sum to the total
        for cut in range(5):
            layer_idx = profile224.partition_candidates[cut]
            server = sum(layer.flops for layer in profile224.layers[layer_idx + 1 :])
            assert device_flops(profile224, cut) + server == total_flops(profile224)

    def test_usam_preserves_shape_and_costs_little(self, profile224):
        by_name = {layer.name: layer for layer in profile224.layers}
        assert by_name["usam1"].out_elements == by_name["conv1"].out_elements
        assert by_name["usam2"].out_elements == by_name["stage1_b3"].out_elements
        assert by_name["usam1"].flops < 0.02 * by_name["conv1"].flops
        assert by_name["usam1"].flops > 0

    def test_usam_fraction_configurable(self):
        fat = build_resnet50_usam_profile(224, 224, usam_flops_fraction=0.5)
        by_name = {layer.name: layer for layer in fat.layers}
        assert by_name["usam1"].flops == round(0.5 * by_name["conv1"].flops)


class TestByteOrdering:
    def test_stage4_is_strict_minimum_for_square_inputs(self):
        for size in (224, 256, 320, 448):
            profile = build_resnet50_usam_profile(size, size)
            sizes = [intermediate_bytes(profile, c) for c in range(5)]
            assert sizes[4] < min(sizes[:4])

    def test_bytes_non_increasing_along_candidates(self):
        profile = build_resnet50_usam_profile(224, 224)
        sizes = [intermediate_bytes(profile, c) for c in range(5)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestPartitionPoint:
    def test_out_of_range(self, profile224):
        with pytest.raises(ValueError):
            device_flops(profile224, 5)
        with pytest.raises(ValueError):
            intermediate_bytes(profile224, 9)
        with pytest.raises(ValueError):
            device_flops(profile224, -1)


class TestProfileFile:
    def test_round_trip_is_bit_exact(self, tmp_path, profile224):
        path = tmp_path / "profile.csv"
        save_profile(profile224, path)
        loaded = load_profile(path)
        assert loaded.layers == profile224.layers
        assert loaded.partition_candidates == profile224.partition_candidates
        assert format_profile_csv(loaded) == format_profile_csv(profile224)

    def test_loaded_candidates_match_rows(self, tmp_path):
        text = (
            "name,flops,out_elements,bytes_per_element,is_candidate\n"
            "a,100,50,4,1\n"
            "b,200,25,4,0\n"
            "c,300,10,2,1\n"
        )
        profile = parse_profile_csv(text)
        assert profile.partition_candidates == (0, 2)
        assert intermediate_bytes(profile, 1) == 20
        assert device_flops(profile, 1) == 600

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError):
            parse_profile_csv("bogus header\n")
        with pytest.raises(ConfigError):
            parse_profile_csv(
                "name,flops,out_elements,bytes_per_element,is_candidate\na,1,1\n"
            )
        with pytest.raises(ConfigError):
            parse_profile_csv(
                "name,flops,out_elements,bytes_per_element,is_candidate\na,x,1,4,0\n"
            )
        with pytest.raises(ConfigError):  # no candidate marked
            parse_profile_csv(
                "name,flops,out_elements,bytes_per_element,is_candidate\na,1,1,4,0\n"
            )


class TestTypeInvariants:
    def test_layer_invariants(self):
        with pytest.raises(ValueError):
            LayerProfile("x", -1, 10)
        with pytest.raises(ValueError):
            LayerProfile("x", 1, 0)
        with pytest.raises(ValueError):
            LayerProfile("x", 1, 1, bytes_per_element=3)

    def test_candidates_strictly_increasing(self):
        layers = (LayerProfile("a", 1, 1), LayerProfile("b", 1, 1))
        with pytest.raises(ValueError):
            ModelProfile(layers, (1, 0))
        with pytest.raises(ValueError):
            ModelProfile(layers, (0, 0))
        with pytest.raises(ValueError):
            ModelProfile(layers, (0, 5))
