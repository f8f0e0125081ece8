"""Layered workload model of the feature-extraction network.

The backbone is ResNet-50 with two shape-preserving uncertainty-aware
spatial attention modules (USAMs), one after the stem convolution and one
after stage 1. The profile is a flat table of per-layer forward-pass FLOPs
and output-tensor sizes; bottleneck blocks are single rows.

Conventions:
  * FLOPs count 2 operations per multiply-accumulate (conventions differ
    by a factor of two; this one is stated explicitly everywhere).
  * Batch norm, activations, pooling and residual adds contribute
    out_elements FLOPs each, for completeness. They are folded into the
    row of the layer that produces the tensor.
  * USAM cost is not published for this architecture; it is modeled as a
    configurable fraction of the preceding stage's FLOPs (default 1%).

Five partition candidates are exposed: the stem convolution output, the
first USAM output, and the stage 2, 3 and 4 outputs. Cutting at a
candidate runs every row up to and including it on the device and the
remainder on the server.

Profiles are immutable; arbitrary networks can be loaded from a CSV table
with columns name,flops,out_elements,bytes_per_element,is_candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

# (bottleneck planes, block count, stride of the stage's first block)
_RESNET50_STAGES = ((64, 3, 1), (128, 4, 2), (256, 6, 2), (512, 3, 2))
_EXPANSION = 4

VALID_BYTES_PER_ELEMENT = (1, 2, 4)


@dataclass(frozen=True)
class LayerProfile:
    """One row of the workload table."""

    name: str
    flops: int          # forward-pass FLOPs, 2 per multiply-accumulate
    out_elements: int   # scalars in the output tensor
    bytes_per_element: int = 4

    def __post_init__(self) -> None:
        if self.flops < 0:
            raise ValueError(f"layer {self.name!r}: flops must be >= 0")
        if self.out_elements <= 0:
            raise ValueError(f"layer {self.name!r}: out_elements must be > 0")
        if self.bytes_per_element not in VALID_BYTES_PER_ELEMENT:
            raise ValueError(
                f"layer {self.name!r}: bytes_per_element must be one of "
                f"{VALID_BYTES_PER_ELEMENT}"
            )

    @property
    def out_bytes(self) -> int:
        return self.out_elements * self.bytes_per_element


@dataclass(frozen=True)
class ModelProfile:
    """Ordered layer table with marked partition candidates."""

    layers: tuple[LayerProfile, ...]
    partition_candidates: tuple[int, ...]  # indices into layers, increasing

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("profile must contain at least one layer")
        if not self.partition_candidates:
            raise ValueError("profile must declare at least one partition candidate")
        prev = -1
        for idx in self.partition_candidates:
            if idx <= prev:
                raise ValueError("partition_candidates must be strictly increasing")
            if not 0 <= idx < len(self.layers):
                raise ValueError(f"partition candidate {idx} out of range")
            prev = idx
        prefix, total = [], 0
        for layer in self.layers:
            total += layer.flops
            prefix.append(total)
        object.__setattr__(self, "_prefix_flops", tuple(prefix))

    @property
    def num_candidates(self) -> int:
        return len(self.partition_candidates)

    def candidate_layer(self, candidate_index: int) -> LayerProfile:
        return self.layers[self.partition_candidates[candidate_index]]

    def cut_name(self, candidate_index: int) -> str:
        return self.candidate_layer(candidate_index).name


def _cut_index(profile: ModelProfile, cut: int) -> int:
    idx = int(cut)
    if not 0 <= idx < profile.num_candidates:
        raise ValueError(
            f"cut {idx} out of range for profile with "
            f"{profile.num_candidates} candidates"
        )
    return idx


def device_flops(profile: ModelProfile, cut: int) -> int:
    """FLOPs executed on the device: all rows up to and including the cut."""
    layer_idx = profile.partition_candidates[_cut_index(profile, cut)]
    return profile._prefix_flops[layer_idx]


def intermediate_bytes(profile: ModelProfile, cut: int) -> int:
    """Size of the feature tensor shipped to the server for this cut."""
    return profile.candidate_layer(_cut_index(profile, cut)).out_bytes


def build_resnet50_usam_profile(
    input_h: int,
    input_w: int,
    usam_flops_fraction: float = 0.01,
) -> ModelProfile:
    """Build the ResNet-50 + 2x USAM workload table for a given input size.

    Input dimensions must be at least 32 and divisible by 32 so the five
    downsampling steps land on integer spatial sizes. The table covers the
    convolutional backbone through stage 4 (no classifier head, which runs
    server-side after matching).
    """
    for dim in (input_h, input_w):
        if dim < 32 or dim % 32 != 0:
            raise ValueError(
                f"input dimensions must be >= 32 and divisible by 32, got "
                f"{input_h}x{input_w}"
            )
    if usam_flops_fraction < 0:
        raise ValueError("usam_flops_fraction must be >= 0")

    layers: list[LayerProfile] = []

    def add(name: str, flops: int, out_elements: int) -> int:
        layers.append(LayerProfile(name, int(flops), int(out_elements)))
        return len(layers) - 1

    # Stem: 7x7/2 conv to 64 channels, then BN + ReLU.
    h, w = input_h // 2, input_w // 2
    stem_out = 64 * h * w
    stem_flops = 2 * (7 * 7 * 3 * 64 * h * w) + 2 * stem_out
    idx_conv1 = add("conv1", stem_flops, stem_out)

    # First USAM, shape preserving, placed right after the stem.
    usam1_flops = max(1, round(usam_flops_fraction * stem_flops))
    idx_usam1 = add("usam1", usam1_flops, stem_out)

    # 3x3/2 max pool.
    h, w = h // 2, w // 2
    pool_out = 64 * h * w
    add("maxpool", pool_out, pool_out)

    in_ch = 64
    stage_last_idx: dict[int, int] = {}
    for stage_num, (planes, blocks, stage_stride) in enumerate(_RESNET50_STAGES, 1):
        out_ch = planes * _EXPANSION
        stage_flops = 0
        for b in range(1, blocks + 1):
            stride = stage_stride if b == 1 else 1
            out_h, out_w = h // stride, w // stride
            macs = (
                in_ch * planes * h * w                 # 1x1 reduce
                + 9 * planes * planes * out_h * out_w  # 3x3, strided in block 1
                + planes * out_ch * out_h * out_w      # 1x1 expand
            )
            elementwise = (
                2 * planes * h * w             # BN+ReLU after the reduce
                + 2 * planes * out_h * out_w   # BN+ReLU after the 3x3
                + out_ch * out_h * out_w       # BN after the expand
                + 2 * out_ch * out_h * out_w   # residual add + final ReLU
            )
            if b == 1:
                macs += in_ch * out_ch * out_h * out_w  # 1x1 projection shortcut
                elementwise += out_ch * out_h * out_w   # its BN
            flops = 2 * macs + elementwise
            stage_last_idx[stage_num] = add(
                f"stage{stage_num}_b{b}", flops, out_ch * out_h * out_w
            )
            stage_flops += flops
            h, w = out_h, out_w
            in_ch = out_ch
        if stage_num == 1:
            usam2_flops = max(1, round(usam_flops_fraction * stage_flops))
            add("usam2", usam2_flops, in_ch * h * w)

    candidates = (
        idx_conv1,
        idx_usam1,
        stage_last_idx[2],
        stage_last_idx[3],
        stage_last_idx[4],
    )
    return ModelProfile(layers=tuple(layers), partition_candidates=candidates)


PROFILE_HEADER = "name,flops,out_elements,bytes_per_element,is_candidate"


def parse_profile_csv(text: str) -> ModelProfile:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != PROFILE_HEADER:
        raise ConfigError(f"profile table must start with header {PROFILE_HEADER!r}")
    layers: list[LayerProfile] = []
    candidates: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 5:
            raise ConfigError(f"profile line {lineno}: expected 5 fields")
        name, flops_s, out_s, bpe_s, cand_s = (p.strip() for p in parts)
        try:
            flops, out_elements, bpe = int(flops_s), int(out_s), int(bpe_s)
            is_candidate = int(cand_s)
        except ValueError as exc:
            raise ConfigError(f"profile line {lineno}: {exc}") from exc
        if is_candidate not in (0, 1):
            raise ConfigError(f"profile line {lineno}: is_candidate must be 0 or 1")
        try:
            layers.append(LayerProfile(name, flops, out_elements, bpe))
        except ValueError as exc:
            raise ConfigError(f"profile line {lineno}: {exc}") from exc
        if is_candidate:
            candidates.append(len(layers) - 1)
    try:
        return ModelProfile(tuple(layers), tuple(candidates))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_profile(path) -> ModelProfile:
    with open(path) as fh:
        return parse_profile_csv(fh.read())
