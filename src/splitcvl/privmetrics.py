"""Privacy-leakage metrics over attack-reconstruction corpora.

Two quantities describe how much an intermediate-feature reconstruction
reveals about the original image:

  * SSIM, the structural similarity index, in [0, 1]. Computed over
    non-overlapping 8x8 windows with the standard constants
    C1=(0.01*255)^2, C2=(0.03*255)^2 and population statistics. Higher
    SSIM means the attack recovered more structure, i.e. more leakage.
    A window's sums of pixels, squares and products are integers of at
    most 64*255^2 = 4,161,600, below 2^24, so every partial sum is exact
    in float32 and SSIM does not depend on summation order or the host.
    The sums run in float32 and the statistics built from them in
    float64. Each original is tiled once for all of its reconstructions,
    across every cut that holds it.
  * KL divergence between per-channel 256-bin pixel-intensity histograms,
    in nats, direction KL(original || reconstruction), with 1e-6 added to
    every bin count before normalization. Higher KL means the
    reconstruction diverges more from the original, i.e. stronger
    confidentiality.

The distribution behind the KL term is a modeling choice (pixel
histograms); nothing finer-grained is implied. ``build_conf_table`` turns
a per-cut corpus of (original, open-box, closed-box) image triples into
the confidentiality table consumed by the cost model, averaging KL and
SSIM per cut with exactly-rounded sums so the result is independent of
triple order. An attack corpus inverts the same inputs at every cut, so
its originals repeat: ``build_conf_table`` histograms and tiles each
distinct original (same shape, same pixels) once per table, whatever
objects hold it.

Images load from binary PGM/PPM (P5/P6, 8-bit). Files are checked once,
as they are read, and the metrics then work on the validated uint8
arrays. An image must be at least 8x8, the SSIM window, and a corpus
with two files for one role of a triple is rejected. A PNM header is
whitespace-separated tokens, with ``#`` comments, and one whitespace
byte after maxval.
``write_demo_corpus`` emits a synthetic five-cut corpus whose
reconstruction quality degrades with cut depth, standing in for real
attack outputs.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyCutError,
    WindowTooLargeError,
)
from .trico import ConfEntry

DYNAMIC_RANGE = 255  # 8-bit images throughout
SMOOTHING = 1e-6  # added to every histogram bin count, so no probability is 0
WINDOW = 8  # SSIM window side
C1 = (0.01 * DYNAMIC_RANGE) ** 2
C2 = (0.03 * DYNAMIC_RANGE) ** 2


@dataclass(frozen=True)
class Image:
    """8-bit image, grayscale or RGB: a read-only copy of uint8 pixels
    shaped (height, width, channels), with 1 or 3 channels."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        px = np.array(self.pixels)
        if px.dtype != np.uint8:
            raise ValueError("pixels must be uint8")
        if px.ndim != 3 or px.shape[2] not in (1, 3):
            raise ValueError(f"pixels must be (height, width, 1 or 3), got {px.shape}")
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


# (cut name, [(original, open-box, closed-box), ...]) per cut, in candidate order
Corpus = list[tuple[str, list[tuple[Image, Image, Image]]]]


# per-channel offsets that give each channel of an RGB image its own 256 bins
_CHANNEL_SHIFTS = np.arange(3, dtype=np.intp)[:, None] * (DYNAMIC_RANGE + 1)


def histogram_of(img: Image) -> np.ndarray:
    """Smoothed per-channel intensity distribution, shaped (channels, 256);
    every row is positive and sums to 1."""
    ch = img.channels
    # one plane per channel; a gray image is already one, so this copies nothing
    planes = np.ascontiguousarray(img.pixels.transpose(2, 0, 1)).reshape(ch, -1)
    if ch > 1:
        planes = planes + _CHANNEL_SHIFTS  # channel c counts into bins c*256...
    counts = np.bincount(planes.ravel(), minlength=ch * (DYNAMIC_RANGE + 1))
    smoothed = counts.reshape(ch, DYNAMIC_RANGE + 1) + SMOOTHING
    return smoothed / smoothed.sum(axis=1, keepdims=True)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats, averaged over channels; asymmetric by design.

    ``p`` and ``q`` are (channels, bins) rows of positive probabilities,
    as ``histogram_of`` returns them.
    """
    if p.shape != q.shape:
        raise DimensionMismatchError(f"histogram shapes differ: {p.shape} vs {q.shape}")
    per_channel = np.sum(p * np.log(p / q), axis=1)
    return float(math.fsum(per_channel) / len(per_channel))


def _tiles(images: Sequence[Image]) -> np.ndarray:
    """The whole WINDOW x WINDOW tiles of same-shape images as float32 rows,
    shaped (images, channels, tiles, WINDOW**2), tiles in row-major order."""
    nh, nw = images[0].height // WINDOW, images[0].width // WINDOW
    ch = images[0].channels
    px = np.stack([img.pixels[: nh * WINDOW, : nw * WINDOW] for img in images])
    # move each tile row (WINDOW pixels of every channel) as one opaque item,
    # far cheaper than moving its bytes one by one
    rows = px.reshape(len(images), nh, WINDOW, nw, WINDOW * ch).view(f"V{WINDOW * ch}")
    tiles = np.ascontiguousarray(rows.transpose(0, 1, 3, 2, 4)).view(np.uint8)
    tiles = tiles.reshape(len(images), nh * nw, WINDOW * WINDOW, ch).transpose(0, 3, 1, 2)
    return tiles.astype(np.float32, order="C")


def ssim(orig: Image, recons: Sequence[Image]) -> list[float]:
    """Mean structural similarity of ``orig`` to each reconstruction,
    clamped to [0, 1], one score per reconstruction.

    The image is tiled into non-overlapping WINDOW x WINDOW patches
    (trailing remainder pixels are ignored). Every per-tile sum of pixels,
    squares and products is an integer of at most WINDOW**2 * 255**2,
    below 2**24, so the float32 tile sums are exact whatever the summation
    order.
    """
    for b in recons:
        if b.pixels.shape != orig.pixels.shape:
            raise DimensionMismatchError("images must share dimensions and channels")
    if WINDOW > min(orig.width, orig.height):
        raise WindowTooLargeError(
            f"window {WINDOW} exceeds image extent {orig.width}x{orig.height}"
        )

    n = WINDOW * WINDOW
    tiles = _tiles((orig, *recons))
    mu = np.einsum("kcti->kct", tiles).astype(np.float64) / n
    var = np.einsum("kcti,kcti->kct", tiles, tiles).astype(np.float64) / n - mu**2
    mu_a, mu_b = mu[0], mu[1:]
    var_a, var_b = var[0], var[1:]
    cov = np.einsum("cti,kcti->kct", tiles[0], tiles[1:]).astype(np.float64) / n - mu_a * mu_b
    terms = ((2 * mu_a * mu_b + C1) * (2 * cov + C2)) / (
        (mu_a**2 + mu_b**2 + C1) * (var_a + var_b + C2)
    )
    # one mean per (reconstruction, channel) row; a reduction over the
    # contiguous last axis sums each row pairwise, as a 1-d np.mean does
    return [
        min(1.0, max(0.0, math.fsum(values) / len(values)))
        for values in np.mean(terms, axis=2).tolist()
    ]


def build_conf_table(corpus: Corpus) -> tuple[ConfEntry, ...]:
    """Average per-cut KL and SSIM of (original, open, closed) triples.

    Corpus entries are (cut_name, triples) in candidate order. Means use
    exactly-rounded summation, so triple order inside a cut is irrelevant.
    Triples whose originals are equal (same shape and same pixels), across
    cuts or inside one, share that original's work, whether or not they
    hold one object: it is histogrammed once and scored against all of
    their reconstructions in one ``ssim`` call. Every score is the one its
    triple alone would get, so the table does not depend on how originals
    repeat.
    """
    # each distinct original with the (cut, triple) slots that hold it
    groups: dict[tuple, tuple[Image, list[tuple[int, int]]]] = {}
    for c, (cut_name, triples) in enumerate(corpus):
        if not triples:
            raise EmptyCutError(f"cut {cut_name!r} has no image triples")
        for t, (orig, _, _) in enumerate(triples):
            key = (orig.pixels.shape, orig.pixels.tobytes())
            groups.setdefault(key, (orig, []))[1].append((c, t))
    # (kl_open, kl_closed, ssim_open, ssim_closed) per triple, cut by cut
    scores: list[list] = [[None] * len(triples) for _, triples in corpus]
    for orig, slots in groups.values():
        h_orig = histogram_of(orig)
        recons = [img for c, t in slots for img in corpus[c][1][t][1:]]
        kls = [kl_divergence(h_orig, histogram_of(img)) for img in recons]
        ssims = ssim(orig, recons)
        for i, (c, t) in enumerate(slots):
            scores[c][t] = (kls[2 * i], kls[2 * i + 1], ssims[2 * i], ssims[2 * i + 1])
    entries = []
    for rows in scores:
        n = len(rows)
        kl_open, kl_closed, ssim_open, ssim_closed = zip(*rows)
        entries.append(
            ConfEntry(
                kl_open=math.fsum(kl_open) / n,
                kl_closed=math.fsum(kl_closed) / n,
                ssim_open=math.fsum(ssim_open) / n,
                ssim_closed=math.fsum(ssim_closed) / n,
            )
        )
    return tuple(entries)


# -- image files --------------------------------------------------------------


def write_image(img: Image, path) -> None:
    """Binary PGM (P5) for grayscale, PPM (P6) for color."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + f" {img.width} {img.height} 255\n".encode()
    Path(path).write_bytes(header + img.pixels.tobytes())


# whitespace and comments, then a decimal token (empty where none follows)
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n?)*(\d*)")


def _read_pnm_header(data: bytes, path: Path) -> tuple[list[int], int]:
    """Width, height and maxval after the magic, skipping comments, and
    the raster's offset."""
    tokens: list[int] = []
    pos = 2
    for _ in range(3):
        match = _HEADER_TOKEN.match(data, pos)
        pos = match.end()
        if not match.group(1):
            if pos >= len(data):
                raise ConfigError(f"{path}: truncated image header")
            raise ConfigError(f"{path}: bad header token at byte {pos}")
        tokens.append(int(match.group(1)))
    # one whitespace byte separates header from raster
    if pos >= len(data):
        raise ConfigError(f"{path}: truncated image header")
    if not data[pos : pos + 1].isspace():
        raise ConfigError(
            f"{path}: byte {pos} after maxval is {data[pos : pos + 1]!r}, not whitespace"
        )
    return tokens, pos + 1


def read_image(path) -> Image:
    """Decode P5/P6 (maxval 255)."""
    if not isinstance(path, Path):
        path = Path(path)
    data = path.read_bytes()
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise ConfigError(f"{path}: unsupported image format {magic!r}")
    channels = 1 if magic == b"P5" else 3
    (width, height, maxval), offset = _read_pnm_header(data, path)
    if maxval != 255:
        raise ConfigError(f"{path}: only maxval 255 is supported, got {maxval}")
    if width == 0 or height == 0:
        raise ConfigError(f"{path}: image is {width}x{height}; both sides must be positive")
    expected = width * height * channels
    raster = data[offset : offset + expected]
    if len(raster) != expected:
        raise ConfigError(f"{path}: raster holds {len(raster)} of {expected} bytes")
    return Image(np.frombuffer(raster, dtype=np.uint8).reshape(height, width, channels))


_ROLES = ("orig", "open", "closed")


def load_corpus_dir(path) -> Corpus:
    """Read a reconstruction corpus from disk.

    Layout: one subdirectory per cut, taken in ascending name order (use
    numeric prefixes like ``0_conv1`` to fix candidate order); inside,
    triples are files ``orig_<id>``, ``open_<id>``, ``closed_<id>`` with
    .pgm/.ppm extensions. Two files for one role of one triple (say
    ``orig_1.pgm`` and ``orig_1.ppm``) are rejected, and so is a triple
    whose images differ in shape or are smaller than the SSIM window. A
    cut name becomes a field of the CSV confidentiality table, so one
    holding a comma or a line break (as ``str.splitlines`` sees one) is
    rejected too.
    """
    root = Path(path)
    if not root.is_dir():
        raise ConfigError(f"corpus directory {root} does not exist")
    # entries of one directory sort by name alone, without Path comparisons
    cut_dirs = sorted((p for p in root.iterdir() if p.is_dir()), key=lambda p: p.name)
    if not cut_dirs:
        raise ConfigError(f"corpus directory {root} has no cut subdirectories")
    for cut_dir in cut_dirs:
        # the table's reader splits rows with str.splitlines and fields at ","
        name = cut_dir.name
        if "," in name or name.splitlines() != [name]:
            raise ConfigError(
                f"corpus directory {root}: cut name {name!r} contains a "
                "comma or line break, which the CSV confidentiality table cannot hold"
            )
    corpus = []
    for cut_dir in cut_dirs:
        by_id: dict[str, dict[str, Path]] = {}
        for file in sorted(cut_dir.iterdir(), key=lambda p: p.name):
            role, sep, triple_id = file.stem.partition("_")
            if not sep or role not in _ROLES:
                continue
            roles = by_id.setdefault(triple_id, {})
            if role in roles:
                raise ConfigError(
                    f"{cut_dir}: {roles[role].name} and {file.name} are both {file.stem}"
                )
            roles[role] = file
        triples = []
        for triple_id in sorted(by_id):
            roles = by_id[triple_id]
            if set(roles) != set(_ROLES):
                raise ConfigError(
                    f"{cut_dir}: triple {triple_id!r} is missing "
                    f"{sorted(set(_ROLES) - set(roles))}"
                )
            triple = tuple(read_image(roles[role]) for role in _ROLES)
            where = f"{cut_dir}: triple {triple_id!r}"
            if len({img.pixels.shape for img in triple}) > 1:
                raise ConfigError(f"{where}: images differ in shape: " + ", ".join(
                    f"{roles[role].name} {img.width}x{img.height}x{img.channels}"
                    for role, img in zip(_ROLES, triple)
                ))
            if min(triple[0].width, triple[0].height) < WINDOW:
                raise ConfigError(
                    f"{where}: images are {triple[0].width}x{triple[0].height}, "
                    f"smaller than the {WINDOW}x{WINDOW} SSIM window"
                )
            triples.append(triple)
        if not triples:
            raise EmptyCutError(f"corpus cut {cut_dir.name!r} contains no triples")
        corpus.append((cut_dir.name, triples))
    return corpus


# -- synthetic demo corpus ----------------------------------------------------

# Fraction of pixels lost to noise per cut for (open-box, closed-box)
# reconstructions. Open-box recovery collapses faster with depth;
# closed-box keeps more structure at shallow cuts but also fails by
# stage 4. Pixel replacement makes the reconstruction's histogram an
# exact (1-t)*original + t*uniform mixture, so the KL term grows
# monotonically with the corruption fraction.
DEMO_CUT_BLENDS = (
    ("0_conv1", 0.004, 0.010),
    ("1_usam1", 0.06, 0.08),
    ("2_stage2", 0.30, 0.25),
    ("3_stage3", 0.85, 0.60),
    ("4_stage4", 1.0, 0.97),
)


def _demo_original(rng: np.random.Generator, size: int) -> Image:
    """Structured grayscale test card: a coarse ramp plus flat blobs.

    Intensities are quantized to a handful of levels so original
    histograms stay concentrated; that keeps the KL term growing as
    reconstructions flatten toward noise.
    """
    yy, xx = np.mgrid[0:size, 0:size]
    base = 40.0 + 170.0 * (xx + yy) / (2 * size - 2)
    for _ in range(3):
        cx, cy = rng.integers(4, size - 4, size=2)
        r = int(rng.integers(3, size // 3))
        mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= r**2
        base[mask] = float(rng.integers(10, 245))
    quantized = np.round(base / 32.0) * 32.0
    return Image(np.clip(quantized, 0, 255).astype(np.uint8)[:, :, None])


def _blend_with_noise(img: Image, t: float, rng: np.random.Generator) -> Image:
    """Replace a fraction t of pixels with uniform noise."""
    noise = rng.integers(0, 256, size=img.pixels.shape, dtype=np.int64)
    mask = rng.random(size=img.pixels.shape) < t
    mixed = np.where(mask, noise, img.pixels.astype(np.int64))
    return Image(mixed.astype(np.uint8))


def make_demo_corpus(seed: int = 0, triples_per_cut: int = 6, size: int = 32) -> Corpus:
    """In-memory five-cut corpus with depth-dependent reconstruction decay."""
    # a blob radius is drawn from [3, size // 3), which is empty below 12
    if size < 12:
        raise ValueError(f"demo image size must be at least 12, got {size}")
    if triples_per_cut < 1:
        raise ValueError(f"triples_per_cut must be at least 1, got {triples_per_cut}")
    rng = np.random.default_rng(seed)
    originals = [_demo_original(rng, size) for _ in range(triples_per_cut)]
    corpus = []
    for cut_name, t_open, t_closed in DEMO_CUT_BLENDS:
        triples = [
            (orig,
             _blend_with_noise(orig, t_open, rng),
             _blend_with_noise(orig, t_closed, rng))
            for orig in originals
        ]
        corpus.append((cut_name, triples))
    return corpus


def write_demo_corpus(
    path, seed: int = 0, triples_per_cut: int = 6, size: int = 32
) -> None:
    """Write the demo corpus as PGM files in the documented dir layout."""
    corpus = make_demo_corpus(seed, triples_per_cut, size)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for cut_name, triples in corpus:
        cut_dir = root / cut_name
        cut_dir.mkdir(exist_ok=True)
        for i, (orig, open_box, closed_box) in enumerate(triples):
            write_image(orig, cut_dir / f"orig_{i:03d}.pgm")
            write_image(open_box, cut_dir / f"open_{i:03d}.pgm")
            write_image(closed_box, cut_dir / f"closed_{i:03d}.pgm")
