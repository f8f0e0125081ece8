"""Privacy-leakage metrics over attack-reconstruction corpora.

Two quantities describe how much an intermediate-feature reconstruction
reveals about the original image:

  * SSIM, the structural similarity index, in [0, 1]. Computed over
    non-overlapping windows (default 8x8) with the standard constants
    C1=(0.01*255)^2, C2=(0.03*255)^2 and population statistics. Higher
    SSIM means the attack recovered more structure, i.e. more leakage.
  * KL divergence between per-channel 256-bin pixel-intensity histograms,
    in nats, direction KL(original || reconstruction), with additive
    smoothing before normalization. Higher KL means the reconstruction
    diverges more from the original, i.e. stronger confidentiality.

The distribution behind the KL term is a modeling choice (pixel
histograms); nothing finer-grained is implied. ``build_conf_table`` turns
a per-cut corpus of (original, open-box, closed-box) image triples into
the confidentiality table consumed by the cost model, averaging KL and
SSIM per cut with exactly-rounded sums so the result is independent of
triple order.

Images load from binary PGM/PPM (P5/P6, 8-bit) or, for tests, from a
comma-separated grayscale matrix. ``write_demo_corpus`` emits a synthetic
five-cut corpus whose reconstruction quality degrades with cut depth,
standing in for real attack outputs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyCutError,
    NotNormalizedError,
    WindowTooLargeError,
)
from .trico import ConfEntry, ConfidentialityTable

DYNAMIC_RANGE = 255  # 8-bit images throughout


@dataclass(frozen=True)
class Image:
    """8-bit image, grayscale or RGB, pixels shaped (height, width, channels)."""

    width: int
    height: int
    channels: int
    pixels: np.ndarray

    def __post_init__(self) -> None:
        if self.channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")
        px = np.asarray(self.pixels)
        if px.dtype != np.uint8:
            raise ValueError("pixels must be uint8")
        if px.shape != (self.height, self.width, self.channels):
            raise ValueError(
                f"pixel block shape {px.shape} does not match "
                f"{self.height}x{self.width}x{self.channels}"
            )
        px = px.copy()
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @classmethod
    def from_array(cls, array) -> "Image":
        arr = np.asarray(array)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise ValueError("expected a 2-d or 3-d pixel array")
        if arr.dtype != np.uint8:
            if np.any(arr < 0) or np.any(arr > 255):
                raise ValueError("pixel values must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        h, w, c = arr.shape
        return cls(width=w, height=h, channels=c, pixels=arr)


@dataclass(frozen=True)
class Histogram:
    """Smoothed, normalized per-channel intensity distribution."""

    probs: np.ndarray  # shape (channels, bins)

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 2:
            raise ValueError("probs must be (channels, bins)")
        if np.any(probs <= 0):
            raise NotNormalizedError("histogram must be smoothed: all bins > 0")
        sums = probs.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-12):
            raise NotNormalizedError("histogram channels must sum to 1")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_counts(cls, counts, epsilon: float = 1e-6) -> "Histogram":
        arr = np.atleast_2d(np.asarray(counts, dtype=np.float64))
        if np.any(arr < 0):
            raise ValueError("histogram counts must be >= 0")
        if np.any(arr.sum(axis=1) <= 0):
            raise ValueError("each channel needs at least one positive count")
        if epsilon <= 0:
            raise ValueError("smoothing epsilon must be > 0")
        smoothed = arr + epsilon
        probs = smoothed / smoothed.sum(axis=1, keepdims=True)
        return cls(probs=probs)


def histogram_of(img: Image, bins: int = 256, epsilon: float = 1e-6) -> Histogram:
    counts = np.stack(
        [
            np.bincount(img.pixels[:, :, c].ravel(), minlength=bins)
            for c in range(img.channels)
        ]
    )
    return Histogram.from_counts(counts, epsilon)


def kl_divergence(p: Histogram, q: Histogram) -> float:
    """KL(p || q) in nats, averaged over channels; asymmetric by design."""
    if p.probs.shape != q.probs.shape:
        raise DimensionMismatchError(
            f"histogram shapes differ: {p.probs.shape} vs {q.probs.shape}"
        )
    per_channel = np.sum(p.probs * np.log(p.probs / q.probs), axis=1)
    return float(math.fsum(per_channel) / len(per_channel))


def _ssim_terms(mu_a, mu_b, var_a, var_b, cov, c1, c2):
    return ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )


def ssim(
    a: Image,
    b: Image,
    window: int = 8,
    c1: float | None = None,
    c2: float | None = None,
) -> float:
    """Mean structural similarity of two images, clamped to [0, 1].

    The image is tiled into non-overlapping window x window patches
    (trailing remainder pixels are ignored).
    """
    if (a.width, a.height, a.channels) != (b.width, b.height, b.channels):
        raise DimensionMismatchError("images must share dimensions and channels")
    if window < 1 or window > min(a.width, a.height):
        raise WindowTooLargeError(
            f"window {window} exceeds image extent {a.width}x{a.height}"
        )
    c1 = (0.01 * DYNAMIC_RANGE) ** 2 if c1 is None else c1
    c2 = (0.03 * DYNAMIC_RANGE) ** 2 if c2 is None else c2

    nh, nw = a.height // window, a.width // window
    values = []
    for ch in range(a.channels):
        pa = a.pixels[: nh * window, : nw * window, ch].astype(np.float64)
        pb = b.pixels[: nh * window, : nw * window, ch].astype(np.float64)
        blocks_a = pa.reshape(nh, window, nw, window).transpose(0, 2, 1, 3)
        blocks_a = blocks_a.reshape(nh * nw, -1)
        blocks_b = pb.reshape(nh, window, nw, window).transpose(0, 2, 1, 3)
        blocks_b = blocks_b.reshape(nh * nw, -1)
        mu_a = blocks_a.mean(axis=1)
        mu_b = blocks_b.mean(axis=1)
        var_a = (blocks_a**2).mean(axis=1) - mu_a**2
        var_b = (blocks_b**2).mean(axis=1) - mu_b**2
        cov = (blocks_a * blocks_b).mean(axis=1) - mu_a * mu_b
        values.append(float(np.mean(_ssim_terms(mu_a, mu_b, var_a, var_b, cov, c1, c2))))

    return min(1.0, max(0.0, math.fsum(values) / len(values)))


def build_conf_table(
    corpus: list[tuple[str, list[tuple[Image, Image, Image]]]],
    epsilon: float = 1e-6,
) -> ConfidentialityTable:
    """Average per-cut KL and SSIM of (original, open, closed) triples.

    Corpus entries are (cut_name, triples) in candidate order. Means use
    exactly-rounded summation, so triple order inside a cut is irrelevant.
    """
    entries = []
    for cut_name, triples in corpus:
        if not triples:
            raise EmptyCutError(f"cut {cut_name!r} has no image triples")
        kl_open, kl_closed, ssim_open, ssim_closed = [], [], [], []
        for orig, open_box, closed_box in triples:
            h_orig = histogram_of(orig, epsilon=epsilon)
            kl_open.append(kl_divergence(h_orig, histogram_of(open_box, epsilon=epsilon)))
            kl_closed.append(
                kl_divergence(h_orig, histogram_of(closed_box, epsilon=epsilon))
            )
            ssim_open.append(ssim(orig, open_box))
            ssim_closed.append(ssim(orig, closed_box))
        n = len(triples)
        entries.append(
            ConfEntry(
                kl_open=math.fsum(kl_open) / n,
                kl_closed=math.fsum(kl_closed) / n,
                ssim_open=math.fsum(ssim_open) / n,
                ssim_closed=math.fsum(ssim_closed) / n,
            )
        )
    return ConfidentialityTable(tuple(entries))


# -- image files --------------------------------------------------------------


def write_image(img: Image, path) -> None:
    """Binary PGM (P5) for grayscale, PPM (P6) for color."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + f" {img.width} {img.height} 255\n".encode()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.pixels.tobytes())


def _read_pnm_tokens(data: bytes, count: int) -> tuple[list[int], int]:
    """Read ``count`` whitespace-separated integer tokens, skipping comments."""
    tokens: list[int] = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(data):
            raise ConfigError("truncated image header")
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end == -1 else end + 1
        else:
            match = re.match(rb"\d+", data[pos:])
            if not match:
                raise ConfigError(f"bad header token at byte {pos}")
            tokens.append(int(match.group()))
            pos += match.end()
    return tokens, pos + 1  # one whitespace byte separates header from raster


def read_image(path) -> Image:
    """Decode P5/P6 (maxval 255) or a comma-separated grayscale matrix."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_csv_matrix(path)
    data = path.read_bytes()
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise ConfigError(f"{path}: unsupported image format {magic!r}")
    channels = 1 if magic == b"P5" else 3
    (width, height, maxval), offset = _read_pnm_tokens(data[2:], 3)
    offset += 2
    if maxval != 255:
        raise ConfigError(f"{path}: only maxval 255 is supported, got {maxval}")
    expected = width * height * channels
    raster = data[offset : offset + expected]
    if len(raster) != expected:
        raise ConfigError(f"{path}: raster holds {len(raster)} of {expected} bytes")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, channels)
    return Image(width=width, height=height, channels=channels, pixels=pixels)


def _read_csv_matrix(path: Path) -> Image:
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [int(v) for v in line.split(",")]
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        rows.append(row)
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ConfigError(f"{path}: matrix rows must be nonempty and equal length")
    arr = np.array(rows)
    if np.any(arr < 0) or np.any(arr > 255):
        raise ConfigError(f"{path}: values must lie in [0, 255]")
    return Image.from_array(arr.astype(np.uint8))


_ROLES = ("orig", "open", "closed")


def load_corpus_dir(path) -> list[tuple[str, list[tuple[Image, Image, Image]]]]:
    """Read a reconstruction corpus from disk.

    Layout: one subdirectory per cut, taken in ascending name order (use
    numeric prefixes like ``0_conv1`` to fix candidate order); inside,
    triples are files ``orig_<id>``, ``open_<id>``, ``closed_<id>`` with
    .pgm/.ppm/.csv extensions.
    """
    root = Path(path)
    if not root.is_dir():
        raise ConfigError(f"corpus directory {root} does not exist")
    cut_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not cut_dirs:
        raise ConfigError(f"corpus directory {root} has no cut subdirectories")
    corpus = []
    for cut_dir in cut_dirs:
        by_id: dict[str, dict[str, Path]] = {}
        for file in sorted(cut_dir.iterdir()):
            stemedge = file.stem.split("_", 1)
            if len(stemedge) != 2 or stemedge[0] not in _ROLES:
                continue
            role, triple_id = stemedge
            by_id.setdefault(triple_id, {})[role] = file
        triples = []
        for triple_id in sorted(by_id):
            roles = by_id[triple_id]
            if set(roles) != set(_ROLES):
                raise ConfigError(
                    f"{cut_dir}: triple {triple_id!r} is missing "
                    f"{sorted(set(_ROLES) - set(roles))}"
                )
            triples.append(
                (
                    read_image(roles["orig"]),
                    read_image(roles["open"]),
                    read_image(roles["closed"]),
                )
            )
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
    return Image.from_array(np.clip(quantized, 0, 255).astype(np.uint8))


def _blend_with_noise(img: Image, t: float, rng: np.random.Generator) -> Image:
    """Replace a fraction t of pixels with uniform noise."""
    noise = rng.integers(0, 256, size=img.pixels.shape, dtype=np.int64)
    mask = rng.random(size=img.pixels.shape) < t
    mixed = np.where(mask, noise, img.pixels.astype(np.int64))
    return Image.from_array(mixed.astype(np.uint8))


def make_demo_corpus(
    seed: int = 0, triples_per_cut: int = 6, size: int = 32
) -> list[tuple[str, list[tuple[Image, Image, Image]]]]:
    """In-memory five-cut corpus with depth-dependent reconstruction decay."""
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
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for cut_name, triples in make_demo_corpus(seed, triples_per_cut, size):
        cut_dir = root / cut_name
        cut_dir.mkdir(exist_ok=True)
        for i, (orig, open_box, closed_box) in enumerate(triples):
            write_image(orig, cut_dir / f"orig_{i:03d}.pgm")
            write_image(open_box, cut_dir / f"open_{i:03d}.pgm")
            write_image(closed_box, cut_dir / f"closed_{i:03d}.pgm")
