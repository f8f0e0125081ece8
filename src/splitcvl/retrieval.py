"""Cross-view retrieval over unit-norm embedding galleries.

A gallery holds one satellite embedding per location. A location's UAV
and ground query images are scored against every gallery row by cosine
similarity (a plain dot product on unit vectors). Several query images
of one place are fused either by averaging them before scoring (mean)
or by taking each gallery row's best score across the images (max-score
late fusion).

Retrieval quality is scored with Recall@K and average precision. The
"top1" recall column follows the cross-view dataset convention of K being
1% of the gallery size (at least 1). ``evaluate_cells`` scores any list
of (UAV images, ground images) cells of one corpus in a single blocked
pass, counting each true match's rank rather than sorting.

``synth_corpus`` generates a synthetic cross-view corpus as plain arrays:
a unit-norm prototype per location plus per-view Gaussian perturbations,
standing in for trained feature extractors so that multi-image fusion
experiments are reproducible at desk scale. Trend directions transfer;
absolute accuracy numbers of any real system do not. ``synth_gallery``
gives the same corpus as per-record objects.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, ZeroVectorError

VIEWS = ("satellite", "uav", "ground")

_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class Embedding:
    """Unit-norm feature vector."""

    vector: np.ndarray

    def __post_init__(self) -> None:
        vec = np.asarray(self.vector, dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError("embedding must be a nonempty 1-d vector")
        if not np.all(np.isfinite(vec)):
            raise ValueError("embedding must be finite")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > _UNIT_TOL:
            raise ValueError(f"embedding norm must be 1 within {_UNIT_TOL}, got {norm}")
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)

    @property
    def dim(self) -> int:
        return self.vector.size


@dataclass(frozen=True)
class GalleryRecord:
    """Geo-tagged, view-labeled reference embedding."""

    location_id: str
    view: str
    lat: float
    lon: float
    embedding: Embedding

    def __post_init__(self) -> None:
        if self.view not in VIEWS:
            raise ValueError(f"unknown view {self.view!r}")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError("lat must lie in [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError("lon must lie in [-180, 180]")


class FusionStrategy(Enum):
    MEAN = "mean"
    MAX_SCORE = "max_score"


def top1_percent_k(gallery_size: int) -> int:
    """K used by the dataset-style 'top1' recall: 1% of the gallery."""
    return max(1, round(gallery_size * 0.01))


# -- synthetic cross-view corpus ------------------------------------------


@dataclass(frozen=True)
class SyntheticQueryPool:
    """Per-location query embeddings, grouped by view."""

    location_id: str
    uav: tuple[Embedding, ...]
    ground: tuple[Embedding, ...]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # a stacked (1, dim) @ (dim, 1) product per row gives the float
    # np.linalg.norm gives each row, which a batched reduction such as
    # einsum does not reproduce in the last bit
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


@dataclass(frozen=True, eq=False)
class Corpus:
    """A cross-view corpus as arrays; row i of each belongs to ``ids[i]``.

    ``gallery`` (locations, dim) holds one satellite embedding per
    location, ``uav`` and ``ground`` (locations, images, dim) its query
    images. Every row must be a finite unit vector and the ids unique;
    this is checked once, here, and the arrays are made read-only.
    ``id_rank[i]`` is the position of ``ids[i]`` in string order.
    """

    ids: tuple[str, ...]
    gallery: np.ndarray
    uav: np.ndarray
    ground: np.ndarray
    id_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.ids)
        if n == 0:
            raise ValueError("gallery must not be empty")
        if len(set(self.ids)) != n:
            raise ValueError("gallery location ids must be unique")
        gallery = np.asarray(self.gallery, dtype=np.float64)
        if gallery.ndim != 2 or gallery.shape[0] != n:
            raise ValueError("gallery must be a (locations, dim) matrix")
        for name in ("gallery", "uav", "ground"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if name != "gallery" and (arr.ndim != 3 or arr.shape[0] != n):
                raise ValueError(f"{name} must be a (locations, images, dim) array")
            if arr.shape[-1] != gallery.shape[1]:
                raise DimensionMismatchError(
                    f"{name} dim {arr.shape[-1]} vs gallery dim {gallery.shape[1]}"
                )
            norms = np.sqrt(np.einsum("...i,...i", arr, arr))
            if not np.all(np.abs(norms - 1.0) <= _UNIT_TOL):
                raise ValueError(f"{name} rows must be finite unit vectors")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        id_rank = np.empty(n, dtype=np.intp)
        id_rank[sorted(range(n), key=self.ids.__getitem__)] = np.arange(n)
        object.__setattr__(self, "id_rank", id_rank)


def synth_corpus(
    locations: int,
    dim: int,
    view_noise: dict[str, float],
    seed: int = 0,
    images_per_view: int = 4,
) -> Corpus:
    """Generate a satellite gallery plus UAV/ground query images.

    One unit-norm prototype per location; each image adds Gaussian noise
    with its view's standard deviation and is renormalized (an image of
    near-zero norm falls back to the prototype). The gallery holds one
    satellite image per location, and each location has
    ``images_per_view`` UAV and ground images. Location i draws, in this
    order, its prototype, its satellite image, its UAV and its ground
    images, all from one standard-normal block. Deterministic per seed.
    """
    if locations < 2:
        raise ValueError("need at least 2 locations")
    if dim < 2:
        raise ValueError("need dimension >= 2")
    for view in VIEWS:
        if view_noise.get(view, 0.0) < 0:
            raise ValueError("view noise must be >= 0")
    rng = np.random.default_rng(seed)
    per_location = 2 + 2 * images_per_view
    block = rng.standard_normal((locations, per_location, dim))
    prototypes = block[:, 0]
    prototypes /= _row_norms(prototypes)[:, None]
    images = block[:, 1:]  # a view, so the in-place steps below write the block
    images *= np.repeat(
        [view_noise.get(view, 0.0) for view in VIEWS], [1, images_per_view, images_per_view]
    )[:, None]
    images += prototypes[:, None]
    # slot 0 holds each prototype's own norm, which the fallback divides by
    norms = _row_norms(block.reshape(-1, dim)).reshape(locations, per_location)
    for loc, slot in zip(*np.nonzero(norms < 1e-12)):
        block[loc, slot] = prototypes[loc]
        norms[loc, slot] = norms[loc, 0]
    images /= norms[:, 1:, None]
    return Corpus(
        ids=tuple(f"loc{i:04d}" for i in range(locations)),
        gallery=np.ascontiguousarray(block[:, 1]),
        uav=block[:, 2 : 2 + images_per_view],
        ground=block[:, 2 + images_per_view :],
    )


def synth_gallery(
    locations: int,
    dim: int,
    view_noise: dict[str, float],
    seed: int = 0,
    images_per_view: int = 4,
) -> tuple[list[GalleryRecord], list[SyntheticQueryPool]]:
    """``synth_corpus`` as records: one geo-tagged satellite
    ``GalleryRecord`` and one ``SyntheticQueryPool`` per location."""
    corpus = synth_corpus(locations, dim, view_noise, seed, images_per_view)
    span = max(1, locations - 1)
    gallery = [
        GalleryRecord(
            location_id=loc_id,
            view="satellite",
            lat=round(-80.0 + 160.0 * (i / span), 6),
            lon=round(-170.0 + 340.0 * (i / span), 6),
            embedding=Embedding(corpus.gallery[i]),
        )
        for i, loc_id in enumerate(corpus.ids)
    ]
    pools = [
        SyntheticQueryPool(
            location_id=loc_id,
            uav=tuple(map(Embedding, corpus.uav[i])),
            ground=tuple(map(Embedding, corpus.ground[i])),
        )
        for i, loc_id in enumerate(corpus.ids)
    ]
    return gallery, pools


METRIC_NAMES = ("recall_at_1", "recall_at_5", "recall_at_10", "recall_at_top1", "ap")

# query locations scored together. Larger blocks ran at most 15% faster on
# a 200-location seed, but each location added about 0.1 MB to the peak
# memory of scoring its 16 cells, and at 16 a run's peak RSS grew 5%.
_BLOCK = 4


def evaluate_cells(
    corpus: Corpus,
    cells: Sequence[tuple[int, int]],
    strategy: FusionStrategy = FusionStrategy.MEAN,
) -> list[dict[str, float]]:
    """Mean metrics (in percent) over all locations, one dict per
    ``(uav_count, ground_count)`` cell, in the order of ``cells``.

    Location i's query is its first ``uav_count`` UAV and ``ground_count``
    ground images. Mean fusion scores the gallery against the query's
    renormalized mean, max-score fusion takes each gallery row's best
    score over the images. Instead of sorting the scores, the rank of the
    true row i is counted: 1 + #(higher scores) + #(equal scores at a
    smaller location id), so equal scores rank by id string order. With
    one record per location, Recall@K is ``rank <= K`` and AP is
    ``1 / rank``.

    Query locations are scored ``_BLOCK`` at a time, every cell at once.
    Prefix sums (mean) or prefix maxima (max-score) over each location's
    UAV and ground images give every cell's query from one pass over the
    images, and one matrix product per block scores them all. Only the
    distinct gallery rows are scored: BLAS rounds a row's dot products by
    its position in the matrix, and identical rows must tie exactly.
    """
    for uav_count, ground_count in cells:
        if not (
            0 <= uav_count <= corpus.uav.shape[1]
            and 0 <= ground_count <= corpus.ground.shape[1]
        ):
            raise ValueError("not enough images in the pool")
        if uav_count + ground_count == 0:
            raise ValueError("need at least one query image")
    if not cells:
        return []
    uav_counts, ground_counts = np.array(cells, dtype=np.intp).T
    n, dim = corpus.gallery.shape
    # column[i] is gallery row i's distinct row; + 0.0 makes -0.0 equal 0.0
    slot: dict[bytes, int] = {}
    column = np.array([slot.setdefault(row.tobytes(), len(slot)) for row in corpus.gallery + 0.0])
    distinct = np.empty((dim, len(slot)))  # transposed: a faster product
    distinct[:, column] = corpus.gallery.T

    def score(queries: np.ndarray) -> np.ndarray:
        """(queries, n) scores of a (queries, dim) matrix."""
        return (queries @ distinct)[:, column]

    ranks = np.empty((n, len(cells)), dtype=np.int64)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        size = stop - start
        own = np.arange(start, stop)
        # prefix sums (mean) or maxima (max_score) over each location's UAV
        # and ground images; slot 0 stands for no image of that view
        if strategy is FusionStrategy.MEAN:
            uav_sums = np.zeros((size, corpus.uav.shape[1] + 1, dim))
            ground_sums = np.zeros((size, corpus.ground.shape[1] + 1, dim))
            np.cumsum(corpus.uav[start:stop], axis=1, out=uav_sums[:, 1:])
            np.cumsum(corpus.ground[start:stop], axis=1, out=ground_sums[:, 1:])
            means = (uav_sums[:, uav_counts] + ground_sums[:, ground_counts]) / (
                uav_counts + ground_counts
            )[:, None]
            means = means.reshape(-1, dim)
            norms = _row_norms(means)
            if np.any(norms < 1e-12):
                raise ZeroVectorError("query embeddings cancel out; views are contradictory")
            scores = score(means / norms[:, None]).reshape(size, len(cells), n)
        else:
            images = np.concatenate((corpus.uav[start:stop], corpus.ground[start:stop]), axis=1)
            per_image = score(images.reshape(-1, dim)).reshape(size, -1, n)
            split = corpus.uav.shape[1]
            bests = []
            for part in (per_image[:, :split], per_image[:, split:]):
                best = np.empty((size, part.shape[1] + 1, n))
                best[:, 0] = -np.inf
                # image by image: maximum.accumulate over a short axis is slow
                for image in range(part.shape[1]):
                    np.maximum(best[:, image], part[:, image], out=best[:, image + 1])
                bests.append(best)
            scores = np.maximum(bests[0][:, uav_counts], bests[1][:, ground_counts])
        true = scores[own - start, :, own][:, :, None]
        ahead = (corpus.id_rank < corpus.id_rank[own][:, None])[:, None]
        beaten = scores > true
        beaten |= (scores == true) & ahead
        ranks[start:stop] = 1 + np.count_nonzero(beaten, axis=2)
    ks = np.array([1, min(5, n), min(10, n), top1_percent_k(n)])
    hits = np.count_nonzero(ranks.T[:, None] <= ks[:, None], axis=2).tolist()
    return [
        dict(zip(METRIC_NAMES, [100.0 * h / n for h in row] + [100.0 * math.fsum(inv) / n]))
        for row, inv in zip(hits, 1.0 / ranks.T)
    ]


def format_metrics_table(rows: list[dict]) -> str:
    lines = ["uav_images,ground_images," + ",".join(METRIC_NAMES)]
    for row in rows:
        values = ",".join(repr(float(row[name])) for name in METRIC_NAMES)
        lines.append(f"{row['uav_images']},{row['ground_images']},{values}")
    return "\n".join(lines) + "\n"
