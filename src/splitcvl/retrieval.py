"""Cross-view retrieval over unit-norm embedding galleries.

A gallery holds one satellite embedding per location. A location's UAV
and ground query images are scored against every gallery row by cosine
similarity (a plain dot product on unit vectors). Several query images
of one place are fused either by averaging them before scoring (mean)
or by taking each gallery row's best score across the images (max-score
late fusion).

Retrieval quality is scored with Recall@K and average precision. The
"top1" recall column follows the cross-view dataset convention of K being
1% of the gallery size (at least 1).

``synth_corpus`` generates a synthetic cross-view corpus as plain arrays:
a unit-norm prototype per location plus per-view Gaussian perturbations,
standing in for trained feature extractors so that multi-image fusion
experiments are reproducible at desk scale. Trend directions transfer;
absolute accuracy numbers of any real system do not. ``synth_gallery``
gives the same corpus as per-record objects.
"""

from __future__ import annotations

import math
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


def top1_percent_k(gallery_size: int, fraction: float = 0.01) -> int:
    """K used by the dataset-style 'top1' recall: 1% of the gallery."""
    return max(1, round(gallery_size * fraction))


# -- synthetic cross-view corpus ------------------------------------------


@dataclass(frozen=True)
class SyntheticQueryPool:
    """Per-location query embeddings, grouped by view."""

    location_id: str
    uav: tuple[Embedding, ...]
    ground: tuple[Embedding, ...]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # one dot per row: the float np.linalg.norm gives each row, which a
    # batched reduction such as einsum does not reproduce in the last bit
    return np.sqrt([row @ row for row in rows])


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

_CHUNK = 16  # query locations scored together; bounds the score block's size


def evaluate_cell(
    corpus: Corpus,
    uav_count: int,
    ground_count: int,
    strategy: FusionStrategy = FusionStrategy.MEAN,
) -> dict[str, float]:
    """Mean metrics (in percent) over all locations for one image-count cell.

    Location i's query is its first ``uav_count`` UAV and ``ground_count``
    ground images. Mean fusion scores the gallery against the query's
    renormalized mean, max-score fusion takes each gallery row's best
    score over the images. Instead of sorting the scores, the rank of the
    true row i is counted: 1 + #(higher scores) + #(equal scores at a
    smaller location id), so equal scores rank by id string order. With
    one record per location, Recall@K is ``rank <= K`` and AP is
    ``1 / rank``.

    Queries are scored ``_CHUNK`` locations at a time. Each query's
    scores come from its own matrix product (a stacked ``matmul`` makes
    the same BLAS call per query), because one product over the whole
    chunk differs from it in the last bit.
    """
    if not (
        0 <= uav_count <= corpus.uav.shape[1] and 0 <= ground_count <= corpus.ground.shape[1]
    ):
        raise ValueError("not enough images in the pool")
    if uav_count + ground_count == 0:
        raise ValueError("need at least one query image")
    matrix = corpus.gallery
    n = len(matrix)
    ranks = np.empty(n, dtype=np.int64)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        own = np.arange(start, stop)
        queries = np.concatenate(
            (corpus.uav[start:stop, :uav_count], corpus.ground[start:stop, :ground_count]),
            axis=1,
        )
        if strategy is FusionStrategy.MEAN:
            means = queries.mean(axis=1)
            norms = _row_norms(means)
            if np.any(norms < 1e-12):
                raise ZeroVectorError("query embeddings cancel out; views are contradictory")
            scores = np.matmul(matrix, (means / norms[:, None])[:, :, None])[:, :, 0]
        else:
            per_image = np.matmul(matrix, queries.transpose(0, 2, 1))
            # image by image: a max reduction over the short last axis is slow
            scores = per_image[:, :, 0].copy()
            for image in range(1, per_image.shape[2]):
                np.maximum(scores, per_image[:, :, image], out=scores)
        true = scores[own - start, own][:, None]
        ahead = corpus.id_rank < corpus.id_rank[own][:, None]
        ranks[start:stop] = (
            1
            + np.count_nonzero(scores > true, axis=1)
            + np.count_nonzero((scores == true) & ahead, axis=1)
        )
    ks = (1, min(5, n), min(10, n), top1_percent_k(n))
    percents = [100.0 * int(np.count_nonzero(ranks <= k)) / n for k in ks]
    return dict(zip(METRIC_NAMES, percents + [100.0 * math.fsum(1.0 / ranks) / n]))


def format_metrics_table(rows: list[dict]) -> str:
    lines = ["uav_images,ground_images," + ",".join(METRIC_NAMES)]
    for row in rows:
        values = ",".join(repr(float(row[name])) for name in METRIC_NAMES)
        lines.append(f"{row['uav_images']},{row['ground_images']},{values}")
    return "\n".join(lines) + "\n"
