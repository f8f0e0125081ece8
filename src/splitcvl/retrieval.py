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
                raise ValueError(
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

# query locations scored together. On a 200-location seed 8 ran 12-14%
# faster than 4, and scoring its 16 cells traced at most 0.63 MB (mean) and
# 0.80 MB (max_score) beside the corpus, against 0.41 and 0.50 MB at 4; at
# 16 it traced 1.06 and 1.41 MB.
_BLOCK = 8


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
    its position in the matrix, and identical rows must tie exactly. When
    no gallery row repeats, the product is the scores; when one does, each
    row's scores are gathered from its distinct row's column. A block
    writes its queries, scores and comparisons to buffers allocated once
    per call.
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
    n_uav, n_ground = corpus.uav.shape[1], corpus.ground.shape[1]
    # column[i] is gallery row i's distinct row; + 0.0 makes -0.0 equal 0.0
    slot: dict[bytes, int] = {}
    column = np.array([slot.setdefault(row.tobytes(), len(slot)) for row in corpus.gallery + 0.0])
    distinct = np.empty((dim, len(slot)))  # transposed: a faster product
    distinct[:, column] = corpus.gallery.T
    block = min(_BLOCK, n)
    per_location = len(cells) if strategy is FusionStrategy.MEAN else n_uav + n_ground
    # with no repeated row column is arange(n), so the product is the scores
    product = np.empty((block * per_location, len(slot))) if len(slot) < n else None
    del slot  # its keys copy the gallery: free them before the blocks

    def score(queries: np.ndarray, out: np.ndarray) -> None:
        """Write the (queries, n) scores of a (queries, dim) matrix to ``out``."""
        if product is None:
            np.matmul(queries, distinct, out=out)
        else:
            np.matmul(queries, distinct, out=product[: len(queries)])
            np.take(product[: len(queries)], column, axis=1, out=out, mode="clip")

    # one buffer of each kind for a whole block, sliced to a short last block.
    # np.take writes straight to its out under mode "clip" (every index here
    # is valid), but through a temporary under the default "raise".
    shape = (block, len(cells), n)
    scores_buffer = np.empty(shape)
    beaten, tied = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
    if strategy is FusionStrategy.MEAN:
        # prefix sums over each location's UAV and ground images; slot 0
        # stands for no image of that view
        prefixes = [np.zeros((block, count + 1, dim)) for count in (n_uav, n_ground)]
        queries, gathered = np.empty(shape[:2] + (dim,)), np.empty(shape[:2] + (dim,))
    else:
        # each location's UAV then ground images, their scores, turned in
        # place into prefix maxima per view. A cell with no image of one view
        # takes the other view's maximum twice: max(x, x) is max(-inf, x).
        images = np.empty((block, n_uav + n_ground, dim))
        per_image = np.empty((block, n_uav + n_ground, n))
        uav_at = np.where(uav_counts > 0, uav_counts - 1, n_uav + ground_counts - 1)
        ground_at = np.where(ground_counts > 0, n_uav + ground_counts - 1, uav_counts - 1)
        gathered = np.empty(shape)
    ranks = np.empty((n, len(cells)), dtype=np.int64)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        size = stop - start
        own = np.arange(start, stop)
        scores = scores_buffer[:size]
        if strategy is FusionStrategy.MEAN:
            for prefix, view in zip(prefixes, (corpus.uav, corpus.ground)):
                # image by image: cumsum over a short axis is slow
                for image in range(view.shape[1]):
                    np.add(prefix[:size, image], view[start:stop, image],
                           out=prefix[:size, image + 1])
            means = queries[:size]
            np.take(prefixes[0][:size], uav_counts, axis=1, out=means, mode="clip")
            np.take(prefixes[1][:size], ground_counts, axis=1, out=gathered[:size], mode="clip")
            means += gathered[:size]
            means /= (uav_counts + ground_counts)[:, None]
            means = means.reshape(-1, dim)
            norms = _row_norms(means)
            if np.any(norms < 1e-12):
                raise ValueError("query embeddings cancel out; views are contradictory")
            means /= norms[:, None]
            score(means, scores.reshape(-1, n))
        else:
            np.concatenate(
                (corpus.uav[start:stop], corpus.ground[start:stop]), axis=1, out=images[:size]
            )
            score(images[:size].reshape(-1, dim), per_image[:size].reshape(-1, n))
            for first, count in ((0, n_uav), (n_uav, n_ground)):
                # image by image: maximum.accumulate over a short axis is slow
                for image in range(first + 1, first + count):
                    np.maximum(per_image[:size, image - 1], per_image[:size, image],
                               out=per_image[:size, image])
            np.take(per_image[:size], uav_at, axis=1, out=scores, mode="clip")
            np.take(per_image[:size], ground_at, axis=1, out=gathered[:size], mode="clip")
            np.maximum(scores, gathered[:size], out=scores)
        true = scores[own - start, :, own][:, :, None]
        ahead = (corpus.id_rank < corpus.id_rank[own][:, None])[:, None]
        np.greater(scores, true, out=beaten[:size])
        np.equal(scores, true, out=tied[:size])
        tied[:size] &= ahead
        beaten[:size] |= tied[:size]
        np.add(1, np.count_nonzero(beaten[:size], axis=2), out=ranks[start:stop])
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
