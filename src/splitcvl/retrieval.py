"""Matching and localization over unit-norm embedding galleries.

Reference images live in a gallery of geo-tagged, view-labeled embeddings;
queries are ranked against it by cosine similarity (a plain dot product on
unit vectors). A match above a threshold assigns the query the geographic
coordinates of the matched reference. Multiple query images of the same
place can be fused either by averaging embeddings before ranking (mean)
or by taking each record's best score across the individual rankings
(max-score late fusion).

Retrieval quality is scored with Recall@K and average precision. The
"top1" recall column follows the cross-view dataset convention of K being
1% of the gallery size (at least 1).

``synth_gallery`` generates a synthetic cross-view corpus: a unit-norm
prototype per location plus per-view Gaussian perturbations, standing in
for trained feature extractors so that multi-image fusion experiments are
reproducible at desk scale. Trend directions transfer; absolute accuracy
numbers of any real system do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatchError,
    MissingTruthError,
    UnknownLocationError,
    ZeroVectorError,
)

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

    @classmethod
    def normalized(cls, values) -> "Embedding":
        vec = np.asarray(values, dtype=np.float64)
        norm = float(np.linalg.norm(vec))
        if norm < 1e-12:
            raise ZeroVectorError("cannot normalize a (near-)zero vector")
        return cls(vec / norm)

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


@dataclass(frozen=True)
class QuerySet:
    """All query images of one location, as embeddings."""

    true_location_id: str
    embeddings: tuple[Embedding, ...]

    def __post_init__(self) -> None:
        if not self.embeddings:
            raise ValueError("query set must contain at least one embedding")
        dims = {e.dim for e in self.embeddings}
        if len(dims) != 1:
            raise ValueError("query embeddings must share one dimension")


@dataclass(frozen=True)
class RankedResult:
    """Scores sorted descending; ties broken by ascending location id."""

    entries: tuple[tuple[str, float], ...]
    record_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def ids(self) -> list[str]:
        return [rid for rid, _ in self.entries]


class FusionStrategy(Enum):
    MEAN = "mean"
    MAX_SCORE = "max_score"


def cosine_similarity(a: Embedding, b: Embedding) -> float:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"embedding dims differ: {a.dim} vs {b.dim}")
    return float(a.vector @ b.vector)


def fuse_queries(qs: QuerySet) -> Embedding:
    """Mean of the member vectors, renormalized to unit length."""
    mean = np.mean([e.vector for e in qs.embeddings], axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-12:
        raise ZeroVectorError(
            "query embeddings cancel out; views are contradictory"
        )
    return Embedding(mean / norm)


def _sort_scores(scores: np.ndarray, gallery: list[GalleryRecord]) -> RankedResult:
    order = sorted(
        range(len(gallery)), key=lambda i: (-scores[i], gallery[i].location_id, i)
    )
    return RankedResult(
        entries=tuple((gallery[i].location_id, float(scores[i])) for i in order),
        record_indices=tuple(order),
    )


def rank_gallery(query: Embedding, gallery: list[GalleryRecord]) -> RankedResult:
    if not gallery:
        raise ValueError("gallery must not be empty")
    dim = gallery[0].embedding.dim
    if query.dim != dim:
        raise DimensionMismatchError(f"query dim {query.dim} vs gallery dim {dim}")
    matrix = np.stack([r.embedding.vector for r in gallery])
    return _sort_scores(matrix @ query.vector, gallery)


def rank_query_set(
    qs: QuerySet,
    gallery: list[GalleryRecord],
    strategy: FusionStrategy = FusionStrategy.MEAN,
) -> RankedResult:
    """Rank a multi-image query under the chosen fusion strategy."""
    if strategy is FusionStrategy.MEAN:
        return rank_gallery(fuse_queries(qs), gallery)
    if not gallery:
        raise ValueError("gallery must not be empty")
    dim = gallery[0].embedding.dim
    if qs.embeddings[0].dim != dim:
        raise DimensionMismatchError(
            f"query dim {qs.embeddings[0].dim} vs gallery dim {dim}"
        )
    matrix = np.stack([r.embedding.vector for r in gallery])
    queries = np.stack([e.vector for e in qs.embeddings])
    best = (matrix @ queries.T).max(axis=1)
    return _sort_scores(best, gallery)


def match_with_threshold(ranked: RankedResult, tau: float) -> str | None:
    """Top id if its similarity is strictly above tau, else no match."""
    if not ranked.entries:
        return None
    top_id, top_score = ranked.entries[0]
    return top_id if top_score > tau else None


def localize(
    location_id: str,
    gallery: list[GalleryRecord],
    ranked: RankedResult | None = None,
) -> tuple[float, float]:
    """Coordinates of the matched reference record.

    With several records sharing the id, the ranking (when given) selects
    the highest-similarity one; otherwise the first gallery record wins.
    """
    if ranked is not None:
        for idx in ranked.record_indices:
            if gallery[idx].location_id == location_id:
                return gallery[idx].lat, gallery[idx].lon
        raise UnknownLocationError(f"location {location_id!r} not in ranking")
    for record in gallery:
        if record.location_id == location_id:
            return record.lat, record.lon
    raise UnknownLocationError(f"location {location_id!r} not in gallery")


def recall_at_k(ranked: RankedResult, true_id: str, k: int) -> int:
    """1 if any of the top-k entries carries the true id, else 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return int(any(rid == true_id for rid, _ in ranked.entries[:k]))


def top1_percent_k(gallery_size: int, fraction: float = 0.01) -> int:
    """K used by the dataset-style 'top1' recall: 1% of the gallery."""
    return max(1, round(gallery_size * fraction))


def average_precision(ranked: RankedResult, true_ids: set[str]) -> float:
    """Mean of precision values at the ranks of the true matches."""
    if not true_ids:
        raise ValueError("true_ids must not be empty")
    present = {rid for rid, _ in ranked.entries}
    missing = true_ids - present
    if missing:
        raise MissingTruthError(f"true ids missing from ranking: {sorted(missing)}")
    hits = 0
    precisions = []
    for rank, (rid, _) in enumerate(ranked.entries, start=1):
        if rid in true_ids:
            hits += 1
            precisions.append(hits / rank)
    return math.fsum(precisions) / len(precisions)


# -- synthetic cross-view corpus ------------------------------------------


@dataclass(frozen=True)
class SyntheticQueryPool:
    """Per-location query embeddings, grouped by view."""

    location_id: str
    uav: tuple[Embedding, ...]
    ground: tuple[Embedding, ...]


def _noisy_unit(prototype: np.ndarray, sigma: float, rng: np.random.Generator):
    vec = prototype + sigma * rng.standard_normal(prototype.size)
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        vec = prototype
        norm = float(np.linalg.norm(vec))
    return Embedding(vec / norm)


def synth_gallery(
    locations: int,
    dim: int,
    view_noise: dict[str, float],
    seed: int = 0,
    images_per_view: int = 4,
) -> tuple[list[GalleryRecord], list[SyntheticQueryPool]]:
    """Generate a satellite gallery plus UAV/ground query pools.

    One unit-norm prototype per location; each image adds Gaussian noise
    with its view's standard deviation and is renormalized. The gallery
    holds one satellite record per location; query pools hold
    ``images_per_view`` UAV and ground embeddings each. Deterministic per
    seed.
    """
    if locations < 2:
        raise ValueError("need at least 2 locations")
    if dim < 2:
        raise ValueError("need dimension >= 2")
    for view in VIEWS:
        if view_noise.get(view, 0.0) < 0:
            raise ValueError("view noise must be >= 0")
    rng = np.random.default_rng(seed)
    gallery: list[GalleryRecord] = []
    pools: list[SyntheticQueryPool] = []
    for i in range(locations):
        prototype = rng.standard_normal(dim)
        prototype /= np.linalg.norm(prototype)
        loc_id = f"loc{i:04d}"
        lat = -80.0 + 160.0 * (i / max(1, locations - 1))
        lon = -170.0 + 340.0 * (i / max(1, locations - 1))
        gallery.append(
            GalleryRecord(
                location_id=loc_id,
                view="satellite",
                lat=round(lat, 6),
                lon=round(lon, 6),
                embedding=_noisy_unit(prototype, view_noise.get("satellite", 0.0), rng),
            )
        )
        pools.append(
            SyntheticQueryPool(
                location_id=loc_id,
                uav=tuple(
                    _noisy_unit(prototype, view_noise.get("uav", 0.0), rng)
                    for _ in range(images_per_view)
                ),
                ground=tuple(
                    _noisy_unit(prototype, view_noise.get("ground", 0.0), rng)
                    for _ in range(images_per_view)
                ),
            )
        )
    return gallery, pools


def make_query_set(
    pool: SyntheticQueryPool, uav_count: int, ground_count: int
) -> QuerySet:
    if uav_count < 0 or ground_count < 0 or uav_count + ground_count == 0:
        raise ValueError("need at least one query image")
    if uav_count > len(pool.uav) or ground_count > len(pool.ground):
        raise ValueError("not enough images in the pool")
    return QuerySet(
        true_location_id=pool.location_id,
        embeddings=pool.uav[:uav_count] + pool.ground[:ground_count],
    )


METRIC_NAMES = ("recall_at_1", "recall_at_5", "recall_at_10", "recall_at_top1", "ap")


def evaluate_cell(
    gallery: list[GalleryRecord],
    pools: list[SyntheticQueryPool],
    uav_count: int,
    ground_count: int,
    strategy: FusionStrategy = FusionStrategy.MEAN,
) -> dict[str, float]:
    """Mean metrics (in percent) over all locations for one image-count cell.

    Scores are those of ``rank_query_set``; instead of sorting them, the
    true record's rank is counted: 1 + #(higher scores) + #(equal scores
    at a smaller location id), the order ``_sort_scores`` gives. With one
    record per location, Recall@K is ``rank <= K`` and AP is ``1 / rank``.
    """
    if not gallery:
        raise ValueError("gallery must not be empty")
    ids = [r.location_id for r in gallery]
    index_of = {loc: i for i, loc in enumerate(ids)}
    if len(index_of) != len(ids):
        raise ValueError("gallery location ids must be unique")
    id_order = np.empty(len(ids), dtype=np.intp)
    id_order[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    matrix = np.stack([r.embedding.vector for r in gallery])
    ks = (1, min(5, len(gallery)), min(10, len(gallery)), top1_percent_k(len(gallery)))
    hits = [0] * len(ks)
    inverse_ranks = []
    for pool in pools:
        qs = make_query_set(pool, uav_count, ground_count)
        if qs.embeddings[0].dim != matrix.shape[1]:
            raise DimensionMismatchError(
                f"query dim {qs.embeddings[0].dim} vs gallery dim {matrix.shape[1]}"
            )
        true = index_of.get(pool.location_id)
        if true is None:
            raise MissingTruthError(f"true id {pool.location_id!r} not in gallery")
        if strategy is FusionStrategy.MEAN:
            scores = matrix @ fuse_queries(qs).vector
        else:
            queries = np.stack([e.vector for e in qs.embeddings])
            scores = (matrix @ queries.T).max(axis=1)
        s_true = scores[true]
        rank = 1 + int(np.count_nonzero(scores > s_true)) + int(
            np.count_nonzero((scores == s_true) & (id_order < id_order[true]))
        )
        for slot, k in enumerate(ks):
            hits[slot] += rank <= k
        inverse_ranks.append(1 / rank)
    n = len(pools)
    percents = [100.0 * count / n for count in hits]
    return dict(zip(METRIC_NAMES, percents + [100.0 * math.fsum(inverse_ranks) / n]))


def format_metrics_table(rows: list[dict]) -> str:
    lines = ["uav_images,ground_images," + ",".join(METRIC_NAMES)]
    for row in rows:
        values = ",".join(repr(float(row[name])) for name in METRIC_NAMES)
        lines.append(f"{row['uav_images']},{row['ground_images']},{values}")
    return "\n".join(lines) + "\n"
