"""Retrieval and metric checks.

The definition-following oracle lives in ``helpers``: it ranks by sorting
every gallery and scores each ranking with recall_at_k and
average_precision. Those two are compared against independent oracles
over every binary relevance pattern of up to 8 ranked items (a ranking's
metrics depend only on which ranks hold true matches, so this enumeration
is exhaustive for that size). The array ``evaluate_cells``, which counts
ranks instead of sorting, is compared against the oracle on synthetic,
random and tied corpora."""

import itertools
import tracemalloc

import numpy as np
import pytest

from helpers import (
    QuerySet,
    RankedResult,
    average_precision,
    corpus_records,
    cosine_similarity,
    fuse_queries,
    make_query_set,
    normalized,
    rank_gallery,
    rank_query_set,
    recall_at_k,
    reference_cell,
)
from splitcvl import retrieval
from splitcvl.cli import retrieval_grid
from splitcvl.config import RetrievalConfig, ViewNoise
from splitcvl.retrieval import (
    Corpus,
    Embedding,
    FusionStrategy,
    GalleryRecord,
    _row_norms,
    evaluate_cells,
    format_metrics_table,
    synth_corpus,
    synth_gallery,
    top1_percent_k,
)


def unit(*values):
    return normalized(np.array(values, dtype=float))


def ranking_from_relevance(flags):
    """Build a RankedResult whose rank-r entry is a true match iff flags[r]."""
    entries = []
    for r, flag in enumerate(flags):
        rid = "true" if flag else f"d{r}"
        entries.append((rid, 1.0 - r * 0.01))
    return RankedResult(tuple(entries), tuple(range(len(flags))))


def oracle_recall(flags, k):
    """Independent recall: scan the first k relevance flags."""
    hit = 0
    for r in range(min(k, len(flags))):
        if flags[r]:
            hit = 1
    return hit


def oracle_ap(flags):
    """Independent AP: precision at each true rank, straight from the words."""
    precisions = []
    seen = 0
    for r, flag in enumerate(flags, start=1):
        if flag:
            seen += 1
            precisions.append(seen / r)
    return sum(precisions) / len(precisions)


class TestEmbedding:
    def test_normalization(self):
        e = normalized([3.0, 4.0])
        assert np.allclose(e.vector, [0.6, 0.8])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="cannot normalize a \\(near-\\)zero vector"):
            normalized([0.0, 0.0])

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            Embedding(np.array([1.0, 1.0]))

    def test_vector_is_read_only(self):
        e = unit(1.0, 0.0)
        with pytest.raises(ValueError):
            e.vector[0] = 5.0


class TestCosine:
    def test_self_similarity(self):
        v = unit(0.3, -0.2, 0.9)
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_opposite(self):
        v = unit(0.3, -0.2, 0.9)
        w = Embedding(-v.vector)
        assert cosine_similarity(v, w) == pytest.approx(-1.0)

    def test_orthogonal(self):
        assert cosine_similarity(unit(1, 0), unit(0, 1)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="embedding dims differ: 2 vs 3"):
            cosine_similarity(unit(1, 0), unit(1, 0, 0))

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = normalized(rng.standard_normal(8))
            b = normalized(rng.standard_normal(8))
            assert -1.0 - 1e-12 <= cosine_similarity(a, b) <= 1.0 + 1e-12


class TestFusion:
    def test_single_embedding_is_identity(self):
        v = unit(0.1, 0.5, -0.3)
        qs = QuerySet("x", (v,))
        assert np.allclose(fuse_queries(qs).vector, v.vector)

    def test_identical_embeddings_idempotent(self):
        v = unit(0.1, 0.5, -0.3)
        qs = QuerySet("x", (v, v, v))
        assert np.allclose(fuse_queries(qs).vector, v.vector)

    def test_exact_cancellation(self):
        v = unit(1.0, 0.0)
        w = Embedding(-v.vector)
        with pytest.raises(ValueError, match="query embeddings cancel out"):
            fuse_queries(QuerySet("x", (v, w)))

    def test_result_unit_norm(self):
        rng = np.random.default_rng(2)
        embeddings = tuple(normalized(rng.standard_normal(6)) for _ in range(4))
        fused = fuse_queries(QuerySet("x", embeddings))
        assert np.linalg.norm(fused.vector) == pytest.approx(1.0)


def small_gallery():
    return [
        GalleryRecord("a", "satellite", 1.0, 2.0, unit(1, 0, 0)),
        GalleryRecord("b", "satellite", 3.0, 4.0, unit(0, 1, 0)),
        GalleryRecord("c", "satellite", 5.0, 6.0, unit(0, 0, 1)),
    ]


class TestRanking:
    def test_exact_match_ranks_first(self):
        gallery = small_gallery()
        ranked = rank_gallery(unit(0, 1, 0), gallery)
        assert ranked.entries[0] == ("b", pytest.approx(1.0))

    def test_tie_broken_by_ascending_id(self):
        gallery = [
            GalleryRecord("zed", "satellite", 0.0, 0.0, unit(1, 0)),
            GalleryRecord("ann", "satellite", 0.0, 0.0, unit(1, 0)),
        ]
        ranked = rank_gallery(unit(1, 0), gallery)
        assert ranked.ids() == ["ann", "zed"]

    def test_permutation_of_gallery_ids(self):
        rng = np.random.default_rng(3)
        gallery = [
            GalleryRecord(f"g{i}", "satellite", 0.0, 0.0,
                          normalized(rng.standard_normal(5)))
            for i in range(20)
        ]
        ranked = rank_gallery(normalized(rng.standard_normal(5)), gallery)
        assert sorted(ranked.ids()) == sorted(r.location_id for r in gallery)

    def test_matches_rerank_oracle_on_random_galleries(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            gallery = [
                GalleryRecord(f"g{i:02d}", "satellite", 0.0, 0.0,
                              normalized(rng.standard_normal(7)))
                for i in range(50)
            ]
            query = normalized(rng.standard_normal(7))
            ranked = rank_gallery(query, gallery)
            # independent oracle: recompute scores one by one and sort
            scored = [
                (float(np.dot(query.vector, r.embedding.vector)), r.location_id)
                for r in gallery
            ]
            expected = [
                rid for score, rid in sorted(scored, key=lambda t: (-t[0], t[1]))
            ]
            assert ranked.ids() == expected
            scores = [s for _, s in ranked.entries]
            assert all(x >= y for x, y in zip(scores, scores[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="query dim 2 vs gallery dim 3"):
            rank_gallery(unit(1, 0), small_gallery())

    def test_max_score_fusion(self):
        gallery = small_gallery()
        qs = QuerySet("a", (unit(1, 0, 0), unit(0, 0, 1)))
        ranked = rank_query_set(qs, gallery, FusionStrategy.MAX_SCORE)
        # both a and c reach score 1.0; tie broken by id
        assert ranked.ids()[:2] == ["a", "c"]
        assert ranked.entries[0][1] == pytest.approx(1.0)


class TestRecallOracle:
    def test_frozen_examples(self):
        assert recall_at_k(ranking_from_relevance([1, 0, 0]), "true", 1) == 1
        flags = [0] * 5 + [1]
        assert recall_at_k(ranking_from_relevance(flags), "true", 5) == 0
        assert recall_at_k(ranking_from_relevance(flags), "true", 6) == 1

    def test_exhaustive_against_oracle(self):
        for n in range(1, 9):
            for flags in itertools.product([0, 1], repeat=n):
                ranked = ranking_from_relevance(flags)
                for k in range(1, n + 1):
                    assert recall_at_k(ranked, "true", k) == oracle_recall(flags, k)

    def test_monotone_in_k(self):
        for flags in itertools.product([0, 1], repeat=6):
            ranked = ranking_from_relevance(flags)
            values = [recall_at_k(ranked, "true", k) for k in range(1, 7)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(ranking_from_relevance([1]), "true", 0)


class TestAveragePrecision:
    def test_all_true_on_top(self):
        assert average_precision(ranking_from_relevance([1, 1, 0, 0]), {"true"}) == 1.0

    def test_ranks_one_and_three(self):
        ap = average_precision(ranking_from_relevance([1, 0, 1]), {"true"})
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_exhaustive_against_oracle(self):
        for n in range(1, 9):
            for flags in itertools.product([0, 1], repeat=n):
                if not any(flags):
                    continue
                ranked = ranking_from_relevance(flags)
                assert average_precision(ranked, {"true"}) == pytest.approx(
                    oracle_ap(flags)
                )

    def test_ap_is_one_iff_trues_lead(self):
        for n in range(1, 9):
            for flags in itertools.product([0, 1], repeat=n):
                if not any(flags):
                    continue
                ap = average_precision(ranking_from_relevance(flags), {"true"})
                k = sum(flags)
                leads = all(flags[: k])
                assert (ap == 1.0) == leads

    def test_missing_truth(self):
        with pytest.raises(ValueError, match="missing"):
            average_precision(ranking_from_relevance([0, 0]), {"true"})

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            average_precision(ranking_from_relevance([1]), set())


NOISE = {"satellite": 0.1, "uav": 0.4, "ground": 0.4}


class TestSynthetic:
    def test_noiseless_is_perfect(self):
        noise = {"satellite": 0.0, "uav": 0.0, "ground": 0.0}
        [metrics] = evaluate_cells(synth_corpus(20, 16, noise, seed=0), [(1, 1)])
        assert metrics["recall_at_1"] == 100.0
        assert metrics["ap"] == 100.0
        gallery, pools = synth_gallery(20, 16, noise, seed=0)
        for pool in pools:
            ranked = rank_query_set(make_query_set(pool, 1, 0), gallery)
            assert ranked.entries[0][0] == pool.location_id
            assert ranked.entries[0][1] == pytest.approx(1.0)

    def test_same_seed_identical_gallery(self):
        a, b = synth_corpus(10, 8, NOISE, seed=9), synth_corpus(10, 8, NOISE, seed=9)
        assert a.ids == b.ids
        for name in ("gallery", "uav", "ground"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert not np.array_equal(a.gallery, synth_corpus(10, 8, NOISE, seed=10).gallery)

    @pytest.mark.parametrize("images_per_view", [1, 3])
    def test_records_equal_corpus_rows(self, images_per_view):
        corpus = synth_corpus(30, 6, NOISE, seed=4, images_per_view=images_per_view)
        gallery, pools = synth_gallery(30, 6, NOISE, seed=4, images_per_view=images_per_view)
        assert [r.location_id for r in gallery] == list(corpus.ids)
        assert [p.location_id for p in pools] == list(corpus.ids)
        for i, (record, pool) in enumerate(zip(gallery, pools)):
            assert record.view == "satellite"
            assert np.array_equal(record.embedding.vector, corpus.gallery[i])
            assert len(pool.uav) == len(pool.ground) == images_per_view
            for j in range(images_per_view):
                assert np.array_equal(pool.uav[j].vector, corpus.uav[i, j])
                assert np.array_equal(pool.ground[j].vector, corpus.ground[i, j])

    def test_corpus_is_read_only(self):
        corpus = synth_corpus(5, 4, NOISE, seed=1)
        for name in ("gallery", "uav", "ground"):
            with pytest.raises(ValueError):
                getattr(corpus, name)[0, 0] = 1.0

    def test_fused_four_beats_single_over_ten_seeds(self):
        # direction-only check at heavy noise
        noise = {"satellite": 0.0, "uav": 0.8, "ground": 0.8}
        single, fused = [], []
        for seed in range(10):
            corpus = synth_corpus(200, 64, noise, seed=seed)
            one, four = evaluate_cells(corpus, [(1, 0), (4, 0)])
            single.append(one["recall_at_1"])
            fused.append(four["recall_at_1"])
        assert np.mean(fused) >= np.mean(single)

    def test_row_norms_equal_numpy_norm_bit_for_bit(self):
        # synth_corpus and mean fusion normalize by these; the digests need
        # the float np.linalg.norm gives each row on its own
        rng = np.random.default_rng(21)
        dims = [1, 2, 3, 5, 7, 9, 13, 31, 63, 64, 65, 127]
        dims += rng.integers(1, 200, size=40).tolist()
        for dim in dims:
            rows = rng.standard_normal((int(rng.integers(1, 300)), dim))
            rows *= rng.uniform(1e-3, 1e3, size=(len(rows), 1))
            assert np.array_equal(_row_norms(rows), [np.linalg.norm(row) for row in rows]), dim

    def test_geo_tags_valid(self):
        gallery, _ = synth_gallery(50, 8, {"uav": 0.2, "ground": 0.2}, seed=1)
        for r in gallery:
            assert -90 <= r.lat <= 90
            assert -180 <= r.lon <= 180

    def test_pool_validation(self):
        corpus = synth_corpus(5, 8, {"uav": 0.2, "ground": 0.2}, seed=2)
        for uav, ground in [(0, 0), (5, 0), (0, 5), (-1, 2)]:
            with pytest.raises(ValueError):
                evaluate_cells(corpus, [(1, 1), (uav, ground)])
        assert evaluate_cells(corpus, []) == []


def unit_rows(rng, shape):
    x = rng.standard_normal(shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def random_corpus(rng, locations, dim, images):
    """Random corpus with exact ties, whose ids are out of index order.

    Ids are unpadded ("loc100" sorts before "loc11") and shuffled. A fifth
    of the gallery rows repeat another row, and some query images are
    exact copies of gallery rows, so some scores tie exactly.
    """
    gallery = unit_rows(rng, (locations, dim))
    copies = rng.choice(locations, size=locations // 5, replace=False)
    gallery[copies] = gallery[rng.integers(0, locations, size=copies.size)]
    views = []
    for _ in range(2):
        noisy = gallery[:, None] + rng.uniform(0.3, 1.5) * rng.standard_normal(
            (locations, images, dim)
        )
        images_ = noisy / np.linalg.norm(noisy, axis=-1, keepdims=True)
        exact = rng.random((locations, images)) < 0.2
        images_[exact] = gallery[rng.integers(0, locations, size=int(exact.sum()))]
        views.append(images_)
    ids = tuple(f"loc{j}" for j in rng.permutation(locations))
    return Corpus(ids=ids, gallery=gallery, uav=views[0], ground=views[1])


def tied_corpus():
    """Zero-noise corpus whose ids are out of index order, with exact ties.

    "d" and "b" share one embedding and "c" and "a" another, so their
    scores tie exactly and only the location id can order them.
    """
    e1, e2, e3 = np.eye(4)[:3]
    vectors = {"d": e1, "b": e1, "c": e2, "a": e2, "e": e3}
    others = {"d": e2, "b": e3, "c": e1, "a": e3, "e": e1}
    ids = tuple(vectors)
    return Corpus(
        ids=ids,
        gallery=np.array([vectors[loc] for loc in ids]),
        uav=np.array([[vectors[loc], others[loc]] for loc in ids]),
        ground=np.array([[others[loc], vectors[loc]] for loc in ids]),
    )


def assert_matches_oracle(corpus, max_count, strategy):
    """Every cell, including those with no UAV or no ground image."""
    gallery, pools = corpus_records(corpus)
    cells = list(itertools.product(range(max_count + 1), repeat=2))[1:]
    for cell, metrics in zip(cells, evaluate_cells(corpus, cells, strategy), strict=True):
        assert metrics == reference_cell(gallery, pools, *cell, strategy), cell


class TestEvaluateCell:
    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    def test_matches_definition_on_exact_ties(self, strategy):
        assert_matches_oracle(tied_corpus(), 2, strategy)

    def test_ties_rank_by_location_id(self):
        # own image only: "b" and "a" win their ties, "d" and "c" rank second
        [metrics] = evaluate_cells(tied_corpus(), [(1, 0)])
        assert metrics["recall_at_1"] == 60.0
        assert metrics["recall_at_5"] == 100.0
        assert metrics["ap"] == pytest.approx(80.0)

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    def test_matches_definition_on_random_galleries(self, strategy):
        rng = np.random.default_rng(11)
        for seed in range(4):
            noise = {
                "satellite": float(rng.uniform(0.0, 0.3)),
                "uav": float(rng.uniform(0.3, 1.2)),
                "ground": float(rng.uniform(0.3, 1.2)),
            }
            corpus = synth_corpus(40, 8, noise, seed=seed, images_per_view=3)
            assert_matches_oracle(corpus, 3, strategy)
            # the oracle on synth_gallery's own records agrees too
            gallery, pools = synth_gallery(40, 8, noise, seed=seed, images_per_view=3)
            assert evaluate_cells(corpus, [(2, 1)], strategy) == [
                reference_cell(gallery, pools, 2, 1, strategy)
            ]

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    def test_matches_definition_on_random_corpora(self, strategy):
        # more locations than one scoring block, with a partial last block
        rng = np.random.default_rng(12)
        for locations, dim in [(3, 2), (70, 5), (117, 16)]:
            assert_matches_oracle(random_corpus(rng, locations, dim, 3), 3, strategy)

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    @pytest.mark.parametrize("signed_zero", [False, True])
    @pytest.mark.parametrize("locations", [69, 70])
    def test_identical_gallery_rows_tie_in_the_gallery_tail(
        self, strategy, signed_zero, locations
    ):
        # BLAS scores the last rows (or columns) of a product by another
        # path than the rest. The last gallery row repeats row 0 (with -0.0
        # for one of its 0.0 entries when signed_zero), and the last
        # location's query lies close to that row, so only the ids may
        # order the two rows: the last location ranks first exactly when
        # its id sorts before location 0's. Cells are scored one by one
        # and all together, so products with one query row are included.
        copy = locations - 1
        rng = np.random.default_rng(5)
        gallery = unit_rows(rng, (locations, 64))
        gallery[0, 5] = 0.0
        gallery[0] /= np.linalg.norm(gallery[0])
        gallery[copy] = gallery[0]
        if signed_zero:
            gallery[copy, 5] = -0.0
        queries = gallery.copy()
        queries[0] = -gallery[0]  # location 0 ranks last either way
        queries[copy] = unit_rows(rng, (64,)) * 0.1 + gallery[copy]
        queries[copy] /= np.linalg.norm(queries[copy])
        cells = [(1, 0), (0, 1), (1, 1)]
        top = []
        for copy_id in ("a", "z"):  # sorts before / after "loc00"
            ids = [f"loc{i:02d}" for i in range(locations)]
            ids[copy] = copy_id
            corpus = Corpus(tuple(ids), gallery, queries[:, None], queries[:, None])
            gallery_records, pools = corpus_records(corpus)
            expected = [reference_cell(gallery_records, pools, *cell, strategy) for cell in cells]
            together = evaluate_cells(corpus, cells, strategy)
            alone = [evaluate_cells(corpus, [cell], strategy)[0] for cell in cells]
            assert together == alone == expected
            top.append({m["recall_at_1"] for m in expected})
        hits = locations - 1  # every location but location 0 can rank first
        assert top == [{100.0 * hits / locations}, {100.0 * (hits - 1) / locations}]

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    def test_no_output_depends_on_the_block_size(self, strategy, monkeypatch):
        # Galleries with no repeated row take the product as the scores, and
        # one with a repeated row (first, middle or last) gathers them; blocks
        # of 1, 3, the default and more than the locations reuse their
        # buffers over full and short blocks. The repeated row ties exactly
        # with the row it copies, so the ids must order the two at every
        # block size.
        rng = np.random.default_rng(13)
        locations, dim, images = 23, 6, 3
        cells = list(itertools.product(range(images + 1), repeat=2))[1:]
        blocks = (1, 3, retrieval._BLOCK, locations + 5)
        for copy in (None, 0, locations // 2, locations - 1):
            gallery = unit_rows(rng, (locations, dim))
            if copy is not None:
                gallery[copy] = gallery[(copy + 5) % locations]
            views = [gallery[:, None] + 0.4 * rng.standard_normal((locations, images, dim))
                     for _ in range(2)]
            uav, ground = (v / np.linalg.norm(v, axis=-1, keepdims=True) for v in views)
            ids = tuple(f"loc{j}" for j in rng.permutation(locations))
            corpus = Corpus(ids, gallery, uav, ground)
            results = []
            for block in blocks:
                monkeypatch.setattr(retrieval, "_BLOCK", block)
                results.append(evaluate_cells(corpus, cells, strategy))
            assert results == [results[0]] * len(blocks), copy
            assert_matches_oracle(corpus, images, strategy)

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    def test_peak_memory_of_one_seed(self, strategy):
        # Scoring a stock 200-location seed's 16 cells in 8-location blocks
        # allocated at most 0.63 MB (mean) and 0.80 MB (max_score) beside its
        # 1 MB corpus when written, on numpy 2.4; 16-location blocks took
        # 1.06 and 1.41 MB.
        corpus = synth_corpus(200, 64, {"satellite": 0.0, "uav": 0.5, "ground": 0.5}, seed=3)
        cells = list(itertools.product(range(1, 5), repeat=2))
        evaluate_cells(corpus, cells, strategy)  # numpy's first-call allocations
        tracemalloc.start()
        try:
            evaluate_cells(corpus, cells, strategy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0e6

    def test_cancelling_images_raise_under_mean_fusion(self):
        corpus = tied_corpus()
        uav, ground = corpus.uav.copy(), corpus.ground.copy()
        ground[2, 0] = -uav[2, 0]
        corpus = Corpus(corpus.ids, corpus.gallery, uav, ground)
        with pytest.raises(ValueError, match="query embeddings cancel out"):
            evaluate_cells(corpus, [(1, 0), (1, 1)], FusionStrategy.MEAN)
        assert_matches_oracle(corpus, 1, FusionStrategy.MAX_SCORE)

    def test_duplicate_location_ids_rejected(self):
        corpus = tied_corpus()
        with pytest.raises(ValueError, match="unique"):
            Corpus(("a",) + corpus.ids[1:], corpus.gallery, corpus.uav, corpus.ground)


class TestCorpus:
    def arrays(self):
        corpus = tied_corpus()
        return corpus.ids, corpus.gallery.copy(), corpus.uav.copy(), corpus.ground.copy()

    def test_non_unit_or_non_finite_rows_rejected(self):
        for name, bad in [(1, 2.0), (2, np.nan), (3, np.inf)]:
            arrays = list(self.arrays())
            arrays[name][0, 0] = bad
            with pytest.raises(ValueError, match="unit"):
                Corpus(*arrays)

    def test_dimension_mismatch_rejected(self):
        ids, gallery, uav, ground = self.arrays()
        with pytest.raises(ValueError, match="uav dim 3 vs gallery dim"):
            Corpus(ids, gallery, uav[:, :, :3], ground)

    def test_shapes_rejected(self):
        ids, gallery, uav, ground = self.arrays()
        with pytest.raises(ValueError):
            Corpus(ids[:4], gallery, uav, ground)
        with pytest.raises(ValueError):
            Corpus(ids, gallery, uav[:, 0], ground)
        with pytest.raises(ValueError):
            Corpus((), gallery[:0], uav[:0], ground[:0])

    def test_id_rank_is_string_order(self):
        corpus = Corpus(
            ("loc9999", "loc10000", "z"),
            np.eye(3),
            np.eye(3)[:, None],
            np.eye(3)[:, None],
        )
        assert corpus.id_rank.tolist() == [1, 0, 2]


class TestMetricsGrid:
    def test_shape_and_columns(self):
        ret = RetrievalConfig(
            locations=20, dim=8, seeds=1, noise=ViewNoise(uav=0.4, ground=0.4)
        )
        rows = retrieval_grid(ret, base_seed=0)
        assert len(rows) == 16
        text = format_metrics_table(rows)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "uav_images,ground_images,recall_at_1,recall_at_5,recall_at_10,"
            "recall_at_top1,ap"
        )
        assert len(lines) == 17

    def test_top1_percent_k(self):
        assert top1_percent_k(200) == 2
        assert top1_percent_k(50) == 1
        assert top1_percent_k(1000) == 10

    def test_deterministic(self):
        ret = RetrievalConfig(locations=15, dim=8, seeds=2)
        assert retrieval_grid(ret, base_seed=0) == retrieval_grid(ret, base_seed=0)
