import math
from collections import Counter

import numpy as np
import pytest

from splitcvl import privmetrics
from splitcvl.cli import main
from splitcvl.errors import ConfigError
from splitcvl.privmetrics import (
    DEMO_CUT_BLENDS,
    DYNAMIC_RANGE,
    WINDOW,
    Image,
    build_conf_table,
    histogram_of,
    kl_divergence,
    load_corpus_dir,
    make_demo_corpus,
    read_image,
    ssim,
    write_demo_corpus,
    write_image,
)

from helpers import (
    kernel_conf_costs,
    perfbench_spans,
    reference_conf_table,
    reference_ssim,
    smoothed_histogram,
    write_color_corpus,
)


def const_image(value, size=16, channels=1):
    return Image(np.full((size, size, channels), value, dtype=np.uint8))


def random_image(rng, size=16, channels=1):
    return Image(rng.integers(0, 256, size=(size, size, channels)).astype(np.uint8))


def spearman(xs, ys):
    """Rank correlation, coded directly from the definition."""
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0] * len(vals)
        for rank, i in enumerate(order):
            out[i] = rank
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1 - 6 * d2 / (n * (n**2 - 1))


class TestSSIM:
    def test_identical_images_give_exactly_one(self):
        rng = np.random.default_rng(0)
        for channels in (1, 3):
            img = random_image(rng, channels=channels)
            assert ssim(img, [img]) == [1.0]

    def test_constant_black_vs_white_closed_form(self):
        a = const_image(0)
        b = const_image(255)
        c1 = (0.01 * 255) ** 2
        # means differ maximally, variances are zero: only the luminance
        # term survives and equals C1 / (255^2 + C1)
        expected = c1 / (255.0**2 + c1)
        assert ssim(a, [b]) == [pytest.approx(expected)]
        assert expected == pytest.approx(1.0e-4, rel=2e-3)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = random_image(rng), random_image(rng)
            assert ssim(a, [b]) == ssim(b, [a])

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a, b = random_image(rng), random_image(rng)
            assert 0.0 <= ssim(a, [b])[0] <= 1.0

    def test_one_score_per_reconstruction_in_order(self):
        rng = np.random.default_rng(3)
        orig, b, c = (random_image(rng, channels=3) for _ in range(3))
        assert ssim(orig, [b, c, orig]) == ssim(orig, [b]) + ssim(orig, [c]) + [1.0]
        assert ssim(orig, []) == []

    def test_dimension_mismatch(self):
        message = "images must share dimensions and channels"
        with pytest.raises(ValueError, match=message):
            ssim(const_image(0, size=16), [const_image(0, size=24)])
        with pytest.raises(ValueError, match=message):
            ssim(const_image(0, channels=1), [const_image(0, channels=3)])
        with pytest.raises(ValueError, match=message):
            ssim(const_image(0), [const_image(0), const_image(0, size=24)])

    def test_window_too_large(self):
        with pytest.raises(ValueError, match="window 8 exceeds image extent 7x7"):
            ssim(const_image(0, size=7), [const_image(0, size=7)])


def reference_cases():
    """(original, reconstruction) pairs for the block-mean reference."""
    rng = np.random.default_rng(17)
    for channels in (1, 3):
        for height, width in ((13, 21), (8, 30), (17, 9), (31, 31)):
            shape = (height, width, channels)
            a, b = (Image(rng.integers(0, 256, size=shape, dtype=np.uint8)) for _ in "ab")
            yield a, b
            yield a, a
        for u in (0, 255):
            for v in (0, 255):
                yield const_image(u, channels=channels), const_image(v, channels=channels)
    # perfbench-shaped: 128x128 test cards with 5-100% of pixels replaced by noise
    _, triples = make_demo_corpus(seed=5, triples_per_cut=4, size=128)[0]
    for orig, _, _ in triples:
        for share in (0.05, 0.25, 0.6, 1.0):
            mask = rng.random(orig.pixels.shape) < share
            noise = rng.integers(0, 256, size=orig.pixels.shape, dtype=np.uint8)
            yield orig, Image(np.where(mask, noise, orig.pixels))


def test_ssim_equals_block_mean_reference_exactly():
    cases = list(reference_cases())
    assert len(cases) == 40
    for a, b in cases:
        assert ssim(a, [b]) == [reference_ssim(a, b)]
        assert ssim(b, [a]) == [reference_ssim(b, a)]


def test_window_sums_are_exact_in_float32():
    """The largest window sum (of squares of 255) is an exact float32
    integer, so a float32 sum is exact in any order; a larger window or
    dynamic range would break that."""
    assert WINDOW**2 * DYNAMIC_RANGE**2 < 2**24


# (height, width) pairs: sides that are and are not multiples of WINDOW,
# up to perfbench's 128x128, whose 256 tiles per row take numpy's
# blocked pairwise summation
IMAGE_SIDES = ((8, 8), (13, 21), (8, 30), (17, 9), (31, 31), (128, 128), (72, 200))


def test_ssim_tail_mean_equals_per_row_means():
    """``ssim`` takes one mean per (reconstruction, channel) row of its
    (reconstructions, channels, tiles) terms in one reduction; each must be
    the float a 1-d np.mean of that row gives."""
    rng = np.random.default_rng(23)
    for height, width in IMAGE_SIDES:
        tiles = (height // WINDOW) * (width // WINDOW)
        for recons in (1, 2, 3, 10, 11):
            for channels in (1, 3):
                terms = rng.uniform(-0.1, 1.0, size=(recons, channels, tiles))
                per_row = [[float(np.mean(row)) for row in block] for block in terms]
                assert np.mean(terms, axis=2).tolist() == per_row


def test_ssim_of_several_reconstructions_equals_reference_exactly():
    """5 rows, and the 10 and 11 that ``build_conf_table`` passes for an
    original shared by 5 cuts (with one repeat inside a cut)."""
    rng = np.random.default_rng(29)
    for height, width in IMAGE_SIDES:
        for channels in (1, 3):
            shape = (height, width, channels)
            orig = Image(rng.integers(0, 256, size=shape, dtype=np.uint8))
            for noisy in (3, 8, 9):
                recons = [Image(rng.integers(0, 256, size=shape, dtype=np.uint8))
                          for _ in range(noisy)]
                recons += [orig, Image(np.full(shape, 255, np.uint8))]
                assert ssim(orig, recons) == [reference_ssim(orig, b) for b in recons]


def test_histogram_equals_per_channel_bincount_exactly():
    rng = np.random.default_rng(31)
    images = [const_image(v, channels=c) for v in (0, 255) for c in (1, 3)]
    for height, width in IMAGE_SIDES:
        for channels in (1, 3):
            shape = (height, width, channels)
            images.append(Image(rng.integers(0, 256, size=shape, dtype=np.uint8)))
    _, triples = make_demo_corpus(seed=2, triples_per_cut=2)[1]
    images += [img for triple in triples for img in triple]
    for img in images:
        counts = [np.bincount(img.pixels[:, :, c].ravel(), minlength=256)
                  for c in range(img.channels)]
        expected = smoothed_histogram(counts)
        got = histogram_of(img)
        assert got.shape == expected.shape == (img.channels, 256)
        assert got.tobytes() == expected.tobytes()


class TestKL:
    def test_identical_histograms_zero(self):
        rng = np.random.default_rng(4)
        img = random_image(rng)
        h = histogram_of(img)
        assert kl_divergence(h, h) == 0.0

    def test_point_mass_vs_uniform_two_bins(self):
        # P=(1,0), Q=(.5,.5): the epsilon-smoothed value approaches ln 2.
        eps = 1e-9
        p = smoothed_histogram([[1.0, 0.0]], epsilon=eps)
        q = smoothed_histogram([[0.5, 0.5]], epsilon=eps)
        # independent hand evaluation of the smoothed closed form
        p0, p1 = (1 + eps) / (1 + 2 * eps), eps / (1 + 2 * eps)
        q0 = (0.5 + eps) / (1 + 2 * eps)
        expected = p0 * math.log(p0 / q0) + p1 * math.log(p1 / q0)
        assert kl_divergence(p, q) == pytest.approx(expected, rel=1e-12)
        assert kl_divergence(p, q) == pytest.approx(math.log(2), rel=1e-6)

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            p = smoothed_histogram(rng.integers(0, 50, size=(1, 16)))
            q = smoothed_histogram(rng.integers(0, 50, size=(1, 16)))
            assert kl_divergence(p, q) >= 0.0

    def test_asymmetry_not_assumed(self):
        p = smoothed_histogram([[9.0, 1.0]])
        q = smoothed_histogram([[5.0, 5.0]])
        assert kl_divergence(p, q) != kl_divergence(q, p)

    def test_shape_mismatch(self):
        p = smoothed_histogram([[1.0, 1.0]])
        q = smoothed_histogram([[1.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match="histogram shapes differ"):
            kl_divergence(p, q)


class TestConfTableBuild:
    def test_identical_reconstructions_give_zero_kl_and_cost_one(self):
        rng = np.random.default_rng(6)
        imgs = [random_image(rng) for _ in range(3)]
        corpus = [
            ("cut0", [(img, img, img) for img in imgs]),
            ("cut1", [(img, img, img) for img in imgs]),
        ]
        table = build_conf_table(corpus)
        assert all(e.kl_open == 0.0 and e.kl_closed == 0.0 for e in table)
        assert kernel_conf_costs(table) == [1.0, 1.0]
        assert all(e.ssim_open == 1.0 for e in table)

    def test_noise_cut_is_the_kl_max_and_zero_cost(self):
        rng = np.random.default_rng(7)
        structured = const_image(128)
        noise = random_image(rng)
        corpus = [
            ("shallow", [(structured, structured, structured)]),
            ("deep", [(structured, noise, noise)]),
        ]
        table = build_conf_table(corpus)
        assert table[1].kl_open == max(max(e.kl_open, e.kl_closed) for e in table)
        assert kernel_conf_costs(table, 0.5)[1] == 0.0

    def test_permutation_invariance_over_triples(self):
        corpus = make_demo_corpus(seed=3, triples_per_cut=5)
        reversed_corpus = [(name, list(reversed(triples))) for name, triples in corpus]
        a = build_conf_table(corpus)
        b = build_conf_table(reversed_corpus)
        for ea, eb in zip(a, b):
            assert ea.kl_open == eb.kl_open
            assert ea.kl_closed == eb.kl_closed
            assert ea.ssim_open == eb.ssim_open

    def test_empty_cut_rejected(self):
        with pytest.raises(ValueError, match="cut 'cut0' has no image triples"):
            build_conf_table([("cut0", [])])


def copied_originals(corpus):
    """``corpus`` with each triple's original a distinct but equal object."""
    return [(name, [(Image(orig.pixels.copy()), a, b) for orig, a, b in triples])
            for name, triples in corpus]


def conf_table_corpora(tmp_path):
    """Corpora whose originals are shared, distinct or repeated, by name."""
    shared = make_demo_corpus(seed=5, triples_per_cut=4)
    write_color_corpus(tmp_path / "color")
    rng = np.random.default_rng(37)
    o, p = random_image(rng, size=24), random_image(rng, size=24)
    recon = lambda: random_image(rng, size=24)  # noqa: E731
    return {
        "shared": shared,
        "copied": copied_originals(shared),
        # cut i of the corpus seeded i: no original repeats
        "distinct": [make_demo_corpus(seed=i, triples_per_cut=4)[i] for i in range(5)],
        "color_and_gray": load_corpus_dir(tmp_path / "color"),
        "repeat_in_cut": [
            ("a", [(o, recon(), recon()), (p, recon(), recon()), (o, recon(), o)]),
            ("b", [(o, o, recon())]),
        ],
    }


CONF_TABLE_CORPORA = ("shared", "copied", "distinct", "color_and_gray", "repeat_in_cut")


@pytest.mark.parametrize("name", CONF_TABLE_CORPORA)
def test_conf_table_equals_per_triple_reference_exactly(tmp_path, name):
    corpus = conf_table_corpora(tmp_path)[name]
    assert build_conf_table(corpus) == reference_conf_table(corpus)


def counted_conf_table(monkeypatch, corpus):
    """``build_conf_table(corpus)`` and a Counter of its ``ssim`` and
    ``histogram_of`` calls, with the originals ``ssim`` was called on."""
    calls, scored = Counter(), []

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            if name == "ssim":
                scored.append(args[0])
            return real(*args)
        return wrapper

    for name in ("ssim", "histogram_of"):
        monkeypatch.setattr(privmetrics, name, counting(name, getattr(privmetrics, name)))
    return build_conf_table(corpus), calls, scored


def test_conf_table_corpora_repeat_originals_as_named(tmp_path):
    corpora = conf_table_corpora(tmp_path)

    def originals(name):
        corpus = corpora[name]
        return [orig for _, triples in corpus for orig, _, _ in triples]

    assert len({id(orig) for orig in originals("shared")}) == 4
    assert len({id(orig) for orig in originals("copied")}) == 20
    distinct_bytes = {orig.pixels.tobytes() for orig in originals("distinct")}
    assert len(distinct_bytes) == 20
    # the loader shares no object: the color corpus's 3 originals are 5 images
    assert len({id(orig) for orig in originals("color_and_gray")}) == 5
    assert len({id(orig) for orig in originals("repeat_in_cut")}) == 2
    assert build_conf_table(corpora["shared"]) == build_conf_table(corpora["copied"])


# distinct originals (by shape and pixels) and triples of each corpus; the
# 4 originals of "copied" are 20 objects, one per cut
DISTINCT_ORIGINALS = {"shared": (4, 20), "copied": (4, 20), "distinct": (20, 20),
                      "color_and_gray": (3, 5), "repeat_in_cut": (2, 4)}


@pytest.mark.parametrize("name", CONF_TABLE_CORPORA)
def test_each_distinct_original_is_scored_once(tmp_path, monkeypatch, name):
    corpus = conf_table_corpora(tmp_path)[name]
    _, calls, _ = counted_conf_table(monkeypatch, corpus)
    originals, triples = DISTINCT_ORIGINALS[name]
    assert calls == {"ssim": originals, "histogram_of": 2 * triples + originals}


class TestDemoCorpusFixture:
    def test_ssim_columns_in_reported_ranges(self):
        table = build_conf_table(make_demo_corpus(seed=0))
        shallow = table[0]
        stage3 = table[3]
        assert 0.84 <= shallow.ssim_open <= 0.99
        assert 0.84 <= shallow.ssim_closed <= 0.99
        assert 0.02 <= stage3.ssim_open <= 0.18
        assert 0.02 <= stage3.ssim_closed <= 0.18

    def test_ssim_kl_rank_correlation_negative(self):
        table = build_conf_table(make_demo_corpus(seed=0))
        ssims = [e.ssim_open for e in table] + [e.ssim_closed for e in table]
        kls = [e.kl_open for e in table] + [e.kl_closed for e in table]
        assert spearman(ssims, kls) < 0

    def test_kl_monotone_with_depth(self):
        table = build_conf_table(make_demo_corpus(seed=0))
        kl_open = [e.kl_open for e in table]
        kl_closed = [e.kl_closed for e in table]
        assert all(a < b for a, b in zip(kl_open, kl_open[1:]))
        assert all(a < b for a, b in zip(kl_closed, kl_closed[1:]))

    def test_deterministic(self):
        a = build_conf_table(make_demo_corpus(seed=1))
        b = build_conf_table(make_demo_corpus(seed=1))
        assert a == b

    def test_cut_names_in_candidate_order(self):
        names = [name for name, _ in make_demo_corpus(seed=0)]
        assert names == sorted(names)
        assert len(names) == len(DEMO_CUT_BLENDS) == 5

    @pytest.mark.parametrize("kwargs, message", [
        ({"size": 8}, "size must be at least 12, got 8"),
        ({"size": 11}, "size must be at least 12, got 11"),
        ({"triples_per_cut": 0}, "triples_per_cut must be at least 1, got 0"),
    ])
    def test_too_small_rejected_up_front(self, tmp_path, kwargs, message):
        with pytest.raises(ValueError, match=message):
            make_demo_corpus(**kwargs)
        with pytest.raises(ValueError, match=message):
            write_demo_corpus(tmp_path / "corpus", **kwargs)
        assert not (tmp_path / "corpus").exists()

    def test_smallest_size_builds(self):
        corpus = make_demo_corpus(triples_per_cut=1, size=12)
        assert corpus[0][1][0][0].pixels.shape == (12, 12, 1)


class TestImageIO:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        img = random_image(rng, size=12)
        path = tmp_path / "img.pgm"
        write_image(img, path)
        loaded = read_image(path)
        assert np.array_equal(loaded.pixels, img.pixels)
        assert (loaded.width, loaded.height, loaded.channels) == (12, 12, 1)

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        img = random_image(rng, size=10, channels=3)
        path = tmp_path / "img.ppm"
        write_image(img, path)
        loaded = read_image(path)
        assert np.array_equal(loaded.pixels, img.pixels)
        assert loaded.channels == 3

    def test_pgm_with_comment_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2 255\n\x00\x40\x80\xff")
        img = read_image(path)
        assert img.pixels[1, 1, 0] == 255

    def test_bad_files_rejected(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P7 notreal")
        with pytest.raises(ConfigError):
            read_image(bad)
        truncated = tmp_path / "short.pgm"
        truncated.write_bytes(b"P5 4 4 255\n\x00\x00")
        with pytest.raises(ConfigError):
            read_image(truncated)
        wrong_maxval = tmp_path / "depth.pgm"
        wrong_maxval.write_bytes(b"P5 1 1 65535\n\x00\x00")
        with pytest.raises(ConfigError):
            read_image(wrong_maxval)


class TestCorpusDir:
    def test_write_and_load_round_trip(self, tmp_path):
        write_demo_corpus(tmp_path / "corpus", seed=2, triples_per_cut=3)
        corpus = load_corpus_dir(tmp_path / "corpus")
        assert [name for name, _ in corpus] == [name for name, _, _ in DEMO_CUT_BLENDS]
        assert all(len(triples) == 3 for _, triples in corpus)
        table_disk = build_conf_table(corpus)
        table_mem = build_conf_table(make_demo_corpus(seed=2, triples_per_cut=3))
        for a, b in zip(table_disk, table_mem):
            assert a.kl_open == pytest.approx(b.kl_open)
            assert a.ssim_open == pytest.approx(b.ssim_open)

    def test_empty_cut_dir_rejected(self, tmp_path):
        root = tmp_path / "corpus"
        (root / "0_conv1").mkdir(parents=True)
        with pytest.raises(ConfigError, match="corpus cut '0_conv1' contains no triples"):
            load_corpus_dir(root)

    def test_incomplete_triple_rejected(self, tmp_path):
        root = tmp_path / "corpus"
        cut = root / "0_conv1"
        cut.mkdir(parents=True)
        write_image(const_image(1), cut / "orig_000.pgm")
        write_image(const_image(2), cut / "open_000.pgm")
        with pytest.raises(ConfigError):
            load_corpus_dir(root)

    def test_missing_dir(self, tmp_path):
        with pytest.raises(ConfigError):
            load_corpus_dir(tmp_path / "nope")

    def test_byte_identical_originals_are_scored_once(self, tmp_path, monkeypatch):
        write_demo_corpus(tmp_path / "corpus", seed=2, triples_per_cut=3)
        corpus = load_corpus_dir(tmp_path / "corpus")
        expected = reference_conf_table(corpus)
        table, calls, scored = counted_conf_table(monkeypatch, corpus)
        # 3 originals, each written once per cut: 15 triples
        assert calls == {"ssim": 3, "histogram_of": 2 * 15 + 3}
        firsts = [orig.pixels.tobytes() for orig, _, _ in corpus[0][1]]
        assert [orig.pixels.tobytes() for orig in scored] == firsts
        assert table == expected

    def test_reconstructions_equal_to_the_original_are_each_scored(self, tmp_path,
                                                                   monkeypatch):
        for cut in ("0_a", "1_b"):
            write_uniform_cut(tmp_path / "corpus" / cut, const_image(7))
        corpus = load_corpus_dir(tmp_path / "corpus")
        table, calls, _ = counted_conf_table(monkeypatch, corpus)
        # one original; the four reconstructions, equal to it, count apart
        assert calls == {"ssim": 1, "histogram_of": 4 + 1}
        assert all(e.ssim_open == e.ssim_closed == 1.0 for e in table)

    @pytest.mark.parametrize("shape_a, shape_b", [
        ((8, 16, 1), (16, 8, 1)),
        ((16, 24, 1), (16, 8, 3)),
    ], ids=["transposed", "gray_vs_rgb"])
    def test_same_raster_bytes_in_another_shape_stay_distinct(self, tmp_path, monkeypatch,
                                                              shape_a, shape_b):
        raster = np.arange(np.prod(shape_a), dtype=np.uint8)
        for cut, shape in (("0_a", shape_a), ("1_b", shape_b)):
            write_uniform_cut(tmp_path / "corpus" / cut, Image(raster.reshape(shape)))
        corpus = load_corpus_dir(tmp_path / "corpus")
        (_, [a]), (_, [b]) = corpus
        assert a[0].pixels.tobytes() == b[0].pixels.tobytes()
        _, calls, scored = counted_conf_table(monkeypatch, corpus)
        assert calls == {"ssim": 2, "histogram_of": 4 + 2}
        assert [orig.pixels.shape for orig in scored] == [shape_a, shape_b]

    def test_originals_differing_in_one_byte_are_told_apart(self, tmp_path, monkeypatch):
        # 128x128 rasters that differ only at byte 1; the third repeats the second
        zeros = np.zeros((128, 128, 1), np.uint8)
        marked = zeros.copy()
        marked.flat[1] = 9
        for cut, pixels in (("0_a", zeros), ("1_b", marked), ("2_c", marked)):
            write_uniform_cut(tmp_path / "corpus" / cut, Image(pixels))
        corpus = load_corpus_dir(tmp_path / "corpus")
        expected = reference_conf_table(corpus)
        table, calls, scored = counted_conf_table(monkeypatch, corpus)
        assert calls == {"ssim": 2, "histogram_of": 6 + 2}
        assert [orig.pixels.flat[1] for orig in scored] == [0, 9]
        assert table == expected

    def test_differing_originals_stay_distinct(self, tmp_path, monkeypatch):
        for cut, value in (("0_a", 7), ("1_b", 8)):
            write_uniform_cut(tmp_path / "corpus" / cut, const_image(value))
        corpus = load_corpus_dir(tmp_path / "corpus")
        _, calls, scored = counted_conf_table(monkeypatch, corpus)
        assert calls == {"ssim": 2, "histogram_of": 4 + 2}
        assert [orig.pixels[0, 0, 0] for orig in scored] == [7, 8]

    def test_two_files_for_one_role_rejected(self, tmp_path):
        cut = tmp_path / "corpus" / "0_conv1"
        cut.mkdir(parents=True)
        for role in ("orig", "open", "closed"):
            write_image(const_image(9), cut / f"{role}_1.pgm")
        write_image(const_image(9, channels=3), cut / "orig_1.ppm")
        with pytest.raises(ConfigError, match=r"orig_1\.pgm.*orig_1\.ppm"):
            load_corpus_dir(tmp_path / "corpus")


def write_uniform_cut(cut_dir, img):
    """A cut holding one triple whose three images all equal ``img``."""
    cut_dir.mkdir(parents=True)
    suffix = ".pgm" if img.channels == 1 else ".ppm"
    for role in ("orig", "open", "closed"):
        write_image(img, cut_dir / f"{role}_0{suffix}")


def write_triple(cut_dir, orig_bytes, orig_name="orig_000.pgm"):
    """One triple whose original holds ``orig_bytes``; the reconstructions are valid."""
    cut_dir.mkdir(parents=True)
    (cut_dir / orig_name).write_bytes(orig_bytes)
    write_image(const_image(2), cut_dir / "open_000.pgm")
    write_image(const_image(3), cut_dir / "closed_000.pgm")
    return cut_dir / orig_name


class TestPrivacyCommandErrors:
    @pytest.mark.parametrize("size", ["0 0", "4 0", "0 4"])
    def test_zero_size_image_exits_2(self, tmp_path, capsys, size):
        bad = write_triple(tmp_path / "corpus" / "0_a", f"P5 {size} 255\n".encode())
        assert main(["privacy", str(tmp_path / "corpus")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(bad) in err

    def test_csv_image_exits_2(self, tmp_path, capsys):
        bad = write_triple(tmp_path / "corpus" / "0_a", b"0,128\n255,64\n", "orig_000.csv")
        assert main(["privacy", str(tmp_path / "corpus")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: unsupported image format b'0,'\n"

    def test_truncated_header_names_the_file(self, tmp_path, capsys):
        bad = write_triple(tmp_path / "corpus" / "0_a", b"P5 4")
        assert main(["privacy", str(tmp_path / "corpus")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(bad) in err

    @pytest.mark.parametrize("data, message", [
        (b"P5 8 8 255", "truncated image header"),
        (b"P5 8 x8 255\n" + bytes(64), "bad header token at byte 5"),
        (b"P5 8 8 255x" + bytes(64), "byte 10 after maxval is b'x', not whitespace"),
    ], ids=["no_separator", "bad_token", "byte_after_maxval"])
    def test_bad_header_names_the_file(self, tmp_path, capsys, data, message):
        bad = write_triple(tmp_path / "corpus" / "0_a", data)
        assert main(["privacy", str(tmp_path / "corpus")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize("orig_hw, recon_hw, message", [
        ((4, 4), (4, 4), "images are 4x4, smaller than the 8x8 SSIM window"),
        ((8, 9), (8, 8), "images differ in shape: orig_000.pgm 9x8x1, "
                         "open_000.pgm 8x8x1, closed_000.pgm 8x8x1"),
    ], ids=["under_window", "shapes_differ"])
    def test_bad_triple_names_cut_and_triple(self, tmp_path, capsys, orig_hw, recon_hw,
                                             message):
        cut = tmp_path / "corpus" / "0_a"
        cut.mkdir(parents=True)
        for role, hw in (("orig", orig_hw), ("open", recon_hw), ("closed", recon_hw)):
            write_image(Image(np.full((*hw, 1), 7, np.uint8)), cut / f"{role}_000.pgm")
        assert main(["privacy", str(tmp_path / "corpus")]) == 2
        assert capsys.readouterr().err == f"error: {cut}: triple '000': {message}\n"


def test_perfbench_traces_every_privmetrics_site(tmp_path):
    """perfbench wraps these functions by name and reads ``width``,
    ``height`` and ``channels`` from what ``read_image`` returns."""
    spans = perfbench_spans()
    write_demo_corpus(tmp_path / "corpus", seed=4, triples_per_cut=3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["privacy", str(tmp_path / "corpus")]) == 0
    finally:
        tracer.uninstall()
    assert not [site for site in tracer.missing if site.startswith("splitcvl.privmetrics.")]
    assert tracer.counters["privmetrics.bytes_read"] == 5 * 3 * 3 * 32 * 32 == 46080
    calls = Counter(tracer.names[i] for i in tracer.name_id)
    # each of the 3 originals repeats in the 5 cuts and is scored once
    triples, originals = 5 * 3, 3
    assert {name: n for name, n in calls.items() if name.startswith("privmetrics.")} == {
        "privmetrics.load_corpus_dir": 1,
        "privmetrics.read_image": 3 * triples,
        "privmetrics.histogram_of": 2 * triples + originals,
        "privmetrics.kl_divergence": 2 * triples,
        "privmetrics.ssim": originals,
        "privmetrics.build_conf_table": 1,
    }


class TestImageType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Image(np.zeros((2, 3), np.uint8))  # no channel axis
        with pytest.raises(ValueError):
            Image(np.zeros((2, 2, 2), np.uint8))
        with pytest.raises(ValueError):
            Image(np.zeros((2, 2, 1), np.int64))
        img = Image(np.zeros((2, 3, 1), np.uint8))
        assert (img.width, img.height, img.channels) == (3, 2, 1)

    def test_pixels_read_only(self):
        img = const_image(5)
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 9
