"""Data pipeline: netpbm files, loaders, the synthetic generator, and
bilinear resizing."""

import numpy as np
import pytest

from chroma.config import ConfigError, RunConfig
from chroma.data import (
    BACKGROUND_MARGIN,
    BACKGROUND_PALETTE,
    EvalSample,
    generator_plan,
    load_eval_dataset,
    load_weak_dataset,
    per_class_counts,
    resize_bilinear,
    synth_generate,
    write_dataset,
)
from chroma.netpbm import read_pgm, read_ppm, write_pgm, write_ppm
from chroma.vocab import VOCABULARY_PRESETS, ColorVocabulary, get_vocabulary


def _nearest(vocab: ColorVocabulary, rgb: np.ndarray) -> int:
    """Index of the anchor nearest to an RGB value in [0, 1]."""
    d = ((vocab.anchor_floats() - np.asarray(rgb)) ** 2).sum(axis=1)
    return int(np.argmin(d))


class TestNetpbm:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        back = read_ppm(path)
        assert np.array_equal(np.rint(back * 255).astype(np.uint8), image)

    def test_ppm_float_quantized_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        image = np.rint(rng.uniform(size=(4, 4, 3)) * 255) / 255.0
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        assert np.array_equal(read_ppm(path), image)

    def test_pgm_round_trip(self, tmp_path):
        gray = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "m.pgm"
        write_pgm(path, gray)
        assert np.array_equal(read_pgm(path), gray)

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n# another\n255\n" + bytes(6))
        assert read_ppm(path).shape == (1, 2, 3)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(ValueError, match="P6"):
            read_ppm(path)

    def test_truncated_data_rejected(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(ValueError, match="truncated"):
            read_ppm(path)

    @pytest.mark.parametrize("reader, magic", [(read_ppm, b"P6"),
                                               (read_pgm, b"P5")])
    def test_size_beyond_the_file_rejected_before_reading(self, tmp_path,
                                                          reader, magic):
        path = tmp_path / "huge"
        path.write_bytes(magic + b"\n99999999999999999999 1\n255\n" + bytes(6))
        with pytest.raises(ValueError, match="truncated"):
            reader(path)


class TestVocabularies:
    def test_presets_have_expected_class_counts(self):
        assert len(VOCABULARY_PRESETS["basic11"]) == 11
        assert len(VOCABULARY_PRESETS["eye"]) == 5
        assert len(VOCABULARY_PRESETS["lip"]) == 7
        assert len(VOCABULARY_PRESETS["horse"]) == 9
        assert len(VOCABULARY_PRESETS["tomato"]) == 6
        assert len(VOCABULARY_PRESETS["synthetic6"]) == 6

    def test_preset_anchors_are_separable_at_default_jitter(self):
        # nearest-anchor decoding must stay unambiguous: distance > 6 sigma
        for name, vocab in VOCABULARY_PRESETS.items():
            assert vocab.min_anchor_distance() > 6 * 0.02, name

    def test_explicit_list(self):
        vocab = get_vocabulary("red, green, blue")
        assert vocab.names == ("red", "green", "blue")
        assert vocab.index("green") == 1

    def test_unknown_name_raises(self):
        vocab = get_vocabulary("red,blue")
        with pytest.raises(KeyError):
            vocab.index("mauve")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            get_vocabulary("red,red")


class TestLoaders:
    def test_empty_root_gives_empty_splits(self, tmp_path):
        vocab = get_vocabulary("red,blue")
        splits = load_weak_dataset(tmp_path, vocab)
        assert splits == {"train": [], "val": [], "test": []}

    def test_two_classes_ordered_by_vocabulary(self, tmp_path):
        vocab = get_vocabulary("red,blue")  # note: index order != alphabetical
        for name, value in (("blue", (0, 0, 255)), ("red", (255, 0, 0))):
            d = tmp_path / "train" / name
            d.mkdir(parents=True)
            write_ppm(d / "000.ppm", np.full((4, 4, 3), value, dtype=np.uint8))
        splits = load_weak_dataset(tmp_path, vocab)
        assert len(splits["train"]) == 2
        # lexicographic by color name: blue first, but label follows vocabulary
        assert splits["train"][0].label == vocab.index("blue") == 1
        assert splits["train"][1].label == vocab.index("red") == 0

    def test_fixture_tree_counts(self, tmp_path):
        vocab = VOCABULARY_PRESETS["basic11"]
        for name in vocab.names:
            d = tmp_path / "train" / name
            d.mkdir(parents=True)
            for i in range(4):
                write_ppm(d / f"{i:02d}.ppm", np.zeros((3, 3, 3), dtype=np.uint8))
        splits = load_weak_dataset(tmp_path, vocab)
        assert len(splits["train"]) == 44
        counts = per_class_counts(splits["train"], vocab)
        assert all(c == 4 for c in counts.values())

    def test_unknown_class_folder_rejected(self, tmp_path):
        (tmp_path / "train" / "mauve").mkdir(parents=True)
        with pytest.raises(ConfigError, match="mauve"):
            load_weak_dataset(tmp_path, get_vocabulary("red,blue"))

    def test_unreadable_image_names_file(self, tmp_path):
        d = tmp_path / "train" / "red"
        d.mkdir(parents=True)
        (d / "bad.ppm").write_bytes(b"not a ppm")
        with pytest.raises(ValueError, match="bad.ppm"):
            load_weak_dataset(tmp_path, get_vocabulary("red,blue"))

    def test_eval_loader_full_mask(self, tmp_path):
        d = tmp_path / "test" / "red"
        d.mkdir(parents=True)
        write_ppm(d / "a.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        write_pgm(d / "a.mask.pgm", np.full((4, 4), 255, dtype=np.uint8))
        samples = load_eval_dataset(tmp_path, get_vocabulary("red,blue"))
        assert len(samples) == 1
        assert samples[0].mask.all()

    def test_eval_loader_rejects_missing_mask(self, tmp_path):
        d = tmp_path / "test" / "red"
        d.mkdir(parents=True)
        write_ppm(d / "a.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        with pytest.raises(FileNotFoundError, match="mask"):
            load_eval_dataset(tmp_path, get_vocabulary("red,blue"))

    def test_eval_loader_rejects_empty_mask(self, tmp_path):
        d = tmp_path / "test" / "red"
        d.mkdir(parents=True)
        write_ppm(d / "a.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        write_pgm(d / "a.mask.pgm", np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="empty"):
            load_eval_dataset(tmp_path, get_vocabulary("red,blue"))


class TestSynthGenerate:
    def test_same_seed_is_bit_identical(self):
        cfg = RunConfig(seed=5, n_per_class=2)
        weak_a, test_a = synth_generate(cfg)
        weak_b, test_b = synth_generate(cfg)
        for split in ("train", "val"):
            for sa, sb in zip(weak_a[split], weak_b[split]):
                assert sa.image.tobytes() == sb.image.tobytes()
        for sa, sb in zip(test_a, test_b):
            assert sa.image.tobytes() == sb.image.tobytes()
            assert np.array_equal(sa.mask, sb.mask)

    def test_zero_jitter_paints_exact_anchor(self):
        cfg = RunConfig(seed=6, jitter_sigma=0.0, n_per_class=1)
        _, test = synth_generate(cfg)
        anchors = cfg.vocab().anchor_floats()
        for s in test:
            obj = s.image[s.mask.astype(bool)]
            assert np.array_equal(obj, np.broadcast_to(anchors[s.label], obj.shape))

    def test_mean_object_color_decodes_to_label(self):
        cfg = RunConfig(seed=7, n_per_class=4)
        _, test = synth_generate(cfg)
        for s in test:
            mean_color = s.image[s.mask.astype(bool)].mean(axis=0)
            assert _nearest(cfg.vocab(), mean_color) == s.label

    def test_split_sizes_follow_40_10_20_pattern(self):
        weak, test = synth_generate(RunConfig(seed=8, n_per_class=40))
        c = len(RunConfig().vocab())
        assert len(weak["train"]) == 40 * c
        assert len(weak["val"]) == 10 * c
        assert len(test) == 20 * c

    @pytest.mark.parametrize("key", ["clutter_patches", "distractors"])
    def test_negative_object_count_is_rejected(self, key):
        with pytest.raises(ConfigError, match="must be non-negative"):
            RunConfig(**{key: -1}).validate()

    def test_jitter_invariant_is_enforced(self):
        with pytest.raises(ConfigError, match="jitter"):
            synth_generate(RunConfig(jitter_sigma=0.2, n_per_class=1))

    def test_background_margin_is_enforced(self, monkeypatch):
        # the gray anchor lies 0.11 from the (112, 112, 112) background,
        # so the palette replaces that color, keeping the margin
        _, anchors, palette = generator_plan(RunConfig(vocabulary="gray,red"))
        dists = np.sqrt(((palette[:, None] - anchors[None]) ** 2).sum(axis=2))
        assert dists.min() >= BACKGROUND_MARGIN
        # six grays 0.35 apart leave no muted color at the margin
        grays = ColorVocabulary(tuple(f"g{i}" for i in range(6)),
                                tuple((v, v, v) for v in range(0, 256, 51)))
        monkeypatch.setitem(VOCABULARY_PRESETS, "grays", grays)
        with pytest.raises(ConfigError, match="background"):
            synth_generate(RunConfig(vocabulary="grays", n_per_class=1))

    @pytest.mark.parametrize("name", sorted(VOCABULARY_PRESETS))
    def test_every_preset_synthesizes_with_its_palette_at_the_margin(
            self, name):
        cfg = RunConfig(vocabulary=name, image_size=16, n_per_class=1, seed=3)
        _, anchors, palette = generator_plan(cfg)
        assert len(np.unique(palette, axis=0)) == len(BACKGROUND_PALETTE)
        dists = np.sqrt(((palette[:, None] - anchors[None]) ** 2).sum(axis=2))
        assert dists.min() >= BACKGROUND_MARGIN
        if name == "synthetic6":
            assert np.array_equal(np.rint(palette * 255), BACKGROUND_PALETTE)
        _, test = synth_generate(cfg)
        assert len(test) == len(VOCABULARY_PRESETS[name])
        for s in test:
            background = s.image[~s.mask.astype(bool)][:, None]
            assert (background == palette).all(axis=2).any(axis=1).all()

    def test_distractors_use_other_class_colors(self):
        cfg = RunConfig(seed=9, jitter_sigma=0.0, distractors=2, n_per_class=2)
        _, test = synth_generate(cfg)
        anchors = cfg.vocab().anchor_floats()
        found_distractor_pixels = 0
        for s in test:
            outside = s.image[~s.mask.astype(bool)]
            for other in range(len(anchors)):
                if other == s.label:
                    continue
                found_distractor_pixels += (
                    (outside == anchors[other]).all(axis=1).sum())
        assert found_distractor_pixels > 0

    def test_export_round_trips_bit_exactly(self, tmp_path):
        cfg = RunConfig(seed=10, n_per_class=2)
        weak, test = synth_generate(cfg)
        write_dataset(tmp_path, weak, test, cfg)
        assert (tmp_path / "manifest.txt").exists()
        loaded = load_weak_dataset(tmp_path, cfg.vocab())
        for split in ("train", "val"):
            assert len(loaded[split]) == len(weak[split])
            for got, want in zip(loaded[split], weak[split]):
                assert got.id == want.id and got.label == want.label
                assert got.image.tobytes() == want.image.tobytes()
        loaded_test = load_eval_dataset(tmp_path, cfg.vocab())
        for got, want in zip(loaded_test, test):
            assert got.image.tobytes() == want.image.tobytes()
            assert np.array_equal(got.mask, want.mask)

    def test_export_twice_identical_bytes(self, tmp_path):
        cfg = RunConfig(seed=11, n_per_class=1)
        for sub in ("a", "b"):
            weak, test = synth_generate(cfg)
            write_dataset(tmp_path / sub, weak, test, cfg)
        files_a = sorted((tmp_path / "a").rglob("*.*"))
        files_b = sorted((tmp_path / "b").rglob("*.*"))
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()


class TestResizeBilinear:
    def test_same_size_is_bit_identical(self):
        rng = np.random.default_rng(12)
        image = rng.uniform(size=(6, 7, 3))
        out = resize_bilinear(image, 6, 7)
        assert out.tobytes() == image.tobytes()

    def test_constant_image_stays_constant(self):
        image = np.full((5, 5, 3), 0.3)
        for h, w in ((3, 3), (9, 11), (1, 1)):
            out = resize_bilinear(image, h, w)
            assert np.abs(out - 0.3).max() < 1e-12

    def test_checkerboard_matches_hand_computed_values(self):
        # 2x2 checkerboard to 3x3 with half-pixel mapping: the sample
        # points per axis fall at source coordinates 0, 0.5 and 1.
        src = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = resize_bilinear(src, 3, 3)
        want = np.array([[1.0, 0.5, 0.0],
                         [0.5, 0.5, 0.5],
                         [0.0, 0.5, 1.0]])
        assert np.abs(out - want).max() < 1e-12

    def test_grayscale_and_color_shapes(self):
        rng = np.random.default_rng(13)
        assert resize_bilinear(rng.uniform(size=(4, 4)), 8, 6).shape == (8, 6)
        assert resize_bilinear(rng.uniform(size=(4, 4, 3)), 2, 3).shape == (2, 3, 3)
