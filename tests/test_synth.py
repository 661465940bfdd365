"""Synthetic model generator: determinism, wall placement, separation."""

import re

import numpy as np
import pytest

from quantkit import (
    KIND_ORDER,
    SynthConfig,
    WallDetectorConfig,
    detect_walls,
    generate,
    inject_walls,
    layer_max_abs,
    parse_layer_name,
    write_model,
)


class TestConfigValidation:
    def test_defaults_are_the_paperback_phenomenology(self):
        cfg = SynthConfig()
        assert cfg.blocks == 80
        assert cfg.wall_blocks == (0, 1, 3)
        assert set(cfg.wall_kinds) == {"q", "k", "v", "up", "gate"}
        assert cfg.wall_magnitude == (50.0, 100.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"wall_blocks": (5,), "blocks": 4},
            {"wall_kinds": ("o",)},
            {"wall_kinds": ("down",)},
            {"wall_magnitude": (100.0, 50.0)},
            {"wall_magnitude": (0.0, 50.0)},
            {"wall_columns_per_layer": 64, "dim": 64},
            {"kv_dim_divisor": 3, "dim": 64},
            {"base_std": 0.0},
            {"base_std": float("nan")},
            {"base_std": 1e300},
            {"wall_magnitude": (50.0, 1e300)},
            {"wall_magnitude": (50.0, float("inf"))},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("blocks", "2"),
            ("blocks", 2.0),
            ("dim", True),
            ("base_std", "0.02"),
            ("wall_blocks", 0),
            ("wall_blocks", ["0"]),
            ("wall_kinds", "q"),
            ("wall_magnitude", [50.0, "100"]),
            ("shared_wall_columns", 1),
            ("kv_dim_divisor", None),
            ("seed", 1.5),
        ],
    )
    def test_wrongly_typed_setting_rejected_by_name(self, key, value):
        with pytest.raises(ValueError, match=f"synth setting '{key}' must be"):
            SynthConfig(**{key: value})

    def test_json_style_values_accepted(self):
        cfg = SynthConfig(
            blocks=2, dim=16, base_std=1, wall_blocks=[0, np.int64(1)],
            wall_magnitude=[50, 100.5], shared_wall_columns=False,
        )
        assert cfg.wall_blocks == (0, 1)
        assert cfg.wall_magnitude == (50.0, 100.5)


@pytest.fixture(scope="module")
def default_small():
    cfg = SynthConfig(blocks=8, dim=32, seed=0)
    return cfg, generate(cfg)


class TestGenerate:
    def test_default_config_produces_560_tensors_and_15_wall_layers(self):
        cfg = SynthConfig(blocks=80, dim=64, seed=0)
        manifest, tensors = generate(cfg)
        assert len(manifest.records) == 560
        walls = [name for name, w in tensors.items() if float(np.abs(w).max()) >= 50.0]
        assert len(walls) == 15
        blocks = {parse_layer_name(n)[0] for n in walls}
        kinds = {parse_layer_name(n)[1] for n in walls}
        assert blocks == {0, 1, 3}
        assert kinds == {"q", "k", "v", "up", "gate"}

    def test_o_and_down_never_get_walls(self, default_small):
        _, (manifest, tensors) = default_small
        for name, w in tensors.items():
            if parse_layer_name(name)[1] in ("o", "down"):
                assert float(np.abs(w).max()) < 1.0

    def test_clean_model_max_abs_below_one(self):
        manifest, tensors = generate(SynthConfig(blocks=8, dim=64, wall_blocks=(), seed=0))
        assert max(float(np.abs(w).max()) for w in tensors.values()) < 1.0

    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        cfg = SynthConfig(blocks=3, dim=16, seed=11, wall_blocks=(0, 1))
        write_model(*generate(cfg), tmp_path / "a")
        write_model(*generate(cfg), tmp_path / "b")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.manifest.json").read_bytes() == (
            tmp_path / "b.manifest.json"
        ).read_bytes()

    def test_different_seeds_differ(self):
        a = generate(SynthConfig(blocks=1, dim=8, seed=1, wall_blocks=()))[1]
        b = generate(SynthConfig(blocks=1, dim=8, seed=2, wall_blocks=()))[1]
        assert not np.array_equal(a["blocks.0.q"], b["blocks.0.q"])

    def test_wall_and_base_magnitudes_separate(self, default_small):
        cfg, (manifest, tensors) = default_small
        lo = cfg.wall_magnitude[0]
        base_max = 0.0
        wall_min = np.inf
        for name, w in tensors.items():
            block, kind = parse_layer_name(name)
            is_wall = block in cfg.wall_blocks and kind in cfg.wall_kinds
            mags = np.abs(w)
            if is_wall:
                wall_cols = np.nonzero(mags.max(axis=0) >= lo)[0]
                assert len(wall_cols) == cfg.wall_columns_per_layer
                wall_min = min(wall_min, float(mags[:, wall_cols].min()))
                clean = np.delete(mags, wall_cols, axis=1)
                base_max = max(base_max, float(clean.max()))
            else:
                base_max = max(base_max, float(mags.max()))
        assert wall_min >= lo > base_max

    def test_shared_wall_columns_coincide_within_block(self):
        cfg = SynthConfig(blocks=2, dim=32, wall_blocks=(0,), seed=6, shared_wall_columns=True)
        _, tensors = generate(cfg)
        detector = WallDetectorConfig.absolute(10.0)
        cols = {k: detect_walls(tensors[f"blocks.0.{k}"], detector) for k in cfg.wall_kinds}
        assert len({tuple(v) for v in cols.values()}) == 1

    def test_per_layer_wall_columns_differ(self):
        cfg = SynthConfig(
            blocks=2, dim=64, wall_blocks=(0,), seed=6, shared_wall_columns=False,
            wall_columns_per_layer=4,
        )
        _, tensors = generate(cfg)
        detector = WallDetectorConfig.absolute(10.0)
        cols = {k: tuple(detect_walls(tensors[f"blocks.0.{k}"], detector)) for k in cfg.wall_kinds}
        assert len(set(cols.values())) > 1

    def test_content_independent_of_generation_order(self):
        # a tensor's stream is keyed by its name, so a one-block model and a
        # larger model agree on the shared block
        small = generate(SynthConfig(blocks=1, dim=16, wall_blocks=(0,), seed=3))[1]
        large = generate(SynthConfig(blocks=4, dim=16, wall_blocks=(0,), seed=3))[1]
        for kind in KIND_ORDER:
            assert np.array_equal(small[f"blocks.0.{kind}"], large[f"blocks.0.{kind}"])

    def test_gqa_shapes_when_divisor_set(self):
        cfg = SynthConfig(blocks=1, dim=16, kv_dim_divisor=4, wall_blocks=(), seed=0)
        manifest, tensors = generate(cfg)
        assert tensors["blocks.0.k"].shape == (4, 16)
        assert tensors["blocks.0.v"].shape == (4, 16)
        assert tensors["blocks.0.q"].shape == (16, 16)


class TestThreadCountIndependence:
    @pytest.mark.parametrize(
        "cfg",
        [
            SynthConfig(blocks=3, dim=32, wall_blocks=(0, 2), seed=12),
            SynthConfig(blocks=2, dim=32, wall_blocks=(1,), kv_dim_divisor=2, seed=13),
            SynthConfig(blocks=2, dim=32, wall_blocks=(0, 1), shared_wall_columns=False,
                        seed=14),
        ],
        ids=["walls", "kv_dim_divisor_2", "per_layer_wall_columns"],
    )
    def test_manifest_and_bytes_equal_at_1_2_and_3_threads(self, cfg, monkeypatch):
        models = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("QUANTKIT_THREADS", threads)
            models.append(generate(cfg))
        manifest, tensors = models[0]
        assert list(tensors) == [rec.name for rec in manifest.records]
        for other_manifest, other in models[1:]:
            assert other_manifest == manifest
            assert list(other) == list(tensors)
            for name, w in tensors.items():
                assert other[name].dtype == w.dtype and other[name].shape == w.shape, name
                assert other[name].tobytes() == w.tobytes(), name


class TestInjectWalls:
    def test_empty_column_list_is_identity(self):
        rng = np.random.default_rng(1)
        w = rng.normal(0, 1, (4, 6)).astype(np.float32)
        out = inject_walls(w, [], (50.0, 100.0), seed=0)
        assert np.array_equal(out, w)
        assert out is not w

    def test_untouched_entries_preserved(self):
        rng = np.random.default_rng(2)
        w = rng.normal(0, 1, (8, 8)).astype(np.float32)
        out = inject_walls(w, [2, 5], (50.0, 100.0), seed=1)
        mask = np.ones(8, dtype=bool)
        mask[[2, 5]] = False
        assert np.array_equal(out[:, mask], w[:, mask])

    def test_injected_magnitudes_in_range(self):
        w = np.zeros((16, 8), dtype=np.float32)
        out = inject_walls(w, [0, 7], (50.0, 100.0), seed=2)
        mags = np.abs(out[:, [0, 7]])
        assert mags.min() >= 50.0 and mags.max() <= 100.0
        assert layer_max_abs(out) <= 100.0

    def test_round_trip_through_detector(self):
        rng = np.random.default_rng(3)
        w = rng.normal(0, 0.02, (64, 4096)).astype(np.float32)
        out = inject_walls(w, [12, 700, 4095], (50.0, 100.0), seed=4)
        assert detect_walls(out, WallDetectorConfig()) == [12, 700, 4095]

    def test_out_of_range_column_rejected(self):
        w = np.zeros((2, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="out of range"):
            inject_walls(w, [4], (50.0, 100.0), seed=0)

    def test_duplicate_columns_rejected(self):
        w = np.zeros((2, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="distinct"):
            inject_walls(w, [1, 1], (50.0, 100.0), seed=0)

    def test_seed_controls_values(self):
        w = np.zeros((4, 4), dtype=np.float32)
        a = inject_walls(w, [1], (50.0, 100.0), seed=5)
        b = inject_walls(w, [1], (50.0, 100.0), seed=5)
        c = inject_walls(w, [1], (50.0, 100.0), seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize(
        "magnitude", [(1e39, 1e40), (1.0, np.inf)], ids=["past_float32_max", "infinite"])
    def test_range_past_the_dtype_max_rejected(self, magnitude):
        w = np.zeros((4, 4), dtype=np.float32)
        with pytest.raises(ValueError, match=r"lo <= hi <= float32 max .*got "
                                             + re.escape(f"{magnitude[0]}, {magnitude[1]}")):
            inject_walls(w, [1], magnitude, seed=0)

    def test_range_up_to_the_dtype_max_stays_finite(self):
        top = float(np.finfo(np.float32).max)
        out = inject_walls(np.zeros((64, 4), dtype=np.float32), [0, 3], (top / 2, top), seed=7)
        assert np.isfinite(out).all()
        assert np.abs(out[:, [0, 3]]).min() >= np.float32(top / 2)

    def test_float64_matrix_takes_a_range_past_float32_max(self):
        out = inject_walls(np.zeros((4, 4)), [2], (1e39, 1e40), seed=0)
        assert np.isfinite(out).all() and np.abs(out[:, 2]).min() >= 1e39

    def test_integer_matrix_rejected(self):
        with pytest.raises(ValueError, match="floating-point"):
            inject_walls(np.zeros((2, 4), dtype=np.int32), [1], (50.0, 100.0), seed=0)
