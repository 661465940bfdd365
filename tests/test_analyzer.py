"""Layer profiling tests: max-abs, RMSE against the scalar oracle, walls."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantkit import (
    GroupingScheme,
    LayerMetrics,
    QuantParams,
    SynthConfig,
    WallDetectorConfig,
    dequantize,
    detect_walls,
    generate,
    inject_walls,
    layer_max_abs,
    layer_rmse,
    profile_model,
    quantize_weight,
)
from quantkit.analyzer import (
    REFERENCE_V0_MAX_ABS,
    REFERENCE_WORST_LAYER_MAX_ABS,
    _profile_layer,
    metrics_csv_text,
    read_metrics_csv,
    write_metrics_csv,
)

from oracles import scalar_rmse

P8 = QuantParams(8)
PC = GroupingScheme.per_channel()


@pytest.fixture(scope="module")
def small_model():
    cfg = SynthConfig(blocks=4, dim=32, wall_blocks=(0, 2), wall_columns_per_layer=2, seed=5)
    return generate(cfg)


@pytest.fixture(scope="module")
def csv_metrics():
    cfg = SynthConfig(blocks=2, dim=16, wall_blocks=(0,), wall_columns_per_layer=1, seed=3)
    manifest, tensors = generate(cfg)
    return profile_model(manifest, tensors, P8)


class TestLayerMaxAbs:
    def test_constant_tensor(self):
        # magnitude matches the robust-70B reference value
        w = np.full((8, 8), -0.07, dtype=np.float32)
        assert layer_max_abs(w) == np.float32(0.07)

    def test_wall_injected_value_is_recovered(self):
        rng = np.random.default_rng(1)
        w = rng.normal(0, 0.02, (16, 32)).astype(np.float32)
        w = inject_walls(w, [4], (93.0, 93.0), seed=5)
        assert layer_max_abs(w) == pytest.approx(93.0, rel=1e-6)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(2)
        w = rng.normal(0, 1, (9, 13)).astype(np.float32)
        brute = max(abs(float(w[i, j])) for i in range(9) for j in range(13))
        assert layer_max_abs(w) == brute

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(3)
        w = rng.normal(0, 1, (4, 4)).astype(np.float32)
        assert layer_max_abs(-2.0 * w) == 2.0 * layer_max_abs(w)

    def test_nan_rejected(self):
        w = np.ones((2, 2), dtype=np.float32)
        w[0, 0] = np.nan
        with pytest.raises(ValueError):
            layer_max_abs(w)


class TestLayerRmse:
    def test_exactly_representable_tensor_has_zero_error(self):
        # entries are only 0 and the max, both on the integer grid
        w = np.zeros((4, 8), dtype=np.float32)
        w[:, 0] = 127.0
        assert layer_rmse(w, PC, P8) == 0.0

    def test_outlier_row_frozen_value(self):
        """Oracle-computed value for [0.01 x7, 10.0]: the small entries die
        to zero so RMSE is about sqrt(7/8) * 0.01."""
        row = np.array([[0.01] * 7 + [10.0]], dtype=np.float32)
        assert layer_rmse(row, PC, P8) == pytest.approx(0.009354143257862726, rel=1e-12)

    @pytest.mark.parametrize("g", [8, 16, 64])
    def test_matches_scalar_loop_oracle(self, g):
        rng = np.random.default_rng(4)
        w = rng.normal(0, 1.5, (64, 64)).astype(np.float32)
        got = layer_rmse(w, GroupingScheme.per_group(g), P8)
        assert got == pytest.approx(scalar_rmse(w, g, 8), rel=1e-12)

    def test_per_channel_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(5)
        w = rng.normal(0, 1.5, (64, 64)).astype(np.float32)
        assert layer_rmse(w, PC, P8) == pytest.approx(scalar_rmse(w, 64, 8), rel=1e-12)

    def test_full_width_group_equals_per_channel(self):
        rng = np.random.default_rng(6)
        w = rng.normal(0, 1, (8, 24)).astype(np.float32)
        assert layer_rmse(w, GroupingScheme.per_group(24), P8) == layer_rmse(w, PC, P8)


def public_path_sse(w, grouping, params):
    """Squared-error sum through quantize_weight -> dequantize, in float64."""
    err = w.astype(np.float64) - dequantize(quantize_weight(w, grouping, params))
    return float(np.sum(np.square(err)))


WALL_CONFIGS = [
    WallDetectorConfig(),
    WallDetectorConfig(rms_multiplier=2.0, row_fraction=0.5),
    WallDetectorConfig.absolute(5.0, row_fraction=0.25),
]


class TestFusedProfileCore:
    """The one-pass layer profile equals the public per-scheme path exactly."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 12),
        m=st.sampled_from([1, 6, 8, 12, 24, 30, 32, 48]),
        bits=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        walls=st.integers(0, 3),
        dtype=st.sampled_from([np.float32, np.float64]),
        wall_cfg=st.sampled_from(WALL_CONFIGS),
        data=st.data(),
    )
    def test_matches_public_path_and_scalar_oracle(
        self, n, m, bits, seed, walls, dtype, wall_cfg, data
    ):
        rng = np.random.default_rng(seed)
        w = rng.normal(0, 0.5, (n, m)).astype(dtype)
        columns = rng.choice(m, size=min(walls, m), replace=False)
        if len(columns):
            w = inject_walls(w, columns, (20.0, 100.0), seed=seed)
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        # Random subsets of divisors: nested (8, 16, 32 of 32) and
        # non-nested (6, 8 of 24) sizes, duplicates and per-channel.
        sizes = data.draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=5))
        schemes = [GroupingScheme.per_group(g) for g in sizes] + [PC]
        params = QuantParams(bits)

        max_abs, got_walls, sse = _profile_layer(w, schemes, params, wall_cfg)

        assert repr(max_abs) == repr(layer_max_abs(w))
        assert got_walls == detect_walls(w, wall_cfg)
        assert [repr(x) for x in sse] == [
            repr(public_path_sse(w, scheme, params)) for scheme in schemes
        ]
        for scheme, x in zip(schemes, sse):
            g = scheme.resolved_group_size(m)
            assert np.sqrt(x / w.size) == pytest.approx(scalar_rmse(w, g, bits), rel=1e-12)

    def test_walls_skipped_without_config(self):
        w = np.full((2, 4), 127.0, dtype=np.float32)
        max_abs, walls, sse = _profile_layer(w, [PC], P8)
        assert (max_abs, walls, sse) == (127.0, None, [0.0])

    def test_non_dividing_size_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            _profile_layer(np.ones((2, 6), dtype=np.float32), [GroupingScheme.per_group(4)], P8)

    def test_non_finite_rejected(self):
        w = np.ones((2, 4), dtype=np.float32)
        w[1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            _profile_layer(w, [PC], P8)


class TestDetectWalls:
    def test_clean_gaussian_is_empty_with_defaults(self):
        rng = np.random.default_rng(7)
        w = rng.normal(0, 0.02, (64, 64)).astype(np.float32)
        assert detect_walls(w, WallDetectorConfig()) == []

    def test_amplified_columns_recovered_exactly_with_defaults(self):
        # Walls must stay a small column fraction for the relative
        # threshold to see them above the (wall-inflated) tensor RMS.
        rng = np.random.default_rng(8)
        w = rng.normal(0, 0.02, (64, 4096)).astype(np.float32)
        w[:, [5, 99, 1000, 4000]] *= 1000.0
        assert detect_walls(w, WallDetectorConfig()) == [5, 99, 1000, 4000]

    def test_injected_walls_recovered_with_defaults(self):
        rng = np.random.default_rng(9)
        w = rng.normal(0, 0.02, (64, 4096)).astype(np.float32)
        w = inject_walls(w, [17, 300], (50.0, 100.0), seed=99)
        assert detect_walls(w, WallDetectorConfig()) == [17, 300]

    def test_absolute_threshold_mode(self):
        w = np.zeros((10, 6), dtype=np.float32)
        w[:, 2] = 5.0
        cfg = WallDetectorConfig.absolute(1.0, row_fraction=0.5)
        assert detect_walls(w, cfg) == [2]

    def test_single_point_outlier_is_not_a_wall(self):
        # one huge element cannot reach the row-fraction requirement
        w = np.zeros((100, 8), dtype=np.float32)
        w[3, 4] = 1000.0
        cfg = WallDetectorConfig.absolute(1.0, row_fraction=0.05)
        assert detect_walls(w, cfg) == []

    def test_all_zero_tensor_is_empty(self):
        assert detect_walls(np.zeros((8, 8), dtype=np.float32), WallDetectorConfig()) == []

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(10)
        w = rng.normal(0, 0.02, (32, 256)).astype(np.float32)
        w = inject_walls(w, [7], (50.0, 100.0), seed=1)
        cfg = WallDetectorConfig.absolute(2.0)
        perm = rng.permutation(32)
        assert detect_walls(w[perm], cfg) == detect_walls(w, cfg)

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        w = rng.normal(0, 0.02, (32, 16)).astype(np.float32)
        w = inject_walls(w, [3, 12], (50.0, 100.0), seed=2)
        cfg = WallDetectorConfig.absolute(2.0)
        perm = rng.permutation(16)
        walls_before = detect_walls(w, cfg)
        walls_after = detect_walls(w[:, perm], cfg)
        assert sorted(int(np.nonzero(perm == c)[0][0]) for c in walls_before) == walls_after

    def test_exactly_one_threshold_mode(self):
        with pytest.raises(ValueError):
            WallDetectorConfig(magnitude_threshold=1.0, rms_multiplier=20.0)
        with pytest.raises(ValueError):
            WallDetectorConfig(magnitude_threshold=None, rms_multiplier=None)

    @pytest.mark.parametrize("rho", [0.0, 1.5, -0.1])
    def test_row_fraction_range(self, rho):
        with pytest.raises(ValueError):
            WallDetectorConfig(row_fraction=rho)


class TestProfileModel:
    def test_one_block_model_has_seven_entries(self):
        manifest, tensors = generate(SynthConfig(blocks=1, dim=8, wall_blocks=(), seed=1))
        metrics = profile_model(manifest, tensors, P8)
        assert len(metrics) == 7
        assert [m.layer_index for m in metrics] == list(range(7))

    def test_ordering_matches_layer_index(self, small_model):
        manifest, tensors = small_model
        metrics = profile_model(manifest, tensors, P8)
        assert [m.layer_index for m in metrics] == list(range(28))
        assert [m.name for m in metrics] == [r.name for r in manifest.layer_records()]

    def test_wall_layers_dominate_clean_rmse(self, small_model):
        manifest, tensors = small_model
        metrics = profile_model(manifest, tensors, P8)
        wall = [m.rmse for m in metrics if m.max_abs >= 50]
        clean = [m.rmse for m in metrics if m.max_abs < 50]
        assert len(wall) == 10
        assert min(wall) >= 10 * float(np.median(clean))

    def test_clean_model_stays_below_robust_reference_regime(self):
        cfg = SynthConfig(blocks=2, dim=64, wall_blocks=(), seed=0)
        manifest, tensors = generate(cfg)
        metrics = profile_model(manifest, tensors, P8)
        assert max(m.max_abs for m in metrics) < 1.0  # sub-1.0 like robust checkpoints

    def test_rerun_is_identical(self, small_model):
        manifest, tensors = small_model
        a = profile_model(manifest, tensors, P8)
        b = profile_model(manifest, tensors, P8)
        assert a == b

    def test_threaded_profile_matches_serial(self, small_model, monkeypatch):
        manifest, tensors = small_model
        monkeypatch.setenv("QUANTKIT_THREADS", "1")
        serial = profile_model(manifest, tensors, P8)
        monkeypatch.setenv("QUANTKIT_THREADS", "4")
        threaded = profile_model(manifest, tensors, P8)
        assert serial == threaded

    def test_thread_env_var_caps_workers(self, small_model, monkeypatch):
        manifest, tensors = small_model
        baseline = profile_model(manifest, tensors, P8)
        monkeypatch.setenv("QUANTKIT_THREADS", "3")
        assert profile_model(manifest, tensors, P8) == baseline
        monkeypatch.setenv("QUANTKIT_THREADS", "not-a-number")
        assert profile_model(manifest, tensors, P8) == baseline

    def test_block_and_kind_derived_from_name(self):
        m = LayerMetrics(
            layer_index=12, name="blocks.1.gate", cols=64, bits=8, max_abs=1.0, rmse=0.1,
            wall_count=0,
        )
        assert (m.block, m.kind) == (1, "gate")


class TestCsvAndPlotData:
    def test_csv_header_and_row_count(self, csv_metrics):
        text = metrics_csv_text([replace(m, group_rmse={4: m.rmse}) for m in csv_metrics])
        lines = text.strip().split("\n")
        assert lines[0] == (
            "layer_index,name,block,kind,cols,bits,max_abs,rmse_pc,rmse_g4,wall_count"
        )
        assert len(lines) == 1 + 14

    def test_layers_with_different_group_sizes_rejected(self, csv_metrics):
        mixed = [replace(csv_metrics[0], group_rmse={4: 0.1})] + csv_metrics[1:]
        with pytest.raises(ValueError, match="same group sizes"):
            metrics_csv_text(mixed)

    def test_csv_round_trip_preserves_planning_fields(self, csv_metrics, tmp_path):
        write_metrics_csv(tmp_path / "m.csv", csv_metrics)
        loaded = read_metrics_csv(tmp_path / "m.csv")
        assert [m.name for m in loaded] == [m.name for m in csv_metrics]
        assert [m.max_abs for m in loaded] == [m.max_abs for m in csv_metrics]
        assert [m.rmse for m in loaded] == [m.rmse for m in csv_metrics]

    def test_csv_round_trip_keeps_cols_and_bits(self, csv_metrics, tmp_path):
        four_bit = [replace(m, bits=4) for m in csv_metrics]
        write_metrics_csv(tmp_path / "m.csv", four_bit)
        loaded = read_metrics_csv(tmp_path / "m.csv")
        assert [(m.cols, m.bits) for m in loaded] == [(16, 4)] * len(csv_metrics)

    def test_csv_round_trip_is_lossless(self, csv_metrics, tmp_path):
        walled = [replace(m, wall_count=i % 5) for i, m in enumerate(csv_metrics)]
        write_metrics_csv(tmp_path / "m.csv", walled)
        assert read_metrics_csv(tmp_path / "m.csv") == walled

    def test_csv_without_cols_and_bits_rejected(self, csv_metrics, tmp_path):
        lines = metrics_csv_text(csv_metrics).splitlines()
        old = [",".join(line.split(",")[:4] + line.split(",")[6:]) for line in lines]
        (tmp_path / "old.csv").write_text("\n".join(old) + "\n")
        with pytest.raises(ValueError, match="malformed metrics row.*'cols'"):
            read_metrics_csv(tmp_path / "old.csv")

    def test_plot_data_shape(self, csv_metrics, tmp_path):
        from quantkit.analyzer import plot_data_json_text
        import json

        obj = json.loads(plot_data_json_text(csv_metrics))
        assert obj["x"] == [m.layer_index for m in csv_metrics]
        assert len(obj["rmse"]) == len(obj["max_abs"]) == len(obj["x"])

    def test_reference_constants_are_split_by_regime(self):
        assert all(v > 90 for k, v in REFERENCE_V0_MAX_ABS.items() if "70b" in k and "llama3" in k and "405" not in k)
        assert all(v < 1.0 for v in REFERENCE_WORST_LAYER_MAX_ABS.values())
