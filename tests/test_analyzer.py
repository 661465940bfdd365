"""Layer profiling tests: max-abs, RMSE against the scalar oracle, walls."""

import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantkit import (
    KIND_ORDER,
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
    quantize_activation,
    quantize_weight,
)
from quantkit import quantizer
from quantkit.analyzer import (
    REFERENCE_V0_MAX_ABS,
    REFERENCE_WORST_LAYER_MAX_ABS,
    _profile_layer,
    metrics_csv_text,
    read_metrics_csv,
    write_metrics_csv,
)
from quantkit.quantizer import _pairwise

from edge_values import KINDS, edge_weight
from oracles import scalar_rmse, whole_layer_profile

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

    @pytest.mark.parametrize("w", [np.array([[-128, 5]], np.int8),
                                   np.array([[-32768, 1]], np.int16)], ids=["int8", "int16"])
    def test_integer_minimum_rejected_like_every_pass(self, w):
        # np.abs wraps the minimum to itself, which left it out of the maximum
        # (5.0 and 1.0); every pass rejects it with the same text.
        passes = [layer_max_abs, lambda w: quantize_weight(w, PC, P8),
                  lambda w: layer_rmse(w, PC, P8), lambda w: detect_walls(w, WallDetectorConfig()),
                  lambda w: quantize_activation(w, P8)]
        text = (f"input holds {np.iinfo(w.dtype).min}, the minimum of {w.dtype}, "
                f"which has no {w.dtype} magnitude")
        for run in passes:
            with pytest.raises(ValueError, match=text):
                run(w)


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


# Small block budgets put many leaves in a test-sized layer, leaves that
# split rows and leaves inside one row; None keeps the library's budget.
BUDGETS = [None, 128, 256, 1000]


def block_budget(budget):
    """The library's block budget patched to ``budget`` (None: unchanged)."""
    return mock.patch.object(quantizer, "_BLOCK", budget or quantizer._BLOCK)


class TestFusedProfileCore:
    """The blocked layer profile equals the whole-layer oracle and the public
    per-scheme path exactly, at every block budget."""

    @staticmethod
    def draw_layer(n, m, seed, walls, tiny_rows, dtype):
        rng = np.random.default_rng(seed)
        w = rng.normal(0, 0.5, (n, m)).astype(dtype)
        columns = rng.choice(m, size=min(walls, m), replace=False)
        if len(columns):
            w = inject_walls(w, columns, (20.0, 100.0), seed=seed)
        # Rows of subnormal float32 magnitude (127 to 4000 units of 2^-149):
        # their float32 scales keep so few bits that x / s can pass
        # qmax + 0.5, and only the clamp keeps the codes in range.
        for i in rng.choice(n, size=min(tiny_rows, n), replace=False):
            units = rng.integers(127, 4000, m) * rng.choice([-1.0, 1.0], m)
            w[i] = (units * 2.0**-149).astype(dtype)
        return w

    @staticmethod
    def draw_schemes(m, data):
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        # Random subsets of divisors: nested (8, 16, 32 of 32) and
        # non-nested (6, 8 of 24) sizes, duplicates and per-channel.
        sizes = data.draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=5))
        return [GroupingScheme.per_group(g) for g in sizes] + [PC]

    @staticmethod
    def check_against_oracles(w, schemes, params, wall_cfg, budget):
        with block_budget(budget):
            got = _profile_layer(w, schemes, params, wall_cfg)
            max_abs, walls, sse = got
            assert repr(got) == repr(whole_layer_profile(w, schemes, params, wall_cfg))
            assert repr(max_abs) == repr(layer_max_abs(w))
            assert walls == detect_walls(w, wall_cfg)
            assert [repr(x) for x in sse] == [
                repr(public_path_sse(w, scheme, params)) for scheme in schemes
            ]
        return sse

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 12),
        m=st.sampled_from([1, 6, 8, 12, 24, 30, 32, 48]),
        bits=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        walls=st.integers(0, 3),
        tiny_rows=st.integers(0, 2),
        dtype=st.sampled_from([np.float32, np.float64]),
        wall_cfg=st.sampled_from(WALL_CONFIGS),
        budget=st.sampled_from(BUDGETS),
        data=st.data(),
    )
    def test_matches_public_path_and_scalar_oracle(
        self, n, m, bits, seed, walls, tiny_rows, dtype, wall_cfg, budget, data
    ):
        w = self.draw_layer(n, m, seed, walls, tiny_rows, dtype)
        schemes = self.draw_schemes(m, data)
        params = QuantParams(bits)
        sse = self.check_against_oracles(w, schemes, params, wall_cfg, budget)
        for scheme, x in zip(schemes, sse):
            g = scheme.resolved_group_size(m)
            assert np.sqrt(x / w.size) == pytest.approx(scalar_rmse(w, g, bits), rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 24),
        m=st.sampled_from([1, 4, 12, 64, 130]),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
        bits=st.integers(2, 8),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
        wall_cfg=st.sampled_from(WALL_CONFIGS),
        budget=st.sampled_from(BUDGETS),
        data=st.data(),
    )
    def test_sign_and_rounding_edges_match_the_oracles(self, n, m, kinds, bits, dtype, seed,
                                                       wall_cfg, budget, data):
        """Exact ties, +0.0 and -0.0, an entry at -qmax * s and subnormal
        groups: the sign-free profile's max_abs, walls and every SSE equal
        the signed whole-layer oracle's and the public path's to the bit."""
        params = QuantParams(bits)
        g = data.draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
        w = edge_weight(np.random.default_rng(seed), kinds, n, m, g, params.qmax, dtype)
        schemes = [GroupingScheme.per_group(g)] + self.draw_schemes(m, data)
        self.check_against_oracles(w, schemes, params, wall_cfg, budget)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        m=st.sampled_from([130, 240, 1040]),
        bits=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        walls=st.integers(0, 3),
        tiny_rows=st.integers(0, 2),
        dtype=st.sampled_from([np.float32, np.float64]),
        wall_cfg=st.sampled_from(WALL_CONFIGS),
        budget=st.sampled_from(BUDGETS[1:]),
        data=st.data(),
    )
    def test_many_leaves_and_rows_wider_than_a_block(
        self, n, m, bits, seed, walls, tiny_rows, dtype, wall_cfg, budget, data
    ):
        # Up to 40 x 1040 elements: hundreds of leaves at a budget of 128,
        # leaves that split rows, and rows wider than every patched budget.
        w = self.draw_layer(n, m, seed, walls, tiny_rows, dtype)
        self.check_against_oracles(w, self.draw_schemes(m, data), QuantParams(bits), wall_cfg,
                                   budget)

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_signed_zero_layers(self, budget, zero):
        w = np.full((24, 130), zero, dtype=np.float32)
        schemes = [PC, GroupingScheme.per_group(13)]
        for cfg in (None, *WALL_CONFIGS):
            with block_budget(budget):
                got = _profile_layer(w, schemes, P8, cfg)
            assert repr(got) == repr(whole_layer_profile(w, schemes, P8, cfg))
        with block_budget(budget):
            assert repr(layer_max_abs(w)) == "0.0"
            assert detect_walls(w, WallDetectorConfig()) == []

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_non_finite_in_last_block_rejected(self, budget):
        w = np.ones((40, 130), dtype=np.float32)
        w[-1, -1] = np.nan
        with block_budget(budget):
            with pytest.raises(ValueError, match="weight contains NaN or Inf"):
                _profile_layer(w, [PC], P8)
            with pytest.raises(ValueError, match="weight contains NaN or Inf"):
                layer_max_abs(w)
            with pytest.raises(ValueError, match="weight contains NaN or Inf"):
                detect_walls(w, WallDetectorConfig())

    def test_memory_layout_does_not_change_the_profile(self):
        rng = np.random.default_rng(12)
        w = rng.normal(0, 0.02, (40, 96)).astype(np.float32)
        w = inject_walls(w, [5], (50.0, 90.0), seed=1)
        schemes = [PC, GroupingScheme.per_group(8)]
        with block_budget(256):
            assert _profile_layer(np.asfortranarray(w), schemes, P8, WallDetectorConfig()) == \
                _profile_layer(w, schemes, P8, WallDetectorConfig())

    def test_peak_memory_below_half_the_layer(self):
        """A 1024 x 1024 profile holds one block's buffers, not the layer's."""
        w = np.random.default_rng(13).normal(0, 0.02, (1024, 1024)).astype(np.float32)
        tracemalloc.start()
        try:
            _profile_layer(w, [PC, GroupingScheme.per_group(128)], P8, WallDetectorConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < w.nbytes // 2

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


class TestPairwise:
    """_pairwise's split is np.add.reduce's: np.sum leaves add up to np.sum."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 300_000),
        budget=st.one_of(st.sampled_from([128, 1 << 16]), st.integers(128, 100_000)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_leaf_sums_equal_numpy_sum(self, n, budget, seed):
        rng = np.random.default_rng(seed)
        # Magnitudes over 16 decades, so that a different order of
        # additions gives a different float64 sum.
        x = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)
        with block_budget(budget):
            got = _pairwise(0, n, lambda lo, hi: np.sum(x[lo:hi]))
        assert np.float64(got).tobytes() == np.sum(x).tobytes()


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

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        m=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        relative=st.booleans(),
        ulps=st.sampled_from([-1, -0.25, 0, 0.25, 1]),
        row_fraction=st.sampled_from([0.01, 0.5, 1.0]),
    )
    def test_threshold_at_the_layer_max_matches_the_oracle(self, n, m, seed, relative, ulps,
                                                           row_fraction):
        # The threshold sits at max |w| or up to one float32 ulp either side;
        # a quarter ulp is a float64 threshold that rounds to the max in
        # float32, where the count compares.  The walls must be the
        # oracle's whether or not the wall pass is skipped.
        rng = np.random.default_rng(seed)
        w = rng.normal(0, 1, (n, m)).astype(np.float32)
        w[:, rng.integers(m)] *= 50.0
        top = np.abs(w).max()
        step = float(np.spacing(top))
        target = (float(np.nextafter(top, np.float32(0 if ulps < 0 else np.inf)))
                  if abs(ulps) == 1 else float(top) + ulps * step)
        if relative:
            rms = float(np.sqrt(np.mean(np.square(w.astype(np.float64)))))
            cfg = WallDetectorConfig(rms_multiplier=target / rms, row_fraction=row_fraction)
        else:
            cfg = WallDetectorConfig.absolute(target, row_fraction=row_fraction)
        walls = detect_walls(w, cfg)
        assert walls == whole_layer_profile(w, (), P8, cfg)[1]
        if ulps > -1:
            assert walls == []
        elif row_fraction * n <= 1:  # one element above the threshold is a wall
            assert walls

    @pytest.mark.parametrize("rho", [0.0, 1.5, -0.1])
    def test_row_fraction_range(self, rho):
        with pytest.raises(ValueError):
            WallDetectorConfig(row_fraction=rho)

    @pytest.mark.parametrize(
        "build,match",
        [
            pytest.param(lambda: WallDetectorConfig(rms_multiplier=0.0),
                         "threshold must be positive", id="zero_multiplier"),
            pytest.param(lambda: WallDetectorConfig.absolute(-1.0),
                         "threshold must be positive", id="negative_threshold"),
            pytest.param(lambda: WallDetectorConfig(row_fraction="0.5"),
                         "wall detector 'row_fraction' must be float, got '0.5'",
                         id="string_row_fraction"),
            pytest.param(lambda: WallDetectorConfig.absolute("3"),
                         "wall detector 'magnitude_threshold' must be float, got '3'",
                         id="string_threshold"),
            pytest.param(lambda: WallDetectorConfig(rms_multiplier=True),
                         "wall detector 'rms_multiplier' must be float, got True",
                         id="bool_multiplier"),
        ],
    )
    def test_malformed_config_rejected(self, build, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            build()


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
        m = LayerMetrics(name="blocks.1.gate", cols=64, bits=8, max_abs=1.0, rmse=0.1,
                         wall_count=0)
        assert (m.block, m.kind, m.layer_index) == (1, "gate", 12)

    def test_layer_index_is_not_an_argument(self):
        with pytest.raises(TypeError):
            LayerMetrics(name="blocks.1.gate", cols=64, bits=8, max_abs=1.0, rmse=0.1,
                         wall_count=0, layer_index=12)

    @pytest.mark.parametrize("name", ["blocks.0.x", "blocks.-1.q", "blocks.0.q.scales",
                                      "embeddings", "", None])
    def test_non_layer_name_rejected(self, name):
        with pytest.raises(ValueError, match=re.escape(f"not a layer name: {name!r}")):
            LayerMetrics(name=name, cols=64, bits=8, max_abs=1.0, rmse=0.1, wall_count=0)


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
        walled = [replace(m, wall_count=i % 5, group_rmse={4: m.rmse / 3, 16: m.rmse})
                  for i, m in enumerate(csv_metrics)]
        write_metrics_csv(tmp_path / "m.csv", walled)
        assert read_metrics_csv(tmp_path / "m.csv") == walled

    def test_csv_without_cols_and_bits_rejected(self, csv_metrics, tmp_path):
        lines = metrics_csv_text(csv_metrics).splitlines()
        old = [",".join(line.split(",")[:4] + line.split(",")[6:]) for line in lines]
        (tmp_path / "old.csv").write_text("\n".join(old) + "\n")
        with pytest.raises(ValueError, match="malformed metrics row.*'cols'"):
            read_metrics_csv(tmp_path / "old.csv")

    @pytest.mark.parametrize(
        "column,value,match",
        [
            pytest.param("max_abs", "nan", r"line 4 \('blocks.0.v'\): max_abs and rmse_pc must be "
                         "finite", id="nan_max_abs"),
            pytest.param("max_abs", "-inf", r"line 4 \('blocks.0.v'\).*finite", id="inf_max_abs"),
            pytest.param("rmse_pc", "inf", r"line 4 \('blocks.0.v'\).*finite", id="inf_rmse"),
            pytest.param("layer_index", "5", r"line 4 \('blocks.0.v'\): layer_index 5 does not "
                         r"match the name \(expected 2\)", id="index_disagrees_with_name"),
            pytest.param("name", "blocks.0.x", r"line 4 \('blocks.0.x'\): not a layer name",
                         id="not_a_layer_name"),
            pytest.param("block", "1", r"line 4 \('blocks.0.v'\): block 1 does not match the "
                         r"name \(expected 0\)", id="block_disagrees_with_name"),
            pytest.param("kind", "q", r"line 4 \('blocks.0.v'\): kind 'q' does not match the "
                         r"name \(expected 'v'\)", id="kind_disagrees_with_name"),
            pytest.param("block", "x", r"malformed metrics row at line 4 \(ValueError",
                         id="block_not_an_integer"),
            pytest.param("cols", "-8", r"line 4 \('blocks.0.v'\): cols must be positive and "
                         r"wall_count non-negative, got -8 and 0", id="negative_cols"),
            pytest.param("cols", "0", r"line 4 \('blocks.0.v'\): cols must be positive",
                         id="zero_cols"),
            pytest.param("wall_count", "-1", r"line 4 \('blocks.0.v'\).*got 16 and -1",
                         id="negative_wall_count"),
            pytest.param("bits", "9", r"line 4 \('blocks.0.v'\): bits must be an integer in "
                         r"\[2, 8\], got 9", id="bits_above_eight"),
            pytest.param("bits", "1", r"line 4 \('blocks.0.v'\): bits must be an integer",
                         id="bits_below_two"),
            pytest.param("name", "x" * 200_000, r"malformed CSV in .*bad\.csv: field larger",
                         id="field_past_csv_limit"),
        ],
    )
    def test_bad_row_rejected_naming_it(self, csv_metrics, tmp_path, column, value, match):
        lines = [line.split(",") for line in metrics_csv_text(csv_metrics).splitlines()]
        lines[3][lines[0].index(column)] = value
        (tmp_path / "bad.csv").write_text("\n".join(map(",".join, lines)) + "\n")
        with pytest.raises(ValueError, match=match):
            read_metrics_csv(tmp_path / "bad.csv")

    @pytest.mark.parametrize(
        "column,value,match",
        [
            pytest.param("max_abs", "nan", r"line 5 \('blocks.0.v'\): max_abs and rmse_pc must be "
                         "finite", id="bad_value"),
            pytest.param("cols", "x", r"malformed metrics row at line 5 \(ValueError",
                         id="malformed_row"),
        ],
    )
    def test_quoted_newline_does_not_shift_later_lines(self, csv_metrics, tmp_path, column,
                                                       value, match):
        lines = [line.split(",") for line in metrics_csv_text(csv_metrics).splitlines()]
        i = lines[0].index("max_abs")
        lines[1][i] = f'"{lines[1][i]}\n"'  # row 1 now spans file lines 2 and 3
        lines[3][lines[0].index(column)] = value
        (tmp_path / "bad.csv").write_text("\n".join(map(",".join, lines)) + "\n")
        with pytest.raises(ValueError, match=match):
            read_metrics_csv(tmp_path / "bad.csv")

    @pytest.mark.parametrize(
        "edit,match",
        [
            pytest.param(lambda lines: lines[3].append("0.5"), r"malformed metrics row at line 4 "
                         r"\(ValueError\('11 cells for 10 columns'\)\)", id="cell_too_many"),
            pytest.param(lambda lines: lines[3].pop(), r"malformed metrics row at line 4 "
                         r"\(ValueError\('9 cells for 10 columns'\)\)", id="cell_too_few"),
            pytest.param(lambda lines: [row.append("comment" if i == 0 else "x")
                                        for i, row in enumerate(lines)],
                         r"line 1 \(the header\) in .*bad\.csv: unknown columns \['comment'\]",
                         id="comment_column"),
            pytest.param(lambda lines: [row.insert(7, "max_abs" if i == 0 else "0.0")
                                        for i, row in enumerate(lines)],
                         r"line 1 \(the header\) in .*bad\.csv: repeated columns \['max_abs'\]",
                         id="repeated_max_abs"),
            pytest.param(lambda lines: lines[0].__setitem__(7, "rmse"),
                         r"line 1 \(the header\) in .*bad\.csv: unknown columns \['rmse'\]; "
                         r"missing columns \['rmse_pc'\]", id="renamed_column"),
            pytest.param(lambda lines: lines[0].__setitem__(8, "rmse_g0"),
                         r"unknown columns \['rmse_g0'\]", id="group_size_zero"),
            pytest.param(lambda lines: lines[0].__setitem__(8, "rmse_g04"),
                         r"unknown columns \['rmse_g04'\]", id="group_size_leading_zero"),
            pytest.param(lambda lines: lines[0].__setitem__(8, "rmse_gx"),
                         r"unknown columns \['rmse_gx'\]", id="group_size_not_a_number"),
            pytest.param(lambda lines: lines[3].__setitem__(8, "nan"),
                         r"line 4 \('blocks.0.v'\): max_abs and rmse_pc must be finite, as must "
                         r"each rmse_g, got .* \{4: nan\}", id="nan_group_rmse"),
            pytest.param(lambda lines: lines[3].__setitem__(8, "x"),
                         r"malformed metrics row at line 4 \(ValueError",
                         id="group_rmse_not_a_float"),
            pytest.param(lambda lines: lines.__delitem__(slice(1, None)),
                         r"no metrics rows in .*bad\.csv", id="header_only"),
        ],
    )
    def test_header_and_cells_must_fit_the_columns(self, csv_metrics, tmp_path, edit, match):
        """Each column is named once in the header, and each row has one cell
        per column that its type reads."""
        text = metrics_csv_text([replace(m, group_rmse={4: m.rmse}) for m in csv_metrics])
        lines = [line.split(",") for line in text.splitlines()]
        assert lines[0][8] == "rmse_g4"
        edit(lines)
        (tmp_path / "bad.csv").write_text("\n".join(map(",".join, lines)) + "\n")
        with pytest.raises(ValueError, match=match):
            read_metrics_csv(tmp_path / "bad.csv")

    def test_columns_in_any_order_and_blank_lines_read_alike(self, csv_metrics, tmp_path):
        metrics = [replace(m, group_rmse={4: m.rmse, 8: m.max_abs}) for m in csv_metrics]
        rows = list(zip(*[line.split(",") for line in metrics_csv_text(metrics).splitlines()]))
        lines = [",".join(row) for row in zip(*rows[::-1])]
        (tmp_path / "m.csv").write_text("\n" + "\n\n".join(lines) + "\n")
        assert read_metrics_csv(tmp_path / "m.csv") == metrics

    def test_repeated_layer_rejected_naming_both_rows(self, csv_metrics, tmp_path):
        lines = metrics_csv_text(csv_metrics).splitlines()
        (tmp_path / "bad.csv").write_text("\n".join(lines + [lines[3]]) + "\n")
        with pytest.raises(ValueError, match=r"line 16 \('blocks.0.v'\): repeats the layer of "
                                             "line 4"):
            read_metrics_csv(tmp_path / "bad.csv")

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.data(),
        layers=st.lists(st.tuples(st.integers(0, 200), st.sampled_from(KIND_ORDER)),
                        min_size=1, max_size=20, unique=True),
    )
    def test_any_layers_round_trip_in_layer_index_order(self, tmp_path_factory, data, layers):
        """Writer and reader agree: metrics for any layer names, in any
        order, read back equal and in layer-index order."""
        finite = st.floats(allow_nan=False, allow_infinity=False)
        sizes = data.draw(st.lists(st.integers(1, 2**31), max_size=3), label="group sizes")
        metrics = [
            LayerMetrics(name=f"blocks.{b}.{kind}", cols=data.draw(st.integers(1, 2**31)),
                         bits=data.draw(st.integers(2, 8)), max_abs=data.draw(finite),
                         rmse=data.draw(finite), wall_count=data.draw(st.integers(0, 2**31)),
                         group_rmse={g: data.draw(finite) for g in sizes})
            for b, kind in layers
        ]
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        write_metrics_csv(path, metrics)
        loaded = read_metrics_csv(path)
        assert loaded == sorted(metrics, key=lambda m: m.layer_index)
        # Writing what was read, then reading and writing again, gives the same bytes.
        write_metrics_csv(path, loaded)
        written = path.read_bytes()
        write_metrics_csv(path, read_metrics_csv(path))
        assert path.read_bytes() == written

    def test_plot_data_shape(self, csv_metrics, tmp_path):
        from quantkit.analyzer import plot_data_json_text
        import json

        obj = json.loads(plot_data_json_text(csv_metrics))
        assert obj["x"] == [m.layer_index for m in csv_metrics]
        assert len(obj["rmse"]) == len(obj["max_abs"]) == len(obj["x"])

    def test_reference_constants_are_split_by_regime(self):
        assert all(v > 90 for k, v in REFERENCE_V0_MAX_ABS.items() if "70b" in k and "llama3" in k and "405" not in k)
        assert all(v < 1.0 for v in REFERENCE_WORST_LAYER_MAX_ABS.values())
