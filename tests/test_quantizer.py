"""Quantizer unit and property tests.

Expected values for the worked examples were computed with the scalar
reference in ``oracles.py`` (float32 scales, ties away from zero) and
frozen here; the reference shares the contract but not the vectorized
code path.
"""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantkit import (
    GroupingScheme,
    QuantParams,
    QuantizedTensor,
    dequantize,
    fit_group_size,
    quantize_activation,
    quantize_weight,
    quantizer,
)

from edge_values import KINDS, edge_values, edge_weight
from oracles import (
    scalar_quantize_activation,
    scalar_quantize_dequantize,
    whole_layer_quantize_weight,
)

P8 = QuantParams(8)


class TestQuantParams:
    def test_qmax_8bit(self):
        assert P8.qmax == 127

    @pytest.mark.parametrize("bits,qmax", [(2, 1), (3, 3), (4, 7), (8, 127)])
    def test_qmax_values(self, bits, qmax):
        assert QuantParams(bits).qmax == qmax

    @pytest.mark.parametrize("bits", [0, 1, 9, 16])
    def test_rejects_out_of_range_bits(self, bits):
        with pytest.raises(ValueError):
            QuantParams(bits)


class TestGroupingScheme:
    def test_per_group_requires_divisor(self):
        with pytest.raises(ValueError):
            GroupingScheme.per_group(3).validate_for(8)
        GroupingScheme.per_group(4).validate_for(8)

    def test_per_channel_takes_no_size(self):
        with pytest.raises(ValueError):
            GroupingScheme("per_channel", 4)

    @pytest.mark.parametrize(
        "build,match",
        [
            pytest.param(lambda: GroupingScheme("per_row"), "unknown grouping mode 'per_row'",
                         id="unknown_mode"),
            pytest.param(lambda: GroupingScheme.from_json({"mode": "per_row"}),
                         "unknown grouping mode 'per_row'", id="unknown_mode_json"),
            pytest.param(lambda: GroupingScheme.from_json({"mode": "per_channel", "group_size": 4}),
                         "per-channel descriptor must not carry a group size",
                         id="per_channel_json_with_size"),
            pytest.param(lambda: GroupingScheme.from_json({"group_size": 4}),
                         "malformed grouping descriptor", id="no_mode_json"),
        ],
    )
    def test_malformed_scheme_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    @pytest.mark.parametrize("size", [0, -1, None, 2.5, True])
    def test_per_group_needs_positive_int(self, size):
        with pytest.raises(ValueError):
            GroupingScheme.per_group(size)

    def test_json_round_trip(self):
        for scheme in (GroupingScheme.per_channel(), GroupingScheme.per_group(16)):
            assert GroupingScheme.from_json(scheme.to_json()) == scheme

    @pytest.mark.parametrize("m,g,expected", [(64, 16, 16), (64, 48, 32), (60, 16, 15), (7, 16, 7), (7, 2, 1)])
    def test_fit_group_size(self, m, g, expected):
        assert fit_group_size(m, g) == expected
        assert m % fit_group_size(m, g) == 0

    @pytest.mark.parametrize("m,g", [(0, 4), (4, 0)])
    def test_fit_group_size_needs_positive_sizes(self, m, g):
        with pytest.raises(ValueError, match="must be positive"):
            fit_group_size(m, g)


def quantize_row(values, grouping=GroupingScheme.per_channel()):
    """Quantize a 1 x k weight row; returns its codes and scales as arrays."""
    qt = quantize_weight(np.array([values], dtype=np.float64), grouping, P8)
    return qt.values[0], qt.scales


class TestScaleFactor:
    """The scale s = max|w| / qmax, computed in float32, of a weight row."""

    def test_llama3_70b_max_abs(self):
        # 93 is the observed first-block V max of an outlier-prone 70B
        # checkpoint; the quotient is forced by the scale formula.
        _, s = quantize_row([93.0])
        assert s[0] == pytest.approx(93.0 / 127.0, rel=1e-6)
        assert s[0] == pytest.approx(0.732283, abs=1e-6)

    def test_zero_max_abs_degenerates_to_one(self):
        # An all-zero group gets scale 1.0 next to a normally scaled group.
        _, s = quantize_row([0.0, 0.0, 3.0, -1.0], GroupingScheme.per_group(2))
        assert s.tolist() == [[1.0, np.float32(3.0) / np.float32(127)]]

    def test_qmax_cancels(self):
        _, s = quantize_row([127.0, 1.0])
        assert s[0] == 1.0

    def test_nan_rejected(self):
        # A NaN confined to one group must not become that group's scale.
        with pytest.raises(ValueError):
            quantize_row([1.0, 2.0, float("nan"), 4.0], GroupingScheme.per_group(2))


class TestQuantizeGroup:
    """One scale group, quantized as a 1 x k per-channel weight row."""

    def test_worked_example(self):
        # 0.5 / fl32(1/127) = 63.5000002, away from zero -> 64.
        q, s = quantize_row([-1.0, 0.0, 0.5])
        assert s[0] == np.float32(1) / np.float32(127)
        assert q.tolist() == [-127, 0, 64]

    def test_all_zero_vector(self):
        q, s = quantize_row([0.0] * 5)
        assert s[0] == 1.0
        assert q.tolist() == [0, 0, 0, 0, 0]

    def test_endpoint_maps_to_qmax(self):
        q, s = quantize_row([127.0])
        assert q.tolist() == [127]
        assert q[0] * s[0] == 127.0  # scale is exactly 1 here, so dequant is exact

    def test_endpoint_dequant_within_half_scale(self):
        q, s = quantize_row([0.1, -0.03])
        assert q[0] == 127
        assert abs(q[0] * float(s[0]) - 0.1) <= s[0] / 2

    @pytest.mark.parametrize("bad", [[1.0, np.nan], [np.inf]])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            quantize_row(bad)

    def test_error_bounded_by_half_scale(self):
        rng = np.random.default_rng(11)
        v = rng.normal(0, 3, 257)
        q, s = quantize_row(v)
        s = float(s[0])
        assert np.all(np.abs(v - q * s) <= s / 2 + 1e-6 * s)


class TestQuantizeWeight:
    def test_outlier_row_per_channel(self):
        """One large value inflates the row scale and zeroes the rest."""
        row = np.array([[0.01] * 7 + [10.0]], dtype=np.float32)
        qt = quantize_weight(row, GroupingScheme.per_channel(), P8)
        assert qt.scales[0] == np.float32(np.float32(10.0) / np.float32(127))
        assert qt.values.tolist() == [[0] * 7 + [127]]
        err = np.abs(row.astype(np.float64) - dequantize(qt))
        assert err[0, :7] == pytest.approx([0.01] * 7, rel=1e-6)

    def test_outlier_row_per_group_recovers_small_entries(self):
        row = np.array([[0.01] * 7 + [10.0]], dtype=np.float32)
        qt = quantize_weight(row, GroupingScheme.per_group(4), P8)
        err = np.abs(row.astype(np.float64) - dequantize(qt))
        s_small = float(qt.scales[0, 0])
        # first group holds only 0.01 entries, recoverable to s/2 ~ 3.9e-5
        assert s_small == pytest.approx(7.874016e-05, rel=1e-6)
        assert np.all(err[0, :4] <= s_small / 2 + 1e-12)
        # outlier group keeps the same dead-zone error on its small entries
        assert err[0, 4:7] == pytest.approx([0.01] * 3, rel=1e-6)

    def test_group_size_must_divide(self):
        with pytest.raises(ValueError):
            quantize_weight(np.ones((2, 10), dtype=np.float32), GroupingScheme.per_group(4), P8)

    def test_non_finite_rejected(self):
        w = np.ones((2, 2), dtype=np.float32)
        w[1, 1] = np.inf
        with pytest.raises(ValueError):
            quantize_weight(w, GroupingScheme.per_channel(), P8)

    @pytest.mark.parametrize("seed", range(20))
    def test_full_width_group_equals_per_channel(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 12)), int(rng.integers(1, 24))
        w = rng.normal(0, 1, (n, m)).astype(np.float32)
        pc = quantize_weight(w, GroupingScheme.per_channel(), P8)
        pg = quantize_weight(w, GroupingScheme.per_group(m), P8)
        assert np.array_equal(pc.values, pg.values)
        assert np.array_equal(pc.scales, pg.scales.reshape(-1))

    @pytest.mark.parametrize("bits", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("group_size", [None, 4, 16])
    def test_round_trip_bound(self, bits, group_size):
        """|x - dequant(quant(x))| <= s/2 per element, for every bit width."""
        rng = np.random.default_rng(bits * 100 + (group_size or 0))
        params = QuantParams(bits)
        for _ in range(10):
            n = int(rng.integers(1, 16))
            m = 16 * int(rng.integers(1, 5))
            w = (rng.normal(0, 1, (n, m)) * rng.uniform(0.01, 100)).astype(np.float32)
            scheme = (
                GroupingScheme.per_channel()
                if group_size is None
                else GroupingScheme.per_group(group_size)
            )
            qt = quantize_weight(w, scheme, params)
            g = scheme.resolved_group_size(m)
            elem_scales = np.repeat(
                qt.scales.reshape(n, m // g).astype(np.float64), g, axis=1
            )
            err = np.abs(w.astype(np.float64) - dequantize(qt))
            assert np.all(err <= elem_scales / 2 + 1e-6 * elem_scales)
            assert int(np.abs(qt.values).max()) <= params.qmax

    def test_group_scales_never_exceed_channel_scale(self):
        """Refining the grouping can only shrink each element's scale."""
        rng = np.random.default_rng(42)
        for _ in range(25):
            n, m = int(rng.integers(1, 10)), 8 * int(rng.integers(1, 6))
            w = rng.normal(0, 2, (n, m)).astype(np.float32)
            pc = quantize_weight(w, GroupingScheme.per_channel(), P8)
            for g in (2, 4, 8):
                pg = quantize_weight(w, GroupingScheme.per_group(g), P8)
                assert np.all(pg.scales <= pc.scales[:, None])

    def test_power_of_two_scaling_equivariance(self):
        # Scaling by 4 is exact in float, so codes match bit-for-bit and
        # scales scale by exactly 4.
        rng = np.random.default_rng(3)
        w = rng.normal(0, 1, (6, 12)).astype(np.float32)
        base = quantize_weight(w, GroupingScheme.per_group(4), P8)
        scaled = quantize_weight(4.0 * w, GroupingScheme.per_group(4), P8)
        assert np.array_equal(base.values, scaled.values)
        assert np.array_equal(4.0 * base.scales, scaled.scales)

    def test_general_scaling_equivariance(self):
        rng = np.random.default_rng(4)
        w = rng.normal(0, 1, (6, 12)).astype(np.float32)
        base = quantize_weight(w, GroupingScheme.per_channel(), P8)
        scaled = quantize_weight(3.0 * w, GroupingScheme.per_channel(), P8)
        assert np.array_equal(base.values, scaled.values)
        np.testing.assert_allclose(scaled.scales, 3.0 * base.scales, rtol=1e-6)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(17)
        w = rng.normal(0, 5, (7, 12)).astype(np.float32)
        for g in (3, 4, 12):
            qt = quantize_weight(w, GroupingScheme.per_group(g), P8)
            codes, _, deq, _ = scalar_quantize_dequantize(w, g, 8)
            assert qt.values.tolist() == codes
            np.testing.assert_array_equal(dequantize(qt), deq)


class TestBlockedQuantizeWeight:
    """Row-blocked quantize_weight equals the whole-layer oracle exactly."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        m=st.sampled_from([1, 6, 24, 48, 130, 240, 1040]),
        bits=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        tiny_rows=st.integers(0, 2),
        dtype=st.sampled_from([np.float32, np.float64]),
        budget=st.sampled_from([None, 128, 256, 1000]),
        data=st.data(),
    )
    def test_matches_whole_layer_oracle(self, n, m, bits, seed, tiny_rows, dtype, budget, data):
        rng = np.random.default_rng(seed)
        w = (rng.normal(0, 0.5, (n, m)) * rng.choice([1.0, 100.0], m)).astype(dtype)
        # Rows of subnormal float32 magnitude, whose codes need the clamp.
        for i in rng.choice(n, size=min(tiny_rows, n), replace=False):
            units = rng.integers(127, 4000, m) * rng.choice([-1.0, 1.0], m)
            w[i] = (units * 2.0**-149).astype(dtype)
        g = data.draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0] + [None]))
        scheme = GroupingScheme.per_channel() if g is None else GroupingScheme.per_group(g)
        params = QuantParams(bits)

        with mock.patch.object(quantizer, "_BLOCK", budget or quantizer._BLOCK):
            qt = quantize_weight(w, scheme, params)
        codes, scales = whole_layer_quantize_weight(w, scheme, params)
        assert qt.values.dtype == codes.dtype and np.array_equal(qt.values, codes)
        assert qt.scales.dtype == scales.dtype and qt.scales.shape == scales.shape
        assert qt.scales.tobytes() == scales.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 24),
        m=st.sampled_from([1, 4, 12, 64, 130]),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
        bits=st.integers(2, 8),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
        budget=st.sampled_from([None, 128, 256]),
        data=st.data(),
    )
    def test_sign_and_rounding_edges_match_whole_layer_oracle(self, n, m, kinds, bits, dtype,
                                                               seed, budget, data):
        """Exact ties, +0.0 and -0.0, an entry at -qmax * s and subnormal
        groups: the magnitude encoder's codes and scales equal the signed
        whole-layer oracle's to the bit."""
        params = QuantParams(bits)
        g = data.draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
        w = edge_weight(np.random.default_rng(seed), kinds, n, m, g, params.qmax, dtype)
        scheme = GroupingScheme.per_channel() if g == m else GroupingScheme.per_group(g)
        with mock.patch.object(quantizer, "_BLOCK", budget or quantizer._BLOCK):
            qt = quantize_weight(w, scheme, params)
        codes, scales = whole_layer_quantize_weight(w, scheme, params)
        assert qt.values.dtype == codes.dtype and qt.values.tobytes() == codes.tobytes()
        assert qt.scales.shape == scales.shape and qt.scales.tobytes() == scales.tobytes()

    @pytest.mark.parametrize("budget", [128, 256, 1000])
    @pytest.mark.parametrize("extra_rows", [0, 1])
    @pytest.mark.parametrize("g", [None, 2])
    def test_one_block_boundary(self, budget, extra_rows, g):
        """A layer of exactly one row block and a layer one row longer (two
        blocks) both equal the whole-layer oracle."""
        m = 16
        w = np.random.default_rng(budget).normal(0, 1, (budget // m + extra_rows, m))
        scheme = GroupingScheme.per_channel() if g is None else GroupingScheme.per_group(g)
        with mock.patch.object(quantizer, "_BLOCK", budget):
            qt = quantize_weight(w.astype(np.float32), scheme, P8)
        codes, scales = whole_layer_quantize_weight(w.astype(np.float32), scheme, P8)
        assert np.array_equal(qt.values, codes)
        assert qt.scales.tobytes() == scales.tobytes()

    @pytest.mark.parametrize("budget", [None, 128, 1000])
    def test_non_finite_in_last_block_rejected(self, budget):
        w = np.ones((40, 130), dtype=np.float32)
        w[-1, -1] = np.inf
        with mock.patch.object(quantizer, "_BLOCK", budget or quantizer._BLOCK):
            with pytest.raises(ValueError, match="weight contains NaN or Inf"):
                quantize_weight(w, GroupingScheme.per_group(13), P8)

    @pytest.mark.parametrize(
        "grouping", [GroupingScheme.per_channel(), GroupingScheme.per_group(128)]
    )
    def test_peak_memory_below_output_plus_one_mib(self, grouping):
        """A 1024 x 1024 quantize holds its int8 output and one block's buffers."""
        w = np.random.default_rng(14).normal(0, 0.02, (1024, 1024)).astype(np.float32)
        tracemalloc.start()
        try:
            quantize_weight(w, grouping, P8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < w.size + 2**20


class TestQuantizeActivation:
    def test_identity_like_column(self):
        a = np.zeros((4, 1), dtype=np.float32)
        a[2, 0] = 1.0
        qt = quantize_activation(a, P8)
        assert qt.scales.tolist() == [np.float32(1) / np.float32(127)]
        assert qt.values[:, 0].tolist() == [0, 0, 127, 0]

    def test_transpose_matches_weight_quantization(self):
        rng = np.random.default_rng(5)
        w = rng.normal(0, 1, (6, 9)).astype(np.float32)
        wq = quantize_weight(w, GroupingScheme.per_channel(), P8)
        aq = quantize_activation(w.T.copy(), P8)
        assert np.array_equal(aq.values, wq.values.T)
        assert np.array_equal(aq.scales, wq.scales)

    def test_scales_match_brute_force_column_max(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0, 2, (8, 3)).astype(np.float32)
        qt = quantize_activation(a, P8)
        for j in range(3):
            col_max = max(abs(float(a[i, j])) for i in range(8))
            assert qt.scales[j] == np.float32(np.float32(col_max) / np.float32(127))

    def test_non_finite_rejected(self):
        a = np.full((2, 2), np.nan, dtype=np.float32)
        with pytest.raises(ValueError):
            quantize_activation(a, P8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_last_column_rejected(self, bad, dtype):
        a = np.ones((5, 4), dtype=dtype)
        a[-1, -1] = bad
        with pytest.raises(ValueError, match="activation contains NaN or Inf"):
            quantize_activation(a, P8)

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 12),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
        bits=st.integers(2, 8),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scalar_oracle(self, m, kinds, bits, dtype, seed):
        rng = np.random.default_rng(seed)
        qmax = QuantParams(bits).qmax
        a = np.stack([edge_values(rng, k, m, qmax, dtype) for k in kinds], axis=1).astype(dtype)
        qt = quantize_activation(a, QuantParams(bits))
        codes, scales = scalar_quantize_activation(a, bits)
        assert qt.values.dtype == np.int8 and qt.values.tolist() == codes
        assert qt.scales.dtype == np.float32 and qt.scales.tolist() == scales


TALL_ROWS = [128, 129, 384, 1000, 1024, 2048]
TALL_WIDTHS = [1, 3, 8, 32, 257]


class TestTallActivation:
    """A tall activation's column maxima are folded (quantizer._column_max):
    heights from 128 to 2048, powers of two or not, and widths on both sides
    of the fold's 256-element rows."""

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.one_of(st.sampled_from(TALL_ROWS), st.integers(128, 2048)),
        p=st.sampled_from(TALL_WIDTHS),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
        bits=st.integers(2, 8),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scalar_oracle(self, m, p, kinds, bits, dtype, seed):
        rng = np.random.default_rng(seed)
        qmax = QuantParams(bits).qmax
        a = np.stack([edge_values(rng, kinds[j % len(kinds)], m, qmax, dtype) for j in range(p)],
                     axis=1).astype(dtype)
        qt = quantize_activation(a, QuantParams(bits))
        codes, scales = scalar_quantize_activation(a, bits)
        assert qt.values.dtype == np.int8 and qt.values.tolist() == codes
        assert qt.scales.dtype == np.float32 and qt.scales.tolist() == scales

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("m,p", [(129, 8), (384, 3), (1000, 32), (1024, 8), (2048, 1),
                                     (256, 257)])
    def test_non_finite_in_last_row_and_column_rejected(self, m, p, bad, dtype):
        a = np.ones((m, p), dtype=dtype)
        a[-1, -1] = bad
        with pytest.raises(ValueError, match="activation contains NaN or Inf"):
            quantize_activation(a, P8)

    @pytest.mark.parametrize("shape", [(0, 8), (256, 0), (0, 0)])
    def test_empty_rejected(self, shape):
        with pytest.raises(ValueError, match="non-empty"):
            quantize_activation(np.empty(shape, np.float32), P8)


class TestDequantize:
    def test_two_by_two_frozen_oracle_values(self):
        """Hand case checked against the scalar reference: note 2.0/s is
        3.4999998 (not 3.5) because the float32 scale rounds up."""
        w = np.array([[0.5, -1.0], [2.0, 4.0]], dtype=np.float32)
        qt = quantize_weight(w, GroupingScheme.per_channel(), QuantParams(4))
        assert qt.values.tolist() == [[3, -7], [3, 7]]
        np.testing.assert_allclose(
            qt.scales, [0.1428571492433548, 0.5714285969734192], rtol=0
        )
        np.testing.assert_allclose(
            dequantize(qt),
            [[0.4285714477300644, -1.0000000447034836],
             [1.7142857909202576, 4.000000178813934]],
            rtol=0,
        )

    def test_all_zero_tensor(self):
        qt = quantize_weight(np.zeros((3, 4), dtype=np.float32), GroupingScheme.per_channel(), P8)
        assert np.all(qt.values == 0)
        assert np.all(dequantize(qt) == 0.0)
        assert np.all(qt.scales == 1.0)

    def test_round_trip_error_within_half_group_scale(self):
        rng = np.random.default_rng(9)
        w = rng.normal(0, 1, (5, 8)).astype(np.float32)
        qt = quantize_weight(w, GroupingScheme.per_group(2), P8)
        err = np.abs(w.astype(np.float64) - dequantize(qt))
        elem_scales = np.repeat(qt.scales.astype(np.float64), 2, axis=1)
        assert np.all(err <= elem_scales / 2 + 1e-6 * elem_scales)


class TestQuantizedTensorInvariants:
    def test_scale_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuantizedTensor(
                values=np.zeros((2, 4), dtype=np.int8),
                scales=np.ones(3, dtype=np.float32),
                grouping=GroupingScheme.per_channel(),
                bits=8,
                axis="row",
            )

    def test_values_beyond_qmax_rejected(self):
        with pytest.raises(ValueError, match="exceed qmax=3"):
            QuantizedTensor(
                values=np.full((1, 2), 5, dtype=np.int8),
                scales=np.ones(1, dtype=np.float32),
                grouping=GroupingScheme.per_channel(),
                bits=3,
                axis="row",
            )

    def test_non_positive_scales_rejected(self):
        with pytest.raises(ValueError):
            QuantizedTensor(
                values=np.zeros((1, 2), dtype=np.int8),
                scales=np.zeros(1, dtype=np.float32),
                grouping=GroupingScheme.per_channel(),
                bits=8,
                axis="row",
            )

    def test_min_code_rejected_at_eight_bits(self):
        # -128 fits int8 but lies outside the symmetric range [-127, 127].
        with pytest.raises(ValueError, match="qmax"):
            QuantizedTensor(
                values=np.array([[-128, 0]], dtype=np.int8),
                scales=np.ones(1, dtype=np.float32),
                grouping=GroupingScheme.per_channel(),
                bits=8,
                axis="row",
            )

    @pytest.mark.parametrize("dtype,code", [(np.int16, 200), (np.int16, -200), (np.uint8, 200)])
    def test_code_outside_range_rejected_in_wider_dtypes(self, dtype, code):
        # The constructor skips a scan only where the dtype keeps that bound;
        # the int8 cases are the two tests above.
        with pytest.raises(ValueError, match="exceed qmax=127"):
            QuantizedTensor(
                values=np.array([[0, code]], dtype=dtype),
                scales=np.ones(1, dtype=np.float32),
                grouping=GroupingScheme.per_channel(),
                bits=8,
                axis="row",
            )

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8, np.int64])
    def test_codes_within_range_accepted_in_every_dtype(self, dtype):
        codes = [0, 127] if dtype == np.uint8 else [-127, 127]
        qt = QuantizedTensor(
            values=np.array([codes], dtype=dtype),
            scales=np.ones(1, dtype=np.float32),
            grouping=GroupingScheme.per_channel(),
            bits=8,
            axis="row",
        )
        assert qt.values.tolist() == [codes]

    @pytest.mark.parametrize("codes", [np.array([[0.5, 1.7]]), np.array([[np.nan, 1.0]]),
                                       np.array([[True, False]])],
                             ids=["float64", "nan", "bool"])
    def test_codes_that_are_not_integers_rejected(self, codes):
        # Float "codes" within [-qmax, qmax] would give a product that is not
        # an exact sum of integers: [[0.5, 1.7]] times ones was 2.20000018.
        with pytest.raises(ValueError, match=f"must be integers, got dtype {codes.dtype}$"):
            QuantizedTensor(
                values=codes,
                scales=np.ones(1, dtype=np.float32),
                grouping=GroupingScheme.per_channel(),
                bits=8,
                axis="row",
            )

    @pytest.mark.parametrize(
        "changes,match",
        [
            pytest.param(dict(axis="diagonal"), "unknown axis 'diagonal'", id="unknown_axis"),
            pytest.param(dict(values=np.zeros(4, np.int8)), "must be 2-D", id="1d_values"),
            pytest.param(dict(axis="column", grouping=GroupingScheme.per_group(2),
                              scales=np.ones(4, np.float32)),
                         "column-wise tensors are per-channel only", id="per_group_column"),
        ],
    )
    def test_malformed_tensor_rejected(self, changes, match):
        fields = dict(values=np.zeros((2, 4), np.int8), scales=np.ones(2, np.float32),
                      grouping=GroupingScheme.per_channel(), bits=8, axis="row")
        with pytest.raises(ValueError, match=match):
            QuantizedTensor(**{**fields, **changes})

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_symmetric_endpoints_accepted(self, bits):
        qmax = QuantParams(bits).qmax
        qt = QuantizedTensor(
            values=np.array([[-qmax, qmax]], dtype=np.int8),
            scales=np.ones(1, dtype=np.float32),
            grouping=GroupingScheme.per_channel(),
            bits=bits,
            axis="row",
        )
        assert qt.values.tolist() == [[-qmax, qmax]]


class TestLibraryTensorsPassThePublicCheck:
    """quantize_weight and quantize_activation build their tensors without
    QuantizedTensor's scans; what they return must pass those scans."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 20),
        m=st.sampled_from([1, 4, 12, 64]),
        bits=st.integers(2, 8),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_rebuilt_through_the_public_constructor(self, n, m, bits, dtype, seed, data):
        rng = np.random.default_rng(seed)
        w = rng.normal(0, 1, (n, m)) * rng.choice([1.0, 1000.0], m)
        w[rng.random((n, m)) < 0.1] = -0.0
        w[rng.integers(n)] = rng.integers(127, 4000, m) * 2.0**-149  # subnormal scales
        w = w.astype(dtype)
        g = data.draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0] + [None]))
        scheme = GroupingScheme.per_channel() if g is None else GroupingScheme.per_group(g)
        params = QuantParams(bits)
        for qt in (quantize_weight(w, scheme, params), quantize_activation(w, params)):
            assert qt.values.dtype == np.int8 and qt.scales.dtype == np.float32
            QuantizedTensor(qt.values, qt.scales, qt.grouping, qt.bits, qt.axis)

    def test_integer_minimum_column_still_rejected(self):
        # np.abs(-128) wraps to -128 in int8, which would give a negative scale.
        a = np.full((3, 2), -128, dtype=np.int8)
        with pytest.raises(ValueError, match="input holds -128, the minimum of int8, which has no "
                                             "int8 magnitude"):
            quantize_activation(a, P8)


class TestScaleRange:
    """Scales are float32: inputs whose scales would overflow or underflow are rejected."""

    def test_magnitude_above_float32_max_rejected(self):
        w = np.array([[1e39, 1.0]], dtype=np.float64)
        with pytest.raises(ValueError, match="float32 range"):
            quantize_weight(w, GroupingScheme.per_channel(), P8)

    def test_activation_magnitude_above_float32_max_rejected(self):
        a = np.array([[1.0], [-4e38]], dtype=np.float64)
        with pytest.raises(ValueError, match="float32 range"):
            quantize_activation(a, P8)

    def test_float32_max_itself_is_accepted(self):
        top = float(np.finfo(np.float32).max)
        qt = quantize_weight(np.array([[top, -top]]), GroupingScheme.per_channel(), P8)
        assert qt.values.tolist() == [[127, -127]]
        assert np.isfinite(dequantize(qt)).all()

    @pytest.mark.parametrize(
        "w",
        [
            np.array([[1e-50, 0.0]], dtype=np.float64),  # amax itself underflows float32
            np.array([[1e-44, 0.0]], dtype=np.float32),  # denormal amax / 127 underflows
        ],
    )
    def test_underflowing_scale_rejected(self, w):
        # A clear error, not a divide-by-zero warning on the way to one.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="underflows"):
                quantize_weight(w, GroupingScheme.per_group(1), P8)

    def test_subnormal_scale_codes_are_clamped_to_qmax(self):
        # max |w| = 1321 * 2^-149 is subnormal; its scale 1321/127 = 10.40
        # units rounds to 10 units, so max |w| / s = 132.1 and only the
        # clamp keeps the code at qmax.
        w = np.array([[1321.0, -700.0]], dtype=np.float64) * 2.0**-149
        for dtype in (np.float32, np.float64):
            qt = quantize_weight(w.astype(dtype), GroupingScheme.per_channel(), P8)
            assert qt.scales[0] == np.float32(10 * 2.0**-149)
            assert qt.values.tolist() == [[127, -70]]
            aq = quantize_activation(w.T.astype(dtype), P8)
            assert aq.values.tolist() == [[127], [-70]]

    def test_zero_group_next_to_underflow_names_underflow(self):
        w = np.array([[0.0, 1e-50]], dtype=np.float64)
        with pytest.raises(ValueError, match="underflows"):
            quantize_weight(w, GroupingScheme.per_channel(), P8)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_scales_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            QuantizedTensor(
                values=np.zeros((2, 2), dtype=np.int8),
                scales=np.array([1.0, bad], dtype=np.float32),
                grouping=GroupingScheme.per_channel(),
                bits=8,
                axis="row",
            )
