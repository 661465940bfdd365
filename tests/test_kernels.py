"""Quantized matmul kernels against the float64 and int64 references.

Both kernels run one group loop that multiplies the int8 codes exactly in
float32 chunks of at most 2^24 // (qmax_w * qmax_a) columns and
accumulates in float64, so a quantized product must equal the grouped
int64 oracle byte for byte and match the reference product of the
dequantized operands up to float reassociation; any larger deviation is
a kernel bug, not quantization error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantkit import (
    GroupingScheme,
    QuantParams,
    dequantize,
    matmul_per_channel,
    matmul_per_group,
    quantize_activation,
    quantize_weight,
    reference_matmul_fp,
)

from oracles import matmul_descending_k, matmul_grouped_int64

P8 = QuantParams(8)


def random_operands(rng, n, m, p, wall_columns=()):
    w = rng.normal(0, 1, (n, m)).astype(np.float32)
    for c in wall_columns:
        w[:, c] = rng.uniform(50, 100, n) * rng.choice([-1.0, 1.0], n)
    a = rng.normal(0, 1, (m, p)).astype(np.float32)
    return w, a


def rel_frobenius(x, ref):
    denom = np.linalg.norm(ref)
    return float(np.linalg.norm(x - ref)) / float(denom) if denom else float(np.linalg.norm(x))


class TestReferenceMatmul:
    def test_identity(self):
        a = np.arange(12, dtype=np.float32).reshape(4, 3)
        out = reference_matmul_fp(np.eye(4, dtype=np.float32), a)
        np.testing.assert_array_equal(out, a.astype(np.float64))

    def test_one_by_one_is_scalar_product(self):
        out = reference_matmul_fp(np.array([[3.0]]), np.array([[4.0]]))
        assert out.tolist() == [[12.0]]

    def test_matches_transposed_loop_order(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.normal(0, 1, (9, 33))
            a = rng.normal(0, 1, (33, 5))
            ref = reference_matmul_fp(w, a)
            other = matmul_descending_k(w, a)
            assert rel_frobenius(other, ref) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reference_matmul_fp(np.ones((2, 3)), np.ones((4, 2)))


class TestPerChannelKernel:
    def test_zero_weight_annihilates(self):
        wq = quantize_weight(np.zeros((3, 4), dtype=np.float32), GroupingScheme.per_channel(), P8)
        aq = quantize_activation(np.random.default_rng(1).normal(0, 1, (4, 5)).astype(np.float32), P8)
        assert np.all(matmul_per_channel(wq, aq) == 0.0)

    def test_two_by_two_hand_case(self):
        """Identity codes with known scales: out[i,j] = I[i,j] * s_w[i] * s_a[j]."""
        w = np.array([[0.5, 0.0], [0.0, 0.25]], dtype=np.float32)
        a = np.array([[2.0, 0.0], [0.0, 4.0]], dtype=np.float32)
        wq = quantize_weight(w, GroupingScheme.per_channel(), P8)
        aq = quantize_activation(a, P8)
        out = matmul_per_channel(wq, aq)
        sw = wq.scales.astype(np.float64)
        sa = aq.scales.astype(np.float64)
        expected = np.diag([127 * 127 * sw[0] * sa[0], 127 * 127 * sw[1] * sa[1]])
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_fp64_reference_on_dequantized_operands(self, seed):
        rng = np.random.default_rng(seed)
        w, a = random_operands(rng, 16, 32, 8)
        wq = quantize_weight(w, GroupingScheme.per_channel(), P8)
        aq = quantize_activation(a, P8)
        ref = reference_matmul_fp(dequantize(wq), dequantize(aq))
        assert rel_frobenius(matmul_per_channel(wq, aq), ref) <= 1e-5

    def test_dimension_mismatch(self):
        wq = quantize_weight(np.ones((2, 3), dtype=np.float32), GroupingScheme.per_channel(), P8)
        aq = quantize_activation(np.ones((4, 2), dtype=np.float32), P8)
        with pytest.raises(ValueError, match="inner dimensions"):
            matmul_per_channel(wq, aq)

    def test_rejects_per_group_weight(self):
        wq = quantize_weight(np.ones((2, 4), dtype=np.float32), GroupingScheme.per_group(2), P8)
        aq = quantize_activation(np.ones((4, 2), dtype=np.float32), P8)
        with pytest.raises(ValueError, match="per-group"):
            matmul_per_channel(wq, aq)

    def test_scale_linearity(self):
        rng = np.random.default_rng(21)
        w, a = random_operands(rng, 4, 8, 3)
        wq = quantize_weight(w, GroupingScheme.per_channel(), P8)
        aq = quantize_activation(a, P8)
        base = matmul_per_channel(wq, aq)
        wq.scales = wq.scales * np.float32(2.0)
        np.testing.assert_array_equal(matmul_per_channel(wq, aq), 2.0 * base)


class TestPerGroupKernel:
    @pytest.mark.parametrize("seed", range(10))
    def test_full_width_group_bit_identical_to_per_channel(self, seed):
        rng = np.random.default_rng(100 + seed)
        w, a = random_operands(rng, 8, 24, 6)
        aq = quantize_activation(a, P8)
        pc = matmul_per_channel(quantize_weight(w, GroupingScheme.per_channel(), P8), aq)
        pg = matmul_per_group(quantize_weight(w, GroupingScheme.per_group(24), P8), aq)
        assert np.array_equal(pc, pg)

    def test_single_group_row_is_scaled_dot_product(self):
        w = np.array([[1.0, 2.0, -3.0, 4.0]], dtype=np.float32)
        a = np.array([[1.0], [1.0], [1.0], [1.0]], dtype=np.float32)
        wq = quantize_weight(w, GroupingScheme.per_group(4), P8)
        aq = quantize_activation(a, P8)
        out = matmul_per_group(wq, aq)
        dot = float(np.sum(wq.values.astype(np.int64) * aq.values[:, 0].astype(np.int64)))
        expected = (dot * float(wq.scales[0, 0])) * float(aq.scales[0])
        assert out[0, 0] == expected

    @pytest.mark.parametrize("seed,g", [(0, 4), (1, 8), (2, 2), (3, 16), (4, 32)])
    def test_matches_fp64_reference(self, seed, g):
        rng = np.random.default_rng(200 + seed)
        w, a = random_operands(rng, 12, 32, 7)
        wq = quantize_weight(w, GroupingScheme.per_group(g), P8)
        aq = quantize_activation(a, P8)
        ref = reference_matmul_fp(dequantize(wq), dequantize(aq))
        assert rel_frobenius(matmul_per_group(wq, aq), ref) <= 1e-5

    def test_wall_weights_per_group_closer_to_unquantized_product(self):
        """Finer weight groups shrink the end-to-end matmul deviation."""
        rng = np.random.default_rng(77)
        w, a = random_operands(rng, 32, 64, 16, wall_columns=(3, 17, 40, 59))
        aq = quantize_activation(a, P8)
        exact = reference_matmul_fp(w, dequantize(aq))
        dev_pc = rel_frobenius(
            matmul_per_channel(quantize_weight(w, GroupingScheme.per_channel(), P8), aq), exact
        )
        dev_pg = rel_frobenius(
            matmul_per_group(quantize_weight(w, GroupingScheme.per_group(8), P8), aq), exact
        )
        assert dev_pg < dev_pc

    def test_rejects_per_channel_weight(self):
        wq = quantize_weight(np.ones((2, 4), dtype=np.float32), GroupingScheme.per_channel(), P8)
        aq = quantize_activation(np.ones((4, 2), dtype=np.float32), P8)
        with pytest.raises(ValueError, match="per-channel"):
            matmul_per_group(wq, aq)


class TestExactAgainstIntegerOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 48),
        p=st.integers(1, 6),
        bits=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        wall=st.booleans(),
    )
    def test_both_kernels_equal_grouped_int64_oracle(self, n, m, p, bits, seed, wall):
        rng = np.random.default_rng(seed)
        walls = (int(rng.integers(m)),) if wall else ()
        w, a = random_operands(rng, n, m, p, wall_columns=walls)
        # Column magnitudes over six decades spread the group scales far
        # enough apart that the order of adding group partials shows.
        w *= (10.0 ** rng.uniform(-3, 3, m)).astype(np.float32)
        params = QuantParams(bits)
        aq = quantize_activation(a, params)
        wq = quantize_weight(w, GroupingScheme.per_channel(), params)
        expected = matmul_grouped_int64(wq.values, wq.scales, aq.values, aq.scales)
        assert matmul_per_channel(wq, aq).tobytes() == expected.tobytes()
        for g in (d for d in range(1, m + 1) if m % d == 0):
            wq = quantize_weight(w, GroupingScheme.per_group(g), params)
            expected = matmul_grouped_int64(wq.values, wq.scales, aq.values, aq.scales)
            assert matmul_per_group(wq, aq).tobytes() == expected.tobytes()


    @staticmethod
    def _assert_both_kernels_exact(w, a, bits_w, bits_a, g):
        aq = quantize_activation(a, QuantParams(bits_a))
        for grouping, kernel in (
            (GroupingScheme.per_channel(), matmul_per_channel),
            (GroupingScheme.per_group(g), matmul_per_group),
        ):
            wq = quantize_weight(w, grouping, QuantParams(bits_w))
            expected = matmul_grouped_int64(wq.values, wq.scales, aq.values, aq.scales)
            assert kernel(wq, aq).tobytes() == expected.tobytes()

    @staticmethod
    def _all_qmax_operands(m):
        # Codes are all +/-qmax.  Output (0, 0) sums m * qmax_w * qmax_a,
        # which float32 cannot hold once it is odd and above 2^24.
        w = np.ones((2, m), dtype=np.float32)
        w[1, : m // 2] = -1
        a = np.ones((m, 2), dtype=np.float32)
        a[::2, 1] = -1
        return w, a

    @pytest.mark.parametrize("m", [1040, 1041, 2 * 1041 + 1])
    def test_all_qmax_codes_past_one_chunk_at_eight_bits(self, m):
        # 1040 = 2^24 // 127^2 is one full float32 chunk; 1041 * 127^2 is odd
        # and above 2^24, so it needs a second chunk, and 2083 a third.
        self._assert_both_kernels_exact(*self._all_qmax_operands(m), 8, 8, g=m)

    def test_all_qmax_codes_past_the_seven_bit_chunk(self):
        # The 7-bit chunk is 2^24 // 63^2 = 4227 columns; 4229 * 63^2 is odd.
        self._assert_both_kernels_exact(*self._all_qmax_operands(4229), 7, 7, g=4229)

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_random_codes_past_one_chunk(self, bits):
        # With the other operand at 8 bits the chunk is 2^24 // (qmax * 127)
        # columns, from 132104 at 2 bits down to 1040 at 8.  Each of the two
        # groups spans two full chunks and a ragged third, and positive
        # values of similar size push every group sum past 2^24.
        depth = 2**24 // (QuantParams(bits).qmax * 127)
        g = 2 * depth + 3
        rng = np.random.default_rng(bits)
        w = rng.uniform(0.5, 1.0, (2, 2 * g)).astype(np.float32)
        a = rng.uniform(0.5, 1.0, (2 * g, 3)).astype(np.float32)
        self._assert_both_kernels_exact(w, a, bits, 8, g)
        self._assert_both_kernels_exact(w, a, 8, bits, g)


class TestNoNegativeZero:
    """The float64 accumulator starts at +0.0, so a zero output is +0.0 even
    where every term is a negative code times a zero activation code."""

    @pytest.mark.parametrize("g", [None, 4])
    def test_zero_activation_column(self, g):
        rng = np.random.default_rng(21)
        w = -rng.uniform(0.5, 1.0, (6, 8)).astype(np.float32)
        a = rng.normal(0, 1, (8, 3)).astype(np.float32)
        a[:, 1] = 0.0
        a[:, 2] = -0.0
        scheme = GroupingScheme.per_channel() if g is None else GroupingScheme.per_group(g)
        wq = quantize_weight(w, scheme, P8)
        aq = quantize_activation(a, P8)
        assert (wq.values < 0).all()
        out = (matmul_per_group if g else matmul_per_channel)(wq, aq)
        zeros = out[out == 0]
        assert zeros.size == 12 and not np.signbit(zeros).any()


class TestAccumulatorWidth:
    def test_extreme_codes_at_width_boundary_stay_exact(self):
        # All codes at +/-qmax with m = 2^18, where 2^18 * 127^2 exceeds a
        # signed 32-bit accumulator.  Column 0 is negative in its first half
        # and cancels exactly; column 1 sums to the closed form m * qmax^2.
        m = 2**18
        wq = quantize_weight(np.full((1, m), 5.0, dtype=np.float32), GroupingScheme.per_channel(), P8)
        a = np.full((m, 2), 7.0, dtype=np.float32)
        a[: m // 2, 0] *= -1
        aq = quantize_activation(a, P8)
        out = matmul_per_channel(wq, aq)
        assert out[0, 0] == 0.0
        sw, sa = float(wq.scales[0]), float(aq.scales[1])
        assert out[0, 1] == (float(m * 127 * 127) * sw) * sa
