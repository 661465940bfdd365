"""Quantized matmul kernels against the float64 and int64 references.

Both kernels multiply the int8 codes one block of weight rows at a time,
exactly in float32 chunks of at most 2^24 // (qmax_w * qmax_a) columns, a
batch of groups per stacked product, and accumulate in float64 in
ascending group order, so a quantized product must equal the grouped
int64 oracle byte for byte and match the reference product of the
dequantized operands up to float reassociation; any larger deviation is a
kernel bug, not quantization error.
"""

import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quantkit
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
from quantkit import kernels
from quantkit.quantizer import _BLOCK, AXIS_COLUMN, AXIS_ROW, QuantizedTensor

from oracles import matmul_descending_k, matmul_grouped_int64

P8 = QuantParams(8)


def random_operands(rng, n, m, p, wall_columns=()):
    w = rng.normal(0, 1, (n, m)).astype(np.float32)
    for c in wall_columns:
        w[:, c] = rng.uniform(50, 100, n) * rng.choice([-1.0, 1.0], n)
    a = rng.normal(0, 1, (m, p)).astype(np.float32)
    return w, a


def batches(n, m, p, g):
    """Groups per stacked product, and the number of groups, of an
    (n x m) @ (m x p) product at group size g (the kernel's batch rule)."""
    return max(1, _BLOCK // (n * p)), m // g


def row_blocks(n, m):
    """Rows per row block, and the number of blocks, of an (n x m) weight
    (the kernel's row-block rule)."""
    rows = max(kernels._MIN_ROWS, kernels._BLOCK // m)
    return rows, -(-n // rows)


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

    @pytest.mark.parametrize("kernel", [matmul_per_channel, matmul_per_group])
    @pytest.mark.parametrize("swapped,match", [
        ("weight", "weight operand must carry row-wise scales"),
        ("activation", "activation operand must be per-channel with column-wise scales"),
    ])
    def test_operands_on_the_wrong_axis_rejected(self, kernel, swapped, match):
        wq = quantize_weight(np.ones((4, 4), dtype=np.float32), GroupingScheme.per_channel(), P8)
        aq = quantize_activation(np.ones((4, 4), dtype=np.float32), P8)
        operands = (aq, aq) if swapped == "weight" else (wq, wq)
        with pytest.raises(ValueError, match=match):
            kernel(*operands)

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

    @pytest.mark.parametrize("n,p", [(0, 3), (3, 0), (0, 0)])
    def test_empty_operands_give_an_empty_product(self, n, p):
        wq = QuantizedTensor(np.zeros((n, 4), np.int8), np.ones((n, 2), np.float32),
                             GroupingScheme.per_group(2), 8, AXIS_ROW)
        aq = QuantizedTensor(np.zeros((4, p), np.int8), np.ones(p, np.float32),
                             GroupingScheme.per_channel(), 8, AXIS_COLUMN)
        out = matmul_per_group(wq, aq)
        assert out.shape == (n, p) and out.dtype == np.float64

    @pytest.mark.parametrize("n,p", [(3, 4), (0, 3), (3, 0)])
    def test_zero_inner_dimension_gives_a_zero_product(self, n, p):
        # A weight with no columns: both kernels give the (n, p) +0.0 product.
        aq = QuantizedTensor(np.zeros((0, p), np.int8), np.ones(p, np.float32),
                             GroupingScheme.per_channel(), 8, AXIS_COLUMN)
        for grouping, scale_shape, kernel in (
            (GroupingScheme.per_channel(), (n,), matmul_per_channel),
            (GroupingScheme.per_group(2), (n, 0), matmul_per_group),
        ):
            wq = QuantizedTensor(np.zeros((n, 0), np.int8), np.ones(scale_shape, np.float32),
                                 grouping, 8, AXIS_ROW)
            out = kernel(wq, aq)
            assert out.dtype == np.float64
            assert out.tobytes() == np.zeros((n, p)).tobytes()

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

    @settings(max_examples=40, deadline=None)
    @given(
        block=st.sampled_from([128, 256, 1024]),
        n=st.integers(1, 260),
        g=st.sampled_from([1, 3, 16, 700]),
        groups=st.integers(1, 6),
        p=st.integers(1, 4),
        bits_w=st.sampled_from([7, 8]),
        bits_a=st.sampled_from([7, 8]),
        positive=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # m = 2: blocks of 256 // 2 = 128 rows, above the floor; the last has 72.
    @example(block=256, n=200, g=1, groups=2, p=3, bits_w=8, bits_a=8, positive=False, seed=0)
    # m = 300 > block: the 64-row floor, with g = 1 (one group per batch) and
    # a last block of 22 rows.
    @example(block=128, n=150, g=1, groups=300, p=3, bits_w=8, bits_a=8, positive=False, seed=1)
    # m = 2100 > depth 1040 at 8 bits: three chunks, and sums of positive
    # codes past 2^24; blocks of 64 rows, the last of 2.
    @example(block=256, n=130, g=700, groups=3, p=2, bits_w=8, bits_a=8, positive=True, seed=2)
    # m = 4900 > depth 4227 at 7 bits, per-channel and in groups of 700.
    @example(block=256, n=130, g=700, groups=7, p=2, bits_w=7, bits_a=7, positive=True, seed=3)
    def test_row_blocks_equal_grouped_int64_oracle(self, block, n, g, groups, p, bits_w, bits_a,
                                                   positive, seed):
        # With the kernel's block shrunk, small weights span many row blocks.
        m = g * groups
        rng = np.random.default_rng(seed)
        if positive:
            # Past one chunk, a group's sum of positive codes passes 2^24, so
            # a chunk edge that moved would show.
            w = rng.uniform(0.5, 1.0, (n, m)).astype(np.float32)
            a = rng.uniform(0.5, 1.0, (m, p)).astype(np.float32)
        else:
            w, a = random_operands(rng, n, m, p, wall_columns=(int(rng.integers(m)),))
            w *= (10.0 ** rng.uniform(-3, 3, m)).astype(np.float32)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_BLOCK", block)
            self._assert_both_kernels_exact(w, a, bits_w, bits_a, g)

    @pytest.mark.parametrize("g", [1, 2, 4, 8])
    @pytest.mark.parametrize(
        "n,m,p",
        [
            pytest.param(64, 128, 300, id="ragged_batches"),
            pytest.param(128, 64, 300, id="one_group_per_batch"),
        ],
    )
    def test_several_batches(self, n, m, p, g):
        batch, groups = batches(n, m, p, g)
        assert groups > batch and (batch == 1 or groups % batch)
        rng = np.random.default_rng(g)
        w, a = random_operands(rng, n, m, p, wall_columns=(5, 77 % m))
        w *= (10.0 ** rng.uniform(-3, 3, m)).astype(np.float32)
        self._assert_both_kernels_exact(w, a, 8, 8, g)

    @pytest.mark.parametrize(
        "bits,n,p",
        [
            pytest.param(8, 2, 3, id="8bit_one_batch"),
            pytest.param(8, 128, 200, id="8bit_ragged_batches"),
            pytest.param(7, 2, 3, id="7bit_one_batch"),
        ],
    )
    def test_groups_that_each_cross_the_chunk(self, bits, n, p):
        # Three groups of g columns, the first odd count past one chunk
        # (1041 at 8 bits, 4229 at 7), so each needs a second chunk.  Every
        # code is +/-qmax, so a group's product is +/-g * qmax^2, odd and
        # above 2^24: float32 cannot hold it.  Group magnitudes differ, so
        # the scales do too.
        qmax = QuantParams(bits).qmax
        g = (2**24 // (qmax * qmax) + 1) | 1
        m = 3 * g
        rng = np.random.default_rng(bits)
        signs = rng.choice([-1.0, 1.0], (n, 3)) * 10.0 ** rng.uniform(-2, 2, 3)
        w = np.repeat(signs, g, axis=1).astype(np.float32)
        a = np.tile(rng.choice([-1.0, 1.0], p), (m, 1)).astype(np.float32)
        if n * p > 6:
            assert batches(n, m, p, g) == (2, 3)
        self._assert_both_kernels_exact(w, a, bits, bits, g)


class TestBlasThreads:
    def test_bytes_do_not_depend_on_blas_threads(self):
        # The thread counts must be set before numpy loads, so each product
        # runs in its own interpreter.  Each group's product (64 x 32 x 300)
        # is large enough for OpenBLAS to split it over two threads, and the
        # eight groups run in three batches.  The 1024 x 1024 x 8 products
        # run in 16 row blocks.
        script = textwrap.dedent("""
            import hashlib
            import numpy as np
            from quantkit import (GroupingScheme, QuantParams, matmul_per_channel,
                                  matmul_per_group, quantize_activation, quantize_weight)
            rng = np.random.default_rng(18)
            digest = hashlib.sha256()
            for n, m, p, g in ((64, 256, 300, 32), (1024, 1024, 8, 128)):
                w = rng.normal(0, 1, (n, m)).astype(np.float32)
                w[:, 9] *= 80.0
                a = rng.normal(0, 1, (m, p)).astype(np.float32)
                aq = quantize_activation(a, QuantParams(8))
                for grouping, kernel in ((GroupingScheme.per_group(g), matmul_per_group),
                                         (GroupingScheme.per_channel(), matmul_per_channel)):
                    wq = quantize_weight(w, grouping, QuantParams(8))
                    digest.update(kernel(wq, aq).tobytes())
            print(digest.hexdigest())
        """)
        assert batches(64, 256, 300, 32) == (3, 8)
        assert row_blocks(1024, 1024) == (64, 16)
        src = os.path.dirname(os.path.dirname(quantkit.__file__))
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                    text=True, env=env, timeout=120)
            assert result.returncode == 0, result.stderr
            digests.add(result.stdout.strip())
        assert len(digests) == 1


def traced_peak(kernel, wq, aq):
    """The traced peak of one product run on a new thread, whose block
    scratch starts empty."""
    tracemalloc.start()
    try:
        worker = threading.Thread(target=kernel, args=(wq, aq))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConcurrentProducts:
    def test_threads_multiplying_at_once_get_the_serial_bytes(self):
        # Each thread casts its row blocks into its own scratch; products of
        # differently shaped weights run at once and in shuffled orders.
        rng = np.random.default_rng(24)
        cases = []
        for n, m, p, g in ((130, 1024, 3, None), (200, 512, 5, 16), (70, 2048, 2, 128)):
            w, a = random_operands(rng, n, m, p, wall_columns=(7,))
            assert row_blocks(n, m)[1] > 1
            scheme = GroupingScheme.per_channel() if g is None else GroupingScheme.per_group(g)
            wq, aq = quantize_weight(w, scheme, P8), quantize_activation(a, P8)
            kernel = matmul_per_channel if g is None else matmul_per_group
            cases.append((kernel, wq, aq, kernel(wq, aq).tobytes()))
        wrong = []

        def multiplier(seed):
            for i in np.random.default_rng(seed).permutation(len(cases) * 150) % len(cases):
                kernel, wq, aq, expected = cases[i]
                if kernel(wq, aq).tobytes() != expected:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=multiplier, args=(k,)) for k in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert wrong == []


class TestBatchMemory:
    def test_per_group_peak_is_its_operands_and_one_batch(self):
        # At g = 1 the 256 groups run 8 per batch.  The 256 x 256 weight is
        # one row block.  The peak holds the float32 cast of the activation
        # codes, the weight codes' float32 cast in the block scratch, the
        # float64 weight scales, the float64 output, one batch's float32 and
        # float64 products and numpy's ufunc buffer (8 bytes per element);
        # one stack of all 256 groups would hold 8 MB of float32 and 16 MB
        # of float64 products.
        n, m, p = 256, 256, 32
        rng = np.random.default_rng(3)
        w, a = random_operands(rng, n, m, p)
        wq = quantize_weight(w, GroupingScheme.per_group(1), P8)
        aq = quantize_activation(a, P8)
        operands = 4 * (n * m + m * p) + 8 * wq.scales.size + 8 * n * p
        one_batch = (4 + 8) * _BLOCK
        peak = traced_peak(matmul_per_group, wq, aq)
        assert peak < operands + one_batch + 8 * np.getbufsize() + 64 * 1024

    @pytest.mark.parametrize("g", [None, 128])
    def test_row_blocks_peak_below_the_weight_cast(self, g):
        # 16 row blocks of 64 rows: the kernel holds one block's 256 KiB
        # float32 cast, never the 4 MiB float32 cast of all the codes.
        n, m, p = 1024, 1024, 8
        assert row_blocks(n, m) == (64, 16)
        rng = np.random.default_rng(4)
        w, a = random_operands(rng, n, m, p)
        scheme = GroupingScheme.per_channel() if g is None else GroupingScheme.per_group(g)
        wq = quantize_weight(w, scheme, P8)
        aq = quantize_activation(a, P8)
        kernel = matmul_per_channel if g is None else matmul_per_group
        assert traced_peak(kernel, wq, aq) < 4 * n * m


def traced_left(call):
    """The result of ``call``, run on a new thread whose block scratch starts
    empty, and the traced bytes the thread still holds once the call has
    returned, apart from the arrays it returned: what it leaves in the
    thread's scratch."""
    held = []

    def run():
        out = call()
        arrays = [out] if isinstance(out, np.ndarray) else [out.values, out.scales]
        held.append((out, tracemalloc.get_traced_memory()[0] - sum(x.nbytes for x in arrays)))

    tracemalloc.start()
    try:
        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        return held[0]
    finally:
        tracemalloc.stop()


class TestScratchLeftBehind:
    """A 64-row weight is one row block however wide, so its whole float32
    cast goes through the block scratch: 16 MiB at 64 x 65536.  A call
    reuses the scratch across its blocks but keeps no block cast of more
    than _BLOCK codes past its return."""

    @pytest.fixture(scope="class")
    def operands(self):
        rng = np.random.default_rng(30)
        w, a = random_operands(rng, 64, 65536, 8)
        return w, a

    @pytest.mark.parametrize("g", [None, 128])
    def test_wide_one_block_product(self, operands, g):
        w, a = operands
        scheme = GroupingScheme.per_channel() if g is None else GroupingScheme.per_group(g)
        wq, aq = quantize_weight(w, scheme, P8), quantize_activation(a, P8)
        kernel = matmul_per_channel if g is None else matmul_per_group
        expected = kernel(wq, aq)
        out, left = traced_left(lambda: kernel(wq, aq))
        assert out.tobytes() == expected.tobytes()
        # At most a _BLOCK-code cast and one batch's float32 and float64
        # products (per-group only), against 16 MiB before.
        assert left < (4 + 4 + 8) * _BLOCK + 64 * 1024

    def test_tall_activation(self, operands):
        # quantize_activation works in this thread's scratch; an activation
        # larger than a layer pass's block does not keep it.
        _, a = operands
        expected = quantize_activation(a, P8)
        aq, left = traced_left(lambda: quantize_activation(a, P8))
        assert aq.values.tobytes() == expected.values.tobytes()
        assert left < 64 * 1024


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


    @pytest.mark.parametrize("g", [1, 4])
    def test_zero_activation_columns_across_batches(self, g):
        n, m, p = 64, 128, 300
        batch, groups = batches(n, m, p, g)
        assert groups > batch > 1 and groups % batch
        rng = np.random.default_rng(22)
        w = -rng.uniform(0.5, 1.0, (n, m)).astype(np.float32)
        a = rng.normal(0, 1, (m, p)).astype(np.float32)
        a[:, 1] = 0.0
        a[:, 299] = -0.0
        wq = quantize_weight(w, GroupingScheme.per_group(g), P8)
        aq = quantize_activation(a, P8)
        assert (wq.values < 0).all()
        out = matmul_per_group(wq, aq)
        zeros = out[out == 0]
        assert zeros.size == 2 * n and not np.signbit(zeros).any()

    @pytest.mark.parametrize("g", [None, 1, 4])
    def test_zero_activation_columns_across_row_blocks(self, g):
        n, m, p = 130, 1024, 3
        assert row_blocks(n, m) == (64, 3)  # the last block has 2 rows
        rng = np.random.default_rng(23)
        w = -rng.uniform(0.5, 1.0, (n, m)).astype(np.float32)
        a = rng.normal(0, 1, (m, p)).astype(np.float32)
        a[:, 1] = 0.0
        a[:, 2] = -0.0
        scheme = GroupingScheme.per_channel() if g is None else GroupingScheme.per_group(g)
        wq = quantize_weight(w, scheme, P8)
        aq = quantize_activation(a, P8)
        assert (wq.values < 0).all()
        out = (matmul_per_group if g else matmul_per_channel)(wq, aq)
        zeros = out[out == 0]
        assert zeros.size == 2 * n and not np.signbit(zeros).any()


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
