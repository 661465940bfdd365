"""Scalar reference implementations used as independent test oracles.

These share the quantization contract (float32 scales, round half away
from zero, clamp to the symmetric code range) but are written as plain
Python loops so they stay independent of the vectorized library paths
they check.
"""

import math

import numpy as np


def scalar_quantize_dequantize(w, group_size, bits):
    """Row-wise grouped quantize/dequantize, one element at a time.

    Returns (codes, scales, dequantized, rmse): codes and scales as
    nested lists, dequantized as a float64 array, rmse accumulated
    sequentially in float64.
    """
    qmax = 2 ** (bits - 1) - 1
    n, m = w.shape
    assert m % group_size == 0
    codes = []
    scales = []
    deq = np.zeros((n, m), dtype=np.float64)
    total_sq = 0.0
    for i in range(n):
        row_codes = []
        row_scales = []
        for k in range(m // group_size):
            vals = [float(w[i, k * group_size + t]) for t in range(group_size)]
            max_abs = max(abs(v) for v in vals)
            s = float(np.float32(max_abs) / np.float32(qmax)) if max_abs > 0 else 1.0
            row_scales.append(s)
            for t, v in enumerate(vals):
                q = math.floor(abs(v / s) + 0.5)
                q = min(q, qmax)
                if v < 0:
                    q = -q
                d = q * s
                deq[i, k * group_size + t] = d
                total_sq += (v - d) ** 2
                row_codes.append(q)
        codes.append(row_codes)
        scales.append(row_scales)
    rmse = math.sqrt(total_sq / (n * m))
    return codes, scales, deq, rmse


def scalar_rmse(w, group_size, bits):
    """RMSE between w and its quantize/dequantize image, scalar loops only."""
    return scalar_quantize_dequantize(np.asarray(w), group_size, bits)[3]


def matmul_descending_k(w, a):
    """Float64 matmul accumulating the inner index in descending order.

    A deliberately different reduction order from the library reference,
    for cross-checking it to floating-point tolerance.
    """
    w64 = np.asarray(w, dtype=np.float64)
    a64 = np.asarray(a, dtype=np.float64)
    out = np.zeros((w64.shape[0], a64.shape[1]), dtype=np.float64)
    for k in reversed(range(w64.shape[1])):
        out += w64[:, k : k + 1] * a64[k : k + 1, :]
    return out


def matmul_grouped_int64(w_codes, w_scales, a_codes, a_scales):
    """Quantized product accumulated group by group in int64.

    ``w_scales`` is (N,) for per-channel or (N, G) for G equal column
    groups.  Each group's code product is summed in int64, rescaled by
    its weight scales and added into a float64 accumulator in ascending
    group order; the activation column scales are applied last.
    """
    w = np.asarray(w_codes, dtype=np.int64)
    a = np.asarray(a_codes, dtype=np.int64)
    n, m = w.shape
    s_w = np.asarray(w_scales, dtype=np.float64).reshape(n, -1)
    g = m // s_w.shape[1]
    out = np.zeros((n, a.shape[1]), dtype=np.float64)
    for k in range(s_w.shape[1]):
        part = w[:, k * g : (k + 1) * g] @ a[k * g : (k + 1) * g, :]
        out += part.astype(np.float64) * s_w[:, k : k + 1]
    return out * np.asarray(a_scales, dtype=np.float64)[None, :]
