"""Quantized matrix multiplication with an exact core.

The int8 codes are cast to float32 once and multiplied with float32
BLAS.  Every partial sum of a product over ``depth`` inner columns is an
integer no larger than depth * qmax_w * qmax_a, and a float32 significand
holds every integer up to 2^24, so a float32 product over at most
2^24 // (qmax_w * qmax_a) columns (1040 at 8 bits) is exact in any
summation order.  One loop serves both grouping modes: each group of g
input columns is multiplied in chunks of at most that depth, the chunk
products are summed exactly in float64, and the group's integer product,
cast once to float64 (an exact cast), is rescaled in place by the group's
weight scales and added into a float64 accumulator in ascending group
order; the column scales are then applied in place.  No step multiplies
float32 by float64, which numpy would do through a slower mixed-type
loop.  The accumulator starts at +0.0, so no output is -0.0 even where
every term is.  The kernel itself therefore
introduces no rounding: all error in a quantized product comes from
quantizing the operands.  Per-channel is the single-group case, so a
per-group weight with g = M gives the same bits as per-channel.
"""

from __future__ import annotations

import numpy as np

from .quantizer import AXIS_COLUMN, AXIS_ROW, QuantizedTensor, _qmax

# Every integer of magnitude up to 2^24 is exact in float32.
_FLOAT32_EXACT = 2**24


def _check_operands(wq: QuantizedTensor, aq: QuantizedTensor) -> None:
    if wq.axis != AXIS_ROW:
        raise ValueError("weight operand must carry row-wise scales")
    if aq.axis != AXIS_COLUMN or aq.grouping.is_per_group:
        raise ValueError("activation operand must be per-channel with column-wise scales")
    if wq.values.shape[1] != aq.values.shape[0]:
        raise ValueError(
            f"inner dimensions do not match: {wq.values.shape} x {aq.values.shape}"
        )


def _matmul(wq: QuantizedTensor, aq: QuantizedTensor) -> np.ndarray:
    n, m = wq.values.shape
    g = wq.grouping.resolved_group_size(m)
    depth = _FLOAT32_EXACT // (_qmax(wq.bits) * _qmax(aq.bits))
    w = wq.values.astype(np.float32)
    a = aq.values.astype(np.float32)
    w_scales = wq.scales.astype(np.float64).reshape(n, m // g)
    acc = np.zeros((n, a.shape[1]), dtype=np.float64)
    first = min(g, depth)
    # Column ranges, within a group, of the chunks after the first; empty
    # unless g > depth.  Their products are summed in float64.
    more = [(lo, min(lo + depth, g)) for lo in range(depth, g, depth)]
    for k in range(m // g):
        s = k * g
        part = w[:, s : s + first] @ a[s : s + first]
        for lo, hi in more:
            part = np.add(part, w[:, s + lo : s + hi] @ a[s + lo : s + hi], dtype=np.float64)
        part = part.astype(np.float64, copy=False)
        part *= w_scales[:, k, None]
        acc += part
    acc *= aq.scales.astype(np.float64)
    return acc


def matmul_per_channel(wq: QuantizedTensor, aq: QuantizedTensor) -> np.ndarray:
    """Multiply per-channel quantized weight (N x M) and activation (M x P).

    Returns the dequantized float64 product: the exact code product
    scaled by s_w[i] * s_a[j] per output element.
    """
    _check_operands(wq, aq)
    if wq.grouping.is_per_group:
        raise ValueError("weight operand is per-group; use matmul_per_group")
    return _matmul(wq, aq)


def matmul_per_group(wq: QuantizedTensor, aq: QuantizedTensor) -> np.ndarray:
    """Multiply a per-group quantized weight by a per-channel activation.

    Each group of g columns is multiplied exactly in float32, in chunks of
    at most 2^24 // (qmax_w * qmax_a) columns whose integer products are
    summed in float64, rescaled by its own weight scale, and added into a
    float64 accumulator; the column scales are applied last.  With g = M
    this is bit-identical to :func:`matmul_per_channel`.
    """
    _check_operands(wq, aq)
    if not wq.grouping.is_per_group:
        raise ValueError("weight operand is per-channel; use matmul_per_channel")
    return _matmul(wq, aq)


def reference_matmul_fp(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Float64 reference product with a fixed accumulation order.

    Every output element is accumulated over the inner index in ascending
    order, independent of any BLAS backend, so the result is reproducible
    and usable as an oracle for the quantized kernels.
    """
    w = np.asarray(w)
    a = np.asarray(a)
    if w.ndim != 2 or a.ndim != 2 or w.shape[1] != a.shape[0]:
        raise ValueError(f"dimension mismatch: {w.shape} x {a.shape}")
    w64 = w.astype(np.float64)
    a64 = a.astype(np.float64)
    out = np.zeros((w.shape[0], a.shape[1]), dtype=np.float64)
    for k in range(w.shape[1]):
        out += w64[:, k : k + 1] * a64[k : k + 1, :]
    return out
