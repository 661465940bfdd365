"""Quantized matrix multiplication with an exact core.

The weight is multiplied one block of k rows at a time.  A block's int8
codes are cast into one float32 buffer of a block's rows, taken once per
call from ``quantizer._scratch``, and multiplied with float32 BLAS while
they sit in cache, and the block's scaled product fills its k rows of the
float64 output.  A block has ``max(_MIN_ROWS, _BLOCK // M)`` rows, so the
buffer holds at most max(_BLOCK, 64 * M) float32 during a call, where a
cast of the whole weight would take four bytes per code and be read back
from memory.  The 64-row floor keeps a wide weight's blocks from
shrinking to one or two rows, each a product for which BLAS repacks the
whole activation.  A weight of at most 64 rows or ``_BLOCK`` codes is one
block.  A buffer of at most ``_BLOCK`` codes is this thread's kept block
scratch; a larger one (M > 1024, or a wide weight of at most 64 rows) is
the call's own, freed when it ends.  An output row depends only on its
own row's codes, and each of its elements goes through the same exact
steps, so the blocking changes no bit.

Every partial sum of a product over ``depth`` inner columns is an
integer no larger than depth * qmax_w * qmax_a, and a float32 significand
holds every integer up to 2^24, so a float32 product over at most
2^24 // (qmax_w * qmax_a) columns (1040 at 8 bits) is exact in any
summation order, whatever blocking or thread count BLAS picks.  One
routine serves both grouping modes.  The weight codes of the G groups of
g input columns are the (G, k, g) view ``reshape(k, G, g).transpose(1, 0,
2)`` of a block's cast, and the activation rows the (G, g, P) view, so a
batch of consecutive groups is one stacked ``np.matmul``: a group wider
than that depth is multiplied in chunks at the same column edges in
every group, and the chunk products are summed exactly in float64.  A
batch holds ``max(1, _BLOCK // (k * P))`` groups, so its float32 products
take at most ``quantizer._BLOCK`` elements (one group's, if that is
more), and lives in the block scratch too rather than in fresh memory per
call (one group's products of more than a block are the call's own).
The batch's integer products are cast once to float64 (an exact cast),
rescaled in place by their groups' weight scales, and added one group at
a time into a float64 accumulator, in ascending group order; the column
scales are then applied in place.
Per-channel is the one-group case, one plain product with the same
steps, so a per-group weight with g = M gives the same bits as
per-channel.  No step multiplies float32 by float64, which numpy would do
through a slower mixed-type loop.  Every product is added onto +0.0, so
no output is -0.0 even where every term is.  The kernel itself therefore
introduces no rounding: all error in a quantized product comes from
quantizing the operands.
"""

from __future__ import annotations

import numpy as np

from .quantizer import (
    _BLOCK,
    AXIS_COLUMN,
    AXIS_ROW,
    QuantizedTensor,
    _qmax,
    _scratch,
)

# Every integer of magnitude up to 2^24 is exact in float32.
_FLOAT32_EXACT = 2**24
# Fewest weight rows per row block.  A block of _BLOCK // M rows of a wide
# weight is one or two rows, and BLAS repacks the whole activation for every
# such product: without this floor, a 256 x 28672 x 32 product took 3.0x
# and a 64 x 65536 x 8 one 4.3x as long as with it (best of 6, one BLAS
# thread).
_MIN_ROWS = 64


def _check_operands(wq: QuantizedTensor, aq: QuantizedTensor) -> None:
    if wq.axis != AXIS_ROW:
        raise ValueError("weight operand must carry row-wise scales")
    if aq.axis != AXIS_COLUMN or aq.grouping.is_per_group:
        raise ValueError("activation operand must be per-channel with column-wise scales")
    if wq.values.shape[1] != aq.values.shape[0]:
        raise ValueError(
            f"inner dimensions do not match: {wq.values.shape} x {aq.values.shape}"
        )


def _exact_product(w: np.ndarray, a: np.ndarray, depth: int) -> np.ndarray:
    """The integer product ``w @ a`` of float32 codes (plain or stacked),
    exact: chunks of at most ``depth`` inner columns, each exact in float32,
    are summed in float64."""
    inner = w.shape[-1]
    if inner <= depth:
        return w @ a
    part = w[..., :depth] @ a[..., :depth, :]
    for lo in range(depth, inner, depth):
        part = np.add(part, w[..., lo : lo + depth] @ a[..., lo : lo + depth, :], dtype=np.float64)
    return part


def _add_groups(acc: np.ndarray, w: np.ndarray, a: np.ndarray, w_scales: np.ndarray,
                depth: int) -> None:
    """Add the scaled products of a batch of groups (stacked operands) into
    ``acc``, one group at a time in ascending order.  A batch within one
    chunk is computed in scratch (quantizer._scratch), which keeps a batch
    of at most _BLOCK products for the next call: a fresh 256-768 KiB
    temporary per call would be an mmap, or heap growth that is trimmed
    again, and page-fault on every call."""
    shape = (w.shape[0], w.shape[1], a.shape[2])
    if w.shape[2] <= depth:
        parts = _scratch("parts", shape, np.float64)
        parts[...] = np.matmul(w, a, out=_scratch("parts32", shape, np.float32))
    else:
        parts = _exact_product(w, a, depth).astype(np.float64, copy=False)
    parts *= w_scales
    for part in parts:
        acc += part


def _scaled_rows(codes: np.ndarray, w: np.ndarray, a: np.ndarray, w_scales: np.ndarray,
                 depth: int) -> np.ndarray:
    """The float64 product of a block of k weight rows (int8 ``codes``) and
    the activation cast ``a``, each group's exact product scaled by its
    weight scale and added onto +0.0 in ascending group order.  ``a`` is
    (M, P) per-channel, with (k, 1) weight scales, or the (G, g, P) group
    view, with (G, k, 1) scales.  The codes are cast into the float32 (k, M)
    ``w``, where the product reads them from cache."""
    w[...] = codes
    if a.ndim == 2:
        part = _exact_product(w, a, depth).astype(np.float64, copy=False)
        part *= w_scales
        part += 0.0  # turns -0.0 into +0.0 and leaves every other value
        return part
    k = codes.shape[0]
    groups, g, p = a.shape
    acc = np.zeros((k, p), dtype=np.float64)
    # Group j's codes are stack[j] (k x g), a strided view of the cast.
    stack = w.reshape(k, groups, g).transpose(1, 0, 2)
    batch = max(1, _BLOCK // max(k * p, 1))
    if batch >= groups:  # one batch, the views as they are
        _add_groups(acc, stack, a, w_scales, depth)
        return acc
    for j in range(0, groups, batch):
        _add_groups(acc, stack[j : j + batch], a[j : j + batch], w_scales[j : j + batch], depth)
    return acc


def _matmul(wq: QuantizedTensor, aq: QuantizedTensor) -> np.ndarray:
    n, m = wq.values.shape
    p = aq.values.shape[1]
    depth = _FLOAT32_EXACT // (_qmax(wq.bits) * _qmax(aq.bits))
    a = aq.values.astype(np.float32)
    groups = m // wq.grouping.group_size if wq.grouping.is_per_group else 1
    w_scales = wq.scales.astype(np.float64).reshape(n, groups)
    if groups != 1:
        a = a.reshape(groups, wq.grouping.group_size, p)
        w_scales = w_scales.T[:, :, None]
    rows = n if n <= _MIN_ROWS or n * m <= _BLOCK else max(_MIN_ROWS, _BLOCK // m)
    cast = _scratch("codes", (rows, m), np.float32)  # one per call, sliced per block
    if rows == n:  # one block, the rows as they are
        acc = _scaled_rows(wq.values, cast, a, w_scales, depth)
    else:
        acc = np.empty((n, p), dtype=np.float64)
        for r in range(0, n, rows):
            codes = wq.values[r : r + rows]
            acc[r : r + rows] = _scaled_rows(codes, cast[: len(codes)], a,
                                             w_scales[..., r : r + rows, :], depth)
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

    One block of weight rows at a time, batches of consecutive groups of g
    columns are multiplied exactly in float32 as one stacked product, in
    chunks of at most 2^24 // (qmax_w * qmax_a) columns whose integer
    products are summed in float64; each group's product is rescaled by
    its own weight scale and added into a float64 accumulator in ascending
    group order, and the column scales are applied last.  With g = M this
    is bit-identical to :func:`matmul_per_channel`.
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
