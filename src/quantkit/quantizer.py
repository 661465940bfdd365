"""Symmetric n-bit integer quantization with per-channel and per-group scales.

Weights are quantized row-wise: per-channel shares one scale factor per
output row, per-group splits each row into contiguous groups of
``group_size`` input columns with one scale each.  Activations are
quantized column-wise with one scale per column.  Scale factors are
computed and stored in float32; integer codes always fit int8 because the
supported bit widths top out at 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PER_CHANNEL = "per_channel"
PER_GROUP = "per_group"

AXIS_ROW = "row"
AXIS_COLUMN = "column"

_MIN_BITS = 2
_MAX_BITS = 8

# Elements per block of a layer pass.  A block's working set (its float32
# rows, |w|, the float64 copy and the float64 buffer, about 1.5 MiB) stays
# inside a 2 MiB per-core L2 cache, and bounds a pass's memory per thread.
_BLOCK = 1 << 16
# numpy's PW_BLOCKSIZE: np.sum splits no range of up to 128 elements, so a
# smaller block would split where np.sum does not (see _pairwise).
assert _BLOCK >= 128


def _qmax(bits: int) -> int:
    return (1 << (bits - 1)) - 1


def _check_bits(bits) -> None:
    if not isinstance(bits, int) or not _MIN_BITS <= bits <= _MAX_BITS:
        raise ValueError(f"bits must be an integer in [{_MIN_BITS}, {_MAX_BITS}], got {bits!r}")


@dataclass(frozen=True)
class QuantParams:
    """Bit width for symmetric integer quantization.

    The representable code range is [-qmax, qmax] with
    qmax = 2^(bits-1) - 1; the negative endpoint -2^(bits-1) is never
    emitted so the grid stays sign-symmetric.
    """

    bits: int = 8

    def __post_init__(self):
        _check_bits(self.bits)

    @property
    def qmax(self) -> int:
        return _qmax(self.bits)


@dataclass(frozen=True)
class GroupingScheme:
    """How elements share scale factors along the grouped dimension.

    ``per_channel`` uses one scale per row (weights) or per column
    (activations), i.e. the group spans the whole input dimension.
    ``per_group`` partitions each row into contiguous groups of
    ``group_size`` elements.  A per-group scheme whose size equals the
    input dimension is numerically identical to per-channel.
    """

    mode: str
    group_size: int | None = None

    def __post_init__(self):
        if self.mode not in (PER_CHANNEL, PER_GROUP):
            raise ValueError(f"unknown grouping mode {self.mode!r}")
        if self.mode == PER_GROUP:
            size = self.group_size
            if isinstance(size, bool) or not isinstance(size, int) or size < 1:
                raise ValueError(f"per-group size must be a positive integer, got {size!r}")
        elif self.group_size is not None:
            raise ValueError("per-channel grouping takes no group size")

    @classmethod
    def per_channel(cls) -> "GroupingScheme":
        return cls(PER_CHANNEL)

    @classmethod
    def per_group(cls, group_size: int) -> "GroupingScheme":
        return cls(PER_GROUP, group_size)

    @property
    def is_per_group(self) -> bool:
        return self.mode == PER_GROUP

    def validate_for(self, dim: int) -> None:
        """Check that this scheme tiles an input dimension of size ``dim``."""
        if self.is_per_group and dim % self.group_size != 0:
            raise ValueError(
                f"group size {self.group_size} does not divide dimension {dim}"
            )

    def resolved_group_size(self, dim: int) -> int:
        return self.group_size if self.is_per_group else dim

    def to_json(self) -> dict:
        if self.is_per_group:
            return {"mode": PER_GROUP, "group_size": self.group_size}
        return {"mode": PER_CHANNEL}

    @classmethod
    def from_json(cls, obj: dict) -> "GroupingScheme":
        if not isinstance(obj, dict) or "mode" not in obj:
            raise ValueError(f"malformed grouping descriptor: {obj!r}")
        if obj["mode"] == PER_GROUP:
            return cls.per_group(obj.get("group_size"))
        if obj["mode"] == PER_CHANNEL:
            if obj.get("group_size") is not None:
                raise ValueError("per-channel descriptor must not carry a group size")
            return cls.per_channel()
        raise ValueError(f"unknown grouping mode {obj['mode']!r}")


# Every column-wise (activation) tensor's grouping; frozen, so one is shared.
_PER_CHANNEL = GroupingScheme.per_channel()


def fit_group_size(dim: int, group_size: int) -> int:
    """Largest divisor of ``dim`` that is <= ``group_size``.

    Used as the fallback when a requested group size does not divide a
    layer's input dimension; 1 always qualifies.
    """
    if dim < 1 or group_size < 1:
        raise ValueError("dim and group_size must be positive")
    g = min(group_size, dim)
    while dim % g:
        g -= 1
    return g


@dataclass
class QuantizedTensor:
    """Integer codes plus the scale factors needed to reconstruct them.

    ``axis`` records which dimension the scales run along: "row" for
    weights (scales shaped (N,) per-channel or (N, M/g) per-group) and
    "column" for activations (scales shaped (P,)).

    The public constructor checks everything: axis, bits, the scale shape,
    that every scale is positive and finite, and that every code lies in
    [-qmax, qmax].  Codes and scales that come from outside the library,
    such as a quantized model's records read from disk
    (``planner.read_quantized_layer``), always pass through it.  Only
    ``quantize_weight`` and ``quantize_activation`` skip it, through
    ``_unchecked``: their scales come from ``_scales_from_amax``, which
    rejects 0 and inf, and ``_encode_into`` clamps their codes to
    [-qmax, qmax], so the scans would find nothing.
    """

    values: np.ndarray
    scales: np.ndarray
    grouping: GroupingScheme
    bits: int
    axis: str

    @classmethod
    def _unchecked(cls, values, scales, grouping, bits, axis) -> "QuantizedTensor":
        """A tensor built from the library's own encoder output, without the checks."""
        qt = object.__new__(cls)
        qt.values, qt.scales, qt.grouping, qt.bits, qt.axis = values, scales, grouping, bits, axis
        return qt

    def __post_init__(self):
        if self.axis not in (AXIS_ROW, AXIS_COLUMN):
            raise ValueError(f"unknown axis {self.axis!r}")
        if self.values.ndim != 2:
            raise ValueError("quantized values must be 2-D")
        _check_bits(self.bits)
        qmax = _qmax(self.bits)
        n, m = self.values.shape
        if self.axis == AXIS_ROW:
            self.grouping.validate_for(m)
            expect = (n, m // self.grouping.group_size) if self.grouping.is_per_group else (n,)
        else:
            if self.grouping.is_per_group:
                raise ValueError("column-wise tensors are per-channel only")
            expect = (m,)
        if self.scales.shape != expect:
            raise ValueError(
                f"scale shape {self.scales.shape} does not match grouping/axis (expected {expect})"
            )
        s, q = self.scales, self.values
        if s.size and not 0.0 < float(s.min()) <= float(s.max()) < np.inf:
            raise ValueError("scale factors must be positive and finite")
        if q.size and not -qmax <= int(q.min()) <= int(q.max()) <= qmax:
            raise ValueError(f"quantized values exceed qmax={qmax}")


def _as_matrix(x: np.ndarray, what: str) -> np.ndarray:
    """x as a non-empty 2-D array.  Its finiteness is the caller's check."""
    x = np.asarray(x)
    if x.ndim != 2 or 0 in x.shape:
        raise ValueError(f"{what} must be a non-empty 2-D matrix")
    return x


def _finite_max(a: np.ndarray, what: str):
    """a.max(), where a is |x| or maxima of |x| that cover every element of x:
    a NaN or Inf in x shows in it, so this is x's finiteness check."""
    top = a.max()
    if not math.isfinite(top):
        raise ValueError(f"{what} contains NaN or Inf")
    return top


def _row_blocks(n: int, m: int) -> list[slice]:
    """Consecutive row slices of an n x m layer, each of at most _BLOCK
    elements or a single row."""
    step = max(1, _BLOCK // m)
    return [slice(r, r + step) for r in range(0, n, step)]


def _pairwise(lo: int, hi: int, leaf) -> np.ndarray:
    """Sum of leaf(a, b) over leaves [a, b) that tile [lo, hi), split the way
    np.add.reduce splits a contiguous float64 sum (pairwise, at half the
    length rounded down to a multiple of 8), into leaves of at most _BLOCK
    elements.  When each leaf returns np.sum over its range, the total is
    np.sum over [lo, hi), to the bit."""
    n = hi - lo
    if n <= _BLOCK:
        return leaf(lo, hi)
    half = n // 2 - (n // 2) % 8
    return _pairwise(lo, lo + half, leaf) + _pairwise(lo + half, hi, leaf)


def _scales_from_amax(amax: np.ndarray, params: QuantParams) -> np.ndarray:
    """float32 scales amax / qmax, 1.0 for all-zero groups; no inf, 0 or
    negative scales."""
    if amax.dtype.kind == "i" and amax.min() < 0:
        # np.abs wraps a signed integer's minimum to itself.
        raise ValueError("scale factors must be positive and finite")
    if amax.dtype.itemsize > 4 and float(amax.max()) > float(np.finfo(np.float32).max):
        raise ValueError(f"max_abs {float(amax.max())!r} exceeds the float32 range of scales")
    scales = amax.astype(np.float32) / np.float32(params.qmax)
    if not scales.all():
        scales[amax == 0] = np.float32(1.0)
        if not scales.all():
            bad = float(amax[scales == 0].max())
            raise ValueError(f"nonzero max_abs {bad!r} underflows its float32 scale to 0")
    return scales


def _encode_into(
    out: np.ndarray, x: np.ndarray, scales: np.ndarray, params: QuantParams, codes=None
) -> np.ndarray:
    """Codes of x / scales: floor(|x/s| + 0.5) with x's sign (ties away from
    zero), clamped to qmax because x/s can land at qmax + ulp.  The work is
    done in float64 in ``out``, which must not alias x.

    Without ``codes`` the codes are written into ``out`` as floats.  With an
    integer ``codes`` array (int8) they are cast into it instead, and that
    path has no floor pass: |x/s| + 0.5 is clamped to qmax first, and the
    cast truncates toward zero, which on a non-negative value is the floor,
    so the integers are the same.
    """
    np.divide(x, scales, out=out)
    np.abs(out, out=out)
    out += 0.5
    if codes is None:
        np.floor(out, out=out)
        codes = out
    np.minimum(out, params.qmax, out=out)
    return np.copysign(out, x, out=codes, casting="unsafe")


def quantize_weight(
    w: np.ndarray, grouping: GroupingScheme, params: QuantParams
) -> QuantizedTensor:
    """Quantize an N x M weight matrix with row-wise scale sharing.

    Per-channel yields one scale per row; per-group(g) partitions each row
    into M/g contiguous column groups (g must divide M) with one scale
    each.  Per-group with g = M produces the same codes and scale values
    as per-channel.  Group maxima and codes are taken row block by row
    block (_row_blocks), so the float64 work stays in cache.
    """
    w = _as_matrix(w, "weight")
    n, m = w.shape
    grouping.validate_for(m)
    g = grouping.resolved_group_size(m)

    w3 = w.reshape(n, m // g, g)
    blocks = _row_blocks(n, m)
    amax = [np.abs(w3[b]).max(axis=2) for b in blocks]
    amax = np.concatenate(amax) if len(amax) > 1 else amax[0]
    _finite_max(amax, "weight")
    scales = _scales_from_amax(amax, params)
    s64 = scales.astype(np.float64)[:, :, None]
    q = np.empty(w3.shape, np.int8)
    buf = np.empty(w3[blocks[0]].shape)
    for b in blocks:
        x = w3[b]
        _encode_into(buf[: len(x)], x, s64[b], params, q[b])

    if not grouping.is_per_group:
        scales = scales.reshape(n)
    return QuantizedTensor._unchecked(q.reshape(n, m), scales, grouping, params.bits, AXIS_ROW)


def quantize_activation(a: np.ndarray, params: QuantParams) -> QuantizedTensor:
    """Quantize an M x P activation matrix with one scale per column.

    The column maxima double as the finiteness check, and the codes are
    encoded straight into the int8 result.
    """
    a = _as_matrix(a, "activation")
    amax = np.abs(a).max(axis=0)
    _finite_max(amax, "activation")
    scales = _scales_from_amax(amax, params)
    q = np.empty(a.shape, np.int8)
    _encode_into(np.empty(a.shape), a, scales.astype(np.float64), params, q)
    return QuantizedTensor._unchecked(q, scales, _PER_CHANNEL, params.bits, AXIS_COLUMN)


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct float values as code * scale, in float64.

    Row scales broadcast over the (N, G, g) code view; per-channel is G = 1.
    """
    q = qt.values.astype(np.float64)
    s = qt.scales.astype(np.float64)
    if qt.axis == AXIS_ROW:
        n, m = q.shape
        s = s.reshape(n, -1, 1)
        return (q.reshape(n, s.shape[1], -1) * s).reshape(n, m)
    return q * s[None, :]
