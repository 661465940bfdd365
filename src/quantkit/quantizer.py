"""Symmetric n-bit integer quantization with per-channel and per-group scales.

Weights are quantized row-wise: per-channel shares one scale factor per
output row, per-group splits each row into contiguous groups of
``group_size`` input columns with one scale each.  Activations are
quantized column-wise with one scale per column.  Scale factors are
computed and stored in float32; integer codes always fit int8 because the
supported bit widths top out at 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PER_CHANNEL = "per_channel"
PER_GROUP = "per_group"

AXIS_ROW = "row"
AXIS_COLUMN = "column"

_MIN_BITS = 2
_MAX_BITS = 8


@dataclass(frozen=True)
class QuantParams:
    """Bit width for symmetric integer quantization.

    The representable code range is [-qmax, qmax] with
    qmax = 2^(bits-1) - 1; the negative endpoint -2^(bits-1) is never
    emitted so the grid stays sign-symmetric.
    """

    bits: int = 8

    def __post_init__(self):
        if not isinstance(self.bits, int) or not _MIN_BITS <= self.bits <= _MAX_BITS:
            raise ValueError(
                f"bits must be an integer in [{_MIN_BITS}, {_MAX_BITS}], got {self.bits!r}"
            )

    @property
    def qmax(self) -> int:
        return (1 << (self.bits - 1)) - 1


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
            if not isinstance(self.group_size, int) or self.group_size < 1:
                raise ValueError(f"per-group size must be a positive integer, got {self.group_size!r}")
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
    """

    values: np.ndarray
    scales: np.ndarray
    grouping: GroupingScheme
    bits: int
    axis: str

    def __post_init__(self):
        if self.axis not in (AXIS_ROW, AXIS_COLUMN):
            raise ValueError(f"unknown axis {self.axis!r}")
        if self.values.ndim != 2:
            raise ValueError("quantized values must be 2-D")
        params = QuantParams(self.bits)
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
        if q.size and not -params.qmax <= int(q.min()) <= int(q.max()) <= params.qmax:
            raise ValueError(f"quantized values exceed qmax={params.qmax}")


def _as_matrix(x: np.ndarray, what: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2 or 0 in x.shape:
        raise ValueError(f"{what} must be a non-empty 2-D matrix")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} contains NaN or Inf")
    return x


def _scales_from_amax(amax: np.ndarray, params: QuantParams) -> np.ndarray:
    """float32 scales amax / qmax, 1.0 for all-zero groups; no inf or 0 scales."""
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
    out: np.ndarray, x: np.ndarray, scales: np.ndarray, params: QuantParams
) -> np.ndarray:
    """Codes of x / scales (float64, ties away from zero, clamped to [-qmax, qmax]
    because x/s can land at qmax + ulp), written into ``out``, which must not alias x.
    """
    np.divide(x, scales, out=out)
    np.abs(out, out=out)
    out += 0.5
    np.floor(out, out=out)
    np.minimum(out, params.qmax, out=out)
    return np.copysign(out, x, out=out)


def quantize_weight(
    w: np.ndarray, grouping: GroupingScheme, params: QuantParams
) -> QuantizedTensor:
    """Quantize an N x M weight matrix with row-wise scale sharing.

    Per-channel yields one scale per row; per-group(g) partitions each row
    into M/g contiguous column groups (g must divide M) with one scale
    each.  Per-group with g = M produces the same codes and scale values
    as per-channel.
    """
    w = _as_matrix(w, "weight")
    n, m = w.shape
    grouping.validate_for(m)
    g = grouping.resolved_group_size(m)

    w3 = w.reshape(n, m // g, g)
    scales = _scales_from_amax(np.abs(w3).max(axis=2), params)
    codes = _encode_into(np.empty(w3.shape), w3, scales.astype(np.float64)[:, :, None], params)
    q = codes.reshape(n, m).astype(np.int8)

    if not grouping.is_per_group:
        scales = scales.reshape(n)
    return QuantizedTensor(q, scales, grouping, params.bits, AXIS_ROW)


def quantize_activation(a: np.ndarray, params: QuantParams) -> QuantizedTensor:
    """Quantize an M x P activation matrix with one scale per column."""
    a = _as_matrix(a, "activation")
    scales = _scales_from_amax(np.abs(a).max(axis=0), params)
    codes = _encode_into(np.empty(a.shape), a, scales.astype(np.float64)[None, :], params)
    q = codes.astype(np.int8)
    return QuantizedTensor(q, scales, GroupingScheme.per_channel(), params.bits, AXIS_COLUMN)


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
