"""Symmetric n-bit integer quantization with per-channel and per-group scales.

Weights are quantized row-wise: per-channel shares one scale factor per
output row, per-group splits each row into contiguous groups of
``group_size`` input columns with one scale each.  Activations are
quantized column-wise with one scale per column.  Scale factors are
computed and stored in float32; integer codes always fit int8 because the
supported bit widths top out at 8.

The layer passes (``quantize_weight`` here, the profile and max_abs passes
in ``analyzer``) take a weight as a row source: an in-memory matrix, or
an object with ``shape``, ``dtype`` and ``read_rows(start, stop)`` that
returns rows [start, stop) as an array, such as the one
``model_store.row_source`` gives for a record of an open model.  A pass
reads one block of rows at a time and is done with it before its next
read, so a source may hand out each block in one buffer that its next
read overwrites.  A pass never writes into the rows a source returns:
an in-memory matrix hands out views of the caller's array.

Every weight is encoded by one block encoder, ``_CodeRows``:
``quantize_weight`` runs it into its int8 result, and a quantized view's
row source (``planner``) is one.  Each row block is read once.  That one
read gives ``|w|``, the group maxima, which are also the finiteness
check, the block's scales (both groupings scale by row, so a block's
scales depend only on its rows) and, from the same ``|w|``, its code
magnitudes: ``min(floor(|x|/s + 0.5), qmax)``.  IEEE division is
sign-symmetric, so ``|x|/s`` is ``|x/s|`` to the bit, and no pass does
signed arithmetic: the int8 paths apply x's sign to the cast magnitudes
with int8 operations, and the float path (``analyzer._profile_layer``)
squares ``|x| - mag*s``, which is ``(x - q*s)**2`` to the bit.  A signed
integer input that holds its dtype's minimum, which np.abs wraps to
itself, is rejected by every pass with one text
(``_reject_integer_minimum``).  An error is raised by the first failing
block; no caller sees a partly quantized layer, because
``quantize_weight`` returns nothing when it raises and a file write
removes its temp file.

A pass's block temporaries (the float64 ``|w|``, the float64 work buffer,
the sign mask, an open model's row buffer, and the int8 code buffer of
``_CodeRows.read_rows``), and a quantized product's float32 row
block of weight codes and batch of group products (``kernels``), come
from ``_scratch``: one buffer per kind and thread, grown on demand and
reused across blocks and layers, so no block-sized buffer is allocated
per block.  A call that grew a buffer past one block (a layer pass over
rows wider than ``_BLOCK``, a product whose row blocks hold more than
``_BLOCK`` codes, an activation of more than ``_BLOCK`` elements) drops
this thread's scratch when it ends, whether it returns or raises
(``_trim_scratch``).  A block that an open model's row source returns
lives in that scratch: it stays valid only until the same thread's next
row read.

An activation is quantized column-wise in the same way, from one ``|a|``:
its column maxima, folded for a tall activation (``_column_max``), are
also its finiteness check, and one minimum of its scales tells both
whether a column underflowed and whether the codes need the clamp.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

PER_CHANNEL = "per_channel"
PER_GROUP = "per_group"

AXIS_ROW = "row"
AXIS_COLUMN = "column"

_MIN_BITS = 2
_MAX_BITS = 8

# Elements per block of a layer pass.  A block's working set (its float32
# rows, the float64 |w| and the float64 work buffer in a profile, about
# 1.25 MiB; the rows, the float64 |w| that the work is done in, the sign
# mask and the int8 codes in a quantize, about 0.9 MiB) stays inside a
# 2 MiB per-core L2 cache, and bounds a pass's memory per thread.
_BLOCK = 1 << 16
# numpy's PW_BLOCKSIZE: np.sum splits no range of up to 128 elements, so a
# smaller block would split where np.sum does not (see _pairwise).
assert _BLOCK >= 128

# The smallest normal float32.  A normal scale s = fl32(amax / qmax) is
# within a relative 2^-24 of amax / qmax, so for |x| <= amax, |x|/s + 0.5
# stays below qmax + 1 and its floor is at most qmax: the clamp to qmax
# changes nothing.  Only a subnormal scale, which keeps fewer bits, needs it.
_NORMAL = float(np.finfo(np.float32).tiny)

_F32_MAX = float(np.finfo(np.float32).max)

_ALIGN = 64
# Cached scratch views per thread; past this many, the cache starts afresh.
_SCRATCH_VIEWS = 64


def _aligned_empty(nbytes: int) -> np.ndarray:
    """A new uint8 buffer of ``nbytes`` that starts on a 64-byte boundary."""
    raw = np.empty(nbytes + _ALIGN - 1, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start:start + nbytes]


class _ThreadScratch(threading.local):
    """One thread's block buffers: one per kind, the array views of them
    handed out so far, by (kind, shape, dtype), and ``outgrown`` (_scratch)."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}
        self.views: dict[tuple, np.ndarray] = {}
        self.outgrown = False


_thread_scratch = _ThreadScratch()


def _scratch(kind: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """This thread's block buffer of ``kind``, as a C-ordered array of
    ``shape`` and ``dtype``.

    Each thread keeps one 64-byte-aligned buffer per kind.  It grows only
    to a request larger than any before, and is kept until the thread ends
    or a call drops it: growing it for a request of more than _BLOCK
    elements sets ``outgrown``, and a call that grew a buffer past one
    block drops this thread's scratch when it ends, whether it returns or
    raises (_trim_scratch).  A fresh 256-512 KiB temporary per block would
    be an mmap, or heap growth that is trimmed again, and page-fault on
    every block.  A repeated request is one dict lookup, which keeps
    the Python work per block, and so the hand-offs of the interpreter
    lock between threads, small.  The contents are the caller's to fill;
    the thread's next request for the same kind reuses them.
    """
    scratch = _thread_scratch
    key = (kind, shape, dtype)
    view = scratch.views.get(key)
    if view is None:
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        buf = scratch.buffers.get(kind)
        if buf is None or len(buf) < nbytes:
            buf = scratch.buffers[kind] = _aligned_empty(nbytes)
            scratch.views.clear()  # drop the views of any smaller buffer
            scratch.outgrown |= math.prod(shape) > _BLOCK
        if len(scratch.views) >= _SCRATCH_VIEWS:
            scratch.views.clear()
        view = scratch.views[key] = buf[:nbytes].view(dtype).reshape(shape)
    return view


def _trim_scratch() -> None:
    """Run in a ``finally`` by each call that takes block scratch: a call
    that grew a buffer past one block (_scratch) drops this thread's
    scratch when it ends, whether it returns or raises.  Any other call
    keeps the buffers for the next one."""
    scratch = _thread_scratch
    if scratch.outgrown:
        scratch.buffers.clear()
        scratch.views.clear()
        scratch.outgrown = False


def _qmax(bits: int) -> int:
    return (1 << (bits - 1)) - 1


def _check_bits(bits) -> None:
    if not isinstance(bits, int) or not _MIN_BITS <= bits <= _MAX_BITS:
        raise ValueError(f"bits must be an integer in [{_MIN_BITS}, {_MAX_BITS}], got {bits!r}")


def _reject_unknown_keys(obj: dict, known: frozenset, what: str) -> None:
    """A key of a parsed JSON object that its format does not read is an
    error naming ``what`` and the key, not metadata silently dropped."""
    if not obj.keys() <= known:
        raise ValueError(f"{what} has unknown keys {[k for k in obj if k not in known]}")


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
        """The scheme a JSON descriptor names.  Every per-channel descriptor
        gives the one shared, frozen per-channel scheme."""
        if not isinstance(obj, dict) or "mode" not in obj:
            raise ValueError(f"malformed grouping descriptor: {obj!r}")
        _reject_unknown_keys(obj, _GROUPING_KEYS, "grouping descriptor")
        if obj["mode"] == PER_GROUP:
            return cls.per_group(obj.get("group_size"))
        if obj["mode"] == PER_CHANNEL:
            if obj.get("group_size") is not None:
                raise ValueError("per-channel descriptor must not carry a group size")
            return _PER_CHANNEL
        raise ValueError(f"unknown grouping mode {obj['mode']!r}")


_GROUPING_KEYS = frozenset({"mode", "group_size"})

# Every column-wise (activation) tensor's grouping and every parsed
# per-channel descriptor; frozen, so one is shared.
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
    that every scale is positive and finite, and that the codes are an
    integer array whose minimum and maximum lie in [-qmax, qmax].  Codes
    and scales that come from outside the library pass through it.
    """

    values: np.ndarray
    scales: np.ndarray
    grouping: GroupingScheme
    bits: int
    axis: str

    @classmethod
    def _unchecked(cls, values, scales, grouping, bits, axis) -> "QuantizedTensor":
        """A tensor built without the checks: from the library's own encoder
        output (codes clamped to [-qmax, qmax], scales positive and finite),
        or from records that have already passed them."""
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
        if q.dtype.kind not in "iu":
            raise ValueError(f"quantized values must be integers, got dtype {q.dtype}")
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


class _ArrayRows:
    """An in-memory matrix as a row source: each block is a view of it."""

    def __init__(self, w: np.ndarray):
        self.shape, self.dtype, self._w = w.shape, w.dtype, w

    def read_rows(self, start: int, stop: int) -> np.ndarray:
        return self._w[start:stop]


def _as_rows(w, what: str):
    """``w`` as a row source: an object with ``read_rows`` is one already;
    anything else must be a non-empty 2-D matrix."""
    if hasattr(w, "read_rows"):
        return w
    return _ArrayRows(_as_matrix(w, what))


def _reject_integer_minimum(x: np.ndarray) -> None:
    """Every pass's check before it takes |x|: a signed integer x must not
    hold its dtype's minimum, which np.abs in that dtype wraps to itself."""
    if x.dtype.kind == "i" and x.min() == (lo := np.iinfo(x.dtype).min):
        raise ValueError(f"input holds {lo}, the minimum of {x.dtype}, which has no "
                         f"{x.dtype} magnitude")


def _abs_rows(rows: np.ndarray) -> np.ndarray:
    """|rows| in rows' dtype in this thread's work scratch, for the passes
    that need only |w| (layer_max_abs and the wall count)."""
    _reject_integer_minimum(rows)
    return np.abs(rows, out=_scratch("work", rows.shape, rows.dtype))


def _abs64(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|x| into the float64 ``out``: x cast, then its magnitudes, which is
    |x| to the bit for any float x, with no cast buffers in the float64
    work that follows."""
    _reject_integer_minimum(x)
    np.copyto(out, x)
    return np.abs(out, out=out)


def _group_maxima(absx: np.ndarray, g: int) -> np.ndarray:
    """The maxima of each row's groups of ``g`` consecutive elements of the
    C-ordered (k, ...) array ``absx``, as (k, M/g).  One contiguous
    reduction per group (np.maximum.reduceat) took 1.2-3x less time than
    max over a (k, M/g, g) view for every g > 1 on a 64 x 1024 block; at
    g = 1 each element is its own maximum."""
    k = len(absx)
    if g == 1:
        return absx.reshape(k, -1).copy()
    flat = absx.reshape(-1)
    return np.maximum.reduceat(flat, np.arange(0, flat.size, g)).reshape(k, -1)


def _row_blocks(n: int, m: int) -> list[slice]:
    """Consecutive row slices of an n x m layer, each of at most _BLOCK
    elements or a single row; the last one stops at row n."""
    step = max(1, _BLOCK // m)
    return [slice(r, min(r + step, n)) for r in range(0, n, step)]


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


def _scales_from_amax(amax: np.ndarray, params: QuantParams, top) -> tuple[np.ndarray, bool]:
    """float32 scales amax / qmax, 1.0 for all-zero groups; no inf or 0
    scales.  ``top`` is amax's maximum, which the caller has already taken
    (_finite_max).  An error quotes ``top`` or the largest underflowing
    maximum of ``amax``: in a layer pass, one row block's.

    Also returns whether a scale is subnormal, the clamp flag that
    _magnitudes_into takes.  One minimum answers both questions: a zero
    minimum is the all-zero or underflow case, and once the all-zero
    groups are set to 1.0 the minimum is taken again."""
    if top > _F32_MAX:
        raise ValueError(f"max_abs {float(top)!r} exceeds the float32 range of scales")
    scales = amax.astype(np.float32)
    scales /= np.float32(params.qmax)
    lo = scales.min()
    if lo == 0:
        scales[amax == 0] = np.float32(1.0)
        lo = scales.min()
        if lo == 0:
            bad = float(amax[scales == 0].max())
            raise ValueError(f"nonzero max_abs {bad!r} underflows its float32 scale to 0")
    return scales, lo < _NORMAL


def _magnitudes_into(
    out: np.ndarray, absx: np.ndarray, scales: np.ndarray, params: QuantParams, clamp: bool,
    codes=None,
) -> np.ndarray:
    """Code magnitudes of |x| / scales: floor(|x|/s + 0.5) (ties away from
    zero), clamped to qmax when ``clamp`` is set, which only a subnormal
    scale needs (see _NORMAL; _scales_from_amax gives the flag).  IEEE
    division is sign-symmetric, so |x|/s is |x/s| to the bit.  The work is
    done in float64 in ``out``, which may be ``absx`` itself; ``absx`` must
    not exceed the maxima its scales came from.

    Without ``codes`` the magnitudes are left in ``out`` as floats.  With an
    int8 ``codes`` array they are cast into it instead, and that path has no
    floor pass: the cast of |x|/s + 0.5 (clamped first, where needed)
    truncates toward zero, which on a non-negative value is the floor, so
    the integers are the same.
    """
    np.divide(absx, scales, out=out)
    out += 0.5
    if codes is None:
        np.floor(out, out=out)
    if clamp:
        np.minimum(out, params.qmax, out=out)
    if codes is None:
        return out
    np.copyto(codes, out, casting="unsafe")
    return codes


def _encode_into(codes: np.ndarray, x: np.ndarray, absx: np.ndarray, scales: np.ndarray,
                 params: QuantParams, clamp: bool) -> np.ndarray:
    """The int8 codes of x / scales into ``codes``: the magnitudes of
    ``absx``, the float64 |x| (_abs64), worked out in place in it
    (_magnitudes_into), then x's sign, applied with int8 operations: with
    m = -1 where x < 0 and 0 elsewhere, (c ^ m) - m is -c where x < 0 and
    c elsewhere.  A -0.0 keeps the code 0, as a signed encoder gives it.
    The sign mask is this thread's scratch."""
    _magnitudes_into(absx, absx, scales, params, clamp, codes)
    m = np.less(x, 0, out=_scratch("sign", x.shape, np.bool_)).view(np.int8)
    np.negative(m, out=m)
    np.bitwise_xor(codes, m, out=codes)
    return np.subtract(codes, m, out=codes)


class _CodeRows:
    """The one block encoder: a weight's int8 codes as a row source.  Each
    block is read once from ``src`` and encoded from that read: |w| in
    float64 work scratch, the group maxima (also the finiteness check), the
    block's float32 scales into its rows of ``scales`` (N, M/g), and the
    codes from the same |w|, into this thread's ``codes`` scratch
    (``read_rows``, valid until the thread's next code read) or the
    caller's array (``encode``).  With a ``name``, an error names the layer."""

    dtype = np.dtype(np.int8)

    def __init__(self, src, grouping: GroupingScheme, params: QuantParams, name=None):
        self._name, self._params = name, params
        try:
            self._src = _as_rows(src, "weight")
            n, m = self.shape = self._src.shape
            grouping.validate_for(m)
        except ValueError as exc:
            raise self._named(exc) from None
        self.scales = np.empty((n, m // grouping.resolved_group_size(m)), np.float32)

    def _named(self, exc: ValueError) -> ValueError:
        return exc if self._name is None else ValueError(f"layer {self._name!r}: {exc}")

    def read_rows(self, start: int, stop: int) -> np.ndarray:
        return self.encode(_scratch("codes", (stop - start, self.shape[1]), np.int8), start, stop)

    def encode(self, codes: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Rows [start, stop)'s codes into ``codes`` (k, M); the rows are only read."""
        scales = self.scales[start:stop]
        try:
            rows = self._src.read_rows(start, stop)
            x = rows.reshape(len(rows), scales.shape[1], -1)
            absx = _abs64(x, _scratch("work", x.shape, np.float64))
            amax = _group_maxima(absx, x.shape[2])
            scales[...], clamp = _scales_from_amax(amax, self._params, _finite_max(amax, "weight"))
            _encode_into(codes.reshape(x.shape), x, absx, scales.astype(np.float64)[:, :, None],
                         self._params, clamp)
        except ValueError as exc:
            raise self._named(exc) from None
        return codes


def quantize_weight(
    w: np.ndarray, grouping: GroupingScheme, params: QuantParams
) -> QuantizedTensor:
    """Quantize an N x M weight matrix (or row source) with row-wise scale
    sharing.

    Per-channel yields one scale per row; per-group(g) partitions each row
    into M/g contiguous column groups (g must divide M) with one scale
    each.  Per-group with g = M produces the same codes and scale values
    as per-channel.  The one block encoder, ``_CodeRows``, encodes the rows
    block by block straight into the int8 result.  The first failing block
    is the error, and then nothing is returned.
    """
    src = _CodeRows(w, grouping, params)
    n, m = src.shape
    q = np.empty((n, m), np.int8)
    try:
        for b in _row_blocks(n, m):
            src.encode(q[b], b.start, b.stop)
    finally:
        _trim_scratch()
    scales = src.scales if grouping.is_per_group else src.scales.reshape(n)
    return QuantizedTensor._unchecked(q, scales, grouping, params.bits, AXIS_ROW)


def _column_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=0) of a C-ordered (m, P) array.  numpy reduces axis 0 with
    one P-long inner loop per row, which is slow for a tall, narrow x: a
    tall x is folded first, as the (m/k, k*P) view reduced to (k, P), then
    reduced again, with k the largest power of two that divides m and
    keeps k*P <= 256.  The column max of 1024 x 8 went 27 -> 6 us and of
    256 x 32 10 -> 6 us.  At up to 128 rows the fold was no faster (64 x 32
    went 3.5 -> 3.6 us), and one column is already one contiguous
    reduction (2048 x 1 went 2.7 -> 6.4 us folded).  A max is exact in any
    order and np.maximum propagates NaN, so the result is the same."""
    m, p = x.shape
    if m <= 128 or not 1 < p <= 128:
        return x.max(axis=0)
    k = min(m & -m, 1 << ((256 // p).bit_length() - 1))
    return x.reshape(m // k, k * p).max(axis=0).reshape(k, p).max(axis=0)


def quantize_activation(a: np.ndarray, params: QuantParams) -> QuantizedTensor:
    """Quantize an M x P activation matrix with one scale per column.

    The column maxima of |a| (folded for a tall activation, _column_max)
    double as the finiteness check, one minimum of the scales answers both
    the zero and the clamp questions (_scales_from_amax), and the codes
    are encoded from that same |a| straight into the int8 result.
    """
    a = _as_matrix(a, "activation")
    try:
        absa = _abs64(a, _scratch("work", a.shape, np.float64))
        amax = _column_max(absa)
        scales, clamp = _scales_from_amax(amax, params, _finite_max(amax, "activation"))
        q = np.empty(a.shape, np.int8)
        _encode_into(q, a, absa, scales.astype(np.float64), params, clamp)
    finally:
        _trim_scratch()
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
