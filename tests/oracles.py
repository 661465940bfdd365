"""Reference implementations used as test oracles.

The scalar ones share the quantization contract (float32 scales, round
half away from zero, clamp to the symmetric code range) but are written as
plain Python loops so they stay independent of the vectorized library
paths they check.  The whole-layer ones are the unblocked, signed forms of
the library's blocked layer passes: full-size buffers and the signed
encoder the library's magnitude encoder replaced (``signed_codes``:
x / s, then |.|, + 0.5, floor, the qmax clamp and x's sign), which the
blocked passes must equal to the bit.  ``manifest_json`` builds
a model manifest's JSON object for ``json.dumps``, the reference for the
manifest writer's text.
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


def scalar_quantize_activation(a, bits):
    """Column-wise activation quantization, one element at a time.

    Returns (codes, scales) as nested lists: codes[i][j] for row i and
    column j, scales[j] the float32 scale of column j as a float.
    """
    qmax = 2 ** (bits - 1) - 1
    m, p = a.shape
    scales = []
    for j in range(p):
        max_abs = max(abs(float(a[i, j])) for i in range(m))
        scales.append(float(np.float32(max_abs) / np.float32(qmax)) if max_abs > 0 else 1.0)
    codes = []
    for i in range(m):
        row = []
        for j in range(p):
            v = float(a[i, j])
            q = min(math.floor(abs(v / scales[j]) + 0.5), qmax)
            row.append(-q if v < 0 else q)
        codes.append(row)
    return codes, scales


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


def float32_scales(amax, qmax):
    """float32 scales amax / qmax, 1.0 for all-zero groups."""
    scales = amax.astype(np.float32) / np.float32(qmax)
    scales[amax == 0] = np.float32(1.0)
    return scales


def signed_codes(x, scales, qmax):
    """Codes of x / scales as float64, by signed arithmetic: x / s, its
    magnitude rounded half away from zero and clamped to qmax, then x's
    sign copied back."""
    q = np.divide(x, scales, dtype=np.float64)
    np.abs(q, out=q)
    q += 0.5
    np.floor(q, out=q)
    np.minimum(q, qmax, out=q)
    return np.copysign(q, x, out=q)


def _whole_matrix(w):
    w = np.asarray(w)
    assert w.ndim == 2 and 0 not in w.shape
    if not np.isfinite(w).all():
        raise ValueError("weight contains NaN or Inf")
    return w


def whole_layer_profile(w, groupings, params, wall_cfg=None):
    """analyzer._profile_layer as one pass over the whole layer: full-size
    |w|, float64 copy and error buffer, with np.sum over each whole buffer.

    The blocked library pass must equal it to the bit.
    """
    w = _whole_matrix(w)
    n, m = w.shape
    for grouping in groupings:
        grouping.validate_for(m)
    absw = np.abs(w)
    w64 = w.astype(np.float64, copy=False)
    walls = None
    if wall_cfg is not None:
        if wall_cfg.magnitude_threshold is not None:
            threshold = float(wall_cfg.magnitude_threshold)
        else:
            rms = float(np.sqrt(np.mean(np.square(w64))))
            threshold = wall_cfg.rms_multiplier * rms
        counts = (absw > threshold).sum(axis=0)
        walls = [int(j) for j in np.nonzero(counts >= wall_cfg.row_fraction * n)[0]]
    amax = {}
    for g in sorted({grouping.resolved_group_size(m) for grouping in groupings}):
        base = max((f for f in amax if g % f == 0), default=None)
        amax[g] = (absw if base is None else amax[base]).reshape(n, m // g, -1).max(axis=2)
    sse = {}
    for g, group_amax in amax.items():
        scales = float32_scales(group_amax, params.qmax).astype(np.float64)[:, :, None]
        x = w64.reshape(n, m // g, g)
        err = x - signed_codes(x, scales, params.qmax) * scales
        sse[g] = float(np.sum(np.square(err)))
    return float(absw.max()), walls, [sse[gr.resolved_group_size(m)] for gr in groupings]


def whole_layer_quantize_weight(w, grouping, params):
    """quantizer.quantize_weight as one pass over the whole layer: full-size
    |w| and float64 code buffer, then one int8 cast.

    Returns (codes, scales); the blocked library path must equal both.
    """
    w = _whole_matrix(w)
    n, m = w.shape
    grouping.validate_for(m)
    g = grouping.resolved_group_size(m)
    w3 = w.reshape(n, m // g, g)
    scales = float32_scales(np.abs(w3).max(axis=2), params.qmax)
    codes = signed_codes(w3, scales.astype(np.float64)[:, :, None], params.qmax)
    if not grouping.is_per_group:
        scales = scales.reshape(n)
    return codes.reshape(n, m).astype(np.int8), scales


def manifest_json(manifest):
    """A model manifest's JSON object, field by field, with each record's
    byte offset summed from the sizes before it: the object whose
    ``json.dumps(..., sort_keys=True, indent=2)`` the manifest writer's text
    must equal."""
    itemsize = {"fp32": 4, "int8": 1}
    records, offset = [], 0
    for rec in manifest.records:
        obj = {"name": rec.name, "shape": list(rec.shape), "dtype": rec.dtype,
               "byte_offset": offset}
        if rec.scale_ref is not None:
            obj["scale_ref"] = rec.scale_ref
        if rec.aux:
            obj["aux"] = True
        if rec.grouping is not None:
            obj["grouping"] = rec.grouping.to_json()
        if rec.bits is not None:
            obj["bits"] = rec.bits
        records.append(obj)
        offset += rec.shape[0] * rec.shape[1] * itemsize[rec.dtype]
    return {"version": 1, "blocks": manifest.blocks, "records": records}
