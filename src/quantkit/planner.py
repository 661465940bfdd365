"""Mixed per-channel/per-group quantization planning.

Layers whose profile marks them as outlier-bearing get per-group scales
at a finer granularity; everything else stays per-channel, which keeps
the integer matmul fast for the overwhelming majority of the model.  A
plan is a total assignment of one grouping scheme per layer and is
serializable to JSON for reproducible application.

Applying a plan needs no calibration data and treats each layer on its
own, so it is one pass: ``quantized_view`` checks the plan and derives the
quantized manifest from it before any layer is read, then quantizes a
layer when it is looked up, or gives its codes as a row source that
encodes each block as it is read.  Each row block is read once: that read
gives the block's scales and its codes, whose magnitudes come from the
same ``|w|`` (see ``quantizer``), and the source keeps the layer's scales
as it goes.  ``model_store.write_model`` writes that view through the row
sources, holding one row block per thread, and writes a layer's scale
record (``ModelManifest.scale_owner``) after its last block;
``apply_plan`` keeps every record, quantizing the layers on the
QUANTKIT_THREADS pool and laying them out in record order.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from collections.abc import Mapping
from typing import Callable, Sequence

import numpy as np

from .analyzer import (
    LayerMetrics,
    _fp32_layer_records,
    _map_layers,
    _profile_layer,
    layer_max_abs,
    layer_rmse,
)
from .model_store import (
    ModelManifest,
    TensorRecord,
    _is_kind,
    _map_in_order,
    _require_kind,
    row_source,
)
from .quantizer import (
    GroupingScheme,
    QuantParams,
    QuantizedTensor,
    AXIS_ROW,
    _as_rows,
    _encode_rows,
    _reject_unknown_keys,
    _scratch,
    fit_group_size,
    quantize_weight,
)

PLAN_VERSION = 1

DEFAULT_GROUP_SIZE = 1024
DEFAULT_MAX_ABS_THRESHOLD = 2.0

# The keys a plan file may carry (see QuantPlan.to_json_text).
_PLAN_KEYS = frozenset(
    {"version", "group_size", "bits", "assignments", "per_group_fraction", "fallbacks"})

# The type of each PlanConfig selection mode, as model_store._is_kind reads
# it; a one-item list means a list or tuple of that type.
_MODE_KINDS = {"max_abs_threshold": float, "top_k": int, "explicit": [str]}


@dataclass(frozen=True)
class PlanConfig:
    """Selection rule plus the group size for selected layers.

    Exactly one selection mode is active: ``max_abs_threshold`` picks
    layers whose max_abs reaches the threshold, ``top_k`` picks the k
    layers with the highest RMSE (ties to the lower layer index), and
    ``explicit`` names layers directly.  The default threshold of 2.0
    sits far above the sub-1.0 maxima of quantization-robust checkpoints
    and far below wall magnitudes, which exceed 90.
    """

    max_abs_threshold: float | None = None
    top_k: int | None = None
    explicit: tuple[str, ...] | None = None
    group_size: int = DEFAULT_GROUP_SIZE

    def __post_init__(self):
        _require_kind(self.group_size, int, "plan setting 'group_size'")
        modes = [name for name in _MODE_KINDS if getattr(self, name) is not None]
        if len(modes) != 1:
            raise ValueError("exactly one selection mode must be set")
        _require_kind(getattr(self, modes[0]), _MODE_KINDS[modes[0]], f"plan setting {modes[0]!r}")
        if self.explicit is not None:  # a list of names becomes a tuple, as the field says
            object.__setattr__(self, "explicit", tuple(self.explicit))
        if self.max_abs_threshold is not None and math.isnan(self.max_abs_threshold):
            raise ValueError("max_abs_threshold must be a number, got nan")
        if self.top_k is not None and self.top_k < 0:
            raise ValueError("top_k must be non-negative")
        if self.group_size < 1:
            raise ValueError("group_size must be positive")


@dataclass
class QuantPlan:
    """Per-layer grouping assignment, ordered by layer index.

    The constructor checks ``group_size`` (an integer >= 1) and ``bits``
    (in [2, 8]), for plans built in Python and plans read from a file alike.
    """

    assignments: dict[str, GroupingScheme]
    group_size: int
    bits: int

    def __post_init__(self):
        _require_kind(self.group_size, int, "plan 'group_size'")
        _require_kind(self.bits, int, "plan 'bits'")
        if self.group_size < 1:
            raise ValueError(f"plan 'group_size' must be positive, got {self.group_size!r}")
        try:
            QuantParams(self.bits)
        except ValueError as exc:
            raise ValueError(f"plan 'bits': {exc}") from None

    @property
    def fallbacks(self) -> dict[str, int]:
        """Layer -> size of each per-group assignment whose size is not
        ``group_size`` (``build_plan``'s largest-divisor fallbacks)."""
        return {name: s.group_size for name, s in self.assignments.items()
                if s.is_per_group and s.group_size != self.group_size}

    @property
    def per_group_fraction(self) -> float:
        return len(self.selected_layers()) / len(self.assignments) if self.assignments else 0.0

    def selected_layers(self) -> list[str]:
        return [name for name, s in self.assignments.items() if s.is_per_group]

    def to_json_text(self) -> str:
        obj = {
            "version": PLAN_VERSION,
            "group_size": self.group_size,
            "bits": self.bits,
            "assignments": {name: s.to_json() for name, s in self.assignments.items()},
            "per_group_fraction": self.per_group_fraction,
        }
        if fallbacks := self.fallbacks:
            obj["fallbacks"] = fallbacks
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_text(cls, text: str) -> "QuantPlan":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed plan JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValueError(f"plan JSON must be an object, got {type(obj).__name__}")
        version = obj.get("version")
        if not _is_kind(version, int) or version != PLAN_VERSION:
            raise ValueError(f"unsupported plan version {version!r}")
        _reject_unknown_keys(obj, _PLAN_KEYS, "plan")
        _require_kind(obj.get("assignments"), dict, "plan 'assignments'")
        fallbacks = obj.get("fallbacks", {})
        _require_kind(fallbacks, dict, "plan 'fallbacks'")
        try:
            assignments = {
                name: GroupingScheme.from_json(desc) for name, desc in obj["assignments"].items()
            }
        except ValueError as exc:
            raise ValueError(f"malformed plan JSON: {exc}") from exc
        for name, size in fallbacks.items():
            _require_kind(size, int, f"plan fallback for {name!r}")
            scheme = assignments.get(name)
            if scheme is None or not scheme.is_per_group or scheme.group_size != size:
                raise ValueError(f"plan fallback for {name!r} is {size}, but its assignment is "
                                 f"{scheme.to_json() if scheme else None}")
        plan = cls(assignments=assignments, group_size=obj.get("group_size"), bits=obj.get("bits"))
        if "per_group_fraction" in obj:
            fraction = obj["per_group_fraction"]
            _require_kind(fraction, float, "plan 'per_group_fraction'")
            if fraction != plan.per_group_fraction:
                raise ValueError(f"plan 'per_group_fraction' is {fraction!r}, but the assignments "
                                 f"give {plan.per_group_fraction!r}")
        return plan


def _select(
    names: Sequence[str],
    cfg: PlanConfig,
    max_abs: Callable[[], Sequence[float]],
    rmse: Callable[[], Sequence[float]],
) -> set[str]:
    """The layers ``cfg`` selects from ``names``, which are in layer-index order.

    ``max_abs()`` and ``rmse()`` give the layers' max_abs and per-channel
    RMSE in the same order; each is called only by the mode that reads it.
    """
    if cfg.max_abs_threshold is not None:
        return {name for name, x in zip(names, max_abs()) if x >= cfg.max_abs_threshold}
    if cfg.top_k is not None:
        values = rmse()
        ranked = sorted(range(len(names)), key=lambda i: -values[i])  # stable: ties to lower index
        return {names[i] for i in ranked[: cfg.top_k]}
    unknown = sorted(set(cfg.explicit) - set(names))
    if unknown:
        raise ValueError(f"explicit selection names unknown layers: {unknown}")
    return set(cfg.explicit)


def build_plan(metrics: list[LayerMetrics], cfg: PlanConfig) -> QuantPlan:
    """Assign per-group(g) to selected layers and per-channel to the rest.

    The bit width comes from the metrics, which must agree on it.  When
    the group size does not divide a selected layer's column count, the
    size falls back to the largest divisor, which makes the layer one of
    the plan's fallbacks.
    """
    if not metrics:
        raise ValueError("metrics must be non-empty")
    bits = sorted({m.bits for m in metrics})
    if len(bits) != 1:
        raise ValueError(f"metrics mix bit widths {bits}; a plan has one")
    params = QuantParams(bits[0])
    ordered = sorted(metrics, key=lambda x: x.layer_index)
    selected = _select(
        [m.name for m in ordered],
        cfg,
        lambda: [m.max_abs for m in ordered],
        lambda: [m.rmse for m in ordered],
    )
    assignments = {
        m.name: (GroupingScheme.per_group(fit_group_size(m.cols, cfg.group_size))
                 if m.name in selected else GroupingScheme.per_channel())
        for m in ordered
    }
    return QuantPlan(assignments=assignments, group_size=cfg.group_size, bits=params.bits)


def scale_record_name(name: str) -> str:
    return name + ".scales"


class _CodeRows:
    """A layer's int8 codes as a row source: each block of rows is read
    once from the fp32 source and quantized (``quantizer._encode_rows``)
    into this thread's ``codes`` scratch, valid until the thread's next
    code read, and into its rows of ``scales``.  So ``scales``, the
    layer's (N, M/g) float32 scales, is complete once every row has been
    read.  An error names the layer."""

    dtype = np.dtype(np.int8)

    def __init__(self, name: str, src, groups: int, params: QuantParams):
        self.shape = src.shape
        self.scales = np.empty((src.shape[0], groups), np.float32)
        self._name, self._src, self._params = name, src, params

    def read_rows(self, start: int, stop: int) -> np.ndarray:
        rows = self._src.read_rows(start, stop)
        codes = _scratch("codes", rows.shape, np.int8)
        try:
            return _encode_rows(codes, self.scales[start:stop], rows, self._params)
        except ValueError as exc:
            raise ValueError(f"layer {self._name!r}: {exc}") from None


class _QuantizedView(Mapping):
    """Name -> array mapping over a quantized model that quantizes a layer
    when it, or its scale record (``scale_owner``), is looked up, or,
    through ``row_source``, gives its codes one row block at a time, each
    block read once.  The view keeps nothing: every lookup quantizes its
    layer, and a layer's row source carries the layer's scales itself."""

    def __init__(self, qmanifest: ModelManifest, tensors: Mapping[str, np.ndarray],
                 params: QuantParams):
        self._manifest = qmanifest
        self._tensors = tensors
        self._params = params

    def _quantize(self, rec: TensorRecord) -> tuple[np.ndarray, np.ndarray]:
        try:
            qt = quantize_weight(row_source(self._tensors, rec.name), rec.grouping, self._params)
        except ValueError as exc:
            raise ValueError(f"layer {rec.name!r}: {exc}") from None
        return qt.values, qt.scales.reshape(rec.shape[0], -1)

    def row_source(self, name: str):
        """The named record as a row source.  A layer's is its codes
        (``_CodeRows``), which quantizes each row block as it is read and
        fills the layer's ``scales`` as it goes.  Any other record is the
        lookup's array, or the source model's row source for an aux record
        it passes through."""
        rec = self._manifest.record(name)
        if rec.aux:
            owned = self._manifest.scale_owner(name) is not None
            return self[name] if owned else row_source(self._tensors, name)
        try:
            src = _as_rows(row_source(self._tensors, name), "weight")
        except ValueError as exc:
            raise ValueError(f"layer {name!r}: {exc}") from None
        groups = self._manifest.record(rec.scale_ref).shape[1]
        return _CodeRows(name, src, groups, self._params)

    def __getitem__(self, name: str) -> np.ndarray:
        layer = self._manifest.scale_owner(name) or self._manifest.record(name)
        if layer.aux:  # a source aux record, which passes through
            return self._tensors[name]
        values, scales = self._quantize(layer)
        return values if layer.name == name else scales

    def __iter__(self):
        return (rec.name for rec in self._manifest.records)

    def __len__(self) -> int:
        return len(self._manifest.records)


def quantized_view(
    manifest: ModelManifest,
    tensors: Mapping[str, np.ndarray],
    plan: QuantPlan,
) -> tuple[ModelManifest, Mapping[str, np.ndarray]]:
    """The quantized model's manifest, built from the plan alone, and a
    mapping that quantizes each layer under its assigned scheme, exactly as
    written, when the layer is looked up.

    Each layer becomes an int8 record followed by an aux fp32 record of its
    scales, shaped (N, M/g) (per-channel scales as an (N, 1) column); aux
    records of the source pass through unchanged.  Every layer must be fp32,
    the plan must cover exactly the model's layers, and each per-group size
    must divide its layer's column count; all of this is checked before any
    layer is read.  Each lookup of a layer or of its scale record
    quantizes that layer.  ``write_model`` takes each layer's codes from
    the view's row source one row block at a time, reading each block once,
    and then the layer's scales from the same source, so it holds one row
    block per thread, not one layer.
    """
    params = QuantParams(plan.bits)
    layer_names = {rec.name for rec in _fp32_layer_records(manifest)}
    plan_names = set(plan.assignments)
    if layer_names != plan_names:
        missing = sorted(layer_names - plan_names)
        extra = sorted(plan_names - layer_names)
        raise ValueError(
            f"plan does not cover the model's layers; missing={missing} extra={extra}"
        )

    out_records: list[TensorRecord] = []
    for rec in manifest.records:
        if rec.aux:
            out_records.append(rec)
            continue
        scheme = plan.assignments[rec.name]
        n, m = rec.shape
        try:
            scheme.validate_for(m)
        except ValueError as exc:
            raise ValueError(f"layer {rec.name!r}: {exc}") from None
        sname = scale_record_name(rec.name)
        out_records.append(TensorRecord(rec.name, rec.shape, "int8", scale_ref=sname,
                                        grouping=scheme, bits=params.bits))
        out_records.append(TensorRecord(
            sname, (n, m // scheme.resolved_group_size(m)), "fp32", aux=True))
    qmanifest = ModelManifest(manifest.blocks, out_records)
    return qmanifest, _QuantizedView(qmanifest, tensors, params)


def apply_plan(
    manifest: ModelManifest,
    tensors: Mapping[str, np.ndarray],
    plan: QuantPlan,
) -> tuple[ModelManifest, dict[str, np.ndarray]]:
    """Quantize every layer under its assigned scheme, exactly as written:
    :func:`quantized_view` with every record computed and kept.

    The layers are quantized on QUANTKIT_THREADS threads
    (``model_store._map_in_order``), each by the view's own per-layer
    quantize, and laid out in record order: a layer's codes, then its
    scale record; aux records of the source pass through.  The first
    failing layer in record order is the error.
    """
    qmanifest, view = quantized_view(manifest, tensors, plan)
    layers = [rec for rec in qmanifest.records if not rec.aux]
    quantized = dict(zip((rec.name for rec in layers), _map_in_order(view._quantize, layers)))
    out: dict[str, np.ndarray] = {}
    for rec in qmanifest.records:
        if not rec.aux:
            out[rec.name], out[rec.scale_ref] = quantized[rec.name]
        elif rec.name not in out:  # a source aux record; scale records are in already
            out[rec.name] = tensors[rec.name]
    return qmanifest, out


# The resident records that read_quantized_layer has checked, by id() of
# the codes array: weak references to the codes, the scale record and the
# TensorRecord they were checked against.  No entry keeps an array alive,
# and an entry goes when its codes array is freed, before its id() can be
# reused.
_checked: dict[int, tuple[weakref.ref, weakref.ref, weakref.ref]] = {}


def read_quantized_layer(
    manifest: ModelManifest, tensors: Mapping[str, np.ndarray], name: str
) -> QuantizedTensor:
    """Rebuild a QuantizedTensor from a quantized model's records.

    The manifest has already checked the layer's grouping and bits and the
    scale record's shape.  The codes and scale values are disk bytes, so
    they are checked on first lookup of each resident record: the tensor
    is built through the public, checked QuantizedTensor constructor, and a
    code outside [-qmax, qmax] or a scale that is not positive and finite
    is rejected.  When both arrays are read-only, as ``read_model``'s are,
    the check is remembered.  A later lookup that gets the very same two
    arrays, still read-only, for the same TensorRecord builds the tensor
    without the scans; anything else (a writeable array, a replaced entry,
    another manifest, ``open_model``'s fresh array per access) is checked
    again.  The one assumption: a read-only array is unchanged, in its
    bytes, shape and dtype, for as long as it lives.
    """
    rec = manifest.record(name)
    if rec.aux or rec.dtype != "int8":
        raise ValueError(f"record {name!r} is not a quantized layer")
    codes, scale_record = tensors[name], tensors[rec.scale_ref]
    scales = scale_record if rec.grouping.is_per_group else scale_record.reshape(-1)
    key = id(codes)
    entry = _checked.get(key)
    read_only = not (codes.flags.writeable or scale_record.flags.writeable)
    if (entry is not None and read_only and entry[0]() is codes
            and entry[1]() is scale_record and entry[2]() is rec):
        return QuantizedTensor._unchecked(codes, scales, rec.grouping, rec.bits, AXIS_ROW)
    qt = QuantizedTensor(
        values=codes, scales=scales, grouping=rec.grouping, bits=rec.bits, axis=AXIS_ROW
    )
    if read_only:
        _checked[key] = (weakref.ref(codes, lambda _: _checked.pop(key, None)),
                         weakref.ref(scale_record), weakref.ref(rec))
    return qt


@dataclass(frozen=True)
class SweepRow:
    """Group-size ablation result for one size over a fixed layer set."""

    group_size: int
    per_layer_rmse: dict[str, float]
    aggregate_rmse: float


def sweep_group_size(
    manifest: ModelManifest,
    tensors: Mapping[str, np.ndarray],
    selection: PlanConfig,
    sizes: Sequence[int],
    params: QuantParams = QuantParams(),
) -> list[SweepRow]:
    """Per-group RMSE of the selected layers at each group size.

    The layer set is selected once, reading only what the selection mode
    needs (names, max_abs or per-channel RMSE), and reused for every size;
    duplicate sizes are dropped, first occurrence order preserved, and a
    size that does not divide a selected layer's columns is an error
    naming the layer.  The aggregate is the RMSE over
    all elements of all selected layers together.
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    records = _fp32_layer_records(manifest)
    chosen = _select(
        [rec.name for rec in records],
        selection,
        lambda: _map_layers(lambda rec: layer_max_abs(row_source(tensors, rec.name)), records),
        lambda: _map_layers(
            lambda rec: layer_rmse(row_source(tensors, rec.name), GroupingScheme.per_channel(),
                                   params),
            records,
        ),
    )
    selected = [rec for rec in records if rec.name in chosen]
    schemes = [GroupingScheme.per_group(g) for g in dict.fromkeys(int(g) for g in sizes)]

    sse = _map_layers(
        lambda rec: _profile_layer(row_source(tensors, rec.name), schemes, params)[2], selected)
    elems = [rec.shape[0] * rec.shape[1] for rec in selected]
    rows = []
    for i, scheme in enumerate(schemes):
        per_layer = {rec.name: float(np.sqrt(s[i] / e)) for rec, s, e in zip(selected, sse, elems)}
        total_sq, total_elems = sum(s[i] for s in sse), sum(elems)
        aggregate = float(np.sqrt(total_sq / total_elems)) if total_elems else 0.0
        rows.append(SweepRow(scheme.group_size, per_layer, aggregate))
    return rows
