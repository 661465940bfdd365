"""Mixed per-channel/per-group quantization planning.

Layers whose profile marks them as outlier-bearing get per-group scales
at a finer granularity; everything else stays per-channel, which keeps
the integer matmul fast for the overwhelming majority of the model.  A
plan is a total assignment of one grouping scheme per layer and is
serializable to JSON for reproducible application.

Applying a plan needs no calibration data and treats each layer on its
own, so it is one pass: ``quantized_view`` checks the plan and derives the
quantized manifest from it before any layer is read, then quantizes a
layer when it is looked up.  ``model_store.write_model`` streams that view
to disk holding one layer at a time; ``apply_plan`` keeps every record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
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
from .model_store import ModelManifest, TensorRecord, _is_kind, _require_kind
from .quantizer import (
    GroupingScheme,
    QuantParams,
    QuantizedTensor,
    AXIS_ROW,
    fit_group_size,
    quantize_weight,
)

PLAN_VERSION = 1
SCALE_SUFFIX = ".scales"

DEFAULT_GROUP_SIZE = 1024
DEFAULT_MAX_ABS_THRESHOLD = 2.0


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
        modes = sum(x is not None for x in (self.max_abs_threshold, self.top_k, self.explicit))
        if modes != 1:
            raise ValueError("exactly one selection mode must be set")
        if self.top_k is not None and self.top_k < 0:
            raise ValueError("top_k must be non-negative")
        if self.group_size < 1:
            raise ValueError("group_size must be positive")


@dataclass
class QuantPlan:
    """Per-layer grouping assignment, ordered by layer index.

    ``fallbacks`` records layers whose requested group size did not
    divide their input dimension and was replaced by the largest divisor
    not exceeding it.
    """

    assignments: dict[str, GroupingScheme]
    group_size: int
    bits: int
    fallbacks: dict[str, int] = field(default_factory=dict)

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
        if self.fallbacks:
            obj["fallbacks"] = dict(sorted(self.fallbacks.items()))
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
        for key, kind in (("group_size", int), ("bits", int), ("assignments", dict)):
            _require_kind(obj.get(key), kind, f"plan {key!r}")
        if obj["group_size"] < 1:
            raise ValueError(f"plan 'group_size' must be positive, got {obj['group_size']!r}")
        try:
            QuantParams(obj["bits"])
        except ValueError as exc:
            raise ValueError(f"plan 'bits': {exc}") from None
        fallbacks = obj.get("fallbacks", {})
        _require_kind(fallbacks, dict, "plan 'fallbacks'")
        for name, size in fallbacks.items():
            _require_kind(size, int, f"plan fallback for {name!r}")
        try:
            assignments = {
                name: GroupingScheme.from_json(desc) for name, desc in obj["assignments"].items()
            }
        except ValueError as exc:
            raise ValueError(f"malformed plan JSON: {exc}") from exc
        for name, size in fallbacks.items():
            scheme = assignments.get(name)
            if scheme is None or not scheme.is_per_group or scheme.group_size != size:
                raise ValueError(f"plan fallback for {name!r} is {size}, but its assignment is "
                                 f"{scheme.to_json() if scheme else None}")
        plan = cls(assignments=assignments, group_size=obj["group_size"], bits=obj["bits"],
                   fallbacks=fallbacks)
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
    size falls back to the largest divisor and the layer is listed in the
    plan's fallbacks.
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
    assignments: dict[str, GroupingScheme] = {}
    fallbacks: dict[str, int] = {}
    for m in ordered:
        if m.name not in selected:
            assignments[m.name] = GroupingScheme.per_channel()
            continue
        g = fit_group_size(m.cols, cfg.group_size)
        if g != cfg.group_size:
            fallbacks[m.name] = g
        assignments[m.name] = GroupingScheme.per_group(g)
    return QuantPlan(
        assignments=assignments, group_size=cfg.group_size, bits=params.bits, fallbacks=fallbacks
    )


def scale_record_name(name: str) -> str:
    return name + SCALE_SUFFIX


class _QuantizedView(Mapping):
    """Name -> array mapping over a quantized model that quantizes a layer
    when it is looked up.  The layer's scales wait for the next lookup of its
    scale record, so a pass in record order quantizes each layer once; any
    other lookup of a scale record quantizes its layer again."""

    def __init__(self, qmanifest: ModelManifest, tensors: Mapping[str, np.ndarray],
                 params: QuantParams):
        self._manifest = qmanifest
        self._tensors = tensors
        self._params = params
        self._layer_of = {r.scale_ref: r for r in qmanifest.records if not r.aux}
        self._pending: tuple[str, np.ndarray] | None = None  # (scale record, its scales)

    def _quantize(self, rec: TensorRecord) -> tuple[np.ndarray, np.ndarray]:
        try:
            qt = quantize_weight(self._tensors[rec.name], rec.grouping, self._params)
        except ValueError as exc:
            raise ValueError(f"layer {rec.name!r}: {exc}") from None
        return qt.values, qt.scales.reshape(rec.shape[0], -1)

    def __getitem__(self, name: str) -> np.ndarray:
        rec = self._manifest.record(name)
        if not rec.aux:
            values, scales = self._quantize(rec)
            self._pending = (rec.scale_ref, scales)
            return values
        pending = self._pending
        if pending is not None and pending[0] == name:
            self._pending = None
            return pending[1]
        if name in self._layer_of:
            return self._quantize(self._layer_of[name])[1]
        return self._tensors[name]

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
    layer is read.  A pass in record order (``write_model`` streams one)
    quantizes each layer once and holds one layer at a time.
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
        out_records.append(
            replace(rec, dtype="int8", scale_ref=sname, grouping=scheme, bits=params.bits)
        )
        out_records.append(TensorRecord(
            name=sname, shape=(n, m // scheme.resolved_group_size(m)), dtype="fp32", aux=True))
    qmanifest = ModelManifest.assemble(manifest.blocks, out_records)
    return qmanifest, _QuantizedView(qmanifest, tensors, params)


def apply_plan(
    manifest: ModelManifest,
    tensors: Mapping[str, np.ndarray],
    plan: QuantPlan,
) -> tuple[ModelManifest, dict[str, np.ndarray]]:
    """Quantize every layer under its assigned scheme, exactly as written:
    :func:`quantized_view` with every record computed and kept."""
    qmanifest, view = quantized_view(manifest, tensors, plan)
    return qmanifest, dict(view)


def read_quantized_layer(
    manifest: ModelManifest, tensors: Mapping[str, np.ndarray], name: str
) -> QuantizedTensor:
    """Rebuild a QuantizedTensor from a quantized model's records.

    The manifest has already checked the layer's grouping and bits and the
    scale record's shape.  The codes and scale values are disk bytes, so the
    tensor is built through the public, checked QuantizedTensor constructor:
    a code outside [-qmax, qmax] or a scale that is not positive and finite
    is rejected.
    """
    rec = manifest.record(name)
    if rec.aux or rec.dtype != "int8":
        raise ValueError(f"record {name!r} is not a quantized layer")
    scales = tensors[rec.scale_ref]
    if not rec.grouping.is_per_group:
        scales = scales.reshape(-1)
    return QuantizedTensor(
        values=tensors[name], scales=scales, grouping=rec.grouping, bits=rec.bits, axis=AXIS_ROW
    )


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
        lambda: _map_layers(lambda rec: layer_max_abs(tensors[rec.name]), records),
        lambda: _map_layers(
            lambda rec: layer_rmse(tensors[rec.name], GroupingScheme.per_channel(), params),
            records,
        ),
    )
    selected = [rec for rec in records if rec.name in chosen]
    schemes = [GroupingScheme.per_group(g) for g in dict.fromkeys(int(g) for g in sizes)]

    sse = _map_layers(lambda rec: _profile_layer(tensors[rec.name], schemes, params)[2], selected)
    elems = [rec.shape[0] * rec.shape[1] for rec in selected]
    rows = []
    for i, scheme in enumerate(schemes):
        per_layer = {rec.name: float(np.sqrt(s[i] / e)) for rec, s, e in zip(selected, sse, elems)}
        total_sq, total_elems = sum(s[i] for s in sse), sum(elems)
        aggregate = float(np.sqrt(total_sq / total_elems)) if total_elems else 0.0
        rows.append(SweepRow(scheme.group_size, per_layer, aggregate))
    return rows
