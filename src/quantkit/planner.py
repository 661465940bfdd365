"""Mixed per-channel/per-group quantization planning.

Layers whose profile marks them as outlier-bearing get per-group scales
at a finer granularity; everything else stays per-channel, which keeps
the integer matmul fast for the overwhelming majority of the model.  A
plan is a total assignment of one grouping scheme per layer and is
serializable to JSON for reproducible application.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .analyzer import LayerMetrics, _map_layers, _profile_layer, profile_model
from .model_store import ModelManifest, TensorRecord
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
        if not isinstance(obj, dict) or obj.get("version") != PLAN_VERSION:
            raise ValueError(f"unsupported plan version {obj.get('version')!r}")
        try:
            assignments = {
                name: GroupingScheme.from_json(desc)
                for name, desc in obj["assignments"].items()
            }
            return cls(
                assignments=assignments,
                group_size=int(obj["group_size"]),
                bits=int(obj["bits"]),
                fallbacks={k: int(v) for k, v in obj.get("fallbacks", {}).items()},
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"malformed plan JSON: {exc}") from exc


def _select(metrics: list[LayerMetrics], cfg: PlanConfig) -> set[str]:
    if cfg.max_abs_threshold is not None:
        return {m.name for m in metrics if m.max_abs >= cfg.max_abs_threshold}
    if cfg.top_k is not None:
        ranked = sorted(metrics, key=lambda m: (-m.rmse, m.layer_index))
        return {m.name for m in ranked[: cfg.top_k]}
    known = {m.name for m in metrics}
    unknown = sorted(set(cfg.explicit) - known)
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
    selected = _select(metrics, cfg)
    assignments: dict[str, GroupingScheme] = {}
    fallbacks: dict[str, int] = {}
    for m in sorted(metrics, key=lambda x: x.layer_index):
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


def apply_plan(
    manifest: ModelManifest,
    tensors: Mapping[str, np.ndarray],
    plan: QuantPlan,
) -> tuple[ModelManifest, dict[str, np.ndarray]]:
    """Quantize every layer under its assigned scheme, exactly as written.

    Produces an int8 record per layer followed by an aux fp32 record
    holding its scales (per-channel scales stored as an (N, 1) column);
    aux records of the source model pass through unchanged.  The plan
    must cover exactly the model's layers, and each per-group size must
    divide its layer's column count.
    """
    params = QuantParams(plan.bits)
    layer_names = {rec.name for rec in manifest.layer_records()}
    plan_names = set(plan.assignments)
    if layer_names != plan_names:
        missing = sorted(layer_names - plan_names)
        extra = sorted(plan_names - layer_names)
        raise ValueError(
            f"plan does not cover the model's layers; missing={missing} extra={extra}"
        )

    out_records: list[TensorRecord] = []
    out_tensors: dict[str, np.ndarray] = {}
    for rec in manifest.records:
        if rec.aux:
            out_records.append(rec)
            out_tensors[rec.name] = tensors[rec.name]
            continue
        if rec.dtype != "fp32":
            raise ValueError(
                f"layer {rec.name!r} is {rec.dtype}, not fp32; the model looks "
                "already quantized"
            )
        scheme = plan.assignments[rec.name]
        try:
            qt = quantize_weight(tensors[rec.name], scheme, params)
        except ValueError as exc:
            raise ValueError(f"layer {rec.name!r}: {exc}") from None
        scales = qt.scales.reshape(rec.shape[0], -1)
        sname = scale_record_name(rec.name)
        out_records.append(
            replace(rec, dtype="int8", scale_ref=sname, grouping=scheme, bits=params.bits)
        )
        out_records.append(TensorRecord(name=sname, shape=scales.shape, dtype="fp32", aux=True))
        out_tensors[rec.name] = qt.values
        out_tensors[sname] = scales
    return ModelManifest.assemble(manifest.blocks, out_records), out_tensors


def read_quantized_layer(
    manifest: ModelManifest, tensors: Mapping[str, np.ndarray], name: str
) -> QuantizedTensor:
    """Rebuild a QuantizedTensor from a quantized model's records.

    The manifest has already checked the layer's grouping, bits and scales.
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

    The layer set is selected once (from a per-channel profile) and
    reused for every size; duplicate sizes are dropped, first occurrence
    order preserved, and a size that does not divide a selected layer's
    columns is an error naming the layer.  The aggregate is the RMSE over
    all elements of all selected layers together.
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    metrics = profile_model(manifest, tensors, params)
    chosen = _select(metrics, selection)
    selected = [manifest.record(m.name) for m in metrics if m.name in chosen]
    schemes = [GroupingScheme.per_group(g) for g in dict.fromkeys(int(g) for g in sizes)]

    sse = _map_layers(lambda rec: _profile_layer(tensors[rec.name], schemes, params)[2], selected)
    elems = [tensors[rec.name].size for rec in selected]
    rows = []
    for i, scheme in enumerate(schemes):
        per_layer = {rec.name: float(np.sqrt(s[i] / e)) for rec, s, e in zip(selected, sse, elems)}
        total_sq, total_elems = sum(s[i] for s in sse), sum(elems)
        aggregate = float(np.sqrt(total_sq / total_elems)) if total_elems else 0.0
        rows.append(SweepRow(scheme.group_size, per_layer, aggregate))
    return rows
