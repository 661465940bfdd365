"""Mixed per-channel/per-group quantization planning.

Layers whose profile marks them as outlier-bearing get per-group scales
at a finer granularity; everything else stays per-channel, which keeps
the integer matmul fast for the overwhelming majority of the model.  A
plan is a total assignment of one grouping scheme per layer and is
serializable to JSON for reproducible application.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
    bits: int = 8

    def __post_init__(self):
        modes = sum(x is not None for x in (self.max_abs_threshold, self.top_k, self.explicit))
        if modes != 1:
            raise ValueError("exactly one selection mode must be set")
        if self.top_k is not None and self.top_k < 0:
            raise ValueError("top_k must be non-negative")
        if self.group_size < 1:
            raise ValueError("group_size must be positive")
        QuantParams(self.bits)


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
        if not self.assignments:
            return 0.0
        selected = sum(1 for s in self.assignments.values() if s.is_per_group)
        return selected / len(self.assignments)

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

    Column counts come from the metrics; when a selected layer's count is
    known and the group size does not divide it, the size falls back to
    the largest divisor and the layer is listed in the plan's fallbacks.
    When the count is unknown the requested size is kept and apply_plan
    resolves the fallback against the actual tensor.
    """
    if not metrics:
        raise ValueError("metrics must be non-empty")
    selected = _select(metrics, cfg)
    assignments: dict[str, GroupingScheme] = {}
    fallbacks: dict[str, int] = {}
    for m in sorted(metrics, key=lambda x: x.layer_index):
        if m.name not in selected:
            assignments[m.name] = GroupingScheme.per_channel()
            continue
        g = cfg.group_size
        if m.cols is not None:
            g = fit_group_size(m.cols, cfg.group_size)
            if g != cfg.group_size:
                fallbacks[m.name] = g
        assignments[m.name] = GroupingScheme.per_group(g)
    return QuantPlan(
        assignments=assignments, group_size=cfg.group_size, bits=cfg.bits, fallbacks=fallbacks
    )


def scale_record_name(name: str) -> str:
    return name + SCALE_SUFFIX


def apply_plan(
    manifest: ModelManifest,
    tensors: Mapping[str, np.ndarray],
    plan: QuantPlan,
    params: QuantParams | None = None,
) -> tuple[ModelManifest, dict[str, np.ndarray]]:
    """Quantize every layer under its assigned scheme.

    Produces an int8 record per layer followed by an aux fp32 record
    holding its scales (per-channel scales stored as an (N, 1) column);
    aux records of the source model pass through unchanged.  The plan
    must cover exactly the model's layers.
    """
    if params is None:
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
        if scheme.is_per_group:
            g = fit_group_size(rec.shape[1], scheme.group_size)
            scheme = GroupingScheme.per_group(g)
        qt = quantize_weight(tensors[rec.name], scheme, params)
        scales = qt.scales.reshape(rec.shape[0], -1)
        sname = scale_record_name(rec.name)
        out_records.append(
            TensorRecord(
                name=rec.name,
                shape=rec.shape,
                dtype="int8",
                scale_ref=sname,
                grouping=scheme,
                bits=params.bits,
            )
        )
        out_records.append(TensorRecord(name=sname, shape=scales.shape, dtype="fp32", aux=True))
        out_tensors[rec.name] = qt.values
        out_tensors[sname] = scales
    return ModelManifest.assemble(manifest.blocks, out_records), out_tensors


def read_quantized_layer(
    manifest: ModelManifest, tensors: Mapping[str, np.ndarray], name: str
) -> QuantizedTensor:
    """Rebuild a QuantizedTensor from a quantized model's records."""
    rec = manifest.record(name)
    if rec.dtype != "int8" or rec.scale_ref is None or rec.grouping is None:
        raise ValueError(f"record {name!r} is not a quantized layer")
    scales = tensors[rec.scale_ref]
    if not rec.grouping.is_per_group:
        scales = scales.reshape(-1)
    return QuantizedTensor(
        values=tensors[name],
        scales=scales,
        grouping=rec.grouping,
        bits=rec.bits if rec.bits is not None else 8,
        axis=AXIS_ROW,
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
    params: QuantParams | None = None,
) -> list[SweepRow]:
    """Per-group RMSE of the selected layers at each group size.

    The layer set is selected once (from a per-channel profile) and
    reused for every size; duplicate sizes are dropped, first occurrence
    order preserved.  The aggregate is the RMSE over all elements of all
    selected layers together.
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    if params is None:
        params = QuantParams(selection.bits)
    metrics = profile_model(manifest, tensors, GroupingScheme.per_channel(), params)
    selected = build_plan(metrics, selection).selected_layers()

    unique_sizes = list(dict.fromkeys(int(g) for g in sizes))

    def layer_sse(name: str) -> list[float]:
        m = tensors[name].shape[1]
        schemes = [GroupingScheme.per_group(fit_group_size(m, g)) for g in unique_sizes]
        return _profile_layer(tensors[name], schemes, params)[2]

    sse = _map_layers(layer_sse, selected)
    elems = [tensors[name].size for name in selected]
    rows = []
    for i, g in enumerate(unique_sizes):
        per_layer = {name: float(np.sqrt(s[i] / e)) for name, s, e in zip(selected, sse, elems)}
        total_sq, total_elems = sum(s[i] for s in sse), sum(elems)
        aggregate = float(np.sqrt(total_sq / total_elems)) if total_elems else 0.0
        rows.append(SweepRow(group_size=g, per_layer_rmse=per_layer, aggregate_rmse=aggregate))
    return rows
