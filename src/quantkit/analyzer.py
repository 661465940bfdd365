"""Per-layer weight profiling: max-abs, quantization RMSE, outlier walls.

A "wall" is a set of input columns whose magnitudes sit orders of
magnitude above the rest of a weight matrix.  Because every row of the
matrix crosses those columns, a wall inflates every per-channel scale and
makes the whole layer quantize badly; detecting walls column-wise (a
minimum fraction of rows exceeding a threshold) distinguishes them from
isolated point outliers.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .model_store import ModelManifest, atomic_write_text, parse_layer_name
from .quantizer import GroupingScheme, QuantParams, dequantize, quantize_weight

# First-block V-matrix weight maxima observed in public checkpoints.  The
# 70B LLaMA3 family sits roughly three orders of magnitude above the
# others, which is what makes it fragile under per-channel 8-bit weights.
REFERENCE_V0_MAX_ABS = {
    "llama3-70b": 93.0,
    "llama3.1-70b": 92.5,
    "llama3-8b": 0.05,
    "llama2-70b": 0.07,
}

# max_abs of the worst-quantizing layer (first-block K) in models that
# tolerate per-channel 8-bit weights; all stay below 1.0.
REFERENCE_WORST_LAYER_MAX_ABS = {
    "llama2-70b": 0.95,
    "llama3-8b": 0.77,
    "llama3.1-405b": 0.98,
    "qwen2-72b": 0.41,
}

DEFAULT_WALL_RMS_MULTIPLIER = 20.0
DEFAULT_WALL_ROW_FRACTION = 0.01


@dataclass(frozen=True)
class WallDetectorConfig:
    """Column-wall rule: a column is a wall when at least ``row_fraction``
    of its entries exceed the magnitude threshold.

    Exactly one of ``magnitude_threshold`` (absolute) and
    ``rms_multiplier`` (threshold = multiplier * tensor RMS) is active.
    The relative default of 20x RMS targets production-scale tensors
    where wall columns are a vanishing fraction of the input dimension;
    on small matrices where walls dominate the RMS, pass an absolute
    threshold instead.
    """

    magnitude_threshold: float | None = None
    rms_multiplier: float | None = DEFAULT_WALL_RMS_MULTIPLIER
    row_fraction: float = DEFAULT_WALL_ROW_FRACTION

    def __post_init__(self):
        if (self.magnitude_threshold is None) == (self.rms_multiplier is None):
            raise ValueError(
                "exactly one of magnitude_threshold and rms_multiplier must be set"
            )
        active = self.magnitude_threshold if self.rms_multiplier is None else self.rms_multiplier
        if not active > 0:
            raise ValueError("threshold must be positive")
        if not 0 < self.row_fraction <= 1:
            raise ValueError(f"row_fraction must be in (0, 1], got {self.row_fraction}")

    @classmethod
    def absolute(cls, threshold: float, row_fraction: float = DEFAULT_WALL_ROW_FRACTION):
        return cls(magnitude_threshold=threshold, rms_multiplier=None, row_fraction=row_fraction)

    def resolve_threshold(self, w: np.ndarray) -> float:
        if self.magnitude_threshold is not None:
            return float(self.magnitude_threshold)
        rms = float(np.sqrt(np.mean(np.square(w.astype(np.float64)))))
        return self.rms_multiplier * rms


@dataclass
class LayerMetrics:
    """Profile of one layer under a given grouping and bit width.

    ``cols`` is the layer's input dimension when known (profiles computed
    from tensors carry it; profiles parsed back from CSV do not).
    """

    layer_index: int
    name: str
    max_abs: float
    rmse: float
    grouping: GroupingScheme
    bits: int
    wall_columns: list[int]
    cols: int | None = None

    @property
    def block(self) -> int:
        return parse_layer_name(self.name)[0]

    @property
    def kind(self) -> str:
        return parse_layer_name(self.name)[1]


def _as_weight(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w)
    if w.ndim != 2 or 0 in w.shape:
        raise ValueError("expected a non-empty 2-D weight matrix")
    if not np.isfinite(w).all():
        raise ValueError("weight contains NaN or Inf")
    return w


def layer_max_abs(w: np.ndarray) -> float:
    """Largest absolute value in the matrix."""
    return float(np.abs(_as_weight(w)).max())


def _squared_error_sum(w: np.ndarray, grouping: GroupingScheme, params: QuantParams) -> float:
    """Sum over all elements of the squared quantize/dequantize error, in float64."""
    err = w.astype(np.float64) - dequantize(quantize_weight(w, grouping, params))
    return float(np.sum(np.square(err)))


def layer_rmse(w: np.ndarray, grouping: GroupingScheme, params: QuantParams) -> float:
    """RMSE between the weights and their quantize/dequantize image.

    Root of the mean over all N*M elements, accumulated in float64.
    """
    w = _as_weight(w)
    return float(np.sqrt(_squared_error_sum(w, grouping, params) / w.size))


def detect_walls(w: np.ndarray, cfg: WallDetectorConfig) -> list[int]:
    """Input columns where at least row_fraction * N entries exceed the threshold.

    Returned ascending.  Invariant under row permutation; equivariant
    under column permutation.  An all-zero tensor yields an empty list.
    """
    w = _as_weight(w)
    threshold = cfg.resolve_threshold(w)
    counts = (np.abs(w) > threshold).sum(axis=0)
    needed = cfg.row_fraction * w.shape[0]
    return [int(j) for j in np.nonzero(counts >= needed)[0]]


def _thread_workers() -> int:
    raw = os.environ.get("QUANTKIT_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def profile_model(
    manifest: ModelManifest,
    tensors: Mapping[str, np.ndarray],
    grouping: GroupingScheme,
    params: QuantParams,
    wall_cfg: WallDetectorConfig | None = None,
    max_workers: int | None = None,
) -> list[LayerMetrics]:
    """Profile every layer of a model, ordered by layer index.

    Layers are independent, so profiling runs on up to ``max_workers``
    threads (default: the QUANTKIT_THREADS environment variable, else 1);
    the output order is always the layer-index order regardless of
    completion order.
    """
    if wall_cfg is None:
        wall_cfg = WallDetectorConfig()
    records = manifest.layer_records()

    bad = [r.name for r in records if r.dtype != "fp32"]
    if bad:
        raise ValueError(
            f"profiling needs FP layer tensors; these are not fp32 (already "
            f"quantized?): {bad[:5]}"
        )

    def profile_one(rec) -> LayerMetrics:
        w = tensors[rec.name]
        return LayerMetrics(
            layer_index=manifest.layer_index(rec.name),
            name=rec.name,
            max_abs=layer_max_abs(w),
            rmse=layer_rmse(w, grouping, params),
            grouping=grouping,
            bits=params.bits,
            wall_columns=detect_walls(w, wall_cfg),
            cols=rec.shape[1],
        )

    workers = max_workers if max_workers is not None else _thread_workers()
    if workers <= 1:
        return [profile_one(rec) for rec in records]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(profile_one, records))


def _fmt(x: float) -> str:
    return repr(float(x))


def metrics_csv_text(
    metrics: list[LayerMetrics], group_rmse: Mapping[int, list[float]] | None = None
) -> str:
    """Render per-channel metrics (plus optional per-group RMSE columns) as CSV.

    Columns: layer_index,name,block,kind,max_abs,rmse_pc,rmse_g{g}...,wall_count
    with one rmse_g column per group size, ascending.
    """
    group_rmse = group_rmse or {}
    sizes = sorted(group_rmse)
    for g, col in group_rmse.items():
        if len(col) != len(metrics):
            raise ValueError(f"rmse column for group size {g} has wrong length")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["layer_index", "name", "block", "kind", "max_abs", "rmse_pc"]
        + [f"rmse_g{g}" for g in sizes]
        + ["wall_count"]
    )
    for i, m in enumerate(metrics):
        writer.writerow(
            [m.layer_index, m.name, m.block, m.kind, _fmt(m.max_abs), _fmt(m.rmse)]
            + [_fmt(group_rmse[g][i]) for g in sizes]
            + [len(m.wall_columns)]
        )
    return buf.getvalue()


def write_metrics_csv(
    path: str | os.PathLike,
    metrics: list[LayerMetrics],
    group_rmse: Mapping[int, list[float]] | None = None,
) -> None:
    atomic_write_text(path, metrics_csv_text(metrics, group_rmse))


def read_metrics_csv(path: str | os.PathLike) -> list[LayerMetrics]:
    """Parse a metrics CSV back into per-channel LayerMetrics.

    The CSV stores only the wall count, so wall_columns comes back empty;
    the input dimension is likewise not stored (cols=None).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"no metric rows in {os.fspath(path)}")
    metrics = []
    for row in rows:
        try:
            metrics.append(
                LayerMetrics(
                    layer_index=int(row["layer_index"]),
                    name=row["name"],
                    max_abs=float(row["max_abs"]),
                    rmse=float(row["rmse_pc"]),
                    grouping=GroupingScheme.per_channel(),
                    bits=8,
                    wall_columns=[],
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed metrics row: {row!r}") from exc
    return sorted(metrics, key=lambda m: m.layer_index)


def plot_data_json_text(metrics: list[LayerMetrics]) -> str:
    """Dual-series plot data: x = layer index, series = rmse and max_abs."""
    obj = {
        "x": [m.layer_index for m in metrics],
        "names": [m.name for m in metrics],
        "rmse": [float(m.rmse) for m in metrics],
        "max_abs": [float(m.max_abs) for m in metrics],
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_plot_data_json(path: str | os.PathLike, metrics: list[LayerMetrics]) -> None:
    atomic_write_text(path, plot_data_json_text(metrics))
