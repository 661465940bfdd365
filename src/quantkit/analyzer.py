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
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .model_store import ModelManifest, TensorRecord, atomic_write_text, parse_layer_name
from .quantizer import GroupingScheme, QuantParams
from .quantizer import _as_matrix, _encode_into, _scales_from_amax

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
        rms = float(np.sqrt(np.mean(np.square(w.astype(np.float64, copy=False)))))
        return self.rms_multiplier * rms


@dataclass
class LayerMetrics:
    """Per-channel profile of one layer at one bit width.

    ``cols`` is the layer's input dimension; ``group_rmse`` maps extra
    requested group sizes to per-group RMSE.
    """

    layer_index: int
    name: str
    cols: int
    bits: int
    max_abs: float
    rmse: float
    wall_count: int
    group_rmse: dict[int, float] = field(default_factory=dict)

    @property
    def block(self) -> int:
        return parse_layer_name(self.name)[0]

    @property
    def kind(self) -> str:
        return parse_layer_name(self.name)[1]


def _wall_columns(absw: np.ndarray, w: np.ndarray, cfg: WallDetectorConfig) -> list[int]:
    counts = (absw > cfg.resolve_threshold(w)).sum(axis=0)
    return [int(j) for j in np.nonzero(counts >= cfg.row_fraction * w.shape[0])[0]]


def _profile_layer(
    w: np.ndarray,
    groupings: Sequence[GroupingScheme],
    params: QuantParams,
    wall_cfg: WallDetectorConfig | None = None,
) -> tuple[float, list[int] | None, list[float]]:
    """One pass over a layer: max_abs, wall columns (None without a config)
    and, per grouping, the float64 squared-error sum of quantize_weight ->
    dequantize, to the bit.  Group maxima are reduced once per size from the
    largest computed divisor size; all schemes share one float64 buffer.
    """
    w = _as_matrix(w, "weight")
    n, m = w.shape
    for grouping in groupings:
        grouping.validate_for(m)
    absw = np.abs(w)
    w64 = w.astype(np.float64, copy=False)
    walls = None if wall_cfg is None else _wall_columns(absw, w64, wall_cfg)
    amax: dict[int, np.ndarray] = {}
    for g in sorted({grouping.resolved_group_size(m) for grouping in groupings}):
        base = max((f for f in amax if g % f == 0), default=None)
        amax[g] = (absw if base is None else amax[base]).reshape(n, m // g, -1).max(axis=2)
    buf = np.empty((n, m))
    sse = {}
    for g, group_amax in amax.items():
        scales = _scales_from_amax(group_amax, params).astype(np.float64)[:, :, None]
        x = w64.reshape(n, m // g, g)
        err = _encode_into(buf.reshape(x.shape), x, scales, params)
        np.subtract(x, np.multiply(err, scales, out=err), out=err)  # codes -> error in place
        sse[g] = float(np.sum(np.square(buf, out=buf)))
    return float(absw.max()), walls, [sse[gr.resolved_group_size(m)] for gr in groupings]


def layer_max_abs(w: np.ndarray) -> float:
    """Largest absolute value in the matrix."""
    return float(np.abs(_as_matrix(w, "weight")).max())


def layer_rmse(w: np.ndarray, grouping: GroupingScheme, params: QuantParams) -> float:
    """RMSE between the weights and their quantize/dequantize image.

    Root of the mean over all N*M elements, accumulated in float64.
    """
    (sse,) = _profile_layer(w, [grouping], params)[2]
    return float(np.sqrt(sse / np.size(w)))


def detect_walls(w: np.ndarray, cfg: WallDetectorConfig) -> list[int]:
    """Input columns where at least row_fraction * N entries exceed the threshold.

    Returned ascending.  Invariant under row permutation; equivariant
    under column permutation.  An all-zero tensor yields an empty list.
    """
    w = _as_matrix(w, "weight")
    return _wall_columns(np.abs(w), w, cfg)


def _map_layers(fn: Callable, records: Iterable[TensorRecord]) -> list:
    """[fn(rec) for rec in records] on QUANTKIT_THREADS threads (default 1);
    a ValueError from ``fn`` is re-raised with the layer's name in front."""
    def named(rec: TensorRecord):
        try:
            return fn(rec)
        except ValueError as exc:
            raise ValueError(f"layer {rec.name!r}: {exc}") from None

    try:
        workers = int(os.environ.get("QUANTKIT_THREADS", ""))
    except ValueError:
        workers = 1
    if workers <= 1:
        return [named(rec) for rec in records]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(named, records))


def profile_model(
    manifest: ModelManifest,
    tensors: Mapping[str, np.ndarray],
    params: QuantParams,
    wall_cfg: WallDetectorConfig | None = None,
    group_sizes: Sequence[int] = (),
) -> list[LayerMetrics]:
    """Profile every layer of a model per-channel, ordered by layer index.

    Each ``group_sizes`` entry adds a ``group_rmse`` value per layer; a
    size that does not divide a layer's columns is an error naming the
    layer.  Layers are independent, so profiling runs on up to
    QUANTKIT_THREADS threads (default 1); the output order is always the
    layer-index order regardless of completion order.
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

    schemes = [GroupingScheme.per_channel(), *map(GroupingScheme.per_group, group_sizes)]

    def profile_one(rec) -> LayerMetrics:
        w = tensors[rec.name]
        max_abs, walls, sse = _profile_layer(w, schemes, params, wall_cfg)
        rmse = [float(np.sqrt(x / w.size)) for x in sse]  # as layer_rmse computes it
        return LayerMetrics(
            layer_index=manifest.layer_index(rec.name),
            name=rec.name,
            cols=rec.shape[1],
            bits=params.bits,
            max_abs=max_abs,
            rmse=rmse[0],
            wall_count=len(walls),
            group_rmse=dict(zip(group_sizes, rmse[1:])),
        )

    return _map_layers(profile_one, records)


def csv_float(x: float) -> str:
    """Float text for CSVs: the shortest string that reads back exactly."""
    return repr(float(x))


def metrics_csv_text(metrics: list[LayerMetrics]) -> str:
    """Render per-channel metrics (plus their ``group_rmse`` columns) as CSV.

    Columns: layer_index,name,block,kind,cols,bits,max_abs,rmse_pc,rmse_g{g}...,
    wall_count with one rmse_g column per group size, ascending.
    """
    sizes = sorted(metrics[0].group_rmse) if metrics else []
    if any(sorted(m.group_rmse) != sizes for m in metrics):
        raise ValueError("every layer must carry RMSE for the same group sizes")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["layer_index", "name", "block", "kind", "cols", "bits", "max_abs", "rmse_pc"]
        + [f"rmse_g{g}" for g in sizes]
        + ["wall_count"]
    )
    for m in metrics:
        writer.writerow(
            [m.layer_index, m.name, m.block, m.kind, m.cols, m.bits]
            + [csv_float(m.max_abs), csv_float(m.rmse)]
            + [csv_float(m.group_rmse[g]) for g in sizes]
            + [m.wall_count]
        )
    return buf.getvalue()


def write_metrics_csv(path: str | os.PathLike, metrics: list[LayerMetrics]) -> None:
    atomic_write_text(path, metrics_csv_text(metrics))


def read_metrics_csv(path: str | os.PathLike) -> list[LayerMetrics]:
    """Parse a metrics CSV back into per-channel LayerMetrics (no group_rmse)."""
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
                    cols=int(row["cols"]),
                    bits=int(row["bits"]),
                    max_abs=float(row["max_abs"]),
                    rmse=float(row["rmse_pc"]),
                    wall_count=int(row["wall_count"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed metrics row ({exc!r}): {row!r}") from exc
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
