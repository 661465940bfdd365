"""Per-layer weight profiling: max-abs, quantization RMSE, outlier walls.

A "wall" is a set of input columns whose magnitudes sit orders of
magnitude above the rest of a weight matrix.  Because every row of the
matrix crosses those columns, a wall inflates every per-channel scale and
makes the whole layer quantize badly; detecting walls column-wise (a
minimum fraction of rows exceeding a threshold) distinguishes them from
isolated point outliers.

Every pass takes its layer as a row source (see ``quantizer``): an
in-memory matrix, or a record of an open model that ``profile_model`` and
the planner's sweep get from ``model_store.row_source`` and read block by
block.  So a pass holds one block of rows and this thread's block scratch,
not the fp32 layer.

The profile (``_profile_layer``) pays once per leaf for all of a layer's
group sizes, not once per size: one chain of group maxima for every size
(``quantizer._maxima_chain``), one scale pass over all of them, and the
squared errors of as many sizes at once as fit in one block.  Its leaves
are split until the whole rows that hold one hold at most a block, so a
layer whose rows do not tile a block still works in the thread's kept
block scratch (``quantizer._scratch``).

A layer's block, kind and layer index come from its name alone:
``LayerMetrics`` parses them once, when built, and reading a metrics CSV
checks its ``layer_index``, ``block`` and ``kind`` cells against them.

Every CSV quantkit writes goes through ``csv_text`` and every CSV it reads
through ``read_csv``, which checks the header once against a column -> type
table and reads each cell by its column's type.  ``_metric_columns`` is the
metrics CSV's table for the writer and the reader alike, so a metrics CSV
reads back whole, ``group_rmse`` included.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .model_store import (
    ModelManifest,
    TensorRecord,
    _map_in_order,
    _require_kind,
    atomic_write_text,
    layer_index_of,
    parse_layer_name,
    row_source,
)
from . import quantizer
from .quantizer import GroupingScheme, QuantParams
from .quantizer import (
    _abs64,
    _abs_rows,
    _as_rows,
    _check_bits,
    _finite_max,
    _magnitudes_into,
    _maxima_chain,
    _pairwise,
    _row_blocks,
    _scales_from_amax,
    _scratch,
)

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
        for what in ("magnitude_threshold", "rms_multiplier", "row_fraction"):
            value = getattr(self, what)
            if value is not None:
                _require_kind(value, float, f"wall detector {what!r}")
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


@dataclass
class LayerMetrics:
    """Per-channel profile of one layer at one bit width.

    ``cols`` is the layer's input dimension; ``group_rmse`` maps extra
    requested group sizes to per-group RMSE.  ``block``, ``kind`` and
    ``layer_index`` are parsed from ``name`` when built, never passed.
    """

    name: str
    cols: int
    bits: int
    max_abs: float
    rmse: float
    wall_count: int
    group_rmse: dict[int, float] = field(default_factory=dict)
    block: int = field(init=False)
    kind: str = field(init=False)
    layer_index: int = field(init=False)

    def __post_init__(self):
        parsed = parse_layer_name(self.name) if type(self.name) is str else None
        if parsed is None:
            raise ValueError(f"not a layer name: {self.name!r}")
        self.block, self.kind = parsed
        self.layer_index = layer_index_of(*parsed)


def _profile_layer(
    w,
    groupings: Sequence[GroupingScheme],
    params: QuantParams,
    wall_cfg: WallDetectorConfig | None = None,
) -> tuple[float, list[int] | None, list[float]]:
    """One pass over a layer (a matrix or a row source): max_abs, wall
    columns (None without a config) and, per grouping, the float64
    squared-error sum of quantize_weight -> dequantize, to the bit.

    The flat layer is walked in leaves of at most _BLOCK elements, split as
    np.sum splits it (_pairwise), so every sum equals np.sum over the whole
    layer; a leaf is split further until the whole rows that hold it hold
    at most a block, unless its rows are wider than half a block.  A leaf
    reads those rows and takes |w| once, into one float64 copy, and pays
    once for all its group sizes, not once per size:

    - one maxima chain: every size's (k, M/g) maxima, one block after
      another in this thread's ``amax`` scratch (an array of the leaf's
      own if they hold more than a block, as every scratch request is),
      each reduced from the largest computed size that divides it
      (quantizer._maxima_chain);
    - one scale pass over that buffer (quantizer._scales_from_amax) and one
      float64 cast.  A raised error names what a pass size by size names;
      the clamp flag is every size's flag or-ed, which is harmless, because
      a normal scale never needs the clamp (quantizer._NORMAL);
    - stacks of S sizes with S*k*M <= _BLOCK, each one divide, +0.5,
      floor, multiply, subtract and square chain over the (S, k, M)
      ``work`` scratch and one np.add.reduce along its rows' ranges.  A
      stack of several sizes writes their scales out to (S, k, M) in the
      ``scales`` scratch; a size alone in its stack takes its (k, M/g, 1)
      scales by broadcast, with no copy.  In a full-block leaf, as in a
      1024 x 1024 layer, every stack holds one size.

    No step is signed: a grouping's error is |x| - mag*s with the code
    magnitudes mag of |x| (quantizer._magnitudes_into), whose square is
    (x - q*s)**2 to the bit, and the wall RMS sums |x|**2.  Wall columns
    are counted afterwards, reading the rows again block by block, against
    the threshold from the summed squares; a layer whose max |w| is not
    above the threshold has none, and is not read again.
    """
    src = _as_rows(w, "weight")
    n, m = src.shape
    for grouping in groupings:
        grouping.validate_for(m)
    sizes = sorted({grouping.resolved_group_size(m) for grouping in groupings})
    width = sum(m // g for g in sizes)  # maxima per row, over every size
    rms_threshold = wall_cfg is not None and wall_cfg.magnitude_threshold is None
    read = src.read_rows
    maxima = []

    def leaf(lo: int, hi: int) -> np.ndarray:
        first = lo // m
        rows = read(first, -(-hi // m))
        k = len(rows)
        span = slice(lo - first * m, hi - first * m)  # the leaf's range within its rows
        a64 = _abs64(rows, _scratch("w64", rows.shape, np.float64))
        chain = _scratch("amax", (k * width,), np.float64)
        amax = _maxima_chain(a64, sizes, chain)
        # The finest maxima cover every element, so a NaN or Inf shows in them.
        maxima.append(_finite_max(amax[sizes[0]] if sizes else a64, "weight"))
        sums = np.empty(len(sizes) + rms_threshold)
        if sizes:
            try:
                scales, clamp = _scales_from_amax(chain, params, maxima[-1])
            except ValueError:
                for block in amax.values():  # the finest failing size's text, as size by size
                    _scales_from_amax(block, params, maxima[-1])
                raise
            scales = scales.astype(np.float64)
            per = max(1, quantizer._BLOCK // (k * m))  # sizes per stack
            at = 0
            for i in range(0, len(sizes), per):
                stack = sizes[i:i + per]
                blocks = []  # each size's (k, M/g, 1) scales
                for g in stack:
                    blocks.append(scales[at:at + k * (m // g)].reshape(k, m // g, 1))
                    at += k * (m // g)
                err = _scratch("work", (len(stack), k, m), np.float64)
                if len(stack) == 1:  # broadcast, with no copy
                    (g,) = stack
                    x = a64.reshape(1, k, m // g, g)
                    s = blocks[0][None]
                    err = err.reshape(x.shape)
                else:
                    x = a64
                    s = _scratch("scales", err.shape, np.float64)
                    for j, (g, block) in enumerate(zip(stack, blocks)):
                        np.copyto(s[j].reshape(k, m // g, g), block)
                _magnitudes_into(err, x, s, params, clamp)
                np.subtract(x, np.multiply(err, s, out=err), out=err)  # mag -> |error| in place
                part = err.reshape(len(stack), -1)[:, span]
                sums[i:i + len(stack)] = np.add.reduce(np.square(part, out=part), axis=1)
        if rms_threshold:
            part = _scratch("work", (k * m,), np.float64)[span]
            sums[-1] = np.add.reduce(np.square(a64.reshape(-1)[span], out=part))
        return sums

    sums = _pairwise(0, n * m, leaf, m)
    max_abs = float(max(maxima))
    walls = None
    if wall_cfg is not None:
        if rms_threshold:
            threshold = wall_cfg.rms_multiplier * float(np.sqrt(sums[-1] / (n * m)))
        else:
            threshold = float(wall_cfg.magnitude_threshold)
        walls = []
        # The count compares |x| in the rows' dtype (a float32 layer against
        # the threshold rounded to float32); max_abs, which that dtype holds
        # exactly, compared the same way tells whether any element can count.
        if np.greater(np.array(max_abs, dtype=src.dtype), threshold):
            counts = 0
            for b in _row_blocks(n, m):
                absw = _abs_rows(read(b.start, b.stop))
                counts = counts + np.greater(
                    absw, threshold, out=_scratch("mask", absw.shape, bool)).sum(axis=0)
            walls = [int(j) for j in np.nonzero(counts >= wall_cfg.row_fraction * n)[0]]
    sse = dict(zip(sizes, sums.tolist()))
    return max_abs, walls, [sse[gr.resolved_group_size(m)] for gr in groupings]


def layer_max_abs(w) -> float:
    """Largest absolute value in the matrix (or row source), read row block
    by row block."""
    src = _as_rows(w, "weight")
    read = src.read_rows
    top = max(_finite_max(_abs_rows(read(b.start, b.stop)), "weight")
              for b in _row_blocks(*src.shape))
    return float(top)


def layer_rmse(w, grouping: GroupingScheme, params: QuantParams) -> float:
    """RMSE between the weights and their quantize/dequantize image.

    Root of the mean over all N*M elements, accumulated in float64.
    """
    src = _as_rows(w, "weight")
    (sse,) = _profile_layer(src, [grouping], params)[2]
    n, m = src.shape
    return float(np.sqrt(sse / (n * m)))


def detect_walls(w, cfg: WallDetectorConfig) -> list[int]:
    """Input columns where at least row_fraction * N entries exceed the threshold.

    Returned ascending.  Invariant under row permutation; equivariant
    under column permutation.  An all-zero tensor yields an empty list.
    """
    return _profile_layer(w, (), QuantParams(), cfg)[1]


def _map_layers(fn: Callable, records: Iterable[TensorRecord]) -> list:
    """[fn(rec) for rec in records] on QUANTKIT_THREADS threads (default 1,
    ``model_store._map_in_order``); a ValueError from ``fn`` is re-raised
    with the layer's name in front."""
    def named(rec: TensorRecord):
        try:
            return fn(rec)
        except ValueError as exc:
            raise ValueError(f"layer {rec.name!r}: {exc}") from None

    return _map_in_order(named, records)


def _fp32_layer_records(manifest: ModelManifest) -> list[TensorRecord]:
    """The model's layer records in layer-index order.  Each must be fp32
    to be profiled or quantized; the error names the first offenders in
    that order."""
    records = manifest.layer_records()
    bad = [r.name for r in records if r.dtype != "fp32"]
    if bad:
        raise ValueError(
            f"the model's layers must be fp32 to be profiled or quantized; these are "
            f"not fp32 (already quantized?): {bad[:5]}"
        )
    return records


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
    records = _fp32_layer_records(manifest)
    schemes = [GroupingScheme.per_channel(), *map(GroupingScheme.per_group, group_sizes)]

    def profile_one(rec) -> LayerMetrics:
        w = row_source(tensors, rec.name)
        max_abs, walls, sse = _profile_layer(w, schemes, params, wall_cfg)
        n, m = w.shape
        rmse = [float(np.sqrt(x / (n * m))) for x in sse]  # as layer_rmse computes it
        return LayerMetrics(
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


def csv_text(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """CSV text with "\\n" line ends: the header line, then one line per row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def read_csv(path: str | os.PathLike, columns: Callable, what: str) -> list[tuple[int, dict]]:
    """The rows of a CSV file (blank lines skipped), each with the file line it
    ends on and its cells by column, read by the types ``columns(header)``
    gives.  A header or row that does not fit, or no row, is a ValueError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            lines = [(reader.line_num, row) for row in reader if row]
        except csv.Error as exc:
            raise ValueError(f"malformed CSV in {os.fspath(path)}: {exc}") from None
    (line, header), *lines = lines or [(1, [])]
    table = columns(header)
    faults = "; ".join(f"{fault} columns {names}" for fault, names in (
        ("unknown", [c for c in header if c not in table]),
        ("missing", [c for c in table if c not in header]),
        ("repeated", [c for i, c in enumerate(header) if c in header[:i]])) if names)
    if faults:
        raise ValueError(f"malformed {what} row at line {line} (the header) in "
                         f"{os.fspath(path)}: {faults}")
    kinds = [(c, table[c]) for c in header]
    rows = []
    for line, row in lines:
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} cells for {len(header)} columns")
            rows.append((line, {c: kind(cell) for (c, kind), cell in zip(kinds, row)}))
        except ValueError as exc:
            raise ValueError(f"malformed {what} row at line {line} ({exc!r}): {row!r}") from exc
    if not rows:
        raise ValueError(f"no {what} rows in {os.fspath(path)}")
    return rows


_GROUP_COLUMN = re.compile(r"rmse_g([1-9][0-9]*)")  # as written: not rmse_g0 or rmse_g016


def _metric_columns(sizes: Iterable[int]) -> dict[str, type]:
    """The metrics CSV's columns in order, each with the type its cells read as."""
    return {"layer_index": int, "name": str, "block": int, "kind": str, "cols": int,
            "bits": int, "max_abs": float, "rmse_pc": float,
            **{f"rmse_g{g}": float for g in sizes}, "wall_count": int}


def metrics_csv_text(metrics: list[LayerMetrics]) -> str:
    """Render metrics as CSV, with one rmse_g column per group size, ascending."""
    sizes = sorted(metrics[0].group_rmse) if metrics else []
    if any(sorted(m.group_rmse) != sizes for m in metrics):
        raise ValueError("every layer must carry RMSE for the same group sizes")
    return csv_text(_metric_columns(sizes), (
        [m.layer_index, m.name, m.block, m.kind, m.cols, m.bits, csv_float(m.max_abs),
         csv_float(m.rmse), *(csv_float(m.group_rmse[g]) for g in sizes), m.wall_count]
        for m in metrics))


def write_metrics_csv(path: str | os.PathLike, metrics: list[LayerMetrics]) -> None:
    atomic_write_text(path, metrics_csv_text(metrics))


def read_metrics_csv(path: str | os.PathLike) -> list[LayerMetrics]:
    """Parse a metrics CSV back into LayerMetrics, ``group_rmse`` included.

    The columns are those ``metrics_csv_text`` writes, in any order.  Each
    row must name a layer once, with the layer_index, block and kind its
    name gives, positive cols, bits in [2, 8], a non-negative wall_count and
    finite max_abs and RMSEs; an error names the row by the file line it
    ends on.  The metrics come back in layer-index order.
    """
    rows = read_csv(path, lambda header: _metric_columns(
        int(m[1]) for m in map(_GROUP_COLUMN.fullmatch, header) if m), "metrics")
    group_columns = {int(c[6:]): c for c in rows[0][1] if c.startswith("rmse_g")}
    seen: dict[str, tuple[int, LayerMetrics]] = {}
    for line, row in rows:
        where = f"metrics row at line {line} ({row['name']!r})"
        try:
            _check_bits(row["bits"])
            m = LayerMetrics(row["name"], row["cols"], row["bits"], row["max_abs"], row["rmse_pc"],
                             row["wall_count"], {g: row[c] for g, c in group_columns.items()})
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        for column in ("layer_index", "block", "kind"):
            if row[column] != getattr(m, column):
                raise ValueError(f"{where}: {column} {row[column]!r} does not match the name "
                                 f"(expected {getattr(m, column)!r})")
        if m.cols < 1 or m.wall_count < 0:
            raise ValueError(f"{where}: cols must be positive and wall_count non-negative, "
                             f"got {m.cols} and {m.wall_count}")
        if not all(map(math.isfinite, (m.max_abs, m.rmse, *m.group_rmse.values()))):
            raise ValueError(f"{where}: max_abs and rmse_pc must be finite, as must each rmse_g, "
                             f"got {m.max_abs} and {m.rmse}, and {m.group_rmse}")
        if m.name in seen:
            raise ValueError(f"{where}: repeats the layer of line {seen[m.name][0]}")
        seen[m.name] = line, m
    return sorted((m for _, m in seen.values()), key=lambda m: m.layer_index)


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
