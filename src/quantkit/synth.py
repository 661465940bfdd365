"""Deterministic synthetic transformer weight sets with injected outlier walls.

Base weights are Gaussian; selected matrices of selected blocks get a
handful of input columns overwritten with large-magnitude entries so the
generated model reproduces, at desk scale, the weight phenomenology that
breaks per-channel 8-bit quantization: a few early-block Q/K/V/Up/Gate
layers with column walls two to three orders of magnitude above the rest,
and O/Down never affected.

Every tensor is drawn from its own counter-based (Philox) stream keyed by
a SHA-256 hash of the master seed and the tensor name, so content is a
pure function of the config and independent of generation order.  The
tensors are therefore drawn on the QUANTKIT_THREADS pool
(``model_store._map_in_order``) with the same bytes at any thread count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .model_store import (
    KIND_ORDER,
    ModelManifest,
    TensorRecord,
    _map_in_order,
    _require_kind,
    layer_name,
)
from .quantizer import _F32_MAX

WALL_KIND_UNIVERSE = ("q", "k", "v", "up", "gate")

DEFAULT_BLOCKS = 80
DEFAULT_DIM = 64
DEFAULT_BASE_STD = 0.02
DEFAULT_WALL_BLOCKS = (0, 1, 3)
DEFAULT_WALL_COLUMNS = 4
DEFAULT_WALL_MAGNITUDE = (50.0, 100.0)

# Every weight must be finite in float32.  Generator.normal never draws past
# 14 standard deviations, so base_std may reach float32 max / 16.
_MAX_BASE_STD = _F32_MAX / 16


# The type of each SynthConfig field, as model_store._is_kind reads it; a
# one-item list means a list or tuple of that type.
_FIELD_KINDS = {
    "blocks": int,
    "dim": int,
    "base_std": float,
    "wall_blocks": [int],
    "wall_kinds": [str],
    "wall_columns_per_layer": int,
    "wall_magnitude": [float],
    "shared_wall_columns": bool,
    "kv_dim_divisor": int,
    "seed": int,
}


@dataclass(frozen=True)
class SynthConfig:
    blocks: int = DEFAULT_BLOCKS
    dim: int = DEFAULT_DIM
    base_std: float = DEFAULT_BASE_STD
    wall_blocks: tuple[int, ...] = DEFAULT_WALL_BLOCKS
    wall_kinds: tuple[str, ...] = WALL_KIND_UNIVERSE
    wall_columns_per_layer: int = DEFAULT_WALL_COLUMNS
    wall_magnitude: tuple[float, float] = DEFAULT_WALL_MAGNITUDE
    shared_wall_columns: bool = True
    kv_dim_divisor: int = 1
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            what = f"synth setting {f.name!r}"
            _require_kind(getattr(self, f.name), _FIELD_KINDS[f.name], what)
        if self.blocks < 1 or self.dim < 1:
            raise ValueError("blocks and dim must be positive")
        if not 0 < self.base_std <= _MAX_BASE_STD:
            raise ValueError(f"base_std must be in (0, {_MAX_BASE_STD:.4g}], got {self.base_std}")
        object.__setattr__(self, "wall_blocks", tuple(int(b) for b in self.wall_blocks))
        object.__setattr__(self, "wall_kinds", tuple(self.wall_kinds))
        object.__setattr__(self, "wall_magnitude", tuple(float(m) for m in self.wall_magnitude))
        bad_blocks = [b for b in self.wall_blocks if not 0 <= b < self.blocks]
        if bad_blocks:
            raise ValueError(f"wall blocks out of range [0, {self.blocks}): {bad_blocks}")
        bad_kinds = [k for k in self.wall_kinds if k not in WALL_KIND_UNIVERSE]
        if bad_kinds:
            raise ValueError(
                f"wall kinds must be drawn from {WALL_KIND_UNIVERSE}, got {bad_kinds}"
            )
        lo, hi = self.wall_magnitude
        if not 0 < lo <= hi <= _F32_MAX:
            raise ValueError("wall magnitude range must satisfy 0 < lo <= hi <= float32 max, "
                             f"got {lo}, {hi}")
        if not 0 <= self.wall_columns_per_layer < self.dim:
            raise ValueError("wall_columns_per_layer must be in [0, dim)")
        if self.kv_dim_divisor < 1 or self.dim % self.kv_dim_divisor != 0:
            raise ValueError("kv_dim_divisor must be a positive divisor of dim")

    def shape_of(self, kind: str) -> tuple[int, int]:
        if kind in ("k", "v") and self.kv_dim_divisor > 1:
            return (self.dim // self.kv_dim_divisor, self.dim)
        return (self.dim, self.dim)


def _stream_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def _stream(seed: int, label: str) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_stream_seed(seed, label)))


def inject_walls(
    w: np.ndarray,
    columns: Sequence[int],
    magnitude_range: tuple[float, float],
    seed: int,
) -> np.ndarray:
    """Overwrite the listed input columns with sign * U(lo, hi) entries.

    Returns a new array; all other entries are untouched.  Replacing
    (rather than adding to) the base values makes magnitude assertions on
    the result exact: every wall entry has |w| in [lo, hi].  The matrix
    must be floating-point and ``hi`` at most its dtype's largest finite
    value, so no wall entry is written as inf.
    """
    w = np.asarray(w)
    if w.ndim != 2:
        raise ValueError("expected a 2-D weight matrix")
    columns = [int(c) for c in columns]
    if len(set(columns)) != len(columns):
        raise ValueError(f"wall columns must be distinct, got {columns}")
    out_of_range = [c for c in columns if not 0 <= c < w.shape[1]]
    if out_of_range:
        raise ValueError(f"wall columns out of range [0, {w.shape[1]}): {out_of_range}")
    if not np.issubdtype(w.dtype, np.inexact):
        raise ValueError(f"expected a floating-point weight matrix, got dtype {w.dtype}")
    lo, hi = magnitude_range
    top = float(np.finfo(w.dtype).max)  # a larger wall entry would be written as inf
    if not 0 < lo <= hi <= top:
        raise ValueError(f"magnitude range must satisfy 0 < lo <= hi <= {w.dtype} max "
                         f"({top:.4g}), got {lo}, {hi}")
    out = np.array(w, copy=True)
    if not columns:
        return out
    rng = np.random.Generator(np.random.Philox(key=seed))
    mags = rng.uniform(lo, hi, size=(w.shape[0], len(columns)))
    signs = rng.integers(0, 2, size=(w.shape[0], len(columns))) * 2 - 1
    out[:, columns] = (signs * mags).astype(out.dtype)
    return out


def _wall_columns(cfg: SynthConfig, block: int, name: str) -> list[int]:
    label = f"wall-columns:block.{block}" if cfg.shared_wall_columns else f"wall-columns:{name}"
    rng = _stream(cfg.seed, label)
    cols = rng.choice(cfg.dim, size=cfg.wall_columns_per_layer, replace=False)
    return sorted(int(c) for c in cols)


def _draw(cfg: SynthConfig, block: int, kind: str) -> np.ndarray:
    """The float32 tensor of one layer: its own stream's Gaussian draw, with
    walls injected when the config puts them in this layer."""
    name = layer_name(block, kind)
    w = _stream(cfg.seed, f"tensor:{name}").normal(0.0, cfg.base_std, size=cfg.shape_of(kind))
    w = w.astype(np.float32)
    if block in cfg.wall_blocks and kind in cfg.wall_kinds and cfg.wall_columns_per_layer:
        cols = _wall_columns(cfg, block, name)
        w = inject_walls(
            w, cols, cfg.wall_magnitude, seed=_stream_seed(cfg.seed, f"wall-values:{name}")
        )
    return w


def generate(cfg: SynthConfig) -> tuple[ModelManifest, dict[str, np.ndarray]]:
    """Generate the full 7*blocks tensor set described by the config.

    Non-wall layers are N(0, base_std^2); wall layers additionally have
    ``wall_columns_per_layer`` randomly chosen input columns replaced by
    sign * U(lo, hi).  Output is a pure function of the config, including
    the seed.  Each tensor is drawn from its own stream, so the tensors
    are drawn on QUANTKIT_THREADS threads and laid out in record order.
    """
    layers = [(block, kind) for block in range(cfg.blocks) for kind in KIND_ORDER]
    drawn = _map_in_order(lambda layer: _draw(cfg, *layer), layers)
    records = [TensorRecord(name=layer_name(block, kind), shape=cfg.shape_of(kind), dtype="fp32")
               for block, kind in layers]
    return ModelManifest(cfg.blocks, records), {rec.name: w for rec, w in zip(records, drawn)}
