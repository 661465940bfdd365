"""On-disk model container: a JSON manifest plus one raw tensor blob.

A model stem ``m`` is stored as two files:

    m.manifest.json   UTF-8 JSON, keys sorted:
                      {"blocks": B, "records": [...], "version": 1}
    m.bin             raw little-endian values, row-major, concatenated
                      in manifest record order with no gap

Layer tensors are named ``blocks.{b}.{kind}`` with kind drawn from the
fixed order (q, k, v, o, up, gate, down); a model with B blocks therefore
carries exactly 7*B layer records.  Embedding and head tensors are not
part of the layer axis, but extra records flagged ``aux`` are permitted
and ignored by profiling (quantized models use them for scale tensors).

One reader turns blob bytes into arrays.  ``open_model`` parses the
manifest, checks the layout against the blob's size before any byte is
read, then reads one record per lookup into a read-only, 64-byte-aligned
array, so a single pass over a model holds only the records in use.
``read_model`` is the same reader with every record looked up once and
kept, for callers that visit records repeatedly.

One writer turns records into a blob.  ``write_model`` looks each record up
once, in record order, and streams its bytes into the blob's temp file, so
a mapping that computes records on lookup (``planner.quantized_view``) is
written one record at a time.  The blob is renamed into place before the
manifest, so a record that fails mid-stream changes neither file.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import os
import tempfile
import weakref
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .quantizer import GroupingScheme, QuantParams

MANIFEST_VERSION = 1

KIND_ORDER = ("q", "k", "v", "o", "up", "gate", "down")
KINDS_PER_BLOCK = len(KIND_ORDER)
_KIND_POSITION = {kind: i for i, kind in enumerate(KIND_ORDER)}

_DTYPES = {"fp32": np.dtype("<f4"), "int8": np.dtype(np.int8)}


# The JSON kind of each manifest record field (see _is_kind); the fields
# with a default may be absent or null.
_RECORD_KINDS = {"name": str, "shape": [int], "dtype": str, "byte_offset": int,
                 "scale_ref": str, "aux": bool, "grouping": dict, "bits": int}
_RECORD_DEFAULTS = {"scale_ref", "aux", "grouping", "bits"}


def _is_kind(value, kind) -> bool:
    """Whether a parsed JSON value is of ``kind``: a type, or a one-item list
    for a list or tuple of that type.  A bool is not a number, an int is a
    float, and numpy scalars count as their kind."""
    if type(value) is kind:  # the common case, without the abstract-class checks below
        return True
    if isinstance(kind, list):
        return isinstance(value, (list, tuple)) and all(_is_kind(v, kind[0]) for v in value)
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(kind, kind))


def _require_kind(value, kind, what: str) -> None:
    """Raise a ValueError naming ``what`` unless ``_is_kind(value, kind)``."""
    if not _is_kind(value, kind):
        want = f"a list of {kind[0].__name__}" if isinstance(kind, list) else kind.__name__
        raise ValueError(f"{what} must be {want}, got {value!r}")


def layer_name(block: int, kind: str) -> str:
    if kind not in _KIND_POSITION:
        raise ValueError(f"unknown layer kind {kind!r}")
    return f"blocks.{block}.{kind}"


def parse_layer_name(name: str) -> tuple[int, str] | None:
    """Split ``blocks.{b}.{kind}`` into (block, kind); None if not a layer name."""
    parts = name.split(".")
    if len(parts) != 3 or parts[0] != "blocks" or parts[2] not in _KIND_POSITION:
        return None
    try:
        block = int(parts[1])
    except ValueError:
        return None
    return (block, parts[2]) if block >= 0 else None


def layer_index_of(block: int, kind: str) -> int:
    """Flat layer position: 7*block + position of kind in the fixed order."""
    if kind not in _KIND_POSITION:
        raise ValueError(f"unknown layer kind {kind!r}")
    return KINDS_PER_BLOCK * block + _KIND_POSITION[kind]


@dataclass(frozen=True)
class TensorRecord:
    """One tensor's entry in the manifest.

    ``byte_offset`` is assigned by ``ModelManifest.assemble``; quantized
    (non-aux int8) records carry ``scale_ref`` (name of the companion aux
    fp32 scale tensor), ``grouping`` and ``bits``.
    """

    name: str
    shape: tuple[int, int]
    dtype: str
    byte_offset: int = 0
    scale_ref: str | None = None
    aux: bool = False
    grouping: GroupingScheme | None = None
    bits: int | None = None

    def __post_init__(self):
        if self.dtype not in _DTYPES:
            raise ValueError(f"record {self.name!r}: unknown dtype {self.dtype!r}")
        if len(self.shape) != 2 or any(not isinstance(d, int) or d < 1 for d in self.shape):
            raise ValueError(f"record {self.name!r}: shape must be two positive integers")
        if self.byte_offset < 0:
            raise ValueError(f"record {self.name!r}: negative byte offset")

    @property
    def numpy_dtype(self) -> np.dtype:
        return _DTYPES[self.dtype]

    @property
    def nbytes(self) -> int:
        return self.shape[0] * self.shape[1] * self.numpy_dtype.itemsize

    def to_json(self) -> dict:
        obj = {
            "name": self.name,
            "shape": list(self.shape),
            "dtype": self.dtype,
            "byte_offset": self.byte_offset,
        }
        if self.scale_ref is not None:
            obj["scale_ref"] = self.scale_ref
        if self.aux:
            obj["aux"] = True
        if self.grouping is not None:
            obj["grouping"] = self.grouping.to_json()
        if self.bits is not None:
            obj["bits"] = self.bits
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "TensorRecord":
        if not isinstance(obj, dict):
            raise ValueError(f"tensor record must be a JSON object, got {obj!r}")
        for key, kind in _RECORD_KINDS.items():
            value = obj.get(key)
            if (value is None and key in _RECORD_DEFAULTS) or _is_kind(value, kind):
                continue
            _require_kind(value, kind, f"tensor record {obj.get('name')!r}: {key!r}")
        grouping = obj.get("grouping")
        return cls(
            name=obj["name"],
            shape=tuple(obj["shape"]),
            dtype=obj["dtype"],
            byte_offset=obj["byte_offset"],
            scale_ref=obj.get("scale_ref"),
            aux=obj.get("aux") or False,
            grouping=GroupingScheme.from_json(grouping) if grouping is not None else None,
            bits=obj.get("bits"),
        )


def _check_quantized(rec: TensorRecord, by_name: Mapping[str, TensorRecord]) -> None:
    """A non-aux int8 record needs a grouping that tiles its columns, valid
    bits, and a scale_ref naming an aux fp32 record of shape (N, M/g)."""
    try:
        if None in (rec.grouping, rec.bits, rec.scale_ref):
            raise ValueError("must carry grouping, bits and scale_ref")
        rec.grouping.validate_for(rec.shape[1])
        QuantParams(rec.bits)
        scale = by_name.get(rec.scale_ref)
        if scale is None or not scale.aux or scale.dtype != "fp32":
            raise ValueError(f"scale_ref {rec.scale_ref!r} does not name an aux fp32 record")
        n, m = rec.shape
        expect = (n, m // rec.grouping.resolved_group_size(m))
        if scale.shape != expect:
            raise ValueError(f"scale record has shape {scale.shape}, expected {expect}")
    except ValueError as exc:
        raise ValueError(f"quantized record {rec.name!r}: {exc}") from None


@dataclass(frozen=True)
class ModelManifest:
    """Ordered tensor directory for one model file pair."""

    blocks: int
    records: tuple[TensorRecord, ...]

    def __post_init__(self):
        if self.blocks < 1:
            raise ValueError("blocks must be positive")
        object.__setattr__(self, "records", tuple(self.records))
        by_name: dict[str, TensorRecord] = {}
        dupes = set()
        for rec in self.records:
            if rec.name in by_name:
                dupes.add(rec.name)
            by_name[rec.name] = rec
        if dupes:
            raise ValueError(f"duplicate record names: {sorted(dupes)}")
        object.__setattr__(self, "_by_name", by_name)
        layer_names = {r.name for r in self.records if not r.aux}
        # More blocks than records can never match; the bound keeps the set small.
        shown = min(self.blocks, len(self.records) + 1)
        expected = {layer_name(b, kind) for b in range(shown) for kind in KIND_ORDER}
        if layer_names != expected:
            missing = sorted(expected - layer_names)
            extra = sorted(layer_names - expected)
            raise ValueError(
                f"non-aux records must be exactly the {KINDS_PER_BLOCK * self.blocks} "
                f"canonical layers; missing={missing[:5]} extra={extra[:5]}"
            )
        for rec in self.records:
            if not rec.aux and rec.dtype == "int8":
                _check_quantized(rec, by_name)

    @classmethod
    def assemble(cls, blocks: int, records: list[TensorRecord]) -> "ModelManifest":
        """Build a manifest with contiguous byte offsets in record order."""
        placed = []
        offset = 0
        for rec in records:
            placed.append(dataclasses.replace(rec, byte_offset=offset))
            offset += rec.nbytes
        return cls(blocks=blocks, records=tuple(placed))

    @property
    def blob_nbytes(self) -> int:
        return sum(r.nbytes for r in self.records)

    def record(self, name: str) -> TensorRecord:
        return self._by_name[name]

    def layer_index(self, name: str) -> int:
        parsed = parse_layer_name(name)
        if parsed is None:
            raise ValueError(f"{name!r} is not a layer name")
        return layer_index_of(*parsed)

    def layer_records(self) -> list[TensorRecord]:
        """Non-aux layer records sorted by layer index (the profiling axis)."""
        layers = [r for r in self.records if not r.aux]
        return sorted(layers, key=lambda r: self.layer_index(r.name))

    def to_json_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "blocks": self.blocks,
            "records": [r.to_json() for r in self.records],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModelManifest":
        if not isinstance(obj, dict):
            raise ValueError("manifest must be a JSON object")
        version = obj.get("version")
        if not _is_kind(version, int) or version != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version {version!r}")
        _require_kind(obj.get("blocks"), int, "manifest 'blocks'")
        _require_kind(obj.get("records"), list, "manifest 'records'")
        return cls(blocks=obj["blocks"],
                   records=tuple(TensorRecord.from_json(r) for r in obj["records"]))


def manifest_path(path: str | os.PathLike) -> str:
    return f"{os.fspath(path)}.manifest.json"


def blob_path(path: str | os.PathLike) -> str:
    return f"{os.fspath(path)}.bin"


def atomic_write_bytes(path: str | os.PathLike, data) -> None:
    """Write via a temp file in the same directory, then rename.

    ``data`` is bytes, or a sized iterable of buffers written in order (see
    ``write_model``); ``len(data)`` is its byte count either way.  If
    ``data`` raises part-way, the temp file is removed and ``path`` is
    left as it was.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in [data] if isinstance(data, bytes) else data:
                fh.write(chunk)
            if fh.tell() != len(data):
                raise ValueError(f"wrote {fh.tell()} bytes to {path}, expected {len(data)}")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _check_layout(manifest: ModelManifest, blob_len: int) -> None:
    """The one layout: records tile the blob in record order, each starting
    where the one before ends, as ``ModelManifest.assemble`` places them."""
    end = 0
    for rec in manifest.records:
        if rec.byte_offset != end:
            raise ValueError(
                f"record {rec.name!r} starts at byte {rec.byte_offset}, not {end} (a gap, an "
                "overlap or out of record order); build manifests with ModelManifest.assemble"
            )
        end += rec.nbytes
        if end > blob_len:
            raise ValueError(f"blob underrun for record {rec.name!r}: needs {end} bytes, "
                             f"blob has {blob_len}")
    if end != blob_len:
        raise ValueError(f"blob length {blob_len} does not match the {end} bytes the "
                         "manifest describes")


def _check_names(manifest: ModelManifest, tensors: Mapping[str, np.ndarray]) -> None:
    record_names = {r.name for r in manifest.records}
    missing = sorted(record_names - set(tensors))
    if missing:
        raise ValueError(f"manifest names tensors absent from the input: {missing}")
    extra = sorted(set(tensors) - record_names)
    if extra:
        raise ValueError(f"input tensors not named by the manifest: {extra}")


class _BlobStream:
    """The blob as a sized iterable of buffers: each record is looked up once,
    in record order, checked against its manifest entry and handed on as
    bytes, so only the record being written is held."""

    def __init__(self, manifest: ModelManifest, tensors: Mapping[str, np.ndarray]):
        self._manifest = manifest
        self._tensors = tensors

    def __len__(self) -> int:
        return self._manifest.blob_nbytes

    def __iter__(self):
        for rec in self._manifest.records:
            arr = self._tensors[rec.name]
            if tuple(arr.shape) != rec.shape:
                raise ValueError(
                    f"tensor {rec.name!r} has shape {tuple(arr.shape)}, manifest says {rec.shape}"
                )
            if arr.dtype != rec.numpy_dtype:
                raise ValueError(
                    f"tensor {rec.name!r} has dtype {arr.dtype}, manifest says {rec.dtype}"
                )
            yield np.ascontiguousarray(arr).reshape(-1).view(np.uint8)


def write_model(
    manifest: ModelManifest, tensors: Mapping[str, np.ndarray], path: str | os.PathLike
) -> None:
    """Write ``<path>.bin``, then ``<path>.manifest.json``.

    The manifest's byte offsets must describe the contiguous record-order
    layout (use ``ModelManifest.assemble``).  ``tensors`` may compute its
    records on lookup (``planner.quantized_view``): each is looked up once,
    in record order, and streamed into the blob's temp file, so a record
    that fails leaves neither file changed.  Output is byte-identical for
    identical inputs; both files are written atomically.  Writing assumes
    exclusive ownership of the target stem (single writer); reading is
    pure and safe from concurrent contexts.
    """
    _check_names(manifest, tensors)
    _check_layout(manifest, manifest.blob_nbytes)
    atomic_write_bytes(blob_path(path), _BlobStream(manifest, tensors))
    text = json.dumps(manifest.to_json_dict(), sort_keys=True, indent=2) + "\n"
    atomic_write_text(manifest_path(path), text)


def read_model(path: str | os.PathLike) -> tuple[ModelManifest, dict[str, np.ndarray]]:
    """Inverse of :func:`write_model`; values round-trip bit-exactly.

    Every record is read once through :func:`open_model` and kept: use this
    to visit the records repeatedly, :func:`open_model` for one pass.
    """
    manifest, records = open_model(path)
    return manifest, dict(records)


_ALIGN = 64


class _RecordReader(Mapping):
    """Read-only name -> array mapping that reads a record from the open blob
    on each access: a positional read (safe from many threads) into a
    fresh 64-byte-aligned buffer.  Nothing is cached, so a caller holds only
    the records it keeps.  The blob stays open until the mapping is
    collected.
    """

    def __init__(self, manifest: ModelManifest, fd: int):
        self._manifest = manifest
        self._fd = fd
        weakref.finalize(self, os.close, fd)

    def __getitem__(self, name: str) -> np.ndarray:
        rec = self._manifest.record(name)
        raw = np.empty(rec.nbytes + _ALIGN - 1, dtype=np.uint8)
        start = -raw.ctypes.data % _ALIGN
        buf = raw[start:start + rec.nbytes]
        done = 0
        while done < rec.nbytes:  # one read, unless the record passes the 2 GiB read limit
            got = os.preadv(self._fd, [buf[done:]], rec.byte_offset + done)
            if got == 0:
                raise ValueError(f"short read for record {name!r}: {done} of {rec.nbytes} "
                                 "bytes; the blob shrank after the model was opened")
            done += got
        arr = buf.view(rec.numpy_dtype).reshape(rec.shape)
        arr.flags.writeable = False
        return arr

    def __iter__(self):
        return (rec.name for rec in self._manifest.records)

    def __len__(self) -> int:
        return len(self._manifest.records)


def open_model(path: str | os.PathLike) -> tuple[ModelManifest, Mapping[str, np.ndarray]]:
    """The model's manifest and a mapping that reads each record on lookup.

    The manifest and the blob's size are checked before anything is read.
    The blob is opened once, so a file renamed over it later is not seen.
    Each lookup returns a new read-only, 64-byte-aligned array: use this for
    one pass over the records, :func:`read_model` to visit them repeatedly.
    """
    mpath = manifest_path(path)
    try:
        with open(mpath, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed manifest JSON in {mpath}: {exc}") from exc
    manifest = ModelManifest.from_json_dict(raw)
    fd = os.open(blob_path(path), os.O_RDONLY)
    try:
        _check_layout(manifest, os.fstat(fd).st_size)
    except BaseException:
        os.close(fd)
        raise
    return manifest, _RecordReader(manifest, fd)
