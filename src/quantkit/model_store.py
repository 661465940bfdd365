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
The manifest keeps the layer axis it checks its layers against, a map
from each canonical name to its layer index, so ``layer_index`` and
``layer_records`` are lookups in it, with no parse and no sort.

Each record is built and checked once.  ``TensorRecord``'s constructor
checks every field but ``grouping``, whether the record is built in Python
or read from a file; the manifest file's parser checks only what the
constructor does not see: the JSON object shapes and keys (an unknown key
is an error, not dropped), each ``grouping`` as it becomes a
``GroupingScheme``, and each ``byte_offset``.  Records carry no
offsets: ``ModelManifest`` places them in record order, and a file's
``byte_offset`` values must equal those places.  ``ModelManifest`` then
checks the model as a whole (names, canonical layers, and each quantized
record's scale record, which it maps to its owner) once.

One reader turns blob bytes into arrays.  ``open_model`` parses the
manifest, checks the layout against the blob's size before any byte is
read, then reads one record per lookup into a read-only, 64-byte-aligned
array, so a single pass over a model holds only the records in use.
``read_model`` is the same reader with every record looked up once and
kept, for callers that visit records repeatedly.  The layer passes read
less: ``row_source`` gives them a record of an open model as a row source
(see ``quantizer``), whose ``read_rows`` reads whole rows with one
positional read.  A record's rows lie next to each other in the blob, so
rows [start, stop) are one byte range.  They land in the calling thread's
64-byte-aligned row scratch (``quantizer._scratch``), reused by every row
read of that thread, so a block stays valid only until the thread's next
row read.  A block of more than one scratch block (rows wider than
``quantizer._BLOCK`` elements) is read into an array of its own instead,
so a thread keeps at most one block of rows.

One writer turns records into a blob.  ``write_model`` writes each record
at its place in the blob's temp file (``ModelManifest.byte_offset``) with
positional writes, one row block at a time from ``row_source``, on up to
QUANTKIT_THREADS threads (``_map_in_order``).  So a mapping that computes
records on lookup (``planner.quantized_view``) is written one row block
per thread, and the bytes do not depend on the thread count.  A scale
record is written by its owner's task (``ModelManifest.scale_owner``),
after the owner's last block: a computed layer's row source fills in
its scales as its blocks are read, and carries them.  The blob is
renamed into place before the manifest, so a record that fails changes
neither file.  The manifest text is written for its fixed schema
(``_manifest_text``), equal byte for byte to ``json.dumps(obj,
sort_keys=True, indent=2)`` plus a newline, without ``json``'s
pure-Python indenting encoder.
"""

from __future__ import annotations

import json
import json.encoder
import numbers
import os
import secrets
import weakref
from collections.abc import Callable, Iterable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .quantizer import (
    GroupingScheme,
    _aligned_empty,
    _as_rows,
    _check_bits,
    _reject_unknown_keys,
    _row_blocks,
    _scratch,
)

MANIFEST_VERSION = 1

KIND_ORDER = ("q", "k", "v", "o", "up", "gate", "down")
KINDS_PER_BLOCK = len(KIND_ORDER)
_KIND_POSITION = {kind: i for i, kind in enumerate(KIND_ORDER)}

_DTYPES = {"fp32": np.dtype("<f4"), "int8": np.dtype(np.int8)}

# The keys a manifest file's objects may carry (see _manifest_text).
_MANIFEST_KEYS = frozenset({"version", "blocks", "records"})
_RECORD_KEYS = frozenset(
    {"name", "shape", "dtype", "byte_offset", "scale_ref", "aux", "grouping", "bits"})


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

    Quantized (non-aux int8) records carry ``scale_ref`` (name of the
    companion aux fp32 scale tensor), ``grouping`` and ``bits``.  A record
    has no byte offset of its own: its manifest places it (see
    ``ModelManifest.byte_offset``).  The constructor checks every field
    except ``grouping`` (a ``GroupingScheme`` checks itself), for records
    built in Python and records read from a manifest file alike.
    """

    name: str
    shape: tuple[int, int]
    dtype: str
    scale_ref: str | None = None
    aux: bool = False
    grouping: GroupingScheme | None = None
    bits: int | None = None

    def __post_init__(self):
        # The kind texts are the manifest parser's: they name the record by
        # its raw name value, whatever that value's kind.
        name, shape, dtype = self.name, self.shape, self.dtype
        if type(name) is not str:
            _require_kind(name, str, f"tensor record {name!r}: 'name'")
        if (type(shape) not in (tuple, list) or len(shape) != 2
                or type(shape[0]) is not int or type(shape[1]) is not int):
            _require_kind(shape, [int], f"tensor record {name!r}: 'shape'")
        if type(dtype) is not str:
            _require_kind(dtype, str, f"tensor record {name!r}: 'dtype'")
        if self.scale_ref is not None and type(self.scale_ref) is not str:
            _require_kind(self.scale_ref, str, f"tensor record {name!r}: 'scale_ref'")
        if type(self.aux) is not bool:
            _require_kind(self.aux, bool, f"tensor record {name!r}: 'aux'")
        if self.bits is not None and type(self.bits) is not int:
            _require_kind(self.bits, int, f"tensor record {name!r}: 'bits'")
        if dtype not in _DTYPES:
            raise ValueError(f"record {name!r}: unknown dtype {dtype!r}")
        if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
            raise ValueError(f"record {name!r}: shape must be two positive integers")
        if type(shape) is not tuple:  # a manifest file's list
            object.__setattr__(self, "shape", tuple(shape))

    @property
    def numpy_dtype(self) -> np.dtype:
        return _DTYPES[self.dtype]

    @property
    def nbytes(self) -> int:
        return self.shape[0] * self.shape[1] * _DTYPES[self.dtype].itemsize

    @classmethod
    def from_json(cls, obj: dict) -> "TensorRecord":
        """The record a manifest file's record object describes.  Absent and
        null optional fields read as their defaults; ``grouping`` is checked
        here, where it becomes a ``GroupingScheme``, and every other field
        once, by the constructor.  ``byte_offset`` is the manifest's to check."""
        if not isinstance(obj, dict):
            raise ValueError(f"tensor record must be a JSON object, got {obj!r}")
        what = f"tensor record {obj.get('name')!r}"
        _reject_unknown_keys(obj, _RECORD_KEYS, what)
        grouping = obj.get("grouping")
        if grouping is not None:
            _require_kind(grouping, dict, f"{what}: 'grouping'")
            try:
                grouping = GroupingScheme.from_json(grouping)
            except ValueError as exc:
                raise ValueError(f"{what}: {exc}") from None
        aux = obj.get("aux")
        return cls(
            name=obj.get("name"),
            shape=obj.get("shape"),
            dtype=obj.get("dtype"),
            scale_ref=obj.get("scale_ref"),
            aux=False if aux is None else aux,
            grouping=grouping,
            bits=obj.get("bits"),
        )


def _check_quantized(rec: TensorRecord, by_name: Mapping[str, TensorRecord]) -> None:
    """A non-aux int8 record needs a grouping that tiles its columns, valid
    bits, and a scale_ref naming an aux fp32 record of shape (N, M/g)."""
    try:
        if None in (rec.grouping, rec.bits, rec.scale_ref):
            raise ValueError("must carry grouping, bits and scale_ref")
        rec.grouping.validate_for(rec.shape[1])
        _check_bits(rec.bits)
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
    """Ordered tensor directory for one model file pair.

    There is one layout: the records tile the blob in record order with no
    gap, so each record's byte offset is the sum of the sizes before it.
    The manifest derives the offsets; a manifest file's ``byte_offset``
    values are checked against them when it is read.
    """

    blocks: int
    records: tuple[TensorRecord, ...]

    def __post_init__(self):
        _require_kind(self.blocks, int, "manifest 'blocks'")
        if self.blocks < 1:
            raise ValueError("blocks must be positive")
        object.__setattr__(self, "records", tuple(self.records))
        by_name: dict[str, TensorRecord] = {}
        offsets: dict[str, int] = {}
        dupes = set()
        end = 0
        for rec in self.records:
            if rec.name in by_name:
                dupes.add(rec.name)
            by_name[rec.name] = rec
            offsets[rec.name] = end
            end += rec.nbytes
        if dupes:
            raise ValueError(f"duplicate record names: {sorted(dupes)}")
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_offsets", offsets)
        object.__setattr__(self, "_blob_nbytes", end)
        layer_names = {r.name for r in self.records if not r.aux}
        # More blocks than records can never match; the bound keeps the map small.
        shown = min(self.blocks, len(self.records) + 1)
        index = {name: i for i, name in enumerate(
            f"blocks.{b}.{kind}" for b in range(shown) for kind in KIND_ORDER)}
        if layer_names != index.keys():
            missing = sorted(index.keys() - layer_names)
            extra = sorted(layer_names - index.keys())
            raise ValueError(
                f"non-aux records must be exactly the {KINDS_PER_BLOCK * self.blocks} "
                f"canonical layers; missing={missing[:5]} extra={extra[:5]}"
            )
        object.__setattr__(self, "_layer_index", index)
        owners: dict[str, TensorRecord] = {}
        for rec in self.records:
            if not rec.aux and rec.dtype == "int8":
                _check_quantized(rec, by_name)
                owners[rec.scale_ref] = rec
        object.__setattr__(self, "_scale_owners", owners)

    @property
    def blob_nbytes(self) -> int:
        return self._blob_nbytes

    def record(self, name: str) -> TensorRecord:
        return self._by_name[name]

    def byte_offset(self, name: str) -> int:
        """Where the named record starts in the blob."""
        return self._offsets[name]

    def scale_owner(self, name: str | None) -> TensorRecord | None:
        """The quantized record owning scale record ``name`` (the last to name it), or None."""
        return self._scale_owners.get(name)

    def layer_index(self, name: str) -> int:
        """The named layer's index; ValueError if it is not a layer of this model."""
        try:
            return self._layer_index[name]
        except KeyError:
            raise ValueError(f"{name!r} is not a layer of this model") from None

    def layer_records(self) -> list[TensorRecord]:
        """Non-aux layer records in layer-index order (the profiling axis)."""
        return [self._by_name[name] for name in self._layer_index]

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModelManifest":
        """The manifest a parsed manifest file describes; each record's
        ``byte_offset`` must be where the one layout places it."""
        if not isinstance(obj, dict):
            raise ValueError("manifest must be a JSON object")
        version = obj.get("version")
        if not _is_kind(version, int) or version != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version {version!r}")
        _reject_unknown_keys(obj, _MANIFEST_KEYS, "manifest")
        raw = obj.get("records")
        _require_kind(raw, list, "manifest 'records'")
        manifest = cls(blocks=obj.get("blocks"), records=[TensorRecord.from_json(r) for r in raw])
        for entry, rec in zip(raw, manifest.records):
            offset, expect = entry.get("byte_offset"), manifest.byte_offset(rec.name)
            if type(offset) is not int:
                _require_kind(offset, int, f"tensor record {rec.name!r}: 'byte_offset'")
            if offset != expect:
                raise ValueError(f"record {rec.name!r} starts at byte {offset}, not {expect} "
                                 "(a gap, an overlap or out of record order)")
        return manifest


_encode_str = json.encoder.encode_basestring_ascii


def _manifest_text(manifest: ModelManifest) -> str:
    """The manifest file's text, written for its fixed schema.

    Byte for byte, this is ``json.dumps(obj, sort_keys=True, indent=2) +
    "\\n"`` of the manifest's JSON object, without ``json``'s pure-Python
    indenting encoder: strings go through ``json``'s own ASCII escaper and
    integers print as ``json`` prints them.  Keys appear in sorted order.
    """
    records = []
    for rec in manifest.records:
        fields = []
        if rec.aux:
            fields.append('"aux": true')
        if rec.bits is not None:
            fields.append('"bits": %d' % rec.bits)
        fields.append('"byte_offset": %d' % manifest.byte_offset(rec.name))
        fields.append('"dtype": ' + _encode_str(rec.dtype))
        grouping = rec.grouping
        if grouping is not None:
            size = (f'\n        "group_size": {grouping.group_size:d},'
                    if grouping.is_per_group else "")
            fields.append(
                f'"grouping": {{{size}\n        "mode": {_encode_str(grouping.mode)}\n      }}')
        fields.append('"name": ' + _encode_str(rec.name))
        if rec.scale_ref is not None:
            fields.append('"scale_ref": ' + _encode_str(rec.scale_ref))
        fields.append('"shape": [\n        %d,\n        %d\n      ]' % rec.shape)
        records.append("    {\n      " + ",\n      ".join(fields) + "\n    }")
    return ('{\n  "blocks": %d,\n  "records": [\n' % manifest.blocks + ",\n".join(records)
            + '\n  ],\n  "version": %d\n}\n' % MANIFEST_VERSION)


def manifest_path(path: str | os.PathLike) -> str:
    return f"{os.fspath(path)}.manifest.json"


def blob_path(path: str | os.PathLike) -> str:
    return f"{os.fspath(path)}.bin"


def _map_in_order(fn: Callable, items: Iterable) -> list:
    """[fn(x) for x in items] on QUANTKIT_THREADS threads (1 when the
    variable is unset or not a number), results in the order of ``items``.
    An error is raised for the first failing item in that order; the calls
    not yet started are cancelled, and every started one has ended by then."""
    try:
        workers = int(os.environ.get("QUANTKIT_THREADS", ""))
    except ValueError:
        workers = 1
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _pwrite_all(fd: int, data, nbytes: int, offset: int) -> int:
    """Write the ``nbytes`` bytes of ``data`` (bytes or a C-contiguous
    array) at ``offset``: one write, unless it passes the 2 GiB write limit."""
    done = os.pwrite(fd, data, offset)
    if done < nbytes:
        view = memoryview(data).cast("B")
        while done < nbytes:
            done += os.pwrite(fd, view[done:], offset + done)
    return done


def atomic_write_bytes(path: str | os.PathLike, data) -> None:
    """Write via a temp file in the same directory, then rename.

    ``data`` is bytes, or a sized blob whose ``write_into(fd)`` writes it
    into the temp file's descriptor and returns the bytes it wrote (see
    ``write_model``); ``len(data)`` is its byte count either way, and a
    blob that writes another count is an error.  If writing raises, the
    temp file is removed and ``path`` is left as it was.  The temp file is
    created as ``open(path, "w")`` creates a file, with mode 0o666 less the
    process umask, which the kernel applies.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path),
                       f".tmp-{secrets.token_hex(8)}-{os.path.basename(path)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            written = (_pwrite_all(fd, data, len(data), 0) if isinstance(data, bytes)
                       else data.write_into(fd))
        finally:
            os.close(fd)
        if written != len(data):
            raise ValueError(f"wrote {written} bytes to {path}, expected {len(data)}")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _check_names(manifest: ModelManifest, tensors: Mapping[str, np.ndarray]) -> None:
    record_names = {r.name for r in manifest.records}
    missing = sorted(record_names - set(tensors))
    if missing:
        raise ValueError(f"manifest names tensors absent from the input: {missing}")
    extra = sorted(set(tensors) - record_names)
    if extra:
        raise ValueError(f"input tensors not named by the manifest: {extra}")


class _BlobWriter:
    """The blob as a sized object that writes itself into a file.

    Each record is looked up once, as ``row_source(tensors, name)``,
    checked against its manifest entry and written at its byte offset, row
    block by row block (``_row_blocks``), so a task holds one block of its
    record.  Records are tasks on the QUANTKIT_THREADS pool; a scale record
    is written by its owner's task (``ModelManifest.scale_owner``) after the
    owner's last block, from the owner's row source if it carries ``scales``
    (a layer ``planner.quantized_view`` quantizes block by block as it is
    read, whose scales are complete only then), else looked up itself.
    """

    def __init__(self, manifest: ModelManifest, tensors: Mapping[str, np.ndarray]):
        self._manifest = manifest
        self._tensors = tensors
        self._tasks = [rec for rec in manifest.records if not manifest.scale_owner(rec.name)]

    def __len__(self) -> int:
        return self._manifest.blob_nbytes

    def write_into(self, fd: int) -> int:
        """Write every record into ``fd``; the bytes written."""
        return sum(_map_in_order(lambda rec: self._write(fd, rec), self._tasks))

    def _write(self, fd: int, rec: TensorRecord, src=None) -> int:
        if src is None:
            src = row_source(self._tensors, rec.name)
        if tuple(src.shape) != rec.shape:
            raise ValueError(
                f"tensor {rec.name!r} has shape {tuple(src.shape)}, manifest says {rec.shape}")
        if src.dtype != rec.numpy_dtype:
            raise ValueError(f"tensor {rec.name!r} has dtype {src.dtype}, manifest says {rec.dtype}")
        read = _as_rows(src, rec.name).read_rows
        offset = self._manifest.byte_offset(rec.name)
        written = 0
        for b in _row_blocks(*rec.shape):
            block = np.ascontiguousarray(read(b.start, b.stop))
            written += _pwrite_all(fd, block, block.nbytes, offset + written)
        scale = rec.scale_ref
        if self._manifest.scale_owner(scale) is rec:
            written += self._write(fd, self._manifest.record(scale), getattr(src, "scales", None))
        return written


def write_model(
    manifest: ModelManifest, tensors: Mapping[str, np.ndarray], path: str | os.PathLike
) -> None:
    """Write ``<path>.bin``, then ``<path>.manifest.json``.

    The blob takes the manifest's one layout.  Each record is looked up
    once (``row_source``) and written at its offset in the blob's temp
    file one row block at a time, on up to QUANTKIT_THREADS threads, so
    ``tensors`` may compute its records on lookup
    (``planner.quantized_view``) and is held one row block per thread.
    The first failing record in record order is the error, and it leaves
    neither file changed.  Output is byte-identical for identical inputs,
    whatever the thread count; both files are written atomically.  Writing
    assumes exclusive ownership of the target stem (single writer);
    reading is pure and safe from concurrent contexts.
    """
    _check_names(manifest, tensors)
    atomic_write_bytes(blob_path(path), _BlobWriter(manifest, tensors))
    atomic_write_text(manifest_path(path), _manifest_text(manifest))


def read_model(path: str | os.PathLike) -> tuple[ModelManifest, dict[str, np.ndarray]]:
    """Inverse of :func:`write_model`; values round-trip bit-exactly.

    Every record is read once through :func:`open_model` and kept: use this
    to visit the records repeatedly, :func:`open_model` for one pass.
    """
    manifest, records = open_model(path)
    return manifest, dict(records)


def _pread_into(fd: int, buf: np.ndarray, offset: int, name: str) -> None:
    """Fill the C-contiguous array ``buf`` with the blob bytes at ``offset``:
    one read, unless it comes back short (past the 2 GiB read limit, or a
    blob that shrank), when the rest is read through a flat byte view of
    ``buf``.  Every blob byte that is read goes through here."""
    done = os.preadv(fd, [buf], offset)
    if done < buf.nbytes:
        view = buf.reshape(-1).view(np.uint8)
        while done < len(view):
            got = os.preadv(fd, [view[done:]], offset + done)
            if got == 0:
                raise ValueError(f"short read for record {name!r}: {done} of {len(view)} "
                                 "bytes; the blob shrank after the model was opened")
            done += got


class _RecordReader(Mapping):
    """Read-only name -> array mapping that reads a record from the open blob
    on each access: a positional read (safe from many threads) into a
    fresh 64-byte-aligned buffer.  Nothing is cached, so a caller holds only
    the records it keeps.  The blob stays open until the mapping, and every
    row source taken from it, is collected.
    """

    def __init__(self, manifest: ModelManifest, fd: int):
        self._manifest = manifest
        self._fd = fd
        weakref.finalize(self, os.close, fd)

    def __getitem__(self, name: str) -> np.ndarray:
        rec = self._manifest.record(name)
        arr = _aligned_empty(rec.nbytes).view(rec.numpy_dtype).reshape(rec.shape)
        _pread_into(self._fd, arr, self._manifest.byte_offset(name), name)
        arr.flags.writeable = False
        return arr

    def row_source(self, name: str) -> "_RecordRows":
        return _RecordRows(self, name)

    def __iter__(self):
        return (rec.name for rec in self._manifest.records)

    def __len__(self) -> int:
        return len(self._manifest.records)


class _RecordRows:
    """One record of an open blob as a row source.  The record's place, row
    size and dtype are worked out once, so a block read is one positional
    read into a cached scratch view.  Blocks land in the calling thread's
    row scratch, which holds at most one block (a larger block is an array
    of its own, quantizer._scratch): each stays valid only until that
    thread's next row read."""

    def __init__(self, reader: _RecordReader, name: str):
        rec = reader._manifest.record(name)
        self.shape, self.dtype = rec.shape, rec.numpy_dtype
        self._reader = reader  # keeps the blob open
        self._fd = reader._fd
        self._offset = reader._manifest.byte_offset(name)
        self._row_nbytes = rec.shape[1] * self.dtype.itemsize
        self._name = name

    def read_rows(self, start: int, stop: int) -> np.ndarray:
        """Rows [start, stop) as an array in this thread's scratch."""
        n, m = self.shape
        if not 0 <= start < stop <= n:
            raise IndexError(f"rows [{start}, {stop}) out of the {n} rows of record "
                             f"{self._name!r}")
        block = _scratch("rows", (stop - start, m), self.dtype)
        _pread_into(self._fd, block, self._offset + start * self._row_nbytes, self._name)
        return block


def row_source(tensors: Mapping[str, np.ndarray], name: str):
    """The named record as a row source for a layer pass: read in row blocks
    when ``tensors`` is an open model's mapping (or has ``row_source`` of
    its own), else the mapping's array, which is a row source already."""
    rows = getattr(tensors, "row_source", None)
    return tensors[name] if rows is None else rows(name)


def _check_blob_size(manifest: ModelManifest, blob_len: int) -> None:
    """The blob ends where the manifest's last record ends."""
    if manifest.blob_nbytes > blob_len:
        for rec in manifest.records:
            end = manifest.byte_offset(rec.name) + rec.nbytes
            if end > blob_len:
                raise ValueError(f"blob underrun for record {rec.name!r}: needs {end} bytes, "
                                 f"blob has {blob_len}")
    if manifest.blob_nbytes != blob_len:
        raise ValueError(f"blob length {blob_len} does not match the {manifest.blob_nbytes} "
                         "bytes the manifest describes")


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
        _check_blob_size(manifest, os.fstat(fd).st_size)
    except BaseException:
        os.close(fd)
        raise
    return manifest, _RecordReader(manifest, fd)
