"""Container round-trip, determinism, and validation tests."""

import bisect
import builtins
import json
import os
import re
import stat
import sys
import tempfile
import threading
import weakref
from collections import Counter
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantkit import (
    KIND_ORDER,
    GroupingScheme,
    ModelManifest,
    PlanConfig,
    QuantParams,
    QuantPlan,
    SynthConfig,
    TensorRecord,
    WallDetectorConfig,
    apply_plan,
    generate,
    layer_index_of,
    layer_name,
    open_model,
    parse_layer_name,
    profile_model,
    quantized_view,
    read_model,
    sweep_group_size,
    write_model,
)
from quantkit import model_store, planner, quantizer
from quantkit.model_store import atomic_write_bytes, atomic_write_text, blob_path, manifest_path

from oracles import manifest_json


def tiny_model(blocks=1, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    tensors = {}
    for b in range(blocks):
        for kind in KIND_ORDER:
            name = layer_name(b, kind)
            records.append(TensorRecord(name=name, shape=(dim, dim), dtype="fp32"))
            tensors[name] = rng.normal(0, 1, (dim, dim)).astype(np.float32)
    return ModelManifest(blocks, records), tensors


def write_quantized_tiny_model(stem):
    """tiny_model with blocks.0.q stored as int8 per-group(2) codes plus an
    aux (4, 2) scale record; returns the manifest as parsed JSON."""
    manifest, tensors = tiny_model()
    q = TensorRecord(name="blocks.0.q", shape=(4, 4), dtype="int8", scale_ref="blocks.0.q.s",
                     grouping=GroupingScheme.per_group(2), bits=8)
    scales = TensorRecord(name="blocks.0.q.s", shape=(4, 2), dtype="fp32", aux=True)
    records = [q if r.name == q.name else r for r in manifest.records] + [scales]
    tensors[q.name] = np.ones((4, 4), dtype=np.int8)
    tensors[scales.name] = np.ones((4, 2), dtype=np.float32)
    write_model(ModelManifest(1, records), tensors, stem)
    with open(manifest_path(stem), encoding="utf-8") as fh:
        return json.load(fh)


class TestNaming:
    def test_kind_order_is_the_seven_matrices(self):
        assert KIND_ORDER == ("q", "k", "v", "o", "up", "gate", "down")

    def test_layer_index_bijection(self):
        blocks = 3
        indices = [layer_index_of(b, k) for b in range(blocks) for k in KIND_ORDER]
        assert sorted(indices) == list(range(7 * blocks))

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("blocks.0.q", (0, "q")),
            ("blocks.12.down", (12, "down")),
            ("blocks.0.q.scales", None),
            ("embeddings", None),
            ("blocks.x.q", None),
            ("blocks.-1.q", None),
        ],
    )
    def test_parse_layer_name(self, name, expected):
        assert parse_layer_name(name) == expected

    @pytest.mark.parametrize("function", [layer_name, layer_index_of])
    def test_unknown_kind_rejected(self, function):
        with pytest.raises(ValueError, match="unknown layer kind 'x'"):
            function(0, "x")


class TestManifestValidation:
    def test_duplicate_names_rejected(self):
        rec = TensorRecord(name="blocks.0.q", shape=(2, 2), dtype="fp32")
        records = [rec, rec] + [
            TensorRecord(name=layer_name(0, k), shape=(2, 2), dtype="fp32")
            for k in KIND_ORDER[1:]
        ]
        with pytest.raises(ValueError, match="duplicate"):
            ModelManifest(1, records)

    def test_wrong_layer_count_rejected(self):
        records = [
            TensorRecord(name=layer_name(0, k), shape=(2, 2), dtype="fp32")
            for k in KIND_ORDER[:-1]
        ]
        with pytest.raises(ValueError, match="canonical"):
            ModelManifest(1, records)

    def test_aux_records_are_allowed_and_skipped(self):
        manifest, _ = tiny_model()
        records = list(manifest.records) + [
            TensorRecord(name="lm_head", shape=(4, 4), dtype="fp32", aux=True)
        ]
        manifest2 = ModelManifest(1, records)
        assert len(manifest2.records) == 8
        assert [r.name for r in manifest2.layer_records()] == [
            layer_name(0, k) for k in KIND_ORDER
        ]

    def test_bad_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            TensorRecord(name="blocks.0.q", shape=(2, 2), dtype="fp16")

    def test_layer_records_ordered_by_index(self):
        manifest, _ = tiny_model(blocks=2)
        shuffled = ModelManifest(2, list(manifest.records)[::-1])
        names = [r.name for r in shuffled.layer_records()]
        assert names == [layer_name(b, k) for b in range(2) for k in KIND_ORDER]

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), blocks=st.integers(1, 5), aux=st.integers(0, 6))
    def test_layer_axis_equals_parse_and_sort(self, data, blocks, aux):
        """The manifest's layer order and indices equal parsing each name and
        sorting, for layer records in any order with aux records among them."""
        layers = [TensorRecord(layer_name(b, k), (2, 2), "fp32")
                  for b in range(blocks) for k in KIND_ORDER]
        extras = [TensorRecord(f"aux.{i}", (1, 2), "fp32", aux=True) for i in range(aux)]
        records = data.draw(st.permutations(layers + extras))
        manifest = ModelManifest(blocks, records)

        def index_of(name):
            return layer_index_of(*parse_layer_name(name))

        reference = sorted((r for r in records if not r.aux), key=lambda r: index_of(r.name))
        assert manifest.layer_records() == reference
        for rec in layers:
            assert manifest.layer_index(rec.name) == index_of(rec.name)

    @pytest.mark.parametrize("name", ["blocks.1.q", "blocks.0.x", "aux.0", "embeddings"])
    def test_layer_index_of_a_name_the_model_lacks_rejected(self, name):
        manifest, _ = tiny_model()
        records = list(manifest.records) + [TensorRecord("aux.0", (1, 4), "fp32", aux=True)]
        with pytest.raises(ValueError, match=re.escape(f"{name!r} is not a layer of this model")):
            ModelManifest(1, records).layer_index(name)

    @pytest.mark.parametrize(
        "edit,message",
        [
            pytest.param(lambda obj: obj.update(extra=1), "manifest has unknown keys ['extra']",
                         id="manifest"),
            pytest.param(lambda obj: obj["records"][1].update(scale=2.0, note="x"),
                         "tensor record 'blocks.0.k' has unknown keys ['scale', 'note']",
                         id="record"),
            pytest.param(lambda obj: obj["records"][0]["grouping"].update(size=4),
                         "tensor record 'blocks.0.q': grouping descriptor has unknown keys "
                         "['size']", id="grouping"),
        ],
    )
    def test_unknown_key_rejected_naming_it(self, tmp_path, edit, message):
        obj = write_quantized_tiny_model(str(tmp_path / "m"))
        assert ModelManifest.from_json_dict(obj).records  # the written file reads back
        edit(obj)
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelManifest.from_json_dict(obj)


class TestWriteRead:
    def test_blob_size_is_forced_by_format(self, tmp_path):
        # 7 tensors of 4x4 fp32: 7 * 16 * 4 bytes.
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        assert (tmp_path / "m.bin").stat().st_size == 7 * 16 * 4

    def test_round_trip_bit_exact(self, tmp_path):
        manifest, tensors = tiny_model(blocks=2, dim=6, seed=123)
        write_model(manifest, tensors, tmp_path / "m")
        manifest2, tensors2 = read_model(tmp_path / "m")
        assert manifest2 == manifest
        for name, arr in tensors.items():
            assert np.array_equal(tensors2[name], arr)
            assert tensors2[name].dtype == arr.dtype

    def test_writes_are_deterministic(self, tmp_path):
        manifest, tensors = tiny_model(seed=7)
        write_model(manifest, tensors, tmp_path / "a")
        write_model(manifest, tensors, tmp_path / "b")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.manifest.json").read_bytes() == (
            tmp_path / "b.manifest.json"
        ).read_bytes()

    def test_arrays_are_read_only_aligned_and_distinct(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        _, loaded = read_model(tmp_path / "m")
        arrays = list(loaded.values())
        assert len(arrays) == len(manifest.records)
        for i, arr in enumerate(arrays):
            assert not arr.flags.writeable and arr.ctypes.data % 64 == 0
            assert not any(np.shares_memory(arr, other) for other in arrays[i + 1:])

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_no_file_stays_open(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        open_fds = len(os.listdir("/proc/self/fd"))
        _, loaded = read_model(tmp_path / "m")
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert np.array_equal(loaded["blocks.0.down"], tensors["blocks.0.down"])

    def test_trailing_bytes_rejected_before_any_read(self, tmp_path, monkeypatch):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        with open(blob_path(tmp_path / "m"), "ab") as fh:
            fh.write(b"\x00" * 8)
        reads = []
        real_open, real_preadv = builtins.open, os.preadv
        monkeypatch.setattr(builtins, "open",
                            lambda file, *a, **k: reads.append(file) or real_open(file, *a, **k))
        monkeypatch.setattr(os, "preadv", lambda *a: reads.append(a) or real_preadv(*a))
        with pytest.raises(ValueError, match="does not match"):
            read_model(tmp_path / "m")
        assert reads == [manifest_path(tmp_path / "m")]

    def test_int8_records_round_trip(self, tmp_path):
        manifest, tensors = tiny_model()
        records = list(manifest.records) + [
            TensorRecord(name="blocks.0.q.codes", shape=(4, 4), dtype="int8", aux=True)
        ]
        tensors = dict(tensors)
        tensors["blocks.0.q.codes"] = np.arange(-8, 8, dtype=np.int8).reshape(4, 4)
        manifest = ModelManifest(1, records)
        write_model(manifest, tensors, tmp_path / "m")
        _, tensors2 = read_model(tmp_path / "m")
        assert np.array_equal(tensors2["blocks.0.q.codes"], tensors["blocks.0.q.codes"])

    def test_missing_tensor_rejected(self, tmp_path):
        manifest, tensors = tiny_model()
        del tensors["blocks.0.v"]
        with pytest.raises(ValueError, match="absent"):
            write_model(manifest, tensors, tmp_path / "m")

    def test_extra_tensor_rejected(self, tmp_path):
        manifest, tensors = tiny_model()
        tensors["stray"] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="not named"):
            write_model(manifest, tensors, tmp_path / "m")

    def test_shape_mismatch_rejected(self, tmp_path):
        manifest, tensors = tiny_model()
        tensors["blocks.0.k"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            write_model(manifest, tensors, tmp_path / "m")

    def test_dtype_mismatch_rejected(self, tmp_path):
        manifest, tensors = tiny_model()
        tensors["blocks.0.k"] = tensors["blocks.0.k"].astype(np.float64)
        with pytest.raises(ValueError, match="dtype"):
            write_model(manifest, tensors, tmp_path / "m")

    def test_dtype_mismatch_text_on_two_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QUANTKIT_THREADS", "2")
        manifest, tensors = tiny_model(blocks=2)
        write_model(manifest, tensors, tmp_path / "m")
        old = _file_bytes(tmp_path / "m")
        tensors["blocks.1.k"] = tensors["blocks.1.k"].astype(np.float64)
        with pytest.raises(ValueError,
                           match=r"^tensor 'blocks\.1\.k' has dtype float64, manifest says fp32$"):
            write_model(manifest, tensors, tmp_path / "m")
        assert _file_bytes(tmp_path / "m") == old
        assert not list(tmp_path.glob(".tmp-*"))


class LyingStream:
    """A sized blob whose length is not the byte count it writes."""

    def write_into(self, fd):
        return os.write(fd, b"abc") + os.write(fd, np.arange(3, dtype=np.float32).tobytes())

    def __len__(self):
        return 3


class TestAtomicWrites:
    def test_len_of_data_is_the_size_written(self, tmp_path, monkeypatch):
        """perfbench counts bytes written as len(data) at atomic_write_bytes."""
        sizes = []

        def spy(path, data):
            atomic_write_bytes(path, data)
            sizes.append((os.path.getsize(path), len(data)))

        monkeypatch.setattr(model_store, "atomic_write_bytes", spy)
        manifest, tensors = tiny_model(blocks=2, dim=6)
        write_model(manifest, tensors, tmp_path / "m")
        names = [rec.name for rec in manifest.layer_records()]
        plan = QuantPlan({name: GroupingScheme.per_group(3) for name in names}, 3, 8)
        write_model(*quantized_view(manifest, tensors, plan), tmp_path / "q")
        atomic_write_text(tmp_path / "t.txt", "h\u00e9llo\n")
        assert len(sizes) == 5
        assert all(written == counted for written, counted in sizes), sizes

    def test_stream_of_the_wrong_length_leaves_the_old_file(self, tmp_path):
        target = tmp_path / "b.bin"
        target.write_bytes(b"old")
        with pytest.raises(ValueError, match="wrote 15 bytes to .*b.bin, expected 3"):
            atomic_write_bytes(target, LyingStream())
        assert target.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["b.bin"]


class TestFileModes:
    def test_files_get_the_mode_open_gives(self, tmp_path):
        """0o666 less the umask, as ``open(path, "w")`` creates a file, and
        the same bytes under any umask."""
        manifest, tensors = tiny_model()
        written = {}
        for umask in (0o022, 0o077, 0o002):
            d = tmp_path / oct(umask)
            d.mkdir()
            old = os.umask(umask)
            try:
                with open(d / "ref", "w"):
                    pass
                write_model(manifest, tensors, d / "m")
                atomic_write_text(d / "t.txt", "text\n")
            finally:
                os.umask(old)
            assert stat.S_IMODE(os.stat(d / "ref").st_mode) == 0o666 & ~umask
            for name in ("m.bin", "m.manifest.json", "t.txt"):
                assert stat.S_IMODE(os.stat(d / name).st_mode) == 0o666 & ~umask, (umask, name)
            written[umask] = _file_bytes(d / "m")
        assert len(set(written.values())) == 1


class TestReadErrors:
    read = staticmethod(read_model)

    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            self.read(tmp_path / "nothing")

    def test_malformed_json(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        (tmp_path / "m.manifest.json").write_text("{not json")
        with pytest.raises(ValueError, match="malformed manifest"):
            self.read(tmp_path / "m")

    def test_manifest_that_is_not_an_object(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        (tmp_path / "m.manifest.json").write_text("[]")
        with pytest.raises(ValueError, match="manifest must be a JSON object"):
            self.read(tmp_path / "m")

    def test_truncated_blob_names_the_record(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        blob = (tmp_path / "m.bin").read_bytes()
        (tmp_path / "m.bin").write_bytes(blob[:-10])
        with pytest.raises(ValueError, match="blob underrun.*blocks.0.down"):
            self.read(tmp_path / "m")

    def test_overlapping_records_rejected(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        obj = json.loads((tmp_path / "m.manifest.json").read_text())
        obj["records"][1]["byte_offset"] = 10  # collides with record 0
        (tmp_path / "m.manifest.json").write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="overlap"):
            self.read(tmp_path / "m")

    def test_out_of_record_order_tiling_rejected(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        obj = json.loads((tmp_path / "m.manifest.json").read_text())
        first, second = obj["records"][:2]  # same size: the swap still tiles the blob
        first["byte_offset"], second["byte_offset"] = second["byte_offset"], 0
        (tmp_path / "m.manifest.json").write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="'blocks.0.q' starts at byte 64, not 0"):
            self.read(tmp_path / "m")

    def test_duplicate_names_rejected_on_read(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        obj = json.loads((tmp_path / "m.manifest.json").read_text())
        obj["records"][1]["name"] = obj["records"][0]["name"]
        (tmp_path / "m.manifest.json").write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="duplicate|canonical"):
            self.read(tmp_path / "m")

    def test_trailing_bytes_rejected(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        with open(blob_path(tmp_path / "m"), "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError, match="does not match"):
            self.read(tmp_path / "m")

    def test_unsupported_version(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        obj = json.loads((tmp_path / "m.manifest.json").read_text())
        obj["version"] = 99
        (tmp_path / "m.manifest.json").write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="version"):
            self.read(tmp_path / "m")


class TestOpenModelReadErrors(TestReadErrors):
    """Every TestReadErrors case again, through the per-record reader."""

    read = staticmethod(open_model)


class TestQuantizedRecordContract:
    def test_valid_quantized_model_reads_back(self, tmp_path):
        write_quantized_tiny_model(tmp_path / "q")
        manifest, _ = read_model(tmp_path / "q")
        assert manifest.record("blocks.0.q").scale_ref == "blocks.0.q.s"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_scale_record_two_layers_name_is_written_once_by_the_last(
            self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("QUANTKIT_THREADS", threads)
        manifest, tensors = tiny_model()
        pc = GroupingScheme.per_channel()
        shared = TensorRecord(name="shared.s", shape=(4, 1), dtype="fp32", aux=True)
        quantized = {name: TensorRecord(name=name, shape=(4, 4), dtype="int8",
                                        scale_ref=shared.name, grouping=pc, bits=8)
                     for name in ("blocks.0.q", "blocks.0.k")}
        manifest = ModelManifest(1, [quantized.get(r.name, r) for r in manifest.records]
                                 + [shared])
        assert manifest.scale_owner("shared.s") is manifest.record("blocks.0.k")
        assert manifest.scale_owner("blocks.0.k") is None
        assert manifest.scale_owner(None) is None
        writes = Counter()
        real_write = model_store._BlobWriter._write

        def counting_write(self, fd, rec, src=None):
            writes[rec.name] += 1
            return real_write(self, fd, rec, src)

        monkeypatch.setattr(model_store._BlobWriter, "_write", counting_write)
        tensors.update({name: np.full((4, 4), 3, np.int8) for name in quantized},
                       **{shared.name: np.arange(1, 5, dtype=np.float32).reshape(4, 1)})
        write_model(manifest, tensors, tmp_path / "m")
        assert set(writes.values()) == {1} and len(writes) == len(manifest.records)
        again, arrays = read_model(tmp_path / "m")
        assert again == manifest
        assert all(arrays[name].tobytes() == arr.tobytes() for name, arr in tensors.items())

    @pytest.mark.parametrize(
        "field,value,match",
        [
            pytest.param("scale_ref", "blocks.0.q.missing", "does not name", id="dangling"),
            pytest.param("scale_ref", "blocks.0.k", "does not name", id="scale_ref_not_aux"),
            pytest.param("grouping", {"mode": "per_group", "group_size": 1},
                         r"shape \(4, 2\), expected \(4, 4\)", id="per_group_scale_shape"),
            pytest.param("grouping", {"mode": "per_channel"}, r"expected \(4, 1\)",
                         id="per_channel_scale_shape"),
            pytest.param("grouping", {"mode": "per_group", "group_size": 3}, "does not divide",
                         id="group_does_not_tile"),
            pytest.param("bits", 9, "bits", id="bits_out_of_range"),
            pytest.param("grouping", None, "must carry", id="missing_grouping"),
            pytest.param("bits", None, "must carry", id="missing_bits"),
            pytest.param("scale_ref", None, "must carry", id="missing_scale_ref"),
        ],
    )
    def test_broken_quantized_record_rejected_on_read(self, tmp_path, field, value, match):
        obj = write_quantized_tiny_model(tmp_path / "q")
        rec = next(r for r in obj["records"] if r["name"] == "blocks.0.q")
        if value is None:
            del rec[field]
        else:
            rec[field] = value
        (tmp_path / "q.manifest.json").write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=match):
            read_model(tmp_path / "q")


class TestManifestJsonKinds:
    @pytest.mark.parametrize(
        "field,value,match",
        [
            pytest.param(("records",), None, "manifest 'records' must be list, got None",
                         id="null_records"),
            pytest.param(("records",), 5, "manifest 'records' must be list, got 5",
                         id="int_records"),
            pytest.param(("records", 0), "blocks.0.q", "tensor record must be a JSON object",
                         id="string_record"),
            pytest.param(("records", 0, "dtype"), ["fp32"],
                         "tensor record 'blocks.0.q': 'dtype' must be str", id="list_dtype"),
            pytest.param(("records", 0, "name"), ["blocks.0.q"],
                         "tensor record ['blocks.0.q']: 'name' must be str", id="list_name"),
            pytest.param(("records", 0, "shape"), [8.9, 8],
                         "tensor record 'blocks.0.q': 'shape' must be a list of int",
                         id="float_shape"),
            pytest.param(("records", 0, "shape"), [True, 4], "'shape' must be a list of int",
                         id="bool_shape"),
            pytest.param(("records", 0, "byte_offset"), 0.0, "'byte_offset' must be int",
                         id="float_offset"),
            pytest.param(("records", 6, "aux"), "no",
                         "tensor record 'blocks.0.down': 'aux' must be bool, got 'no'",
                         id="string_aux"),
            pytest.param(("records", 0, "scale_ref"), [], "'scale_ref' must be str",
                         id="list_scale_ref"),
            pytest.param(("records", 0, "bits"), 8.0, "'bits' must be int", id="float_bits"),
            pytest.param(("records", 0, "grouping"), [], "'grouping' must be dict",
                         id="list_grouping"),
            pytest.param(("blocks",), 1.7, "manifest 'blocks' must be int, got 1.7",
                         id="float_blocks"),
            pytest.param(("blocks",), 2**62, "canonical layers", id="huge_blocks"),
            pytest.param(("version",), True, "unsupported manifest version True",
                         id="bool_version"),
            pytest.param(("records", 0, "name"), None, "'name' must be str, got None",
                         id="null_name"),
            pytest.param(("records", 0, "shape"), [0, 4],
                         "record 'blocks.0.q': shape must be two positive integers",
                         id="zero_shape"),
            pytest.param(("blocks",), 0, "blocks must be positive", id="zero_blocks"),
        ],
    )
    def test_wrongly_typed_field_rejected(self, tmp_path, field, value, match):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        obj = json.loads((tmp_path / "m.manifest.json").read_text())
        target = obj
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
        (tmp_path / "m.manifest.json").write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=re.escape(match)):
            read_model(tmp_path / "m")

    def test_null_optional_fields_read_as_absent(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        obj = json.loads((tmp_path / "m.manifest.json").read_text())
        for key in ("aux", "scale_ref", "grouping", "bits"):
            obj["records"][0][key] = None
        (tmp_path / "m.manifest.json").write_text(json.dumps(obj))
        assert read_model(tmp_path / "m")[0] == manifest


class TestManifestJson:
    def test_keys_are_sorted(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        text = (tmp_path / "m.manifest.json").read_text()
        obj = json.loads(text)
        assert list(obj) == sorted(obj)
        assert text == json.dumps(obj, sort_keys=True, indent=2) + "\n"

    def test_paths_derive_from_stem(self, tmp_path):
        stem = tmp_path / "model"
        assert manifest_path(stem).endswith("model.manifest.json")
        assert blob_path(stem).endswith("model.bin")

    NAMES = st.text(max_size=6) | st.sampled_from(
        ['"', "\\", 'a"b\\c', "\x00\x1f\x7f", "\n\t\r\b\f", "\u00e9t\u00e9", "\u2028\u2029",
         "\U0001f600", "\ud7ff\ue000\uffff", "\ud800 lone"])
    SCHEMES = st.none() | st.just(GroupingScheme.per_channel()) | st.integers(1, 2**40).map(
        GroupingScheme.per_group)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_writer_text_equals_json_dumps(self, data):
        """Any manifest the library accepts: optional fields present and
        absent, names json must escape, and offsets past 2^32."""
        blocks = data.draw(st.integers(1, 2), label="blocks")
        dims = st.integers(1, 2**17)
        records = []
        for b in range(blocks):
            for kind in KIND_ORDER:
                name = layer_name(b, kind)
                rows, cols = data.draw(st.tuples(dims, dims), label=name)
                if data.draw(st.booleans(), label=f"quantize {name}"):
                    g = data.draw(st.sampled_from([cols] + _divisors(cols)[:4]), label=name + " g")
                    scheme = GroupingScheme.per_channel()
                    if g < cols:
                        scheme = GroupingScheme.per_group(g)
                    scales = name + ".s" + data.draw(self.NAMES, label=f"scale suffix {name}")
                    records.append(TensorRecord(name, (rows, cols), "int8", scale_ref=scales,
                                                grouping=scheme, bits=data.draw(st.integers(2, 8))))
                    records.append(TensorRecord(scales, (rows, cols // g), "fp32", aux=True))
                else:  # an fp32 layer may carry any optional field
                    records.append(TensorRecord(
                        name, (rows, cols), "fp32",
                        scale_ref=data.draw(st.none() | self.NAMES, label=f"scale_ref {name}"),
                        grouping=data.draw(self.SCHEMES, label=f"grouping {name}"),
                        bits=data.draw(st.none() | st.integers(), label=f"bits {name}")))
        taken = {rec.name for rec in records}
        for name in data.draw(st.lists(self.NAMES, max_size=4, unique=True), label="aux names"):
            if name not in taken:
                dtype = data.draw(st.sampled_from(["fp32", "int8"]))
                records.append(TensorRecord(
                    name, data.draw(st.tuples(dims, dims)), dtype,
                    scale_ref=data.draw(st.none() | self.NAMES), aux=True,
                    grouping=data.draw(self.SCHEMES), bits=data.draw(st.none() | st.integers())))
        order = data.draw(st.permutations(records), label="record order")
        manifest = ModelManifest(blocks, order)
        text = model_store._manifest_text(manifest)
        assert text == json.dumps(manifest_json(manifest), sort_keys=True, indent=2) + "\n"
        again = model_store.ModelManifest.from_json_dict(json.loads(text))
        assert again == manifest
        assert model_store._manifest_text(again) == text  # write, read, write: the same bytes


class TestBuildAndCheckOnce:
    """Each record is built once and each of its fields checked once."""

    @pytest.fixture
    def model(self, tmp_path):
        """A 2-block model with an aux record, a plan mixing per-channel and
        per-group(3), and the quantized model written to ``tmp_path / "q"``."""
        manifest, tensors = tiny_model(blocks=2, dim=6)
        head = TensorRecord(name="lm_head", shape=(3, 6), dtype="fp32", aux=True)
        manifest = ModelManifest(2, list(manifest.records) + [head])
        tensors = dict(tensors, lm_head=np.ones((3, 6), dtype=np.float32))
        names = [rec.name for rec in manifest.layer_records()]
        plan = QuantPlan({name: GroupingScheme.per_group(3) if i % 3 else
                          GroupingScheme.per_channel() for i, name in enumerate(names)}, 3, 8)
        write_model(*quantized_view(manifest, tensors, plan), tmp_path / "q")
        return manifest, tensors, names, plan

    @pytest.fixture
    def spied(self, model, monkeypatch):
        """Counts, from here on, per record name: constructor checks, and
        quantized-record checks."""
        built, quantized = Counter(), Counter()
        check_record, check_quantized = TensorRecord.__post_init__, model_store._check_quantized

        def spy_record(rec):
            built[rec.name] += 1
            check_record(rec)

        def spy_quantized(rec, by_name):
            quantized[rec.name] += 1
            check_quantized(rec, by_name)

        monkeypatch.setattr(TensorRecord, "__post_init__", spy_record)
        monkeypatch.setattr(model_store, "_check_quantized", spy_quantized)
        return built, quantized

    def test_quantized_view_builds_each_output_record_once(self, model, spied):
        manifest, tensors, names, plan = model
        built, quantized = spied
        qmanifest, _ = quantized_view(manifest, tensors, plan)
        assert built == Counter(dict.fromkeys(names + [n + ".scales" for n in names], 1))
        assert quantized == Counter(dict.fromkeys(names, 1))
        assert qmanifest.record("lm_head") is manifest.record("lm_head")

    def test_open_model_checks_each_record_once(self, model, spied, tmp_path):
        names = model[2]
        built, quantized = spied
        qmanifest, _ = open_model(tmp_path / "q")
        assert built == Counter({rec.name: 1 for rec in qmanifest.records})
        assert quantized == Counter(dict.fromkeys(names, 1))


def _divisors(m):
    return [g for g in range(1, m + 1) if m % g == 0]


def _file_bytes(stem):
    with open(manifest_path(stem), "rb") as mf, open(blob_path(stem), "rb") as bf:
        return mf.read(), bf.read()


class TestRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fp_and_quantized_models_round_trip(self, data):
        blocks = data.draw(st.integers(1, 3), label="blocks")
        cols = data.draw(st.sampled_from([1, 3, 8, 12]), label="cols")
        bits = data.draw(st.integers(2, 8), label="bits")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        records, tensors, assignments = [], {}, {}
        for b in range(blocks):
            for kind in KIND_ORDER:
                name = layer_name(b, kind)
                rows = data.draw(st.integers(1, 5), label=f"rows {name}")
                records.append(TensorRecord(name=name, shape=(rows, cols), dtype="fp32"))
                tensors[name] = rng.normal(0, 1, (rows, cols)).astype(np.float32)
                g = data.draw(st.sampled_from([None] + _divisors(cols)), label=f"g {name}")
                assignments[name] = (
                    GroupingScheme.per_channel() if g is None else GroupingScheme.per_group(g)
                )
        manifest = ModelManifest(blocks, records)
        plan = QuantPlan(assignments, cols, bits)
        quantized = apply_plan(manifest, tensors, plan)

        with tempfile.TemporaryDirectory() as tmp:
            write_model(*quantized_view(manifest, tensors, plan), os.path.join(tmp, "view"))
            for label, (man, arrays) in {"fp": (manifest, tensors), "q": quantized}.items():
                stem = os.path.join(tmp, label)
                write_model(man, arrays, stem)
                man2, arrays2 = read_model(stem)
                assert man2 == man
                assert arrays2.keys() == arrays.keys()
                for name, arr in arrays.items():
                    assert arrays2[name].dtype == arr.dtype
                    assert arrays2[name].tobytes() == arr.tobytes()
                man3, arrays3 = open_model(stem)
                assert man3 == man
                assert list(arrays3) == list(arrays2) and len(arrays3) == len(arrays2)
                for name, arr in arrays2.items():
                    opened = arrays3[name]
                    assert (opened.dtype, opened.shape) == (arr.dtype, arr.shape)
                    assert opened.tobytes() == arr.tobytes()
                    assert not opened.flags.writeable
                    assert opened.ctypes.data % 64 == 0
                write_model(man2, arrays2, stem + "-again")
                assert _file_bytes(stem + "-again") == _file_bytes(stem)
                fortran = {name: np.asfortranarray(arr) for name, arr in arrays.items()}
                write_model(man, fortran, stem + "-fortran")
                assert _file_bytes(stem + "-fortran") == _file_bytes(stem)
            assert _file_bytes(os.path.join(tmp, "view")) == _file_bytes(os.path.join(tmp, "q"))


class TestOpenModel:
    def test_each_lookup_reads_a_fresh_copy(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        _, opened = open_model(tmp_path / "m")
        first, second = opened["blocks.0.q"], opened["blocks.0.q"]
        assert first is not second and not np.shares_memory(first, second)
        assert np.array_equal(first, tensors["blocks.0.q"])

    def test_unknown_name_is_a_key_error(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        _, opened = open_model(tmp_path / "m")
        with pytest.raises(KeyError):
            opened["blocks.0.nope"]
        assert "blocks.0.nope" not in opened and "blocks.0.q" in opened

    def test_blob_truncated_after_open_names_the_record(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        _, opened = open_model(tmp_path / "m")
        os.truncate(blob_path(tmp_path / "m"), manifest.blob_nbytes - 10)
        assert np.array_equal(opened["blocks.0.q"], tensors["blocks.0.q"])
        with pytest.raises(ValueError, match="short read for record 'blocks.0.down'"):
            opened["blocks.0.down"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_blob_is_closed_on_a_failed_check_and_when_the_mapping_goes(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        open_fds = len(os.listdir("/proc/self/fd"))
        _, opened = open_model(tmp_path / "m")
        assert len(os.listdir("/proc/self/fd")) == open_fds + 1
        del opened
        assert len(os.listdir("/proc/self/fd")) == open_fds
        with open(blob_path(tmp_path / "m"), "ab") as fh:
            fh.write(b"\x00")
        for _ in range(3):
            with pytest.raises(ValueError, match="does not match"):
                open_model(tmp_path / "m")
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_threads_sharing_the_mapping_read_their_own_records(self, tmp_path):
        manifest, tensors = tiny_model(blocks=4, dim=16)
        write_model(manifest, tensors, tmp_path / "m")
        _, opened = open_model(tmp_path / "m")
        names = list(tensors)
        wrong = []

        def reader(seed):
            order = np.random.default_rng(seed).permutation(len(names) * 20) % len(names)
            for i in order:
                if opened[names[i]].tobytes() != tensors[names[i]].tobytes():
                    wrong.append(names[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert wrong == []

    def test_blob_replaced_after_open_reads_the_old_bytes(self, tmp_path):
        manifest, tensors = tiny_model(seed=1)
        write_model(manifest, tensors, tmp_path / "m")
        _, opened = open_model(tmp_path / "m")
        _, other = tiny_model(seed=2)
        write_model(manifest, other, tmp_path / "new")
        os.replace(blob_path(tmp_path / "new"), blob_path(tmp_path / "m"))
        for name, arr in tensors.items():
            assert opened[name].tobytes() == arr.tobytes()


class CountingTensors(Mapping):
    """A tensor mapping that counts fetches per name (an array, or a row
    source when the inner mapping gives them) and the most fetched objects
    alive at once (an array is alive while its memory is)."""

    def __init__(self, tensors):
        self._tensors = tensors
        self._lock = threading.Lock()
        self.fetches = Counter()
        self.bytes_read = Counter()  # per record, when a test counts the blob's reads
        self.live = self.peak = 0

    def __getitem__(self, name):
        arr = self._tensors[name]
        owner = arr
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        self._fetched(name, owner)
        return arr

    def row_source(self, name):
        src = model_store.row_source(self._tensors, name)
        self._fetched(name, src)
        return src

    def _fetched(self, name, owner):
        with self._lock:
            self.fetches[name] += 1
            self.live += 1
            self.peak = max(self.peak, self.live)
        weakref.finalize(owner, self._release)

    def _release(self):
        with self._lock:
            self.live -= 1

    def __iter__(self):
        return iter(self._tensors)

    def __len__(self):
        return len(self._tensors)


class TestOnePassAccess:
    """The one-pass stages fetch each layer once and hold few at a time, so
    with open_model their memory follows the block, not the model; and they
    read each layer's bytes from the blob once (a profile: twice if the
    layer can hold a wall)."""

    @pytest.fixture
    def opened(self, tmp_path, monkeypatch):
        cfg = SynthConfig(blocks=2, dim=32, wall_blocks=(0,), wall_columns_per_layer=1, seed=4)
        write_model(*generate(cfg), tmp_path / "m")
        manifest, tensors = open_model(tmp_path / "m")
        counting = CountingTensors(tensors)
        starts = sorted((manifest.byte_offset(rec.name), rec.name) for rec in manifest.records)
        real_preadv = os.preadv

        def preadv(fd, buffers, offset):
            got = real_preadv(fd, buffers, offset)
            name = starts[bisect.bisect_right(starts, (offset, chr(0x10FFFF))) - 1][1]
            with counting._lock:
                counting.bytes_read[name] += got
            return got

        monkeypatch.setattr(os, "preadv", preadv)
        return manifest, counting

    @staticmethod
    def read_ratios(manifest, tensors):
        return {rec.name: tensors.bytes_read[rec.name] / rec.nbytes
                for rec in manifest.layer_records()}

    def profile_read_ratios(self, opened, monkeypatch, wall_cfg):
        """Profile on two threads; each layer's read ratio, and its wall count."""
        manifest, tensors = opened
        monkeypatch.setenv("QUANTKIT_THREADS", "2")
        metrics = profile_model(manifest, tensors, QuantParams(8), wall_cfg, group_sizes=[8, 16])
        assert tensors.fetches == Counter({rec.name: 1 for rec in manifest.layer_records()})
        assert tensors.peak <= 2 and tensors.live == 0
        ratios = self.read_ratios(manifest, tensors)
        return [(ratios[m.name], m.wall_count) for m in metrics]

    def test_profile_model_fetches_each_layer_once(self, opened, monkeypatch):
        # The leaves read each layer once; the wall pass reads it again only
        # if its max |w| is above the threshold, which at 32 rows (fewer
        # than 1 / row_fraction) is a layer with a wall.  The default
        # threshold, 20x the RMS that a wall column inflates, finds none.
        ratios = self.profile_read_ratios(opened, monkeypatch, None)
        assert {ratio for ratio, _ in ratios} == {1.0}

    def test_profile_model_reads_only_wall_layers_twice(self, opened, monkeypatch):
        ratios = self.profile_read_ratios(opened, monkeypatch, WallDetectorConfig.absolute(10.0))
        assert {ratio for ratio, walls in ratios if not walls} == {1.0}
        assert all(1 <= ratio <= 2 for ratio, walls in ratios if walls)
        assert sum(1 for _, walls in ratios if walls) == 5  # block 0's q, k, v, up, gate

    def test_apply_plan_holds_one_layer_at_a_time(self, opened):
        manifest, tensors = opened
        names = [rec.name for rec in manifest.layer_records()]
        plan = QuantPlan({name: GroupingScheme.per_group(8) for name in names}, 8, 8)
        apply_plan(manifest, tensors, plan)
        assert tensors.fetches == Counter(dict.fromkeys(names, 1))
        assert tensors.peak == 1 and tensors.live == 0
        # Each block's one read gives its scales and codes: each layer's bytes once.
        assert set(self.read_ratios(manifest, tensors).values()) == {1.0}

    def test_apply_plan_on_two_threads_holds_a_layer_per_thread(self, opened, monkeypatch):
        manifest, tensors = opened
        monkeypatch.setenv("QUANTKIT_THREADS", "2")
        names = [rec.name for rec in manifest.layer_records()]
        plan = QuantPlan({name: GroupingScheme.per_group(8) for name in names}, 8, 8)
        apply_plan(manifest, tensors, plan)
        assert tensors.fetches == Counter(dict.fromkeys(names, 1))
        assert tensors.peak <= 2 and tensors.live == 0
        assert set(self.read_ratios(manifest, tensors).values()) == {1.0}

    def test_write_model_streams_the_quantized_view_one_layer_at_a_time(self, opened, tmp_path):
        manifest, tensors = opened
        names = [rec.name for rec in manifest.layer_records()]
        plan = QuantPlan({name: GroupingScheme.per_group(8) for name in names}, 8, 8)
        write_model(*quantized_view(manifest, tensors, plan), tmp_path / "q")
        assert tensors.fetches == Counter(dict.fromkeys(names, 1))
        assert tensors.peak == 1 and tensors.live == 0
        assert set(self.read_ratios(manifest, tensors).values()) == {1.0}

    def test_write_model_streams_the_quantized_view_on_two_threads(self, opened, tmp_path,
                                                                   monkeypatch):
        manifest, tensors = opened
        monkeypatch.setenv("QUANTKIT_THREADS", "2")
        names = [rec.name for rec in manifest.layer_records()]
        plan = QuantPlan({name: GroupingScheme.per_group(8) for name in names}, 8, 8)
        write_model(*quantized_view(manifest, tensors, plan), tmp_path / "q")
        assert tensors.fetches == Counter(dict.fromkeys(names, 1))
        assert tensors.peak <= 2 and tensors.live == 0
        # Each block read once, for its scales and codes: each layer's bytes once.
        assert set(self.read_ratios(manifest, tensors).values()) == {1.0}

    def test_threshold_sweep_fetches_a_selected_layer_at_most_twice(self, opened, monkeypatch):
        manifest, tensors = opened
        monkeypatch.setenv("QUANTKIT_THREADS", "2")
        rows = sweep_group_size(manifest, tensors, PlanConfig(max_abs_threshold=2.0), [8, 16])
        selected = set(rows[0].per_layer_rmse)
        names = {rec.name for rec in manifest.layer_records()}
        assert selected and selected < names
        for name in names:
            assert 1 <= tensors.fetches[name] <= (2 if name in selected else 1), name
        assert tensors.peak <= 2 and tensors.live == 0
        # The max_abs selection reads each layer once; a selected layer is
        # read once more by its profile.
        ratios = self.read_ratios(manifest, tensors)
        assert {ratios[name] for name in names - selected} == {1.0}
        assert {ratios[name] for name in selected} == {2.0}


class TestOnePassErrors:
    """A quantized layer is read once, block by block, and its errors come
    from the failing block, after earlier blocks' codes may have been
    written: the error names the layer and leaves every file as it was."""

    LAYER = "blocks.1.q"

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "bad,source,grouping,match",
        [
            (np.nan, "open_model", 8, "weight contains NaN or Inf"),
            (1e-44, "open_model", 1,
             f"nonzero max_abs {float(np.float32(1e-44))!r} underflows its float32 scale to 0"),
            (1e39, "dict", None, "max_abs 1e+39 exceeds the float32 range of scales"),
        ],
        ids=["nan", "underflow", "overflow"],
    )
    def test_bad_value_in_the_last_block(self, tmp_path, monkeypatch, threads, bad, source,
                                         grouping, match):
        manifest, tensors = generate(SynthConfig(blocks=2, dim=32, wall_blocks=(0,), seed=9))
        layer = tensors[self.LAYER].astype(np.float64 if source == "dict" else np.float32)
        layer[-1, 5] = bad  # the last row: with blocks of 4 rows, the eighth block
        tensors = dict(tensors, **{self.LAYER: layer})
        if source == "open_model":
            write_model(manifest, tensors, tmp_path / "m")
            manifest, tensors = open_model(tmp_path / "m")
        plan = QuantPlan({rec.name: GroupingScheme.per_channel() if grouping is None
                          else GroupingScheme.per_group(grouping)
                          for rec in manifest.layer_records()}, 8, 8)
        out = tmp_path / "q"
        out.with_suffix(".bin").write_bytes(b"old blob")
        out.with_suffix(".manifest.json").write_bytes(b"old manifest")
        before = sorted(os.listdir(tmp_path))
        monkeypatch.setenv("QUANTKIT_THREADS", threads)
        monkeypatch.setattr(quantizer, "_BLOCK", 128)
        assert len(quantizer._row_blocks(32, 32)) == 8
        with pytest.raises(ValueError, match="^layer 'blocks\\.1\\.q': " + re.escape(match)):
            write_model(*quantized_view(manifest, tensors, plan), out)
        assert sorted(os.listdir(tmp_path)) == before
        assert out.with_suffix(".bin").read_bytes() == b"old blob"
        assert out.with_suffix(".manifest.json").read_bytes() == b"old manifest"


class TestParallelWrites:
    def test_many_threads_write_the_bytes_of_one(self, tmp_path, monkeypatch):
        """More writer threads than cores, switching often.  Each layer's
        scales pass from its row source to its scale record, written by the
        same task: a scale record looked up through the view instead would
        quantize the layer again (a quantize_weight call) and fetch it
        twice."""
        cfg = SynthConfig(blocks=6, dim=48, wall_blocks=(0, 3), wall_columns_per_layer=1, seed=5)
        write_model(*generate(cfg), tmp_path / "m")
        manifest, opened = open_model(tmp_path / "m")
        names = [rec.name for rec in manifest.layer_records()]
        plan = QuantPlan({name: GroupingScheme.per_group(8) if i % 3 else
                          GroupingScheme.per_channel() for i, name in enumerate(names)}, 8, 8)
        monkeypatch.setenv("QUANTKIT_THREADS", "1")
        write_model(*quantized_view(manifest, opened, plan), tmp_path / "one")
        calls = []
        monkeypatch.setattr(planner, "quantize_weight", lambda *args: calls.append(args))
        monkeypatch.setenv("QUANTKIT_THREADS", "8")
        counted = []

        def write(k):
            counted.append(CountingTensors(opened))
            write_model(*quantized_view(manifest, counted[-1], plan), tmp_path / f"many{k}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k in range(3):
                worker = threading.Thread(target=write, args=(k,))
                worker.start()
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert calls == []
        for k, tensors in enumerate(counted):
            assert tensors.fetches == Counter(dict.fromkeys(names, 1))
            assert _file_bytes(tmp_path / f"many{k}") == _file_bytes(tmp_path / "one")
