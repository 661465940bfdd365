"""Container round-trip, determinism, and validation tests."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantkit import (
    KIND_ORDER,
    GroupingScheme,
    ModelManifest,
    QuantPlan,
    TensorRecord,
    apply_plan,
    layer_index_of,
    layer_name,
    parse_layer_name,
    read_model,
    write_model,
)
from quantkit.model_store import blob_path, manifest_path


def tiny_model(blocks=1, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    tensors = {}
    for b in range(blocks):
        for kind in KIND_ORDER:
            name = layer_name(b, kind)
            records.append(TensorRecord(name=name, shape=(dim, dim), dtype="fp32"))
            tensors[name] = rng.normal(0, 1, (dim, dim)).astype(np.float32)
    return ModelManifest.assemble(blocks, records), tensors


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
    write_model(ModelManifest.assemble(1, records), tensors, stem)
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


class TestManifestValidation:
    def test_duplicate_names_rejected(self):
        rec = TensorRecord(name="blocks.0.q", shape=(2, 2), dtype="fp32")
        records = [rec, rec] + [
            TensorRecord(name=layer_name(0, k), shape=(2, 2), dtype="fp32")
            for k in KIND_ORDER[1:]
        ]
        with pytest.raises(ValueError, match="duplicate"):
            ModelManifest.assemble(1, records)

    def test_wrong_layer_count_rejected(self):
        records = [
            TensorRecord(name=layer_name(0, k), shape=(2, 2), dtype="fp32")
            for k in KIND_ORDER[:-1]
        ]
        with pytest.raises(ValueError, match="canonical"):
            ModelManifest.assemble(1, records)

    def test_aux_records_are_allowed_and_skipped(self):
        manifest, _ = tiny_model()
        records = list(manifest.records) + [
            TensorRecord(name="lm_head", shape=(4, 4), dtype="fp32", aux=True)
        ]
        manifest2 = ModelManifest.assemble(1, records)
        assert len(manifest2.records) == 8
        assert [r.name for r in manifest2.layer_records()] == [
            layer_name(0, k) for k in KIND_ORDER
        ]

    def test_bad_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            TensorRecord(name="blocks.0.q", shape=(2, 2), dtype="fp16")

    def test_layer_records_ordered_by_index(self):
        manifest, _ = tiny_model(blocks=2)
        shuffled = ModelManifest.assemble(2, list(manifest.records)[::-1])
        names = [r.name for r in shuffled.layer_records()]
        assert names == [layer_name(b, k) for b in range(2) for k in KIND_ORDER]


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

    def test_arrays_are_read_only_views_of_one_buffer(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        _, loaded = read_model(tmp_path / "m")
        blob = loaded["blocks.0.q"].base.base
        assert isinstance(blob, bytes) and len(blob) == manifest.blob_nbytes
        for arr in loaded.values():
            assert arr.base.base is blob
            assert not arr.flags.writeable

    def test_int8_records_round_trip(self, tmp_path):
        manifest, tensors = tiny_model()
        records = list(manifest.records) + [
            TensorRecord(name="blocks.0.q.codes", shape=(4, 4), dtype="int8", aux=True)
        ]
        tensors = dict(tensors)
        tensors["blocks.0.q.codes"] = np.arange(-8, 8, dtype=np.int8).reshape(4, 4)
        manifest = ModelManifest.assemble(1, records)
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

    def test_non_canonical_offsets_rejected(self, tmp_path):
        manifest, tensors = tiny_model()
        # bypass assemble: offsets all zero
        bad = ModelManifest(1, [
            TensorRecord(name=r.name, shape=r.shape, dtype=r.dtype) for r in manifest.records
        ])
        with pytest.raises(ValueError, match="assemble"):
            write_model(bad, tensors, tmp_path / "m")


class TestReadErrors:
    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_model(tmp_path / "nothing")

    def test_malformed_json(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        (tmp_path / "m.manifest.json").write_text("{not json")
        with pytest.raises(ValueError, match="malformed manifest"):
            read_model(tmp_path / "m")

    def test_truncated_blob_names_the_record(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        blob = (tmp_path / "m.bin").read_bytes()
        (tmp_path / "m.bin").write_bytes(blob[:-10])
        with pytest.raises(ValueError, match="blob underrun.*blocks.0.down"):
            read_model(tmp_path / "m")

    def test_overlapping_records_rejected(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        obj = json.loads((tmp_path / "m.manifest.json").read_text())
        obj["records"][1]["byte_offset"] = 10  # collides with record 0
        (tmp_path / "m.manifest.json").write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="overlap"):
            read_model(tmp_path / "m")

    def test_out_of_record_order_tiling_rejected(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        obj = json.loads((tmp_path / "m.manifest.json").read_text())
        first, second = obj["records"][:2]  # same size: the swap still tiles the blob
        first["byte_offset"], second["byte_offset"] = second["byte_offset"], 0
        (tmp_path / "m.manifest.json").write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="'blocks.0.q' starts at byte 64, not 0"):
            read_model(tmp_path / "m")

    def test_duplicate_names_rejected_on_read(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        obj = json.loads((tmp_path / "m.manifest.json").read_text())
        obj["records"][1]["name"] = obj["records"][0]["name"]
        (tmp_path / "m.manifest.json").write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="duplicate|canonical"):
            read_model(tmp_path / "m")

    def test_trailing_bytes_rejected(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        with open(blob_path(tmp_path / "m"), "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError, match="does not match"):
            read_model(tmp_path / "m")

    def test_unsupported_version(self, tmp_path):
        manifest, tensors = tiny_model()
        write_model(manifest, tensors, tmp_path / "m")
        obj = json.loads((tmp_path / "m.manifest.json").read_text())
        obj["version"] = 99
        (tmp_path / "m.manifest.json").write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="version"):
            read_model(tmp_path / "m")


class TestQuantizedRecordContract:
    def test_valid_quantized_model_reads_back(self, tmp_path):
        write_quantized_tiny_model(tmp_path / "q")
        manifest, _ = read_model(tmp_path / "q")
        assert manifest.record("blocks.0.q").scale_ref == "blocks.0.q.s"

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
        manifest = ModelManifest.assemble(blocks, records)
        quantized = apply_plan(manifest, tensors, QuantPlan(assignments, cols, bits))

        with tempfile.TemporaryDirectory() as tmp:
            for label, (man, arrays) in {"fp": (manifest, tensors), "q": quantized}.items():
                stem = os.path.join(tmp, label)
                write_model(man, arrays, stem)
                man2, arrays2 = read_model(stem)
                assert man2 == man
                assert arrays2.keys() == arrays.keys()
                for name, arr in arrays.items():
                    assert arrays2[name].dtype == arr.dtype
                    assert arrays2[name].tobytes() == arr.tobytes()
                write_model(man2, arrays2, stem + "-again")
                assert _file_bytes(stem + "-again") == _file_bytes(stem)
                fortran = {name: np.asfortranarray(arr) for name, arr in arrays.items()}
                write_model(man, fortran, stem + "-fortran")
                assert _file_bytes(stem + "-fortran") == _file_bytes(stem)
