"""Mixed-grouping plan construction, application, and group-size sweeps."""

import gc
import json
import re
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantkit import (
    GroupingScheme,
    ModelManifest,
    PlanConfig,
    QuantParams,
    QuantPlan,
    SynthConfig,
    apply_plan,
    build_plan,
    dequantize,
    generate,
    layer_rmse,
    open_model,
    profile_model,
    quantize_weight,
    quantized_view,
    read_model,
    sweep_group_size,
    write_model,
)
from quantkit import planner
from quantkit.model_store import KIND_ORDER, blob_path, layer_name
from quantkit.planner import read_quantized_layer, scale_record_name
from quantkit.quantizer import QuantizedTensor

P8 = QuantParams(8)
PC = GroupingScheme.per_channel()


@pytest.fixture(scope="module")
def wall_model():
    # desk-scale version of the 80-block phenomenology: 5 kinds x 2 blocks
    cfg = SynthConfig(blocks=6, dim=32, wall_blocks=(0, 3), wall_columns_per_layer=2, seed=9)
    return generate(cfg)


@pytest.fixture(scope="module")
def wall_metrics(wall_model):
    manifest, tensors = wall_model
    return profile_model(manifest, tensors, P8)


class TestBuildPlan:
    def test_threshold_selects_the_wall_layers(self, wall_metrics):
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        selected = plan.selected_layers()
        assert len(selected) == 10
        assert all(name.split(".")[1] in ("0", "3") for name in selected)
        assert plan.per_group_fraction == pytest.approx(10 / 42)

    def test_clean_model_yields_all_per_channel(self):
        manifest, tensors = generate(SynthConfig(blocks=2, dim=16, wall_blocks=(), seed=2))
        metrics = profile_model(manifest, tensors, P8)
        plan = build_plan(metrics, PlanConfig(max_abs_threshold=2.0))
        assert plan.selected_layers() == []
        assert plan.per_group_fraction == 0.0
        assert all(not s.is_per_group for s in plan.assignments.values())

    def test_top_k_matches_sort_oracle(self, wall_metrics):
        k = 3
        plan = build_plan(wall_metrics, PlanConfig(top_k=k, group_size=8))
        expected = [
            m.name for m in sorted(wall_metrics, key=lambda m: (-m.rmse, m.layer_index))[:k]
        ]
        assert sorted(plan.selected_layers()) == sorted(expected)

    def test_top_k_ties_break_to_lower_layer_index(self):
        metrics = profile_model(*generate(SynthConfig(blocks=1, dim=8, wall_blocks=(), seed=4)), P8)
        for m in metrics:
            m.rmse = 1.0  # force a total tie
        plan = build_plan(metrics, PlanConfig(top_k=2))
        assert sorted(plan.selected_layers()) == ["blocks.0.k", "blocks.0.q"]

    def test_explicit_selection(self, wall_metrics):
        plan = build_plan(
            wall_metrics, PlanConfig(explicit=("blocks.1.q", "blocks.2.down"), group_size=8)
        )
        assert sorted(plan.selected_layers()) == ["blocks.1.q", "blocks.2.down"]

    def test_explicit_unknown_layer_rejected(self, wall_metrics):
        with pytest.raises(ValueError, match="unknown layers"):
            build_plan(wall_metrics, PlanConfig(explicit=("blocks.99.q",)))

    def test_selection_monotone_in_threshold(self, wall_metrics):
        thresholds = [0.5, 2.0, 10.0, 60.0, 1000.0]
        sizes = [
            len(build_plan(wall_metrics, PlanConfig(max_abs_threshold=t)).selected_layers())
            for t in thresholds
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_plans_are_total(self, wall_metrics):
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0))
        assert sorted(plan.assignments) == sorted(m.name for m in wall_metrics)

    def test_non_dividing_group_size_falls_back_to_divisor(self, wall_metrics):
        # dim=32, requested 24 -> largest divisor of 32 at most 24 is 16
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=24))
        for name in plan.selected_layers():
            assert plan.assignments[name].group_size == 16
            assert plan.fallbacks[name] == 16

    def test_exactly_one_selection_mode(self):
        with pytest.raises(ValueError):
            PlanConfig(max_abs_threshold=1.0, top_k=2)
        with pytest.raises(ValueError):
            PlanConfig()

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="max_abs_threshold must be a number, got nan"):
            PlanConfig(max_abs_threshold=float("nan"))

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            pytest.param(dict(top_k=2.5), "plan setting 'top_k' must be int, got 2.5",
                         id="float_top_k"),
            pytest.param(dict(top_k=True), "plan setting 'top_k' must be int, got True",
                         id="bool_top_k"),
            pytest.param(dict(explicit="blocks.0.q"),
                         "plan setting 'explicit' must be a list of str, got 'blocks.0.q'",
                         id="explicit_string"),
            pytest.param(dict(explicit=("blocks.0.q", 3)),
                         "plan setting 'explicit' must be a list of str", id="explicit_int"),
            pytest.param(dict(max_abs_threshold="2"),
                         "plan setting 'max_abs_threshold' must be float, got '2'",
                         id="string_threshold"),
            pytest.param(dict(top_k=1, group_size=16.0),
                         "plan setting 'group_size' must be int, got 16.0", id="float_group_size"),
            pytest.param(dict(top_k=1, group_size=True),
                         "plan setting 'group_size' must be int, got True", id="bool_group_size"),
        ],
    )
    def test_setting_of_the_wrong_kind_rejected_naming_it(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PlanConfig(**kwargs)

    def test_explicit_list_is_kept_as_a_tuple(self):
        cfg = PlanConfig(explicit=["blocks.0.q", "blocks.1.k"])
        assert cfg.explicit == ("blocks.0.q", "blocks.1.k")
        assert cfg == PlanConfig(explicit=("blocks.0.q", "blocks.1.k"))
        assert hash(cfg) == hash(PlanConfig(explicit=("blocks.0.q", "blocks.1.k")))

    def test_empty_metrics_rejected(self):
        with pytest.raises(ValueError):
            build_plan([], PlanConfig(max_abs_threshold=1.0))

    def test_bits_come_from_the_metrics(self, wall_metrics):
        four_bit = [replace(m, bits=4) for m in wall_metrics]
        assert build_plan(four_bit, PlanConfig(max_abs_threshold=2.0)).bits == 4

    def test_mixed_bits_metrics_rejected(self, wall_metrics):
        mixed = [replace(wall_metrics[0], bits=4)] + wall_metrics[1:]
        with pytest.raises(ValueError, match="bit widths"):
            build_plan(mixed, PlanConfig(max_abs_threshold=2.0))


def _damaged_plan_text(metrics, field, value):
    """A threshold plan at group size 7 (every selected layer falls back to 4)
    with the JSON field at path ``field`` set to ``value``."""
    plan = build_plan(metrics, PlanConfig(max_abs_threshold=2.0, group_size=7))
    obj = json.loads(plan.to_json_text())
    target = obj
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    return json.dumps(obj)


class TestPlanJson:
    def test_round_trip(self, wall_metrics):
        for group_size in (8, 7):  # 7 falls back to 4 on every selected layer
            plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0,
                                                       group_size=group_size))
            again = QuantPlan.from_json_text(plan.to_json_text())
            assert again == plan
            assert again.to_json_text() == plan.to_json_text()
        assert plan.fallbacks

    def test_per_channel_assignments_share_one_scheme(self, wall_metrics):
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        parsed = QuantPlan.from_json_text(plan.to_json_text())
        per_channel = [s for s in parsed.assignments.values() if not s.is_per_group]
        assert len(per_channel) > 1
        assert all(s is per_channel[0] for s in per_channel)
        assert per_channel[0] is GroupingScheme.from_json({"mode": "per_channel"})
        assert parsed == plan and parsed.to_json_text() == plan.to_json_text()

    def test_schema_fields(self, wall_metrics):
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        obj = json.loads(plan.to_json_text())
        assert obj["version"] == 1
        assert obj["group_size"] == 8
        assert obj["bits"] == 8
        assert obj["per_group_fraction"] == pytest.approx(10 / 42)
        assert obj["assignments"]["blocks.0.q"] == {"mode": "per_group", "group_size": 8}
        assert obj["assignments"]["blocks.0.down"] == {"mode": "per_channel"}

    def test_malformed_text_rejected(self):
        with pytest.raises(ValueError, match="malformed|version"):
            QuantPlan.from_json_text("{")
        with pytest.raises(ValueError, match="version"):
            QuantPlan.from_json_text("{\"version\": 3}")

    @pytest.mark.parametrize(
        "field,value,match",
        [
            pytest.param(("bits",), 8.7, "plan 'bits' must be int, got 8.7", id="float_bits"),
            pytest.param(("group_size",), 8.5, "plan 'group_size' must be int", id="float_size"),
            pytest.param(("group_size",), True, "plan 'group_size' must be int", id="bool_size"),
            pytest.param(("assignments",), [], "plan 'assignments' must be dict", id="list"),
            pytest.param(("fallbacks",), [1], "plan 'fallbacks' must be dict", id="fallbacks"),
            pytest.param(("fallbacks", "blocks.0.q"), 4.5,
                         "plan fallback for 'blocks.0.q' must be int", id="float_fallback"),
            pytest.param(("assignments", "blocks.0.q", "group_size"), True,
                         "per-group size must be a positive integer, got True", id="bool_group"),
            pytest.param(("version",), True, "unsupported plan version True", id="bool_version"),
        ],
    )
    def test_wrongly_typed_field_rejected(self, wall_metrics, field, value, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            QuantPlan.from_json_text(_damaged_plan_text(wall_metrics, field, value))

    @pytest.mark.parametrize(
        "field,value,match",
        [
            pytest.param(("group_size",), -5, "plan 'group_size' must be positive, got -5",
                         id="negative_size"),
            pytest.param(("group_size",), 0, "plan 'group_size' must be positive", id="zero_size"),
            pytest.param(("bits",), 9, "plan 'bits': bits must be an integer in [2, 8], got 9",
                         id="bits_9"),
            pytest.param(("bits",), 1, "plan 'bits': bits must be an integer in [2, 8]",
                         id="bits_1"),
            pytest.param(("per_group_fraction",), 7, "plan 'per_group_fraction' is 7, but the "
                         "assignments give 0.23809523809523808", id="fraction"),
            pytest.param(("per_group_fraction",), None,
                         "plan 'per_group_fraction' must be float, got None", id="null_fraction"),
            pytest.param(("fallbacks", "blocks.0.q"), 2, "plan fallback for 'blocks.0.q' is 2, "
                         "but its assignment is {'mode': 'per_group', 'group_size': 4}",
                         id="fallback_size"),
            pytest.param(("fallbacks", "blocks.0.o"), 4, "plan fallback for 'blocks.0.o' is 4, "
                         "but its assignment is {'mode': 'per_channel'}", id="fallback_pc"),
            pytest.param(("fallbacks", "blocks.9.q"), 4, "plan fallback for 'blocks.9.q' is 4, "
                         "but its assignment is None", id="fallback_unknown"),
        ],
    )
    def test_out_of_range_field_rejected(self, wall_metrics, field, value, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            QuantPlan.from_json_text(_damaged_plan_text(wall_metrics, field, value))

    @pytest.mark.parametrize(
        "field,match",
        [
            pytest.param(("comment",), "plan has unknown keys ['comment']", id="plan"),
            pytest.param(("assignments_typo",), "plan has unknown keys ['assignments_typo']",
                         id="typo"),
            pytest.param(("assignments", "blocks.0.q", "note"),
                         "malformed plan JSON: grouping descriptor has unknown keys ['note']",
                         id="descriptor"),
        ],
    )
    def test_unknown_key_rejected_naming_it(self, wall_metrics, field, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            QuantPlan.from_json_text(_damaged_plan_text(wall_metrics, field, "x"))

    @pytest.mark.parametrize("text", ["[1]", "[]", "1", "\"plan\"", "null"])
    def test_non_object_json_rejected(self, text):
        with pytest.raises(ValueError, match="plan JSON must be an object"):
            QuantPlan.from_json_text(text)

    def test_fallbacks_are_derived_when_a_file_lists_none(self, wall_metrics):
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=7))
        obj = json.loads(plan.to_json_text())
        del obj["fallbacks"]
        parsed = QuantPlan.from_json_text(json.dumps(obj))
        assert parsed.fallbacks == {name: 4 for name in plan.selected_layers()}
        assert parsed == plan and parsed.to_json_text() == plan.to_json_text()


def _fallbacks_of(plan):
    """The per-group assignments whose size differs from the plan's group size."""
    return {name: s.group_size for name, s in plan.assignments.items()
            if s.is_per_group and s.group_size != plan.group_size}


LAYER_NAMES = st.builds(layer_name, st.integers(0, 99), st.sampled_from(KIND_ORDER))
SCHEMES = st.just(PC) | st.integers(1, 2**40).map(GroupingScheme.per_group)


class TestPlanConstructor:
    @pytest.mark.parametrize(
        "group_size,bits,match",
        [
            pytest.param(0, 8, "plan 'group_size' must be positive, got 0", id="zero_size"),
            pytest.param(True, 8, "plan 'group_size' must be int, got True", id="bool_size"),
            pytest.param(8, 9, "plan 'bits': bits must be an integer in [2, 8], got 9",
                         id="bits_9"),
            pytest.param(8, 8.0, "plan 'bits' must be int, got 8.0", id="float_bits"),
        ],
    )
    def test_bad_field_rejected(self, group_size, bits, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            QuantPlan({"blocks.0.q": PC}, group_size, bits)

    @settings(max_examples=200, deadline=None)
    @given(assignments=st.dictionaries(LAYER_NAMES, SCHEMES, max_size=8),
           group_size=st.integers(), bits=st.integers())
    @example(assignments={"blocks.0.q": PC}, group_size=0, bits=8)
    @example(assignments={"blocks.0.q": PC}, group_size=8, bits=9)
    @example(assignments={"blocks.0.q": GroupingScheme.per_group(4)}, group_size=8, bits=8)
    def test_every_plan_it_accepts_round_trips(self, assignments, group_size, bits):
        try:
            plan = QuantPlan(assignments, group_size, bits)
        except ValueError as exc:
            assert group_size < 1 or not 2 <= bits <= 8
            assert str(exc).startswith(("plan 'group_size'", "plan 'bits'"))
            return
        again = QuantPlan.from_json_text(plan.to_json_text())
        assert again == plan
        assert again.to_json_text() == plan.to_json_text()  # write, read, write: the same bytes
        assert again.fallbacks == plan.fallbacks == _fallbacks_of(plan)


class TestApplyPlan:
    def test_all_per_channel_plan_equals_uniform_quantization(self, wall_model, wall_metrics):
        manifest, tensors = wall_model
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=1e9))
        qmanifest, qtensors = apply_plan(manifest, tensors, plan)
        for rec in manifest.layer_records():
            qt = quantize_weight(tensors[rec.name], PC, P8)
            assert np.array_equal(qtensors[rec.name], qt.values)
            assert np.array_equal(
                qtensors[scale_record_name(rec.name)][:, 0], qt.scales
            )

    def test_selected_layers_improve_over_per_channel(self, wall_model, wall_metrics):
        manifest, tensors = wall_model
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        qmanifest, qtensors = apply_plan(manifest, tensors, plan)
        for name in plan.selected_layers():
            w64 = tensors[name].astype(np.float64)
            deq = dequantize(read_quantized_layer(qmanifest, qtensors, name))
            rmse_plan = float(np.sqrt(np.mean((w64 - deq) ** 2)))
            rmse_pc = layer_rmse(tensors[name], PC, P8)
            assert rmse_plan < rmse_pc

    def test_quantized_manifest_structure(self, wall_model, wall_metrics):
        manifest, tensors = wall_model
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        qmanifest, qtensors = apply_plan(manifest, tensors, plan)
        rec = qmanifest.record("blocks.0.q")
        assert rec.dtype == "int8"
        assert rec.scale_ref == "blocks.0.q.scales"
        assert rec.grouping == GroupingScheme.per_group(8)
        assert rec.bits == 8
        srec = qmanifest.record("blocks.0.q.scales")
        assert srec.aux and srec.dtype == "fp32"
        assert srec.shape == (32, 4)
        # non-selected layer keeps per-channel scales as a column
        assert qmanifest.record("blocks.1.q.scales").shape == (32, 1)

    def test_mismatched_plan_lists_symmetric_difference(self, wall_model, wall_metrics):
        manifest, tensors = wall_model
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0))
        del plan.assignments["blocks.0.q"]
        plan.assignments["blocks.9.q"] = PC
        with pytest.raises(ValueError) as err:
            apply_plan(manifest, tensors, plan)
        assert "blocks.0.q" in str(err.value) and "blocks.9.q" in str(err.value)

    def test_non_dividing_assignment_names_the_layer(self, wall_model, wall_metrics):
        manifest, tensors = wall_model
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        plan.assignments["blocks.2.o"] = GroupingScheme.per_group(24)
        with pytest.raises(ValueError, match=r"'blocks\.2\.o': group size 24 does not divide"):
            apply_plan(manifest, tensors, plan)

    def test_apply_is_deterministic_through_serialization(self, wall_model, wall_metrics, tmp_path):
        manifest, tensors = wall_model
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        parsed = QuantPlan.from_json_text(plan.to_json_text())
        q1 = apply_plan(manifest, tensors, plan)
        q2 = apply_plan(manifest, tensors, parsed)
        write_model(*q1, tmp_path / "a")
        write_model(*q2, tmp_path / "b")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.manifest.json").read_bytes() == (
            tmp_path / "b.manifest.json"
        ).read_bytes()

    def test_aux_records_pass_through_unchanged(self, wall_metrics):
        from quantkit import TensorRecord

        cfg = SynthConfig(blocks=6, dim=32, wall_blocks=(0, 3), wall_columns_per_layer=2, seed=9)
        manifest, tensors = generate(cfg)
        head = np.ones((3, 5), dtype=np.float32)
        manifest = ModelManifest(
            manifest.blocks,
            list(manifest.records)
            + [TensorRecord(name="lm_head", shape=(3, 5), dtype="fp32", aux=True)],
        )
        tensors = dict(tensors, lm_head=head)
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        qmanifest, qtensors = apply_plan(manifest, tensors, plan)
        assert qmanifest.record("lm_head").dtype == "fp32"
        assert np.array_equal(qtensors["lm_head"], head)

    def test_quantized_layer_rejected_before_any_layer_is_read(self, wall_model, wall_metrics):
        manifest, tensors = wall_model
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        qmanifest, _ = apply_plan(manifest, tensors, plan)
        last = manifest.records[-1].name  # only the last layer is quantized
        records = [r for r in manifest.records if r.name != last]
        records += [qmanifest.record(last), qmanifest.record(scale_record_name(last))]
        mixed = ModelManifest(manifest.blocks, records)
        with pytest.raises(ValueError, match=rf"not fp32 \(already quantized\?\): \['{last}'\]"):
            apply_plan(mixed, {}, plan)  # no tensors: a layer lookup would be a KeyError

    def test_non_fp32_layers_are_named_in_layer_index_order(self, wall_model, wall_metrics):
        manifest, tensors = wall_model
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        qmanifest, _ = apply_plan(manifest, tensors, plan)
        # Quantized layers placed in reverse layer order: the error still
        # lists the first five by layer index.
        quantized = [r.name for r in manifest.layer_records()][:7]
        records = [r for r in manifest.records if r.name not in quantized]
        for name in reversed(quantized):
            records += [qmanifest.record(name), qmanifest.record(scale_record_name(name))]
        mixed = ModelManifest(manifest.blocks, records)
        with pytest.raises(ValueError, match=re.escape(f"(already quantized?): {quantized[:5]}")):
            quantized_view(mixed, {}, plan)

    def test_quantized_model_round_trips_through_store(self, wall_model, wall_metrics, tmp_path):
        manifest, tensors = wall_model
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        qmanifest, qtensors = apply_plan(manifest, tensors, plan)
        write_model(qmanifest, qtensors, tmp_path / "q")
        manifest2, tensors2 = read_model(tmp_path / "q")
        qt = read_quantized_layer(manifest2, tensors2, "blocks.0.q")
        assert qt.grouping == GroupingScheme.per_group(8)
        err = np.abs(tensors["blocks.0.q"].astype(np.float64) - dequantize(qt))
        elem_scales = np.repeat(qt.scales.astype(np.float64), 8, axis=1)
        assert np.all(err <= elem_scales / 2 + 1e-6 * elem_scales)


class TestApplyPlanThreads:
    """apply_plan quantizes its layers on the QUANTKIT_THREADS pool and lays
    them out as a serial pass over the view would."""

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory, wall_model, wall_metrics):
        stem = tmp_path_factory.mktemp("stored") / "m"
        write_model(*wall_model, stem)
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        return stem, plan

    @pytest.mark.parametrize("source", ["dict", "open_model"])
    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_equals_a_serial_pass_over_the_view(self, stored, wall_model, source, threads,
                                                monkeypatch):
        stem, plan = stored
        manifest, tensors = wall_model if source == "dict" else open_model(stem)
        qmanifest, view = quantized_view(manifest, tensors, plan)
        expected = dict(view)
        monkeypatch.setenv("QUANTKIT_THREADS", threads)
        got_manifest, got = apply_plan(manifest, tensors, plan)
        assert got_manifest == qmanifest
        assert list(got) == list(expected) == [rec.name for rec in qmanifest.records]
        for name, arr in expected.items():
            assert got[name].dtype == arr.dtype and got[name].shape == arr.shape, name
            assert got[name].tobytes() == arr.tobytes(), name

    def test_aux_records_pass_through_in_record_order(self, wall_model, wall_metrics,
                                                      monkeypatch):
        from quantkit import TensorRecord

        manifest, tensors = wall_model
        head = np.ones((3, 5), dtype=np.float32)
        manifest = ModelManifest(
            manifest.blocks,
            [TensorRecord(name="embed", shape=(3, 5), dtype="fp32", aux=True)]
            + list(manifest.records),
        )
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        monkeypatch.setenv("QUANTKIT_THREADS", "2")
        qmanifest, qtensors = apply_plan(manifest, dict(tensors, embed=head), plan)
        assert list(qtensors) == [rec.name for rec in qmanifest.records]
        assert qtensors["embed"] is head

    def test_first_failing_layer_in_record_order_is_the_error(self, wall_model, wall_metrics,
                                                              monkeypatch):
        manifest, tensors = wall_model
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        bad = dict(tensors)
        for name in ("blocks.1.v", "blocks.4.up"):
            bad[name] = tensors[name].copy()
            bad[name][3, 5] = np.nan
        monkeypatch.setenv("QUANTKIT_THREADS", "2")
        with pytest.raises(ValueError, match=r"^layer 'blocks\.1\.v': weight contains NaN"):
            apply_plan(manifest, bad, plan)


class TestDamagedQuantizedRecords:
    """read_quantized_layer builds its tensor from disk bytes, so it keeps
    QuantizedTensor's checks: one damaged code or scale is rejected."""

    NAME = "blocks.0.up"

    @pytest.mark.parametrize("reader", [read_model, open_model])
    @pytest.mark.parametrize(
        "bits,record,value,match",
        [
            (8, "codes", np.int8(-128), "exceed qmax=127"),
            (4, "codes", np.int8(8), "exceed qmax=7"),
            (8, "scales", np.float32(0.0), "positive and finite"),
            (8, "scales", np.float32(np.inf), "positive and finite"),
        ],
        ids=["code_-128_at_8_bits", "code_8_at_4_bits", "zero_scale", "inf_scale"],
    )
    def test_damaged_record_rejected(self, tmp_path, reader, bits, record, value, match):
        manifest, tensors = generate(SynthConfig(blocks=1, dim=16, wall_blocks=(), seed=4))
        plan = QuantPlan({r.name: PC for r in manifest.layer_records()}, group_size=8, bits=bits)
        write_model(*apply_plan(manifest, tensors, plan), tmp_path / "q")
        qmanifest, qtensors = reader(tmp_path / "q")
        read_quantized_layer(qmanifest, qtensors, self.NAME)  # the intact record is accepted
        name = self.NAME if record == "codes" else scale_record_name(self.NAME)
        rec = qmanifest.record(name)
        with open(blob_path(tmp_path / "q"), "r+b") as fh:
            fh.seek(qmanifest.byte_offset(name) + rec.nbytes - value.nbytes)  # its last element
            fh.write(value.tobytes())
        qmanifest, qtensors = reader(tmp_path / "q")
        with pytest.raises(ValueError, match=match):
            read_quantized_layer(qmanifest, qtensors, self.NAME)


@pytest.fixture(scope="module")
def stored_quantized(tmp_path_factory, wall_model, wall_metrics):
    """The stem of the wall model quantized with per-group(8) wall layers."""
    stem = tmp_path_factory.mktemp("quantized") / "q"
    plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
    write_model(*apply_plan(*wall_model, plan), stem)
    return stem


@pytest.fixture
def checks(monkeypatch):
    """Counts the checked QuantizedTensor constructions, on a fresh memo."""
    calls = []
    checked = QuantizedTensor.__post_init__

    def counting(self):
        calls.append(self.values.shape)  # not the tensor, which would keep its arrays alive
        checked(self)

    monkeypatch.setattr(QuantizedTensor, "__post_init__", counting)
    monkeypatch.setattr(planner, "_checked", {})
    return calls


def same_tensor(a: QuantizedTensor, b: QuantizedTensor) -> bool:
    return (a.values.tobytes() == b.values.tobytes() and a.scales.tobytes() == b.scales.tobytes()
            and a.scales.shape == b.scales.shape and (a.grouping, a.bits, a.axis)
            == (b.grouping, b.bits, b.axis))


class TestCheckedOnce:
    """read_quantized_layer checks a resident record on its first lookup and
    trusts the very same read-only arrays after that; anything else is
    checked again."""

    PC_LAYER, PG_LAYER = "blocks.1.o", "blocks.0.q"

    @pytest.mark.parametrize("name", [PC_LAYER, PG_LAYER])
    def test_second_lookup_skips_the_scan(self, stored_quantized, checks, name):
        qmanifest, qtensors = read_model(stored_quantized)
        assert qmanifest.record(name).grouping.is_per_group == (name == self.PG_LAYER)
        first = read_quantized_layer(qmanifest, qtensors, name)
        assert len(checks) == 1
        for _ in range(3):
            again = read_quantized_layer(qmanifest, qtensors, name)
            assert again.values is first.values is qtensors[name]
            assert np.array_equal(again.scales, first.scales) and same_tensor(again, first)
        assert len(checks) == 1

    def test_replaced_entry_is_checked_again(self, stored_quantized, checks):
        qmanifest, qtensors = read_model(stored_quantized)
        name, sname = self.PC_LAYER, scale_record_name(self.PC_LAYER)
        expected = read_quantized_layer(qmanifest, qtensors, name)
        for key in (name, sname):
            qtensors[key] = qtensors[key].copy()
            qtensors[key].flags.writeable = False
            before = len(checks)
            assert same_tensor(read_quantized_layer(qmanifest, qtensors, name), expected)
            assert same_tensor(read_quantized_layer(qmanifest, qtensors, name), expected)
            assert len(checks) == before + 1, key  # the new pair is checked once
        damaged = qtensors[name].copy()
        damaged[0, 0] = -128
        damaged.flags.writeable = False
        qtensors[name] = damaged
        with pytest.raises(ValueError, match="exceed qmax=127"):
            read_quantized_layer(qmanifest, qtensors, name)

    @pytest.mark.parametrize("record", ["codes", "scales"])
    def test_writeable_array_is_checked_on_every_lookup(self, stored_quantized, checks, record):
        qmanifest, qtensors = read_model(stored_quantized)
        name = self.PG_LAYER
        key = name if record == "codes" else scale_record_name(name)
        qtensors[key] = qtensors[key].copy()
        for _ in range(3):
            read_quantized_layer(qmanifest, qtensors, name)
        assert len(checks) == 3
        assert planner._checked == {}

    def test_record_made_writeable_and_damaged_is_rejected(self, stored_quantized, checks):
        qmanifest, qtensors = read_model(stored_quantized)
        name = self.PC_LAYER
        read_quantized_layer(qmanifest, qtensors, name)
        codes = qtensors[name]
        codes.flags.writeable = True
        codes[-1, -1] = -128
        with pytest.raises(ValueError, match="exceed qmax=127"):
            read_quantized_layer(qmanifest, qtensors, name)

    def test_another_manifest_is_checked_again(self, stored_quantized, checks):
        qmanifest, qtensors = read_model(stored_quantized)
        other, _ = read_model(stored_quantized)
        read_quantized_layer(qmanifest, qtensors, self.PG_LAYER)
        read_quantized_layer(other, qtensors, self.PG_LAYER)
        assert len(checks) == 2

    def test_open_model_records_are_checked_on_every_lookup(self, stored_quantized, checks):
        qmanifest, qtensors = open_model(stored_quantized)
        kept = [read_quantized_layer(qmanifest, qtensors, self.PC_LAYER) for _ in range(3)]
        assert len(checks) == 3
        assert all(same_tensor(qt, kept[0]) for qt in kept)

    def test_memo_is_empty_once_the_mapping_is_dropped(self, stored_quantized, checks):
        qmanifest, qtensors = read_model(stored_quantized)
        kept = [read_quantized_layer(qmanifest, qtensors, rec.name)
                for rec in qmanifest.layer_records()]
        assert len(planner._checked) == len(kept)
        del qtensors, kept
        gc.collect()
        assert planner._checked == {}

    def test_thread_pool_lookups_equal_serial_lookups(self, stored_quantized):
        qmanifest, qtensors = read_model(stored_quantized)
        names = [rec.name for rec in qmanifest.layer_records()] * 3
        serial = [read_quantized_layer(*read_model(stored_quantized), name) for name in names]
        with ThreadPoolExecutor(max_workers=2) as pool:
            pooled = list(pool.map(lambda name: read_quantized_layer(qmanifest, qtensors, name),
                                   names))
        assert all(same_tensor(a, b) for a, b in zip(pooled, serial))


_BITS_MODELS: dict[int, tuple] = {}


def _quantized_at(bits: int):
    """A one-block quantized model at ``bits``, the odd layers per-group(8)."""
    if bits not in _BITS_MODELS:
        manifest, tensors = generate(SynthConfig(blocks=1, dim=16, wall_blocks=(0,), seed=11))
        plan = QuantPlan({rec.name: GroupingScheme.per_group(8) if i % 2 else PC
                          for i, rec in enumerate(manifest.layer_records())}, 8, bits)
        _BITS_MODELS[bits] = apply_plan(manifest, tensors, plan)
    return _BITS_MODELS[bits]


class TestFirstLookupRejectsDamage:
    """The memo never lets damage through: a fresh read_model's first lookup
    rejects one damaged code or scale exactly when it breaks the contract,
    and an intact layer gives the same tensor on every lookup."""

    @staticmethod
    def breaks_contract(bits: int, record: str, value) -> bool:
        if record == "codes":
            qmax = 2 ** (bits - 1) - 1
            return not -qmax <= int(value) <= qmax
        return not (0.0 < float(value) < float("inf"))

    @settings(max_examples=60, deadline=None)
    @given(
        bits=st.integers(2, 8),
        layer=st.integers(0, len(KIND_ORDER) - 1),
        record=st.sampled_from(["codes", "scales"]),
        where=st.integers(0, 2**16),
        code=st.integers(-128, 127),
        scale=st.floats(width=32),
    )
    @example(bits=8, layer=0, record="codes", where=0, code=-128, scale=1.0)
    @example(bits=3, layer=1, record="codes", where=5, code=-3, scale=1.0)
    @example(bits=3, layer=1, record="codes", where=5, code=4, scale=1.0)
    @example(bits=8, layer=2, record="scales", where=0, code=0, scale=float("nan"))
    @example(bits=8, layer=3, record="scales", where=1, code=0, scale=-0.0)
    @example(bits=8, layer=3, record="scales", where=1, code=0, scale=1e-45)
    def test_first_lookup_rejects_exactly_the_contract_breaks(self, bits, layer, record, where,
                                                              code, scale):
        qmanifest, qtensors = _quantized_at(bits)
        name = qmanifest.layer_records()[layer].name
        key = name if record == "codes" else scale_record_name(name)
        damaged = qtensors[key].copy()
        value = np.int8(code) if record == "codes" else np.float32(scale)
        damaged.reshape(-1)[where % damaged.size] = value
        with tempfile.TemporaryDirectory() as tmp:
            write_model(qmanifest, {**qtensors, key: damaged}, f"{tmp}/q")
            manifest2, tensors2 = read_model(f"{tmp}/q")
        bad = self.breaks_contract(bits, record, value)
        for _ in range(2):  # a rejected record is rejected again; an intact one is kept
            if bad:
                with pytest.raises(ValueError, match="exceed qmax|positive and finite"):
                    read_quantized_layer(manifest2, tensors2, name)
            else:
                first = read_quantized_layer(manifest2, tensors2, name)
                assert tensors2[key].tobytes() == damaged.tobytes()
        if not bad:
            second = read_quantized_layer(manifest2, tensors2, name)
            assert second.values is first.values and same_tensor(second, first)


class TestQuantizedView:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Counts quantize_weight calls made through the planner."""
        calls = []

        def counting(w, grouping, params):
            calls.append(grouping)
            return quantize_weight(w, grouping, params)

        monkeypatch.setattr(planner, "quantize_weight", counting)
        return calls

    def test_manifest_is_built_from_the_plan_alone(self, wall_model, wall_metrics):
        manifest, tensors = wall_model
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        qmanifest, _ = quantized_view(manifest, {}, plan)  # a lookup would be a KeyError
        assert qmanifest == apply_plan(manifest, tensors, plan)[0]

    def test_every_lookup_quantizes_its_layer(self, wall_model, wall_metrics, counted):
        """The view keeps no scales between lookups: a lookup of a layer or
        of its scale record quantizes that layer, in any order, so a
        record-order pass quantizes each layer twice.  (write_model takes a
        layer's scales from its row source instead; see TestParallelWrites.)"""
        manifest, tensors = wall_model
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        _, expected = apply_plan(manifest, tensors, plan)
        counted.clear()
        _, view = quantized_view(manifest, tensors, plan)
        name, sname = "blocks.0.q", scale_record_name("blocks.0.q")
        lookups = [sname, name, sname, sname, name, "blocks.1.q", sname]
        for key in lookups:
            assert np.array_equal(view[key], expected[key]), key
        assert len(counted) == len(lookups)
        counted.clear()
        assert len(view) == 2 * len(manifest.records) and len(dict(view)) == len(view)
        assert len(counted) == len(view)

    def test_lookup_errors_name_the_layer(self, wall_model, wall_metrics):
        manifest, tensors = wall_model
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        bad = dict(tensors)
        bad["blocks.2.k"] = np.full(tensors["blocks.2.k"].shape, np.nan, dtype=np.float32)
        _, view = quantized_view(manifest, bad, plan)
        for key in ("blocks.2.k", "blocks.2.k.scales"):
            with pytest.raises(ValueError, match=r"layer 'blocks\.2\.k': weight contains NaN"):
                view[key]
        with pytest.raises(KeyError):
            view["blocks.2.nope"]


class TestSweep:
    def test_rows_follow_requested_sizes(self, wall_model):
        manifest, tensors = wall_model
        rows = sweep_group_size(
            manifest, tensors, PlanConfig(max_abs_threshold=2.0), [4, 8, 16]
        )
        assert [r.group_size for r in rows] == [4, 8, 16]
        assert all(len(r.per_layer_rmse) == 10 for r in rows)

    def test_finer_groups_do_not_hurt_on_wall_layers(self, wall_model):
        manifest, tensors = wall_model
        rows = sweep_group_size(
            manifest, tensors, PlanConfig(max_abs_threshold=2.0), [4, 8, 16, 32]
        )
        aggregates = [r.aggregate_rmse for r in rows]
        assert aggregates == sorted(aggregates)

    def test_per_size_values_match_direct_computation(self, wall_model):
        manifest, tensors = wall_model
        rows = sweep_group_size(manifest, tensors, PlanConfig(max_abs_threshold=2.0), [8])
        for name, rmse in rows[0].per_layer_rmse.items():
            assert rmse == layer_rmse(tensors[name], GroupingScheme.per_group(8), P8)

    def test_full_width_size_equals_per_channel_profile(self, wall_model):
        manifest, tensors = wall_model
        rows = sweep_group_size(manifest, tensors, PlanConfig(max_abs_threshold=2.0), [32])
        for name, rmse in rows[0].per_layer_rmse.items():
            assert rmse == layer_rmse(tensors[name], PC, P8)

    def test_duplicates_deduplicated_order_preserved(self, wall_model):
        manifest, tensors = wall_model
        rows = sweep_group_size(
            manifest, tensors, PlanConfig(max_abs_threshold=2.0), [16, 4, 16, 4, 8]
        )
        assert [r.group_size for r in rows] == [16, 4, 8]

    @pytest.mark.parametrize(
        "selection",
        [
            PlanConfig(max_abs_threshold=2.0),
            PlanConfig(top_k=5),
            PlanConfig(top_k=0),
            PlanConfig(explicit=("blocks.3.v", "blocks.1.down")),
        ],
    )
    def test_selects_the_layers_build_plan_selects(self, wall_model, wall_metrics, selection):
        manifest, tensors = wall_model
        rows = sweep_group_size(manifest, tensors, selection, [8])
        plan = build_plan(wall_metrics, replace(selection, group_size=8))
        assert list(rows[0].per_layer_rmse) == plan.selected_layers()

    def test_explicit_unknown_layer_rejected(self, wall_model):
        manifest, tensors = wall_model
        with pytest.raises(ValueError, match="unknown layers"):
            sweep_group_size(manifest, tensors, PlanConfig(explicit=("blocks.99.q",)), [8])

    @pytest.mark.parametrize("selection", [PlanConfig(max_abs_threshold=2.0), PlanConfig(top_k=1)])
    def test_non_finite_unselected_layer_rejected(self, wall_model, selection):
        # blocks.5.o is never selected, yet a NaN in it still fails the sweep.
        manifest, tensors = wall_model
        broken = dict(tensors)
        broken["blocks.5.o"] = tensors["blocks.5.o"].copy()
        broken["blocks.5.o"][0, 0] = np.nan
        with pytest.raises(ValueError, match="layer 'blocks.5.o'.*NaN"):
            sweep_group_size(manifest, broken, selection, [8])

    def test_quantized_model_rejected(self, wall_model):
        manifest, tensors = wall_model
        plan = build_plan(profile_model(manifest, tensors, P8), PlanConfig(max_abs_threshold=2.0))
        qmanifest, qtensors = apply_plan(manifest, tensors, plan)
        with pytest.raises(ValueError, match="not fp32"):
            sweep_group_size(qmanifest, qtensors, PlanConfig(explicit=("blocks.0.q",)), [8])

    def test_empty_sizes_rejected(self, wall_model):
        manifest, tensors = wall_model
        with pytest.raises(ValueError):
            sweep_group_size(manifest, tensors, PlanConfig(max_abs_threshold=2.0), [])
