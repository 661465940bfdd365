"""Mixed-grouping plan construction, application, and group-size sweeps."""

from dataclasses import replace

import numpy as np
import pytest

from quantkit import (
    GroupingScheme,
    PlanConfig,
    QuantParams,
    QuantPlan,
    SynthConfig,
    apply_plan,
    build_plan,
    dequantize,
    generate,
    layer_rmse,
    profile_model,
    quantize_weight,
    read_model,
    sweep_group_size,
    write_model,
)
from quantkit.planner import read_quantized_layer, scale_record_name

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


class TestPlanJson:
    def test_round_trip(self, wall_metrics):
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        again = QuantPlan.from_json_text(plan.to_json_text())
        assert again == plan
        assert again.to_json_text() == plan.to_json_text()

    def test_schema_fields(self, wall_metrics):
        import json

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
        from quantkit import ModelManifest, TensorRecord

        cfg = SynthConfig(blocks=6, dim=32, wall_blocks=(0, 3), wall_columns_per_layer=2, seed=9)
        manifest, tensors = generate(cfg)
        head = np.ones((3, 5), dtype=np.float32)
        manifest = ModelManifest.assemble(
            manifest.blocks,
            list(manifest.records)
            + [TensorRecord(name="lm_head", shape=(3, 5), dtype="fp32", aux=True)],
        )
        tensors = dict(tensors, lm_head=head)
        plan = build_plan(wall_metrics, PlanConfig(max_abs_threshold=2.0, group_size=8))
        qmanifest, qtensors = apply_plan(manifest, tensors, plan)
        assert qmanifest.record("lm_head").dtype == "fp32"
        assert np.array_equal(qtensors["lm_head"], head)

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

    def test_empty_sizes_rejected(self, wall_model):
        manifest, tensors = wall_model
        with pytest.raises(ValueError):
            sweep_group_size(manifest, tensors, PlanConfig(max_abs_threshold=2.0), [])
