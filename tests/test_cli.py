"""End-to-end CLI tests driving the synth/analyze/plan/quantize pipeline."""

import gc
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import quantkit
from quantkit import (
    GroupingScheme,
    QuantParams,
    QuantPlan,
    SynthConfig,
    WallDetectorConfig,
    apply_plan,
    dequantize,
    generate,
    open_model,
    profile_model,
    read_model,
    write_model,
)
from quantkit.analyzer import metrics_csv_text
from quantkit.cli import main
from quantkit.model_store import blob_path, manifest_path
from quantkit.planner import read_quantized_layer
from quantkit.quantizer import _row_blocks


def pair_bytes(stem):
    """The bytes of a model's manifest and blob."""
    with open(manifest_path(stem), "rb") as mf, open(blob_path(stem), "rb") as bf:
        return mf.read(), bf.read()


def run_pipeline(workdir, seed=7, blocks=8, dim=32, wall_blocks=None):
    """synth -> analyze -> plan -> quantize inside workdir; returns stems."""
    m = str(workdir / "m")
    r = str(workdir / "r.csv")
    p = str(workdir / "p.json")
    mq = str(workdir / "mq")
    walls = [] if wall_blocks is None else ["--wall-blocks", wall_blocks]
    assert main(["synth", "--blocks", str(blocks), "--dim", str(dim), "--seed", str(seed),
                 *walls, "--out", m]) == 0
    assert main(["analyze", m, "--out", r]) == 0
    assert main(["plan", r, "--max-abs-threshold", "2.0", "--group-size", "16",
                 "--out", p]) == 0
    assert main(["quantize", m, "--plan", p, "--out", mq]) == 0
    return m, r, p, mq


class TestSynthAnalyze:
    def test_analyze_row_count_is_seven_per_block(self, tmp_path):
        m = str(tmp_path / "m")
        r = str(tmp_path / "r.csv")
        assert main(["synth", "--blocks", "80", "--dim", "64", "--seed", "7", "--out", m]) == 0
        assert main(["analyze", m, "--out", r]) == 0
        lines = (tmp_path / "r.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 560

    def test_analyze_group_size_columns(self, tmp_path):
        m = str(tmp_path / "m")
        r = str(tmp_path / "r.csv")
        main(["synth", "--blocks", "1", "--dim", "16", "--seed", "1",
              "--wall-blocks", "0", "--out", m])
        assert main(["analyze", m, "--out", r, "--group-sizes", "4,8"]) == 0
        header = (tmp_path / "r.csv").read_text().split("\n")[0]
        assert header == (
            "layer_index,name,block,kind,cols,bits,max_abs,rmse_pc,rmse_g4,rmse_g8,wall_count"
        )

    def test_non_dividing_group_size_is_rejected(self, tmp_path, capsys):
        m = str(tmp_path / "m")
        main(["synth", "--blocks", "1", "--dim", "32", "--wall-blocks", "0",
              "--seed", "1", "--out", m])
        assert main(["analyze", m, "--out", str(tmp_path / "r.csv"),
                     "--group-sizes", "16,24"]) == 1
        err = capsys.readouterr().err
        assert "layer 'blocks.0.q': group size 24 does not divide dimension 32" in err
        assert not (tmp_path / "r.csv").exists()

    def test_plot_json_emitted(self, tmp_path):
        m = str(tmp_path / "m")
        main(["synth", "--blocks", "1", "--dim", "16", "--seed", "1",
              "--wall-blocks", "0", "--out", m])
        assert main(["analyze", m, "--out", str(tmp_path / "r.csv"),
                     "--plot-json", str(tmp_path / "plot.json")]) == 0
        obj = json.loads((tmp_path / "plot.json").read_text())
        assert set(obj) == {"x", "names", "rmse", "max_abs"}
        assert obj["x"] == list(range(7))

    def test_synth_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"blocks": 2, "dim": 16, "wall_blocks": [0], "seed": 3}))
        m = str(tmp_path / "m")
        assert main(["synth", "--config", str(cfg_path), "--seed", "4", "--out", m]) == 0
        manifest, _ = read_model(m)
        assert manifest.blocks == 2

    @pytest.mark.parametrize(
        "settings,message",
        [
            ({"bogus": 2}, "unknown synth settings: ['bogus']"),
            ({"blocks": "2"}, "synth setting 'blocks' must be int, got '2'"),
            ([{"blocks": 2}], "synth config file must hold a JSON object"),
        ],
    )
    def test_bad_synth_config_is_a_clean_failure(self, tmp_path, capsys, settings, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(settings))
        assert main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "m")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_malformed_synth_config_json_names_its_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{bad")
        assert main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "m")]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: malformed synth config JSON in {cfg_path}: Expecting property name "
            "enclosed in double quotes: line 1 column 2 (char 1)\n")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    SYNTH_BASE = ["--blocks", "2", "--dim", "16", "--seed", "5", "--wall-blocks", "0"]

    @pytest.mark.parametrize(
        "flags,settings",
        [
            pytest.param(["--base-std", "0.05"], {"base_std": 0.05}, id="base_std"),
            pytest.param(["--wall-magnitude", "10,20"], {"wall_magnitude": [10.0, 20.0]},
                         id="wall_magnitude"),
            pytest.param(["--per-layer-wall-columns"], {"shared_wall_columns": False},
                         id="per_layer_wall_columns"),
            pytest.param(["--kv-divisor", "2"], {"kv_dim_divisor": 2}, id="kv_divisor"),
            pytest.param(["--wall-columns", "2"], {"wall_columns_per_layer": 2},
                         id="wall_columns"),
            pytest.param(["--wall-kinds", "q,up"], {"wall_kinds": ["q", "up"]}, id="wall_kinds"),
        ],
    )
    def test_synth_flag_writes_what_its_config_setting_writes(self, tmp_path, flags, settings):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(settings))
        stems = {name: str(tmp_path / name) for name in ("flag", "config", "base")}
        assert main(["synth", *self.SYNTH_BASE, *flags, "--out", stems["flag"]]) == 0
        assert main(["synth", *self.SYNTH_BASE, "--config", str(cfg_path),
                     "--out", stems["config"]]) == 0
        assert main(["synth", *self.SYNTH_BASE, "--out", stems["base"]]) == 0
        assert pair_bytes(stems["flag"]) == pair_bytes(stems["config"])
        assert pair_bytes(stems["flag"]) != pair_bytes(stems["base"])

    @pytest.mark.parametrize(
        "flags,wall_cfg",
        [
            pytest.param(["--wall-abs-threshold", "5"], WallDetectorConfig.absolute(5.0),
                         id="abs_threshold"),
            pytest.param(["--wall-rms-mult", "3"], WallDetectorConfig(rms_multiplier=3.0),
                         id="rms_mult"),
            pytest.param(["--wall-rms-mult", "3", "--wall-row-fraction", "0.1"],
                         WallDetectorConfig(rms_multiplier=3.0, row_fraction=0.1),
                         id="row_fraction"),
            pytest.param(["--wall-abs-threshold", "0.05", "--wall-row-fraction", "0.1"],
                         WallDetectorConfig.absolute(0.05, row_fraction=0.1),
                         id="abs_row_fraction"),
        ],
    )
    def test_analyze_wall_flags_profile_with_their_config(self, tmp_path, flags, wall_cfg):
        # Each case's last flag changes the CSV that the flags before it give.
        m = str(tmp_path / "m")
        assert main(["synth", *self.SYNTH_BASE, "--out", m]) == 0
        r, without = tmp_path / "r.csv", tmp_path / "without.csv"
        assert main(["analyze", m, *flags, "--out", str(r)]) == 0
        assert main(["analyze", m, *flags[:-2], "--out", str(without)]) == 0
        manifest, tensors = read_model(m)
        expected = metrics_csv_text(profile_model(manifest, tensors, QuantParams(8), wall_cfg))
        assert r.read_text() == expected
        assert expected != without.read_text()

    def test_synth_no_walls(self, tmp_path):
        m = str(tmp_path / "m")
        assert main(["synth", "--blocks", "2", "--dim", "16", "--seed", "1",
                     "--wall-blocks", "none", "--out", m]) == 0
        _, tensors = read_model(m)
        assert max(float(np.abs(w).max()) for w in tensors.values()) < 1.0


class TestPlanQuantize:
    def test_desk_scale_plan_fraction(self, tmp_path):
        m = str(tmp_path / "m")
        r = str(tmp_path / "r.csv")
        p = str(tmp_path / "p.json")
        main(["synth", "--blocks", "80", "--dim", "64", "--seed", "7", "--out", m])
        main(["analyze", m, "--out", r])
        assert main(["plan", r, "--max-abs-threshold", "2.0", "--group-size", "16",
                     "--out", p]) == 0
        obj = json.loads((tmp_path / "p.json").read_text())
        assert round(obj["per_group_fraction"], 4) == 0.0268
        selected = [n for n, a in obj["assignments"].items() if a["mode"] == "per_group"]
        assert len(selected) == 15

    def test_quantized_model_dequantizes_within_bound(self, tmp_path):
        m, r, p, mq = run_pipeline(tmp_path)
        _, ftensors = read_model(m)
        qmanifest, qtensors = read_model(mq)
        for rec in qmanifest.layer_records():
            qt = read_quantized_layer(qmanifest, qtensors, rec.name)
            g = qt.grouping.resolved_group_size(rec.shape[1])
            elem_scales = np.repeat(
                qt.scales.reshape(rec.shape[0], -1).astype(np.float64), g, axis=1
            )
            err = np.abs(ftensors[rec.name].astype(np.float64) - dequantize(qt))
            assert np.all(err <= elem_scales / 2 + 1e-6 * elem_scales)

    def test_top_k_selection_flag(self, tmp_path):
        m = str(tmp_path / "m")
        r = str(tmp_path / "r.csv")
        p = str(tmp_path / "p.json")
        main(["synth", "--blocks", "2", "--dim", "16", "--seed", "1",
              "--wall-blocks", "0", "--out", m])
        main(["analyze", m, "--out", r])
        assert main(["plan", r, "--top-k", "3", "--group-size", "4", "--out", p]) == 0
        obj = json.loads((tmp_path / "p.json").read_text())
        assert sum(1 for a in obj["assignments"].values() if a["mode"] == "per_group") == 3

    def test_non_dividing_group_size_resolved_at_plan_time(self, tmp_path):
        # the CSV carries each layer's column count, so plan applies the
        # largest-divisor fallback and records it; quantize uses it as written
        m = str(tmp_path / "m")
        r = str(tmp_path / "r.csv")
        p = str(tmp_path / "p.json")
        mq = str(tmp_path / "mq")
        main(["synth", "--blocks", "4", "--dim", "32", "--wall-blocks", "0",
              "--seed", "5", "--out", m])
        main(["analyze", m, "--out", r])
        assert main(["plan", r, "--max-abs-threshold", "2.0", "--group-size", "24",
                     "--out", p]) == 0
        obj = json.loads((tmp_path / "p.json").read_text())
        assert obj["assignments"]["blocks.0.q"]["group_size"] == 16
        assert obj["fallbacks"]["blocks.0.q"] == 16
        assert main(["quantize", m, "--plan", p, "--out", mq]) == 0
        qmanifest, _ = read_model(mq)
        assert qmanifest.record("blocks.0.q").grouping == GroupingScheme.per_group(16)

    def test_hand_edited_non_dividing_plan_is_rejected(self, tmp_path, capsys):
        m, r, p, mq = run_pipeline(tmp_path, blocks=4)
        obj = json.loads((tmp_path / "p.json").read_text())
        obj["assignments"]["blocks.0.k"] = {"mode": "per_group", "group_size": 24}
        (tmp_path / "p.json").write_text(json.dumps(obj))
        assert main(["quantize", m, "--plan", p, "--out", str(tmp_path / "mq2")]) == 1
        err = capsys.readouterr().err
        assert "blocks.0.k" in err and "24" in err

    def test_bits_flow_from_analyze_through_quantize(self, tmp_path):
        m = str(tmp_path / "m")
        r = str(tmp_path / "r.csv")
        p = str(tmp_path / "p.json")
        mq = str(tmp_path / "mq")
        main(["synth", "--blocks", "2", "--dim", "32", "--wall-blocks", "0",
              "--seed", "5", "--out", m])
        assert main(["analyze", m, "--bits", "4", "--out", r]) == 0
        assert main(["plan", r, "--max-abs-threshold", "2.0", "--out", p]) == 0
        assert json.loads((tmp_path / "p.json").read_text())["bits"] == 4
        assert main(["quantize", m, "--plan", p, "--out", mq]) == 0
        qmanifest, qtensors = read_model(mq)
        for rec in qmanifest.layer_records():
            assert rec.bits == 4
            assert int(np.abs(qtensors[rec.name]).max()) <= 7

    def test_selection_flags_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["plan", "x.csv", "--top-k", "3", "--max-abs-threshold", "1.0",
                  "--out", "p.json"])
        assert err.value.code == 2


class TestSweep:
    def test_sweep_table_shape(self, tmp_path):
        m = str(tmp_path / "m")
        s = str(tmp_path / "s.csv")
        main(["synth", "--blocks", "4", "--dim", "32", "--wall-blocks", "0",
              "--seed", "2", "--out", m])
        assert main(["sweep", m, "--sizes", "4,8,16", "--out", s]) == 0
        lines = (tmp_path / "s.csv").read_text().strip().split("\n")
        assert lines[0].startswith("group_size,aggregate_rmse,")
        assert len(lines) == 1 + 3
        assert [row.split(",")[0] for row in lines[1:]] == ["4", "8", "16"]

    def test_non_dividing_size_is_rejected(self, tmp_path, capsys):
        m = str(tmp_path / "m")
        main(["synth", "--blocks", "1", "--dim", "32", "--wall-blocks", "0",
              "--seed", "2", "--out", m])
        capsys.readouterr()
        assert main(["sweep", m, "--sizes", "16,24"]) == 1
        captured = capsys.readouterr()
        assert "layer 'blocks.0.q': group size 24 does not divide dimension 32" in captured.err
        assert captured.out == ""

    def test_sweep_to_stdout(self, tmp_path, capsys):
        m = str(tmp_path / "m")
        main(["synth", "--blocks", "1", "--dim", "16", "--wall-blocks", "0",
              "--seed", "2", "--out", m])
        capsys.readouterr()  # drop the synth status line
        assert main(["sweep", m, "--sizes", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("group_size,aggregate_rmse,")


class TestCheckMatmul:
    def test_self_test_passes(self, capsys):
        assert main(["check-matmul", "--seed", "3", "--instances", "25"]) == 0
        out = capsys.readouterr().out
        assert "max relative deviation" in out
        deviation = float(out.split("deviation")[1].split()[0])
        assert deviation <= 1e-5

    @pytest.mark.parametrize("count", ["0", "-4"])
    def test_no_instances_is_an_error(self, capsys, count):
        assert main(["check-matmul", "--instances", count]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --instances must be at least 1, got {count}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("tolerance, shown", [("nan", "nan"), ("inf", "inf"), ("-1", "-1.0")])
    def test_tolerance_that_is_not_finite_and_non_negative_is_an_error(
        self, capsys, tolerance, shown
    ):
        assert main(["check-matmul", "--instances", "2", "--tolerance", tolerance]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --tolerance must be a finite non-negative number, got {shown}\n"
        )
        assert captured.out == ""

    def test_zero_tolerance_is_accepted(self, capsys):
        main(["check-matmul", "--instances", "2", "--tolerance", "0"])
        captured = capsys.readouterr()
        assert captured.err == "" and "(tolerance 0.0e+00)" in captured.out


class TestReport:
    def test_two_task_example(self, tmp_path, capsys):
        csv_path = tmp_path / "results.csv"
        csv_path.write_text("task,accuracy,questions\nHS,0.9,10000\nOQ,0.5,500\n")
        assert main(["report", str(csv_path), "--out", str(tmp_path / "summary.json")]) == 0
        out = capsys.readouterr().out
        assert "avg: 0.700000" in out
        assert "wt_avg: 0.880952" in out
        obj = json.loads((tmp_path / "summary.json").read_text())
        assert obj["task_count"] == 2
        assert obj["total_questions"] == 10500

    def test_repeated_task_is_a_clean_failure(self, tmp_path, capsys):
        csv_path = tmp_path / "results.csv"
        csv_path.write_text("task,accuracy,questions\nhs,0.9,100\nhs,0.9,100\narc,0.1,100\n")
        out = tmp_path / "summary.json"
        assert main(["report", str(csv_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: task 'hs' is listed more than once\n"
        assert captured.out == "" and not out.exists()

    def test_bad_cell_names_its_line(self, tmp_path, capsys):
        csv_path = tmp_path / "results.csv"
        csv_path.write_text("task,accuracy,questions\nhs,0.9,100\narc,x,100\n")
        out = tmp_path / "summary.json"
        assert main(["report", str(csv_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: malformed results row at line 3 (ValueError")
        assert captured.out == "" and not out.exists()

    def test_malformed_csv_is_a_clean_failure(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("name,acc\nx,0.5\n")
        assert main(["report", str(csv_path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [
            pytest.param("task,accuracy,questions,notes\nHS,0.9,10000,x\n",
                         "malformed results row at line 1 (the header) in {}: unknown columns "
                         "['notes']", id="notes_column"),
            pytest.param("task,accuracy,questions\nHS,0.9,10000\nOQ,0.5,500,x\n",
                         "malformed results row at line 3 (ValueError('4 cells for 3 columns')): "
                         "['OQ', '0.5', '500', 'x']", id="extra_cell"),
            pytest.param("task,accuracy,questions,task\nHS,0.9,10000,OQ\n",
                         "malformed results row at line 1 (the header) in {}: repeated columns "
                         "['task']", id="repeated_column"),
            pytest.param("task,accuracy,questions\n", "no results rows in {}", id="header_only"),
        ],
    )
    def test_rows_that_do_not_fit_the_columns_are_a_clean_failure(self, tmp_path, capsys, text,
                                                                 message):
        csv_path = tmp_path / "results.csv"
        csv_path.write_text(text)
        out = tmp_path / "summary.json"
        assert main(["report", str(csv_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.format(csv_path)}\n"
        assert captured.out == "" and not out.exists()


class TestExitCodes:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--nonsense"])
        assert err.value.code == 2

    def test_both_wall_thresholds_exit_2(self, tmp_path, capsys):
        m, r = str(tmp_path / "m"), str(tmp_path / "r.csv")
        assert main(["synth", "--blocks", "1", "--dim", "8", "--seed", "0",
                     "--wall-blocks", "0", "--out", m]) == 0
        capsys.readouterr()
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(SystemExit) as err:
            main(["analyze", m, "--out", r, "--plot-json", r + ".json",
                  "--wall-abs-threshold", "1000", "--wall-rms-mult", "0.001"])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_missing_model_exits_1(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "missing"), "--out", str(tmp_path / "r.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_analyzing_a_quantized_model_is_a_clean_failure(self, tmp_path, capsys):
        m, r, p, mq = run_pipeline(tmp_path, blocks=4)
        assert main(["analyze", mq, "--out", str(tmp_path / "r2.csv")]) == 1
        err = capsys.readouterr().err
        assert "already quantized" in err

    def test_quantizing_a_quantized_model_is_a_clean_failure(self, tmp_path, capsys):
        m, r, p, mq = run_pipeline(tmp_path, blocks=4)
        capsys.readouterr()
        assert main(["quantize", mq, "--plan", p, "--out", str(tmp_path / "mq2")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "already quantized" in err
        assert not list(tmp_path.glob("mq2*"))

    def test_layer_failing_mid_stream_leaves_the_old_pair(self, tmp_path, capsys):
        m, r, p, mq = run_pipeline(tmp_path, blocks=2, wall_blocks="0")
        old = [(tmp_path / name).read_bytes() for name in ("mq.manifest.json", "mq.bin")]
        with open(m + ".bin", "r+b") as fh:  # the last layer, blocks.1.down, ends the blob
            fh.seek(-4, os.SEEK_END)
            fh.write(np.float32(np.nan).tobytes())
        p8 = str(tmp_path / "p8.json")  # a new plan, so a new manifest would differ from the old
        assert main(["plan", r, "--max-abs-threshold", "2.0", "--group-size", "8",
                     "--out", p8]) == 0
        capsys.readouterr()
        assert main(["quantize", m, "--plan", p8, "--out", mq]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: layer 'blocks.1.down'") and "NaN" in err
        assert [(tmp_path / name).read_bytes() for name in ("mq.manifest.json", "mq.bin")] == old
        assert not list(tmp_path.glob(".tmp-*"))

    def test_first_failing_layer_in_record_order_is_the_error_on_two_threads(
            self, tmp_path, capsys, monkeypatch):
        m, r, p, mq = run_pipeline(tmp_path, blocks=2, dim=384, wall_blocks="0")
        old = [(tmp_path / name).read_bytes() for name in ("mq.manifest.json", "mq.bin")]
        manifest, _ = open_model(m)
        assert len(_row_blocks(384, 384)) == 3
        with open(m + ".bin", "r+b") as fh:  # a NaN in the middle row block of each
            for name in ("blocks.0.v", "blocks.1.k"):
                fh.seek(manifest.byte_offset(name) + (200 * 384 + 7) * 4)
                fh.write(np.float32(np.nan).tobytes())
        del manifest, _
        p8 = str(tmp_path / "p8.json")  # a new plan, so a new manifest would differ from the old
        assert main(["plan", r, "--max-abs-threshold", "2.0", "--group-size", "8",
                     "--out", p8]) == 0
        capsys.readouterr()
        monkeypatch.setenv("QUANTKIT_THREADS", "2")
        assert main(["quantize", m, "--plan", p8, "--out", mq]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: layer 'blocks.0.v': weight contains NaN"), err
        assert [(tmp_path / name).read_bytes() for name in ("mq.manifest.json", "mq.bin")] == old
        assert not list(tmp_path.glob(".tmp-*"))

    def test_nan_selection_threshold_is_an_error(self, tmp_path, capsys):
        m, r = str(tmp_path / "m"), str(tmp_path / "r.csv")
        assert main(["synth", "--blocks", "2", "--dim", "16", "--seed", "1",
                     "--wall-blocks", "0", "--out", m]) == 0
        assert main(["analyze", m, "--out", r]) == 0
        capsys.readouterr()
        for argv, out in (
            (["plan", r, "--group-size", "4"], tmp_path / "p.json"),
            (["sweep", m, "--sizes", "4"], tmp_path / "s.csv"),
        ):
            assert main([*argv, "--max-abs-threshold", "nan", "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.err == "error: max_abs_threshold must be a number, got nan\n"
            assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            pytest.param(["synth", "--wall-blocks", "x"],
                         "expected a comma-separated integer list, got 'x'", id="wall_blocks"),
            pytest.param(["synth", "--wall-magnitude", "1"], "--wall-magnitude expects 'lo,hi'",
                         id="wall_magnitude"),
            pytest.param(["sweep", "{model}", "--sizes", ","],
                         "--sizes must name at least one group size", id="sweep_sizes"),
        ],
    )
    def test_malformed_flag_value_is_a_clean_failure(self, tmp_path, capsys, argv, message):
        m = str(tmp_path / "m")
        assert main(["synth", "--blocks", "1", "--dim", "8", "--seed", "0",
                     "--wall-blocks", "0", "--out", m]) == 0
        capsys.readouterr()
        before = sorted(p.name for p in tmp_path.iterdir())
        out = str(tmp_path / "out")
        assert main([arg.format(model=m) for arg in argv] + ["--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_validation_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "p.json"
        bad.write_text("{}")
        m = str(tmp_path / "m")
        main(["synth", "--blocks", "1", "--dim", "8", "--seed", "0",
              "--wall-blocks", "none", "--out", m])
        assert main(["quantize", m, "--plan", str(bad), "--out", str(tmp_path / "q")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_plan_json_array_is_a_clean_failure(self, tmp_path, capsys):
        bad = tmp_path / "p.json"
        bad.write_text("[1]")
        m = str(tmp_path / "m")
        main(["synth", "--blocks", "1", "--dim", "8", "--seed", "0",
              "--wall-blocks", "none", "--out", m])
        capsys.readouterr()
        assert main(["quantize", m, "--plan", str(bad), "--out", str(tmp_path / "q")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: plan JSON must be an object")
        assert not list(tmp_path.glob("q*"))

    def test_console_script_entry_point(self, tmp_path):
        # exercise the subprocess path once, on the package these tests import
        src = os.path.dirname(os.path.dirname(quantkit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-m", "quantkit.cli", "check-matmul", "--instances", "3"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert "check-matmul" in result.stdout


def _truncate_blob(stem):
    with open(stem + ".bin", "r+b") as fh:
        fh.truncate(os.path.getsize(stem + ".bin") - 10)


def _extend_blob(stem):
    with open(stem + ".bin", "ab") as fh:
        fh.write(b"\x00" * 8)


def _remove_blob(stem):
    os.remove(stem + ".bin")


def _garble_manifest(stem):
    with open(stem + ".manifest.json", "w", encoding="utf-8") as fh:
        fh.write("{not json")


class TestDamagedInputs:
    @pytest.fixture
    def model_and_plan(self, tmp_path, capsys):
        m = str(tmp_path / "m")
        assert main(["synth", "--blocks", "1", "--dim", "32", "--seed", "1", "--wall-blocks", "0",
                     "--out", m]) == 0
        assert main(["analyze", m, "--out", str(tmp_path / "r.csv")]) == 0
        assert main(["plan", str(tmp_path / "r.csv"), "--group-size", "16",
                     "--out", str(tmp_path / "p.json")]) == 0
        capsys.readouterr()
        return m, str(tmp_path / "r.csv"), str(tmp_path / "p.json")

    @staticmethod
    def assert_clean_failure(argv, tmp_path, capsys, message=""):
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "damage,message",
        [
            pytest.param(_truncate_blob, "blob underrun for record 'blocks.0.down'",
                         id="truncated"),
            pytest.param(_extend_blob, "does not match", id="trailing_bytes"),
            pytest.param(_remove_blob, "No such file", id="missing_bin"),
            pytest.param(_garble_manifest, "malformed manifest JSON", id="malformed_manifest"),
        ],
    )
    @pytest.mark.parametrize("stage", ["analyze", "sweep", "quantize"])
    def test_damaged_model_is_a_clean_failure(
        self, model_and_plan, tmp_path, capsys, stage, damage, message
    ):
        m, _, p = model_and_plan
        damage(m)
        out = str(tmp_path / "out")
        argv = {
            "analyze": ["analyze", m, "--out", out, "--plot-json", out + ".json"],
            "sweep": ["sweep", m, "--sizes", "8,16", "--out", out],
            "quantize": ["quantize", m, "--plan", p, "--out", out],
        }[stage]
        self.assert_clean_failure(argv, tmp_path, capsys, message)

    @pytest.mark.parametrize(
        "edit,message",
        [
            pytest.param(lambda rows: rows[3].__setitem__(6, "nan"),
                         "line 4 ('blocks.0.v'): max_abs and rmse_pc must be finite",
                         id="nan_max_abs"),
            pytest.param(lambda rows: rows.append(rows[3]),
                         "line 9 ('blocks.0.v'): repeats the layer of line 4", id="repeated_row"),
            pytest.param(lambda rows: rows[3].__setitem__(0, "4"),
                         "line 4 ('blocks.0.v'): layer_index 4 does not match", id="wrong_index"),
            pytest.param(lambda rows: rows[3].__setitem__(4, "-8"),
                         "line 4 ('blocks.0.v'): cols must be positive", id="negative_cols"),
            pytest.param(lambda rows: rows[3].__setitem__(1, "x" * 200_000),
                         "malformed CSV in", id="field_past_csv_limit"),
            pytest.param(lambda rows: [row.__setitem__(5, "9") for row in rows[1:]],
                         "line 2 ('blocks.0.q'): bits must be an integer in [2, 8], got 9",
                         id="bits_nine"),
            pytest.param(lambda rows: rows[3].__setitem__(2, "1"),
                         "line 4 ('blocks.0.v'): block 1 does not match the name (expected 0)",
                         id="wrong_block"),
            pytest.param(lambda rows: rows[3].__setitem__(3, "q"),
                         "line 4 ('blocks.0.v'): kind 'q' does not match the name "
                         "(expected 'v')", id="wrong_kind"),
            pytest.param(lambda rows: [row.append("max_abs" if i == 0 else "0.0")
                                       for i, row in enumerate(rows)],
                         "r.csv: repeated columns ['max_abs']", id="repeated_max_abs"),
            pytest.param(lambda rows: [row.append("comment" if i == 0 else "x")
                                       for i, row in enumerate(rows)],
                         "r.csv: unknown columns ['comment']", id="comment_column"),
            pytest.param(lambda rows: rows[3].append("x"),
                         "line 4 (ValueError('10 cells for 9 columns'))", id="cell_too_many"),
        ],
    )
    def test_bad_metrics_row_is_a_clean_failure(
        self, model_and_plan, tmp_path, capsys, edit, message
    ):
        _, r, _ = model_and_plan
        os.remove(tmp_path / "p.json")
        with open(r, encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        assert rows[0][6] == "max_abs"
        edit(rows)
        with open(r, "w", encoding="utf-8") as fh:
            fh.write("\n".join(map(",".join, rows)) + "\n")
        self.assert_clean_failure(
            ["plan", r, "--out", str(tmp_path / "p.json")], tmp_path, capsys, message
        )

    @pytest.mark.parametrize(
        "stem,edit,command,message",
        [
            pytest.param("m", lambda obj: obj.update(extra=1), "analyze",
                         "manifest has unknown keys ['extra']", id="manifest"),
            pytest.param("m", lambda obj: obj["records"][3].update(scale=2.0), "analyze",
                         "tensor record 'blocks.0.o' has unknown keys ['scale']", id="record"),
            pytest.param("mq", lambda obj: obj["records"][0]["grouping"].update(size=4),
                         "analyze", "tensor record 'blocks.0.q': grouping descriptor has "
                         "unknown keys ['size']", id="record_grouping"),
            pytest.param("p.json", lambda obj: obj.update(comment="x", assignments_typo={}),
                         "quantize", "plan has unknown keys ['comment', 'assignments_typo']",
                         id="plan"),
            pytest.param("p.json", lambda obj: obj["assignments"]["blocks.0.k"].update(note=1),
                         "quantize", "grouping descriptor has unknown keys ['note']",
                         id="plan_grouping"),
        ],
    )
    def test_unknown_key_is_a_clean_failure(self, model_and_plan, tmp_path, capsys, stem, edit,
                                            command, message):
        """No key of an input file is dropped unread: an unknown one is named."""
        m, _, p = model_and_plan
        assert main(["quantize", m, "--plan", p, "--out", str(tmp_path / "mq")]) == 0
        capsys.readouterr()
        path = str(tmp_path / stem) + ("" if stem.endswith(".json") else ".manifest.json")
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        edit(obj)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        out = str(tmp_path / "out")
        argv = {
            "analyze": ["analyze", str(tmp_path / stem), "--out", out],
            "quantize": ["quantize", m, "--plan", p, "--out", out],
        }[command]
        self.assert_clean_failure(argv, tmp_path, capsys, message)


class TestQuantizeMemory:
    def test_peak_does_not_grow_with_the_model(self, tmp_path):
        """numpy reports its buffers to tracemalloc, so the traced peak of a
        quantize run covers every layer, code and scale array it holds."""
        peaks = {}
        for blocks in (2, 8):
            work = tmp_path / str(blocks)
            work.mkdir()
            m, r, p, mq = run_pipeline(work, blocks=blocks, dim=128, wall_blocks="0")
            gc.collect()  # no garbage and fresh GC counts: collections fall alike on every run
            tracemalloc.start()
            try:
                assert main(["quantize", m, "--plan", p, "--out", mq + "-again"]) == 0
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] <= 1.5 * peaks[2], peaks


class TestThreadCountIndependence:
    def test_analyze_and_sweep_bytes_equal_across_thread_counts(self, tmp_path, monkeypatch):
        m = str(tmp_path / "m")
        assert main(["synth", "--blocks", "3", "--dim", "32", "--seed", "2",
                     "--wall-blocks", "0,2", "--out", m]) == 0
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("QUANTKIT_THREADS", threads)
            csv_path = tmp_path / f"r{threads}.csv"
            plot = tmp_path / f"plot{threads}.json"
            sweep = tmp_path / f"s{threads}.csv"
            assert main(["analyze", m, "--out", str(csv_path), "--group-sizes", "8,16,32",
                         "--plot-json", str(plot)]) == 0
            assert main(["sweep", m, "--sizes", "8,16,32", "--out", str(sweep)]) == 0
            outputs.append([p.read_bytes() for p in (csv_path, plot, sweep)])
        assert outputs[0] == outputs[1]
        header = outputs[0][0].decode().split("\n")[0]
        assert header.endswith("rmse_pc,rmse_g8,rmse_g16,rmse_g32,wall_count")

    def test_synth_bytes_equal_across_thread_counts(self, tmp_path, monkeypatch):
        outputs = set()
        for threads in ("1", "2"):
            monkeypatch.setenv("QUANTKIT_THREADS", threads)
            m = str(tmp_path / f"m{threads}")
            assert main(["synth", "--blocks", "3", "--dim", "48", "--seed", "8",
                         "--wall-blocks", "0,2", "--out", m]) == 0
            outputs.add(pair_bytes(m))
        assert len(outputs) == 1

    def test_quantize_bytes_equal_across_thread_counts(self, tmp_path, monkeypatch):
        """dim 384: every layer spans three row blocks, and the wall layers
        are per-group."""
        assert len(_row_blocks(384, 384)) == 3
        m, r, p = str(tmp_path / "m"), str(tmp_path / "r.csv"), str(tmp_path / "p.json")
        assert main(["synth", "--blocks", "2", "--dim", "384", "--seed", "3",
                     "--wall-blocks", "1", "--out", m]) == 0
        assert main(["analyze", m, "--out", r]) == 0
        assert main(["plan", r, "--max-abs-threshold", "2.0", "--group-size", "128",
                     "--out", p]) == 0
        with open(p, encoding="utf-8") as fh:
            selected = QuantPlan.from_json_text(fh.read()).selected_layers()
        assert 0 < len(selected) < 14
        outputs = set()
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("QUANTKIT_THREADS", threads)
            mq = str(tmp_path / f"q{threads}")
            assert main(["quantize", m, "--plan", p, "--out", mq]) == 0
            outputs.add(pair_bytes(mq))
        assert len(outputs) == 1

    def test_dict_writes_bytes_equal_across_thread_counts(self, tmp_path, monkeypatch):
        """write_model of in-memory records, C- and Fortran-ordered, with
        layers of three row blocks."""
        manifest, tensors = generate(SynthConfig(blocks=1, dim=384, wall_blocks=(0,), seed=4))
        fortran = {name: np.asfortranarray(arr) for name, arr in tensors.items()}
        plan = QuantPlan({rec.name: GroupingScheme.per_group(128) if i % 2 else
                          GroupingScheme.per_channel()
                          for i, rec in enumerate(manifest.layer_records())}, 128, 8)
        outputs = {"fp": set(), "q": set()}
        for threads in ("1", "2"):
            monkeypatch.setenv("QUANTKIT_THREADS", threads)
            for order, arrays in (("c", tensors), ("f", fortran)):
                for kind, model in (("fp", (manifest, arrays)),
                                    ("q", apply_plan(manifest, arrays, plan))):
                    stem = str(tmp_path / f"{kind}-{order}-{threads}")
                    write_model(*model, stem)
                    outputs[kind].add(pair_bytes(stem))
        assert len(outputs["fp"]) == 1 and len(outputs["q"]) == 1


class TestDeterminism:
    def test_pipeline_artifacts_are_byte_identical_across_runs(self, tmp_path):
        d1 = tmp_path / "run1"
        d2 = tmp_path / "run2"
        d1.mkdir()
        d2.mkdir()
        run_pipeline(d1, seed=13, blocks=4, dim=32)
        run_pipeline(d2, seed=13, blocks=4, dim=32)
        for artifact in ("m.manifest.json", "m.bin", "r.csv", "p.json",
                         "mq.manifest.json", "mq.bin"):
            assert (d1 / artifact).read_bytes() == (d2 / artifact).read_bytes(), artifact
