"""End-to-end CLI tests driving the synth/analyze/plan/quantize pipeline."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import quantkit
from quantkit import GroupingScheme, dequantize, read_model
from quantkit.cli import main
from quantkit.planner import read_quantized_layer


def run_pipeline(workdir, seed=7, blocks=8, dim=32):
    """synth -> analyze -> plan -> quantize inside workdir; returns stems."""
    m = str(workdir / "m")
    r = str(workdir / "r.csv")
    p = str(workdir / "p.json")
    mq = str(workdir / "mq")
    assert main(["synth", "--blocks", str(blocks), "--dim", str(dim),
                 "--seed", str(seed), "--out", m]) == 0
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

    def test_malformed_csv_is_a_clean_failure(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("name,acc\nx,0.5\n")
        assert main(["report", str(csv_path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--nonsense"])
        assert err.value.code == 2

    def test_missing_model_exits_1(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "missing"), "--out", str(tmp_path / "r.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_analyzing_a_quantized_model_is_a_clean_failure(self, tmp_path, capsys):
        m, r, p, mq = run_pipeline(tmp_path, blocks=4)
        assert main(["analyze", mq, "--out", str(tmp_path / "r2.csv")]) == 1
        err = capsys.readouterr().err
        assert "already quantized" in err

    def test_validation_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "p.json"
        bad.write_text("{}")
        m = str(tmp_path / "m")
        main(["synth", "--blocks", "1", "--dim", "8", "--seed", "0",
              "--wall-blocks", "none", "--out", m])
        assert main(["quantize", m, "--plan", str(bad), "--out", str(tmp_path / "q")]) == 1
        assert "error:" in capsys.readouterr().err

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
