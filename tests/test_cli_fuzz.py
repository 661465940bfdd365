"""Drawn damage to every CLI input.

Hypothesis replaces one field of a valid manifest, plan or ``synth --config``
file with a drawn JSON value, or damages a valid metrics or results CSV (one
cell replaced with drawn text, a column dropped, repeated or appended, or a
cell added to or removed from one row), and runs the subcommands that read it
through in-process ``main``.  Each run must exit 0, or exit 1 with ``error:``
on the first line, no traceback and no output file; an uncaught exception
fails the test.
"""

import contextlib
import csv
import io
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantkit.cli import main

FUZZ = settings(max_examples=25, deadline=None)

LONG_FIELD = "x" * 200_000  # past the csv module's 131072-character field limit


def json_values(ints=st.integers()):
    scalars = st.none() | st.booleans() | ints | st.floats() | st.text(max_size=8)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                    max_size=3),
        max_leaves=4,
    )


cell_texts = (
    st.text(max_size=12)
    | st.integers().map(str)
    | st.floats().map(repr)
    | st.sampled_from(["", "0", "-8", "1e400", "nan", "blocks.0.q", "blocks.9.q"])
)


def _run(argv, outputs):
    """Run ``main(argv)`` and check that it succeeds or fails cleanly."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc == 0:
        return
    text = err.getvalue()
    assert rc == 1, (argv, rc, text)
    assert text.startswith("error:") and "Traceback" not in text, (argv, text)
    left = [path for path in outputs if os.path.exists(path)]
    assert left == [], (argv, text)


def _replace(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


def _rewrite_json(path, field, value):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    _replace(obj, field, value)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


# Damage to a CSV's rows at row ``row`` and column ``col``, with drawn text.
CSV_DAMAGE = {
    "cell": lambda rows, row, col, text: rows[row].__setitem__(col, text),
    "drop_column": lambda rows, row, col, text: [r.pop(col) for r in rows],
    "repeat_column": lambda rows, row, col, text: [r.insert(col, r[col]) for r in rows],
    "append_column": lambda rows, row, col, text: [r.append(text) for r in rows],
    "add_cell": lambda rows, row, col, text: rows[row].insert(col, text),
    "remove_cell": lambda rows, row, col, text: rows[row].pop(col),
}


def _damage_csv(path, damage, row, col, text):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    CSV_DAMAGE[damage](rows, row, col, text)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 1-block, 8-dim model with walls in blocks.0.q, its metrics with
    group sizes 2 and 4, a plan with one per-group layer and one fallback, the
    quantized model, a synth config and a results CSV."""
    d = tmp_path_factory.mktemp("inputs")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--blocks", "1", "--dim", "8", "--seed", "0", "--wall-blocks", "0",
                     "--wall-kinds", "q", "--wall-columns", "1", "--out", str(d / "m")]) == 0
        assert main(["analyze", str(d / "m"), "--group-sizes", "2,4",
                     "--out", str(d / "r.csv")]) == 0
        assert main(["plan", str(d / "r.csv"), "--layers", "blocks.0.q", "--group-size", "3",
                     "--out", str(d / "p.json")]) == 0
        assert main(["quantize", str(d / "m"), "--plan", str(d / "p.json"),
                     "--out", str(d / "mq")]) == 0
    (d / "cfg.json").write_text(json.dumps({
        "blocks": 1, "dim": 8, "base_std": 0.02, "wall_blocks": [0], "wall_kinds": ["q", "k"],
        "wall_columns_per_layer": 1, "wall_magnitude": [50.0, 100.0],
        "shared_wall_columns": True, "kv_dim_divisor": 2, "seed": 0,
    }))
    (d / "res.csv").write_text("task,accuracy,questions\nHS,0.9,10000\nOQ,0.5,500\n")
    return d


@contextlib.contextmanager
def _copy_of(inputs):
    with tempfile.TemporaryDirectory() as work:
        for name in os.listdir(inputs):
            shutil.copy(inputs / name, work)
        yield work


def _record_fields(stem, index):
    keys = ("name", "shape", "dtype", "byte_offset", "aux", "scale_ref", "grouping", "bits")
    return [(stem, ("records", index, key)) for key in keys]


MANIFEST_FIELDS = (
    [(stem, (key,)) for stem in ("m", "mq") for key in ("version", "blocks", "records")]
    + _record_fields("m", 0) + _record_fields("m", 6)
    + [("m", ("records", 0, "shape", 0)), ("m", ("records", 0))]
    + _record_fields("mq", 0) + _record_fields("mq", 1)
    + [("mq", ("records", 0, "grouping", key)) for key in ("mode", "group_size")]
)

PLAN_FIELDS = [
    ("version",), ("group_size",), ("bits",), ("assignments",), ("per_group_fraction",),
    ("fallbacks",), ("fallbacks", "blocks.0.q"), ("assignments", "blocks.0.q"),
    ("assignments", "blocks.0.q", "mode"), ("assignments", "blocks.0.q", "group_size"),
    ("assignments", "blocks.0.o"), ("assignments", "blocks.0.o", "group_size"),
]

SYNTH_FIELDS = [
    ("blocks",), ("dim",), ("base_std",), ("wall_blocks",), ("wall_blocks", 0), ("wall_kinds",),
    ("wall_columns_per_layer",), ("wall_magnitude",), ("wall_magnitude", 1),
    ("shared_wall_columns",), ("kv_dim_divisor",), ("seed",),
]


@FUZZ
@given(field=st.sampled_from(MANIFEST_FIELDS), value=json_values())
@example(field=("m", ("records",)), value=None)
@example(field=("m", ("records",)), value=5)
@example(field=("m", ("records", 0, "dtype")), value=["fp32"])
@example(field=("m", ("records", 0, "shape")), value=[8.9, 8])
@example(field=("m", ("blocks",)), value=1.7)
@example(field=("m", ("records", 6, "aux")), value="no")
@example(field=("m", ("records", 0, "name")), value=["blocks.0.q"])
@example(field=("mq", ("records", 0, "scale_ref")), value=[])
@example(field=("m", ("blocks",)), value=2**62)
def test_damaged_manifest(inputs, field, value):
    stem, path = field
    with _copy_of(inputs) as work:
        model = os.path.join(work, stem)
        _rewrite_json(model + ".manifest.json", path, value)
        out = os.path.join(work, "out")
        _run(["analyze", model, "--out", out + ".csv", "--plot-json", out + ".json"],
             [out + ".csv", out + ".json"])
        _run(["sweep", model, "--sizes", "2,4", "--out", out + ".csv"], [out + ".csv"])
        _run(["quantize", model, "--plan", os.path.join(work, "p.json"), "--out", out],
             [out + ".manifest.json", out + ".bin"])


@FUZZ
@given(path=st.sampled_from(PLAN_FIELDS), value=json_values())
@example(path=("bits",), value=8.7)
@example(path=("assignments", "blocks.0.q", "group_size"), value=True)
@example(path=("group_size",), value=2.5)
@example(path=("fallbacks", "blocks.0.q"), value=2.5)
@example(path=("group_size",), value=-5)
@example(path=("per_group_fraction",), value=7)
def test_damaged_plan(inputs, path, value):
    with _copy_of(inputs) as work:
        plan = os.path.join(work, "p.json")
        _rewrite_json(plan, path, value)
        out = os.path.join(work, "out")
        _run(["quantize", os.path.join(work, "m"), "--plan", plan, "--out", out],
             [out + ".manifest.json", out + ".bin"])


# Small integers only: a large but valid size is honoured by generating that
# large a model.
@FUZZ
@given(path=st.sampled_from(SYNTH_FIELDS), value=json_values(st.integers(-4, 40)))
@example(path=("base_std",), value=1e300)
@example(path=("wall_magnitude", 1), value=1e300)
@example(path=("wall_magnitude", 1), value=float("inf"))
@example(path=("base_std",), value=float("nan"))
def test_damaged_synth_config(inputs, path, value):
    with _copy_of(inputs) as work:
        config = os.path.join(work, "cfg.json")
        _rewrite_json(config, path, value)
        out = os.path.join(work, "out")
        _run(["synth", "--config", config, "--out", out], [out + ".manifest.json", out + ".bin"])


csv_damage = st.sampled_from(sorted(CSV_DAMAGE))


# Columns: layer_index,name,block,kind,cols,bits,max_abs,rmse_pc,rmse_g2,rmse_g4,wall_count
@FUZZ
@given(damage=csv_damage, row=st.integers(0, 7), col=st.integers(0, 10), text=cell_texts)
@example(damage="cell", row=1, col=4, text="-8")
@example(damage="cell", row=1, col=4, text="0")
@example(damage="cell", row=1, col=10, text="-1")
@example(damage="cell", row=1, col=9, text="inf")
@example(damage="cell", row=0, col=8, text="rmse_g02")
@example(damage="cell", row=1, col=1, text=LONG_FIELD)
@example(damage="repeat_column", row=0, col=6, text="0.0")
@example(damage="append_column", row=0, col=0, text="comment")
@example(damage="add_cell", row=3, col=10, text="0")
@example(damage="remove_cell", row=3, col=10, text="")
def test_damaged_metrics_csv(inputs, damage, row, col, text):
    with _copy_of(inputs) as work:
        metrics = os.path.join(work, "r.csv")
        _damage_csv(metrics, damage, row, col, text)
        out = os.path.join(work, "out.json")
        _run(["plan", metrics, "--group-size", "4", "--out", out], [out])


@FUZZ
@given(damage=csv_damage, row=st.integers(0, 2), col=st.integers(0, 2), text=cell_texts)
@example(damage="cell", row=1, col=0, text=LONG_FIELD)
@example(damage="cell", row=1, col=2, text="1" + "0" * 400)
@example(damage="append_column", row=0, col=0, text="notes")
@example(damage="add_cell", row=2, col=2, text="x")
@example(damage="drop_column", row=0, col=1, text="")
def test_damaged_results_csv(inputs, damage, row, col, text):
    with _copy_of(inputs) as work:
        results = os.path.join(work, "res.csv")
        _damage_csv(results, damage, row, col, text)
        out = os.path.join(work, "out.json")
        _run(["report", results, "--out", out], [out])
