"""Row sources: the layer passes read an open model's fp32 records in row
blocks, with the same results as the in-memory path, to the bit."""

import os
import tempfile
import threading
import tracemalloc
from unittest import mock

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
    TensorRecord,
    WallDetectorConfig,
    apply_plan,
    detect_walls,
    inject_walls,
    layer_max_abs,
    layer_name,
    layer_rmse,
    open_model,
    profile_model,
    quantize_weight,
    quantized_view,
    sweep_group_size,
    write_model,
)
from quantkit import quantizer
from quantkit.analyzer import _profile_layer
from quantkit.model_store import blob_path, row_source

P8 = QuantParams(8)
PC = GroupingScheme.per_channel()
LAYER = "blocks.0.q"
WALL_CONFIGS = [
    None,
    WallDetectorConfig(),
    WallDetectorConfig(rms_multiplier=2.0, row_fraction=0.5),
    WallDetectorConfig.absolute(5.0, row_fraction=0.25),
]


def pc_plan(manifest):
    """An 8-bit plan that keeps every layer of ``manifest`` per-channel."""
    return QuantPlan({r.name: PC for r in manifest.layer_records()}, 8, 8)


def block_budget(budget):
    """The library's block budget patched to ``budget`` (None: unchanged)."""
    return mock.patch.object(quantizer, "_BLOCK", budget or quantizer._BLOCK)


def write_layer(stem, w, fill=np.nan):
    """A one-block model whose blocks.0.q is ``w``, with an aux record before
    it (so it does not start the blob) and 1 x 1 layers after it, all
    ``fill``: a read that strays out of the layer reads NaN by default."""
    records = [TensorRecord("pad", (1, 3), "fp32", aux=True)]
    tensors = {"pad": np.full((1, 3), fill, np.float32)}
    for kind in KIND_ORDER:
        name = layer_name(0, kind)
        arr = w if name == LAYER else np.full((1, 1), fill, np.float32)
        records.append(TensorRecord(name, arr.shape, "fp32"))
        tensors[name] = arr
    manifest = ModelManifest(1, records)
    write_model(manifest, tensors, stem)
    return manifest


def draw_layer(n, m, seed, walls=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(0, 0.5, (n, m)).astype(np.float32)
    columns = rng.choice(m, size=min(walls, m), replace=False)
    return inject_walls(w, columns, (20.0, 100.0), seed=seed) if len(columns) else w


def run_passes(w, schemes, params, wall_cfg):
    """Every layer pass over ``w`` (a matrix or a row source), as bytes and reprs."""
    out = [repr(_profile_layer(w, schemes, params, wall_cfg)), repr(layer_max_abs(w))]
    out += [repr(layer_rmse(w, scheme, params)) for scheme in schemes]
    if wall_cfg is not None:
        out.append(detect_walls(w, wall_cfg))
    for scheme in schemes:
        qt = quantize_weight(w, scheme, params)
        out += [qt.values.dtype, qt.values.tobytes(), qt.scales.dtype, qt.scales.shape,
                qt.scales.tobytes()]
    return out


class PoisonedRows:
    """A row source that fills the block it served last with NaN before it
    serves the next one, so a pass that used a block after its next read
    would see NaN (and raise, or change a result)."""

    def __init__(self, w):
        self.shape, self.dtype, self._w = w.shape, w.dtype, w
        self._last = None
        self.reads = 0

    def read_rows(self, start, stop):
        if self._last is not None:
            self._last[...] = np.nan
        self._last = self._w[start:stop].copy()
        self.reads += 1
        return self._last


class TestRowSourceEqualsInMemory:
    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 40),
        m=st.sampled_from([1, 6, 24, 130, 240, 1040]),
        bits=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        walls=st.integers(0, 3),
        wall_cfg=st.sampled_from(WALL_CONFIGS),
        budget=st.sampled_from([None, 128, 256, 1000]),
        data=st.data(),
    )
    def test_open_model_rows_equal_the_array(self, n, m, bits, seed, walls, wall_cfg, budget,
                                             data):
        # Budgets of 128-1000 elements give many blocks, a ragged last block
        # whenever the block's rows do not divide n, leaves that split rows,
        # and (m = 130, 240, 1040) rows wider than a block.
        w = draw_layer(n, m, seed, walls)
        g = data.draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
        schemes = [PC, GroupingScheme.per_group(g)]
        params = QuantParams(bits)
        with tempfile.TemporaryDirectory() as tmp:
            write_layer(os.path.join(tmp, "m"), w)
            _, opened = open_model(os.path.join(tmp, "m"))
            with block_budget(budget):
                assert run_passes(row_source(opened, LAYER), schemes, params, wall_cfg) == \
                    run_passes(w, schemes, params, wall_cfg)

    @pytest.mark.parametrize("step", [2, 20])
    @pytest.mark.parametrize("n", [64, 67])  # 67: the last block is ragged
    def test_blocks_read_are_whole_rows_of_the_record(self, tmp_path, step, n):
        w = draw_layer(n, 48, seed=n)
        write_layer(tmp_path / "m", w)
        _, opened = open_model(tmp_path / "m")
        src = row_source(opened, LAYER)
        for start in range(0, n, step):
            stop = min(start + step, n)
            block = src.read_rows(start, stop)
            assert block.dtype == np.float32 and block.shape == (stop - start, 48)
            assert block.tobytes() == w[start:stop].tobytes()
            assert block.ctypes.data % 64 == 0
        for start, stop in [(-1, 2), (3, 3), (5, 4), (0, n + 1)]:
            with pytest.raises(IndexError, match="out of the"):
                src.read_rows(start, stop)


class TestNoPassHoldsAStaleBlock:
    @pytest.mark.parametrize("budget", [128, 256, 1000])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(40, 130), (37, 24)])
    def test_poisoned_source_gives_the_in_memory_results(self, budget, dtype, shape):
        w = draw_layer(*shape, seed=budget, walls=2).astype(dtype)
        m = shape[1]
        schemes = [PC, GroupingScheme.per_group(m // 2), GroupingScheme.per_group(2)]
        for wall_cfg in WALL_CONFIGS:
            poisoned = PoisonedRows(w)
            with block_budget(budget):
                got = run_passes(poisoned, schemes, P8, wall_cfg)
                assert got == run_passes(w, schemes, P8, wall_cfg)
            assert poisoned.reads > 2 * len(schemes)


class TestReadErrorsThroughRows:
    @pytest.mark.parametrize("budget", [None, 128, 1000])
    def test_nan_in_the_last_block_names_the_layer(self, tmp_path, budget, monkeypatch):
        monkeypatch.setenv("QUANTKIT_THREADS", "2")
        w = draw_layer(40, 130, seed=3)
        w[-1, -1] = np.nan
        write_layer(tmp_path / "m", w, fill=1.0)
        manifest, opened = open_model(tmp_path / "m")
        match = rf"layer '{LAYER}': weight contains NaN or Inf"
        plan = pc_plan(manifest)
        with block_budget(budget):
            with pytest.raises(ValueError, match=match):
                profile_model(manifest, opened, P8)
            with pytest.raises(ValueError, match=match):
                sweep_group_size(manifest, opened, PlanConfig(max_abs_threshold=2.0), [10])
            with pytest.raises(ValueError, match=match):
                write_model(*quantized_view(manifest, opened, plan), tmp_path / "q")
        assert not os.path.exists(blob_path(tmp_path / "q"))

    @pytest.mark.parametrize("run", [
        lambda manifest, opened, out: profile_model(manifest, opened, P8),
        lambda manifest, opened, out: apply_plan(manifest, opened, pc_plan(manifest)),
        lambda manifest, opened, out: write_model(
            *quantized_view(manifest, opened, pc_plan(manifest)), out),
    ], ids=["profile", "apply", "write"])
    def test_blob_shrunk_after_open_is_a_short_read(self, tmp_path, run):
        manifest = write_layer(tmp_path / "m", draw_layer(40, 130, seed=4))
        manifest, opened = open_model(tmp_path / "m")
        src = row_source(opened, LAYER)
        os.truncate(blob_path(tmp_path / "m"), manifest.byte_offset(LAYER) + 130 * 4 * 30 + 8)
        assert src.read_rows(0, 30).shape == (30, 130)
        with pytest.raises(ValueError, match=rf"short read for record '{LAYER}'"):
            src.read_rows(25, 35)
        with pytest.raises(ValueError, match=rf"layer '{LAYER}': short read for record '{LAYER}'"):
            run(manifest, opened, tmp_path / "q")

    def test_row_source_keeps_the_blob_open(self, tmp_path):
        w = draw_layer(8, 16, seed=5)
        write_layer(tmp_path / "m", w)
        _, opened = open_model(tmp_path / "m")
        src = row_source(opened, LAYER)
        del opened
        assert src.read_rows(0, 8).tobytes() == w.tobytes()


def traced_peak(fn) -> int:
    """tracemalloc's peak over ``fn()``, run on a new thread, so that the
    thread's block scratch starts empty and is counted."""
    peak = []

    def run():
        tracemalloc.start()
        try:
            fn()
            peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=300)
    assert not worker.is_alive() and peak
    return peak[0]


class TestRowSourceMemory:
    """Through open_model, a pass's peak memory is its block scratch (plus,
    for quantize_weight, its int8 output), not the fp32 layer."""

    M = 1024

    @pytest.fixture(scope="class")
    def sources(self, tmp_path_factory):
        opened = {}
        for n in (2048, 4096):
            stem = tmp_path_factory.mktemp(f"rows{n}") / "m"
            write_layer(stem, draw_layer(n, self.M, seed=n, walls=2))
            opened[n] = open_model(stem)[1]
        return opened

    def test_profile_peak_does_not_grow_with_the_layer(self, sources):
        schemes = [PC, GroupingScheme.per_group(128)]
        peaks = {n: traced_peak(lambda: _profile_layer(row_source(opened, LAYER), schemes, P8,
                                                       WallDetectorConfig()))
                 for n, opened in sources.items()}
        assert peaks[4096] <= peaks[2048] + 64 * 1024, peaks
        assert peaks[2048] < 2048 * self.M * 4 // 3, peaks  # a third of the smaller layer

    @pytest.mark.parametrize("grouping", [PC, GroupingScheme.per_group(128)])
    def test_quantize_peak_grows_only_with_the_int8_output(self, sources, grouping):
        peaks = {n: traced_peak(lambda: quantize_weight(row_source(opened, LAYER), grouping, P8))
                 for n, opened in sources.items()}
        output_growth = (4096 - 2048) * self.M
        assert peaks[4096] - peaks[2048] <= 1.25 * output_growth, peaks
        assert peaks[2048] < 2048 * self.M + 2048 * self.M * 4 // 3, peaks

    @staticmethod
    def streamed_quantize_peak(stem, w, grouping) -> int:
        """The traced peak of write_model(*quantized_view(...)) of a model
        whose blocks.0.q is ``w``, quantized under ``grouping``."""
        write_layer(stem, w, fill=1.0)
        manifest, opened = open_model(stem)
        plan = QuantPlan({rec.name: grouping if rec.name == LAYER else PC
                          for rec in manifest.layer_records()}, 128, 8)
        return traced_peak(
            lambda: write_model(*quantized_view(manifest, opened, plan), f"{stem}-q"))

    def test_streamed_quantize_peaks_below_the_int8_layer(self, tmp_path):
        """write_model takes a quantized view's codes one row block at a
        time, so it never holds the int8 layer."""
        w = draw_layer(self.M, self.M, seed=6, walls=2)
        peak = self.streamed_quantize_peak(tmp_path / "m", w, PC)
        assert peak < self.M * self.M, peak

    @pytest.mark.parametrize("grouping", [PC, GroupingScheme.per_group(128)])
    def test_streamed_quantize_peak_does_not_grow_with_the_layer(self, tmp_path, grouping):
        """Doubling the rows adds the rows' scales to the peak (under an
        eighth of the int8 bytes added, at g = 128), not their codes."""
        peaks = {n: self.streamed_quantize_peak(tmp_path / str(n),
                                                draw_layer(n, self.M, seed=n, walls=2), grouping)
                 for n in (2048, 4096)}
        assert peaks[4096] - peaks[2048] <= (4096 - 2048) * self.M // 8, peaks


def traced_left(call):
    """The traced bytes that ``call()``, run on a new thread whose block
    scratch starts empty, leaves held once it has returned, apart from
    the arrays it returns, and the sizes of that thread's scratch buffers."""
    left = []

    def run():
        tracemalloc.start()
        try:
            out = call()
            arrays = [out.values, out.scales] if hasattr(out, "values") else []
            left.append((tracemalloc.get_traced_memory()[0] - sum(x.nbytes for x in arrays),
                         {kind: len(buf) for kind, buf in
                          quantizer._thread_scratch.buffers.items()}))
        finally:
            tracemalloc.stop()

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=300)
    assert not worker.is_alive() and left
    return left[0]


class TestWideRowScratch:
    """A row wider than _BLOCK is a block of its own, so a layer pass's
    scratch grows to a whole row: 2 MiB of float64 for each of |w| and the
    work buffer at 262144 columns.  The pass drops what outgrew a block
    before it returns, so it leaves at most one _BLOCK block per kind."""

    N, M = 4, 262144

    @pytest.fixture(scope="class")
    def layer(self, tmp_path_factory):
        w = draw_layer(self.N, self.M, seed=62, walls=2)
        stem = tmp_path_factory.mktemp("wide_rows") / "m"
        write_layer(stem, w, fill=1.0)
        return w, stem

    PASSES = {
        "quantize_weight": lambda src: quantize_weight(src, PC, P8),
        "quantize_weight_g128": lambda src: quantize_weight(src, GroupingScheme.per_group(128), P8),
        "layer_rmse": lambda src: layer_rmse(src, PC, P8),
        "layer_max_abs": lambda src: layer_max_abs(src),
        "detect_walls": lambda src: detect_walls(src, WallDetectorConfig()),
        "profile": lambda src: _profile_layer(src, [PC, GroupingScheme.per_group(64)], P8,
                                              WallDetectorConfig()),
    }

    # Bytes per element of each scratch kind's widest dtype: float64 |w| and
    # work, bool sign and wall masks, an open model's float32 rows, and the
    # codes (int8 in a quantized view, float32 in the kernels).
    ITEMSIZE = {"work": 8, "w64": 8, "sign": 1, "mask": 1, "rows": 4, "codes": 4}

    def assert_one_block_per_kind(self, left, buffers):
        budget = {kind: size * quantizer._BLOCK for kind, size in self.ITEMSIZE.items()}
        assert all(nbytes <= budget[kind] for kind, nbytes in buffers.items()), buffers
        assert left <= sum(budget[kind] for kind in buffers) + 64 * 1024, (left, buffers)

    @pytest.mark.parametrize("source", ["array", "open_model"])
    @pytest.mark.parametrize("name", sorted(PASSES))
    def test_pass_leaves_at_most_a_block_per_kind(self, layer, source, name):
        w, stem = layer
        if source == "array":
            run = lambda: self.PASSES[name](w)  # noqa: E731
        else:
            _, opened = open_model(stem)
            run = lambda: self.PASSES[name](row_source(opened, LAYER))  # noqa: E731
        left, buffers = traced_left(run)
        self.assert_one_block_per_kind(left, buffers)

    def test_streamed_quantize_leaves_at_most_a_block_per_kind(self, layer, tmp_path):
        _, stem = layer
        manifest, opened = open_model(stem)
        plan = QuantPlan({rec.name: PC for rec in manifest.layer_records()}, 128, 8)
        left, buffers = traced_left(
            lambda: write_model(*quantized_view(manifest, opened, plan), tmp_path / "q"))
        self.assert_one_block_per_kind(left, buffers)


def traced_left_by_error(call):
    """traced_left of a ``call()`` that must raise ValueError."""
    raised = []

    def expect_error():
        try:
            call()
        except ValueError:
            raised.append(True)

    left = traced_left(expect_error)
    assert raised
    return left


class TestFailedCallLeavesNoScratch:
    """A pass that raises drops what outgrew a block too: a layer shaped
    like TestWideRowScratch's with a NaN in its last row fails in its last
    block, after every buffer has grown to a whole row."""

    N, M = TestWideRowScratch.N, TestWideRowScratch.M
    PASSES = TestWideRowScratch.PASSES
    ITEMSIZE = TestWideRowScratch.ITEMSIZE
    assert_one_block_per_kind = TestWideRowScratch.assert_one_block_per_kind

    @pytest.fixture(scope="class")
    def layer(self, tmp_path_factory):
        w = draw_layer(self.N, self.M, seed=63, walls=2)
        w[-1, -1] = np.nan
        stem = tmp_path_factory.mktemp("wide_nan_rows") / "m"
        write_layer(stem, w, fill=1.0)
        return w, stem

    @pytest.mark.parametrize("source", ["array", "open_model"])
    @pytest.mark.parametrize("name", sorted(PASSES))
    def test_failed_pass_leaves_at_most_a_block_per_kind(self, layer, source, name):
        w, stem = layer
        if source == "array":
            run = lambda: self.PASSES[name](w)  # noqa: E731
        else:
            _, opened = open_model(stem)
            run = lambda: self.PASSES[name](row_source(opened, LAYER))  # noqa: E731
        self.assert_one_block_per_kind(*traced_left_by_error(run))

    def test_failed_streamed_quantize_leaves_at_most_a_block_per_kind(self, layer, tmp_path):
        # QUANTKIT_THREADS is unset, so the write runs on the measured thread.
        _, stem = layer
        manifest, opened = open_model(stem)
        plan = QuantPlan({rec.name: PC for rec in manifest.layer_records()}, 128, 8)
        self.assert_one_block_per_kind(*traced_left_by_error(
            lambda: write_model(*quantized_view(manifest, opened, plan), tmp_path / "q")))
