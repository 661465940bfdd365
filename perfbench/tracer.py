"""In-memory span recorder for the traced benchmark run.

The tracer wraps the quantkit functions listed in ``TRACED`` from the
outside: each wrapper is installed in every quantkit module namespace that
binds the original function, because ``analyzer`` and ``planner`` import
quantizer functions by name.  A span records its name, start, end, parent
span and the run id of the stage process; spans stay in memory until
``dump`` writes them as JSON lines when the stage ends.

Byte and MAC counters are computed from array sizes (no hardware counters
are read); they are attached to the span of the call that did the work.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import pkgutil
import threading
import time
from collections import defaultdict

TRACED = {
    "cli": ("cmd_analyze", "cmd_plan", "cmd_quantize", "cmd_sweep"),
    "model_store": ("read_model", "write_model", "atomic_write_bytes"),
    "quantizer": ("quantize_weight", "quantize_activation", "dequantize"),
    "analyzer": (
        "profile_model",
        "layer_rmse",
        "layer_max_abs",
        "detect_walls",
        "write_metrics_csv",
        "read_metrics_csv",
        "write_plot_data_json",
    ),
    "planner": ("build_plan", "apply_plan", "sweep_group_size", "read_quantized_layer"),
    "kernels": ("matmul_per_channel", "matmul_per_group"),
    "synth": ("generate",),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _bytes_read(args, kwargs, result) -> dict:
    return {"bytes_read": result[0].blob_nbytes}


def _bytes_written(args, kwargs, result) -> dict:
    data = args[1] if len(args) > 1 else kwargs["data"]
    return {"bytes_written": len(data)}


def _matmul(args, kwargs, result) -> dict:
    wq, aq = args[0], args[1]
    n, m = wq.values.shape
    moved = (
        wq.values.nbytes + wq.scales.nbytes + aq.values.nbytes + aq.scales.nbytes + result.nbytes
    )
    return {"macs": n * m * aq.values.shape[1], "bytes_moved": moved}


COUNTERS = {
    "model_store.read_model": _bytes_read,
    "model_store.atomic_write_bytes": _bytes_written,
    "kernels.matmul_per_channel": _matmul,
    "kernels.matmul_per_group": _matmul,
}


class Tracer:
    """Records spans for one stage process.

    ``active`` gates recording (the stage turns it on inside its timed
    regions only) and ``stage`` names the timed region each span is in.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.stage = None
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int | None, int]:
        stack = self._stack()
        # A span opened on a worker thread (profile_model's pool) belongs to
        # the span that is open on the main thread.
        source = stack or self._main_stack
        parent = source[-1] if source else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, parent, sid

    @contextlib.contextmanager
    def span(self, name: str):
        stack, parent, sid = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record(sid, parent, name, start, end, None)

    def _record(self, sid, parent, name, start, end, counts) -> None:
        span = {"id": sid, "parent": parent, "name": name, "start": start, "end": end,
                "run": self.run_id, "stage": self.stage}
        if counts:
            span.update(counts)
        self.spans.append(span)

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack, parent, sid = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self._record(sid, parent, name, start, end,
                         count(args, kwargs, result) if count else None)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function in every quantkit namespace."""
        package = importlib.import_module("quantkit")
        modules = [package] + [
            importlib.import_module(f"quantkit.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for mod_name, fn_names in TRACED.items():
            home = importlib.import_module(f"quantkit.{mod_name}")
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapped = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children on worker threads overlap each other, so their union (not
    their sum) is subtracted; the children's own self times then add up to
    thread-seconds, which can exceed wall time.
    """
    children = defaultdict(list)
    for span in spans:
        children[(span["run"], span["parent"])].append((span["start"], span["end"]))
    return [
        (s["end"] - s["start"]) - _covered(children[(s["run"], s["id"])], s["start"], s["end"])
        for s in spans
    ]
