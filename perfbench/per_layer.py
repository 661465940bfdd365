"""Per-module metrics of a traced run, aggregated from its spans.

A traced run holds traced set-ups ("setup<r>") and traced cycles
("cycle<i>"); each stage process tags its spans with the run id
"<group>:<process>" and with the timed region ("stage") they ran in.
A function's ``calls`` and ``self_s`` are summed within each group, and
the metric is the median over set-ups plus the median over cycles: the
cost of one set-up plus one pipeline cycle.  ``self_s`` of work done on
profile_model's worker threads adds up thread-seconds.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import TRACED_NAMES, self_times

FORWARD_STAGES = ("forward", "forward_pc", "forward_pg")
KERNELS = ("kernels.matmul_per_channel", "kernels.matmul_per_group")

PER_LAYER = (
    [(f"{name}.calls", "count", "lower") for name in TRACED_NAMES]
    + [(f"{name}.self_s", "s", "lower") for name in TRACED_NAMES]
    + [
        ("model_store.bytes_read", "B", "lower"),
        ("model_store.bytes_written", "B", "lower"),
        ("model_store.read_mb_per_s", "MB/s", "higher"),
    ]
    + [
        (f"kernels.{stat}.{stage}", unit, better)
        for stage in FORWARD_STAGES
        for stat, unit, better in (
            ("macs", "count", "lower"),
            ("bytes_moved", "B", "lower"),
            ("ops_per_byte", "op/B", "higher"),
            ("gmacs_per_s", "GMAC/s", "higher"),
        )
    ]
    + [
        ("kernels.per_group_tax", "ratio", "lower"),
        ("kernels.per_group_tax.forward_s", "s", "lower"),
        ("kernels.per_group_tax.forward_pc_s", "s", "lower"),
        ("kernels.per_group_tax.selected_fraction", "ratio", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


def per_layer_metrics(spans, *, forward_s, forward_pc_s, selected_fraction, overhead_s,
                      overhead_ratio) -> dict:
    groups = defaultdict(lambda: defaultdict(float))
    totals = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        group = span["run"].split(":", 1)[0]
        stage = span["stage"]
        name = span["name"]
        if name not in TRACED_NAMES:
            continue
        acc = groups[group]
        acc[f"{name}.calls"] += 1
        acc[f"{name}.self_s"] += self_s
        duration = span["end"] - span["start"]
        for counter in ("bytes_read", "bytes_written"):
            acc[f"model_store.{counter}"] += span.get(counter, 0)
        if name == "model_store.read_model":
            totals["read_bytes"] += span["bytes_read"]
            totals["read_s"] += duration
        if name in KERNELS:
            acc[f"kernels.macs.{stage}"] += span["macs"]
            acc[f"kernels.bytes_moved.{stage}"] += span["bytes_moved"]
            totals[f"macs.{stage}"] += span["macs"]
            totals[f"kernel_s.{stage}"] += duration

    setups = [acc for group, acc in groups.items() if group.startswith("setup")]
    cycles = [acc for group, acc in groups.items() if group.startswith("cycle")]

    def one_pass(key: str) -> float:
        return sum(statistics.median(acc.get(key, 0.0) for acc in part)
                   for part in (setups, cycles) if part)

    values = {name: one_pass(name) for name, _, _ in PER_LAYER}
    values["model_store.read_mb_per_s"] = (
        totals["read_bytes"] / totals["read_s"] / 1e6 if totals["read_s"] else 0.0
    )
    for stage in FORWARD_STAGES:
        moved = values[f"kernels.bytes_moved.{stage}"]
        values[f"kernels.ops_per_byte.{stage}"] = (
            2 * values[f"kernels.macs.{stage}"] / moved if moved else 0.0
        )
        kernel_s = totals[f"kernel_s.{stage}"]
        values[f"kernels.gmacs_per_s.{stage}"] = (
            totals[f"macs.{stage}"] / kernel_s / 1e9 if kernel_s else 0.0
        )
    values.update({
        "kernels.per_group_tax": forward_s / forward_pc_s - 1 if forward_pc_s else 0.0,
        "kernels.per_group_tax.forward_s": forward_s,
        "kernels.per_group_tax.forward_pc_s": forward_pc_s,
        "kernels.per_group_tax.selected_fraction": selected_fraction,
        "trace.overhead_s": overhead_s,
        "trace.overhead_ratio": overhead_ratio,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
