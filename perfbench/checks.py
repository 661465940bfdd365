"""Content checks of one cycle's artifacts, run in their own stage process.

Each check is one attempted operation, counted on a ``Tally``; a check
that does not hold is one failed operation in the run's error rate.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from quantkit import kernels, model_store, planner, quantizer, synth
from stage import activation


def _read_plan(workdir: str) -> planner.QuantPlan:
    with open(os.path.join(workdir, "plan.json"), encoding="utf-8") as fh:
        return planner.QuantPlan.from_json_text(fh.read())


def check_plan(tally, workdir: str, plan, wall_blocks, group_size: int) -> list[str]:
    """The plan selects exactly the injected wall layers, and each of them
    quantizes better per-group than per-channel in the analyze CSV."""
    selected = plan.selected_layers()
    expected = {f"blocks.{b}.{kind}" for b in wall_blocks for kind in synth.WALL_KIND_UNIVERSE}
    tally.check(set(selected) == expected,
                f"plan selects {sorted(selected)}, expected the wall layers {sorted(expected)}")
    with open(os.path.join(workdir, "metrics.csv"), encoding="utf-8", newline="") as fh:
        rows = {row["name"]: row for row in csv.DictReader(fh)}
    column = f"rmse_g{group_size}"
    for name in selected:
        row = rows.get(name, {})
        try:
            ok = float(row[column]) < float(row["rmse_pc"])
        except (KeyError, ValueError):
            ok = False
        tally.check(ok, f"metrics.csv: {name} has {column} >= rmse_pc or no such column")
    return selected


def _element_scales(qt: quantizer.QuantizedTensor) -> np.ndarray:
    scales = qt.scales.astype(np.float64)
    if qt.grouping.is_per_group:
        return np.repeat(scales, qt.values.shape[1] // scales.shape[1], axis=1)
    return np.broadcast_to(scales[:, None], qt.values.shape)


def check_readback(tally, workdir: str, stems, fp32: dict) -> None:
    """Every quantized layer dequantizes to within half a step of its source."""
    for stem in stems:
        try:
            manifest, tensors = model_store.read_model(os.path.join(workdir, stem))
        except (ValueError, OSError) as exc:
            tally.check(False, f"{stem}: cannot be read back: {exc}")
            continue
        for rec in manifest.layer_records():
            try:
                qt = planner.read_quantized_layer(manifest, tensors, rec.name)
            except ValueError as exc:
                tally.check(False, f"{stem}:{rec.name}: {exc}")
                continue
            err = np.abs(quantizer.dequantize(qt) - fp32[rec.name].astype(np.float64))
            bound = 0.5 * _element_scales(qt) * (1 + 1e-9)
            tally.check(bool(np.all(err <= bound)),
                        f"{stem}:{rec.name}: dequantized error exceeds s/2")


def check_degeneracy(tally, workdir: str, fp32: dict, seed: int, width: int) -> None:
    """On block 0, a per-group product with g = M equals the per-channel one bit for bit."""
    manifest, tensors = model_store.read_model(os.path.join(workdir, "model_pc"))
    params = quantizer.QuantParams(8)
    for rec in manifest.layer_records()[: len(model_store.KIND_ORDER)]:
        w = fp32[rec.name]
        m = w.shape[1]
        aq = quantizer.quantize_activation(
            activation(seed, manifest.layer_index(rec.name), m, width), params
        )
        full = quantizer.quantize_weight(w, quantizer.GroupingScheme.per_group(m), params)
        pc = planner.read_quantized_layer(manifest, tensors, rec.name)
        tally.check(
            np.array_equal(kernels.matmul_per_group(full, aq), kernels.matmul_per_channel(pc, aq)),
            f"{rec.name}: per-group product with g = M differs from per-channel",
        )


def check_forward_agreement(tally, plan: planner.QuantPlan, digests: dict) -> None:
    """Each layer's product under the plan equals the product of the
    all-per-channel or all-per-group model with the same scheme."""
    for name, scheme in plan.assignments.items():
        twin = "forward_pg" if scheme.is_per_group else "forward_pc"
        ours = digests.get("forward", {}).get(name)
        tally.check(ours is not None and ours == digests.get(twin, {}).get(name),
                    f"forward:{name}: product differs from {twin}")


def check_outputs(tally, workdir: str, wall_blocks, group_size: int, seed: int, width: int,
                  forward_digests: dict) -> int:
    """All content checks of one cycle's artifacts; returns the selected-layer count."""
    try:
        plan = _read_plan(workdir)
        selected = check_plan(tally, workdir, plan, wall_blocks, group_size)
    except (ValueError, OSError) as exc:
        tally.check(False, f"plan or metrics unreadable: {exc}")
        return 0
    try:
        _, fp32 = model_store.read_model(os.path.join(workdir, "model"))
        check_readback(tally, workdir, ("quant", "model_pc", "model_pg"), fp32)
        check_degeneracy(tally, workdir, fp32, seed, width)
    except (ValueError, OSError) as exc:
        tally.check(False, f"models unreadable: {exc}")
    check_forward_agreement(tally, plan, forward_digests)
    return len(selected)
