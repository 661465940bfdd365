"""Command-line pipeline: synth -> analyze -> plan -> quantize, plus
group-size sweeps, a kernel self-test, and accuracy-report aggregation.

Every subcommand is deterministic given its flags (seeds are explicit)
and writes files atomically (temp file + rename), so identical
invocations produce byte-identical artifacts.  The QUANTKIT_THREADS
environment variable caps internal parallelism (default 1).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

import numpy as np

from . import analyzer, kernels, model_store, planner, quantizer, report, synth


def _parse_int_list(text: str) -> list[int]:
    if text.strip().lower() in ("", "none"):
        return []
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from exc


def _parse_str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg_kwargs = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("synth config file must hold a JSON object")
        unknown = sorted(set(loaded) - {f.name for f in dataclasses.fields(synth.SynthConfig)})
        if unknown:
            raise ValueError(f"unknown synth settings: {unknown}")
        cfg_kwargs.update(loaded)
    overrides = {
        "blocks": args.blocks,
        "dim": args.dim,
        "base_std": args.base_std,
        "wall_columns_per_layer": args.wall_columns,
        "kv_dim_divisor": args.kv_divisor,
        "seed": args.seed,
    }
    if args.wall_blocks is not None:
        overrides["wall_blocks"] = tuple(_parse_int_list(args.wall_blocks))
    if args.wall_kinds is not None:
        overrides["wall_kinds"] = tuple(_parse_str_list(args.wall_kinds))
    if args.wall_magnitude is not None:
        lo_hi = args.wall_magnitude.split(",")
        if len(lo_hi) != 2:
            raise ValueError("--wall-magnitude expects 'lo,hi'")
        overrides["wall_magnitude"] = (float(lo_hi[0]), float(lo_hi[1]))
    if args.per_layer_wall_columns:
        overrides["shared_wall_columns"] = False
    cfg_kwargs.update({k: v for k, v in overrides.items() if v is not None})
    cfg = synth.SynthConfig(**cfg_kwargs)  # converts the list settings to tuples

    manifest, tensors = synth.generate(cfg)
    model_store.write_model(manifest, tensors, args.out)
    print(f"wrote {len(manifest.records)} tensors to {args.out}.manifest.json / {args.out}.bin")
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _wall_cfg_from_args(args) -> analyzer.WallDetectorConfig:
    if args.wall_abs_threshold is not None:
        return analyzer.WallDetectorConfig.absolute(
            args.wall_abs_threshold, row_fraction=args.wall_row_fraction
        )
    return analyzer.WallDetectorConfig(
        rms_multiplier=args.wall_rms_mult, row_fraction=args.wall_row_fraction
    )


def cmd_analyze(args) -> int:
    manifest, tensors = model_store.open_model(args.model)
    params = quantizer.QuantParams(args.bits)
    wall_cfg = _wall_cfg_from_args(args)
    sizes = _parse_int_list(args.group_sizes or "")
    metrics = analyzer.profile_model(manifest, tensors, params, wall_cfg, group_sizes=sizes)
    analyzer.write_metrics_csv(args.out, metrics)
    print(f"wrote {len(metrics)} layer rows to {args.out}")
    if args.plot_json:
        analyzer.write_plot_data_json(args.plot_json, metrics)
        print(f"wrote plot data to {args.plot_json}")
    return 0


# ---------------------------------------------------------------------------
# plan / quantize / sweep
# ---------------------------------------------------------------------------

def _plan_config_from_args(args, **common) -> planner.PlanConfig:
    if args.top_k is not None:
        return planner.PlanConfig(top_k=args.top_k, **common)
    if args.layers is not None:
        return planner.PlanConfig(explicit=tuple(_parse_str_list(args.layers)), **common)
    return planner.PlanConfig(max_abs_threshold=args.max_abs_threshold, **common)


def cmd_plan(args) -> int:
    metrics = analyzer.read_metrics_csv(args.metrics)
    cfg = _plan_config_from_args(args, group_size=args.group_size)
    plan = planner.build_plan(metrics, cfg)
    model_store.atomic_write_text(args.out, plan.to_json_text())
    selected = len(plan.selected_layers())
    print(
        f"wrote plan to {args.out}: {selected}/{len(plan.assignments)} layers per-group "
        f"(fraction {plan.per_group_fraction:.4f})"
    )
    return 0


def cmd_quantize(args) -> int:
    manifest, tensors = model_store.open_model(args.model)
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = planner.QuantPlan.from_json_text(fh.read())
    model_store.write_model(*planner.quantized_view(manifest, tensors, plan), args.out)
    print(f"wrote quantized model to {args.out}.manifest.json / {args.out}.bin")
    return 0


def cmd_sweep(args) -> int:
    manifest, tensors = model_store.open_model(args.model)
    sizes = _parse_int_list(args.sizes)
    if not sizes:
        raise ValueError("--sizes must name at least one group size")
    params = quantizer.QuantParams(args.bits)
    rows = planner.sweep_group_size(manifest, tensors, _plan_config_from_args(args), sizes, params)

    selected = sorted(rows[0].per_layer_rmse, key=manifest.layer_index) if rows else []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group_size", "aggregate_rmse"] + selected)
    for row in rows:
        writer.writerow(
            [row.group_size, analyzer.csv_float(row.aggregate_rmse)]
            + [analyzer.csv_float(row.per_layer_rmse[name]) for name in selected]
        )
    text = buf.getvalue()
    if args.out:
        model_store.atomic_write_text(args.out, text)
        print(f"wrote sweep table ({len(rows)} sizes, {len(selected)} layers) to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# check-matmul
# ---------------------------------------------------------------------------

def _divisors(m: int) -> list[int]:
    return [g for g in range(1, m + 1) if m % g == 0]


def cmd_check_matmul(args) -> int:
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    params = quantizer.QuantParams(8)
    max_dev = 0.0
    for _ in range(args.instances):
        n = int(rng.integers(1, 65))
        m = int(rng.integers(1, 129))
        p = int(rng.integers(1, 33))
        w = rng.normal(0, 1, (n, m)).astype(np.float32)
        a = rng.normal(0, 1, (m, p)).astype(np.float32)
        aq = quantizer.quantize_activation(a, params)
        ref_a = quantizer.dequantize(aq)

        wq_pc = quantizer.quantize_weight(w, quantizer.GroupingScheme.per_channel(), params)
        g = int(rng.choice(_divisors(m)))
        wq_pg = quantizer.quantize_weight(w, quantizer.GroupingScheme.per_group(g), params)

        for wq, out in (
            (wq_pc, kernels.matmul_per_channel(wq_pc, aq)),
            (wq_pg, kernels.matmul_per_group(wq_pg, aq)),
        ):
            ref = kernels.reference_matmul_fp(quantizer.dequantize(wq), ref_a)
            denom = float(np.linalg.norm(ref))
            dev = float(np.linalg.norm(out - ref)) / denom if denom else float(
                np.linalg.norm(out)
            )
            max_dev = max(max_dev, dev)

        wq_full = quantizer.quantize_weight(w, quantizer.GroupingScheme.per_group(m), params)
        if not np.array_equal(
            kernels.matmul_per_group(wq_full, aq), kernels.matmul_per_channel(wq_pc, aq)
        ):
            print("check-matmul: group-size degeneracy mismatch", file=sys.stderr)
            return 1
    print(
        f"check-matmul: {args.instances} instances, max relative deviation {max_dev:.3e} "
        f"(tolerance {args.tolerance:.1e})"
    )
    return 0 if max_dev <= args.tolerance else 1


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    tasks = []
    for _, row in analyzer._csv_rows(args.results):
        try:
            tasks.append(
                report.TaskResult(row["task"], float(row["accuracy"]), int(row["questions"]))
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"malformed results row {row!r}; expected columns task,accuracy,questions"
            ) from exc
    summary = report.aggregate_accuracy(tasks)
    print(f"tasks: {len(summary.tasks)}")
    print(f"avg: {summary.avg:.6f}")
    print(f"wt_avg: {summary.wt_avg:.6f}")
    if args.out:
        obj = {
            "avg": summary.avg,
            "wt_avg": summary.wt_avg,
            "task_count": len(summary.tasks),
            "total_questions": sum(t.question_count for t in summary.tasks),
        }
        model_store.atomic_write_text(args.out, json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_selection_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--max-abs-threshold",
        type=float,
        default=planner.DEFAULT_MAX_ABS_THRESHOLD,
        help="select layers with max_abs at or above this value (default %(default)s)",
    )
    group.add_argument("--top-k", type=int, default=None, help="select the k highest-RMSE layers")
    group.add_argument("--layers", default=None, help="explicit comma-separated layer names")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantkit",
        description="Symmetric integer quantization toolkit with outlier-aware mixed grouping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic model with optional outlier walls")
    p.add_argument("--out", required=True, help="output model stem")
    p.add_argument("--config", default=None, help="JSON file of generator settings")
    p.add_argument("--blocks", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--base-std", type=float, default=None)
    p.add_argument("--wall-blocks", default=None, help="comma list of block indices, or 'none'")
    p.add_argument("--wall-kinds", default=None, help="comma subset of q,k,v,up,gate")
    p.add_argument("--wall-columns", type=int, default=None)
    p.add_argument("--wall-magnitude", default=None, help="lo,hi")
    p.add_argument("--per-layer-wall-columns", action="store_true",
                   help="draw wall columns per layer instead of sharing within a block")
    p.add_argument("--kv-divisor", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("analyze", help="profile per-layer max_abs, RMSE, and walls")
    p.add_argument("model", help="model stem")
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.add_argument("--plot-json", default=None, help="also write dual-series plot data")
    p.add_argument("--bits", type=int, default=8)
    p.add_argument("--group-sizes", default=None,
                   help="extra per-group RMSE columns, comma-separated sizes")
    p.add_argument("--wall-abs-threshold", type=float, default=None)
    p.add_argument("--wall-rms-mult", type=float, default=analyzer.DEFAULT_WALL_RMS_MULTIPLIER)
    p.add_argument("--wall-row-fraction", type=float,
                   default=analyzer.DEFAULT_WALL_ROW_FRACTION)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("plan", help="build a mixed grouping plan from a metrics CSV")
    p.add_argument("metrics", help="metrics CSV from analyze")
    p.add_argument("--out", required=True, help="plan JSON path")
    _add_selection_flags(p)
    p.add_argument("--group-size", type=int, default=16,
                   help="group size for selected layers (desk-scale default 16; "
                        "use 1024 at full model scale)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("quantize", help="apply a plan to a model")
    p.add_argument("model", help="model stem")
    p.add_argument("--plan", required=True, help="plan JSON from plan")
    p.add_argument("--out", required=True, help="quantized model stem")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("sweep", help="group-size ablation over the selected layers")
    p.add_argument("model", help="model stem")
    p.add_argument("--sizes", required=True, help="comma-separated group sizes")
    p.add_argument("--out", default=None, help="sweep CSV path (stdout when omitted)")
    _add_selection_flags(p)
    p.add_argument("--bits", type=int, default=8)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check-matmul", help="integer kernel self-test against the fp64 oracle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.set_defaults(func=cmd_check_matmul)

    p = sub.add_parser("report", help="aggregate task accuracies from a results CSV")
    p.add_argument("results", help="CSV with columns task,accuracy,questions")
    p.add_argument("--out", default=None, help="optional summary JSON path")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
