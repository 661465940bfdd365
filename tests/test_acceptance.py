"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s or -rP to see them).

Every tolerance is pinned here; the wall-layer error-reduction ratios in
criterion 6 are computed by the scalar-loop oracle and recorded in the
output rather than asserted against any published figure.
"""

import time

import numpy as np
import pytest

from quantkit import (
    GroupingScheme,
    PlanConfig,
    QuantParams,
    SynthConfig,
    build_plan,
    dequantize,
    generate,
    matmul_per_channel,
    matmul_per_group,
    profile_model,
    quantize_activation,
    quantize_weight,
    reference_matmul_fp,
)
from quantkit.cli import main

from oracles import scalar_rmse

PC = GroupingScheme.per_channel()
WALL_THRESHOLD = 2.0
DESK_GROUP_SIZE = 16


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def default_model():
    """The default 80-block wall-injected synthetic model and its profile."""
    manifest, tensors = generate(SynthConfig())
    metrics = profile_model(manifest, tensors, QuantParams(8))
    return manifest, tensors, metrics


def test_criterion_1_round_trip_bound():
    """1,000 seeded tensors, n in {2,4,8}, both groupings, < 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    combos = [(bits, per_group) for bits in (2, 4, 8) for per_group in (False, True)]
    count = 0
    worst_margin = np.inf
    while count < 1000:
        bits, per_group = combos[count % len(combos)]
        params = QuantParams(bits)
        n = int(rng.integers(1, 17))
        g = int(rng.choice([2, 4, 8, 16]))
        m = g * int(rng.integers(1, 9))
        w = (rng.normal(0, 1, (n, m)) * rng.uniform(1e-3, 1e3)).astype(np.float32)
        scheme = GroupingScheme.per_group(g) if per_group else PC
        qt = quantize_weight(w, scheme, params)
        resolved = scheme.resolved_group_size(m)
        elem_scales = np.repeat(
            qt.scales.reshape(n, m // resolved).astype(np.float64), resolved, axis=1
        )
        bound = elem_scales / 2 + 1e-6 * elem_scales
        err = np.abs(w.astype(np.float64) - dequantize(qt))
        worst_margin = min(worst_margin, float((bound - err).min()))
        assert np.all(err <= bound)
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst_margin >= 0 and elapsed < 10.0
    _report(1, ok, f"1000 tensors within s/2 + 1e-6*s (min margin {worst_margin:.3e}), "
                   f"{elapsed:.2f}s")
    assert ok


def test_criterion_2_grouping_degeneracy():
    """Per-group(M) bit-identical to per-channel on 100 seeded tensors."""
    rng = np.random.default_rng(55)
    params = QuantParams(8)
    for _ in range(100):
        n = int(rng.integers(1, 24))
        m = int(rng.integers(1, 48))
        w = (rng.normal(0, 1, (n, m)) * rng.uniform(1e-2, 1e2)).astype(np.float32)
        pc = quantize_weight(w, PC, params)
        pg = quantize_weight(w, GroupingScheme.per_group(m), params)
        assert np.array_equal(pc.values, pg.values)
        assert np.array_equal(pc.scales, pg.scales.reshape(-1))
    _report(2, True, "values and scales bit-identical on 100 tensors")


def test_criterion_3_kernel_exactness():
    """Both kernels within 1e-5 of the fp64 reference over 200 instances."""
    rng = np.random.default_rng(99)
    params = QuantParams(8)
    max_dev = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 65))
        m = int(rng.integers(1, 129))
        p = int(rng.integers(1, 33))
        w = rng.normal(0, 1, (n, m)).astype(np.float32)
        a = rng.normal(0, 1, (m, p)).astype(np.float32)
        aq = quantize_activation(a, params)
        deq_a = dequantize(aq)

        wq_pc = quantize_weight(w, PC, params)
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        g = int(rng.choice(divisors))
        wq_pg = quantize_weight(w, GroupingScheme.per_group(g), params)

        out_pc = matmul_per_channel(wq_pc, aq)
        out_pg = matmul_per_group(wq_pg, aq)
        for wq, out in ((wq_pc, out_pc), (wq_pg, out_pg)):
            ref = reference_matmul_fp(dequantize(wq), deq_a)
            denom = float(np.linalg.norm(ref))
            dev = float(np.linalg.norm(out - ref)) / denom if denom else float(np.linalg.norm(out))
            max_dev = max(max_dev, dev)
            assert dev <= 1e-5

        wq_full = quantize_weight(w, GroupingScheme.per_group(m), params)
        assert np.array_equal(matmul_per_group(wq_full, aq), out_pc)
    _report(3, True, f"200 instances, max relative Frobenius deviation {max_dev:.3e} "
                     "<= 1e-5; g=M kernel bit-identical to per-channel")


def test_criterion_4_wall_layers_dominate_quantization_error():
    """Wall layers' per-channel RMSE >= 10x the median clean RMSE, < 5 s."""
    start = time.perf_counter()
    manifest, tensors = generate(SynthConfig())
    metrics = profile_model(manifest, tensors, QuantParams(8))
    wall = [m for m in metrics if m.max_abs >= WALL_THRESHOLD]
    clean_rmse = [m.rmse for m in metrics if m.max_abs < WALL_THRESHOLD]
    median_clean = float(np.median(clean_rmse))
    factor = min(m.rmse for m in wall) / median_clean
    elapsed = time.perf_counter() - start
    ok = len(wall) == 15 and factor >= 10.0 and elapsed < 5.0
    _report(4, ok, f"15 wall layers, min RMSE factor over median clean layer "
                   f"{factor:.1f} (>= 10 required), {elapsed:.2f}s")
    assert len(wall) == 15
    assert factor >= 10.0
    assert elapsed < 5.0


def test_criterion_5_plan_fraction(default_model):
    """Threshold plan selects exactly 15 layers; fraction 0.0268 to 4 dp."""
    _, _, metrics = default_model
    plan = build_plan(
        metrics, PlanConfig(max_abs_threshold=WALL_THRESHOLD, group_size=DESK_GROUP_SIZE)
    )
    selected = plan.selected_layers()
    fraction = plan.per_group_fraction
    ok = len(selected) == 15 and round(fraction, 4) == 0.0268
    _report(5, ok, f"{len(selected)}/560 layers selected, fraction {fraction:.6f} "
                   f"rounds to {round(fraction, 4)}")
    assert len(selected) == 15
    assert round(fraction, 4) == 0.0268


def test_criterion_6_error_reduction_direction(default_model):
    """Per-group RMSE below per-channel RMSE on every selected layer; the
    achieved ratios come from the scalar-loop oracle and are recorded."""
    _, tensors, metrics = default_model
    plan = build_plan(
        metrics, PlanConfig(max_abs_threshold=WALL_THRESHOLD, group_size=DESK_GROUP_SIZE)
    )
    ratios = {}
    for name in plan.selected_layers():
        w = tensors[name]
        g = plan.assignments[name].group_size
        oracle_pg = scalar_rmse(w, g, 8)
        oracle_pc = scalar_rmse(w, w.shape[1], 8)
        assert oracle_pg < oracle_pc
        ratios[name] = oracle_pc / oracle_pg
        # the library path must agree with the oracle on both groupings
        lib = next(m for m in metrics if m.name == name)
        assert lib.rmse == pytest.approx(oracle_pc, rel=1e-12)
    lo, hi = min(ratios.values()), max(ratios.values())
    _report(6, True, f"per-group(g={DESK_GROUP_SIZE}) < per-channel on all 15 layers; "
                     f"oracle error-reduction ratios {lo:.2f}x..{hi:.2f}x (recorded)")


def test_criterion_7_weighted_average():
    """avg = 0.7000 and wt_avg = 0.8810 +/- 5e-5 on the two-task example."""
    from quantkit import aggregate_accuracy

    summary = aggregate_accuracy([("A", 0.9, 10000), ("B", 0.5, 500)])
    ok = abs(summary.avg - 0.7) < 1e-12 and abs(summary.wt_avg - 0.8810) <= 5e-5
    _report(7, ok, f"avg {summary.avg:.4f}, wt_avg {summary.wt_avg:.6f} "
                   f"(|wt_avg - 0.8810| = {abs(summary.wt_avg - 0.8810):.2e})")
    assert abs(summary.avg - 0.7) < 1e-12
    assert abs(summary.wt_avg - 0.8810) <= 5e-5


def test_criterion_8_pipeline_determinism(tmp_path):
    """Two identical synth->analyze->plan->quantize runs yield identical bytes."""
    def run(d):
        d.mkdir()
        m, r, p, mq = str(d / "m"), str(d / "r.csv"), str(d / "p.json"), str(d / "mq")
        assert main(["synth", "--blocks", "80", "--dim", "64", "--seed", "7", "--out", m]) == 0
        assert main(["analyze", m, "--out", r]) == 0
        assert main(["plan", r, "--max-abs-threshold", str(WALL_THRESHOLD),
                     "--group-size", str(DESK_GROUP_SIZE), "--out", p]) == 0
        assert main(["quantize", m, "--plan", p, "--out", mq]) == 0

    run(tmp_path / "run1")
    run(tmp_path / "run2")
    artifacts = ["m.manifest.json", "m.bin", "r.csv", "p.json", "mq.manifest.json", "mq.bin"]
    for name in artifacts:
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, f"{name} differs between runs"
    _report(8, True, f"all {len(artifacts)} pipeline artifacts byte-identical across runs")
