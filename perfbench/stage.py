"""Stage server: runs each benchmark stage in a fresh forked process.

Usage: python3 perfbench/stage.py

The server imports numpy and quantkit once, then reads one JSON stage
spec per line from stdin.  For each it forks a child, which runs the
stage in the spec's work directory and writes the result file the spec
names; the server waits for the child with ``os.wait4`` and answers with
one JSON line holding the child's exit code and peak RSS.  Every stage
thus starts from the same freshly imported state, and import time stays
out of both the timings and the run's wall time.  The server never runs a
stage itself and starts no thread, so forking it is safe.

Modes:

``setup``    synthesize the fp32 model and write it, then build and write
             the all-per-channel and all-per-group quantized models;
``cli``      one ``quantkit.cli.main(argv)`` call;
``forward``  rounds of one pass over every layer of each of the three
             quantized models: ``read_quantized_layer``,
             ``quantize_activation`` of the layer's seeded activation,
             then the matching matmul kernel; each layer's step is also
             timed on its own;
``check``    the content checks of ``checks.py`` on the first cycle's
             artifacts.

Only the work named above is timed (and traced).  Reading models and
drawing activations come before it; digests and the forward reference
check come after it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import signal
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from quantkit import cli, kernels, model_store, planner, quantizer, synth  # noqa: E402
from tracer import Tracer  # noqa: E402

FORWARD_TOLERANCE = 1e-5
FORWARD_MODELS = (("forward", "quant"), ("forward_pc", "model_pc"), ("forward_pg", "model_pg"))


def activation(seed: int, layer_index: int, rows: int, width: int) -> np.ndarray:
    """The seeded activation a forward pass feeds to one layer."""
    rng = np.random.default_rng([seed, layer_index])
    return rng.normal(0.0, 1.0, (rows, width)).astype(np.float32)


class Timer:
    """Times named regions; each is a root span while tracing."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.seconds: dict[str, list[float]] = {}

    @contextlib.contextmanager
    def region(self, name: str):
        span = contextlib.nullcontext()
        if self.tracer is not None:
            self.tracer.active = True
            self.tracer.stage = name
            span = self.tracer.span(f"stage.{name}")
        with span:
            start = time.perf_counter()
            try:
                yield
            finally:
                self.seconds.setdefault(name, []).append(time.perf_counter() - start)
        if self.tracer is not None:
            self.tracer.active = False


def run_setup(spec: dict, timer: Timer) -> dict:
    cfg = synth.SynthConfig(
        blocks=spec["blocks"], dim=spec["dim"], wall_blocks=tuple(spec["wall_blocks"]),
        seed=spec["seed"],
    )
    g = spec["group_size"]
    with timer.region("setup"):
        manifest, tensors = synth.generate(cfg)
        model_store.write_model(manifest, tensors, "model")
        for stem, scheme in (
            ("model_pc", quantizer.GroupingScheme.per_channel()),
            ("model_pg", quantizer.GroupingScheme.per_group(g)),
        ):
            plan = planner.QuantPlan(
                {rec.name: scheme for rec in manifest.layer_records()}, group_size=g, bits=8
            )
            qmanifest, qtensors = planner.apply_plan(manifest, tensors, plan)
            model_store.write_model(qmanifest, qtensors, stem)
    return {"rc": 0}


def run_cli(spec: dict, timer: Timer) -> dict:
    with timer.region(spec["stage"]):
        rc = cli.main(spec["argv"])
    return {"rc": rc}


def _relative_deviation(out: np.ndarray, wq, aq) -> float:
    ref = kernels.reference_matmul_fp(quantizer.dequantize(wq), quantizer.dequantize(aq))
    denom = float(np.linalg.norm(ref))
    return float(np.linalg.norm(out - ref)) / denom if denom else float(np.linalg.norm(out))


def run_forward(spec: dict, timer: Timer) -> dict:
    models = {stage: model_store.read_model(stem) for stage, stem in FORWARD_MODELS}
    params = quantizer.QuantParams(8)
    manifest = models["forward_pc"][0]
    names = [rec.name for rec in manifest.layer_records()]
    acts = [
        activation(spec["seed"], manifest.layer_index(name), manifest.record(name).shape[1],
                   spec["width"])
        for name in names
    ]
    stages = [stage for stage, _ in FORWARD_MODELS]
    digests: dict[str, list[list[str]]] = {stage: [] for stage in stages}
    layer_seconds: dict[str, list[list[float]]] = {stage: [] for stage in stages}
    attempted, failures = 0, []
    for r in range(spec["rounds"]):
        # Rotate the pass order so that no variant always runs first.
        shift = (spec["cycle"] + r) % len(stages)
        for stage in stages[shift:] + stages[:shift]:
            qmanifest, qtensors = models[stage]
            done, seconds = [], []
            with timer.region(stage):
                for name, a in zip(names, acts):
                    start = time.perf_counter()
                    wq = planner.read_quantized_layer(qmanifest, qtensors, name)
                    aq = quantizer.quantize_activation(a, params)
                    if wq.grouping.is_per_group:
                        out = kernels.matmul_per_group(wq, aq)
                    else:
                        out = kernels.matmul_per_channel(wq, aq)
                    seconds.append(time.perf_counter() - start)
                    done.append((wq, aq, out))
            layer_seconds[stage].append(seconds)
            digests[stage].append([hashlib.sha256(out.tobytes()).hexdigest() for *_, out in done])
            if spec["check"] and r == 0:
                for name, (wq, aq, out) in zip(names, done):
                    attempted += 1
                    dev = _relative_deviation(out, wq, aq)
                    if not dev <= FORWARD_TOLERANCE:
                        failures.append(f"{stage}:{name}: relative deviation {dev:.3e}")
    for stage in stages:
        for r in range(1, spec["rounds"]):
            attempted += 1
            if digests[stage][r] != digests[stage][0]:
                failures.append(f"{stage}: round {r} products differ from round 0")
    return {
        "rc": 0,
        "layer_digests": {stage: dict(zip(names, digests[stage][0])) for stage in stages},
        "layer_seconds": layer_seconds,
        "attempted": attempted,
        "failures": failures,
    }


def run_check(spec: dict, timer: Timer) -> dict:
    from checks import check_outputs
    from run import Tally

    with open("forward_digests.json", encoding="utf-8") as fh:
        forward_digests = json.load(fh)
    tally = Tally()
    selected = check_outputs(tally, ".", spec["wall_blocks"], spec["group_size"], spec["seed"],
                             spec["width"], forward_digests)
    return {"rc": 0, "attempted": tally.attempted, "failures": tally.failures,
            "selected": selected}


MODES = {"setup": run_setup, "cli": run_cli, "forward": run_forward, "check": run_check}


def run_stage(spec: dict) -> int:
    """Body of a forked child: run one stage and write its result file."""
    os.chdir(spec["cwd"])
    log = os.open(spec["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(log, 1)
    os.dup2(log, 2)
    signal.alarm(max(1, int(spec["timeout"])))
    tracer = None
    if spec.get("run_id"):
        tracer = Tracer(spec["run_id"])
        tracer.install()
    timer = Timer(tracer)
    result = MODES[spec["mode"]](spec, timer)
    result["seconds"] = timer.seconds
    if tracer is not None:
        tracer.dump(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result["rc"]


def serve() -> None:
    for line in sys.stdin:
        spec = json.loads(line)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = run_stage(spec)
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        _, status, usage = os.wait4(pid, 0)
        reply = {"rc": os.waitstatus_to_exitcode(status), "maxrss_kib": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    serve()
