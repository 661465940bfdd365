"""quantkit benchmark: one command, three workloads, every metric by name.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk|wide|forward --seed N \
        --seconds S --trace 0|1

Each workload is a single-client closed loop: one stage runs at a time in
its own fresh process (forked by ``stage.py``), and the next starts when
it finishes.  A run sets up three times (synthesize the fp32 model, then
build and write the all-per-channel and all-per-group quantized models),
then repeats a cycle until the cycles have taken ``--seconds``: one
``quantkit.cli.main`` call each for ``analyze``, ``quantize`` and
``sweep``, with a ``plan`` call after each, then a forward process with
three rounds (six on ``wide``) of one pass over each of the three
quantized models.  A forward metric is the sum over layers of each
layer's fastest step in the run's passes; every other metric is the
median over the run's samples.  The seed picks the synth seed and the
activation seeds; quantkit sees only the generated files and arrays.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` cycles alternate untraced and traced, and the last line
holds the per-module numbers of the traced cycles and set-ups, the
computed kernel and store counters, the per-group tax and the tracing
overhead.  Every output is checked outside the timed region; a failed
stage or check is one failed operation.  The full result, with the
environment stamp, every sample and every artifact digest, goes to
``.perfbench_out/`` (and, when tracing, the spans next to it).

Which per-module metric should move which end-to-end metric, on which
workload, is written down in ``perfbench/RATIONALE.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STAGE = os.path.join(HERE, "stage.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPS = 3
# A run must end within 180 s: no cycle starts that would end past
# CYCLE_LIMIT_S, and any stage still running at KILL_AT_S is killed.
CYCLE_LIMIT_S = 140.0
KILL_AT_S = 170.0


@dataclass(frozen=True)
class Workload:
    blocks: int
    dim: int
    wall_blocks: tuple[int, ...]
    analyze_sizes: str
    group_size: int
    sweep_sizes: str
    threads: int
    width: int  # activation columns per layer in a forward pass
    rounds: int  # forward rounds per cycle, each one pass over every model


WORKLOADS = {
    # 560 layers of 64x64 (9 MB): fixed per-layer costs dominate.
    "desk": Workload(80, 64, (0, 1, 3), "8,16,32", 16, "8,16,32", 1, 32, 3),
    # 28 layers of 1024x1024 (112 MB): arithmetic and memory traffic
    # dominate; the only workload where profile_model's pool has 2 threads.
    # Groups of 128 are 1/8 of a row, like 1024-column groups on 8192-wide
    # layers.  Narrow activations (8 columns) keep its forward passes short,
    # so a cycle affords six rounds of them.
    "wide": Workload(4, 1024, (0,), "128", 128, "64,128,256", min(2, os.cpu_count() or 1), 8, 6),
    # 168 layers of 256x256 with walls in block 0 only: 5/168 = 3.0 % of
    # layers per-group, the paper's fraction; the kernels dominate its
    # forward passes.
    "forward": Workload(24, 256, (0,), "32", 32, "16,32,64", 1, 32, 3),
}

END_TO_END = {
    "setup_s": "s",
    "analyze_s": "s",
    "plan_s": "s",
    "quantize_s": "s",
    "sweep_s": "s",
    "analyze_rss_mb": "MB",
    "quantize_rss_mb": "MB",
    "sweep_rss_mb": "MB",
    "forward_s": "s",
    "forward_pc_s": "s",
    "forward_pg_s": "s",
}
RSS_STAGES = ("analyze", "quantize", "sweep")
SETUP_ARTIFACTS = tuple(
    f"{stem}.{ext}" for stem in ("model", "model_pc", "model_pg") for ext in ("manifest.json", "bin")
)
STORE_NOTE = (
    "store reads come from the warm page cache (caches are not dropped); byte, MAC and "
    "ops/byte counters are computed from array sizes (no hardware counters are read)"
)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True)
    except OSError:
        return "unknown (git not found)"
    return out.stdout.strip() or "unknown"


def _cli_stages(w: Workload) -> list[tuple[str, list[str], tuple[str, ...]]]:
    plan = ("plan", ["plan", "metrics.csv", "--out", "plan.json", "--max-abs-threshold", "2.0",
                     "--group-size", str(w.group_size)], ("plan.json",))
    # plan takes milliseconds, so it runs after each other stage: three
    # samples per cycle, spread over the cycle, keep its median steady.
    # Its reruns write the same plan.json, which is checked.
    return [
        ("analyze", ["analyze", "model", "--out", "metrics.csv", "--group-sizes", w.analyze_sizes,
                     "--plot-json", "plot.json"], ("metrics.csv", "plot.json")),
        plan,
        ("quantize", ["quantize", "model", "--plan", "plan.json", "--out", "quant"],
         ("quant.manifest.json", "quant.bin")),
        plan,
        ("sweep", ["sweep", "model", "--sizes", w.sweep_sizes, "--out", "sweep.csv"],
         ("sweep.csv",)),
        plan,
    ]


class Tally:
    """Counts attempted and failed operations and keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class Bench:
    """One run of one workload: set-up, timed cycles, checks, aggregation.

    ``after_stage(stage, workdir)`` is called after each stage's artifacts
    are hashed; the self-test uses it to corrupt an artifact.
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, after_stage=None):
        self.name = workload
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.after_stage = after_stage
        self.workdir = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
        self.tally = Tally()
        self.samples = defaultdict(list)  # untraced stage times and RSS
        self.layer_samples = defaultdict(list)  # forward metric -> per-layer times of each pass
        self.cycle_totals = {False: [], True: []}  # summed stage time per cycle, by traced
        self.cycle_time = 0.0
        self.digests: dict[str, str] = {}  # artifact -> sha256 of its first repetition
        self.spans: list[dict] = []
        self.traced_stages = 0
        self.selected = 0
        self.layers = 0
        self.env = dict(os.environ)
        self.env.update({
            "QUANTKIT_THREADS": str(self.w.threads),
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })
        self.started = time.monotonic()

    # -- stages ------------------------------------------------------------

    def _spawn(self, spec: dict) -> tuple[int, int]:
        """Run one stage through the stage server; return exit code and peak RSS (KiB)."""
        spec["timeout"] = self.started + KILL_AT_S - time.monotonic()
        self.server.stdin.write(json.dumps(spec) + "\n")
        self.server.stdin.flush()
        reply = self.server.stdout.readline()
        if not reply:
            raise RuntimeError("the stage server exited unexpectedly")
        reply = json.loads(reply)
        return reply["rc"], reply["maxrss_kib"]

    def stage(self, stage: str, mode: str, spec: dict, artifacts, group: str, traced: bool):
        """Run one stage, record its samples, and hash the artifacts it wrote."""
        spec = dict(spec, mode=mode, stage=stage, cwd=self.workdir, log=f"{stage}.log",
                    result=f"{stage}.result.json")
        if traced:
            self.traced_stages += 1
            spec.update(run_id=f"{group}:{stage}:{self.traced_stages}", spans=f"{stage}.spans.jsonl")
        result_path = os.path.join(self.workdir, spec["result"])
        if os.path.exists(result_path):
            os.unlink(result_path)
        rc, maxrss_kib = self._spawn(spec)
        result = None
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        if not self.tally.check(rc == 0 and result is not None, f"{group}:{stage} exited {rc}"):
            with open(os.path.join(self.workdir, spec["log"]), encoding="utf-8") as fh:
                sys.stderr.write(fh.read()[-2000:])
            return None
        if traced:
            with open(os.path.join(self.workdir, spec["spans"]), encoding="utf-8") as fh:
                self.spans.extend(json.loads(line) for line in fh)
        else:
            for region, seconds in result["seconds"].items():
                self.samples[f"{region}_s"].extend(seconds)
            for region, passes in result.get("layer_seconds", {}).items():
                self.layer_samples[f"{region}_s"].extend(passes)
            if stage in RSS_STAGES:
                self.samples[f"{stage}_rss_mb"].append(maxrss_kib * 1024 / 1e6)
        self.cycle_time += sum(sum(seconds) for seconds in result["seconds"].values())
        for name in artifacts:
            self._same_bytes(name, _sha256(os.path.join(self.workdir, name)))
        if self.after_stage is not None:
            self.after_stage(stage, self.workdir)
        return result

    def _same_bytes(self, artifact: str, digest: str) -> None:
        first = self.digests.setdefault(artifact, digest)
        self.tally.check(digest == first, f"{artifact}: repetition wrote different bytes")

    def _count(self, result: dict) -> None:
        self.tally.attempted += result["attempted"]
        self.tally.failures.extend(result["failures"])

    def setup(self, rep: int) -> None:
        w = self.w
        spec = {"blocks": w.blocks, "dim": w.dim, "wall_blocks": list(w.wall_blocks),
                "seed": self.seed, "group_size": w.group_size}
        self.stage("setup", "setup", spec, SETUP_ARTIFACTS, f"setup{rep}", self.trace)

    def cycle(self, index: int, traced: bool) -> None:
        group = f"cycle{index}"
        self.cycle_time = 0.0
        for stage, argv, artifacts in _cli_stages(self.w):
            self.stage(stage, "cli", {"argv": argv}, artifacts, group, traced)
        spec = {"seed": self.seed, "width": self.w.width, "rounds": self.w.rounds, "cycle": index,
                "check": index == 0}
        result = self.stage("forward", "forward", spec, (), group, traced)
        self.cycle_totals[traced].append(self.cycle_time)
        if result is None:
            return
        self._count(result)
        digests = result["layer_digests"]
        for stage, layers in digests.items():
            self.layers = len(layers)
            self._same_bytes(f"{stage} products",
                             hashlib.sha256(json.dumps(layers).encode()).hexdigest())
        if index == 0:
            self.check_outputs(digests)

    def check_outputs(self, forward_digests: dict) -> None:
        """Check the first cycle's artifacts in a stage process of their own."""
        with open(os.path.join(self.workdir, "forward_digests.json"), "w") as fh:
            json.dump(forward_digests, fh)
        w = self.w
        spec = {"wall_blocks": list(w.wall_blocks), "group_size": w.group_size,
                "seed": self.seed, "width": w.width}
        result = self.stage("check", "check", spec, (), "cycle0", False)
        if result is not None:
            self._count(result)
            self.selected = result["selected"]

    def run(self) -> dict:
        os.makedirs(self.workdir, exist_ok=True)
        self.server = subprocess.Popen([sys.executable, STAGE], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True, env=self.env,
                                       cwd=self.workdir)
        try:
            for rep in range(SETUP_REPS):
                self.setup(rep)
            measured, index, last = 0.0, 0, 0.0
            min_cycles = 2 if self.trace else 1
            while index < min_cycles or (
                measured < self.seconds
                and time.monotonic() + last < self.started + CYCLE_LIMIT_S
            ):
                start = time.monotonic()
                self.cycle(index, traced=self.trace and index % 2 == 1)
                last = time.monotonic() - start
                measured += last
                index += 1
        finally:
            self.server.stdin.close()
            try:
                self.server.wait(timeout=KILL_AT_S)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            shutil.rmtree(self.workdir, ignore_errors=True)
        return self.summarize(index)

    # -- results -----------------------------------------------------------

    def stamp(self, cycles: int) -> dict:
        import numpy

        return {
            "workload": self.name,
            "seed": self.seed,
            "trace": int(self.trace),
            "run_seconds": self.seconds,
            "cycles": cycles,
            "traced_cycles": len(self.cycle_totals[True]),
            "setup_reps": SETUP_REPS,
            "QUANTKIT_THREADS": self.w.threads,
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": _git_commit(),
        }

    def forward_time(self, name: str) -> float:
        """A forward metric: the sum over layers of each layer's fastest step
        in the run's untraced passes (0.0 when no pass finished).

        Other tenants of the host slow whole stretches of a run by up to
        1.7x, and a pass's median follows how much of the run they
        covered.  Their delay only ever adds, so each layer's fastest step
        is the steadiest estimate of its cost.
        """
        passes = self.layer_samples[name]
        return sum(min(layer) for layer in zip(*passes)) if passes else 0.0

    def end_to_end(self) -> dict:
        metrics = {}
        for name, unit in END_TO_END.items():
            samples = self.samples[name]
            if not samples:
                continue
            if name in self.layer_samples:
                value, how = self.forward_time(name), "sum of per-layer minima over"
            else:
                value, how = statistics.median(samples), "median of"
            metrics[name] = {"value": value, "unit": unit, "how": how, "samples": len(samples),
                             "median": statistics.median(samples), "min": min(samples),
                             "max": max(samples)}
        return metrics

    def per_layer(self) -> dict:
        from per_layer import per_layer_metrics

        # A failed stage leaves a sample list empty; the run then reports
        # failures, and 0.0 stands in for the missing median.
        def median(values) -> float:
            return statistics.median(values) if values else 0.0

        forward_pc_s = self.forward_time("forward_pc_s")
        untraced = median(self.cycle_totals[False])
        overhead = median(self.cycle_totals[True]) - untraced
        return per_layer_metrics(
            self.spans,
            forward_s=self.forward_time("forward_s"),
            forward_pc_s=forward_pc_s,
            selected_fraction=self.selected / self.layers if self.layers else 0.0,
            overhead_s=overhead,
            overhead_ratio=overhead / untraced if untraced else 0.0,
        )

    def summarize(self, cycles: int) -> dict:
        metrics = self.per_layer() if self.trace else self.end_to_end()
        return {
            "stamp": self.stamp(cycles),
            "attempted": self.tally.attempted,
            "failed": len(self.tally.failures),
            "failures": self.tally.failures,
            "metrics": metrics,
            "samples": self.samples,
            "selected": f"{self.selected}/{self.layers}",
            "digests": self.digests,
            "note": STORE_NOTE,
        }


def report(bench: Bench, summary: dict) -> None:
    """Print the human-readable part of the result and keep the full result."""
    print(f"quantkit benchmark: workload={bench.name} seed={bench.seed} trace={int(bench.trace)}")
    print("env " + json.dumps(summary["stamp"], sort_keys=True))
    for name, m in summary["metrics"].items():
        extra = (f"  {m['how']} {m['samples']} (median {m['median']:.6g}, min {m['min']:.6g},"
                 f" max {m['max']:.6g})") if "samples" in m else ""
        print(f"{name:44s} {m['value']:.6g} {m['unit']}{extra}")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"{'error_rate':44s} {failed / attempted:.6g} ratio  (failed {failed} / attempted "
          f"{attempted})")
    if not bench.trace:
        fwd, pc = summary["metrics"].get("forward_s"), summary["metrics"].get("forward_pc_s")
        if fwd and pc:
            print(f"per-group tax: forward_s / forward_pc_s - 1 = {fwd['value'] / pc['value'] - 1:.4f}"
                  f" (forward_s {fwd['value']:.4f} s, forward_pc_s {pc['value']:.4f} s,"
                  f" selected {summary['selected']} layers)")
    for failure in summary["failures"][:20]:
        print(f"FAILED {failure}")
    for artifact, digest in sorted(summary["digests"].items()):
        print(f"sha256 {digest}  {artifact}")
    print(f"note: {summary['note']}")
    os.makedirs(OUT_ROOT, exist_ok=True)
    base = os.path.join(OUT_ROOT, f"{bench.name}-seed{bench.seed}-trace{int(bench.trace)}")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    if bench.trace:
        with open(base + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for span in bench.spans:
                fh.write(json.dumps(span) + "\n")
    print(f"full result in {os.path.relpath(base, ROOT)}.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "quantkit", "cli.py")):
        print(f"error: no quantkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    summary = bench.run()
    report(bench, summary)
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in summary["metrics"].items()}
    complete = bench.trace or len(metrics) == len(END_TO_END)
    print(json.dumps({
        "correct": summary["failed"] == 0 and complete,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
