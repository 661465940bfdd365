"""Self-test: a corrupted artifact must count as a failed operation.

Usage (from the repository root): python3 perfbench/selftest.py

Runs one short ``desk`` cycle twice with the same seed: once untouched,
where every check must pass, and once with one byte of the quantized blob
flipped right after the ``quantize`` stage wrote it, where the error rate
must rise above 0.  Exits 0 when both hold.
"""

from __future__ import annotations

import os
import sys

import run

SEED = 7


def flip_quantized_byte(stage: str, workdir: str) -> None:
    if stage != "quantize":
        return
    # The blob starts with blocks.0.q's int8 codes; inverting one code
    # moves it by at least one quantization step.
    with open(os.path.join(workdir, "quant.bin"), "r+b") as fh:
        fh.seek(5)
        byte = fh.read(1)[0]
        fh.seek(5)
        fh.write(bytes([byte ^ 0xFF]))


def error_rate(after_stage=None) -> tuple[float, dict]:
    summary = run.Bench("desk", SEED, 0.0, False, after_stage=after_stage).run()
    return summary["failed"] / summary["attempted"], summary


def main() -> int:
    clean, clean_summary = error_rate()
    corrupted, summary = error_rate(flip_quantized_byte)
    print(f"clean run:     error_rate {clean:.6g} "
          f"(failed {clean_summary['failed']} / attempted {clean_summary['attempted']})")
    print(f"corrupted run: error_rate {corrupted:.6g} "
          f"(failed {summary['failed']} / attempted {summary['attempted']})")
    for failure in summary["failures"][:10]:
        print(f"  FAILED {failure}")
    ok = clean == 0 and corrupted > 0
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
