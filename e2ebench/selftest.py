"""Self-test of the benchmark at tiny sizes; takes about a minute.

Usage, from the repository root:

    python3 e2ebench/selftest.py

Checks, and exits 1 on the first that does not hold:

1. Every workload passes untraced and traced, with every metric reported.
2. With one byte of every output flipped, every workload reads as
   failed_frac = 1, which proves the correctness gate bites.
3. In a directory that holds only ``BENCHMARK.json`` and the benchmark, the
   benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import BENCH, END_TO_END, PER_LAYER, ROOT, WORK, WORKLOADS


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--tiny", "--seconds", "1", "--seed", "7", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def main() -> int:
    for trace, names in (("0", END_TO_END), ("1", PER_LAYER)):
        code, result = bench("--workload", "all", "--trace", trace)
        expect(code == 0 and result is not None and result["correct"] and result["failed"] == 0,
               f"all workloads pass with --trace {trace}")
        wanted = {f"{w}.{m}" for w in WORKLOADS for m in names}
        expect(set(result["metrics"]) == wanted, f"every metric reported with --trace {trace}")

    for name in WORKLOADS:
        code, result = bench("--workload", name, "--trace", "0", "--corrupt")
        expect(code == 0 and result is not None and not result["correct"]
               and result["failed"] == result["attempted"] > 0,
               f"{name}: a flipped output byte reads as failed_frac = 1")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "e2ebench", ignore=shutil.ignore_patterns(
        ".work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = bench("--workload", "presets_cold", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and result is None, "without the program it exits non-zero, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
