"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [--workload NAME ...]

For each workload, in fresh processes:
  * two traced runs on one seed give identical counts and digests;
  * an untraced run on the same seed prints the same digest, so stdout is
    byte-identical with tracing on and off (each traced run also compares
    its traced round with an untraced one, job by job);
  * a run on a second seed is correct;
  * `attempted` and `failed` are the same in all of these runs, so they
    depend neither on the seed nor on how many rounds a run completes;
and BENCHMARK.json names exactly the metrics that run.py reports.
Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED, OTHER_SEED = 1, 2


def bench(workload: str, seed: int, trace: int):
    """Run the benchmark in a fresh process; return (report lines, result)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=run.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def digest_of(lines) -> str:
    return next(re.search(r"sha256 (\w+)", line).group(1) for line in lines if line.startswith("digest "))


def timing(name: str, unit: str) -> bool:
    return unit in ("s", "1/s") or name == "trace.overhead_ratio"


def check_workload(workload: str) -> list[str]:
    problems = []
    lines1, traced1 = bench(workload, SEED, 1)
    lines2, traced2 = bench(workload, SEED, 1)
    for name, unit, _, _ in run.PER_LAYER:
        a, b = traced1["metrics"][name]["value"], traced2["metrics"][name]["value"]
        if not timing(name, unit) and a != b:
            problems.append(f"{name} differs between two traced runs: {a} != {b}")
    plain_lines, plain = bench(workload, SEED, 0)
    if not digest_of(lines1) == digest_of(lines2) == digest_of(plain_lines):
        problems.append("digest differs between traced and untraced runs")
    for label, result in (("traced", traced1), ("traced again", traced2), ("untraced", plain)):
        if not result["correct"]:
            problems.append(f"{label} run on seed {SEED} is not correct")
    _, other = bench(workload, OTHER_SEED, 0)
    if not other["correct"]:
        problems.append(f"run on seed {OTHER_SEED} is not correct")
    counts = {(r["attempted"], r["failed"]) for r in (traced1, traced2, plain, other)}
    if len(counts) != 1:
        problems.append(f"attempted and failed differ between runs: {sorted(counts)}")
    return problems


def check_declared() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != run.END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {declared} != run.py {run.END_TO_END}")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    reported = [(name, unit, better) for name, unit, better, _ in run.PER_LAYER]
    if declared != reported:
        problems.append("BENCHMARK.json per_layer differs from run.py PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.workloads.JOB_LISTS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(run.workloads.JOB_LISTS))
    args = ap.parse_args()
    failed = False
    for name, problems in [("BENCHMARK.json", check_declared())] + [
        (w, check_workload(w)) for w in args.workload or list(run.workloads.JOB_LISTS)
    ]:
        print(f"{name}: {'PASS' if not problems else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
