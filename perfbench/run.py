"""deltaspace benchmark: four CLI workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload saturate --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its `src`.
One process, no threads, one client in a closed loop: every job is one or
more in-process `deltaspace.cli.main(argv)` calls on JSON inputs written
during set-up, and the jobs run one after another in a seeded order.

--trace 0 runs whole rounds of the job list until --seconds have passed
and reports the end-to-end metrics.  --trace 1 runs one warm-up round,
one round untraced, then the same round with every library layer wrapped
from outside (see tracer.py), and reports the per-layer metrics; its
counts repeat exactly for a seed and it ignores --seconds.  Either way
the outputs of every job are checked after the timed region, and the
last line of stdout is one JSON object.  NOTES.md explains the design.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
PROBE_EVERY_S = 0.2
PROBE_REF_S = 0.008

# The job_tail_ms percentile of each workload is fixed, so that a faster
# program, which completes more jobs, is not judged at a higher
# percentile.  Each is the highest percentile with at least 10 jobs
# beyond it in a 25 s run at the commit that defined the benchmark.
TAIL_PERCENTILE = {"saturate": 75, "extcheck": 75, "arrow": 97, "theory": 66}

END_TO_END = [("jobs_per_s", "1/s"), ("job_p50_ms", "ms"), ("job_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]


def load_library():
    """Import deltaspace afresh from the checkout's src directory."""
    for name in [m for m in sys.modules if m == "deltaspace" or m.startswith("deltaspace.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("deltaspace")
    if Path(package.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"deltaspace was imported from {package.__file__}, not from {SRC}")
    lib = types.SimpleNamespace(package=package)
    for layer in tracing.LAYERS:
        setattr(lib, layer, importlib.import_module(f"deltaspace.{layer}"))
    return lib


def setup(workload: str, seed: int, workdir: Path, probe):
    """Import plus input generation and writing, repeated; returns the
    last library and job list and the median set-up time, scaled."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = probe.sample()
        t0 = time.perf_counter()
        lib = load_library()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        rng = random.Random(seed)
        jobs = workloads.JOB_LISTS[workload](rng, workloads.Writer(str(workdir)), lib)
        rng.shuffle(jobs)
        times.append((time.perf_counter() - t0) * probe.scale_since(before))
    return lib, jobs, statistics.median(times)


def run_job(lib, job) -> list:
    """Run a job's CLI calls; each result is (exit code, stdout, stderr),
    with exit code None for an uncaught exception."""
    results = []
    for argv in job.calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = lib.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = None
                traceback.print_exc(file=err)
        results.append((rc, out.getvalue(), err.getvalue()))
    return results


def check_job(job, results):
    crashed = [r for r in results if r[0] is None]
    if crashed:
        return (workloads.FAIL, "uncaught exception: " + crashed[0][2].strip().splitlines()[-1])
    return job.check(results)


def digest(jobs, results, workdir: Path) -> str:
    """sha256 over (argv, exit code, stdout) of every job, in job order."""
    h = hashlib.sha256()
    for job, res in zip(jobs, results):
        for argv, (rc, out, _) in zip(job.calls, res):
            h.update(json.dumps([[a.replace(str(workdir), "") for a in argv], rc, out]).encode())
    return h.hexdigest()


def percentile(sorted_values, p: float):
    """Nearest-rank percentile and the number of values beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tally(verdicts, repeatable):
    """Failures over the distinct jobs of the list, not over repetitions,
    so that `attempted` and `failed` depend on the seed alone and not on
    how many rounds fit in the run.  A job fails on a failed check of its
    first output, or when a later round printed something else."""
    verdicts = [v if same else (workloads.FAIL, "output differs from the first round")
                for v, same in zip(verdicts, repeatable)]
    failures = [v for v in verdicts if v is not None]
    known = sum(v[0] == workloads.KNOWN_DEFECT for v in failures)
    return known == len(failures), len(failures), known, verdicts


def report_failures(verdicts, failed, known, attempted):
    print(f"fail_ratio {failed / attempted:.6g} (failed {failed} of {attempted} distinct jobs; "
          f"not in the metrics object: it is 0 on most workloads, and the attempted and "
          f"failed fields carry it)")
    if known:
        print(f"  {known} of the failures are the recorded defect: {workloads.KNOWN_DEFECT_CAUSE}")
    for i, v in enumerate(verdicts):
        if v is not None:
            print(f"  job {i} {v[0]}: {v[1]}")


class SpeedProbe:
    """Times a fixed loop of Fraction arithmetic, the kind of work the
    library spends its time on, between jobs at most every PROBE_EVERY_S.

    On a shared virtual machine the speed can swing by 2x from one second
    to the next, for reasons outside the process (its CPU time grows as
    fast as its wall time).  Each job's time is therefore scaled to a
    reference speed, at which the loop takes PROBE_REF_S: raw time *
    PROBE_REF_S / the mean probe time just before and after the job.
    """

    def __init__(self):
        self.samples = []
        self.last = -math.inf

    def sample(self) -> int:
        """Sample the speed if the last sample is old; return the index
        of the latest sample."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            t0 = time.perf_counter()
            x, acc = Fraction(1, 3), Fraction(0)
            for i in range(2000):
                acc += x * Fraction(i % 7 + 1, i % 5 + 1)
                if acc > 100:
                    acc = Fraction(0)
            self.last = time.perf_counter()
            self.samples.append(self.last - t0)
        return len(self.samples) - 1

    def scale_since(self, before: int) -> float:
        """The factor for a time measured since sample `before`: from the
        mean of that sample and those taken after it."""
        self.sample()
        return PROBE_REF_S / statistics.mean(self.samples[before:])


def timed_job(lib, job, probe):
    """Run a job; return its results, raw latency and scaled latency."""
    before = probe.sample()
    t0 = time.perf_counter()
    results = run_job(lib, job)
    raw = time.perf_counter() - t0
    return results, raw, raw * probe.scale_since(before)


def measure(seconds, lib, jobs, probe):
    """Whole rounds of the job list until `seconds` have passed.  Returns
    raw and scaled latencies in the order run, the first round's results,
    and for each job whether every later round printed the same."""
    raw, scaled, first = [], [], [None] * len(jobs)
    repeatable = [True] * len(jobs)
    t_start = time.perf_counter()
    while not scaled or time.perf_counter() - t_start < seconds:
        for i, job in enumerate(jobs):
            results, raw_s, scaled_s = timed_job(lib, job, probe)
            raw.append(raw_s)
            scaled.append(scaled_s)
            if first[i] is None:
                first[i] = results
            elif results != first[i]:
                repeatable[i] = False
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return raw, scaled, first, repeatable, rss_mb


def end_to_end(args, lib, jobs, setup_s, workdir):
    probe = SpeedProbe()
    raw, scaled, first, repeatable, rss_mb = measure(args.seconds, lib, jobs, probe)
    verdicts = [check_job(job, res) for job, res in zip(jobs, first)]
    correct, failed, known, verdicts = tally(verdicts, repeatable)
    # A job's latency is the median of its repetitions: the jobs are
    # deterministic, so what varies between repetitions is the machine.
    # Every repetition counts with the latency of its job.
    by_job = [statistics.median(scaled[i::len(jobs)]) for i in range(len(jobs))]
    n, p = len(scaled), TAIL_PERCENTILE[args.workload]
    lat = sorted(by_job[i % len(jobs)] for i in range(n))
    tail, beyond = percentile(lat, p)
    metrics = {
        "jobs_per_s": n / sum(scaled),
        "job_p50_ms": statistics.median(lat) * 1000,
        "job_tail_ms": tail * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    raw_lat = sorted(raw)
    print(f"workload {args.workload} seed {args.seed}: {n} jobs in {n // len(jobs)} rounds of {len(jobs)}, "
          f"{sum(raw):.3f} s of jobs, closed loop, one client")
    print(f"speed probe: median {statistics.median(probe.samples) * 1000:.3f} ms over {len(probe.samples)} "
          f"samples; times below are scaled to the reference {PROBE_REF_S * 1000:g} ms")
    print(f"raw: jobs_per_s {n / sum(raw):.6g}, job_p50_ms {statistics.median(raw_lat) * 1000:.6g}, "
          f"job_tail_ms {percentile(raw_lat, p)[0] * 1000:.6g}")
    for name, unit in END_TO_END:
        note = f" (p{p} of {n} jobs, {beyond} beyond it)" if name == "job_tail_ms" else ""
        print(f"{name} {metrics[name]:.6g} {unit}{note}")
    report_failures(verdicts, failed, known, len(jobs))
    print(f"digest {args.workload} seed {args.seed}: sha256 {digest(jobs, first, workdir)}")
    units = dict(END_TO_END)
    return correct, len(jobs), failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


# Per-layer metrics of the traced run: (name, unit, better, value from the tracer).
def _ratio(a, b):
    return a / b if b else 0.0


PER_LAYER = [
    ("cli.self_s", "s", "lower", lambda t: t.self_s["cli"]),
    ("cli.stdout_bytes", "bytes", "lower", lambda t: t.extra["cli.stdout_bytes"]),
    ("exact.construct.calls", "count", "lower", lambda t: t.calls["exact.construct"]),
    ("exact.compare.calls", "count", "lower", lambda t: t.calls["exact.compare"]),
    ("exact.arith.calls", "count", "lower", lambda t: t.calls["exact.arith"]),
    ("exact.parse.calls", "count", "lower", lambda t: t.calls["exact.parse"]),
    ("exact.parse.self_s", "s", "lower", lambda t: t.self_s["exact.parse"]),
    ("exact.self_s", "s", "lower", lambda t: t.layer_self_s("exact")),
    ("dvs.contains.calls", "count", "lower", lambda t: t.calls["dvs.contains"]),
    ("dvs.self_s", "s", "lower", lambda t: t.layer_self_s("dvs")),
    ("equiv.calls", "count", "lower", lambda t: t.layer_calls("equiv")),
    ("equiv.self_s", "s", "lower", lambda t: t.layer_self_s("equiv")),
    ("space.validate.calls", "count", "lower", lambda t: t.calls["space.validate"]),
    ("space.validate.self_s", "s", "lower", lambda t: t.self_s["space.validate"]),
    ("space.validate.triples", "count", "lower", lambda t: t.extra["space.validate.triples"]),
    ("space.copies_of.calls", "count", "lower", lambda t: t.calls["space.copies_of"]),
    ("space.copies_of.self_s", "s", "lower", lambda t: t.self_s["space.copies_of"]),
    ("space.copies_of.subsets", "count", "lower", lambda t: t.extra["space.copies_of.subsets"]),
    ("space.isomorphic.calls", "count", "lower", lambda t: t.calls["space.isomorphic"]),
    ("space.induced.calls", "count", "lower", lambda t: t.calls["space.induced"]),
    ("space.rank.calls", "count", "lower", lambda t: t.calls["space.rank"]),
    ("space.self_s", "s", "lower", lambda t: t.layer_self_s("space")),
    ("amalgam.free_amalgam.calls", "count", "lower", lambda t: t.calls["amalgam.free_amalgam"]),
    ("amalgam.free_amalgam.self_s", "s", "lower", lambda t: t.self_s["amalgam.free_amalgam"]),
    ("amalgam.cap_distances.self_s", "s", "lower", lambda t: t.self_s["amalgam.cap_distances"]),
    ("amalgam.extend_order.self_s", "s", "lower", lambda t: t.self_s["amalgam.extend_order"]),
    ("amalgam.self_s", "s", "lower", lambda t: t.layer_self_s("amalgam")),
    ("limitbuilder.realize.calls", "count", "lower", lambda t: t.calls["limitbuilder.realize"]),
    ("limitbuilder.realize.self_s", "s", "lower", lambda t: t.self_s["limitbuilder.realize"]),
    ("limitbuilder.points_added", "count", "lower", lambda t: t.extra["limitbuilder.points_added"]),
    ("limitbuilder.saturate.self_s", "s", "lower", lambda t: t.self_s["limitbuilder.saturate"]),
    ("limitbuilder.find_realizer.calls", "count", "lower", lambda t: t.calls["limitbuilder.find_realizer"]),
    ("limitbuilder.find_realizer.self_s", "s", "lower", lambda t: t.self_s["limitbuilder.find_realizer"]),
    ("limitbuilder.find_realizer.hit_ratio", "ratio", "higher",
     lambda t: _ratio(t.extra["limitbuilder.find_realizer.found"], t.calls["limitbuilder.find_realizer"])),
    ("limitbuilder.extensions_checked", "count", "lower", lambda t: t.extra["limitbuilder.extensions_checked"]),
    ("limitbuilder.extension_property_check.self_s", "s", "lower",
     lambda t: t.self_s["limitbuilder.extension_property_check"]),
    ("limitbuilder.self_s", "s", "lower", lambda t: t.layer_self_s("limitbuilder")),
    ("ramsey.arrow.self_s", "s", "lower", lambda t: t.self_s["ramsey.arrow"]),
    ("ramsey.nodes", "count", "lower", lambda t: t.extra["ramsey.nodes"]),
    ("ramsey.nodes_per_s", "1/s", "higher", lambda t: _ratio(t.extra["ramsey.nodes"], t.self_s["ramsey.arrow"])),
    ("ramsey.verify_bad_coloring.self_s", "s", "lower", lambda t: t.self_s["ramsey.verify_bad_coloring"]),
    ("ramsey.self_s", "s", "lower", lambda t: t.layer_self_s("ramsey")),
    ("coding.model_encode.self_s", "s", "lower", lambda t: t.self_s["coding.model_encode"]),
    ("coding.default_sample_q.self_s", "s", "lower", lambda t: t.self_s["coding.default_sample_q"]),
    ("coding.check_theory_T.self_s", "s", "lower", lambda t: t.self_s["coding.check_theory_T"]),
    ("coding.triangle_structure.self_s", "s", "lower", lambda t: t.self_s["coding.triangle_structure"]),
    ("coding.ts_isomorphic.self_s", "s", "lower", lambda t: t.self_s["coding.ts_isomorphic"]),
    ("coding.sample_q", "count", "lower", lambda t: t.extra["coding.sample_q"]),
    ("coding.self_s", "s", "lower", lambda t: t.layer_self_s("coding")),
    ("trace.overhead_ratio", "ratio", "lower", lambda t: t.extra["trace.overhead_ratio"]),
]


def one_round(lib, jobs, probe):
    """Run every job once; return the results and the total scaled time."""
    runs = [timed_job(lib, job, probe) for job in jobs]
    return [results for results, _, _ in runs], sum(scaled for _, _, scaled in runs)


def traced(args, lib, jobs, workdir):
    probe = SpeedProbe()
    # An untimed first round: the interpreter specialises hot code on its
    # first executions, which would otherwise count as tracing overhead.
    first, _ = one_round(lib, jobs, probe)
    plain, plain_s = one_round(lib, jobs, probe)
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        results, traced_s = one_round(lib, jobs, probe)
    finally:
        tracer.uninstall()
    tracer.extra["cli.stdout_bytes"] = sum(len(out.encode()) for res in results for _, out, _ in res)
    tracer.extra["trace.overhead_ratio"] = traced_s / plain_s
    verdicts = [check_job(job, res) for job, res in zip(jobs, first)]
    repeatable = [plain[i] == first[i] and results[i] == first[i] for i in range(len(jobs))]
    correct, failed, known, verdicts = tally(verdicts, repeatable)
    print(f"workload {args.workload} seed {args.seed}: one round of {len(jobs)} jobs, "
          f"{plain_s:.3f} s untraced, {traced_s:.3f} s traced, both scaled to the reference speed; "
          f"the per-layer times below are raw")
    metrics = {}
    for name, unit, _, value in PER_LAYER:
        metrics[name] = {"value": value(tracer), "unit": unit}
        print(f"{name} {metrics[name]['value']:.6g} {unit}")
    report_failures(verdicts, failed, known, len(jobs))
    print(f"digest {args.workload} seed {args.seed}: sha256 {digest(jobs, first, workdir)}")
    return correct, len(jobs), failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.JOB_LISTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        try:
            lib, jobs, setup_s = setup(args.workload, args.seed, workdir, SpeedProbe())
        except ImportError as exc:
            print(f"cannot import deltaspace from {SRC}: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            correct, attempted, failed, metrics = traced(args, lib, jobs, workdir)
        else:
            correct, attempted, failed, metrics = end_to_end(args, lib, jobs, setup_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
