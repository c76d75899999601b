"""coverlab benchmark: closed-loop workloads with every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the code under ``src``.
One client drives one call at a time: each job of a pass runs in a fresh
interpreter (worker.py), and the next job starts only after the previous one
has returned, as a user running ``coverlab`` commands does.  Passes repeat
until S seconds have gone by.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json: ``setup_s`` (fresh interpreter to ``import coverlab.cli``
done), ``pass_s`` (one pass's timed calls) and ``peak_rss_mb`` (the largest
peak resident set of a pass's interpreters), each the median over the run.

Times are reported at a reference speed: the worker times a fixed
calibration loop between its timed segments and scales each segment by it
(see worker.py).  Wall-clock medians are printed on the details line too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import per_layer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 5
JOB_TIMEOUT_S = 120
MAX_REPORTED_FAILURES = 5


class WorkerError(RuntimeError):
    """A worker interpreter crashed, timed out or printed no result."""


def spawn(job: dict, trace: bool) -> dict:
    """Run one job in a fresh interpreter and return its result."""
    env = {k: v for k, v in os.environ.items() if k != "COVERLAB_ASSETS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    payload = json.dumps({**job, "trace": trace})
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), repr(started)], input=payload,
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{job['kind']} job ran over {JOB_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{job['kind']} job exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not Path(result["coverlab_file"]).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"worker imported coverlab from {result['coverlab_file']}, "
                 f"not from {ROOT / 'src'}")
    return result


def run_pass(jobs: list[dict], trace: bool) -> dict:
    results, error = [], None
    for job in jobs:
        try:
            results.append(spawn(job, trace))
        except WorkerError as exc:
            error = str(exc)
            results.append({"outputs": [{"error": error}] * len(job["operands"])})
    record = {"jobs": jobs, "results": results, "error": error}
    if error is None:
        record["elapsed"] = [r["elapsed_s"] for r in results]
        record["pass_s"] = sum(record["elapsed"])
        record["pass_wall_s"] = sum(r["wall_s"] for r in results)
    return record


def check_pass(workload, record: dict, failures: list[str]) -> tuple[int, int]:
    """Check every output of a pass; return (attempted, failed)."""
    attempted = failed = 0
    for job, result in zip(record["jobs"], record["results"]):
        outputs = result["outputs"]
        for i in range(len(job["operands"])):
            attempted += 1
            problem = ("no output" if i >= len(outputs)
                       else workload.check(job, i, outputs[i]))
            if problem:
                failed += 1
                failures.append(problem)
    return attempted, failed


def count_mismatches(untraced: dict, traced: dict, failures: list[str]) -> int:
    """Operations whose traced output differs from the untraced one."""
    mismatched = 0
    for job, plain, wrapped in zip(untraced["jobs"], untraced["results"], traced["results"]):
        for i, (a, b) in enumerate(zip(plain["outputs"], wrapped["outputs"])):
            if a != b:
                mismatched += 1
                failures.append(f"{job['kind']} operand {i}: traced output differs")
    return mismatched


def environment(args, passes: int) -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    l3 = ""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if read(f"{index}/level").strip() == "3":
            l3 = read(f"{index}/size").strip()
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coverlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "l3_cache": l3,
        "python": platform.python_version(), "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coverlab" / "cli.py").is_file():
        print(f"no coverlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT, args.seed)

    probes = [spawn({"kind": "probe"}, False) for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    attempted = failed = 0
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds:
        index = len(passes)
        jobs = workload.jobs(random.Random(f"{args.workload}:{args.seed}:{index}"), index)
        runs = [run_pass(jobs, trace=False)]
        if args.trace:
            runs.append(run_pass(jobs, trace=True))
        for record in runs:
            tried, bad = check_pass(workload, record, failures)
            attempted, failed = attempted + tried, failed + bad
        if args.trace:
            failed += count_mismatches(runs[0], runs[1], failures)
            traced.append(runs[1])
        passes.append(runs[0])
        if any(record["error"] for record in runs):
            break   # a crashed or hung worker ends the run; its operations count as failed

    timed = [p for p in passes if "pass_s" in p]
    timed_traced = [p for p in traced if "pass_s" in p]
    if not timed or (args.trace and not timed_traced):
        print(f"no pass completed: {failures[:MAX_REPORTED_FAILURES]}", file=sys.stderr)
        return 1
    for problem in failures[:MAX_REPORTED_FAILURES]:
        print(f"check failed: {problem}", file=sys.stderr)

    pass_s = [p["pass_s"] for p in timed]
    started = probes + [r for p in passes + traced for r in p["results"] if "setup_s" in r]
    setup = [r["setup_s"] for r in started]
    env = environment(args, len(passes))
    if args.trace:
        untraced_s = statistics.median(pass_s)
        traced_s = statistics.median([p["pass_s"] for p in timed_traced])
        env["trace_overhead_s"] = traced_s - untraced_s
        env["trace_overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    else:
        env["trace_overhead_s"] = env["trace_overhead_ratio"] = None
    print(json.dumps({"environment": env}))
    print(json.dumps({"details": workload.details(timed),
                      "pass_s_quartiles": quartiles(pass_s),
                      "pass_wall_s": statistics.median(p["pass_wall_s"] for p in timed),
                      "setup_wall_s": statistics.median(r["setup_wall_s"] for r in started),
                      "setup_samples": len(setup)}))

    if args.trace:
        values = per_layer([r["layers"] for p in timed_traced for r in p["results"]],
                           len(timed_traced))
        values["traced.pass_s"] = statistics.fmean(p["pass_s"] for p in timed_traced)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(pass_s),
            "peak_rss_mb": statistics.median(
                max(r["peak_rss_kib"] for r in p["results"]) / 1024 for p in timed),
        }
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
