"""The timed part of one benchmark job, run in a fresh interpreter.

`run.py` starts this script once per job with ``PYTHONPATH`` set to the
checkout's ``src``, writes the job as JSON to its stdin and reads one JSON
line back.  Importing ``coverlab.cli`` comes first: ``setup_s`` runs from
just before the parent started this interpreter (its one argument, on the
system-wide monotonic clock) until that import returns, the set-up every
``coverlab`` command pays.
"""

import time

import coverlab.cli

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402  (after the set-up measurement)
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from coverlab.covers import CoveringSystem, ResidueClass  # noqa: E402

from spans import Tracer  # noqa: E402

# This machine (2 vCPUs of a shared Xeon) runs pure-Python code up to 50%
# slower at some times than at others, for minutes at a stretch, and all
# such code alike.  Every time a worker reports is therefore scaled to the
# speed at which calibrate() takes REFERENCE_CALIBRATION_S.
REFERENCE_CALIBRATION_S = 0.008
RECALIBRATE_AFTER_S = 0.5


# Each operation looks its function up at call time, so an installed
# Tracer's wrapper is the one that runs.
def _reproduce(target: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = coverlab.cli.main(["reproduce", target, "--json"])
    return code, out.getvalue()


def _factor(n: int):
    return coverlab.arith.factor(n)


def _primitive(n: int):
    return coverlab.mersenne.find_primitive_divisors(n)


def _sieve(system: CoveringSystem):
    return coverlab.covers.verify_cover(system)


def _encode_reproduce(result) -> dict:
    code, stdout = result
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return {"exit": code, "stdout": stdout}
    report.pop("wall_time_s")   # the one field that differs from run to run
    return {"exit": code, "report": report}


def _encode_factor(result) -> dict:
    return {"factors": [list(pe) for pe in result.factors],
            "cofactor": result.cofactor}


def _encode_primitive(result) -> dict:
    witnesses, complete = result
    return {"witnesses": [[w.p, w.alpha] for w in witnesses],
            "complete": complete}


def _encode_sieve(result) -> dict:
    return {"is_cover": result.is_cover, "lcm": result.lcm,
            "witness": result.uncovered_witness}


def _covers(raw):
    return [CoveringSystem([ResidueClass(a, n) for a, n in classes])
            for classes in raw]


# kind -> (operand decoder, operation, result encoder)
KINDS = {
    "reproduce": (list, _reproduce, _encode_reproduce),
    "factor": (list, _factor, _encode_factor),
    "primitive": (list, _primitive, _encode_primitive),
    "sieve": (_covers, _sieve, _encode_sieve),
}


def run_job(job: dict, trace: bool, calibration: float) -> dict:
    """Run one job's operations closed-loop, timing only the calls.

    The calls are timed in segments of at least RECALIBRATE_AFTER_S, with a
    calibration between segments; each segment is scaled to the reference
    speed by the mean of the calibrations around it.  `calibration` is the
    one taken just before.  A call that raises is recorded as an error
    output; the parent's checks count it as failed.
    """
    decode, operation, encode = KINDS[job["kind"]]
    operands = decode(job["operands"])
    tracer = Tracer() if trace else None
    results = []
    wall = scaled = 0.0
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for i, operand in enumerate(operands):
            try:
                results.append(operation(operand))
            except Exception as exc:  # noqa: BLE001 -- reported, counted as failed
                results.append(exc)
            elapsed = time.perf_counter() - start
            if elapsed >= RECALIBRATE_AFTER_S or i == len(operands) - 1:
                after = calibrate()
                wall += elapsed
                scaled += elapsed * REFERENCE_CALIBRATION_S / ((calibration + after) / 2)
                calibration = after
                start = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    outputs = [{"error": repr(r)} if isinstance(r, Exception) else encode(r)
               for r in results]
    layers = None
    if tracer is not None:
        layers = {k: v * scaled / wall if k.endswith("_s") else v
                  for k, v in tracer.stats().items()}
    return {"elapsed_s": scaled, "wall_s": wall, "outputs": outputs, "layers": layers}


def calibrate() -> float:
    """Median seconds, over three repetitions, of fixed pure-Python work of
    the kinds coverlab does: list updates, trial division and big-integer
    squaring."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        counts = [0] * 50_000
        for i in range(0, 50_000, 2):
            counts[i] += 1
        n = (1 << 61) - 1
        for d in range(3, 33_000, 2):
            n % d
        x, m = 3, (1 << 101) - 1
        for _ in range(13_000):
            x = (x * x + 1) % m
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_kib() -> int:
    """This process's peak resident set (VmHWM).

    Not ru_maxrss: on Linux that keeps the parent's peak across the exec
    that started this interpreter.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def main() -> int:
    job = json.load(sys.stdin)
    calibration = calibrate()
    result = {} if job["kind"] == "probe" else run_job(job, job["trace"], calibration)
    result["setup_wall_s"] = IMPORTED_AT - float(sys.argv[1])
    result["setup_s"] = result["setup_wall_s"] * REFERENCE_CALIBRATION_S / calibration
    result["coverlab_file"] = coverlab.__file__
    result["peak_rss_kib"] = peak_rss_kib()
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
