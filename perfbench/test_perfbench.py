"""Tests of the benchmark's own machinery: tracing, seeded inputs, oracles.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import worker  # noqa: E402  (imports coverlab.cli, hence every layer module)
import workloads  # noqa: E402

ROOT = HERE.parent
CLASSICAL = [[0, 2], [0, 3], [1, 4], [3, 8], [7, 12], [23, 24]]

JOBS = {
    "reproduce": {"kind": "reproduce", "operands": ["thm13", "cases", "erdos"]},
    "factor": {"kind": "factor",
               "operands": [1, 2, 97, 10**6 - 1, 600851475143, 2**61 - 1, 2**64 + 1]},
    "primitive": {"kind": "primitive", "operands": [2, 12, 67, 71]},
    "sieve": {"kind": "sieve", "operands": [CLASSICAL, CLASSICAL[:-1]]},
}


@pytest.mark.parametrize("kind", sorted(JOBS))
def test_traced_and_untraced_outputs_are_identical(kind):
    plain = worker.run_job(JOBS[kind], False, worker.calibrate())
    traced = worker.run_job(JOBS[kind], True, worker.calibrate())
    assert plain["outputs"] == traced["outputs"]
    assert not any("error" in out for out in plain["outputs"])
    assert plain["layers"] is None and traced["layers"]


def _namespaces():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "coverlab" or name.startswith("coverlab.")
            for attr, value in vars(module).items()}


def test_uninstall_restores_every_patched_attribute():
    before = _namespaces()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _namespaces()
        changed = {key for key in before if during[key] is not before[key]}
        assert {("coverlab.arith", "factor"), ("coverlab.mersenne", "factor"),
                ("coverlab.certify", "factor"), ("coverlab.construct", "factor"),
                ("coverlab.cli", "factor"), ("coverlab.assets", "load_cover"),
                ("coverlab.cli", "load_cover"), ("coverlab.cli", "main")} <= changed
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("kind", ["reproduce", "primitive"])
def test_self_times_are_nonnegative_and_within_wall_time(kind):
    result = worker.run_job(JOBS[kind], True, worker.calibrate())
    layers = result["layers"]
    self_times = [v for k, v in layers.items() if k.endswith(".self_s")]
    assert min(self_times) >= 0
    assert sum(self_times) <= result["elapsed_s"]
    # The spans nest: cli.main or find_primitive_divisors enclose factor calls.
    assert layers["arith.factor.calls"] > 0


def test_per_layer_reports_every_metric_and_ratios_on_their_base():
    stats = [{"certify.check_exclusion.calls": 4, "certify.valid": 3,
              "arith.factor.calls": 10, "arith.factor.self_s": 0.5}]
    out = spans.per_layer(stats, passes=2)
    assert list(out) == spans.metric_names()
    assert out["certify.valid_ratio"] == 0.75
    assert out["arith.factor.calls"] == 5
    assert out["mersenne.find_primitive_divisors.complete"] == 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    def draw(seed):
        workload = workloads.WORKLOADS[name](ROOT, seed)
        return [workload.jobs(random.Random(f"{name}:{seed}:{i}"), i) for i in range(2)]

    assert draw(5) == draw(5)


def test_sieve_inputs_have_the_stated_lcms_and_hole():
    sieve = workloads.Sieve(ROOT, 0)
    for (cover, twin), lcm in zip(sieve.pairs, workloads.Sieve.LCMS):
        assert len(cover) == 5 + 173 and len(twin) == 4 + 173
        assert all(workloads._covered(x, cover) for x in range(1000))
        assert [x for x in range(1000) if not workloads._covered(x, twin)][:2] == [23, 47]
    job = sieve.jobs(random.Random(1), 0)[0]
    assert sorted(job["operands"][0]) == sorted(sieve.pairs[0][0])
    assert job["expect"] == [True, False]


def test_checks_reject_wrong_outputs():
    factor = workloads.Factor(ROOT, 0)
    job = {"kind": "factor", "operands": [12]}
    assert factor.check(job, 0, {"factors": [[2, 2], [3, 1]], "cofactor": 1}) is None
    assert factor.check(job, 0, {"factors": [[2, 1], [3, 1]], "cofactor": 1})
    assert factor.check(job, 0, {"factors": [[4, 1], [3, 1]], "cofactor": 1})
    assert factor.check(job, 0, {"factors": [[2, 2]], "cofactor": 3})

    primitive = workloads.Primitive(ROOT, 0)
    job = {"kind": "primitive", "operands": [12]}      # Phi_12(2) = 13
    assert primitive.check(job, 0, {"witnesses": [[13, 1]], "complete": True}) is None
    assert primitive.check(job, 0, {"witnesses": [[7, 1]], "complete": True})
    assert primitive.check(job, 0, {"witnesses": [], "complete": True})
    assert primitive.check(job, 0, {"witnesses": [[13, 1]], "complete": False})

    sieve = workloads.Sieve(ROOT, 0)
    job = {"kind": "sieve", "operands": [CLASSICAL, CLASSICAL[:-1]],
           "expect": [True, False]}
    assert sieve.check(job, 0, {"is_cover": True, "lcm": 24, "witness": None}) is None
    assert sieve.check(job, 0, {"is_cover": False, "lcm": 24, "witness": 5})
    assert sieve.check(job, 1, {"is_cover": False, "lcm": 24, "witness": 23}) is None
    assert sieve.check(job, 1, {"is_cover": False, "lcm": 24, "witness": 22})
    assert sieve.check(job, 1, {"is_cover": True, "lcm": 24, "witness": None})

    reproduce = workloads.Reproduce(ROOT, 0)
    job = {"kind": "reproduce", "operands": ["cases"]}

    def report(valid):
        return {"outcome": "pass", "detail": [{"valid_cases": valid}]}

    assert reproduce.check(job, 0, {"exit": 0, "report": report("25/25")}) is None
    assert reproduce.check(job, 0, {"exit": 0, "report": report("24/25")})
    assert reproduce.check(job, 0, {"exit": 1, "report": report("25/25")})
    assert reproduce.check(job, 0, {"exit": 0, "stdout": "Traceback"})


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "pass_s", "peak_rss_mb"}
    assert [m["name"] for m in spec["per_layer"]] == spans.metric_names() + ["traced.pass_s"]
