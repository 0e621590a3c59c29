"""Tests of the benchmark itself: generator, checker, metric names, tracer.

    python -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from itertools import islice

import pytest

from check import check, command_of, report_digest
from jobs import ROOT, SRC
from run import END_TO_END, PER_LAYER
from tracing import Tracer
from workloads import WORKLOADS, catalogue, probes, rounds


def _argv_lists(workload, seed, n=3):
    return json.dumps([[list(j.argv) for g in r for j in g.jobs]
                       for r in islice(rounds(workload, seed), n)])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic(workload):
    assert _argv_lists(workload, 7) == _argv_lists(workload, 7)
    assert _argv_lists(workload, 7) != _argv_lists(workload, 8)


def test_pinned_jobs_come_from_the_catalogue():
    pinned = {" ".join(argv) for argv in catalogue()}
    for workload in WORKLOADS:
        for round_ in islice(rounds(workload, 3), 5):
            for job in (j for g in round_ for j in g.jobs):
                if job.argv[0] in ("decompose", "hk", "l-set"):
                    assert " ".join(job.argv) in pinned
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    assert set(digests) == {k for k in pinned if k.split()[0] in ("decompose", "hk", "l-set")}


def test_probes_only_on_exhaustive_search():
    assert probes("sieve_scan", 1) == [] and len(probes("exhaustive_search", 1)) == 2


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_rounds_repeat_the_same_jobs(workload):
    # the runner takes each job's median over rounds by its position
    shapes = {tuple(command_of(j.argv) for g in r for j in g.jobs)
              for r in islice(rounds(workload, 5), 6)}
    assert len(shapes) == 1


def _report(result, witnesses=()):
    return json.dumps({"command": "x", "params": {}, "result": result,
                       "witnesses": list(witnesses), "elapsed_ms": 3, "version": "0"})


def test_checker_accepts_and_rejects_sieve_counts():
    argv = ("sieve", "--limit", "100")
    good = {"limit": 100, "prime_count": 25, "largest_prime": 97, "cache": None,
            "cache_used": False}
    assert check(argv, 0, _report(good)) is None
    assert "prime_count" in check(argv, 0, _report(dict(good, prime_count=26)))
    assert check(argv, 1, _report(good)) == "exit 1"
    assert "cache_used" in check(argv, 0, _report(good), expect=(("cache_used", True),))


def test_checker_rejects_witness_with_composite_prime():
    argv = ("witness", "add", "--b", "0,2", "--n0", "9")
    def witness(n):
        return {"b": [0, 2], "tuple": [-2, 2], "case": "pair", "n": n,
                "primes": [n - 2, n + 2], "validated": True}
    result = {"b": [0, 2], "found": True}
    assert check(argv, 0, _report(dict(result, n=15), [witness(15)])) is None
    assert "composite" in check(argv, 0, _report(dict(result, n=25), [witness(25)]))
    assert "n0" in check(argv, 0, _report(dict(result, n=9), [witness(9)]))


def test_checker_rejects_changed_pinned_report():
    argv = ("hk", "--gamma", "2,3", "--k", "2", "--limit", "10")
    stdout = _report({"count": 2, "elements": [3, 5]})
    digests = {" ".join(argv): report_digest(json.loads(stdout))}
    assert check(argv, 0, stdout, digests=digests) is None
    assert "digest" in check(argv, 0, _report({"count": 2, "elements": [3, 6]}), digests=digests)
    assert "digest" in check(argv, 0, stdout, digests={})


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_self_time_on_synthetic_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.job = 0
    a = tracer.enter("a")          # 0 .. 10
    b = tracer.enter("b")          # 1 .. 3
    tracer.exit(b)
    c = tracer.enter("c")          # 4 .. 8
    h = tracer.enter("h", hot=True)  # 5 .. 6, aggregated, no span
    tracer.exit(h)
    tracer.exit(c)
    tracer.exit(a)
    self_s = {name: total[1] for name, total in tracer.totals.items()}
    assert self_s == {"a": 4.0, "b": 2.0, "c": 3.0, "h": 1.0}
    spans = {s["name"]: s for s in tracer.spans}
    assert set(spans) == {"a", "b", "c"}
    assert spans["a"]["parent"] is None
    assert spans["b"]["parent"] == spans["c"]["parent"] == spans["a"]["id"]
    assert all(s["job"] == 0 for s in spans.values())


def test_wrappers_reach_names_imported_by_other_modules():
    code = f"""
import io, sys
from contextlib import redirect_stdout
sys.path[:0] = [{str(SRC)!r}, {str(ROOT / 'perfbench')!r}]
import decomplab.cli as cli
from tracing import Tracer, install
tracer = Tracer()
install(tracer)
with redirect_stdout(io.StringIO()):
    assert cli.run(["sieve", "--limit", "100", "--json"]) == 0
    assert cli.run(["tuple", "find", "--offsets=0,2", "--window", "0,50", "--json"]) == 0
assert tracer.calls("cli.run") == 2
assert tracer.calls("arith.sieve") == 2, tracer.totals
assert tracer.counters["arith.sieve.ints"] == 101 + 53
assert tracer.counters["tuples.find_constellation.ints_scanned"] == 51
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
