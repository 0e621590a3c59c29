"""decomplab benchmark: closed-loop batches of CLI jobs, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, then the traced pass

With --trace 0 each job of the workload's seeded rounds is spawned as
`python -m decomplab <argv> --json`, timed from spawn to exit, measured for
peak RSS through wait4, and its report checked independently. Rounds run
whole, and another starts only while it is expected to end within
--seconds. With --trace 1 a child process replays the first rounds
in-process (tracing.py) and the per-layer metrics come from its spans.
Human-readable lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import time
from collections import Counter

from check import check, load_digests
from jobs import ROOT, SRC, WORK_DIR, Launcher, Outcome, remove_files
from workloads import DEFAULT_SEED, WORKLOADS, Job, probes, rounds

SETUP_ARGV = ("tuple", "admissible", "--offsets", "0,2")
SETUP_RUNS = 10  # no-work invocations, one every --seconds / SETUP_RUNS
IMPORT_RUNS = 5
TRACE_TIMEOUT_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rss_p50_mb", "MiB"),
)

_SELF = ("self_s", "s")
_CALLS = ("calls", "count")
PER_LAYER = tuple(
    (f"{layer}.{key}", unit)
    for layer, keys in (
        ("cli.run", (_CALLS, _SELF)),
        ("cli", (("report_bytes", "bytes"), ("import_s", "s"))),
        ("arith.sieve", (_CALLS, _SELF, ("ints", "count"))),
        ("arith.PrimeSieve.mask", (_CALLS, _SELF, ("bytes_computed", "bytes"))),
        ("arith.PrimeSieve.primes", (_SELF,)),
        ("arith.PrimeSieve.count", (_SELF,)),
        ("arith.PrimeSieve.save", (_SELF, ("bytes", "bytes"))),
        ("arith.PrimeSieve.load", (_SELF, ("bytes", "bytes"))),
        ("arith.smooth_set", (_SELF,)),
        ("arith.shifted_smooth_set", (_SELF,)),
        ("arith.is_prime", (_CALLS, _SELF)),
        ("arith.factorize", (_CALLS, _SELF)),
        ("sets.IntegerSet.init", (_CALLS, ("elements", "count"), _SELF)),
        ("sets.IntegerSet.as_mask", (_SELF,)),
        ("sets.IntegerSet.load_text", (_SELF, ("bytes", "bytes"))),
        ("sets.IntegerSet.save_text", (_SELF, ("bytes", "bytes"))),
        ("sets.decompose_search", (_SELF, ("candidates", "count"), ("accepted", "count"),
                                   ("accept_ratio", "1"))),
        ("sets.verify_composite_decomposition", (_SELF, ("ints", "count"))),
        ("sets.sumset", (_SELF,)),
        ("sets.productset", (_SELF,)),
        ("sets.windowed_equal", (_SELF,)),
        ("tuples.find_constellation", (_CALLS, _SELF, ("ints_scanned", "count"))),
        ("tuples.additive_witness", (_SELF, ("scan_efficiency", "1"))),
        ("mwitness.build_plan", (_SELF,)),
        ("mwitness.multiplicative_witness", (_SELF, ("prime_tests", "count"), ("hit_ratio", "1"))),
        ("semigroup.solve_sunit", (_SELF, ("tuples", "count"), ("classes", "count"))),
        ("semigroup.h_family", (_SELF,)),
        ("semigroup.l_set", (_SELF,)),
        ("semigroup.enumerate_semigroup", (_SELF,)),
        ("semigroup.mprimitivity_scan", (_SELF,)),
        ("semigroup.verify_exceptional_factorization", (_SELF,)),
        ("semigroup.solve_two_term", (_SELF,)),
        ("trace", (("wall_s", "s"), ("overhead_ratio", "1"))),
    )
    for key, unit in keys
)

# ratio metric -> (numerator counter, denominator counter)
_RATIOS = {
    "sets.decompose_search.accept_ratio":
        ("sets.decompose_search.accepted", "sets.decompose_search.candidates"),
    "tuples.additive_witness.scan_efficiency":
        ("tuples.additive_witness.ints_scanned", "tuples.additive_witness.ints_sieved"),
    "mwitness.multiplicative_witness.hit_ratio":
        ("mwitness.multiplicative_witness.hits", "mwitness.multiplicative_witness.prime_tests"),
}

# The prediction written down before measuring: each layer's self time should
# be a larger share of traced wall time on the first workloads than on the
# second, and moves the named end-to-end metrics there.
INTERACTIONS = (
    (("arith.sieve.self_s",), "job_p50_s, jobs_per_s", ("sieve_scan",), ("exhaustive_search",)),
    (("arith.PrimeSieve.mask.self_s", "sets.verify_composite_decomposition.self_s"),
     "peak_rss_mb, job_tail_s", ("sieve_scan",), ("exhaustive_search",)),
    (("arith.smooth_set.self_s",), "rss_p50_mb, job_tail_s", ("sieve_scan",),
     ("exhaustive_search",)),
    (("sets.IntegerSet.init.self_s",), "rss_p50_mb, job_tail_s", ("exhaustive_search",),
     ("sieve_scan",)),
    (("tuples.find_constellation.self_s", "tuples.additive_witness.self_s"), "job_tail_s",
     ("sieve_scan",), ("exhaustive_search",)),
    (("sets.decompose_search.self_s",), "jobs_per_s, job_p50_s", ("exhaustive_search",),
     ("sieve_scan",)),
    (("semigroup.solve_sunit.self_s",), "job_tail_s", ("exhaustive_search",), ("sieve_scan",)),
    (("cli.run.self_s",), "setup_s, job_p50_s", ("exhaustive_search",), ("sieve_scan",)),
    (("arith.is_prime.self_s", "mwitness.build_plan.self_s",
      "mwitness.multiplicative_witness.self_s"), "job_p50_s", ("exhaustive_search",),
     ("sieve_scan",)),
)


def _failure(job: Job, outcome: Outcome, digests) -> str | None:
    reason = outcome.failure or check(job.argv, outcome.code, outcome.stdout, job.expect, digests)
    if reason and reason.startswith("exit") and outcome.stderr_tail:
        reason += f" ({outcome.stderr_tail})"
    return reason


def _percentile(values, pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def timed_pass(launcher: Launcher, workload: str, seed: int, seconds: float) -> dict:
    """Closed loop over whole rounds, with no-work invocations spread over the
    run (after one untimed warm-up that fills the bytecode cache), so that
    setup_s samples the same machine state as the jobs. Every round holds the
    same jobs in the same order, so each job's median over the rounds is
    taken; jobs_per_s, job_p50_s and job_tail_s come from these medians, so
    that one stalled job does not move them."""
    digests = load_digests()
    setup = Job(SETUP_ARGV)
    failures = []

    def run(job: Job) -> Outcome:
        outcome = launcher.run_job(job.argv)
        reason = _failure(job, outcome, digests)
        if reason:
            failures.append({"argv": list(job.argv), "reason": reason})
        return outcome

    started = time.perf_counter()
    run(setup)
    setup_walls, round_walls, rss = [], [], []
    next_setup = started
    for round_ in rounds(workload, seed):
        walls = []
        for group in round_:
            if time.perf_counter() >= next_setup:
                setup_walls.append(run(setup).wall_s)
                next_setup += seconds / SETUP_RUNS
            remove_files(group.files)
            for job in group.jobs:
                outcome = run(job)
                walls.append(outcome.wall_s)
                rss.append(outcome.rss_mib)
            remove_files(group.files)
        round_walls.append(walls)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(round_walls) > seconds:
            break
    probe_failures = []
    for job in probes(workload, seed):
        reason = _failure(job, launcher.run_job(job.argv), digests)
        probe_failures.append({"argv": list(job.argv), "reason": reason})
    job_medians = [statistics.median(w) for w in zip(*round_walls)]
    tail, beyond = _percentile(job_medians, WORKLOADS[workload].tail_pct)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "jobs_per_s": len(job_medians) / sum(job_medians),
        "job_p50_s": statistics.median(job_medians),
        "job_tail_s": tail,
        "peak_rss_mb": max(rss),
        "rss_p50_mb": statistics.median(rss),
    }
    return {
        "rounds": len(round_walls),
        "jobs": len(job_medians) * len(round_walls),
        "setup_runs": len(setup_walls) + 1,
        "tail_beyond": beyond,  # jobs of a round beyond job_tail_s
        "failures": failures,
        "probes": probe_failures,
        "metrics": {name: _metric(metrics[name], unit) for name, unit in END_TO_END},
    }


def measure_import(launcher: Launcher) -> float:
    walls = [launcher.spawn(["-c", "import decomplab.cli"]).wall_s for _ in range(IMPORT_RUNS)]
    return statistics.median(walls)


def traced_pass(launcher: Launcher, workload: str, seed: int) -> dict:
    import_s = measure_import(launcher)
    out_path = WORK_DIR / f"trace-{workload}.json"
    outcome = launcher.spawn([str(ROOT / "perfbench" / "tracing.py"), "--workload", workload,
                     "--seed", str(seed), "--out", str(out_path)], timeout=TRACE_TIMEOUT_S)
    if outcome.code != 0 or outcome.failure:
        raise SystemExit(f"error: traced pass failed: {outcome.failure or outcome.stderr_tail}")
    raw = json.loads(out_path.read_text())
    totals, counters = raw["totals"], raw["counters"]
    counters["cli.import_s"] = import_s
    counters["trace.wall_s"] = raw["traced_wall_s"]
    counters["trace.overhead_ratio"] = raw["traced_wall_s"] / raw["plain_wall_s"]
    for name, (num, den) in _RATIOS.items():
        counters[name] = counters.get(num, 0) / counters[den] if counters.get(den) else 0.0
    metrics = {}
    for name, unit in PER_LAYER:
        prefix, _, key = name.rpartition(".")
        if key in ("calls", "self_s") and prefix != "trace":
            value = totals.get(prefix, (0, 0.0))[0 if key == "calls" else 1]
        else:
            value = counters.get(name, 0)
        metrics[name] = _metric(value, unit)
    return {
        "jobs": raw["attempted"],
        "failures": raw["failures"],
        "probes": [],
        "metrics": metrics,
        "rounds": WORKLOADS[workload].trace_rounds,
    }


def _print_failures(result: dict, attempted: int) -> None:
    failed = len(result["failures"])
    print(f"  fail_ratio     {failed / attempted:.4f}  ({failed} of {attempted} invocations)")
    for (reason, argv), n in Counter(
        (f["reason"], " ".join(f["argv"])) for f in result["failures"]
    ).items():
        print(f"    {n} x {reason}  <- {argv}")
    if result["probes"]:
        bad = [p for p in result["probes"] if p["reason"]]
        print(f"  boundary probes (not in the timed jobs): {len(bad)} of "
              f"{len(result['probes'])} failed")
        for p in result["probes"]:
            print(f"    {p['reason'] or 'ok'}  <- {' '.join(p['argv'])}")


def print_timed(workload: str, seed: int, result: dict) -> None:
    print(f"== {workload}: seed {seed}, {result['rounds']} round(s), {result['jobs']} jobs, "
          f"{result['setup_runs']} no-work invocations ==")
    for name, unit in END_TO_END:
        note = ""
        if name == "job_tail_s":
            note = (f"  (p{WORKLOADS[workload].tail_pct} of the job medians, "
                    f"{result['tail_beyond']} jobs x {result['rounds']} rounds beyond)")
        print(f"  {name:<14} {result['metrics'][name]['value']:.6g} {unit}{note}")
    _print_failures(result, result["jobs"] + result["setup_runs"])


def print_traced(workload: str, seed: int, result: dict) -> None:
    print(f"== {workload} traced: seed {seed}, {result['rounds']} round(s) replayed "
          f"plain then traced, {result['jobs']} jobs ==")
    for name, unit in PER_LAYER:
        print(f"  {name:<52} {result['metrics'][name]['value']:.6g} {unit}")
    _print_failures(result, result["jobs"])


def print_interactions(traced: dict[str, dict]) -> None:
    print("== interaction table: self time as a share of traced wall time ==")
    for layer_metrics, moves, hot, flat in INTERACTIONS:
        for name in layer_metrics:
            share = {w: traced[w]["metrics"][name]["value"]
                     / traced[w]["metrics"]["trace.wall_s"]["value"] for w in hot + flat}
            ok = min(share[w] for w in hot) > max(share[w] for w in flat)
            shares = ", ".join(f"{w} {share[w]:.2%}" for w in hot + flat)
            print(f"  {'confirmed' if ok else 'NOT confirmed':<13} {name} (moves {moves}): {shares}")


def _result_line(results: list[dict], metrics: dict) -> str:
    attempted = sum(r["jobs"] + r.get("setup_runs", 0) for r in results)
    failed = sum(len(r["failures"]) for r in results)
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "decomplab" / "cli.py").is_file():
        print(f"error: no decomplab sources under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir()

    with Launcher() as launcher:
        if args.workload != "all":
            if args.trace:
                result = traced_pass(launcher, args.workload, args.seed)
                print_traced(args.workload, args.seed, result)
            else:
                result = timed_pass(launcher, args.workload, args.seed, args.seconds)
                print_timed(args.workload, args.seed, result)
            print(_result_line([result], result["metrics"]))
            return 0

        results, traced, metrics = [], {}, {}
        for workload in WORKLOADS:
            result = timed_pass(launcher, workload, args.seed, args.seconds)
            print_timed(workload, args.seed, result)
            results.append(result)
            metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
        for workload in WORKLOADS:
            traced[workload] = traced_pass(launcher, workload, args.seed)
            print_traced(workload, args.seed, traced[workload])
            results.append(traced[workload])
    print_interactions(traced)
    print(_result_line(results, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
