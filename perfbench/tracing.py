"""Traced pass: replay a workload's argv lists in-process through
`decomplab.cli.run`, each group once plain and once with timing wrappers
around the public functions of every layer.

The wrappers are installed from here, so the program itself is unchanged:
each is set on every `decomplab.*` module attribute bound to the wrapped
function, because modules import names such as `sieve` directly. Each
wrapped call is a span {name, start, end, parent, job}, kept in memory and
written out when the pass ends; the hot scalar functions are aggregated as
a call count and a time instead. A span's self time is its duration minus
the time of the wrapped calls directly inside it. Counts come from a call's
arguments and result, so they repeat exactly.

Run as a script this is the child process of `run.py --trace 1`:
    python3 perfbench/tracing.py --workload NAME --seed N --out FILE
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import islice
from math import comb

from check import check, load_digests
from jobs import SRC, WORK_DIR, remove_files
from workloads import WORKLOADS, rounds


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, child_s, span_id, parent_id]
        self.totals: dict[str, list] = {}  # name -> [calls, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[dict] = []
        self.job = None
        self._next_id = 0

    def enter(self, name: str, hot: bool = False) -> list:
        parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
        span_id = None
        if not hot:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, self.clock(), 0.0, span_id, parent]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        name, start, child_s, span_id, parent = self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        total = self.totals.setdefault(name, [0, 0.0])
        total[0] += 1
        total[1] += duration - child_s
        if span_id is not None:
            self.spans.append({"id": span_id, "name": name, "start": start, "end": end,
                               "parent": parent, "job": self.job})

    def count(self, name: str, values: dict) -> None:
        for key, value in values.items():
            full = f"{name}.{key}"
            self.counters[full] = self.counters.get(full, 0) + value

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0))[0]


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _mask_bytes(args, kwargs, result, state):
    ps = args[0]
    upto = _arg(args, kwargs, 1, "upto")
    return {"bytes_computed": 8 * len(ps.bits) + (ps.limit if upto is None else upto) + 1}


def _decompose_counts(args, kwargs, result, state):
    target = _arg(args, kwargs, 0, "target")
    kind = _arg(args, kwargs, 1, "kind")
    size = _arg(args, kwargs, 2, "max_b_size")
    elem = _arg(args, kwargs, 3, "max_b_elem")
    if kind == "additive":
        pool = elem
        sizes = range(1, size)  # 0 is always in b
    else:
        pool = sum(1 for d in range(1, elem + 1) if any(v % d == 0 for v in target.elements))
        sizes = range(2, size + 1)
    return {"candidates": sum(comb(pool, k) for k in sizes), "accepted": len(result)}


def _sunit_counts(args, kwargs, result, state):
    eq = _arg(args, kwargs, 0, "eq")
    elems = _semigroup_size(eq.gamma.generators, _arg(args, kwargs, 1, "height"))
    return {"tuples": elems ** (len(eq.coeffs) - 1), "classes": len(result)}


def _semigroup_size(gens, limit: int) -> int:
    values = [1]
    for g in gens:
        grown = []
        for v in values:
            while v <= limit:
                grown.append(v)
                v *= g
        values = grown
    return len(values)


def _witness_add_counts(args, kwargs, result, state):
    tracer, before = state
    delta = {key: tracer.counters.get(key, 0) - before.get(key, 0)
             for key in ("tuples.find_constellation.ints_scanned", "arith.sieve.ints")}
    return {"ints_scanned": delta["tuples.find_constellation.ints_scanned"],
            "ints_sieved": delta["arith.sieve.ints"]}


def _witness_mul_counts(args, kwargs, result, state):
    tracer, before = state
    return {"prime_tests": tracer.calls("arith.is_prime") - before, "hits": int(result is not None)}


@dataclass(frozen=True)
class Spec:
    name: str  # metric prefix
    module: str
    attr: str  # "func" or "Class.method"
    hot: bool = False
    count: object = None  # (args, kwargs, result, state) -> {key: value}
    pre: object = None  # (tracer) -> state handed to count


def _size_of(key):
    # path is the argument after self or cls
    return lambda args, kwargs, result, state: {key: os.path.getsize(_arg(args, kwargs, 1, "path"))}


SPECS = (
    Spec("cli.run", "cli", "run"),
    Spec("arith.sieve", "arith", "sieve",
         count=lambda a, k, r, s: {"ints": _arg(a, k, 0, "limit") + 1}),
    Spec("arith.PrimeSieve.mask", "arith", "PrimeSieve.mask", count=_mask_bytes),
    Spec("arith.PrimeSieve.primes", "arith", "PrimeSieve.primes"),
    Spec("arith.PrimeSieve.count", "arith", "PrimeSieve.count"),
    Spec("arith.PrimeSieve.save", "arith", "PrimeSieve.save", count=_size_of("bytes")),
    Spec("arith.PrimeSieve.load", "arith", "PrimeSieve.load", count=_size_of("bytes")),
    Spec("arith.smooth_set", "arith", "smooth_set"),
    Spec("arith.shifted_smooth_set", "arith", "shifted_smooth_set"),
    Spec("arith.is_prime", "arith", "is_prime", hot=True),
    Spec("arith.is_composite", "arith", "is_composite", hot=True),
    Spec("arith.factorize", "arith", "factorize", hot=True),
    Spec("arith.greatest_prime_factor", "arith", "greatest_prime_factor", hot=True),
    Spec("sets.IntegerSet.init", "sets", "IntegerSet.__post_init__", hot=True,
         count=lambda a, k, r, s: {"elements": len(a[0].elements)}),
    Spec("sets.IntegerSet.from_values", "sets", "IntegerSet.from_values"),
    Spec("sets.IntegerSet.as_mask", "sets", "IntegerSet.as_mask"),
    Spec("sets.IntegerSet.load_text", "sets", "IntegerSet.load_text", count=_size_of("bytes")),
    Spec("sets.IntegerSet.save_text", "sets", "IntegerSet.save_text", count=_size_of("bytes")),
    Spec("sets.sumset", "sets", "sumset"),
    Spec("sets.productset", "sets", "productset"),
    Spec("sets.windowed_equal", "sets", "windowed_equal"),
    Spec("sets.decompose_search", "sets", "decompose_search", count=_decompose_counts),
    Spec("sets.verify_composite_decomposition", "sets", "verify_composite_decomposition",
         count=lambda a, k, r, s: {"ints": _arg(a, k, 0, "limit") + 1}),
    Spec("tuples.is_admissible", "tuples", "is_admissible", hot=True),
    Spec("tuples.satisfies_covering", "tuples", "satisfies_covering", hot=True),
    Spec("tuples.select_triple", "tuples", "select_triple"),
    Spec("tuples.find_constellation", "tuples", "find_constellation",
         count=lambda a, k, r, s: {
             "ints_scanned": max(0, _arg(a, k, 2, "hi") - max(_arg(a, k, 1, "lo"), 0) + 1)}),
    Spec("tuples.additive_witness", "tuples", "additive_witness", count=_witness_add_counts,
         pre=lambda t: (t, dict(t.counters))),
    Spec("mwitness.crt_solve", "mwitness", "crt_solve", hot=True),
    Spec("mwitness.build_plan", "mwitness", "build_plan"),
    Spec("mwitness.multiplicative_witness", "mwitness", "multiplicative_witness",
         count=_witness_mul_counts, pre=lambda t: (t, t.calls("arith.is_prime"))),
    Spec("semigroup.enumerate_semigroup", "semigroup", "enumerate_semigroup"),
    Spec("semigroup.h_family", "semigroup", "h_family"),
    Spec("semigroup.verify_exceptional_factorization", "semigroup",
         "verify_exceptional_factorization"),
    Spec("semigroup.strip_gamma_part", "semigroup", "strip_gamma_part", hot=True),
    Spec("semigroup.solve_sunit", "semigroup", "solve_sunit", count=_sunit_counts),
    Spec("semigroup.l_set", "semigroup", "l_set"),
    Spec("semigroup.solve_two_term", "semigroup", "solve_two_term"),
    Spec("semigroup.two_term_min_exponent_bound", "semigroup", "two_term_min_exponent_bound",
         hot=True),
    Spec("semigroup.mprimitivity_scan", "semigroup", "mprimitivity_scan"),
)


def _wrap(tracer: Tracer, spec: Spec, fn):
    name, hot, count, pre = spec.name, spec.hot, spec.count, spec.pre

    def wrapper(*args, **kwargs):
        state = pre(tracer) if pre else None
        frame = tracer.enter(name, hot)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if count:
            tracer.count(name, count(args, kwargs, result, state))
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class Patch:
    """Every binding a wrapper replaces, so the wrappers can be switched off
    and on between groups."""

    def __init__(self):
        self.sites: list[tuple] = []  # (owner, attr, original, wrapper)

    def apply(self, traced: bool) -> None:
        for owner, attr, original, wrapper in self.sites:
            setattr(owner, attr, wrapper if traced else original)


def install(tracer: Tracer) -> Patch:
    """Wrap every spec'd function wherever a decomplab module binds it."""
    modules = [m for n, m in sys.modules.items() if n == "decomplab" or n.startswith("decomplab.")]
    patch = Patch()
    for spec in SPECS:
        owner = sys.modules[f"decomplab.{spec.module}"]
        if "." in spec.attr:
            cls_name, meth = spec.attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapper = classmethod(_wrap(tracer, spec, raw.__func__))
            else:
                wrapper = _wrap(tracer, spec, raw)
            patch.sites.append((cls, meth, raw, wrapper))
            continue
        original = getattr(owner, spec.attr)
        wrapper = _wrap(tracer, spec, original)
        patch.sites += [(module, attr, original, wrapper)
                        for module in modules
                        for attr, value in vars(module).items() if value is original]
    patch.apply(True)
    return patch


@dataclass
class PassResult:
    wall_s: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)


def _run_group(group, digests, out: PassResult, tracer: Tracer | None) -> None:
    """Run the group's jobs through cli.run; only the cli.run calls are timed."""
    import decomplab.cli as cli

    remove_files(group.files)
    for job in group.jobs:
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer:
            tracer.job = out.attempted
        started = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.run([*job.argv, "--json"])
            failure = None
        except Exception as exc:  # a crashing job is a counted failure
            code, failure = None, f"traceback: {type(exc).__name__}: {exc}"
        out.wall_s += time.perf_counter() - started
        out.attempted += 1
        text = stdout.getvalue()
        if tracer:
            tracer.count("cli", {"report_bytes": len(text.encode())})
        failure = failure or check(job.argv, code, text, job.expect, digests)
        if failure:
            out.failures.append({"argv": list(job.argv), "reason": failure})
    remove_files(group.files)


def replay(groups, digests, tracer: Tracer, patch: Patch) -> tuple[PassResult, PassResult]:
    """Run each group plain and traced, alternating which goes first, so both
    passes see the same machine state and the same warm-up."""
    plain, traced = PassResult(), PassResult()
    for i, group in enumerate(groups):
        for on in (False, True) if i % 2 == 0 else (True, False):
            patch.apply(on)
            _run_group(group, digests, traced if on else plain, tracer if on else None)
    return plain, traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import decomplab.cli  # noqa: F401  (loads every layer before wrapping)

    spec = WORKLOADS[args.workload]
    groups = [g for r in islice(rounds(args.workload, args.seed), spec.trace_rounds) for g in r]
    tracer = Tracer()
    plain, traced = replay(groups, load_digests(), tracer, install(tracer))
    (WORK_DIR / f"spans-{args.workload}.json").write_text(json.dumps(tracer.spans))
    with open(args.out, "w") as fh:
        json.dump({
            "plain_wall_s": plain.wall_s,
            "traced_wall_s": traced.wall_s,
            "attempted": plain.attempted + traced.attempted,
            "failures": plain.failures + traced.failures,
            "totals": tracer.totals,
            "counters": tracer.counters,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
