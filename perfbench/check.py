"""Independent output checks, one per subcommand.

Every check recomputes what it can with sympy and exact integer arithmetic
and never imports decomplab. `decompose`, `hk` and `l-set` have no cheap
independent check; their reports are compared with digests pinned from the
catalogue in workloads.py (see pin.py), so a changed result still fails.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import sympy

DIGESTS_PATH = Path(__file__).with_name("digests.json")
_HEAD = 20  # the CLI lists head and tail of this length when it omits elements
_GAP_SCAN = 20000  # integers scanned for smooth numbers the head may have skipped


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _ints(values) -> list[int]:
    # the CLI writes integers above 2**53 as decimal strings
    return [int(v) for v in values]


def _flag(argv, name: str, default=None):
    for i, tok in enumerate(argv):
        if tok == name:
            return argv[i + 1]
        if tok.startswith(name + "="):
            return tok.split("=", 1)[1]
    return default


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def command_of(argv) -> str:
    return " ".join(argv[:2]) if argv[0] in ("tuple", "witness", "semigroup") else argv[0]


def report_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "elapsed_ms"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}


def _listed(result: dict) -> tuple[list[int], list[int], bool]:
    """(head, tail, complete): the whole list when the CLI gave it."""
    if "elements" in result:
        values = _ints(result["elements"])
        return values, values, True
    return _ints(result["head"]), _ints(result["tail"]), False


def _check_sieve(argv, report, code):
    result = report["result"]
    limit = int(_flag(argv, "--limit"))
    _require(int(result["prime_count"]) == sympy.primepi(limit), "prime_count != pi(limit)")
    want = sympy.prevprime(limit + 1) if limit >= 2 else None
    got = None if result["largest_prime"] is None else int(result["largest_prime"])
    _require(got == want, f"largest_prime {got} != {want}")


def _check_verify_thm1(argv, report, code):
    result = report["result"]
    limit = int(_flag(argv, "--limit"))
    _require(result["passed"] is True, "cover check did not pass")
    want = (limit - 8) - (sympy.primepi(limit) - 4)
    _require(int(result["composite_count"]) == want, f"composite_count != {want}")


def _offsets_cover(offsets, base) -> bool:
    offs = set(offsets)
    return all(any(beta - s in offs for beta in base) for s in base)


def _check_witness_add(argv, report, code):
    result, witnesses = report["result"], report["witnesses"]
    b = sorted(set(_int_list(_flag(argv, "--b"))))
    n0 = int(_flag(argv, "--n0", 9))
    _require(result["found"] is True and len(witnesses) == 1, "no witness")
    w = witnesses[0]
    n, offsets, primes = int(w["n"]), _ints(w["tuple"]), _ints(w["primes"])
    _require(_ints(w["b"]) == b, "witness is for another b")
    _require(n >= n0 + b[-1], "n < n0 + max b")
    _require(n > 1 and not sympy.isprime(n), f"n = {n} is not composite")
    _require(primes == [n + u for u in offsets], "primes are not n + offsets")
    _require(all(sympy.isprime(p) for p in primes), "a listed prime is composite")
    _require(_offsets_cover(offsets, b), "pattern does not cover b")


def _check_witness_mul(argv, report, code):
    result, witnesses = report["result"], report["witnesses"]
    b = sorted(set(_int_list(_flag(argv, "--b"))))
    n0 = int(_flag(argv, "--n0", 1))
    _require(result["found"] is True and len(witnesses) == 1, "no witness")
    w = witnesses[0]
    n = int(w["n"])
    _require(_ints(w["b"]) == b, "witness is for another b")
    _require(n >= n0, "n < n0")
    _require(n > 1 and not sympy.isprime(n), f"n = {n} is not composite")
    if b[0] == 1:
        shifted = b[1] * (n + 1) - 1
        _require(int(w["checks"]["shifted_prime"]) == shifted, "shifted_prime != b2(n+1)-1")
        _require(sympy.isprime(shifted), "b2(n+1)-1 is composite")
        _require(all((n + 1) % v for v in b[1:]), "some b_i divides n + 1")
    else:
        _require(all(n % v == 0 and (n + 1) % v for v in b), "divisibility fails")


def _in_semigroup(x: int, gamma) -> bool:
    for g in gamma:
        while x % g == 0:
            x //= g
    return x == 1


def _check_sunit(argv, report, code):
    result = report["result"]
    coeffs = [Fraction(t) for t in _flag(argv, "--coeffs").split(",")]
    gamma = _int_list(_flag(argv, "--gamma"))
    height = int(_flag(argv, "--height"))
    reps = [tuple(_ints(c["representative"])) for c in result["classes"]]
    _require(int(result["count"]) == len(reps), "count != number of classes")
    _require(reps == sorted(set(reps)), "classes are not sorted and distinct")
    for c, rep in zip(result["classes"], reps):
        _require(len(rep) == len(coeffs), f"{rep} has the wrong arity")
        _require(all(1 <= x <= height and _in_semigroup(x, gamma) for x in rep),
                 f"{rep} leaves the semigroup or the height")
        _require(sum(a * x for a, x in zip(coeffs, rep)) == 0, f"{rep} does not solve")
        _require(all(math.gcd(*rep) % g for g in gamma), f"{rep} is not canonical")
        terms = [a * x for a, x in zip(coeffs, rep)]
        vanishing = len(rep) >= 3 and any(
            sum(sub) == 0
            for r in range(1, len(rep))
            for sub in combinations(terms, r)
        )
        _require(c["degenerate"] is vanishing, f"{rep} degenerate flag is wrong")


def _smooth_predicate(argv):
    policy = _flag(argv, "--policy")
    if policy == "composites":
        return lambda m: m > 1 and not sympy.isprime(m)
    if policy == "fixed":
        bound = int(_flag(argv, "--bound"))
        return lambda m: m >= 1 and (m == 1 or max(sympy.factorint(m)) <= bound)
    factor = float(_flag(argv, "--factor"))
    return lambda m: m >= 1 and (m == 1 or max(sympy.factorint(m)) <= max(factor * math.log(m), 2.0))


def _check_smooth(argv, report, code):
    result = report["result"]
    limit = int(_flag(argv, "--limit"))
    shifted = "--shift" in argv
    base = _smooth_predicate(argv)
    smooth = (lambda v: v >= 2 and base(v - 1)) if shifted else base
    head, tail, complete = _listed(result)
    _require(all(1 <= v <= limit for v in head + tail), "element outside [1, limit]")
    _require(all(smooth(v) for v in set(head + tail)), "a listed element is not smooth")
    # nothing skipped below the head's end (all of [1, limit] when complete)
    stop = min(limit if complete else head[-1] if head else limit, _GAP_SCAN)
    want = [v for v in range(1, stop + 1) if smooth(v)]
    _require([v for v in head if v <= stop] == want, "head skips or adds a smooth number")
    if not complete:
        _require(len(head) == len(tail) == _HEAD, "head/tail length")
        top = min(limit, tail[-1] + _GAP_SCAN)
        _require(not any(smooth(v) for v in range(tail[-1] + 1, top + 1)),
                 "a smooth number above the tail is missing")
    if _flag(argv, "--policy") == "composites":
        top = limit - 1 if shifted else limit
        want_count = top - sympy.primepi(top) - 1
        _require(int(result["count"]) == want_count, f"count != {want_count}")


def _check_tuple_find(argv, report, code):
    result = report["result"]
    offsets = sorted(set(_int_list(_flag(argv, "--offsets"))))
    lo, hi = _int_list(_flag(argv, "--window"))
    head, tail, _ = _listed(result)
    for n in set(head + tail):
        _require(lo <= n <= hi, f"{n} outside the window")
        _require(all(sympy.isprime(n + u) for u in offsets), f"{n}: pattern not all prime")
        if "--composite-center" in argv:
            _require(n > 1 and not sympy.isprime(n), f"{n} is not composite")
        if "--consecutive" in argv:
            inner = [p for p in sympy.primerange(n + offsets[0] + 1, n + offsets[-1])]
            _require(len(inner) == len(offsets) - 2, f"{n}: primes are not consecutive")


def _admissible(offsets) -> bool:
    return all(
        len({u % p for u in offsets}) < p for p in sympy.primerange(2, len(offsets) + 1)
    )


def _check_tuple_admissible(argv, report, code):
    result = report["result"]
    offsets = sorted(set(_int_list(_flag(argv, "--offsets"))))
    want = _admissible(offsets)
    _require(result["admissible"] is want, f"admissible should be {want}")
    _require(code == (0 if want else 1), "exit code disagrees with the answer")


def _check_select_triple(argv, report, code):
    result = report["result"]
    b2, b3 = int(_flag(argv, "--b2")), int(_flag(argv, "--b3"))
    offsets = _ints(result["offsets"])
    # coincident offsets collapse, so b3 = 2*b2 can give a pair
    _require(1 <= len(offsets) <= 3 and _admissible(offsets), "pattern is not admissible")
    _require(_offsets_cover(offsets, (0, b2, b3)), "pattern does not cover {0, b2, b3}")


def _check_two_term(argv, report, code):
    result = report["result"]
    t2, t1, n = (int(_flag(argv, f)) for f in ("--t2", "--t1", "--n"))
    c, cap = int(_flag(argv, "--c")), int(_flag(argv, "--cap"))
    want = [[a1, a2] for a1 in range(cap + 1) for a2 in range(cap + 1)
            if t2 * n**a1 - t1 * n**a2 == c]
    _require([_ints(s) for s in result["solutions"]] == want, "solutions differ")
    if c == 0:
        _require(result["min_exponent_bound"] is None, "bound must be null for c = 0")
    else:
        e = 0
        while c % n ** (e + 1) == 0:
            e += 1
        _require(int(result["min_exponent_bound"]) == e, f"min_exponent_bound != {e}")


def _check_semigroup_list(argv, report, code):
    result = report["result"]
    gamma = _int_list(_flag(argv, "--gamma"))
    limit = int(_flag(argv, "--limit"))
    values = [1]
    for g in gamma:
        grown = []
        for v in values:
            while v <= limit:
                grown.append(v)
                v *= g
        values = grown
    values.sort()
    _require(int(result["count"]) == len(values), "count differs")
    head, tail, complete = _listed(result)
    _require(head == (values if complete else values[:_HEAD]), "head differs")
    _require(tail == (values if complete else values[-_HEAD:]), "tail differs")


def _check_verify_exception(argv, report, code):
    result = report["result"]
    limit = int(_flag(argv, "--limit"))
    core = {v for beta in range(limit.bit_length() + 1) for v in (2**beta, 2**beta + 1)}
    product = {x * y for x in (1, 2) for y in core if x * y <= limit}
    _require(result["passed"] is True, "exceptional identity not verified")
    _require(int(result["product_count"]) == len(product), "product_count differs")
    _require(int(result["family_count"]) == len(product), "family_count differs")


def _check_mprim_scan(argv, report, code):
    result = report["result"]
    exceptional = _flag(argv, "--gamma") == "2" and _flag(argv, "--k") == "3" and "--le" in argv
    want = [[1, 2]] if exceptional else []
    _require(result["consistent"] is True, "scan contradicts the predicted outcome")
    _require(result["found_parts"] == want, f"found parts != {want}")


_CHECKS = {
    "sieve": _check_sieve,
    "tuple admissible": _check_tuple_admissible,
    "witness add": _check_witness_add,
    "witness mul": _check_witness_mul,
    "verify-thm1": _check_verify_thm1,
    "sunit": _check_sunit,
    "smooth": _check_smooth,
    "tuple find": _check_tuple_find,
    "tuple select-triple": _check_select_triple,
    "two-term": _check_two_term,
    "semigroup list": _check_semigroup_list,
    "verify-exception": _check_verify_exception,
    "mprim-scan": _check_mprim_scan,
}
PINNED = ("decompose", "hk", "l-set")


def check(argv, code: int, stdout: str, expect=(), digests=None) -> str | None:
    """None when the job's exit code and JSON report are right, else why not."""
    command = command_of(argv)
    allowed = (0, 1) if command == "tuple admissible" else (0,)
    if code not in allowed:
        return f"exit {code}"
    try:
        report = json.loads(stdout)
        result = report["result"]
        for key, value in expect:
            _require(result.get(key) == value, f"{key} should be {value}")
        if command in PINNED:
            pinned = (digests or {}).get(" ".join(argv))
            _require(pinned is not None, "no pinned digest for this argv")
            _require(report_digest(report) == pinned, "report differs from the pinned digest")
        else:
            _CHECKS[command](argv, report, code)
    except CheckError as exc:
        return f"check: {exc}"
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"check: malformed report ({type(exc).__name__}: {exc})"
    return None
