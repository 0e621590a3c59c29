"""Command-line surface: one subcommand per operation, reproducible reports.

Exit codes: 0 = verified / witness found / enumeration done, 1 = a check
failed or the scan contradicts the predicted outcome, 2 = inconclusive
(nothing found below the stated bound), 3 = refused at a resource limit
or out of disk space, 64 = usage error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time

from . import __version__

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 64

_JSON_INT_CAP = 1 << 53
_LIST_CAP = 10000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"{flag} expects a comma-separated integer list, got {text!r}")


def _parse_window(text: str) -> tuple[int, int]:
    parts = _parse_int_list(text, "--window")
    if len(parts) != 2 or parts[0] > parts[1]:
        raise _UsageError(f"--window expects LO,HI with LO <= HI, got {text!r}")
    return parts[0], parts[1]


def _jsonable(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _JSON_INT_CAP else obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def _elements_payload(values) -> dict:
    """Count, and the elements or, past _LIST_CAP of them, the first and last
    20; values is an ascending array('Q'), sliced for its head and tail, or
    an IntegerSet, whose head and tail read only their own elements."""
    payload = {"count": len(values)}
    # list(): a tuple or an array would not print as a list in the human report
    if len(values) <= _LIST_CAP:
        payload["elements"] = list(values)
    else:
        payload["elements_omitted"] = True
        if hasattr(values, "head"):
            payload["head"], payload["tail"] = list(values.head(20)), list(values.tail(20))
        else:
            payload["head"], payload["tail"] = values[:20].tolist(), values[-20:].tolist()
    return payload


def _policy_from_args(args) -> SmoothnessPolicy:
    from .arith import SmoothnessPolicy
    if args.policy == "composites":
        return SmoothnessPolicy.composites()
    if args.policy == "fixed":
        if args.bound is None:
            raise _UsageError("--policy fixed needs --bound")
        return SmoothnessPolicy.fixed_bound(args.bound)
    if args.factor is None:
        raise _UsageError("--policy log needs --factor")
    return SmoothnessPolicy.log_factor(args.factor)


def _cmd_sieve(args):
    from .arith import tally_primes
    prime_count, largest_prime, cache_used = tally_primes(args.limit, args.cache)
    result = {
        "limit": args.limit,
        "prime_count": prime_count,
        "largest_prime": largest_prime,
        "cache": args.cache,
        "cache_used": cache_used,
    }
    return EXIT_OK, result, []


def _cmd_smooth(args):
    from .arith import shifted_smooth_set, smooth_set
    policy = _policy_from_args(args)
    builder = shifted_smooth_set if args.shift else smooth_set
    values = builder(policy, args.limit)
    result = {"policy": policy.describe(), "limit": args.limit, "shifted": args.shift}
    result.update(_elements_payload(values))
    if args.out:
        values.save_text(args.out)
        result["out"] = args.out
    return EXIT_OK, result, []


def _cmd_verify_thm1(args):
    from .sets import verify_composite_decomposition
    report = verify_composite_decomposition(args.limit)
    return (EXIT_OK if report.passed else EXIT_FAIL), report.to_json_dict(), []


def _cmd_tuple_admissible(args):
    from .tuples import OffsetTuple, is_admissible
    t = OffsetTuple.of(_parse_int_list(args.offsets, "--offsets"))
    ok = is_admissible(t)
    return (EXIT_OK if ok else EXIT_FAIL), {"offsets": list(t.offsets), "admissible": ok}, []


def _cmd_tuple_select(args):
    from .tuples import select_triple
    t, case = select_triple(args.b2, args.b3)
    result = {"b2": args.b2, "b3": args.b3, "case": case, "offsets": list(t.offsets)}
    return EXIT_OK, result, []


def _cmd_tuple_find(args):
    from .tuples import OffsetTuple, find_constellation
    t = OffsetTuple.of(_parse_int_list(args.offsets, "--offsets"))
    lo, hi = _parse_window(args.window)
    hits = find_constellation(
        t, lo, hi,
        require_composite_center=args.composite_center,
        require_consecutive=args.consecutive,
    )
    result = {
        "offsets": list(t.offsets),
        "window": [lo, hi],
        "composite_center": args.composite_center,
        "consecutive": args.consecutive,
    }
    result.update(_elements_payload(hits))
    return (EXIT_OK if hits else EXIT_INCONCLUSIVE), result, []


def _cmd_witness_add(args):
    from .tuples import additive_witness
    b = _parse_int_list(args.b, "--b")
    witness = additive_witness(b, args.n0, args.limit)
    if witness is None:
        return EXIT_INCONCLUSIVE, {"b": sorted(set(b)), "found": False, "search_hi": args.limit}, []
    return EXIT_OK, {"b": list(witness.b), "found": True, "n": witness.n}, [witness.to_json_dict()]


def _cmd_witness_mul(args):
    from .mwitness import multiplicative_witness
    b = _parse_int_list(args.b, "--b")
    witness = multiplicative_witness(b, args.n0, args.t_hi)
    if witness is None:
        return EXIT_INCONCLUSIVE, {"b": sorted(set(b)), "found": False, "t_hi": args.t_hi}, []
    return EXIT_OK, {"b": list(witness.b), "found": True, "n": witness.n, "branch": witness.branch}, [witness.to_json_dict()]


def _cmd_semigroup_list(args):
    from .semigroup import GammaSemigroup, enumerate_semigroup
    g = GammaSemigroup.of(_parse_int_list(args.gamma, "--gamma"))
    values = enumerate_semigroup(g, args.limit)
    result = {"generators": list(g.generators), "limit": args.limit}
    result.update(_elements_payload(values))
    return EXIT_OK, result, []


def _cmd_hk(args):
    from .semigroup import GammaSemigroup, h_family
    g = GammaSemigroup.of(_parse_int_list(args.gamma, "--gamma"))
    values = h_family(g, args.k, args.limit, cumulative=args.le)
    result = {
        "generators": list(g.generators),
        "k": args.k,
        "cumulative": args.le,
        "limit": args.limit,
    }
    result.update(_elements_payload(values))
    return EXIT_OK, result, []


def _cmd_verify_exception(args):
    from .semigroup import verify_exceptional_factorization
    report = verify_exceptional_factorization(args.limit)
    return (EXIT_OK if report.passed else EXIT_FAIL), report.to_json_dict(), []


def _candidate_payload(cand):
    return {
        "b": list(cand.b),
        "coverage_window": list(cand.coverage_window),
        "c_count": len(cand.c),
        "c_head": list(cand.c.head(20)),
    }


def _cmd_decompose(args):
    from .sets import IntegerSet, check_mask_budget, decompose_search
    if args.target_file:
        target = IntegerSet.load_text(args.target_file)
        source = args.target_file
    elif args.composites:
        if args.window is None:
            raise _UsageError("--composites needs --window LO,HI")
        from .arith import composite_bits
        lo, hi = _parse_window(args.window)
        check_mask_budget(hi)
        # a window below 0 has no bits: IntegerSet refuses it as an invalid window
        target = IntegerSet(composite_bits(max(lo, 0), hi), lo, hi)
        source = f"composites in [{lo}, {hi}]"
    else:
        raise _UsageError("decompose needs --target-file or --composites")
    candidates = decompose_search(
        target, args.kind, args.max_b_size, args.max_b_elem, full_window=args.full_window
    )
    result = {
        "target": source,
        "kind": args.kind,
        "max_b_size": args.max_b_size,
        "max_b_elem": args.max_b_elem,
        "full_window": args.full_window,
        "count": len(candidates),
        "candidates": [_candidate_payload(c) for c in candidates],
    }
    return EXIT_OK, result, []


def _cmd_sunit(args):
    from fractions import Fraction

    from .semigroup import GammaSemigroup, SUnitEquation, solve_sunit
    try:
        coeffs = [Fraction(tok) for tok in args.coeffs.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"--coeffs expects integers or fractions, got {args.coeffs!r}")
    g = GammaSemigroup.of(_parse_int_list(args.gamma, "--gamma"))
    classes = solve_sunit(SUnitEquation.of(coeffs, g), args.height)
    result = {
        "coeffs": [str(c) for c in coeffs],
        "generators": list(g.generators),
        "height": args.height,
        "count": len(classes),
        "classes": [
            {"representative": list(c.representative), "degenerate": c.degenerate}
            for c in classes
        ],
    }
    return EXIT_OK, result, []


def _cmd_l_set(args):
    from .semigroup import GammaSemigroup, l_set
    g = GammaSemigroup.of(_parse_int_list(args.gamma, "--gamma"))
    values = l_set(g, args.k, args.height, args.eps_height)
    result = {
        "generators": list(g.generators),
        "k": args.k,
        "height": args.height,
        "eps_height": args.eps_height,
    }
    result.update(_elements_payload(values))
    return EXIT_OK, result, []


def _cmd_two_term(args):
    from .semigroup import solve_two_term, two_term_min_exponent_bound
    solutions = solve_two_term(args.t2, args.t1, args.n, args.c, args.cap)
    result = {
        "t2": args.t2,
        "t1": args.t1,
        "n": args.n,
        "c": args.c,
        "cap": args.cap,
        "solutions": [list(s) for s in solutions],
        "count": len(solutions),
        "min_exponent_bound": two_term_min_exponent_bound(args.n, args.c),
    }
    return EXIT_OK, result, []


def _cmd_mprim_scan(args):
    from .semigroup import GammaSemigroup, mprimitivity_scan
    g = GammaSemigroup.of(_parse_int_list(args.gamma, "--gamma"))
    report = mprimitivity_scan(
        g, args.k, args.limit,
        cumulative=args.le,
        max_b_size=args.max_b_size,
        max_b_elem=args.max_b_elem,
    )
    return (EXIT_OK if report.consistent else EXIT_FAIL), report.to_json_dict(), []


_INT = {"type": int, "required": True}
_STR = {"required": True}
_FLAG = {"action": "store_true"}

# each command path, "command" or "group subcommand", with its handler and
# its options after --json and --threads, in the order --help lists them
_COMMANDS = {
    "sieve": (_cmd_sieve, {"--limit": _INT, "--cache": {}}),
    "smooth": (_cmd_smooth, {
        "--policy": {"choices": ["composites", "fixed", "log"], "required": True},
        "--limit": _INT,
        "--bound": {"type": int},
        "--factor": {"type": float},
        "--shift": {**_FLAG, "help": "shift the set by +1"},
        "--out": {"help": "write the set in text format"},
    }),
    "verify-thm1": (_cmd_verify_thm1, {"--limit": _INT}),
    "tuple admissible": (_cmd_tuple_admissible, {"--offsets": _STR}),
    "tuple select-triple": (_cmd_tuple_select, {"--b2": _INT, "--b3": _INT}),
    "tuple find": (_cmd_tuple_find, {
        "--offsets": _STR,
        "--window": {**_STR, "help": "LO,HI scan range"},
        "--composite-center": _FLAG,
        "--consecutive": _FLAG,
    }),
    "witness add": (_cmd_witness_add, {
        "--b": _STR,
        "--n0": {"type": int, "default": 9},
        "--limit": {"type": int, "default": 10**7, "help": "search ceiling for n"},
    }),
    "witness mul": (_cmd_witness_mul, {
        "--b": _STR,
        "--n0": {"type": int, "default": 1},
        "--t-hi": {"type": int, "default": 10**6, "help": "progression scan ceiling"},
    }),
    "semigroup list": (_cmd_semigroup_list, {"--gamma": _STR, "--limit": _INT}),
    "hk": (_cmd_hk, {
        "--gamma": _STR,
        "--k": _INT,
        "--le": {**_FLAG, "help": "cumulative family (sums of up to k terms)"},
        "--limit": _INT,
    }),
    "verify-exception": (_cmd_verify_exception, {"--limit": _INT}),
    "decompose": (_cmd_decompose, {
        "--kind": {"choices": ["additive", "multiplicative"], "required": True},
        "--target-file": {},
        "--composites": _FLAG,
        "--window": {},
        "--max-b-size": _INT,
        "--max-b-elem": _INT,
        "--full-window": _FLAG,
    }),
    "sunit": (_cmd_sunit, {"--coeffs": _STR, "--gamma": _STR, "--height": _INT}),
    "l-set": (_cmd_l_set, {"--gamma": _STR, "--k": _INT, "--height": _INT, "--eps-height": _INT}),
    "two-term": (_cmd_two_term, {"--t2": _INT, "--t1": _INT, "--n": _INT, "--c": _INT,
                                 "--cap": _INT}),
    "mprim-scan": (_cmd_mprim_scan, {
        "--gamma": _STR,
        "--k": _INT,
        "--le": _FLAG,
        "--limit": _INT,
        "--max-b-size": {"type": int, "default": 3},
        "--max-b-elem": {"type": int, "default": 100},
    }),
}


def _build_parser(argv) -> _Parser:
    """The parser of the command argv[0] names, with all of its subcommands
    for a group; of every command when argv[0] names none, so that --help
    and the usage errors list them all."""
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the report as JSON")
    common.add_argument("--threads", type=int, default=None,
                        help="worker cap (implementations are deterministic and single-threaded)")

    parser = _Parser(prog="decomplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    named = argv[0] if argv and any(path.split()[0] == argv[0] for path in _COMMANDS) else None
    groups = {}  # group name -> its subparsers
    for path, (func, options) in _COMMANDS.items():
        command, _, subcommand = path.partition(" ")
        if named not in (None, command):
            continue
        if subcommand:
            if command not in groups:
                group = sub.add_parser(command, parents=[common])
                groups[command] = group.add_subparsers(dest=f"{command}_command",
                                                       parser_class=_Parser)
            p = groups[command].add_parser(subcommand, parents=[common])
        else:
            p = sub.add_parser(command, parents=[common])
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _command_name(args) -> str:
    return next(path for path, (func, _) in _COMMANDS.items() if func is args.func)


def _params_record(args) -> dict:
    skip = {"func", "json", "command", f"{args.command}_command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _print_human(report) -> None:
    print(f"command: {report['command']}")
    for key, value in report["params"].items():
        print(f"  param {key} = {value}")
    for key, value in report["result"].items():
        print(f"  {key} = {value}")
    for witness in report["witnesses"]:
        print(f"  witness: {witness}")
    print(f"  elapsed_ms = {report['elapsed_ms']}")


def run(argv) -> int:
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise _UsageError("missing subcommand")
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise _UsageError("--threads must be >= 1")
        started = time.perf_counter()
        try:
            code, result, witnesses = args.func(args)
        except (ValueError, OSError) as exc:
            if getattr(exc, "errno", None) in (errno.ENOSPC, errno.EDQUOT):
                raise MemoryError(str(exc))
            raise _UsageError(str(exc))
        elapsed = int((time.perf_counter() - started) * 1000)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # ResourceLimitError, an allocation that failed, a full disk
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    report = {
        "command": _command_name(args),
        "params": _params_record(args),
        "result": result,
        "witnesses": witnesses,
        "elapsed_ms": elapsed,
        "version": __version__,
    }
    try:
        if args.json:
            print(json.dumps(_jsonable(report), sort_keys=True, indent=2))
        else:
            _print_human(report)
        sys.stdout.flush()
    except OSError as exc:
        # fd 1 now points at devnull so that the flush at shutdown stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):  # a reader that left early is no failure
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_RESOURCE
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
