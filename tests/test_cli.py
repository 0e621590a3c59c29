import argparse
import errno
import json
import os
import subprocess
import sys

import pytest

from decomplab.arith import sieve
from decomplab.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    _build_parser,
    run,
)
from decomplab.sets import MASK_BUDGET
from oracles import naive_constellation, naive_is_prime, prime_flags


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def canonical(report):
    report = dict(report)
    report.pop("elapsed_ms")
    return json.dumps(report, sort_keys=True)


def test_verify_thm1_pass(capsys):
    code, report = run_json(capsys, ["verify-thm1", "--limit", "1000"])
    assert code == EXIT_OK
    assert report["command"] == "verify-thm1"
    assert report["result"]["passed"] is True
    assert report["result"]["first_mismatch"] is None
    assert report["result"]["composite_count"] == report["result"]["covered_count"] == 828


def test_verify_exception_golden(capsys):
    code, report = run_json(capsys, ["verify-exception", "--limit", "20"])
    assert code == EXIT_OK
    report.pop("elapsed_ms")
    assert report == {
        "command": "verify-exception",
        "params": {"limit": 20, "threads": None},
        "result": {
            "family_count": 12,
            "first_mismatch": None,
            "limit": 20,
            "passed": True,
            "product_count": 12,
        },
        "version": "0.1.0",
        "witnesses": [],
    }


def test_reports_are_deterministic(capsys):
    _, first = run_json(capsys, ["hk", "--gamma", "2,3", "--k", "2", "--limit", "50"])
    _, second = run_json(capsys, ["hk", "--gamma", "2,3", "--k", "2", "--limit", "50"])
    assert canonical(first) == canonical(second)


def test_hk_elements(capsys):
    code, report = run_json(capsys, ["hk", "--gamma", "2", "--k", "2", "--limit", "20"])
    assert code == EXIT_OK
    assert report["result"]["elements"] == [2, 3, 5, 9, 17]
    code, report = run_json(
        capsys, ["hk", "--gamma", "2", "--k", "3", "--le", "--limit", "20"]
    )
    assert report["result"]["elements"] == [1, 2, 3, 4, 5, 6, 8, 9, 10, 16, 17, 18]


def test_semigroup_list(capsys):
    code, report = run_json(
        capsys, ["semigroup", "list", "--gamma", "6,35", "--limit", "40"]
    )
    assert code == EXIT_OK
    assert report["command"] == "semigroup list"
    assert report["result"]["elements"] == [1, 6, 35, 36]


def test_gamma_validation_is_usage_error(capsys):
    code = run(["semigroup", "list", "--gamma", "6,10", "--limit", "40"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "coprime" in err


def test_sieve_cache(tmp_path, capsys):
    cache = tmp_path / "s.psv"
    code, report = run_json(capsys, ["sieve", "--limit", "1000", "--cache", str(cache)])
    assert code == EXIT_OK
    assert report["result"]["prime_count"] == 168
    assert report["result"]["cache_used"] is False
    assert cache.exists()
    code, report = run_json(capsys, ["sieve", "--limit", "1000", "--cache", str(cache)])
    assert report["result"]["cache_used"] is True


def test_sieve_largest_prime(tmp_path, capsys):
    # 8191 is prime and the last bit of its byte; 1024 and 8192 open a byte
    want = {1: None, 2: 2, 23: 23, 1024: 1021, 1031: 1031, 8191: 8191, 8192: 8191}
    for limit, largest in want.items():
        cache = tmp_path / f"s{limit}.psv"
        for cache_used in (False, True):
            argv = ["sieve", "--limit", str(limit), "--cache", str(cache)]
            code, report = run_json(capsys, argv)
            assert code == EXIT_OK
            assert report["result"]["cache_used"] is cache_used
            assert report["result"]["largest_prime"] == largest, limit


def test_sieve_report_and_cache_match_the_joined_sieve(tmp_path, capsys):
    for limit in (1, 2, 9, 2**14 + 1, 2**21 - 1, 2**22 + 1):
        ps = sieve(limit)
        ps.save(tmp_path / "joined.psv")
        cache = tmp_path / "streamed.psv"
        for argv in (["sieve", "--limit", str(limit)],
                     ["sieve", "--limit", str(limit), "--cache", str(cache)]):
            code, report = run_json(capsys, argv)
            assert code == EXIT_OK
            assert report["result"]["prime_count"] == ps.count(), argv
            assert report["result"]["largest_prime"] == ps.largest_prime(), argv
            assert report["result"]["cache_used"] is False
        assert cache.read_bytes() == (tmp_path / "joined.psv").read_bytes(), limit
        cache.unlink()


def test_sieve_that_fails_midway_leaves_no_cache(tmp_path, capsys, monkeypatch):
    from decomplab import arith

    def failing_windows(lo, hi, overlap=0):
        windows = prime_windows(lo, hi, overlap)
        yield next(windows)
        raise MemoryError

    prime_windows = arith.prime_windows
    cache = tmp_path / "s.psv"
    argv = ["sieve", "--limit", "100000", "--cache", str(cache)]
    monkeypatch.setattr(arith, "prime_windows", failing_windows)
    assert run(argv) == EXIT_RESOURCE
    assert capsys.readouterr().err == "error: out of memory\n"
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    code, report = run_json(capsys, argv)
    assert (code, report["result"]["cache_used"]) == (EXIT_OK, False)
    assert list(tmp_path.iterdir()) == [cache]


def test_sieve_unwritable_cache_fails_before_the_scan(tmp_path, capsys, monkeypatch):
    from decomplab import arith

    monkeypatch.setattr(arith, "prime_windows", None)  # the scan must not start
    cache = str(tmp_path / "missing" / "s.psv")
    assert run(["sieve", "--limit", "1000", "--cache", cache]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{cache}'\n"
    assert list(tmp_path.iterdir()) == []


def test_sieve_cache_with_stray_bits_is_rejected(tmp_path, capsys):
    cache = tmp_path / "s.psv"
    run_json(capsys, ["sieve", "--limit", "20", "--cache", str(cache)])
    raw = bytearray(cache.read_bytes())
    raw[-1] |= 1 << 5  # integer 21
    cache.write_bytes(bytes(raw))
    assert run(["sieve", "--limit", "20", "--cache", str(cache)]) == EXIT_USAGE
    assert "padding" in capsys.readouterr().err


def test_sieve_cache_with_short_header_is_rejected(tmp_path, capsys):
    cache = tmp_path / "bad.psv"
    cache.write_bytes(b"PSV1abc")
    assert run(["sieve", "--limit", "100", "--cache", str(cache)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_sunit_unreadable_coeffs_are_usage_errors(capsys):
    for coeffs in ("abc", "1/0,1"):
        assert run(["sunit", f"--coeffs={coeffs}", "--gamma", "2", "--height", "10"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --coeffs") and captured.err.count("\n") == 1


def test_resource_limits_exit_3(tmp_path, capsys):
    assert run(["sieve", "--limit", "20000000000"]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "budget" in captured.err
    assert captured.out == ""
    target = tmp_path / "wide.txt"
    target.write_text(f"# window 1 {MASK_BUDGET}\n2\n4\n")
    argv = ["decompose", "--kind", "multiplicative", "--target-file", str(target),
            "--max-b-size", "2", "--max-b-elem", "4"]
    assert run(argv) == EXIT_RESOURCE
    assert "dense mask" in capsys.readouterr().err
    argv = ["decompose", "--kind", "additive", "--composites", "--window", f"9,{MASK_BUDGET}",
            "--max-b-size", "2", "--max-b-elem", "4"]
    assert run(argv) == EXIT_RESOURCE


def test_sunit_past_the_head_budget_exits_3(capsys):
    argv = ["sunit", "--coeffs=1,1,1,-1", "--gamma", "2,3,5,7", "--height", str(10**12)]
    assert run(argv) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "SUNIT_BUDGET" in captured.err
    assert captured.out == ""
    code, report = run_json(capsys, ["sunit", "--coeffs=1,-1", "--gamma", "2,3,5,7",
                                     "--height", str(10**12)])
    assert code == EXIT_OK and report["result"]["count"] == 1


def test_allocation_failure_exits_3(monkeypatch, capsys):
    def fail(*args):
        raise MemoryError("Unable to allocate 1.12 GiB")

    monkeypatch.setattr("decomplab.arith._smooth_flags", fail)
    assert run(["smooth", "--policy", "log", "--factor", "2", "--limit", "1000"]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.err == "error: Unable to allocate 1.12 GiB\n" and captured.out == ""


def test_scans_above_2_48_exit_3(capsys):
    # the base primes of a window ending past (2**24 + 1)**2 pass 2**24
    high = 2**49
    for argv in (["tuple", "find", "--offsets=-2,2", "--window", f"{high},{high + 100}"],
                 ["witness", "add", "--b", "0,2", "--n0", str(high), "--limit", str(high + 10**6)]):
        assert run(argv) == EXIT_RESOURCE, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "base primes" in captured.err
        assert captured.out == ""
    # a scan that stops far below 2**48 is not refused, however high its bound
    code, report = run_json(capsys, ["witness", "add", "--b", "0,2", "--n0", "9",
                                     "--limit", str(2**60)])
    assert code == EXIT_OK and report["result"]["n"] == 15


def test_smooth_writes_text_format(tmp_path, capsys):
    out = tmp_path / "smooth.txt"
    code, report = run_json(
        capsys,
        ["smooth", "--policy", "composites", "--limit", "20", "--out", str(out)],
    )
    assert code == EXIT_OK
    assert report["result"]["elements"] == [4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20]
    lines = out.read_text().splitlines()
    assert lines[0] == "# window 1 20"
    assert [int(x) for x in lines[1:]] == report["result"]["elements"]


def test_composite_sets_report_and_write_every_element(tmp_path, capsys):
    # past 10000 elements the report gives head and tail; --out lists all
    limit = 30011
    flags = prime_flags(limit)
    composites = [n for n in range(4, limit + 1) if not flags[n]]
    for shift, want in (([], composites), (["--shift"], [n + 1 for n in composites if n < limit])):
        out = tmp_path / "composites.txt"
        code, report = run_json(capsys, ["smooth", "--policy", "composites", "--limit",
                                         str(limit), *shift, "--out", str(out)])
        result = report["result"]
        assert code == EXIT_OK and result["elements_omitted"] is True
        assert (result["count"], result["head"], result["tail"]) == (len(want), want[:20],
                                                                      want[-20:])
        assert out.read_text() == f"# window 1 {limit}\n" + "".join(f"{n}\n" for n in want)


def test_smooth_policy_flag_requirements(capsys):
    assert run(["smooth", "--policy", "fixed", "--limit", "10"]) == EXIT_USAGE
    code, report = run_json(
        capsys, ["smooth", "--policy", "fixed", "--bound", "2", "--limit", "10"]
    )
    assert code == EXIT_OK and report["result"]["elements"] == [1, 2, 4, 8]


def test_smooth_log_factor_must_be_finite(capsys):
    for factor in ("nan", "inf", "-inf"):
        assert run(["smooth", "--policy", "log", f"--factor={factor}", "--limit", "20"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "finite factor" in captured.err
        assert captured.out == ""
    code = run(["smooth", "--policy", "log", "--factor=1e308", "--limit", "20", "--json"])
    captured = capsys.readouterr()
    assert code == EXIT_OK and captured.err == ""
    assert json.loads(captured.out)["result"]["elements"] == list(range(1, 21))


def test_smooth_at_the_mask_budget_exits_3(capsys):
    for policy in (["composites"], ["fixed", "--bound", "7"], ["log", "--factor", "2"]):
        argv = ["smooth", "--policy", *policy, "--limit", str(MASK_BUDGET)]
        assert run(argv) == EXIT_RESOURCE, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "dense mask" in captured.err
        assert captured.out == ""


def test_tuple_admissible_exit_codes(capsys):
    code, report = run_json(capsys, ["tuple", "admissible", "--offsets", "0,2,6"])
    assert code == EXIT_OK and report["result"]["admissible"] is True
    code, report = run_json(capsys, ["tuple", "admissible", "--offsets", "0,2,4"])
    assert code == EXIT_FAIL and report["result"]["admissible"] is False


def test_tuple_select_triple(capsys):
    code, report = run_json(capsys, ["tuple", "select-triple", "--b2", "1", "--b3", "2"])
    assert code == EXIT_OK
    assert report["result"] == {"b2": 1, "b3": 2, "case": "t4", "offsets": [-1, 1]}


def test_tuple_find(capsys):
    code, report = run_json(
        capsys,
        ["tuple", "find", "--offsets=-1,1", "--window", "3,10", "--composite-center"],
    )
    assert code == EXIT_OK
    assert report["result"]["elements"] == [4, 6]
    code, report = run_json(
        capsys, ["tuple", "find", "--offsets=-1,1", "--window", "24,28"]
    )
    assert code == EXIT_INCONCLUSIVE and report["result"]["elements"] == []


def test_tuple_find_consecutive_gapped_offsets(capsys):
    # n + v must not be prime at each v strictly between the first and last
    # offsets that is not in the pattern; a gap of 14 between consecutive
    # primes first occurs at 113
    for offsets in ((0, 2, 6), (-4, 2), (0, 14), (-6, 0, 6)):
        for lo, hi in ((0, 3000), (10**6 - 1500, 10**6 + 1500)):
            text = ",".join(map(str, offsets))
            code, report = run_json(capsys, ["tuple", "find", f"--offsets={text}", "--window",
                                             f"{lo},{hi}", "--consecutive"])
            want = naive_constellation(offsets, lo, hi, naive_is_prime, consecutive=True)
            assert report["result"]["elements"] == want, (offsets, lo)
            assert code == (EXIT_OK if want else EXIT_INCONCLUSIVE)


def test_witness_add(capsys):
    code, report = run_json(
        capsys, ["witness", "add", "--b", "0,2", "--n0", "9", "--limit", "100000"]
    )
    assert code == EXIT_OK
    assert report["result"]["n"] == 15
    assert report["witnesses"][0]["validated"] is True
    assert report["witnesses"][0]["primes"] == [13, 17]


def test_witness_add_inconclusive(capsys):
    code, report = run_json(
        capsys, ["witness", "add", "--b", "0,2", "--n0", "9", "--limit", "12"]
    )
    assert code == EXIT_INCONCLUSIVE
    assert report["result"]["found"] is False and report["witnesses"] == []


def test_witness_add_empty_range_is_usage_error(capsys):
    # the default --limit (10**7) lies below n0 + max(b)
    assert run(["witness", "add", "--b", "0,2", "--n0", "1000000000"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "empty search range" in captured.err
    assert captured.out == ""


def test_witness_mul_empty_range_is_usage_error(capsys):
    # the default --t-hi (10**6) lies below n0, so t has nowhere to run
    assert run(["witness", "mul", "--b", "1,2", "--n0", "2000000"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "empty search range" in captured.err
    assert captured.out == ""


def test_witness_mul(capsys):
    code, report = run_json(
        capsys, ["witness", "mul", "--b", "1,2", "--n0", "1", "--t-hi", "1000"]
    )
    assert code == EXIT_OK
    assert report["result"]["n"] == 300
    w = report["witnesses"][0]
    assert w["branch"] == "unit" and w["plan"]["prog_step"] == 120
    code, report = run_json(
        capsys, ["witness", "mul", "--b", "2,3", "--n0", "10", "--t-hi", "10"]
    )
    assert code == EXIT_OK and report["result"]["branch"] == "nonunit"


def test_decompose_composites(capsys):
    code, report = run_json(
        capsys,
        [
            "decompose", "--kind", "additive", "--composites", "--window", "9,10000",
            "--max-b-size", "4", "--max-b-elem", "5",
        ],
    )
    assert code == EXIT_OK
    parts = [c["b"] for c in report["result"]["candidates"]]
    assert [0, 1, 3, 5] in parts


def test_decompose_target_file(tmp_path, capsys):
    from decomplab import IntegerSet

    path = tmp_path / "t.txt"
    IntegerSet((0, 1, 2, 3), 0, 3).save_text(path)
    code, report = run_json(
        capsys,
        ["decompose", "--kind", "additive", "--target-file", str(path),
         "--max-b-size", "2", "--max-b-elem", "3"],
    )
    assert code == EXIT_OK
    assert [c["b"] for c in report["result"]["candidates"]] == [[0, 1], [0, 2]]


def test_decompose_parts_stop_at_the_window_top(tmp_path):
    # no part above the window's top hi can be accepted, so a --max-b-elem far
    # past hi finds the same candidates as hi itself, in about the same time
    # and memory: combinations() holds its whole pool, and 10**9 parts would
    # not fit under the 3 GiB cap
    import resource

    from decomplab import IntegerSet

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    sparse = tmp_path / "sparse.txt"
    powers = [3**a for a in range(10)]
    IntegerSet.from_values({x + y for x in powers for y in powers if x + y <= 20000},
                           1, 20000).save_text(sparse)
    for source, hi in ((["--composites", "--window", "1,100"], 100),
                       (["--target-file", str(sparse)], 20000)):
        for kind in ("additive", "multiplicative"):
            found = []
            for max_b_elem in (hi, 10**9):
                argv = ["decompose", "--kind", kind, *source, "--max-b-size", "2",
                        "--max-b-elem", str(max_b_elem), "--json"]
                proc = subprocess.run([sys.executable, "-m", "decomplab", *argv],
                                      capture_output=True, text=True, timeout=20,
                                      preexec_fn=cap_address_space)
                assert proc.returncode == EXIT_OK, proc.stderr
                found.append(json.loads(proc.stdout)["result"]["candidates"])
            assert found[0] and found[0] == found[1], (source, kind)


def test_decompose_target_out_of_range_is_usage_error(tmp_path, capsys):
    path = tmp_path / "t.txt"
    for header, value, message in (("0 10", -1, "inside the window"),
                                   (f"0 {1 << 64}", 1 << 64, "exceed 2**63")):
        path.write_text(f"# window {header}\n3\n{value}\n")
        argv = ["decompose", "--kind", "additive", "--target-file", str(path),
                "--max-b-size", "2", "--max-b-elem", "3"]
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err


def test_sunit_report(capsys):
    code, report = run_json(
        capsys, ["sunit", "--coeffs", "1,1,-1", "--gamma", "2,3", "--height", "100"]
    )
    assert code == EXIT_OK
    reps = {tuple(c["representative"]) for c in report["result"]["classes"]}
    assert (1, 8, 9) in reps
    assert not any(c["degenerate"] for c in report["result"]["classes"])


def test_l_set_report(capsys):
    code, report = run_json(
        capsys,
        ["l-set", "--gamma", "2,3", "--k", "2", "--height", "100", "--eps-height", "10"],
    )
    assert code == EXIT_OK
    assert {1, 2, 3, 4, 8, 9} <= set(report["result"]["elements"])


def test_two_term_report(capsys):
    code, report = run_json(
        capsys,
        ["two-term", "--t2", "3", "--t1", "1", "--n", "2", "--c", "1", "--cap", "20"],
    )
    assert code == EXIT_OK
    assert report["result"]["solutions"] == [[0, 1]]
    assert report["result"]["min_exponent_bound"] == 0


def test_mprim_scan_exit_codes(capsys):
    code, report = run_json(
        capsys,
        ["mprim-scan", "--gamma", "2", "--k", "3", "--le", "--limit", "65536",
         "--max-b-size", "2", "--max-b-elem", "2"],
    )
    assert code == EXIT_OK
    assert report["result"]["found_parts"] == [[1, 2]]
    assert report["result"]["consistent"] is True
    code, report = run_json(
        capsys,
        ["mprim-scan", "--gamma", "2,3", "--k", "2", "--limit", "10000",
         "--max-b-size", "3", "--max-b-elem", "20"],
    )
    assert code == EXIT_OK and report["result"]["found_parts"] == []


def test_usage_errors(capsys):
    assert run([]) == EXIT_USAGE
    assert run(["no-such-command"]) == EXIT_USAGE
    assert run(["verify-thm1"]) == EXIT_USAGE
    assert run(["verify-thm1", "--limit", "abc"]) == EXIT_USAGE
    assert run(["tuple", "find", "--offsets", "0,2", "--window", "5"]) == EXIT_USAGE
    assert run(["verify-thm1", "--limit", "100", "--threads", "0"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error" in err


# the usage of each command path's --help, with its line breaks folded into
# spaces, and the usage errors the parser reports; each parser is built
# only for the command it runs, and these pin the text of the full one
USAGE = {
    "sieve": "decomplab sieve [-h] [--json] [--threads THREADS] --limit LIMIT [--cache CACHE]",
    "smooth": "decomplab smooth [-h] [--json] [--threads THREADS] --policy {composites,fixed,log} --limit LIMIT [--bound BOUND] [--factor FACTOR] [--shift] [--out OUT]",
    "verify-thm1": "decomplab verify-thm1 [-h] [--json] [--threads THREADS] --limit LIMIT",
    "tuple": "decomplab tuple [-h] [--json] [--threads THREADS] {admissible,select-triple,find} ...",
    "tuple admissible": "decomplab tuple admissible [-h] [--json] [--threads THREADS] --offsets OFFSETS",
    "tuple select-triple": "decomplab tuple select-triple [-h] [--json] [--threads THREADS] --b2 B2 --b3 B3",
    "tuple find": "decomplab tuple find [-h] [--json] [--threads THREADS] --offsets OFFSETS --window WINDOW [--composite-center] [--consecutive]",
    "witness": "decomplab witness [-h] [--json] [--threads THREADS] {add,mul} ...",
    "witness add": "decomplab witness add [-h] [--json] [--threads THREADS] --b B [--n0 N0] [--limit LIMIT]",
    "witness mul": "decomplab witness mul [-h] [--json] [--threads THREADS] --b B [--n0 N0] [--t-hi T_HI]",
    "semigroup": "decomplab semigroup [-h] [--json] [--threads THREADS] {list} ...",
    "semigroup list": "decomplab semigroup list [-h] [--json] [--threads THREADS] --gamma GAMMA --limit LIMIT",
    "hk": "decomplab hk [-h] [--json] [--threads THREADS] --gamma GAMMA --k K [--le] --limit LIMIT",
    "verify-exception": "decomplab verify-exception [-h] [--json] [--threads THREADS] --limit LIMIT",
    "decompose": "decomplab decompose [-h] [--json] [--threads THREADS] --kind {additive,multiplicative} [--target-file TARGET_FILE] [--composites] [--window WINDOW] --max-b-size MAX_B_SIZE --max-b-elem MAX_B_ELEM [--full-window]",
    "sunit": "decomplab sunit [-h] [--json] [--threads THREADS] --coeffs COEFFS --gamma GAMMA --height HEIGHT",
    "l-set": "decomplab l-set [-h] [--json] [--threads THREADS] --gamma GAMMA --k K --height HEIGHT --eps-height EPS_HEIGHT",
    "two-term": "decomplab two-term [-h] [--json] [--threads THREADS] --t2 T2 --t1 T1 --n N --c C --cap CAP",
    "mprim-scan": "decomplab mprim-scan [-h] [--json] [--threads THREADS] --gamma GAMMA --k K [--le] --limit LIMIT [--max-b-size MAX_B_SIZE] [--max-b-elem MAX_B_ELEM]",
}
COMMANDS = ("{sieve,smooth,verify-thm1,tuple,witness,semigroup,hk,verify-exception,decompose,"
            "sunit,l-set,two-term,mprim-scan}")
USAGE_ERRORS = {
    "bogus": "argument command: invalid choice: 'bogus' (choose from 'sieve', 'smooth', "
             "'verify-thm1', 'tuple', 'witness', 'semigroup', 'hk', 'verify-exception', "
             "'decompose', 'sunit', 'l-set', 'two-term', 'mprim-scan')",
    "tuple bogus": "argument tuple_command: invalid choice: 'bogus' (choose from 'admissible', "
                   "'select-triple', 'find')",
    "witness": "missing subcommand",
    "semigroup": "missing subcommand",
}


def _help(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        run(argv)
    assert exit_.value.code == 0, argv
    return capsys.readouterr().out


def test_help_and_usage_errors_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for path, usage in USAGE.items():
        out = _help(path.split() + ["--help"], capsys)
        assert " ".join(out.split("\n\n")[0].split()) == "usage: " + usage, path
    for argv in (["--help"], ["-h"]):
        out = _help(argv, capsys)
        assert out.startswith(f"usage: decomplab [-h]\n{' ' * 17}{COMMANDS}\n"), argv
        assert f"\npositional arguments:\n  {COMMANDS}\n" in out, argv
    for argv, message in USAGE_ERRORS.items():
        assert run(argv.split()) == EXIT_USAGE, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv


def test_big_integers_become_strings(capsys):
    code, report = run_json(
        capsys,
        ["two-term", "--t2", "1", "--t1", "1", "--n", "10", "--c", "0", "--cap", "20"],
    )
    assert code == EXIT_OK  # solutions are exponent pairs, small ints stay ints
    assert report["result"]["solutions"][0] == [0, 0]
    from decomplab.cli import _jsonable

    assert _jsonable({"x": 2**60}) == {"x": str(2**60)}
    assert _jsonable({"x": 2**50}) == {"x": 2**50}
    assert _jsonable(True) is True


# one argv for each subcommand that builds no array; both witness mul branches,
# composite sets, which are bits, and dense multiplicative searches on flags
NUMPY_FREE = [
    ["sunit", "--coeffs=1,1,-4", "--gamma", "2,3,5", "--height", "100"],
    ["l-set", "--gamma", "2,3", "--k", "2", "--height", "100", "--eps-height", "10"],
    ["hk", "--gamma", "2,3", "--k", "2", "--limit", "50"],
    ["witness", "mul", "--b", "1,2", "--n0", "1", "--t-hi", "1000"],
    ["witness", "mul", "--b", "2,3", "--n0", "100"],
    ["tuple", "admissible", "--offsets=0,2,6"],
    ["tuple", "select-triple", "--b2", "2", "--b3", "6"],
    ["two-term", "--t2", "4", "--t1", "8", "--n", "3", "--c=-3099127716", "--cap", "49"],
    ["semigroup", "list", "--gamma", "2,7", "--limit", "1000"],
    ["verify-exception", "--limit", "1048576"],
    ["mprim-scan", "--gamma", "2", "--k", "3", "--le", "--limit", "100000"],
    ["tuple", "find", "--offsets=0,2,6", "--window", "1000000,1100000", "--consecutive"],
    ["witness", "add", "--b", "0,2,5", "--n0", "24850656", "--limit", "2000000000"],
    ["verify-thm1", "--limit", "1000000"],
    ["sieve", "--limit", "100000"],
    ["sieve", "--limit", "150000000"],
    ["decompose", "--kind", "additive", "--composites", "--window", "9,20000",
     "--max-b-size", "3", "--max-b-elem", "8"],
    ["decompose", "--kind", "multiplicative", "--composites", "--window", "9,20000",
     "--max-b-size", "3", "--max-b-elem", "8"],
    ["mprim-scan", "--gamma", "2,3,5", "--k", "3", "--le", "--limit", "100000",
     "--max-b-elem", "40"],
    ["smooth", "--policy", "composites", "--limit", "200000"],
    ["smooth", "--policy", "composites", "--limit", "200000", "--shift"],
    ["smooth", "--policy", "fixed", "--bound", "107", "--limit", "200000", "--shift"],
]


def test_point_queries_start_without_numpy(tmp_path, capsys):
    # nor do a sieve read back from a matching cache and a smooth set written out
    cache = tmp_path / "sieve.psv"
    sieve(1000).save(cache)
    argvs = NUMPY_FREE + [["sieve", "--limit", "1000", "--cache", str(cache)],
                          ["smooth", "--policy", "log", "--factor", "3", "--limit", "200000",
                           "--out", str(tmp_path / "smooth.txt")]]
    # nor do long scans: 101 segments from 0, and a window near 2**48, where
    # every base prime below 2**24 is listed; their reports are the ones run
    # in-process
    scans = [["sieve", "--limit", "210000000"],
             ["tuple", "find", "--offsets=-2,2", "--window", "281474976710600,281474976710700"]]
    # every test module imports numpy, so the check runs in a fresh interpreter
    script = (
        "import contextlib, io, json, sys\n"
        "from decomplab.cli import run\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        runs.append([run(argv + ['--json']), out.getvalue()])\n"
        "print(json.dumps([runs, 'numpy' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs + scans)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    runs, numpy_loaded = json.loads(proc.stdout)
    assert not numpy_loaded
    assert [code for code, _ in runs[: len(argvs)]] == [EXIT_OK] * len(argvs)
    for argv, (code, out) in zip(scans, runs[len(argvs):]):
        want_code, want = run_json(capsys, argv)
        assert (code, canonical(json.loads(out))) == (want_code, canonical(want)), argv


# the layers whose code each command runs, besides cli; a layer runs on first use.
# arith imports primes, so every command that runs arith runs primes too.
# {tmp} is a folder the test writes the --target-file set into.
LAYERS_RUN = [
    (["tuple", "admissible", "--offsets=0,2,6"], {"tuples", "primes"}),
    (["tuple", "select-triple", "--b2", "2", "--b3", "6"], {"tuples", "primes"}),
    (["tuple", "find", "--offsets=0,2", "--window", "0,1000"], {"tuples", "primes", "arith"}),
    (["witness", "add", "--b", "0,2", "--n0", "100"], {"tuples", "primes", "arith"}),
    (["witness", "mul", "--b", "1,2", "--n0", "1", "--t-hi", "1000"], {"mwitness", "primes"}),
    (["sieve", "--limit", "1000"], {"arith", "primes"}),
    (["verify-thm1", "--limit", "1000"], {"arith", "primes", "sets"}),
    (["smooth", "--policy", "composites", "--limit", "100"], {"arith", "primes", "sets"}),
    (["decompose", "--kind", "additive", "--composites", "--window", "9,1000",
      "--max-b-size", "2", "--max-b-elem", "5"], {"arith", "primes", "sets", "search"}),
    (["decompose", "--kind", "additive", "--target-file", "{tmp}/target.txt",
      "--max-b-size", "2", "--max-b-elem", "5"], {"sets", "search"}),
    (["semigroup", "list", "--gamma", "2,3", "--limit", "100"], {"semigroup", "sets"}),
    (["two-term", "--t2", "3", "--t1", "1", "--n", "2", "--c", "1", "--cap", "20"],
     {"semigroup"}),
    (["verify-exception", "--limit", "100"], {"semigroup", "sets"}),
    (["sunit", "--coeffs", "1,1,-1", "--gamma", "2,3", "--height", "100"], {"semigroup"}),
    (["hk", "--gamma", "2,3", "--k", "2", "--limit", "100"], {"semigroup", "sets"}),
    (["l-set", "--gamma", "2,3", "--k", "2", "--height", "100", "--eps-height", "10"],
     {"semigroup", "sets"}),
    (["mprim-scan", "--gamma", "2", "--k", "3", "--le", "--limit", "65536",
      "--max-b-size", "2", "--max-b-elem", "2"], {"semigroup", "sets", "search"}),
]
LAYERS = {"arith", "mwitness", "primes", "search", "semigroup", "sets", "tuples"}

# a fresh interpreter: imports decomplab.cli, runs argv (if any) through
# cli.run, and reports which decomplab modules are registered and which ran,
# whether fractions is loaded, and which of dataclasses and the modules it
# imports, inspect and ast, are
_LOAD_STATE = (
    "import contextlib, io, json, sys, types\n"
    "import decomplab.cli\n"
    "argv = json.loads(sys.argv[1])\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = decomplab.cli.run(argv + ['--json']) if argv else None\n"
    "mods = {n[len('decomplab.'):]: m for n, m in sys.modules.items()\n"
    "        if n.startswith('decomplab.')}\n"
    "print(json.dumps([code, sorted(mods),\n"
    "                  sorted(n for n, m in mods.items() if type(m) is types.ModuleType),\n"
    "                  'fractions' in sys.modules,\n"
    "                  [n for n in ('dataclasses', 'inspect', 'ast') if n in sys.modules]]))\n"
)


def _load_state(argv):
    proc = subprocess.run([sys.executable, "-c", _LOAD_STATE, json.dumps(argv)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bare_cli_import_registers_every_layer_and_runs_none():
    code, registered, ran, fractions, record_imports = _load_state([])
    assert set(registered) == LAYERS | {"cli"}
    assert ran == ["cli"] and not fractions
    assert record_imports == []


def test_each_command_runs_only_its_layers(tmp_path):
    (tmp_path / "target.txt").write_text("# window 9 100\n" + "".join(
        f"{n}\n" for n in range(9, 101) if not naive_is_prime(n)))
    for argv, layers in LAYERS_RUN:
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code, registered, ran, fractions, record_imports = _load_state(argv)
        assert code == EXIT_OK, argv
        assert set(registered) == LAYERS | {"cli"}, argv
        assert set(ran) == layers | {"cli"}, argv
        assert fractions == (argv[0] == "sunit"), argv  # only S-unit equations load it
        assert record_imports == [], argv


def test_primality_runs_without_the_prime_scan():
    # the tests of single integers are their own layer: arith stays unrun
    script = (
        "import json, sys, types\n"
        "import decomplab.primes as primes\n"
        "done = [primes.is_prime(2**61 - 1), primes.factorize(2**62 - 1)[-1][0]]\n"
        "arith = sys.modules['decomplab.arith']\n"
        "print(json.dumps([done, type(arith) is types.ModuleType]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[True, 2147483647], False]


def _subcommands(parser) -> list[str]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_each_parser_holds_only_its_command():
    full = _build_parser([])
    assert list(_subcommands(full)) == COMMANDS[1:-1].split(",")
    groups = {"tuple": ["admissible", "select-triple", "find"], "witness": ["add", "mul"],
              "semigroup": ["list"]}
    for argv, _ in LAYERS_RUN:
        argv = argv + ["--json"]
        parser = _build_parser(argv)
        assert parser.parse_args(argv) == full.parse_args(argv), argv
        (command,) = _subcommands(parser)
        assert command == argv[0]
        subparsers = [a for a in _subcommands(parser)[command]._actions
                      if isinstance(a, argparse._SubParsersAction)]
        assert [list(a.choices) for a in subparsers] == ([groups[command]] if command in groups
                                                         else []), argv


def test_star_import_resolves_every_public_name():
    script = (
        "import json, types\n"
        "import decomplab\n"
        "from decomplab import *\n"
        "names = decomplab.__all__\n"
        "print(json.dumps([len(names), all(n in globals() for n in names),\n"
        "                  all(not isinstance(globals()[n], types.ModuleType) for n in names)]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [48, True, True]


def test_reader_closing_stdout_early_is_not_a_failure():
    # the report is about 116 KB, well past a 64 KiB pipe buffer
    proc = subprocess.Popen([sys.executable, "-m", "decomplab", "smooth", "--policy",
                             "composites", "--limit", "11000", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (EXIT_OK, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_report_that_cannot_be_written_is_a_resource_error(mode):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "decomplab", "sieve", "--limit", "1000",
                               *mode], stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == EXIT_RESOURCE
    assert proc.stderr.startswith("error: cannot write the report: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_set_file_on_a_full_disk_is_a_resource_error(capsys):
    argv = ["smooth", "--policy", "composites", "--limit", "100", "--out", "/dev/full"]
    assert run(argv) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 28] No space left on device\n"


def test_cache_on_a_full_disk_is_a_resource_error(tmp_path, capsys, monkeypatch):
    from decomplab import arith

    def full_disk(limit, write):
        def fail(data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return scanned(limit, fail)

    scanned = arith._scanned
    monkeypatch.setattr(arith, "_scanned", full_disk)
    cache = tmp_path / "s.psv"
    assert run(["sieve", "--limit", "100000", "--cache", str(cache)]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert list(tmp_path.iterdir()) == []  # the part file is gone, and no cache is left


def test_human_output_and_entry_point(capsys):
    code = run(["tuple", "select-triple", "--b2", "2", "--b3", "4"])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "case = t2" in out
    proc = subprocess.run(
        [sys.executable, "-m", "decomplab", "verify-exception", "--limit", "1024", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["passed"] is True
