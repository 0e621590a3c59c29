"""Seeded job generator: every workload is an endless series of rounds, and
every round is the workload's fixed job mix with sizes and values drawn from
the seed.

A job is one `decomplab` argv (without `--json`). Jobs that share a file, a
sieve cache written then read or a set written by `smooth --out` then read
by `decompose --target-file`, form a group that always runs whole and in
order. The program receives nothing but the argv.

Sizes are log-spaced over the ranges each operation is run at, one size per
stratum, and the seed lowers each by at most 2%; other values the seed picks
come from narrow ranges of equal cost, and catalogue entries are taken in
turn, one per round. Every round has the same jobs in the same order, so the
runner can take each job's median over a run's rounds. A round's cost, and
so a run's timing and memory, hardly depends on the seed, while the numbers,
and with them every output the checker verifies, change with it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

DEFAULT_SEED = 20201126
WORK = ".bench_work"  # scratch files of the jobs, relative to the checkout root


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    expect: tuple[tuple[str, object], ...] = ()  # result fields the checker demands


@dataclass(frozen=True)
class Group:
    jobs: tuple[Job, ...]
    files: tuple[str, ...] = ()  # removed before and after the group


@dataclass(frozen=True)
class Workload:
    make_round: object  # (random.Random, round index) -> list[Group]
    tail_pct: int  # fixed percentile reported as job_tail_s
    trace_rounds: int  # rounds replayed in-process by the traced pass


def _sizes(rng: random.Random, lo_exp: float, hi_exp: float, k: int) -> list[int]:
    step = (hi_exp - lo_exp) / k
    return [
        int(10 ** (lo_exp + step * (i + 0.5)) * (1 - 0.02 * rng.random()))
        for i in range(k)
    ]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _single(*argv, **expect) -> Group:
    return Group((Job(tuple(str(a) for a in argv), tuple(sorted(expect.items()))),))


# Catalogues: decompose, hk and l-set have no cheap independent check, so
# their reports are pinned by digest (digests.json, written by pin.py).
# Rounds take the entries in turn, from a start the seed picks.

DECOMPOSE_ADDITIVE = {
    # (max_b_size, max_b_elem): windows [9, W] of similar time and memory
    (4, 8): (96000, 98000, 100000),
    (4, 16): (96000, 98000, 100000),
    (3, 16): (960000, 980000, 1000000),
}

SMOOTH_TARGETS = (
    # smooth argv, decompose --kind multiplicative sizes
    (("--policy", "fixed", "--bound", "60", "--limit", "300000"), (3, 20)),
    (("--policy", "fixed", "--bound", "120", "--limit", "200000"), (3, 20)),
    (("--policy", "log", "--factor", "3", "--limit", "600000"), (3, 20)),
    (("--policy", "log", "--factor", "4", "--limit", "400000"), (3, 20)),
    (("--policy", "composites", "--limit", "500000"), (2, 40)),
)

HK_HEAVY = (
    ("--gamma", "2,3,5", "--k", "3", "--le", "--limit", "1000000"),
    ("--gamma", "2,3,7", "--k", "3", "--le", "--limit", "1000000"),
    ("--gamma", "2,3,5", "--k", "2", "--limit", "1000000"),
    ("--gamma", "2,5,7", "--k", "3", "--limit", "1000000"),
)

LSET_HEAVY = (
    ("--gamma", "2,3", "--k", "3", "--height", "10000", "--eps-height", "100"),
    ("--gamma", "2,3,5", "--k", "2", "--height", "1000", "--eps-height", "30"),
    ("--gamma", "2,5", "--k", "3", "--height", "10000", "--eps-height", "100"),
)

# witness mul bases with 1 in b whose progression near n0 = 1e9 reaches
# values in [2**63, 2**64), the top of is_prime's range.
UNIT_BASES = ((1, 3, 5, 7, 11, 13, 17, 19), (1, 5, 7, 11, 13, 17, 19, 23))
# Bases whose progression passes 2**64 near n0 = 1e9: the program refuses
# them (exit 64, "is_prime covers [0, 2**64)").
BEYOND_BASES = ((1, 3, 5, 7, 11, 13, 17, 19, 23), (1, 3, 5, 7, 11, 13, 17, 19, 23, 29))


def _decompose_additive_argv(size: int, elem: int, window_hi: int) -> tuple[str, ...]:
    return ("decompose", "--kind", "additive", "--composites", "--window", f"9,{window_hi}",
            "--max-b-size", str(size), "--max-b-elem", str(elem))


def _smooth_target_group(spec) -> Group:
    smooth_args, (size, elem) = spec
    path = f"{WORK}/target-{'_'.join(a.strip('-') for a in smooth_args)}.txt"
    return Group(
        (
            Job(("smooth", *smooth_args, "--out", path)),
            Job(("decompose", "--kind", "multiplicative", "--target-file", path,
                 "--max-b-size", str(size), "--max-b-elem", str(elem))),
        ),
        files=(path,),
    )


def catalogue() -> list[tuple[str, ...]]:
    """Every argv whose report is pinned by digest, producers first."""
    out = []
    for (size, elem), windows in DECOMPOSE_ADDITIVE.items():
        out += [_decompose_additive_argv(size, elem, w) for w in windows]
    for spec in SMOOTH_TARGETS:
        out += [job.argv for job in _smooth_target_group(spec).jobs]
    out += [("hk", *a) for a in HK_HEAVY]
    out += [("l-set", *a) for a in LSET_HEAVY]
    return out


def _pick(entries, index: int):
    """The catalogue entry for this round: rounds cycle through the entries,
    so every run covers them evenly whatever the seed."""
    return entries[index % len(entries)]


def sieve_scan_round(rng: random.Random, index: int) -> list[Group]:
    groups = [_single("verify-thm1", "--limit", n) for n in _sizes(rng, 7, 8, 2)]
    for limit in _sizes(rng, 7, 8.6, 2):
        cache = f"{WORK}/sieve-{limit}.psv"
        argv = ("sieve", "--limit", str(limit), "--cache", cache)
        groups.append(Group(
            (Job(argv, (("cache_used", False),)), Job(argv, (("cache_used", True),))),
            files=(cache,),
        ))
    for i, n0 in enumerate(_sizes(rng, 7, 8.6, 2)):
        b2 = rng.randint(1, 11)
        b = (0, b2) if i % 2 == 0 else (0, b2, rng.randint(b2 + 1, 12))
        groups.append(_single("witness", "add", "--b", _csv(b), "--n0", n0, "--limit", 2 * 10**9))
    for i, hi in enumerate(_sizes(rng, 6.5, 7.7, 2)):
        if i % 2 == 0:
            offsets = rng.choice(((-2, 2), (-4, 4), (-6, 6), (-2, 4), (-4, 2)))
            window, flag = f"{hi // 2},{hi}", "--composite-center"
        else:
            offsets = rng.choice(((0, 2), (0, 4), (0, 6), (0, 2, 6), (0, 4, 6)))
            window, flag = f"{hi // 2},{hi}", "--consecutive"
        groups.append(_single("tuple", "find", f"--offsets={_csv(offsets)}", "--window", window, flag))
    # one size stratum of [1e5, 1e7] per policy; the middle one shifted
    for policy, limit in zip(("log", "fixed", "composites"), _sizes(rng, 5, 7, 3)):
        argv = ["smooth", "--policy", policy, "--limit", str(limit)]
        if policy == "fixed":
            argv += ["--bound", str(rng.randint(100, 140)), "--shift"]
        elif policy == "log":
            argv += ["--factor", f"{rng.uniform(2.8, 3.2):.3f}"]
        groups.append(_single(*argv))
    return groups


def exhaustive_search_round(rng: random.Random, index: int) -> list[Group]:
    groups = [
        _single(*_decompose_additive_argv(size, elem, _pick(windows, index)))
        for (size, elem), windows in DECOMPOSE_ADDITIVE.items()
    ]
    groups.append(_smooth_target_group(_pick(SMOOTH_TARGETS, index)))
    (limit,) = _sizes(rng, 4.5, 5.5, 1)
    groups.append(_single("mprim-scan", "--gamma", "2", "--k", "3", "--le", "--limit", limit))
    (limit,) = _sizes(rng, 4.5, 5.5, 1)
    groups.append(_single("mprim-scan", "--gamma", "2,3", "--k", "2", "--limit", limit))
    (height3,) = _sizes(rng, 3, 4, 1)
    (height4,) = _sizes(rng, 2.5, 3.5, 1)
    for gamma, height, m in (("2,3,5", height3, 3), ("2,3", height4, 4)):
        coeffs = [rng.randint(1, 3) for _ in range(m - 1)] + [-rng.randint(1, 6)]
        groups.append(_single("sunit", f"--coeffs={_csv(coeffs)}", "--gamma", gamma,
                              "--height", height))
    groups.append(_single("l-set", *_pick(LSET_HEAVY, index)))
    groups.append(_single("hk", *_pick(HK_HEAVY, index)))
    return groups + _point_queries(rng)


def _coprime_gamma(rng: random.Random) -> tuple[int, ...]:
    pool = [2, 3, 4, 5, 7, 9, 11, 13, 25, 27]
    rng.shuffle(pool)
    gamma: list[int] = []
    for g in pool[: rng.randint(1, 4)]:
        if all(gcd(g, h) == 1 for h in gamma):
            gamma.append(g)
    return tuple(sorted(gamma))


def _point_queries(rng: random.Random) -> list[Group]:
    """Jobs of milliseconds, where start-up, import and the report dominate:
    one `witness mul` on each branch (1 in b, with values in [2**63, 2**64),
    and 1 not in b) and one of each quick query."""
    (n0,) = _sizes(rng, 8.8, 9, 1)
    b = sorted(rng.sample(range(2, 31), rng.randint(2, 12)))
    offsets = sorted(rng.sample(range(-30, 31), rng.randint(2, 6)))
    b2 = rng.randint(1, 99)
    t2, t1, n, cap = rng.randint(1, 9), rng.randint(1, 9), rng.randint(2, 10), rng.randint(20, 60)
    c = t2 * n ** rng.randint(0, cap) - t1 * n ** rng.randint(0, cap)
    return [
        _single("witness", "mul", "--b", _csv(rng.choice(UNIT_BASES)), "--n0", n0,
                "--t-hi", 2 * 10**9),
        _single("witness", "mul", "--b", _csv(b), "--n0", rng.randint(1, 10**9)),
        _single("tuple", "admissible", f"--offsets={_csv(offsets)}"),
        _single("tuple", "select-triple", "--b2", b2, "--b3", rng.randint(b2 + 1, 100)),
        _single("two-term", "--t2", t2, "--t1", t1, "--n", n, f"--c={c}", "--cap", cap),
        _single("semigroup", "list", "--gamma", _csv(_coprime_gamma(rng)),
                "--limit", rng.randint(10**3, 10**12)),
        _single("verify-exception", "--limit", rng.randint(2**10, 2**30)),
    ]


def _probes(rng: random.Random) -> list[Job]:
    return [
        Job(("witness", "mul", "--b", _csv(b), "--n0", str(n0), "--t-hi", str(2 * 10**9)))
        for b, n0 in zip(BEYOND_BASES, _sizes(rng, 8.5, 9.5, 2))
    ]


# Why each workload was chosen is recorded in BENCHMARK.json. tail_pct is
# taken over the round's job medians: the highest percentile with three jobs
# beyond it, so at least twelve runs of jobs lie beyond it in a run of four
# rounds or more. It stays fixed so that runs of faster code compare the
# same tail.
WORKLOADS = {
    "sieve_scan": Workload(sieve_scan_round, tail_pct=75, trace_rounds=1),
    "exhaustive_search": Workload(exhaustive_search_round, tail_pct=80, trace_rounds=2),
}


def rounds(workload: str, seed: int):
    """The workload's rounds for this seed, endlessly; the same seed always
    yields the same argv lists. Every round has the same jobs in the same
    order, each of the same cost, so a job's position in its round names it."""
    rng = random.Random(f"{workload}:{seed}")
    start = rng.randrange(1 << 16)  # where the catalogue cycles begin
    make = WORKLOADS[workload].make_round
    index = start
    while True:
        yield make(rng, index)
        index += 1


def probes(workload: str, seed: int) -> list[Job]:
    if workload != "exhaustive_search":
        return []
    return _probes(random.Random(f"{workload}:probe:{seed}"))
