"""The walk of decompose_search over the parts b, and the two paths of
steps it runs on: the dense one over the whole window, on ints of bits, and
the sparse one on the target's elements.  decompose_search, in sets, checks
its arguments, chooses the path and imports this module when it is called,
so the commands that build sets but search none never compile it."""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from operator import contains

from . import _flags, _pack
from .sets import DecompositionCandidate, IntegerSet


def _search(target: IntegerSet, kind: str, max_b_size: int, max_b_elem: int,
            full_window: bool, path) -> list[DecompositionCandidate]:
    """decompose_search's walk over the parts b, on the given path.

    The kind decides the parts b tried (0 plus a subset of
    1..min(max_b_elem, hi), or a subset of the divisor pool up to the same
    bound) and the least c.  The parts form a set-enumeration tree: a part
    extends its prefix by one beta above all of the prefix's, and the walk
    visits the tree depth first, in increasing order, so the parts come out
    sorted.  Since c(b + beta) = c(b) & S_beta, each part narrows its
    prefix's c once; and since c only shrinks, a prefix with fewer than two
    c has no accepted extension, so its subtree is skipped.  The stack keeps
    one frame per level (prefix, its c, the pool indices left, its
    witness), not Python frames, so a deep tree cannot reach the recursion
    limit.

    A rejected part hands a witness to its subtree: a target element t of
    the core, [lo (+|*) M, hi (-|//) M] for the pool's largest M, or
    [lo, hi] with full_window, which lies in every part's cover window.  No
    beta of the part covers t, and a descendant's c is a subset of the
    part's, so only the descendant's own new beta can: the descendant is
    rejected, and keeps t, unless beta (+|*) x = t for some x in its c.
    Only then is its cover checked in full.

    The path, path(target, additive, c_min), gives start, the c of the root
    ((0,) or the empty part), and five steps: divides(d), whether d divides
    a target element (read by multiplicative searches only);
    narrow(c, beta), c & S_beta, where S_beta holds the c whose combination
    with beta lands in the target or below the window, or None when fewer
    than two remain; covers(b, c, cover_lo, cover_hi, core_lo, core_hi),
    None when b (+|*) c holds every target element of [cover_lo, cover_hi],
    else the least one it misses in [core_lo, core_hi] if there is one, or
    the least it misses; has(c, x), whether x is in c; and as_set(c,
    climit), c as an IntegerSet on [c_min, climit], climit = hi (-|//)
    max b.
    """
    lo, hi = target.window_lo, target.window_hi
    additive = kind == "additive"
    c_min = 0 if additive else 1
    start, divides, narrow, covers, has, as_set = path(target, additive, c_min)
    # parts above hi are not tried: an additive one leaves climit < 0, and no
    # d > hi divides a target element
    top = min(max_b_elem, hi)
    if additive:
        head, pool = (0,), range(1, top + 1)
    else:
        head, pool = (), [d for d in range(1, top + 1) if divides(d)]
    largest = pool[-1] if pool else 1  # every part's cover window holds the core
    if full_window:
        core_lo, core_hi = lo, hi
    elif additive:
        core_lo, core_hi = lo + largest, hi - largest
    else:
        core_lo, core_hi = lo * largest, hi // largest

    accepted: list[DecompositionCandidate] = []
    stack = [(head, start, iter(range(len(pool))), None)]
    while stack:
        prefix, c, rest, t = stack[-1]
        for i in rest:
            beta = pool[i]
            cb = narrow(c, beta)
            if cb is None:
                continue
            b, witness = prefix + (beta,), t
            if t is not None and (t - beta >= 0 and has(cb, t - beta) if additive
                                  else t % beta == 0 and has(cb, t // beta)):
                witness = None  # beta covers t: check in full
            if len(b) >= 2 and witness is None:
                edge, climit = (lo + beta, hi - beta) if additive else (lo * beta, hi // beta)
                cover_lo, cover_hi = (lo, hi) if full_window else (edge, climit)
                if cover_lo <= cover_hi:
                    witness = covers(b, cb, cover_lo, cover_hi, core_lo, core_hi)
                if witness is None:
                    accepted.append(DecompositionCandidate(kind, b, as_set(cb, climit),
                                                           (cover_lo, cover_hi)))
                elif not core_lo <= witness <= core_hi:
                    witness = None
            if len(b) < max_b_size:
                stack.append((b, cb, iter(range(i + 1, len(pool))), witness))
                break
        else:
            stack.pop()
    return accepted


def _dense_path(target: IntegerSet, additive: bool, c_min: int):
    """_search's steps over the whole window [0, hi], on ints of bits, bit i
    standing for i, with no numpy either way.

    Additive: allowed is the target T plus [0, lo - 1], the images free
    below the window, and start, the c of (0,); narrow ANDs c with
    allowed >> beta, which ends c at hi - beta = climit, as beta is the
    part's largest; the gaps of [cover_lo, cover_hi] are T AND that window
    AND NOT the OR of c << beta; and c becomes a bits-form IntegerSet.
    divides is None: additive parts are not drawn from divisors.

    Multiplicative: allowed is one byte per integer of [0, hi], 1 for T
    and [1, lo - 1], so that allowed[::beta] gathers the multiples of beta
    in one slice; from lo on it is T's flags, which is all that divides
    and covers read.  S_beta is q(beta), the bits of allowed[::beta],
    packed by divides for each d of the pool.  start is None, the c of the
    empty part: narrow(None, beta) returns q(beta) itself, shared and not
    copied, and otherwise ANDs c with it, which ends c at climit.  covers
    spreads c to flags, ORs them into every beta-th byte, and compares the
    result with T's flags; c >> 1 is the bits-form IntegerSet from 1."""
    lo, hi = target.window_lo, target.window_hi

    def has(c, x):  # costs about x bits, where c >> x would copy the rest of c
        return c & (1 << x)

    if additive:
        t = target.as_bits() << lo
        allowed = t | ((1 << lo) - 1)

        def narrow(c, beta):
            c &= allowed >> beta
            return c if c.bit_count() >= 2 else None

        def covers(b, c, cover_lo, cover_hi, core_lo, core_hi):
            cover = 0
            for beta in b:
                cover |= c << beta
            window = ((1 << (cover_hi - cover_lo + 1)) - 1) << cover_lo
            gaps = t & window & ~cover
            if not gaps:
                return None
            first = _lowest(gaps)
            if first < core_lo and gaps >> core_lo:  # below the core: find its own first
                core = core_lo + _lowest(gaps >> core_lo)
                if core <= core_hi:
                    return core
            return first

        def as_set(c, climit):
            return IntegerSet(c, c_min, climit)

        return allowed, None, narrow, covers, has, as_set

    allowed = target._mask_flags()
    allowed[1:lo] = b"\1" * (lo - 1)  # c_min = 1, and combinations below the window are free
    quotients: dict[int, int] = {}  # q(d) for each d of the pool

    def divides(d):
        q = allowed[::d]
        if q.find(1, -(-lo // d)) >= 0:  # a multiple of d from lo on is in T
            quotients[d] = _pack(q)
        return d in quotients

    def narrow(c, beta):
        c = quotients[beta] if c is None else c & quotients[beta]
        return c if c & (c - 1) else None  # at least two bits set

    def covers(b, c, cover_lo, cover_hi, core_lo, core_hi):
        cb = memoryview(_flags(c, 0, 0))
        cover = bytearray(cover_hi + 1)
        for beta in b:
            n = min(len(cb), cover_hi // beta + 1)  # beta * c for c < n lies in the cover
            hit = cb[:n]
            if beta != b[0]:
                hit = (int.from_bytes(cover[: beta * n: beta], "little")
                       | int.from_bytes(hit, "little")).to_bytes(n, "little")
            cover[: beta * n: beta] = hit
        view = memoryview(cover)

        def first_gap(a, z):  # the first byte of [a, z] where cover misses T, if any
            if a > z or allowed.startswith(view[a: z + 1], a):  # past its end, startswith fails
                return None
            while a < z:  # the gap lies in [a, z]: halve that
                mid = (a + z) // 2
                if allowed.startswith(view[a: mid + 1], a):
                    a = mid + 1
                else:
                    z = mid
            return a

        t = first_gap(core_lo, core_hi)
        return first_gap(cover_lo, cover_hi) if t is None else t

    def as_set(c, climit):
        return IntegerSet(c >> 1, c_min, climit)

    return None, divides, narrow, covers, has, as_set


def _lowest(bits: int) -> int:
    """The index of the lowest set bit of bits > 0.  The bits are read in
    widths that grow fourfold from 64, so the cost follows that index, not
    the length of bits."""
    width = 64
    while not (low := bits & ((1 << width) - 1)):
        width *= 4
    return (low & -low).bit_length() - 1


def _sparse_path(target: IntegerSet, additive: bool, c_min: int):
    """_search's steps on the target's elements; c is a Python set.

    allowed is the target plus [c_min, lo - 1], the images free below the
    window, and S_beta = {c : beta (+|*) c in allowed} lies in
    [c_min, hi (-|//) beta], so c needs no cut to [c_min, climit].
    Additive: start, the c of (0,), is allowed, and narrow keeps the c with
    c + beta in allowed, so no S_beta is stored.  Multiplicative: S_beta,
    the quotients by beta, shrinks as beta grows and is kept per beta;
    start is None, the c of the empty part, and narrow(None, beta) returns
    S_beta itself, shared and not copied.
    """
    lo, elems = target.window_lo, target.elements
    allowed = set(elems).union(range(c_min, lo))
    quotients: dict[int, set[int]] = {}

    def divides(d):
        return any(t % d == 0 for t in elems)

    def part(beta):
        if beta not in quotients:
            quotients[beta] = {a // beta for a in allowed if a % beta == 0}
        return quotients[beta]

    def narrow(c, beta):
        if additive:
            c = {x for x in c if x + beta in allowed}
        else:
            c = part(beta) if c is None else c & part(beta)  # walks the smaller side
        return c if len(c) >= 2 else None

    def covers(b, c, cover_lo, cover_hi, core_lo, core_hi):
        # the first target element left uncovered: in the core, then below
        # it, then above it
        spans = (((core_lo, core_hi), (cover_lo, core_lo - 1), (core_hi + 1, cover_hi))
                 if core_lo <= core_hi else ((cover_lo, cover_hi),))
        for a, z in spans:
            ts = elems[bisect_left(elems, a): bisect_right(elems, z)]
            if additive:
                missed = (t for t in ts if not any(t - beta in c for beta in b))
            else:
                missed = (t for t in ts if not any(t % beta == 0 and t // beta in c for beta in b))
            t = next(missed, None)
            if t is not None:
                return t
        return None

    def as_set(c, climit):
        return IntegerSet(array("Q", sorted(c)), c_min, climit)

    return (allowed if additive else None), divides, narrow, covers, contains, as_set
