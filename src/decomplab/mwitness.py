"""Congruence-plan witnesses: for any finite candidate part b of a
multiplicative decomposition of the shifted-composites tail, produce a
composite n (with full validation) such that n + 1 cannot be covered."""

from __future__ import annotations

import math

from . import _Record
from .primes import factorize, is_composite, is_prime


class CongruenceSystem(_Record):
    """x = r (mod m) constraints, (r, m) pairs, with pairwise coprime moduli."""

    __slots__ = ("congruences",)

    def __post_init__(self):
        mods = [m for _, m in self.congruences]
        for r, m in self.congruences:
            if m < 2:
                raise ValueError(f"modulus {m} must be >= 2")
            if not 0 <= r < m:
                raise ValueError(f"residue {r} out of range for modulus {m}")
        for i in range(len(mods)):
            for j in range(i + 1, len(mods)):
                g = math.gcd(mods[i], mods[j])
                if g != 1:
                    raise ValueError(
                        f"moduli {mods[i]} and {mods[j]} share the factor {g}"
                    )


def crt_solve(system: CongruenceSystem) -> tuple[int, int]:
    """Smallest positive solution and the combined modulus."""
    x, m = 0, 1
    for r, mod in system.congruences:
        k = ((r - x) * pow(m, -1, mod)) % mod
        x += m * k
        m *= mod
    return (x if x > 0 else m), m


class CrtWitnessPlan(_Record):
    """Progression plan for a part b with 1 = b1 < b2 < ... < bl.

    Each bi (i >= 2) contributes an anchor modulus: its smallest odd prime
    divisor, or 4 when bi is a power of two.  Two auxiliary primes q1, q2
    outside the anchors (and coprime to b2 - 1, so the progression offset
    stays coprime to the step) pin n composite.  Any prime value of
    prog_step*t + prog_offset then yields n = t*modulus + x0 with
    b2(n+1) - 1 prime and bi not dividing n + 1.
    """

    __slots__ = ("b", "p_set", "q1", "q2", "x0", "modulus", "prog_step", "prog_offset",
                 "transcript")
    _defaults = {"transcript": ()}

    def progression(self, t: int) -> int:
        return self.prog_step * t + self.prog_offset

    def to_json_dict(self):
        return {
            "b": list(self.b),
            "p_set": list(self.p_set),
            "q1": self.q1,
            "q2": self.q2,
            "x0": self.x0,
            "modulus": self.modulus,
            "prog_step": self.prog_step,
            "prog_offset": self.prog_offset,
        }


def _anchor_modulus(value: int) -> int:
    """Smallest odd prime divisor, or 4 when value is a power of two."""
    if value & (value - 1) == 0:
        return 4
    for p, _ in factorize(value):
        if p % 2 == 1:
            return p
    raise AssertionError(f"{value} has no odd prime divisor and is no power of two")


def build_plan(b) -> CrtWitnessPlan:
    """Assemble the congruence system and progression for b with 1 in b.

    Residues: x = 0 (mod q1), (mod q2); for an odd anchor p, x = 1 (mod p)
    when p | b2 - 1 else x = 0; for the anchor 4, x = 0 (mod 4) when b2 is
    even (so 4 | n handles b2 = 2) else x = 1 (which keeps the offset odd;
    the b2-1 divisibility rule would make it even when b2 = 3 mod 4).
    """
    b = tuple(sorted({int(v) for v in b}))
    if len(b) < 2 or b[0] != 1 or any(v < 1 for v in b):
        raise ValueError("b must be {1 = b1 < b2 < ...} with at least two elements")
    b2 = b[1]
    anchors = {v: _anchor_modulus(v) for v in b[1:]}
    p_set = tuple(sorted(set(anchors.values())))
    banned = set(p_set)
    if 4 in banned:
        banned.add(2)
    banned |= {p for p, _ in factorize(b2 - 1)}
    qs = []
    cand = 2
    while len(qs) < 2:
        if cand not in banned and is_prime(cand):
            qs.append(cand)
        cand += 1
    q1, q2 = qs

    congs = [(0, q1), (0, q2)]
    lines = [
        f"anchors: {anchors} -> P = {list(p_set)}",
        f"auxiliary primes q1={q1}, q2={q2} avoid P and divisors of b2-1={b2 - 1}",
        f"x = 0 (mod {q1}), x = 0 (mod {q2})",
    ]
    for p in p_set:
        if p == 4:
            r = 0 if b2 % 2 == 0 else 1
        else:
            r = 1 if (b2 - 1) % p == 0 else 0
        congs.append((r, p))
        lines.append(f"x = {r} (mod {p})")
    x0, modulus = crt_solve(CongruenceSystem(tuple(congs)))
    step = b2 * modulus
    offset = b2 * (x0 + 1) - 1
    lines.append(f"x0 = {x0}, modulus = {modulus}")
    lines.append(f"progression {step}*t + {offset}")

    if math.gcd(step, offset) != 1:
        raise AssertionError(f"progression for {b} is not coprime: gcd({step}, {offset})")
    if x0 % q1 or x0 % q2:
        raise AssertionError(f"x0 = {x0} must be divisible by q1 and q2")
    return CrtWitnessPlan(
        b=b,
        p_set=p_set,
        q1=q1,
        q2=q2,
        x0=x0,
        modulus=modulus,
        prog_step=step,
        prog_offset=offset,
        transcript=tuple(lines),
    )


class MultiplicativeWitness(_Record):
    """A composite n >= n0 such that n + 1 sits in the shifted-composites
    tail but cannot be a product a * bi for any complement element a."""

    # branch is "unit" when 1 in b, else "nonunit"; t and plan are the unit
    # branch's; checks are (name, int or bool) pairs
    __slots__ = ("b", "branch", "n", "t", "plan", "checks", "transcript")
    _defaults = {"t": None, "plan": None, "checks": (), "transcript": ()}

    def validate(self) -> bool:
        if not is_composite(self.n):
            return False
        if self.branch == "nonunit":
            if 1 in self.b:
                return False
            return all(self.n % v == 0 and (self.n + 1) % v != 0 for v in self.b)
        if self.plan is None or self.t is None or self.b[0] != 1:
            return False
        plan = self.plan
        if self.n != self.t * plan.modulus + plan.x0:
            return False
        shifted = self.b[1] * (self.n + 1) - 1
        if shifted != plan.progression(self.t) or not is_prime(shifted):
            return False
        return all((self.n + 1) % v != 0 for v in self.b[1:])

    def to_json_dict(self):
        return {
            "b": list(self.b),
            "branch": self.branch,
            "plan": self.plan.to_json_dict() if self.plan else None,
            "n": self.n,
            "checks": dict(self.checks),
        }


def multiplicative_witness(b, n0: int, t_hi: int) -> MultiplicativeWitness | None:
    """Witness that no complement pairs with b on the shifted-composites tail.

    Without 1 in b the smallest multiple of prod(b) at or above n0 works
    unconditionally.  With 1 in b, scan t in (n0, t_hi] for a prime value of
    the plan's progression; Dirichlet guarantees one exists, t_hi is only a
    resource cap, so None means inconclusive.  That range must not be empty.
    """
    b = tuple(sorted({int(v) for v in b}))
    if len(b) < 2 or b[0] < 1:
        raise ValueError("b needs at least two elements, all >= 1")
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    if b[0] > 1:
        prod = math.prod(b)
        n = prod * ((n0 + prod - 1) // prod)
        checks = (
            ("n_composite", True),
            *((f"not_divides_{v}", True) for v in b),
        )
        witness = MultiplicativeWitness(
            b=b,
            branch="nonunit",
            n=n,
            checks=checks,
            transcript=(
                f"n = {n} is the smallest multiple of prod(b) = {prod} at or above {n0}",
                f"every element of {list(b)} divides n, hence none divides n + 1",
            ),
        )
        if not witness.validate():
            raise AssertionError(f"nonunit witness {n} for {b} failed revalidation")
        return witness

    if t_hi <= n0:
        raise ValueError(f"empty search range ({n0}, {t_hi}] for t: raise t_hi")
    plan = build_plan(b)
    for t in range(n0 + 1, t_hi + 1):
        value = plan.progression(t)
        if is_prime(value):
            n = t * plan.modulus + plan.x0
            checks = (
                ("n_composite", True),
                ("shifted_prime", value),
                *((f"not_divides_{v}", True) for v in b[1:]),
            )
            witness = MultiplicativeWitness(
                b=b,
                branch="unit",
                n=n,
                t=t,
                plan=plan,
                checks=checks,
                transcript=plan.transcript + (
                    f"t = {t}: progression value {value} is prime",
                    f"n = t*modulus + x0 = {n}, composite since {plan.q1}*{plan.q2} | n",
                    f"b2(n+1) - 1 = {value} is prime, so n + 1 has no complement partner",
                ),
            )
            if not witness.validate():
                raise AssertionError(f"unit witness {n} for {b} failed revalidation")
            return witness
    return None
