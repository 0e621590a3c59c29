"""The frozen records of every layer: construction, equality, hashing,
immutability, copying, repr and the JSON reports built from them."""

import copy
import pickle
from fractions import Fraction

import pytest

from decomplab.arith import PrimeSieve, SmoothnessPolicy, sieve
from decomplab.mwitness import (
    CongruenceSystem,
    CrtWitnessPlan,
    MultiplicativeWitness,
    build_plan,
    multiplicative_witness,
)
from decomplab.semigroup import (
    ExceptionalFactorizationReport,
    GammaSemigroup,
    MprimScanReport,
    SolutionClass,
    SUnitEquation,
    mprimitivity_scan,
    solve_sunit,
    verify_exceptional_factorization,
)
from decomplab.sets import CompositeCoverReport, DecompositionCandidate, verify_composite_decomposition
from decomplab.tuples import AdditiveWitness, OffsetTuple, additive_witness


def _scan():
    return mprimitivity_scan(GammaSemigroup.of([2]), 3, 1000, cumulative=True,
                             max_b_size=2, max_b_elem=2)


# (class, a sample, its field names in order, the defaults of the trailing ones)
RECORDS = [
    (PrimeSieve, lambda: sieve(100), ("limit", "bits"), {}),
    (SmoothnessPolicy, SmoothnessPolicy.composites, ("kind", "bound", "factor"),
     {"bound": None, "factor": None}),
    (CongruenceSystem, lambda: CongruenceSystem(((0, 3), (1, 4))), ("congruences",), {}),
    (CrtWitnessPlan, lambda: build_plan((1, 2, 3)),
     ("b", "p_set", "q1", "q2", "x0", "modulus", "prog_step", "prog_offset", "transcript"),
     {"transcript": ()}),
    (MultiplicativeWitness, lambda: multiplicative_witness((1, 2), 1, 1000),
     ("b", "branch", "n", "t", "plan", "checks", "transcript"),
     {"t": None, "plan": None, "checks": (), "transcript": ()}),
    (GammaSemigroup, lambda: GammaSemigroup.of((2, 3)), ("generators",), {}),
    (ExceptionalFactorizationReport, lambda: verify_exceptional_factorization(1024),
     ("limit", "passed", "first_mismatch", "family_count", "product_count"), {}),
    (SUnitEquation, lambda: SUnitEquation.of((1, 1, -2), GammaSemigroup.of((2, 3))),
     ("coeffs", "gamma"), {}),
    (SolutionClass,
     lambda: solve_sunit(SUnitEquation.of((1, 1, -2), GammaSemigroup.of((2, 3))), 20)[1],
     ("representative", "degenerate"), {}),
    (MprimScanReport, _scan,
     ("generators", "k", "cumulative", "limit", "max_b_size", "max_b_elem", "candidates",
      "expected_parts", "consistent"), {}),
    (DecompositionCandidate, lambda: _scan().candidates[0], ("kind", "b", "c", "coverage_window"),
     {}),
    (CompositeCoverReport, lambda: verify_composite_decomposition(1000),
     ("limit", "passed", "first_mismatch", "base_count", "covered_count", "composite_count"), {}),
    (OffsetTuple, lambda: OffsetTuple.of((0, 2, 6)), ("offsets",), {}),
    (AdditiveWitness, lambda: additive_witness((0, 2), 100, 10**6),
     ("b", "pattern", "case", "n", "prime_values", "n0"), {}),
]


@pytest.mark.parametrize("cls, make, names, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, make, names, defaults):
    record = make()
    assert type(record) is cls
    values = tuple(getattr(record, name) for name in names)
    # construction: positional, keyword, defaults, and refusals
    assert cls(*values) == record == cls(**dict(zip(names, values)))
    required = len(names) - len(defaults)
    assert names[required:] == tuple(defaults)
    bare = cls(*values[:required])
    assert all(getattr(bare, name) == default for name, default in defaults.items())
    for args, kwargs in (((), {}), (values[:required - 1], {}), (values, {"bogus": 1}),
                         (values + (None,), {}), (values, {names[0]: values[0]})):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    # equality only within the class, even against one with the same fields
    twin_cls = type(cls.__name__, (cls,), {})
    twin = twin_cls(*values)
    assert record != twin and twin != record
    assert record.__eq__(twin) is NotImplemented
    assert record != values
    # hashing follows the field tuple
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    # immutability
    for name in (names[0], "bogus"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert getattr(record, names[0]) is values[0]
    # copies
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record
    # repr names every field but the transcript
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values)
                      if name != "transcript")
    assert repr(record) == f"{cls.__qualname__}({shown})"


def test_post_init_checks_raise_value_errors():
    for make in (lambda: SmoothnessPolicy("cubic"),
                 lambda: SmoothnessPolicy("fixed"),
                 lambda: SmoothnessPolicy("log", factor=float("nan")),
                 lambda: CongruenceSystem(((0, 1),)),
                 lambda: CongruenceSystem(((0, 4), (1, 6))),
                 lambda: GammaSemigroup(()),
                 lambda: GammaSemigroup((3, 2)),
                 lambda: GammaSemigroup((2, 4)),
                 lambda: SUnitEquation((Fraction(1),), GammaSemigroup((2,))),
                 lambda: SUnitEquation((Fraction(1), Fraction(0)), GammaSemigroup((2,))),
                 lambda: OffsetTuple(()),
                 lambda: OffsetTuple((2, 0))):
        with pytest.raises(ValueError):
            make()


def test_json_reports_are_unchanged():
    plan = [("b", [1, 2]), ("p_set", [4]), ("q1", 3), ("q2", 5), ("x0", 60), ("modulus", 60),
            ("prog_step", 120), ("prog_offset", 121)]
    pinned = [
        (build_plan((1, 2, 3)),
         [("b", [1, 2, 3]), ("p_set", [3, 4]), ("q1", 5), ("q2", 7), ("x0", 420),
          ("modulus", 420), ("prog_step", 840), ("prog_offset", 841)]),
        (multiplicative_witness((1, 2), 1, 1000),
         [("b", [1, 2]), ("branch", "unit"), ("plan", dict(plan)), ("n", 300),
          ("checks", {"n_composite": True, "shifted_prime": 601, "not_divides_2": True})]),
        (multiplicative_witness((2, 3), 100, 1000),
         [("b", [2, 3]), ("branch", "nonunit"), ("plan", None), ("n", 102),
          ("checks", {"n_composite": True, "not_divides_2": True, "not_divides_3": True})]),
        (verify_exceptional_factorization(1024),
         [("limit", 1024), ("passed", True), ("first_mismatch", None), ("family_count", 28),
          ("product_count", 28)]),
        (_scan(),
         [("generators", [2]), ("k", 3), ("cumulative", True), ("limit", 1000),
          ("max_b_size", 2), ("max_b_elem", 2), ("found_parts", [[1, 2]]),
          ("expected_parts", [[1, 2]]), ("consistent", True)]),
        (verify_composite_decomposition(1000),
         [("limit", 1000), ("passed", True), ("first_mismatch", None), ("base_count", 443),
          ("covered_count", 828), ("composite_count", 828), ("offsets", [0, 1, 3, 5])]),
        (additive_witness((0, 2), 100, 10**6),
         [("b", [0, 2]), ("tuple", [-2, 2]), ("case", "pair"), ("n", 105),
          ("primes", [103, 107]), ("validated", True)]),
    ]
    for record, items in pinned:
        # the human report prints the keys in this order
        assert list(record.to_json_dict().items()) == items, type(record).__name__
    assert list(plan) == list(multiplicative_witness((1, 2), 1, 1000).plan.to_json_dict().items())
