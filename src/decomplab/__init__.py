"""decomplab: a windowed laboratory for additive and multiplicative
decomposability of integer sets (smooth numbers, shifted smooth numbers,
and families of pairwise-coprime semigroup sums).

Each layer module is registered in sys.modules unexecuted, through
importlib.util.LazyLoader, and its code runs on first attribute use, so a
CLI job pays start-up only for the layers its command calls.  The public
names below are read from their layer on first use (PEP 562).

The layers' frozen records (PrimeSieve, GammaSemigroup, the reports, ...)
derive from _Record, a plain class with __slots__ that gives them equality,
hashing, immutability, copying and a repr with no generated code: a
generator of record classes would import inspect, ast and tokenize, about
12 ms of every command's start-up."""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "arith": (
        "MAX_VALUE",
        "PrimeSieve",
        "SmoothnessPolicy",
        "composite_bits",
        "factorize",
        "greatest_prime_factor",
        "is_composite",
        "is_prime",
        "shifted_smooth_set",
        "sieve",
        "smooth_set",
    ),
    "mwitness": (
        "CongruenceSystem",
        "CrtWitnessPlan",
        "MultiplicativeWitness",
        "build_plan",
        "crt_solve",
        "multiplicative_witness",
    ),
    "semigroup": (
        "ExceptionalFactorizationReport",
        "GammaSemigroup",
        "MprimScanReport",
        "SolutionClass",
        "SUnitEquation",
        "enumerate_semigroup",
        "h_family",
        "l_set",
        "mprimitivity_scan",
        "solve_sunit",
        "solve_two_term",
        "strip_gamma_part",
        "two_term_min_exponent_bound",
        "verify_exceptional_factorization",
    ),
    "sets": (
        "CompositeCoverReport",
        "DecompositionCandidate",
        "IntegerSet",
        "ResourceLimitError",
        "WindowError",
        "decompose_search",
        "productset",
        "sumset",
        "verify_composite_decomposition",
        "windowed_equal",
    ),
    "tuples": (
        "AdditiveWitness",
        "OffsetTuple",
        "additive_witness",
        "find_constellation",
        "is_admissible",
        "satisfies_covering",
        "select_triple",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_LAYER_OF)


class _Record:
    """Base of the frozen records.  A record's fields are the names in its
    __slots__, in order; trailing fields take their defaults from the class's
    _defaults dict.  A record is built from positional or keyword fields (a
    missing or unknown one is a TypeError), then checked by __post_init__;
    it is equal only to a record of its class with equal fields, hashes its
    field tuple, refuses assignment and deletion, and copies and pickles
    through __init__.  A `transcript` field, which records how the value was
    derived, is left out of the repr."""

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} has {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} is missing the field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unknown or repeated fields "
                            f"{sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _asdict(self) -> dict:
        return dict(zip(self.__slots__, self._values()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not setattr
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__
                           if name != "transcript")
        return f"{type(self).__qualname__}({fields})"


def _register(layer: str):
    """decomplab.<layer>, put into sys.modules with its code not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# sys.modules holds every layer from here on, run or not: perfbench's tracer
# looks each one up there after `import decomplab.cli`
arith = _register("arith")
mwitness = _register("mwitness")
semigroup = _register("semigroup")
sets = _register("sets")
tuples = _register("tuples")


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAYER_OF[name]], name)
