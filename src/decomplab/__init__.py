"""decomplab: a windowed laboratory for additive and multiplicative
decomposability of integer sets (smooth numbers, shifted smooth numbers,
and families of pairwise-coprime semigroup sums).

Each layer module is registered in sys.modules unexecuted, through
importlib.util.LazyLoader, and its code runs on first attribute use, so a
CLI job pays start-up only for the layers its command calls.  With no
bytecode cache, each layer it runs is compiled too, so the layers are cut
where the commands divide: primes (tests of single integers) apart from
arith (the prime scan, sieves, smooth sets), and search (the part search's
walk) apart from sets (IntegerSet and decompose_search's entry point).
The public names below are read from their layer on first use (PEP 562).

The layers' frozen records (PrimeSieve, GammaSemigroup, the reports, ...)
derive from _Record, a plain class with __slots__ that gives them equality,
hashing, immutability, copying and a repr with no generated code: a
generator of record classes would import inspect, ast and tokenize, about
12 ms of every command's start-up.

Beside _Record sits the layers' one packed-bits codec: bits are an int whose
bit i stands for start + i, flags hold one byte per integer, 1 for a member.
_flags spreads bits to flags, _pack packs flags to bits, and _unpack reads
the set bits into an array in one of three ways, chosen by their density."""

import importlib.util
import re
import sys
from array import array
from itertools import accumulate, compress, count, repeat
from operator import add

__version__ = "0.1.0"

_EXPORTS = {
    "arith": (
        "PrimeSieve",
        "SmoothnessPolicy",
        "composite_bits",
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
    "primes": (
        "MAX_VALUE",
        "factorize",
        "greatest_prime_factor",
        "is_composite",
        "is_prime",
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


_SLICE = 1 << 16  # bytes handled at a time: of bits spread, of a cache file, of smooth flags
_WALK = 11  # bits with fewer than 1 nonzero byte in _WALK are walked, not spread to flags
_NONZERO = b"\0" + b"\1" * 255  # bytes.translate table: every nonzero byte to 1
_BIT_TABLES = [(bytes(1 << j) + b"\1" * (1 << j)) * (128 >> j) for j in range(8)]


def _flags(data, start: int, size: int) -> bytearray:
    """At least size bytes, byte i 1 when start + i is in data: an ascending array,
    or bits as an int or its bytes (table j spreads bit j of each byte to a byte)."""
    if type(data) is int:
        data = data.to_bytes((data.bit_length() + 7) // 8, "little")
    elif type(data) is not bytes:
        flags = bytearray(size)
        for v in data:
            flags[v - start] = 1
        return flags
    flags = bytearray(max(size, 8 * len(data)))
    for j, table in enumerate(_BIT_TABLES):
        flags[j: 8 * len(data): 8] = data.translate(table)
    return flags


def _pack(flags, step: int = 1) -> int:
    """0/1 flags as bits, flag k on bit step * k (step 2: a segment of odd numbers)."""
    per = 8 // step  # flags[j::per] lands on bit step * j of each byte
    bits = int.from_bytes(flags[::per], "little")  # not from 0: 0 | x would copy x
    for j in range(1, per):
        bits |= int.from_bytes(flags[j::per], "little") << step * j
    return bits


def _unpack(bits: int, start: int) -> array:
    """{start + i : bit i of bits is set} in an array('Q'): below 1 nonzero byte in
    _WALK (about 1 bit in 85) those are walked, else spread a _SLICE at a time."""
    raw = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    hits = array("Q")
    if _WALK * len(nonzero := raw.translate(None, b"\0")) >= len(raw):
        search = 8 * bits.bit_count() < bits.bit_length()  # under 1/8 set, a search is faster
        for a in range(0, len(raw), _SLICE):
            _gather(hits, _flags(raw[a: a + _SLICE], 0, 0), start + 8 * a, search)
        return hits
    runs = map(len, raw.translate(_NONZERO).split(b"\1")[:-1])  # the zero runs between
    start -= 8  # the j below is 1 + the index of a nonzero byte
    for j, byte in zip(accumulate(map(add, runs, repeat(1))), nonzero):
        base = start + 8 * j
        if byte & (byte - 1):  # two or more bits
            hits.extend(base + k for k in range(8) if byte >> k & 1)
        else:
            hits.append(base + byte.bit_length() - 1)
    return hits


def _gather(hits: array, flags, start: int, search: bool) -> array:
    """hits extended by start + i per set byte i of flags, searched for or compressed."""
    if search:
        hits.extend(m.start() + start for m in re.finditer(b"\1", flags))
    else:
        hits.extend(compress(count(start), flags))
    return hits


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
primes = _register("primes")
search = _register("search")
semigroup = _register("semigroup")
sets = _register("sets")
tuples = _register("tuples")


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAYER_OF[name]], name)
