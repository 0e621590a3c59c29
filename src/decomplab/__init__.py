"""decomplab: a windowed laboratory for additive and multiplicative
decomposability of integer sets (smooth numbers, shifted smooth numbers,
and families of pairwise-coprime semigroup sums).

Each layer module is registered in sys.modules unexecuted, through
importlib.util.LazyLoader, and its code runs on first attribute use, so a
CLI job pays start-up only for the layers its command calls.  The public
names below are read from their layer on first use (PEP 562)."""

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
