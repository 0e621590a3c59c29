"""decomplab: a windowed laboratory for additive and multiplicative
decomposability of integer sets (smooth numbers, shifted smooth numbers,
and families of pairwise-coprime semigroup sums)."""

__version__ = "0.1.0"

from .arith import (
    MAX_VALUE,
    PrimeSieve,
    SmoothnessPolicy,
    factorize,
    greatest_prime_factor,
    is_composite,
    is_prime,
    shifted_smooth_set,
    sieve,
    sieve_window,
    smooth_set,
)
from .mwitness import (
    CongruenceSystem,
    CrtWitnessPlan,
    MultiplicativeWitness,
    build_plan,
    crt_solve,
    multiplicative_witness,
)
from .semigroup import (
    ExceptionalFactorizationReport,
    GammaSemigroup,
    MprimScanReport,
    SolutionClass,
    SUnitEquation,
    enumerate_semigroup,
    h_family,
    l_set,
    mprimitivity_scan,
    solve_sunit,
    solve_two_term,
    strip_gamma_part,
    two_term_min_exponent_bound,
    verify_exceptional_factorization,
)
from .sets import (
    CompositeCoverReport,
    DecompositionCandidate,
    IntegerSet,
    ResourceLimitError,
    WindowError,
    decompose_search,
    productset,
    sumset,
    verify_composite_decomposition,
    windowed_equal,
)
from .tuples import (
    AdditiveWitness,
    OffsetTuple,
    additive_witness,
    find_constellation,
    is_admissible,
    satisfies_covering,
    select_triple,
)
