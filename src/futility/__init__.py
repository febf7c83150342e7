"""Decide whether a finitely presented algebra over Q, F_p, F_p(t[,s]),
Z/n, Z, or a local artinian base has only finitely many subalgebras, and
validate every verdict against an exhaustive or randomized oracle."""

__version__ = "0.1.0"

from .algebra import (  # noqa: F401
    LocalSplit,
    RelativeAlgebra,
    StructAlgebra,
    commutator_ideal,
    element_multiply,
    frobenius_chain,
    local_decomposition,
    make_algebra,
    make_relative,
    minimal_polynomial,
    nilradical,
    product_algebra,
    quotient_algebra,
)
from .deciders import (  # noqa: F401
    FUTILE,
    NOT_FUTILE,
    FutilityReport,
    LocalizedZ,
    ZPresentation,
    decide_field_extension,
    decide_finite_base,
    decide_infinite_field,
    decide_integer_algebra,
    decide_local_artinian,
    decide_noncommutative,
    find_generator,
)
from .domains import QQ, FunctionField, ModRing, PrimeField  # noqa: F401
from .finite_enum import enumerate_subalgebras  # noqa: F401
from .intmat import smith_normal_form  # noqa: F401
from .polynomials import (  # noqa: F401
    FactoredPoly,
    Poly,
    factor_over_prime_field,
    factor_over_rationals,
    poly_gcd,
    squarefree_decomposition,
)
from .sampler import family_witness, sample_subalgebras  # noqa: F401
