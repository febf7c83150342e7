"""Structure-constant algebra operations against small hand-checkable and
brute-force oracles."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from futility.algebra import (
    center,
    change_of_basis,
    commutator_ideal,
    element_multiply,
    element_power,
    frobenius_chain,
    frobenius_span,
    generated_by_element,
    invert_element,
    local_decomposition,
    make_algebra,
    minimal_polynomial,
    nilradical,
    product_algebra,
    quotient_algebra,
    subalgebra_generated,
    subalgebra_to_algebra,
    subspace_product,
)
from futility.constructions import (
    extend_by_poly,
    matrix_algebra,
    poly_quotient_algebra,
    upper_triangular_algebra,
)
from futility.cases import build_case, parse_case
from futility.domains import QQ, FunctionField, PrimeField
from futility.errors import (
    CharacteristicZero,
    DimensionMismatch,
    NotAField,
    NotAnIdeal,
    UnsupportedDomain,
    ValidationError,
)
from futility.linalg import (
    subspace_from_vectors,
    unit_vec,
    vec_is_zero,
    zero_subspace,
)
from futility.polynomials import make_poly

F2 = PrimeField(2)
F3 = PrimeField(3)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def q(*cs):
    return make_poly(QQ, [Fraction(c) for c in cs])


def qx_mod(*cs):
    return poly_quotient_algebra(q(*cs))


def unit_span(A):
    return subspace_from_vectors(A.dom, A.dim, [A.unit])


def frac(*xs):
    return tuple(Fraction(x) for x in xs)


# --- construction -----------------------------------------------------------

def test_bad_table_raises_with_triple():
    # e2*e2 = e3, e2*e3 = e1 but e3*e3 = 0 breaks (e2 e2) e3 = e2 (e2 e3)
    dom = QQ
    table = [
        [frac(1, 0, 0), frac(0, 1, 0), frac(0, 0, 1)],
        [frac(0, 1, 0), frac(0, 0, 1), frac(1, 0, 0)],
        [frac(0, 0, 1), frac(0, 0, 0), frac(0, 0, 0)],
    ]
    with pytest.raises(ValidationError) as exc:
        make_algebra(dom, table, frac(1, 0, 0))
    assert "associativity fails at basis triple" in str(exc.value)


def test_unit_law_validated():
    dom = QQ
    table = [[frac(0, 0), frac(0, 0)], [frac(0, 0), frac(0, 0)]]
    with pytest.raises(ValidationError):
        make_algebra(dom, table, frac(1, 0))


def test_element_multiply_examples():
    A = qx_mod(0, 0, 0, 1)  # Q[x]/(x^3)
    x = A.basis_vector(1)
    x2 = A.basis_vector(2)
    assert element_multiply(A, A.unit, x) == x
    assert element_multiply(A, x, x2) == (0, 0, 0) or vec_is_zero(QQ, element_multiply(A, x, x2))
    M = matrix_algebra(F2, 2)
    e12 = M.basis_vector(1)
    e21 = M.basis_vector(2)
    e11 = M.basis_vector(0)
    assert element_multiply(M, e12, e21) == e11


# --- generated subalgebras ---------------------------------------------------

def test_generated_empty_is_base():
    A = qx_mod(0, 0, 0, 1)
    base = unit_span(A)
    assert subalgebra_generated(A, [], base) == base


def test_generated_x2_in_x3():
    # the subalgebra generated by x^2 inside Q[x]/(x^3) is span{1, x^2}
    A = qx_mod(0, 0, 0, 1)
    s = subalgebra_generated(A, [A.basis_vector(2)], unit_span(A))
    assert s == subspace_from_vectors(QQ, 3, [frac(1, 0, 0), frac(0, 0, 1)])


def test_generated_x_plus_x2_is_everything():
    A = qx_mod(0, 0, 0, 1)
    g = frac(0, 1, 1)
    s = subalgebra_generated(A, [g], unit_span(A))
    assert s.dim == 3


# --- commutator and center ----------------------------------------------------

def test_commutator_commutative_zero():
    A = qx_mod(0, 0, 1)
    assert commutator_ideal(A).dim == 0


def test_commutator_mat2_is_everything():
    M = matrix_algebra(F2, 2)
    assert commutator_ideal(M).dim == 4


def test_commutator_upper_triangular():
    U = upper_triangular_algebra(QQ, 2)  # basis E11, E12, E22
    c = commutator_ideal(U)
    assert c.dim == 1
    assert c.contains(U.basis_vector(1))


def test_center_examples():
    A = qx_mod(0, 0, 1)
    assert center(A).dim == 2
    M = matrix_algebra(F2, 2)
    zc = center(M)
    assert zc.dim == 1 and zc.contains(M.unit)
    U = upper_triangular_algebra(QQ, 2)
    zu = center(U)
    assert zu.dim == 1 and zu.contains(U.unit)


# --- nilradical ----------------------------------------------------------------

def test_nilradical_x3():
    A = qx_mod(0, 0, 0, 1)
    n = nilradical(A)
    assert n.dim == 2
    assert n.contains(A.basis_vector(1)) and n.contains(A.basis_vector(2))


def test_nilradical_reduced():
    A = qx_mod(-1, 0, 1)  # Q[x]/(x^2-1)
    assert nilradical(A).dim == 0


def test_nilradical_f2_dual_numbers_bruteforce():
    A = poly_quotient_algebra(make_poly(F2, [0, 0, 1]))  # F2[x]/(x^2)
    n = nilradical(A)
    # brute force over all 4 elements
    nilpotents = []
    for a0 in range(2):
        for a1 in range(2):
            v = (a0, a1)
            if vec_is_zero(F2, element_power(A, v, 2)):
                nilpotents.append(v)
    assert sorted(nilpotents) == [(0, 0), (0, 1)]
    assert n.dim == 1 and n.contains((0, 1))


def test_nilradical_rejects_function_field():
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    A = poly_quotient_algebra(make_poly(K, [K.neg(t), K.zero, K.one]))
    with pytest.raises(UnsupportedDomain):
        nilradical(A)


def test_nilradical_quotient_is_reduced():
    A = qx_mod(0, 0, 0, 0, 1)  # Q[x]/(x^4)
    n = nilradical(A)
    B, _ = quotient_algebra(A, n)
    assert nilradical(B).dim == 0


# --- local decomposition ---------------------------------------------------------

def check_local_decomposition(A):
    factors = local_decomposition(A)
    dom = A.dom
    # orthogonal idempotents summing to 1
    total = (dom.zero,) * A.dim
    for lf in factors:
        e = lf.idempotent
        assert element_multiply(A, e, e) == e
        total = tuple(dom.add(a, b) for a, b in zip(total, e))
    assert total == A.unit
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            assert vec_is_zero(dom, element_multiply(A, factors[i].idempotent, factors[j].idempotent))
    # each factor is local: zero or field quotient by its nilradical having
    # no further idempotent split is re-checked via local_decomposition
    assert sum(lf.algebra.dim for lf in factors) == A.dim
    # projections respect multiplication
    for lf in factors:
        for i in range(A.dim):
            for j in range(A.dim):
                u, v = A.basis_vector(i), A.basis_vector(j)
                lhs = element_multiply(lf.algebra, lf.projection[i], lf.projection[j])
                prod = element_multiply(A, u, v)
                rhs = tuple(
                    sum((dom.mul(c, r[k]) for c, r in zip(prod, lf.projection)), start=dom.zero)
                    for k in range(lf.algebra.dim)
                )
                assert lhs == rhs
    return factors


def test_local_decomposition_split_quadratic():
    A = qx_mod(-1, 0, 1)  # Q x Q
    factors = check_local_decomposition(A)
    assert [lf.algebra.dim for lf in factors] == [1, 1]
    # idempotents are (1 +- x)/2
    idems = sorted(lf.idempotent for lf in factors)
    assert idems == [
        (Fraction(1, 2), Fraction(-1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
    ]


def test_local_decomposition_local_input():
    A = qx_mod(0, 0, 0, 1)
    factors = check_local_decomposition(A)
    assert len(factors) == 1
    assert factors[0].idempotent == A.unit


def test_local_decomposition_mixed():
    # Q[x]/((x^2+1) x^2) -> a dim-2 field and Q[y]/(y^2)
    A = qx_mod(0, 0, 1, 0, 1)
    factors = check_local_decomposition(A)
    dims = sorted(lf.algebra.dim for lf in factors)
    assert dims == [2, 2]
    nil_dims = sorted(nilradical(lf.algebra).dim for lf in factors)
    assert nil_dims == [0, 1]


def test_local_decomposition_f2_cube():
    A = product_algebra([qx_mod_f2() for _ in range(3)])
    factors = check_local_decomposition(A)
    assert [lf.algebra.dim for lf in factors] == [1, 1, 1]


def qx_mod_f2():
    return poly_quotient_algebra(make_poly(F2, [1, 1]))  # F2[x]/(x+1) = F2


def test_local_decomposition_f4_is_local():
    A = poly_quotient_algebra(make_poly(F2, [1, 1, 1]))  # F4
    factors = check_local_decomposition(A)
    assert len(factors) == 1


def test_local_decomposition_f2_split():
    A = poly_quotient_algebra(make_poly(F2, [0, 1, 1]))  # F2[x]/(x^2+x) = F2 x F2
    factors = check_local_decomposition(A)
    assert len(factors) == 2


# --- minimal polynomials -----------------------------------------------------------

def test_minimal_polynomial_examples():
    A = qx_mod(0, 0, 0, 1)
    assert minimal_polynomial(A, A.unit) == q(-1, 1)
    assert minimal_polynomial(A, A.basis_vector(1)) == q(0, 0, 0, 1)
    M = matrix_algebra(F2, 2)
    assert minimal_polynomial(M, M.basis_vector(1)) == make_poly(F2, [0, 0, 1])


# --- quotients and products ---------------------------------------------------------

def test_quotient_examples():
    A = qx_mod(0, 0, 0, 1)
    z = zero_subspace(QQ, 3)
    B, _ = quotient_algebra(A, z)
    assert B.dim == 3
    x2 = subspace_from_vectors(QQ, 3, [frac(0, 0, 1)])
    C, proj = quotient_algebra(A, x2)
    assert C.dim == 2
    # C is Q[x]/(x^2): the image of x squares to zero
    ximg = proj[1]
    assert vec_is_zero(QQ, element_multiply(C, ximg, ximg))
    M = matrix_algebra(F2, 2)
    whole = subspace_from_vectors(F2, 4, [M.basis_vector(i) for i in range(4)])
    Z, _ = quotient_algebra(M, whole)
    assert Z.dim == 0


def test_quotient_rejects_non_ideal():
    A = qx_mod(0, 0, 0, 1)
    s = subspace_from_vectors(QQ, 3, [frac(0, 1, 0)])  # span{x} is not an ideal? x*x = x^2 not in it
    with pytest.raises(NotAnIdeal):
        quotient_algebra(A, s)


def test_product_examples():
    A = qx_mod(0, 0, 1)
    P = product_algebra([A])
    assert P.dim == A.dim
    QxQ = product_algebra([qx_mod(-1, 1), qx_mod(-1, 1)])
    assert QxQ.dim == 2 and QxQ.is_commutative
    F8 = product_algebra([qx_mod_f2() for _ in range(3)])
    assert F8.dim == 3


def test_subalgebra_to_algebra_roundtrip():
    A = qx_mod(0, 0, 0, 1)
    s = subspace_from_vectors(QQ, 3, [frac(1, 0, 0), frac(0, 0, 1)])
    B, incl = subalgebra_to_algebra(A, s)
    assert B.dim == 2
    assert vec_is_zero(QQ, element_multiply(B, (Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))))


# --- inversion ------------------------------------------------------------------------

def test_invert_element_and_zero_divisor():
    A = qx_mod(-2, 0, 1)  # Q[x]/(x^2-2), a field
    x = A.basis_vector(1)
    inv = invert_element(A, x)
    assert element_multiply(A, x, inv) == A.unit
    B = qx_mod(0, 0, 1)  # Q[x]/(x^2), x is a zero divisor
    with pytest.raises(NotAField) as exc:
        invert_element(B, B.basis_vector(1))
    assert exc.value.witness == B.basis_vector(1)


# --- Frobenius spans ----------------------------------------------------------------

def tower_f2t_x2_minus_t():
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    return poly_quotient_algebra(make_poly(K, [K.neg(t), K.zero, K.one]))


def test_frobenius_span_inseparable():
    L = tower_f2t_x2_minus_t()
    s = frobenius_span(L)
    assert s.dim == 1  # x^2 = t lands in the coefficient field
    chain = frobenius_chain(L)
    assert [c.dim for c in chain] == [2, 1]


def test_frobenius_span_separable():
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    # x^2 + x + t: separable, so the Frobenius span is everything
    L = poly_quotient_algebra(make_poly(K, [t, K.one, K.one]))
    assert frobenius_span(L).dim == 2
    assert [c.dim for c in frobenius_chain(L)] == [2]


def test_frobenius_span_trivial():
    K = FunctionField(3, ("t",))
    L = poly_quotient_algebra(make_poly(K, [K.neg(K.variable("t")), K.one]))
    assert L.dim == 1
    assert frobenius_span(L).dim == 1


def test_frobenius_char_zero_rejected():
    A = qx_mod(0, 0, 1)
    with pytest.raises(CharacteristicZero):
        frobenius_span(A)


def test_frobenius_two_variable_tower():
    K = FunctionField(2, ("s", "t"))
    s_var = K.variable("s")
    t_var = K.variable("t")
    L1 = poly_quotient_algebra(make_poly(K, [K.neg(s_var), K.zero, K.one]))  # x^2 = s
    # extend by y^2 - t
    coeffs = [tuple(K.neg(t_var) if i == 0 else K.zero for i in range(2)), (K.zero, K.zero), (K.one, K.zero)]
    L2, yvec, lift = extend_by_poly(L1, coeffs)
    assert L2.dim == 4
    assert frobenius_span(L2).dim == 1
    assert [c.dim for c in frobenius_chain(L2)] == [4, 1]


def test_extend_by_poly_deep_chain():
    # x^4 - t over F_2(t): chain 4 -> 2 -> 1
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    L = poly_quotient_algebra(make_poly(K, [K.neg(t), K.zero, K.zero, K.zero, K.one]))
    assert [c.dim for c in frobenius_chain(L)] == [4, 2, 1]


# --- invariance under change of basis ----------------------------------------------

def test_operations_invariant_under_basis_change():
    rng = random.Random(5)
    A = qx_mod(0, 0, 1, 0, 1)  # Q[x]/((x^2+1) x^2)
    n = A.dim
    for _ in range(5):
        while True:
            rows = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n)]
            s = subspace_from_vectors(QQ, n, rows)
            if s.dim == n:
                break
        B = change_of_basis(A, rows)
        assert nilradical(B).dim == nilradical(A).dim
        assert commutator_ideal(B).dim == commutator_ideal(A).dim
        assert center(B).dim == center(A).dim
        assert sorted(lf.algebra.dim for lf in local_decomposition(B)) == sorted(
            lf.algebra.dim for lf in local_decomposition(A)
        )


def test_subspace_product():
    A = qx_mod(0, 0, 0, 1)
    m = subspace_from_vectors(QQ, 3, [frac(0, 1, 0), frac(0, 0, 1)])
    m2 = subspace_product(A, m, m)
    assert m2.dim == 1 and m2.contains(frac(0, 0, 1))


def test_generated_subalgebra_idempotent_and_monotone():
    rng = random.Random(17)
    A = qx_mod(0, 0, 1, 0, 1)
    base = unit_span(A)
    for _ in range(10):
        g1 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(A.dim))
        g2 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(A.dim))
        s1 = subalgebra_generated(A, [g1], base)
        s12 = subalgebra_generated(A, [g1, g2], base)
        # monotone in the generator set and idempotent on its own rows
        assert s12.contains_subspace(s1)
        assert subalgebra_generated(A, list(s1.rows), base) == s1
        assert s1.contains_subspace(base)
        for u in s1.rows:
            for v in s1.rows:
                assert s1.contains(element_multiply(A, u, v))


def _x5_plane_case():
    rel = build_case(parse_case((CORPUS / "local-artinian" / "x5-plane-case.case").read_text()))
    return rel.payload.amb, rel.payload.base_image


@pytest.mark.parametrize(
    "target",
    [
        lambda: (qx_mod(0, 0, 0, 0, 0, 1), None),  # Q[x]/(x^5)
        lambda: (qx_mod(0, 0, 0, 0, -1, 1), None),  # Q[x]/(x^4 (x - 1))
        _x5_plane_case,  # Q[x]/(x^5) over Q[t]/(t^2), t -> x^3
    ],
    ids=["x5", "x4-times-x-minus-1", "x5-plane-case"],
)
def test_generated_by_element_matches_subalgebra_generated(target):
    # the integer kernel over Q against the span-and-multiply closure
    A, base = target()
    base = base or unit_span(A)
    rng = random.Random(3)
    for _ in range(25):
        a = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(A.dim))
        assert generated_by_element(A, a, base) == subalgebra_generated(A, [a], base)
    with pytest.raises(DimensionMismatch):
        generated_by_element(A, a[:-1], base)


def test_generated_by_element_is_rational_only():
    A = poly_quotient_algebra(make_poly(F3, [0, 0, 1]))  # F3[x]/(x^2)
    with pytest.raises(UnsupportedDomain):
        generated_by_element(A, A.basis_vector(1), unit_span(A))


def test_tower_zero_divisor_leading_coefficient_raises():
    # level one is (x - t)^2, not a field; a leading coefficient of x + t at
    # the next level is a zero divisor and must surface with its witness
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    L1 = poly_quotient_algebra(make_poly(K, [K.mul(t, t), K.zero, K.one]))
    bad_lead = (K.neg(t), K.one)
    with pytest.raises(NotAField) as exc:
        extend_by_poly(L1, [(K.one, K.zero), (K.zero, K.zero), bad_lead])
    assert exc.value.witness is not None


def test_basis_change_transports_subspace_outputs_exactly():
    rng = random.Random(23)
    A = qx_mod(0, 0, 1, 0, 1)
    n = A.dim

    def to_old(rows_p, vec_new):
        out = [QQ.zero] * n
        for c, row in zip(vec_new, rows_p):
            out = [QQ.add(x, QQ.mul(c, y)) for x, y in zip(out, row)]
        return tuple(out)

    for _ in range(5):
        while True:
            P = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n)]
            if subspace_from_vectors(QQ, n, P).dim == n:
                break
        B = change_of_basis(A, P)
        for op in (nilradical, center, commutator_ideal):
            oldspace = op(A)
            newspace = op(B)
            transported = subspace_from_vectors(
                QQ, n, [to_old(P, r) for r in newspace.rows]
            )
            assert transported == oldspace
