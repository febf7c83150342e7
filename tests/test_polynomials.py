"""Polynomial arithmetic, squarefree decomposition and factorization.

Independent oracles used here:
  * irreducibility over F_p for degree <= 4 by exhaustive trial division
    over all lower-degree monic polynomials;
  * gcd over F_2 cross-checked by brute-force common-divisor search;
  * irreducibility of x^4 + 1 over Q by solving the finitely many integer
    coefficient equations for a monic quadratic split.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futility.cases import parse_poly
from futility.domains import QQ, FunctionField, PrimeField
from futility.errors import DegreeBoundExceeded, ZeroPolynomial
from futility.polynomials import (
    FactoredPoly,
    factor_over_prime_field,
    factor_over_rationals,
    factored_to_str,
    make_poly,
    pX,
    padd,
    pconst,
    pderiv,
    pdivmod,
    pmod,
    pmonic,
    pmul,
    poly_gcd,
    poly_to_str,
    ppow,
    pquo,
    psub,
    pzero,
    squarefree_by_derivation,
    squarefree_decomposition,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def q(*coeffs):
    return make_poly(QQ, [Fraction(c) for c in coeffs])


def fp(dom, *coeffs):
    return make_poly(dom, list(coeffs))


# --- oracles ---------------------------------------------------------------

def all_monic(dom, deg):
    for tail in product(range(dom.p), repeat=deg):
        yield make_poly(dom, list(tail) + [1])


def is_irreducible_bruteforce(f):
    """Trial division by every monic polynomial of lower positive degree."""
    assert f.degree >= 1
    for d in range(1, f.degree):
        for g in all_monic(f.dom, d):
            if pmod(f, g).is_zero:
                return False
    return True


def gcd_bruteforce_f2(a, b):
    """Largest-degree monic common divisor over F_2, by full enumeration."""
    best = pconst(F2, 1)
    for d in range(1, min(a.degree, b.degree) + 1):
        for g in all_monic(F2, d):
            if pmod(a, g).is_zero and pmod(b, g).is_zero:
                best = g
    return best


# --- gcd -------------------------------------------------------------------

def test_gcd_examples_over_q():
    assert poly_gcd(q(-1, 0, 1), q(-1, 1)) == q(-1, 1)
    f = q(2, 4)
    assert poly_gcd(f, pzero(QQ)) == pmonic(f)
    assert poly_gcd(pzero(QQ), pzero(QQ)).is_zero


def test_gcd_over_f2_matches_bruteforce():
    a = fp(F2, 0, 1, 1)  # x^2 + x
    b = fp(F2, 1, 0, 1)  # x^2 + 1
    g = poly_gcd(a, b)
    assert g == fp(F2, 1, 1)
    assert g == gcd_bruteforce_f2(a, b)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=6), st.lists(st.integers(0, 1), min_size=1, max_size=6))
def test_gcd_f2_property(ca, cb):
    a, b = make_poly(F2, ca), make_poly(F2, cb)
    g = poly_gcd(a, b)
    if a.is_zero and b.is_zero:
        assert g.is_zero
        return
    if a.is_zero or b.is_zero:
        other = b if a.is_zero else a
        assert g == pmonic(other)
        return
    assert pmod(a, g).is_zero and pmod(b, g).is_zero
    assert g == gcd_bruteforce_f2(a, b) or g.degree == 0


def test_divmod_roundtrip():
    a = q(1, 2, 3, 4)
    b = q(1, 1)
    quo, rem = pdivmod(a, b)
    assert padd(pmul(quo, b), rem) == a


# --- squarefree ------------------------------------------------------------

def expand_sqf(f, parts):
    acc = pconst(f.dom, f.lc)
    for g, m in parts:
        acc = pmul(acc, ppow(g, m))
    return acc


def test_squarefree_over_q():
    f = pmul(ppow(q(-1, 1), 2), q(2, 1))  # (x-1)^2 (x+2)
    parts = squarefree_decomposition(f)
    assert parts == [(q(2, 1), 1), (q(-1, 1), 2)]
    assert expand_sqf(f, parts) == f


def test_squarefree_x_squared():
    parts = squarefree_decomposition(q(0, 0, 1))
    assert parts == [(q(0, 1), 2)]


def test_squarefree_inseparable_over_function_field():
    # x^p - t has zero derivative but no repeated factor
    for p in (2, 3):
        K = FunctionField(p, ("t",))
        t = K.variable("t")
        f = make_poly(K, [K.neg(t)] + [K.zero] * (p - 1) + [K.one])
        parts = squarefree_decomposition(f)
        assert len(parts) == 1
        g, m = parts[0]
        assert m == 1 and g == f


def test_squarefree_pth_power_over_function_field():
    # (x^2 - t)^2 over F_2(t) comes back with multiplicity 2
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    base = make_poly(K, [K.neg(t), K.zero, K.one])
    f = pmul(base, base)
    parts = squarefree_decomposition(f)
    assert parts == [(base, 2)]


def test_squarefree_mixed_separable_inseparable():
    # (x - t)^2 (x^2 - t) over F_2(t): derivative vanishes yet the two
    # blocks must come apart with the right multiplicities
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    lin = make_poly(K, [K.neg(t), K.one])
    insep = make_poly(K, [K.neg(t), K.zero, K.one])
    f = pmul(pmul(lin, lin), insep)
    parts = squarefree_decomposition(f)
    assert sorted((g.degree, m) for g, m in parts) == [(1, 2), (2, 1)]
    assert expand_sqf(f, parts) == f
    for g, m in parts:
        d = pderiv(g)
        if not d.is_zero:
            assert poly_gcd(g, d).degree == 0


FT2 = FunctionField(2, ("t",))
FT3 = FunctionField(3, ("t",))
FST2 = FunctionField(2, ("s", "t"))
FST3 = FunctionField(3, ("s", "t"))


@pytest.mark.parametrize(
    "K, text, proved, squarefree",
    [
        (FT2, "x^4 - t^2", False, False),  # (x^2 - t)^2: every derivation is 0
        (FT3, "(x - t)^2 * (x + 1)", False, False),  # d/dx and d/dt keep x - t
        (FT2, "x^16 - (t + 1)", True, True),  # inseparable: d/dx = 0, d/dt = 1
        (FT3, "x^9 - (2*t + 1)", True, True),
        (FST2, "x^8 - (s + 1)", True, True),  # d/dt = 0, d/ds = 1
        (FT3, "x^2 + t*x + 1", True, True),  # separable
        (FT2, "x^3 + t*x + 1", True, True),
        (FST2, "x^3 + s*x + t", True, True),
        (FST3, "x^2 - s*t", True, True),
        # squarefree, but each derivation leaves the other factor: left open
        (FST2, "(x^2 - s) * (x^2 - t)", False, True),
    ],
)
def test_squarefree_by_derivation_agrees_with_decomposition(K, text, proved, squarefree):
    f = parse_poly(text, K, indet="x")
    assert squarefree_by_derivation(f) is proved
    assert all(m == 1 for _, m in squarefree_decomposition(f)) is squarefree


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=3), st.integers(1, 2),
       st.lists(st.integers(0, 4), min_size=1, max_size=3))
def test_squarefree_by_derivation_never_accepts_a_square_over_f5(c1, m, c2):
    f = pmul(ppow(make_poly(F5, c1 + [1]), m), make_poly(F5, c2 + [1]))
    if squarefree_by_derivation(f):
        assert all(k == 1 for _, k in squarefree_decomposition(f))


def test_squarefree_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        squarefree_decomposition(pzero(QQ))


@given(st.lists(st.integers(0, 4), min_size=1, max_size=4), st.integers(1, 3), st.lists(st.integers(0, 4), min_size=1, max_size=3))
def test_squarefree_reexpands_over_f5(c1, m, c2):
    a = make_poly(F5, c1 + [1])
    b = make_poly(F5, c2 + [1])
    f = pmul(ppow(a, m), b)
    parts = squarefree_decomposition(f)
    assert expand_sqf(f, parts) == pmonic(f)
    # parts pairwise coprime
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            assert poly_gcd(parts[i][0], parts[j][0]).degree == 0


# --- factorization over F_p -------------------------------------------------

def check_factored(f, fac: FactoredPoly):
    assert fac.expand() == f
    for g, _ in fac.factors:
        assert g.lc == g.dom.one
        if g.degree <= 4 and isinstance(g.dom, PrimeField):
            assert is_irreducible_bruteforce(g)
    for i in range(len(fac.factors)):
        for j in range(i + 1, len(fac.factors)):
            assert poly_gcd(fac.factors[i][0], fac.factors[j][0]).degree == 0


def test_factor_f2_split():
    f = fp(F2, 0, 1, 1)  # x^2 + x = x(x+1)
    fac = factor_over_prime_field(f)
    check_factored(f, fac)
    assert [(g.coeffs, m) for g, m in fac.factors] == [((0, 1), 1), ((1, 1), 1)]


def test_factor_f2_irreducible_cubic():
    f = fp(F2, 1, 1, 0, 1)  # x^3 + x + 1
    assert is_irreducible_bruteforce(f)
    fac = factor_over_prime_field(f)
    check_factored(f, fac)
    assert len(fac.factors) == 1 and fac.factors[0][1] == 1


def test_factor_f2_repeated_quadratic():
    f = fp(F2, 1, 0, 1, 0, 1)  # x^4 + x^2 + 1 = (x^2+x+1)^2
    fac = factor_over_prime_field(f)
    check_factored(f, fac)
    assert fac.factors == ((fp(F2, 1, 1, 1), 2),)


@settings(deadline=None)
@given(st.integers(0, 3), st.lists(st.integers(0, 4), min_size=2, max_size=7))
def test_factor_fp_random_reexpands(seed, coeffs):
    for dom in (F2, F3, F5):
        f = make_poly(dom, [c % dom.p for c in coeffs])
        if f.is_zero or f.degree < 1:
            continue
        fac = factor_over_prime_field(f, seed=seed)
        check_factored(f, fac)


def test_factor_fp_deterministic_given_seed():
    f = fp(F5, 3, 1, 4, 1, 0, 2, 1)
    assert factor_over_prime_field(f, seed=11) == factor_over_prime_field(f, seed=11)


# --- factorization over Q ----------------------------------------------------

def no_rational_quadratic_split_x4_plus_1():
    """Exhaustive check that x^4+1 = (x^2+ax+b)(x^2+cx+d) has no integer
    solution.  Gauss's lemma reduces rational monic splits to integer ones;
    bd = 1 forces b = d = +-1, then the remaining equations are finite."""
    for b, d in ((1, 1), (-1, -1)):
        # coefficient equations: a + c = 0, b + d + ac = 0, ad + bc = 0
        for a in range(-4, 5):
            c = -a
            if b + d + a * c == 0 and a * d + b * c == 0 and b * d == 1:
                return False
    return True


def has_rational_root_x4_plus_1():
    return any(x**4 + 1 == 0 for x in (1, -1))  # rational root test: roots divide 1


def test_factor_q_x4_plus_1_irreducible():
    assert no_rational_quadratic_split_x4_plus_1()
    assert not has_rational_root_x4_plus_1()
    fac = factor_over_rationals(q(1, 0, 0, 0, 1))
    assert len(fac.factors) == 1
    assert fac.factors[0] == (q(1, 0, 0, 0, 1), 1)


def test_factor_q_difference_of_squares():
    fac = factor_over_rationals(q(-1, 0, 1))
    assert fac.factors == ((q(-1, 1), 1), (q(1, 1), 1))
    assert fac.unit == 1


def test_factor_q_repeated_quadratic():
    f = ppow(q(1, 0, 1), 2)
    fac = factor_over_rationals(f)
    assert fac.factors == ((q(1, 0, 1), 2),)


def test_factor_q_nonmonic_unit():
    f = pmul(pconst(QQ, Fraction(3, 2)), pmul(q(-1, 1), q(2, 1)))
    fac = factor_over_rationals(f)
    assert fac.unit == Fraction(3, 2)
    assert fac.expand() == f


def test_factor_q_degree_bound():
    f = make_poly(QQ, [Fraction(1)] * 26)
    with pytest.raises(DegreeBoundExceeded):
        factor_over_rationals(f)


def test_factor_q_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        factor_over_rationals(pzero(QQ))


@settings(deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.integers(1, 2),
)
def test_factor_q_products_reexpand(c1, c2, m):
    f = pmul(ppow(make_poly(QQ, [Fraction(c) for c in c1] + [Fraction(1)]), m), make_poly(QQ, [Fraction(c) for c in c2] + [Fraction(1)]))
    fac = factor_over_rationals(f)
    assert fac.expand() == f
    for g, _ in fac.factors:
        assert g.lc == 1


def test_factor_q_cyclotomic_like():
    # x^6 - 1 = (x-1)(x+1)(x^2+x+1)(x^2-x+1)
    f = psub(ppow(pX(QQ), 6), pconst(QQ, Fraction(1)))
    fac = factor_over_rationals(f)
    assert fac.expand() == f
    assert sorted(g.degree for g, _ in fac.factors) == [1, 1, 2, 2]


def test_poly_to_str():
    assert poly_to_str(q(1, -2, 0, 1)) == "x^3 - 2*x + 1"
    assert poly_to_str(pzero(QQ)) == "0"
    fac = factor_over_rationals(q(-1, 0, 1))
    assert factored_to_str(fac) == "(x - 1) * (x + 1)"


def test_factor_q_deterministic():
    f = pmul(ppow(q(1, 0, 1), 2), q(-3, 1, 1))
    assert factor_over_rationals(f, seed=5) == factor_over_rationals(f, seed=5)
    assert factor_over_rationals(f, seed=5) == factor_over_rationals(f, seed=9)


def test_factor_q_resists_modular_splitting():
    # x^4 - 10x^2 + 1 is irreducible over Q yet splits modulo every prime,
    # so the subset recombination has to reassemble everything
    f = q(1, 0, -10, 0, 1)
    fac = factor_over_rationals(f)
    assert fac.factors == ((f, 1),)
    g = pmul(pmul(q(-2, 0, 1), q(-3, 0, 1)), q(-6, 0, 1))
    fac2 = factor_over_rationals(g)
    assert sorted(h.degree for h, _ in fac2.factors) == [2, 2, 2]
    assert fac2.expand() == g


def test_factor_q_at_degree_bound():
    from futility.polynomials import pconst, psub

    f = psub(ppow(pX(QQ), 24), pconst(QQ, Fraction(1)))
    fac = factor_over_rationals(f)
    assert sorted(g.degree for g, _ in fac.factors) == [1, 1, 2, 2, 2, 4, 4, 8]
    assert fac.expand() == f


def test_squarefree_prime_power_multiplicity_char2():
    # (x^2+x+1)^4 over F_2: two nested p-th power extractions
    g = fp(F2, 1, 1, 1)
    f = ppow(g, 4)
    parts = squarefree_decomposition(f)
    assert parts == [(g, 4)]
    fac = factor_over_prime_field(f)
    assert fac.factors == ((g, 4),)
