"""Polynomial arithmetic, squarefree decomposition and factorization.

Independent oracles used here:
  * irreducibility over F_p for degree <= 4 by exhaustive trial division
    over all lower-degree monic polynomials;
  * gcd over F_2 cross-checked by brute-force common-divisor search;
  * irreducibility of x^4 + 1 over Q by solving the finitely many integer
    coefficient equations for a monic quadratic split;
  * the domain-call kernel and the factorizations it ran before the Q and
    F_p kernels (reference_polys), and the CRT idempotents of the
    decomposition through A/N (reference_local);
  * sympy's factor_list, when sympy is installed.
"""

import math
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futility import cases as cases_module
from futility.algebra import local_decomposition
from futility.cases import build_case, parse_case, parse_poly
from futility.domains import QQ, FunctionField, PrimeField
from futility.errors import DegreeBoundExceeded, ZeroPolynomial
from futility.polynomials import (
    FactoredPoly,
    domain_kernel,
    factor_over_prime_field,
    factor_over_rationals,
    factored_to_str,
    kernel_gcd,
    kernel_xgcd,
    make_poly,
    pX,
    padd,
    pconst,
    pderiv,
    pdivmod,
    pmonic,
    pmul,
    poly_gcd,
    poly_kernel,
    poly_to_str,
    ppow,
    psub,
    pzero,
    squarefree_by_derivation,
    squarefree_decomposition,
)
import reference_local
import reference_polys
from reference_polys import pmod
from reference_tower import exact

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import make_cases  # noqa: E402

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


# --- one kernel per arithmetic ------------------------------------------------

def same(got, want):
    """Equal values with equal reprs."""
    assert got == want
    assert repr(got) == repr(want)


def seeded_polys(dom, seed, count=30):
    """Polynomials with shared, repeated and p-th power factors: over Q with
    denominators, a content and constants among them, over F_p with
    coefficients in [0, p)."""
    rng = random.Random(seed)

    def coeff():
        if dom == QQ:
            return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6]))
        return rng.randrange(dom.p)

    def draw(degree):
        lead = dom.zero
        while dom.is_zero(lead):
            lead = coeff()
        return make_poly(dom, [coeff() for _ in range(degree)] + [lead])

    out = []
    for _ in range(count):
        u, v, w = (draw(rng.randint(0, 3)) for _ in range(3))
        out += [pmul(u, v), pmul(u, w), pmul(ppow(u, 2), v), ppow(w, rng.choice([2, 3, 5]))]
    if dom == QQ:
        out += [pmul(pconst(QQ, Fraction(10, 21)), out[0]), pconst(QQ, Fraction(-7, 2))]
    return out


def forms_are_canonical(dom, forms):
    """Q forms are (content, primitive integer list with a positive leading
    coefficient); F_p forms are trimmed lists of ints in [0, p)."""
    for f in forms:
        if dom == QQ:
            c, P = f
            assert isinstance(c, Fraction)
            assert P == [] or (math.gcd(*P) == 1 and P[-1] > 0)
        else:
            assert all(0 <= x < dom.p for x in f) and (not f or f[-1])


@pytest.mark.parametrize("dom", [QQ, F2, F3, F5], ids=repr)
def test_kernel_agrees_with_the_domain_call_arm(dom):
    """Every operation of the domain's kernel, and gcd, xgcd and the
    squarefree decomposition run on it, give the Polys of the domain-call
    kernel, and keep the forms canonical."""
    K, D = poly_kernel(dom), domain_kernel(dom)
    polys = seeded_polys(dom, 7) + [pzero(dom)]
    pairs = list(zip(polys, polys[1:])) + list(zip(polys[::3], polys[2::3]))
    for a, b in pairs:
        A, B = K.enter(a), K.enter(b)
        assert K.degree(A) == a.degree
        same(K.leave(A), a)
        for op in ("mul", "sub"):
            got = getattr(K, op)(A, B)
            forms_are_canonical(dom, [got])
            same(K.leave(got), getattr(D, op)(a, b))
        for op in ("monic", "deriv"):
            same(K.leave(getattr(K, op)(A)), getattr(D, op)(a))
        if b.is_zero:
            for kernel, x, y in ((K, A, B), (D, a, b)):
                with pytest.raises(ZeroDivisionError):
                    kernel.divmod(x, y)
        else:
            forms = K.divmod(A, B)
            forms_are_canonical(dom, forms)
            for got, want in zip(forms, D.divmod(a, b)):
                same(K.leave(got), want)
        gcd = kernel_gcd(K, A, B)
        forms_are_canonical(dom, (A, B, gcd))
        same(K.leave(gcd), kernel_gcd(D, a, b))
        same(poly_gcd(a, b), kernel_gcd(D, a, b))
        forms = kernel_xgcd(K, A, B)
        forms_are_canonical(dom, forms)
        g, s, t = map(K.leave, forms)
        for got, want in zip((g, s, t), kernel_xgcd(D, a, b)):
            same(got, want)
        assert padd(pmul(s, a), pmul(t, b)) == g
        if not a.is_zero:
            same(squarefree_decomposition(a), reference_polys.squarefree_decomposition(a))


def test_kernel_is_picked_from_the_domain():
    assert poly_kernel(QQ) is poly_kernel(QQ)
    assert poly_kernel(FT2).divmod is pdivmod and poly_kernel(FT2).one == pconst(FT2, FT2.one)
    assert poly_kernel(F3).enter(fp(F3, 4, 5, 3)) == [1, 2]
    assert poly_kernel(QQ).enter(q(Fraction(-3, 4), Fraction(3, 2))) == (Fraction(3, 4), [-1, 2])


@pytest.mark.parametrize("dom", [F2, F3, F5], ids=repr)
def test_fp_factorization_matches_the_domain_call_reference(dom):
    for f in seeded_polys(dom, 11):
        if f.degree < 1:
            continue
        for seed in (0, 3):
            same(factor_over_prime_field(f, seed), reference_polys.factor_over_prime_field(f, seed))


def test_q_factorization_matches_the_reference():
    polys = [f for f in seeded_polys(QQ, 13) if f.degree >= 1]
    polys += [q(1, 0, -10, 0, 1), pmul(q(-2, 0, 1), pmul(q(-3, 0, 1), q(-6, 0, 1))), q(-1, *[0] * 11, 1)]
    for f in polys:
        same(factor_over_rationals(f), reference_polys.factor_over_rationals(f))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_crt_idempotents_match_the_quotient_reference_on_the_decide_only_moduli(seed):
    algebras = [build_case(parse_case(case.text)).payload for case in make_cases("decide-only", seed, ROOT)]
    algebras = [A for A in algebras if getattr(A, "dom", None) == QQ]
    assert len(algebras) == 10
    for A in algebras:
        got = sorted(repr(lf.idempotent) for lf in local_decomposition(A).factors)
        want = sorted(repr(pf.idempotent) for pf in reference_local.local_decomposition(A))
        assert len(got) > 1
        assert got == want


def test_ppow_and_pmul_keep_the_tuples_of_the_loops_from_one_on_every_tower_modulus(monkeypatch):
    # every power and product the parser forms on the corpus towers and on
    # the decide-only documents of seeds 1-3, whose seeds reorder the factors
    powers, products = [], []
    monkeypatch.setattr(cases_module, "ppow", lambda a, n: powers.append((a, n)) or ppow(a, n))
    monkeypatch.setattr(cases_module, "pmul", lambda a, b: products.append((a, b)) or pmul(a, b))
    texts = [path.read_text() for path in sorted((ROOT / "corpus" / "field-extension").glob("*.case"))]
    texts += [case.text for seed in (1, 2, 3) for case in make_cases("decide-only", seed, ROOT)]
    for text in texts:
        build_case(parse_case(text))
    assert {type(a.dom).__name__ for a, _ in powers} >= {"RationalField", "FunctionField", "AlgebraScalarDomain"}
    for a, n in powers:
        assert exact(ppow(a, n)) == exact(reference_polys.ppow_from_one(a, n))
        assert exact(ppow(a, 0)) == exact(pconst(a.dom, a.dom.one))
    for a, b in products:
        assert exact(pmul(a, b)) == exact(reference_polys.pmul_over_every_coefficient(a, b))


SWINNERTON_DYER_2_3_5 = "x^8 - 40*x^6 + 352*x^4 - 960*x^2 + 576"


@pytest.mark.parametrize(
    "text",
    [
        SWINNERTON_DYER_2_3_5,
        f"({SWINNERTON_DYER_2_3_5}) * (x^2 - 3)^2 * (x - 1/2)^3",
        "(x^4 - 10*x^2 + 1)^2 * (x^3 - 2) * (x + 5)^2",
        "3*x^5 - 7/2*x^3 + x/5 - 9",
        "(2/3*x^2 - 5)^2 * (7*x^3 + x - 1/4)",
        "-4/9*(x^2 + x + 1)^3 * (x - 3/7)",
        f"({SWINNERTON_DYER_2_3_5}) * (x^4 - 10*x^2 + 1) * (x^3 - 1/2)^2 * (3*x^2 + x/5 - 7) * (x^2 - 2)",
        "x^24 - 2",
        "x^24 - 1",
    ],
)
def test_factor_over_rationals_matches_sympy(text):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    if text == SWINNERTON_DYER_2_3_5:
        # the minimal polynomial of sqrt 2 + sqrt 3 + sqrt 5: irreducible over
        # Q, and split into factors of degree at most 2 modulo every prime
        sd = sympy.minimal_polynomial(sympy.sqrt(2) + sympy.sqrt(3) + sympy.sqrt(5), x)
        assert sympy.expand(sd - sympy.sympify(text.replace("^", "**"))) == 0
    f = parse_poly(text, QQ, indet="x")
    assert f.degree <= 24
    fac = factor_over_rationals(f)
    content, parts = sympy.factor_list(sympy.sympify(text.replace("^", "**")), x)
    want = []
    for g, m in parts:
        coeffs = sympy.Poly(g, x).monic().all_coeffs()[::-1]
        want.append((tuple(Fraction(int(c.p), int(c.q)) for c in coeffs), m))
    got = sorted((g.coeffs, m) for g, m in fac.factors)
    assert got == sorted(want)
    assert fac.expand() == f
