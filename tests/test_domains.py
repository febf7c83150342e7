"""Scalar domain arithmetic: field axioms, inversion errors, rational
function equality."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futility.algebra import element_multiply, element_power
from futility.constructions import poly_quotient_algebra
from futility.domains import (
    QQ,
    FunctionField,
    ModRing,
    PrimeField,
    mp_add,
    mp_canon,
    mp_const,
    mp_mul,
    mp_pow,
    ratfunc,
)
from futility.errors import DomainMismatch, NotInvertible
from futility.polynomials import _powmod, make_poly, pconst, pmul, poly_kernel, ppow
from reference_tower import reference_add, reference_mul


def test_invert_identity_rational():
    assert QQ.inv(Fraction(1)) == 1


def test_invert_prime_field():
    F5 = PrimeField(5)
    assert F5.inv(2) == 3


def test_invert_zero_divisor_carries_gcd_witness():
    Z6 = ModRing(6)
    with pytest.raises(NotInvertible) as exc:
        Z6.inv(4)
    assert exc.value.witness == 2


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        PrimeField(6)


FIELDS = [QQ, PrimeField(5), PrimeField(2), PrimeField(97)]


@st.composite
def field_and_elements(draw):
    dom = draw(st.sampled_from(FIELDS))
    if dom is QQ:
        elt = st.fractions(min_value=-50, max_value=50, max_denominator=20)
    else:
        elt = st.integers(min_value=0, max_value=dom.p - 1)
    return dom, draw(elt), draw(elt), draw(elt)


@given(field_and_elements())
def test_field_axioms_on_sampled_triples(data):
    dom, a, b, c = data
    assert dom.add(dom.add(a, b), c) == dom.add(a, dom.add(b, c))
    assert dom.mul(dom.mul(a, b), c) == dom.mul(a, dom.mul(b, c))
    assert dom.mul(a, dom.add(b, c)) == dom.add(dom.mul(a, b), dom.mul(a, c))
    assert dom.add(a, dom.neg(a)) == dom.zero
    assert dom.mul(a, dom.one) == a
    if not dom.is_zero(a):
        assert dom.mul(a, dom.inv(a)) == dom.one


def test_rf_equals_cross_multiplication():
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    one = K.one
    # t/1 vs t^2/t
    a = t
    b = ratfunc(2, 1, mp_mul(t.num, t.num, 2), t.num)
    assert a == b
    # t vs t + 1
    c = K.add(t, one)
    assert a != c


def test_rf_equals_common_factor_two_vars():
    K = FunctionField(2, ("s", "t"))
    s = K.variable("s")
    t = K.variable("t")
    num1 = K.add(s, t)
    a = K.mul(num1, K.inv(s))  # (s+t)/s
    s2 = K.mul(s, s)
    b = ratfunc(2, 2, K.add(K.mul(s, s), K.mul(s, t)).num, s2.num)  # (s^2+st)/s^2
    assert a == b


def test_rf_is_false_exactly_at_zero():
    # elimination tests residuals with any(), as for ints and Fractions
    K = FunctionField(3, ("s", "t"))
    s, t = K.variable("s"), K.variable("t")
    zero = K.sub(K.mul(s, K.inv(t)), K.mul(s, K.inv(t)))
    assert K.is_zero(zero) and not zero and not K.zero
    assert all(bool(x) for x in (K.one, s, K.inv(t), K.neg(K.one)))
    assert not any((K.zero, zero)) and any((K.zero, t))


@pytest.mark.parametrize("K", [FunctionField(2, ("t",)), FunctionField(3, ("s", "t"))])
def test_function_field_constants_equal_from_int(K):
    # zero and one are built once per domain, with the tuples from_int gives
    for value, n in ((K.zero, 0), (K.one, 1)):
        fresh = K.from_int(n)
        assert value == fresh and (value.num, value.den) == (fresh.num, fresh.den)
    assert K.zero is K.zero and K.one is K.one


def test_rf_equals_domain_mismatch():
    K1 = FunctionField(2, ("t",))
    K2 = FunctionField(3, ("t",))
    with pytest.raises(DomainMismatch):
        K1.variable("t") == K2.variable("t")


@given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))
def test_rf_equals_is_equivalence_on_samples(i, j, k):
    K = FunctionField(3, ("t",))
    t = K.variable("t")

    def build(n):
        # (t + n) / (t^2 + 1), occasionally multiplied through by t to
        # exercise non-canonical representatives
        num = K.add(t, K.from_int(n))
        den = K.add(K.mul(t, t), K.one)
        val = K.mul(num, K.inv(den))
        if n % 2:
            val = ratfunc(3, 1, mp_mul(val.num, t.num, 3), mp_mul(val.den, t.num, 3))
        return val

    a, b, c = build(i), build(j), build(k)
    assert a == a
    if a == b:
        assert b == a
    if a == b and b == c:
        assert a == c


def test_function_field_proot():
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    sq = K.mul(t, t)
    root = K.proot(sq)
    assert root == t
    assert K.proot(t) is None


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 6), st.integers(1, 6))
def test_function_field_axioms_on_samples(i, j, k, l):
    K = FunctionField(3, ("s", "t"))
    s = K.variable("s")
    t = K.variable("t")

    def elt(a, b):
        # (a + b*s) / (t + l) exercises non-trivial denominators
        num = K.add(K.from_int(a), K.mul(K.from_int(b), s))
        return K.mul(num, K.inv(K.add(t, K.from_int(l))))

    x, y, z = elt(i, j), elt(j, k), elt(k, i)
    assert K.add(K.add(x, y), z) == K.add(x, K.add(y, z))
    assert K.mul(K.mul(x, y), z) == K.mul(x, K.mul(y, z))
    assert K.mul(x, K.add(y, z)) == K.add(K.mul(x, y), K.mul(x, z))
    assert K.is_zero(K.sub(x, x))
    if not K.is_zero(x):
        assert K.mul(x, K.inv(x)) == K.one


def full_product(K, a, b):
    """FunctionField.mul as it is without its fast paths."""
    return ratfunc(K.p, K.nvars, mp_mul(a.num, b.num, K.p), mp_mul(a.den, b.den, K.p))


def f2t_samples():
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    t1 = K.add(t, K.one)
    return K, [K.zero, K.one, t, t1, K.inv(t), K.mul(K.mul(t, t1), K.inv(K.add(K.mul(t, t), t1)))]


def f3st_samples():
    K = FunctionField(3, ("s", "t"))
    s, t = K.variable("s"), K.variable("t")
    two = K.from_int(2)
    return K, [
        K.zero,
        K.one,
        two,
        s,
        K.add(K.mul(two, s), t),
        K.inv(K.add(t, K.one)),
        K.mul(s, K.inv(t)),
        K.mul(K.mul(two, K.mul(s, t)), K.inv(K.add(s, K.one))),
    ]


@pytest.mark.parametrize("samples", [f2t_samples, f3st_samples], ids=["F2(t)", "F3(s,t)"])
def test_function_field_mul_keeps_the_full_product_representation(samples):
    """Products with zero or a constant (1 or c != 1, on either side) take a
    shortcut; every product must still be the full product's RatFunc, num
    and den tuples included, not just an equal value."""
    K, elts = samples()
    for a in elts:
        for b in elts:
            got, want = K.mul(a, b), full_product(K, a, b)
            assert (got.p, got.nvars, got.num, got.den) == (want.p, want.nvars, want.num, want.den)


@pytest.mark.parametrize("samples", [f2t_samples, f3st_samples], ids=["F2(t)", "F3(s,t)"])
def test_rf_equality_with_a_shared_denominator_is_cross_multiplication(samples):
    K, elts = samples()
    # the samples against each other, a/d against b/d for a common d, and
    # x against x^2/x with the common factor x left in
    d = elts[-1]
    pairs = [(a, b) for a in elts for b in elts]
    pairs += [(K.mul(a, d), K.mul(b, d)) for a in elts for b in elts]
    x = K.add(K.variable(K.var_names[-1]), K.one)
    pairs.append((x, ratfunc(K.p, K.nvars, mp_mul(x.num, x.num, K.p), x.num)))
    assert pairs[-1][0] == pairs[-1][1]
    for a, b in pairs:
        assert (a == b) == (mp_mul(a.num, b.den, K.p) == mp_mul(b.num, a.den, K.p))


def full_sum(K, a, b):
    """FunctionField.add as it is without its fast path."""
    p = K.p
    num = mp_add(mp_mul(a.num, b.den, p), mp_mul(b.num, a.den, p), p)
    return ratfunc(p, K.nvars, num, mp_mul(a.den, b.den, p))


@st.composite
def ratfunc_pairs(draw):
    """Two elements of F_2(t) or F_3(s,t), each with denominator one or a
    random one, sometimes sharing the same denominator d != 1."""
    K = draw(st.sampled_from([FunctionField(2, ("t",)), FunctionField(3, ("s", "t"))]))
    exps = st.tuples(*[st.integers(0, 3)] * K.nvars)
    polys = st.dictionaries(exps, st.integers(1, K.p - 1), max_size=4).map(
        lambda d: mp_canon(d, K.p)
    )
    nonzero = polys.filter(bool)
    one = K.one.den
    den_a = draw(st.one_of(st.just(one), nonzero))
    den_b = den_a if draw(st.booleans()) else draw(st.one_of(st.just(one), nonzero))
    a = ratfunc(K.p, K.nvars, draw(polys), den_a)
    b = ratfunc(K.p, K.nvars, draw(polys), den_b)
    return K, a, b


@settings(max_examples=200)
@given(ratfunc_pairs())
def test_function_field_add_keeps_the_full_sum_representation(case):
    """A sum over denominator one skips the cross products; every sum must
    still be the full formula's RatFunc, num and den tuples included."""
    K, a, b = case
    got, want = K.add(a, b), full_sum(K, a, b)
    assert (got.p, got.nvars, got.num, got.den) == (want.p, want.nvars, want.num, want.den)


SHORTCUT_FIELDS = [FunctionField(2, ("t",)), FunctionField(3, ("s", "t")), FunctionField(5, ("t",))]


@st.composite
def shortcut_operands(draw):
    """A field of SHORTCUT_FIELDS and two of its elements, each a zero (made
    three ways), a nonzero constant, a polynomial or a quotient by another
    denominator; half the time the second is the negation of the first, so
    that their sum cancels to zero."""
    K = draw(st.sampled_from(SHORTCUT_FIELDS))
    exps = st.tuples(*[st.integers(0, 3)] * K.nvars)
    terms = st.dictionaries(exps, st.integers(1, K.p - 1), min_size=1, max_size=4)
    # times a monomial, so that numerators and denominators often share one
    polys = st.builds(lambda d, e: mp_mul(mp_canon(d, K.p), ((e, 1),), K.p), terms, exps)

    def element():
        kind = draw(st.sampled_from(["zero", "cancelled", "negated zero", "constant", "polynomial", "quotient"]))
        if kind == "zero":
            return K.zero
        if kind == "cancelled":
            x = ratfunc(K.p, K.nvars, draw(polys), draw(polys))
            return K.sub(x, x)
        if kind == "negated zero":
            return K.neg(K.zero)
        if kind == "constant":
            return K.from_int(draw(st.integers(1, K.p - 1)))
        return ratfunc(K.p, K.nvars, draw(polys), K._one if kind == "polynomial" else draw(polys))

    a = element()
    b = K.neg(a) if draw(st.booleans()) else element()
    return K, a, b


def tuples_of(x):
    return x.p, x.nvars, x.num, x.den


@settings(max_examples=400)
@given(shortcut_operands())
def test_function_field_arithmetic_keeps_the_tuples_of_ratfunc_on_every_result(case):
    """add returns a summand when the other is zero and builds a sum or
    product over denominator 1 with no ratfunc; every sum, difference and
    product must still be the reference's RatFunc, which calls ratfunc
    there, num and den tuples included."""
    K, a, b = case
    pairs = [
        (K.add(a, b), reference_add(K, a, b)),
        (K.add(b, a), reference_add(K, b, a)),
        (K.sub(a, b), reference_add(K, a, K.neg(b))),
        (K.sub(b, a), reference_add(K, b, K.neg(a))),
        (K.mul(a, b), reference_mul(K, a, b)),
        (K.mul(b, a), reference_mul(K, b, a)),
        (K.neg(K.add(a, b)), K.neg(reference_add(K, a, b))),
    ]
    for got, want in pairs:
        assert tuples_of(got) == tuples_of(want)
    if a == K.neg(b):
        assert tuples_of(K.add(a, b)) == tuples_of(K.zero)


@pytest.mark.parametrize("K", SHORTCUT_FIELDS, ids=repr)
def test_a_zero_summand_returns_the_other_as_it_is(K):
    x = K.variable(K.var_names[-1])
    for other in (x, K.inv(K.add(x, K.one)), K.one, K.zero):
        assert K.add(K.zero, other) is other and K.add(other, K.zero) is other


def test_function_field_add_with_a_shared_denominator_keeps_the_full_formula():
    """ratfunc takes no gcd, so 1/t + 1/t is 2t/t^2 trimmed to 2/t, while
    (t + 1)/(t^2 + 1) + t/(t^2 + 1) keeps the square of its denominator."""
    K = FunctionField(3, ("t",))
    t = K.variable("t")
    d = K.add(K.mul(t, t), K.one)
    a, b = K.mul(K.add(t, K.one), K.inv(d)), K.mul(t, K.inv(d))
    got = K.add(a, b)
    assert got.den == mp_mul(d.num, d.num, 3)
    assert (got.num, got.den) == (full_sum(K, a, b).num, full_sum(K, a, b).den)


@given(st.integers(0, 11), st.integers(0, 11), st.integers(0, 11))
def test_mod_ring_axioms_on_samples(a, b, c):
    R = ModRing(12)
    assert R.add(R.add(a, b), c) == R.add(a, R.add(b, c))
    assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))
    assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
    assert R.add(a, R.neg(a)) == R.zero


# --- one modular class -----------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_field_is_the_mod_ring_on_every_residue(p):
    F, R = PrimeField(p), ModRing(p)
    residues = range(p)
    for a in residues:
        for b in residues:
            for op in (F.add, F.sub, F.mul):
                assert op(a, b) == getattr(R, op.__name__)(a, b)
        assert (F.neg(a), F.is_zero(a)) == (R.neg(a), R.is_zero(a))
        if a:
            assert F.inv(a) == R.inv(a) and F.mul(a, F.inv(a)) == 1
    for n in range(-2 * p, 2 * p + 1):
        assert F.from_int(n) == R.from_int(n) == F.parse(str(n)) == R.parse(str(n))
    assert (F.size, F.zero, F.one) == (R.size, R.zero, R.one) == (p, 0, 1)
    # still two domains: a field of characteristic p and a ring
    assert F != R and hash(F) != hash(R) and F == PrimeField(p)
    assert (repr(F), repr(R)) == (f"F{p}", f"Z/{p}")
    assert (F.is_field, F.char, F.p) == (True, p, p) and (R.is_field, R.char) == (False, 0)
    with pytest.raises(NotInvertible, match=rf"^0 has no inverse in F{p}$"):
        F.inv(0)
    with pytest.raises(NotInvertible, match=rf"^0 shares factor {p} with {p}$"):
        R.inv(0)


# --- one square-and-multiply -----------------------------------------------------


def rf_tuples(values):
    return tuple((c.num, c.den) for c in values)


FUNCTION_FIELDS = [FunctionField(2, ("t",)), FunctionField(3, ("s", "t"))]


@pytest.mark.parametrize("K", FUNCTION_FIELDS, ids=repr)
def test_each_power_is_the_naive_product_from_one(K):
    """mp_pow, ppow and element_power against n - 1 products from one, for
    n = 0..40: equal num and den tuples, not just equal values."""
    s, t = K.variable(K.var_names[0]), K.variable(K.var_names[-1])
    a = K.add(s, K.add(t, K.one)).num
    acc = mp_const(1, K.p, K.nvars)
    for n in range(41):
        assert mp_pow(a, n, K.p) == acc
        acc = mp_mul(acc, a, K.p)
    f = make_poly(K, [K.add(s, t), K.inv(t)])
    acc = pconst(K, K.one)
    for n in range(41):
        assert rf_tuples(ppow(f, n).coeffs) == rf_tuples(acc.coeffs)
        acc = pmul(acc, f)
    A = poly_quotient_algebra(make_poly(K, [t, K.one, K.one]))  # x^2 + x + t
    u = (s, K.inv(t))
    acc = A.unit
    for n in range(41):
        assert rf_tuples(element_power(A, u, n)) == rf_tuples(acc)
        acc = element_multiply(A, acc, u)


@pytest.mark.parametrize("p", [2, 5])
def test_powmod_is_the_naive_product_from_one(p):
    K = poly_kernel(PrimeField(p))
    mod = [1, 0, 1, 1, 0, 1]  # x^5 + x^3 + x^2 + 1
    a = [3 % p, 1, 0, 0, 2 % p, 1, 1]  # of higher degree than mod
    acc = K.one
    for n in range(41):
        assert _powmod(K, a, n, mod) == acc
        acc = K.divmod(K.mul(acc, a), mod)[1]


@pytest.mark.parametrize("K", FUNCTION_FIELDS, ids=repr)
def test_a_rational_function_prints_one_way(K):
    s, t = K.variable(K.var_names[0]), K.variable(K.var_names[-1])
    names = tuple(f"v{i}" for i in range(K.nvars))
    for a in (K.zero, K.one, s, K.add(s, t), K.mul(s, K.inv(K.add(t, K.one)))):
        assert repr(a) == a.format(names) and K.to_str(a) == a.format(K.var_names)
    assert K.to_str(K.mul(s, K.inv(K.add(t, K.one)))) == ("(t)/(t + 1)" if K.nvars == 1 else "(s)/(t + 1)")
