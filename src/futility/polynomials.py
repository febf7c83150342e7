"""Dense univariate polynomial arithmetic over the scalar domains, plus
squarefree decomposition and full factorization over F_p and Q.

Polynomials are coefficient tuples, low degree first, with a trimmed
leading coefficient.  "Squarefree" here means "product of distinct
irreducible factors over the coefficient field": a polynomial like
x^p - t over F_p(t) is squarefree in this sense even though its
derivative vanishes.

Poly and FactoredPoly are the values that leave this module.  Under them
the heavy work runs on one kernel per arithmetic (PolyKernel), picked from
the domain once per call by poly_kernel, as linalg.echelon_pair picks an
elimination pair: over Q a primitive integer coefficient list with one
rational content, divided by pseudo-division; over F_p an int list reduced
mod p; over every other domain the Poly under the domain's calls.  gcd,
xgcd and the squarefree loop are written once over the kernel.  The
kernel's consumers are squarefree_decomposition (and poly_gcd),
factor_over_prime_field, factor_over_rationals, whose Zassenhaus factoring
and Hensel lifting run on the same int lists, and the CRT step of
algebra.local_decomposition.  A form leaves a kernel as a Poly with the
domain's coefficient types (Fraction over Q, int over F_p).
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from operator import attrgetter
from typing import NamedTuple

from .domains import QQ, PrimeField, RationalField, ScalarDomain, is_prime
from .errors import (
    DegreeBoundExceeded,
    DomainMismatch,
    UnsupportedDomain,
    ZeroPolynomial,
)


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial over a ScalarDomain; coeffs low degree first."""

    dom: ScalarDomain
    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __repr__(self):
        return poly_to_str(self, "x")


def make_poly(dom: ScalarDomain, coeffs) -> Poly:
    cs = list(coeffs)
    while cs and dom.is_zero(cs[-1]):
        cs.pop()
    return Poly(dom, tuple(cs))


def pzero(dom) -> Poly:
    return Poly(dom, ())


def pconst(dom, c) -> Poly:
    return make_poly(dom, [c])


def pX(dom) -> Poly:
    return Poly(dom, (dom.zero, dom.one))


def _check(a: Poly, b: Poly):
    if a.dom != b.dom:
        raise DomainMismatch("polynomials over different domains")


def padd(a: Poly, b: Poly) -> Poly:
    _check(a, b)
    dom = a.dom
    n = max(len(a.coeffs), len(b.coeffs))
    ca = list(a.coeffs) + [dom.zero] * (n - len(a.coeffs))
    cb = list(b.coeffs) + [dom.zero] * (n - len(b.coeffs))
    return make_poly(dom, [dom.add(x, y) for x, y in zip(ca, cb)])


def pneg(a: Poly) -> Poly:
    return Poly(a.dom, tuple(a.dom.neg(c) for c in a.coeffs))


def psub(a: Poly, b: Poly) -> Poly:
    return padd(a, pneg(b))


def pmul(a: Poly, b: Poly) -> Poly:
    """The product, formed over the nonzero coefficients of both factors."""
    _check(a, b)
    dom = a.dom
    if a.is_zero or b.is_zero:
        return pzero(dom)
    out = [dom.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    bs = [(j, cb) for j, cb in enumerate(b.coeffs) if not dom.is_zero(cb)]
    for i, ca in enumerate(a.coeffs):
        if dom.is_zero(ca):
            continue
        for j, cb in bs:
            out[i + j] = dom.add(out[i + j], dom.mul(ca, cb))
    return make_poly(dom, out)


def pscale(a: Poly, c) -> Poly:
    return make_poly(a.dom, [a.dom.mul(c, x) for x in a.coeffs])


def pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Division with remainder; the divisor's leading coefficient must be
    invertible in the domain."""
    _check(a, b)
    dom = a.dom
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lc = dom.inv(b.lc)
    rem = list(a.coeffs)
    db = b.degree
    quo = [dom.zero] * max(0, len(a.coeffs) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if dom.is_zero(c):
            continue
        q = dom.mul(c, inv_lc)
        quo[i - db] = q
        for j, bc in enumerate(b.coeffs):
            rem[i - db + j] = dom.sub(rem[i - db + j], dom.mul(q, bc))
    return make_poly(dom, quo), make_poly(dom, rem)


def pquo(a: Poly, b: Poly) -> Poly:
    q, r = pdivmod(a, b)
    if not r.is_zero:
        raise ValueError("polynomial division was not exact")
    return q


def pmonic(a: Poly) -> Poly:
    if a.is_zero:
        return a
    return pscale(a, a.dom.inv(a.lc))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over a field domain; gcd(0, 0) = 0.  Runs on the domain's
    kernel."""
    _check(a, b)
    if not a.dom.is_field:
        raise UnsupportedDomain("polynomial gcd needs a field domain")
    K = poly_kernel(a.dom)
    return K.leave(kernel_gcd(K, K.enter(a), K.enter(b)))


def pderiv(a: Poly) -> Poly:
    dom = a.dom
    out = []
    for i, c in enumerate(a.coeffs[1:], start=1):
        k = dom.from_int(i)
        out.append(dom.mul(k, c))
    return make_poly(dom, out)


def ppow(a: Poly, n: int) -> Poly:
    """a^n by squaring, from a itself, as algebra.element_power does; a^0 is
    the constant 1."""
    if n == 0:
        return pconst(a.dom, a.dom.one)
    acc = None
    while True:
        if n & 1:
            acc = a if acc is None else pmul(acc, a)
        n >>= 1
        if not n:
            return acc
        a = pmul(a, a)


def expand_xp(a: Poly, p: int) -> Poly:
    """a(x) -> a(x^p)."""
    dom = a.dom
    out = [dom.zero] * (p * a.degree + 1) if not a.is_zero else []
    for i, c in enumerate(a.coeffs):
        out[p * i] = c
    return make_poly(dom, out)


def extract_xp(a: Poly, p: int) -> Poly:
    """Inverse of expand_xp; requires every exponent divisible by p."""
    dom = a.dom
    out = []
    for i, c in enumerate(a.coeffs):
        if i % p == 0:
            out.append(c)
        elif not dom.is_zero(c):
            raise ValueError("polynomial is not a polynomial in x^p")
    return make_poly(dom, out)


def coeff_proot(a: Poly) -> Poly | None:
    """Coefficientwise p-th root, or None if some coefficient has none."""
    dom = a.dom
    out = []
    for c in a.coeffs:
        r = dom.proot(c)
        if r is None:
            return None
        out.append(r)
    return make_poly(dom, out)


# ---------------------------------------------------------------------------
# Kernels: one form and one arithmetic per domain, and the algorithms that
# run on any of them
# ---------------------------------------------------------------------------

class PolyKernel(NamedTuple):
    """One arithmetic's polynomials in its own form.  enter(f) puts a Poly
    into the form and leave(a) takes a form back to a Poly, with the
    domain's own coefficient types; degree(a) is -1 at zero; mul, sub,
    divmod (the divisor's leading coefficient invertible, ZeroDivisionError
    at zero), monic and deriv are the Poly operations of the same names;
    zero and one are the forms of 0 and 1.  No operation changes a form it
    is given.

    Over QQ the form is (c, P): P a primitive integer coefficient
    list, low degree first, with a positive leading coefficient, and c the
    Fraction content, so that the polynomial is c*P; zero is (0, []).  Over
    F_p it is the coefficient list, ints in [0, p), with no trailing zero.
    Over every other domain it is the Poly itself, under the domain's
    calls."""

    enter: Callable
    leave: Callable
    degree: Callable
    mul: Callable
    sub: Callable
    divmod: Callable
    monic: Callable
    deriv: Callable
    zero: object
    one: object


def poly_kernel(dom: ScalarDomain) -> PolyKernel:
    """The kernel of a domain, picked once per call: integer lists with one
    rational content over QQ, int lists mod p over F_p, domain calls
    elsewhere."""
    if type(dom) is RationalField:
        return _Q_KERNEL
    if type(dom) is PrimeField:
        p = dom.p
        return PolyKernel(
            partial(_fp_enter, p=p), partial(_fp_leave, dom=dom), _list_degree, partial(_fp_mul, p=p),
            partial(_fp_sub, p=p), partial(_fp_divmod, p=p), partial(_fp_monic, p=p), partial(_fp_deriv, p=p),
            [], [1],
        )
    return domain_kernel(dom)


def domain_kernel(dom: ScalarDomain) -> PolyKernel:
    """Polys under the domain's own calls: the kernel of every domain but QQ
    and F_p, and the arm the other kernels are tested against."""
    return PolyKernel(_same, _same, attrgetter("degree"), pmul, psub, pdivmod, pmonic, pderiv,
                      pzero(dom), pconst(dom, dom.one))


def _same(a):
    return a


def kernel_gcd(K: PolyKernel, a, b):
    """The monic gcd of two forms; gcd(0, 0) = 0."""
    while K.degree(b) >= 0:
        a, b = b, K.divmod(a, b)[1]
    return K.monic(a)


def kernel_xgcd(K: PolyKernel, a, b) -> tuple:
    """(g, s, t) with s*a + t*b = g, g the monic gcd, on forms."""
    r0, r1 = a, b
    s0, s1 = K.one, K.zero
    t0, t1 = K.zero, K.one
    while K.degree(r1) >= 0:
        q, r = K.divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, K.sub(s0, K.mul(q, s1))
        t0, t1 = t1, K.sub(t0, K.mul(q, t1))
    if K.degree(r0) < 0:
        return r0, s0, t0
    g = K.monic(r0)
    inv = K.divmod(g, r0)[0]  # the constant 1/lc(r0)
    return g, K.mul(s0, inv), K.mul(t0, inv)


def _powmod(K: PolyKernel, a, n: int, mod):
    acc = K.one
    base = K.divmod(a, mod)[1]
    while n:
        if n & 1:
            acc = K.divmod(K.mul(acc, base), mod)[1]
        n >>= 1
        if n:
            base = K.divmod(K.mul(base, base), mod)[1]
    return acc


def _list_degree(a: list) -> int:
    return len(a) - 1


# Integer coefficient lists, low degree first: the one product, sum and
# division under the Q and F_p forms, Hensel lifting and recombination.

def _zmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _zaddmul(a: list, b: list, k: int) -> list:
    """a + k*b, untrimmed."""
    out = a + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += k * y
    return out


def _zdivmod(a: list, b: list) -> tuple[int, list, list]:
    """(m, q, r) with m*a = q*b + r, deg r < deg b and r trimmed, for b with
    a positive leading coefficient: fraction-free division, which scales by
    lc(b)/gcd(lc(b), c) only at a leading coefficient c that lc(b) does not
    divide, so m = 1 for a monic b."""
    db, lb = len(b) - 1, b[-1]
    rem, m = list(a), 1
    quo = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        if c % lb:
            s = lb // math.gcd(c, lb)
            rem = [x * s for x in rem[: i + 1]]
            quo = [x * s for x in quo]
            m, c = m * s, c * s
        k = c // lb
        quo[i - db] = k
        for j in range(db):
            rem[i - db + j] -= k * b[j]
    return m, quo, _trim(rem[:db])


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


# QQ: (content, primitive integer list)

_ZERO, _ONE = Fraction(0), Fraction(1)


def _q_form(c: Fraction, ints: list) -> tuple:
    """c*ints as (content, primitive part with a positive leading
    coefficient); ints is trimmed in place."""
    _trim(ints)
    if not ints:
        return _ZERO, ints
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return (c * g, [x // g for x in ints]) if g != 1 else (c, ints)


def _q_enter(f: Poly) -> tuple:
    den = math.lcm(*(c.denominator for c in f.coeffs))
    return _q_form(Fraction(1, den), [c.numerator * (den // c.denominator) for c in f.coeffs])


def _q_leave(a: tuple) -> Poly:
    c, P = a
    return Poly(QQ, tuple(c * x for x in P))


def _q_degree(a: tuple) -> int:
    return len(a[1]) - 1


def _q_mul(a: tuple, b: tuple) -> tuple:
    # Gauss's lemma: a product of primitive polynomials is primitive
    P = _zmul(a[1], b[1])
    return (a[0] * b[0], P) if P else (_ZERO, P)


def _q_sub(a: tuple, b: tuple) -> tuple:
    """a - b over the common denominator of the two contents, with the
    content of the difference divided out once."""
    (ca, A), (cb, B) = a, b
    if not B:
        return a
    if not A:
        return -cb, B
    d = math.lcm(ca.denominator, cb.denominator)
    x, y = ca.numerator * (d // ca.denominator), cb.numerator * (d // cb.denominator)
    return _q_form(Fraction(1, d), _zaddmul([x * c for c in A], B, -y))


def _q_divmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Pseudo-division of the primitive parts, the contents applied once."""
    (ca, A), (cb, B) = a, b
    if not B:
        raise ZeroDivisionError("polynomial division by zero")
    m, quo, rem = _zdivmod(A, B)
    return _q_form(ca / (m * cb), quo), _q_form(ca / m, rem)


def _q_monic(a: tuple) -> tuple:
    P = a[1]
    return (Fraction(1, P[-1]), P) if P else a


def _q_deriv(a: tuple) -> tuple:
    c, P = a
    return _q_form(c, [i * x for i, x in enumerate(P)][1:])


_Q_KERNEL = PolyKernel(_q_enter, _q_leave, _q_degree, _q_mul, _q_sub, _q_divmod, _q_monic, _q_deriv,
                       (_ZERO, []), (_ONE, [1]))


# F_p: int lists reduced mod p

def _fp_enter(f: Poly, p: int) -> list:
    return _trim([c % p for c in f.coeffs])


def _fp_leave(a: list, dom: PrimeField) -> Poly:
    return Poly(dom, tuple(a))


def _fp_mul(a: list, b: list, p: int) -> list:
    # p is prime, so the leading coefficient stays nonzero
    return [c % p for c in _zmul(a, b)]


def _fp_sub(a: list, b: list, p: int) -> list:
    return _trim([c % p for c in _zaddmul(a, b, -1)])


def _fp_divmod(a: list, b: list, p: int) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    rem = list(a)
    quo = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % p
        if c:
            c = c * inv % p
            quo[i - db] = c
            for j in range(db):
                rem[i - db + j] -= c * b[j]
    return quo, _trim([x % p for x in rem[:db]])


def _fp_monic(a: list, p: int) -> list:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _fp_deriv(a: list, p: int) -> list:
    return _trim([i * c % p for i, c in enumerate(a)][1:])


# ---------------------------------------------------------------------------
# Squarefree decomposition
# ---------------------------------------------------------------------------

def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Write f = lc(f) * prod g_j^j with each g_j monic, squarefree (a
    product of distinct irreducibles) and the g_j pairwise coprime.

    Over imperfect coefficient fields of characteristic p the parts coming
    from p-th powers and from genuinely inseparable irreducibles are kept as
    separate list entries, so two entries may share a multiplicity; the
    product formula still holds and entries stay pairwise coprime.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    if not f.dom.is_field:
        raise UnsupportedDomain("squarefree decomposition needs a field domain")
    parts = _sqf_monic(pmonic(f), poly_kernel(f.dom))
    parts.sort(key=lambda gm: (gm[1], gm[0].degree))
    return parts


def squarefree_by_derivation(f: Poly) -> bool:
    """True when gcd(f, D f) = 1 for one derivation D: d/dx, or a derivation
    of the coefficient field (d/dt, d/ds over F_p(t[,s])) applied to the
    coefficients.  Then f is squarefree: f = g^2 h gives
    D f = 2 g D(g) h + g^2 D(h), so g divides gcd(f, D f).  False leaves
    the question open; squarefree_decomposition settles it.  Over F_p(t)
    the inseparable x^(p^k) - t has d/dx f = 0 but d/dt f = -1."""
    if f.is_zero:
        raise ZeroPolynomial("cannot test the zero polynomial")
    dom = f.dom
    if not dom.is_field:
        raise UnsupportedDomain("squarefree test needs a field domain")
    candidates = [pderiv]
    for D in dom.derivations() if hasattr(dom, "derivations") else ():
        candidates.append(lambda g, D=D: make_poly(dom, [D(c) for c in g.coeffs]))
    for derive in candidates:
        df = derive(f)
        if not df.is_zero and (df.degree == 0 or poly_gcd(f, df).degree == 0):
            return True
    return False


def _sqf_monic(f: Poly, K: PolyKernel) -> list[tuple[Poly, int]]:
    """Yun's loop on the kernel K's forms; in characteristic p the part left
    over, a polynomial in x^p, is split on Polys."""
    dom = f.dom
    out: list[tuple[Poly, int]] = []
    if f.degree <= 0:
        return out
    p = dom.char
    a = K.enter(f)
    da = K.deriv(a)
    if K.degree(da) >= 0:
        g = kernel_gcd(K, a, da)
        w = K.divmod(a, g)[0]
        i = 1
        while K.degree(w) > 0:
            y = kernel_gcd(K, w, g)
            z = K.divmod(w, y)[0]
            if K.degree(z) > 0:
                out.append((K.leave(z), i))
            i += 1
            w = y
            g = K.divmod(g, y)[0]
        rest = K.leave(g)
    else:
        rest = f
    if rest.degree > 0:
        # char p only: rest is a polynomial in x^p
        h = extract_xp(rest, p)
        derivs = dom.derivations() if hasattr(dom, "derivations") else []
        for hj, j in _sqf_monic(h, K):
            Hj = expand_xp(hj, p)
            # split off the p-th-power part: it is the gcd of Hj with all
            # derivations of its coefficients (the x-derivative is already 0,
            # and an irreducible killed by every derivation has p-th-power
            # coefficients)
            P = Hj
            for D in derivs:
                dH = make_poly(dom, [D(c) for c in Hj.coeffs])
                P = poly_gcd(P, dH)
            A = pquo(Hj, P)
            if A.degree > 0:
                out.append((A, j))
            if P.degree > 0:
                W = coeff_proot(extract_xp(P, p))
                assert W is not None, "p-th power part must have a coefficient root"
                out.append((W, j * p))
    return out


# ---------------------------------------------------------------------------
# Factorization over F_p
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactoredPoly:
    """unit * prod f_i^{n_i} with monic pairwise-coprime irreducible f_i."""

    dom: ScalarDomain
    unit: object
    factors: tuple  # of (Poly, int)

    def expand(self) -> Poly:
        acc = pconst(self.dom, self.dom.one)
        for f, m in self.factors:
            acc = pmul(acc, ppow(f, m))
        return pscale(acc, self.unit)

    @property
    def degree(self):
        return sum(f.degree * m for f, m in self.factors)


def factor_over_prime_field(f: Poly, seed: int = 0) -> FactoredPoly:
    """Complete factorization over F_p: squarefree split, then
    distinct-degree and randomized equal-degree splitting, on the F_p
    kernel's int lists."""
    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    dom = f.dom
    if not isinstance(dom, PrimeField):
        raise UnsupportedDomain("factor_over_prime_field needs an F_p domain")
    K = poly_kernel(dom)
    rng = random.Random(seed)
    found: dict[tuple, int] = {}
    for g, m in squarefree_decomposition(f):
        for irr in _fp_factor_squarefree(K, dom.p, K.enter(g), rng):
            key = tuple(irr)
            found[key] = found.get(key, 0) + m
    order = sorted(found, key=lambda c: (len(c), c))
    return FactoredPoly(dom, f.lc, tuple((Poly(dom, c), found[c]) for c in order))


def _fp_factor_squarefree(K: PolyKernel, p: int, g: list, rng) -> list[list]:
    """The monic irreducible factors of a monic squarefree g over F_p, on
    the F_p kernel K: distinct-degree splitting, then
    _fp_equal_degree_split."""
    out: list[list] = []
    if len(g) <= 1:
        return out
    x = [0, 1]
    h = K.divmod(x, g)[1]
    d = 0
    while len(g) > 1:
        d += 1
        if 2 * d > len(g) - 1:
            out.append(g)
            break
        h = _powmod(K, h, p, g)
        w = kernel_gcd(K, g, K.sub(h, x))
        if len(w) > 1:
            out.extend(_fp_equal_degree_split(K, p, w, d, rng))
            g = K.divmod(g, w)[0]
            h = K.divmod(h, g)[1]
    return out


def _fp_equal_degree_split(K: PolyKernel, p: int, w: list, d: int, rng) -> list[list]:
    """Cantor-Zassenhaus splitting of a product of degree-d irreducibles."""
    n = len(w) - 1
    if n == d:
        return [w]
    while True:
        r = _trim([rng.randrange(p) for _ in range(n)])
        if len(r) < 2:
            continue
        t = kernel_gcd(K, w, r)
        if 0 < len(t) - 1 < n:
            break
        if p == 2:
            # additive trace over F_{2^d}; over F_2 a sum is a difference
            acc = K.divmod(r, w)[1]
            cur = acc
            for _ in range(d - 1):
                cur = _powmod(K, cur, 2, w)
                acc = K.sub(acc, cur)
            t = kernel_gcd(K, w, acc)
        else:
            s = _powmod(K, r, (p**d - 1) // 2, w)
            t = kernel_gcd(K, w, K.sub(s, K.one))
        if 0 < len(t) - 1 < n:
            break
    return _fp_equal_degree_split(K, p, t, d, rng) + _fp_equal_degree_split(K, p, K.divmod(w, t)[0], d, rng)


# ---------------------------------------------------------------------------
# Factorization over Q (Zassenhaus: mod-p factorization, Hensel lifting,
# exhaustive subset recombination, all on int lists)
# ---------------------------------------------------------------------------
DEGREE_BOUND = 24  # the largest degree factor_over_rationals takes


def factor_over_rationals(f: Poly, seed: int = 0) -> FactoredPoly:
    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.dom != QQ:
        raise UnsupportedDomain("factor_over_rationals needs the rational domain")
    if f.degree > DEGREE_BOUND:
        raise DegreeBoundExceeded(f"degree {f.degree} exceeds bound {DEGREE_BOUND}")
    unit = f.lc
    monic = pmonic(f)
    found: list[tuple[Poly, int]] = []
    for g, m in squarefree_decomposition(monic):
        for irr in _factor_monic_squarefree_q(g, seed):
            found.append((irr, m))
    found.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return FactoredPoly(QQ, unit, tuple(found))


def _factor_monic_squarefree_q(g: Poly, seed: int) -> list[Poly]:
    if g.degree == 1:
        return [g]
    # clear denominators by scaling the variable: G(y) = L^n g(y/L) is monic
    # with integer coefficients when L is the lcm of the denominators
    L = math.lcm(*(c.denominator for c in g.coeffs))
    n = g.degree
    G = [c.numerator * (L ** (n - i) // c.denominator) for i, c in enumerate(g.coeffs)]
    factors = _zassenhaus_monic_int(G, seed)
    out = []
    for h in factors:
        dh = len(h) - 1
        coeffs = [Fraction(c, L ** (dh - i)) for i, c in enumerate(h)]
        out.append(make_poly(QQ, coeffs))
    return out


def _sym(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _zassenhaus_monic_int(G: list[int], seed: int) -> list[list[int]]:
    """Factor a monic squarefree integer polynomial into monic integer
    irreducibles."""
    n = len(G) - 1
    # choose an odd prime keeping G squarefree
    p = 3
    while True:
        K = poly_kernel(PrimeField(p))
        Gp = [c % p for c in G]
        if len(kernel_gcd(K, Gp, K.deriv(Gp))) == 1:
            break
        p = _next_prime(p)
    base = sorted(_fp_factor_squarefree(K, p, Gp, random.Random(seed)), key=lambda h: (len(h), h))
    if len(base) == 1:
        return [G]
    # Mignotte-style bound on factor coefficients, then lift past 2*bound
    norm2 = math.isqrt(sum(c * c for c in G)) + 1
    bound = (1 << n) * norm2
    k = 1
    pk = p
    while pk <= 2 * bound:
        pk *= p
        k += 1
    lifted = _hensel_multilift(K, p, k, base, G)
    lifted.sort(key=lambda h: (len(h), h))
    # exhaustive subset recombination
    result = []
    current = list(G)
    remaining = lifted
    s = 1
    while 2 * s <= len(remaining):
        hit = False
        for idx in combinations(range(len(remaining)), s):
            cand = [1]
            for i in idx:
                cand = _zmul(cand, remaining[i])
            cand = [_sym(c, pk) for c in cand]
            _, quo, rem = _zdivmod(current, cand)
            if not rem:
                result.append(cand)
                current = quo
                remaining = [h for i, h in enumerate(remaining) if i not in idx]
                hit = True
                break
        if not hit:
            s += 1
    if len(current) > 1:
        result.append(current)
    result.sort(key=lambda h: (len(h), h))
    return result


def _next_prime(p: int) -> int:
    q = p + 2
    while not is_prime(q):
        q += 2
    return q


def _hensel_multilift(K: PolyKernel, p: int, k: int, factors: list[list[int]], G: list[int]) -> list[list[int]]:
    """Lift monic factors of G modulo p to factors modulo p^k via a binary
    factor tree with linear pair lifting; K is the F_p kernel."""
    if len(factors) == 1:
        pk = p**k
        return [[c % pk for c in G]]
    half = len(factors) // 2
    u = v = K.one
    for h in factors[:half]:
        u = K.mul(u, h)
    for h in factors[half:]:
        v = K.mul(v, h)
    U, V = _hensel_pair_lift(K, p, k, u, v, G)
    return _hensel_multilift(K, p, k, factors[:half], U) + _hensel_multilift(K, p, k, factors[half:], V)


def _hensel_pair_lift(K: PolyKernel, p: int, k: int, u: list, v: list, G: list) -> tuple[list, list]:
    """G == u*v mod p with u, v monic coprime mod p; returns U, V monic with
    G == U*V mod p^k, U == u and V == v mod p."""
    gcd, _, t = kernel_xgcd(K, u, v)
    assert gcd == [1]
    U, V = u, v
    mod = p
    for _ in range(k - 1):
        err = _zaddmul(G, _zmul(U, V), -1)
        assert all(c % mod == 0 for c in err)
        e = _trim([(c // mod) % p for c in err])
        # a*v + b*u == e (mod p) with deg a < deg u
        a = K.divmod(K.mul(t, e), u)[1]
        b = K.divmod(K.sub(e, K.mul(a, v)), u)[0]
        U = [c % (mod * p) for c in _zaddmul(U, a, mod)]
        V = [c % (mod * p) for c in _zaddmul(V, b, mod)]
        mod *= p
    return U, V

# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def poly_to_str(f: Poly, var: str = "x") -> str:
    if f.is_zero:
        return "0"
    dom = f.dom
    terms = []
    for i in range(f.degree, -1, -1):
        c = f.coeffs[i]
        if dom.is_zero(c):
            continue
        cs = dom.to_str(c)
        if i == 0:
            terms.append(cs)
        else:
            xs = var if i == 1 else f"{var}^{i}"
            if cs == "1":
                terms.append(xs)
            elif cs == "-1":
                terms.append(f"-{xs}")
            else:
                terms.append(f"{cs}*{xs}")
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


def factored_to_str(fp: FactoredPoly, var: str = "x") -> str:
    parts = []
    for f, m in fp.factors:
        base = f"({poly_to_str(f, var)})"
        parts.append(base if m == 1 else f"{base}^{m}")
    unit = str(fp.unit)
    body = " * ".join(parts) if parts else "1"
    return body if unit == "1" else f"{unit} * {body}"
