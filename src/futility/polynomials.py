"""Dense univariate polynomial arithmetic over the scalar domains, plus
squarefree decomposition and full factorization over F_p and Q.

Polynomials are coefficient tuples, low degree first, with a trimmed
leading coefficient.  "Squarefree" here means "product of distinct
irreducible factors over the coefficient field": a polynomial like
x^p - t over F_p(t) is squarefree in this sense even though its
derivative vanishes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .domains import QQ, PrimeField, ScalarDomain, is_prime
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
    _check(a, b)
    dom = a.dom
    if a.is_zero or b.is_zero:
        return pzero(dom)
    out = [dom.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if dom.is_zero(ca):
            continue
        for j, cb in enumerate(b.coeffs):
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


def pmod(a: Poly, b: Poly) -> Poly:
    return pdivmod(a, b)[1]


def pmonic(a: Poly) -> Poly:
    if a.is_zero:
        return a
    return pscale(a, a.dom.inv(a.lc))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over a field domain; gcd(0, 0) = 0."""
    _check(a, b)
    if not a.dom.is_field:
        raise UnsupportedDomain("polynomial gcd needs a field domain")
    while not b.is_zero:
        a, b = b, pmod(a, b)
    return pmonic(a)


def pxgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, s, t) with s*a + t*b = g, g the monic gcd."""
    dom = a.dom
    r0, r1 = a, b
    s0, s1 = pconst(dom, dom.one), pzero(dom)
    t0, t1 = pzero(dom), pconst(dom, dom.one)
    while not r1.is_zero:
        q, r = pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, psub(s0, pmul(q, s1))
        t0, t1 = t1, psub(t0, pmul(q, t1))
    if r0.is_zero:
        return r0, s0, t0
    inv = dom.inv(r0.lc)
    return pscale(r0, inv), pscale(s0, inv), pscale(t0, inv)


def pderiv(a: Poly) -> Poly:
    dom = a.dom
    out = []
    for i, c in enumerate(a.coeffs[1:], start=1):
        k = dom.from_int(i)
        out.append(dom.mul(k, c))
    return make_poly(dom, out)


def ppow(a: Poly, n: int) -> Poly:
    acc = pconst(a.dom, a.dom.one)
    base = a
    while n:
        if n & 1:
            acc = pmul(acc, base)
        n >>= 1
        if n:
            base = pmul(base, base)
    return acc


def ppowmod(a: Poly, n: int, mod: Poly) -> Poly:
    acc = pconst(a.dom, a.dom.one)
    base = pmod(a, mod)
    while n:
        if n & 1:
            acc = pmod(pmul(acc, base), mod)
        n >>= 1
        if n:
            base = pmod(pmul(base, base), mod)
    return acc


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
    parts = _sqf_monic(pmonic(f))
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


def _sqf_monic(f: Poly) -> list[tuple[Poly, int]]:
    dom = f.dom
    out: list[tuple[Poly, int]] = []
    if f.degree <= 0:
        return out
    p = dom.char
    fp = pderiv(f)
    if not fp.is_zero:
        g = poly_gcd(f, fp)
        w = pquo(f, g)
        i = 1
        while w.degree > 0:
            y = poly_gcd(w, g)
            z = pquo(w, y)
            if z.degree > 0:
                out.append((z, i))
            i += 1
            w = y
            g = pquo(g, y)
        rest = g
    else:
        rest = f
    if rest.degree > 0:
        # char p only: rest is a polynomial in x^p
        h = extract_xp(rest, p)
        derivs = dom.derivations() if hasattr(dom, "derivations") else []
        for hj, j in _sqf_monic(h):
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
    distinct-degree and randomized equal-degree splitting."""
    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    dom = f.dom
    if not isinstance(dom, PrimeField):
        raise UnsupportedDomain("factor_over_prime_field needs an F_p domain")
    rng = random.Random(seed)
    unit = f.lc
    found: dict[tuple, int] = {}
    order: list[Poly] = []
    for g, m in squarefree_decomposition(f):
        for irr in _factor_squarefree_fp(g, rng):
            key = irr.coeffs
            if key not in found:
                found[key] = 0
                order.append(irr)
            found[key] += m
    order.sort(key=lambda q: (q.degree, q.coeffs))
    return FactoredPoly(dom, unit, tuple((q, found[q.coeffs]) for q in order))


def _factor_squarefree_fp(g: Poly, rng) -> list[Poly]:
    dom = g.dom
    p = dom.p
    out: list[Poly] = []
    if g.degree == 0:
        return out
    h = pmod(pX(dom), g)
    gg = g
    d = 0
    while gg.degree > 0:
        d += 1
        if 2 * d > gg.degree:
            out.append(gg)
            break
        h = ppowmod(h, p, gg)
        w = poly_gcd(gg, psub(h, pX(dom)))
        if w.degree > 0:
            out.extend(_equal_degree_split(w, d, rng))
            gg = pquo(gg, w)
            h = pmod(h, gg)
    return out


def _equal_degree_split(w: Poly, d: int, rng) -> list[Poly]:
    """Cantor-Zassenhaus splitting of a product of degree-d irreducibles."""
    dom = w.dom
    p = dom.p
    if w.degree == d:
        return [w]
    while True:
        r = make_poly(dom, [rng.randrange(p) for _ in range(w.degree)])
        if r.degree < 1:
            continue
        t = poly_gcd(w, r)
        if 0 < t.degree < w.degree:
            break
        if p == 2:
            # additive trace over F_{2^d}
            acc = pmod(r, w)
            cur = acc
            for _ in range(d - 1):
                cur = ppowmod(cur, 2, w)
                acc = padd(acc, cur)
            t = poly_gcd(w, acc)
        else:
            s = ppowmod(r, (p**d - 1) // 2, w)
            t = poly_gcd(w, psub(s, pconst(dom, dom.one)))
        if 0 < t.degree < w.degree:
            break
    return _equal_degree_split(t, d, rng) + _equal_degree_split(pquo(w, t), d, rng)


# ---------------------------------------------------------------------------
# Factorization over Q (Zassenhaus: mod-p factorization, Hensel lifting,
# exhaustive subset recombination)
# ---------------------------------------------------------------------------

def factor_over_rationals(f: Poly, seed: int = 0, degree_bound: int = 24) -> FactoredPoly:
    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.dom != QQ:
        raise UnsupportedDomain("factor_over_rationals needs the rational domain")
    if f.degree > degree_bound:
        raise DegreeBoundExceeded(f"degree {f.degree} exceeds bound {degree_bound}")
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
    L = 1
    for c in g.coeffs:
        L = L * c.denominator // math.gcd(L, c.denominator)
    n = g.degree
    G = [int(c * Fraction(L) ** (n - i)) for i, c in enumerate(g.coeffs)]
    factors = _zassenhaus_monic_int(G, seed)
    out = []
    for h in factors:
        dh = len(h) - 1
        coeffs = [Fraction(c, L ** (dh - i)) for i, c in enumerate(h)]
        out.append(make_poly(QQ, coeffs))
    return out


def _int_to_fp(h: list[int], dom: PrimeField) -> Poly:
    return make_poly(dom, [c % dom.p for c in h])


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_divmod_monic(a: list[int], b: list[int]) -> tuple[list[int], list[int]] | None:
    """Exact integer division by a monic divisor; None if any step fails."""
    rem = list(a)
    db = len(b) - 1
    if db < 0 or b[-1] != 1:
        return None
    quo = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        if i - db < 0:
            return None
        quo[i - db] = c
        for j, bc in enumerate(b):
            rem[i - db + j] -= c * bc
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


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
        dom = PrimeField(p)
        Gp = _int_to_fp(G, dom)
        if Gp.degree == n and poly_gcd(Gp, pderiv(Gp)).degree == 0:
            break
        p = _next_prime(p)
    modular = factor_over_prime_field(Gp, seed)
    if len(modular.factors) == 1:
        return [G]
    base = [list(q.coeffs) for q, _ in modular.factors]
    # Mignotte-style bound on factor coefficients, then lift past 2*bound
    norm2 = math.isqrt(sum(c * c for c in G)) + 1
    bound = (1 << n) * norm2
    k = 1
    pk = p
    while pk <= 2 * bound:
        pk *= p
        k += 1
    lifted = _hensel_multilift(p, k, base, G)
    lifted.sort(key=lambda h: (len(h), tuple(h)))
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
                cand = _int_mul(cand, remaining[i])
            cand = [_sym(c, pk) for c in cand]
            dv = _int_divmod_monic(current, cand)
            if dv is not None and not dv[1]:
                result.append(cand)
                current = dv[0]
                remaining = [h for i, h in enumerate(remaining) if i not in idx]
                hit = True
                break
        if not hit:
            s += 1
    if len(current) > 1:
        result.append(current)
    result.sort(key=lambda h: (len(h), tuple(h)))
    return result


def _next_prime(p: int) -> int:
    q = p + 2
    while not is_prime(q):
        q += 2
    return q


def _hensel_multilift(p: int, k: int, factors: list[list[int]], G: list[int]) -> list[list[int]]:
    """Lift monic factors of G modulo p to factors modulo p^k via a binary
    factor tree with linear pair lifting."""
    if len(factors) == 1:
        pk = p**k
        return [[c % pk for c in G]]
    half = len(factors) // 2
    u = [1]
    for h in factors[:half]:
        u = _int_mul(u, h)
    v = [1]
    for h in factors[half:]:
        v = _int_mul(v, h)
    U, V = _hensel_pair_lift(p, k, [c % p for c in u], [c % p for c in v], G)
    return _hensel_multilift(p, k, factors[:half], U) + _hensel_multilift(p, k, factors[half:], V)


def _hensel_pair_lift(p, k, u, v, G):
    """G == u*v mod p with u, v monic coprime mod p; returns U, V monic with
    G == U*V mod p^k, U == u and V == v mod p."""
    dom = PrimeField(p)
    pu = make_poly(dom, u)
    pv = make_poly(dom, v)
    gcd, s, t = pxgcd(pu, pv)
    assert gcd.degree == 0
    U = [c % p for c in u]
    V = [c % p for c in v]
    mod = p
    for _ in range(k - 1):
        prod = _int_mul(U, V)
        err = [a - b for a, b in zip(G + [0] * max(0, len(prod) - len(G)), prod + [0] * max(0, len(G) - len(prod)))]
        assert all(c % mod == 0 for c in err)
        e = make_poly(dom, [(c // mod) % p for c in err])
        # a*v + b*u == e (mod p) with deg a < deg u
        a = pmod(pmul(t, e), pu)
        b = pquo(psub(e, pmul(a, pv)), pu)
        mod *= p
        U = _int_addmul(U, a.coeffs, mod // p, mod)
        V = _int_addmul(V, b.coeffs, mod // p, mod)
    return U, V


def _int_addmul(base: list[int], delta, scale: int, mod: int) -> list[int]:
    out = list(base)
    for i, c in enumerate(delta):
        if i >= len(out):
            out.extend([0] * (i - len(out) + 1))
        out[i] = (out[i] + scale * int(c)) % mod
    return out


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
