"""Factorization over F_p and Q as it ran before polynomials picked one
kernel per arithmetic: Cantor-Zassenhaus on F_p Polys through domain calls,
and Zassenhaus with its own integer helpers, its mod-p factors taken from
that F_p factorization and its Hensel steps on F_p Polys.  Oracles for
polynomials.factor_over_prime_field and polynomials.factor_over_rationals,
whose arithmetic runs on the kernels' int lists.  Its gcd and squarefree
decomposition run on the domain-call kernel (polynomials.domain_kernel), and
pmod and ppowmod, which no code in src/ calls any more, are kept here, and
so are pmul_over_every_coefficient and ppow_from_one, the product and power
as they ran before pmul skipped the zero coefficients of its second factor
and ppow started from its base."""

import math
import random
from fractions import Fraction
from itertools import combinations

from futility.domains import QQ, PrimeField, is_prime
from futility.polynomials import (
    FactoredPoly,
    Poly,
    _sqf_monic,
    domain_kernel,
    kernel_gcd,
    kernel_xgcd,
    make_poly,
    padd,
    pconst,
    pderiv,
    pdivmod,
    pmonic,
    pmul,
    pquo,
    psub,
    pX,
)


def squarefree_decomposition(f: Poly) -> list:
    """polynomials.squarefree_decomposition on the domain-call kernel."""
    parts = _sqf_monic(pmonic(f), domain_kernel(f.dom))
    parts.sort(key=lambda gm: (gm[1], gm[0].degree))
    return parts


def poly_gcd(a: Poly, b: Poly) -> Poly:
    return kernel_gcd(domain_kernel(a.dom), a, b)


def pmod(a: Poly, b: Poly) -> Poly:
    return pdivmod(a, b)[1]


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


def pmul_over_every_coefficient(a: Poly, b: Poly) -> Poly:
    """The product, skipping only the zero coefficients of a."""
    dom = a.dom
    if a.is_zero or b.is_zero:
        return make_poly(dom, [])
    out = [dom.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if dom.is_zero(ca):
            continue
        for j, cb in enumerate(b.coeffs):
            out[i + j] = dom.add(out[i + j], dom.mul(ca, cb))
    return make_poly(dom, out)


def ppow_from_one(a: Poly, n: int) -> Poly:
    """a^n by squaring, the accumulator starting at the constant 1."""
    acc = pconst(a.dom, a.dom.one)
    base = a
    while n:
        if n & 1:
            acc = pmul_over_every_coefficient(acc, base)
        n >>= 1
        if n:
            base = pmul_over_every_coefficient(base, base)
    return acc


def factor_over_prime_field(f: Poly, seed: int = 0) -> FactoredPoly:
    """Squarefree split, then distinct-degree and randomized equal-degree
    splitting, all on Polys over F_p."""
    dom = f.dom
    rng = random.Random(seed)
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
    return FactoredPoly(dom, f.lc, tuple((q, found[q.coeffs]) for q in order))


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


def factor_over_rationals(f: Poly, seed: int = 0) -> FactoredPoly:
    """Zassenhaus on each part of the squarefree decomposition of f/lc(f)."""
    found = []
    for g, m in squarefree_decomposition(pmonic(f)):
        for irr in _factor_monic_squarefree_q(g, seed):
            found.append((irr, m))
    found.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return FactoredPoly(QQ, f.lc, tuple(found))


def _factor_monic_squarefree_q(g: Poly, seed: int) -> list[Poly]:
    if g.degree == 1:
        return [g]
    L = 1
    for c in g.coeffs:
        L = L * c.denominator // math.gcd(L, c.denominator)
    n = g.degree
    G = [int(c * Fraction(L) ** (n - i)) for i, c in enumerate(g.coeffs)]
    out = []
    for h in _zassenhaus_monic_int(G, seed):
        dh = len(h) - 1
        out.append(make_poly(QQ, [Fraction(c, L ** (dh - i)) for i, c in enumerate(h)]))
    return out


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_divmod_monic(a, b):
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
        quo[i - db] = c
        for j, bc in enumerate(b):
            rem[i - db + j] -= c * bc
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def _int_addmul(base, delta, scale, mod):
    out = list(base)
    for i, c in enumerate(delta):
        if i >= len(out):
            out.extend([0] * (i - len(out) + 1))
        out[i] = (out[i] + scale * int(c)) % mod
    return out


def _sym(c, m):
    c %= m
    return c - m if c > m // 2 else c


def _zassenhaus_monic_int(G, seed):
    n = len(G) - 1
    p = 3
    while True:
        dom = PrimeField(p)
        Gp = make_poly(dom, [c % p for c in G])
        if Gp.degree == n and poly_gcd(Gp, pderiv(Gp)).degree == 0:
            break
        p += 2
        while not is_prime(p):
            p += 2
    modular = factor_over_prime_field(Gp, seed)
    if len(modular.factors) == 1:
        return [G]
    base = [list(q.coeffs) for q, _ in modular.factors]
    norm2 = math.isqrt(sum(c * c for c in G)) + 1
    bound = (1 << n) * norm2
    k, pk = 1, p
    while pk <= 2 * bound:
        pk *= p
        k += 1
    lifted = _hensel_multilift(p, k, base, G)
    lifted.sort(key=lambda h: (len(h), tuple(h)))
    result, current, remaining, s = [], list(G), lifted, 1
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


def _hensel_multilift(p, k, factors, G):
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
    dom = PrimeField(p)
    pu = make_poly(dom, u)
    pv = make_poly(dom, v)
    gcd, s, t = kernel_xgcd(domain_kernel(dom), pu, pv)
    assert gcd.degree == 0
    U = [c % p for c in u]
    V = [c % p for c in v]
    mod = p
    for _ in range(k - 1):
        prod = _int_mul(U, V)
        err = [a - b for a, b in zip(G + [0] * max(0, len(prod) - len(G)), prod + [0] * max(0, len(G) - len(prod)))]
        assert all(c % mod == 0 for c in err)
        e = make_poly(dom, [(c // mod) % p for c in err])
        a = pmod(pmul(t, e), pu)
        b = pquo(psub(e, pmul(a, pv)), pu)
        mod *= p
        U = _int_addmul(U, a.coeffs, mod // p, mod)
        V = _int_addmul(V, b.coeffs, mod // p, mod)
    return U, V
