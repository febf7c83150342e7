"""Exact scalar arithmetic for every coefficient domain the deciders use.

Domains are lightweight descriptor objects with a common method surface
(add/sub/mul/inv/...) over opaque element values:

  * RationalField     -- elements are fractions.Fraction (kept reduced)
  * PrimeField(p)     -- elements are ints in [0, p), p prime
  * ModRing(n)        -- elements are ints in [0, n), n >= 2
  * FunctionField(p, vars) -- elements are RatFunc values: quotients of
    sparse multivariate polynomials over F_p in at most two variables

Rational function values are deliberately not reduced to lowest terms;
equality is decided by cross-multiplication.  A cheap monomial-content trim
keeps sizes bounded at the scale this package works at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DomainMismatch, NotInvertible, UnsupportedDomain


def is_prime(n: int) -> bool:
    """Trial-division primality test; moduli here are desk-scale."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials over F_p.
#
# Canonical form: a sorted tuple of (exponent_tuple, coeff) pairs with
# coeff in [1, p).  The zero polynomial is the empty tuple.
# ---------------------------------------------------------------------------

def mp_canon(d: dict, p: int) -> tuple:
    return tuple(sorted((e, c % p) for e, c in d.items() if c % p))


def mp_const(c: int, p: int, nvars: int) -> tuple:
    c %= p
    return () if c == 0 else (((0,) * nvars, c),)


def mp_var(i: int, p: int, nvars: int) -> tuple:
    e = [0] * nvars
    e[i] = 1
    return ((tuple(e), 1),)


def mp_add(a: tuple, b: tuple, p: int) -> tuple:
    d = dict(a)
    for e, c in b:
        d[e] = d.get(e, 0) + c
    return mp_canon(d, p)


def mp_neg(a: tuple, p: int) -> tuple:
    return tuple((e, (-c) % p) for e, c in a)


def mp_sub(a: tuple, b: tuple, p: int) -> tuple:
    return mp_add(a, mp_neg(b, p), p)


def mp_mul(a: tuple, b: tuple, p: int) -> tuple:
    d: dict = {}
    for ea, ca in a:
        for eb, cb in b:
            e = tuple(x + y for x, y in zip(ea, eb))
            d[e] = d.get(e, 0) + ca * cb
    return mp_canon(d, p)


def mp_scale(a: tuple, c: int, p: int) -> tuple:
    c %= p
    if c == 0:
        return ()
    return mp_canon({e: c0 * c for e, c0 in a}, p)


def mp_pow(a: tuple, n: int, p: int) -> tuple:
    if n == 0:
        nvars = len(a[0][0]) if a else 0
        return mp_const(1, p, nvars)
    acc = None
    base = a
    while n:
        if n & 1:
            acc = base if acc is None else mp_mul(acc, base, p)
        n >>= 1
        if n:
            base = mp_mul(base, base, p)
    return acc


def mp_deriv(a: tuple, var: int, p: int) -> tuple:
    d: dict = {}
    for e, c in a:
        if e[var]:
            e2 = list(e)
            e2[var] -= 1
            d[tuple(e2)] = d.get(tuple(e2), 0) + c * e[var]
    return mp_canon(d, p)


def mp_pth_root(a: tuple, p: int) -> tuple | None:
    """Return r with r^p == a, or None.  Coefficients live in F_p, so only
    the exponents decide whether a root exists."""
    out = []
    for e, c in a:
        if any(x % p for x in e):
            return None
        out.append((tuple(x // p for x in e), c))
    return tuple(sorted(out))


def mp_shift_down(a: tuple, shift: tuple) -> tuple:
    return tuple(sorted((tuple(x - s for x, s in zip(e, shift)), c) for e, c in a))


def mp_min_exponents(a: tuple) -> tuple:
    mins = list(a[0][0])
    for e, _ in a[1:]:
        mins = [min(m, x) for m, x in zip(mins, e)]
    return tuple(mins)


def mp_to_str(a: tuple, names: tuple) -> str:
    if not a:
        return "0"
    terms = []
    for e, c in sorted(a, reverse=True):
        parts = [] if c == 1 and any(e) else [str(c)]
        for name, k in zip(names, e):
            if k == 1:
                parts.append(name)
            elif k > 1:
                parts.append(f"{name}^{k}")
        terms.append("*".join(parts) if parts else str(c))
    return " + ".join(terms)


@dataclass(frozen=True, eq=False)
class RatFunc:
    """Quotient of two multivariate polynomials over F_p; not reduced.

    Values are built by ratfunc (FunctionField.neg and the shortcuts in
    FunctionField.mul keep its form): num and den share no monomial factor,
    and den's top coefficient is 1."""

    p: int
    nvars: int
    num: tuple
    den: tuple

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.p != other.p or self.nvars != other.nvars:
            raise DomainMismatch("rational functions over different fields")
        if self.den == other.den:  # a nonzero common factor cancels
            return self.num == other.num
        return mp_mul(self.num, other.den, self.p) == mp_mul(other.num, self.den, self.p)

    __hash__ = None  # no canonical form, so no hash

    def __bool__(self):
        """False exactly at zero, as for ints and Fractions, so any() tells a
        zero vector of rational functions from a nonzero one."""
        return bool(self.num)

    def __repr__(self):
        names = tuple(f"v{i}" for i in range(self.nvars))
        if self.den == mp_const(1, self.p, self.nvars):
            return mp_to_str(self.num, names)
        return f"({mp_to_str(self.num, names)})/({mp_to_str(self.den, names)})"


def ratfunc(p: int, nvars: int, num: tuple, den: tuple) -> RatFunc:
    """Build a RatFunc, trimming common monomial content and normalizing the
    denominator's top coefficient to 1."""
    if not den:
        raise ZeroDivisionError("zero denominator in rational function")
    if not num:
        return RatFunc(p, nvars, (), mp_const(1, p, nvars))
    shift = tuple(min(a, b) for a, b in zip(mp_min_exponents(num), mp_min_exponents(den)))
    if any(shift):
        num = mp_shift_down(num, shift)
        den = mp_shift_down(den, shift)
    lead = den[-1][1]
    if lead != 1:
        inv = pow(lead, -1, p)
        num = mp_scale(num, inv, p)
        den = mp_scale(den, inv, p)
    return RatFunc(p, nvars, num, den)


# ---------------------------------------------------------------------------
# Domain descriptors
# ---------------------------------------------------------------------------

class ScalarDomain:
    """Common surface for exact coefficient arithmetic."""

    is_field = False
    is_finite = False
    char = 0

    # subclasses set a stable `key` used for equality/hashing of domains
    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    # arithmetic -----------------------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    # every domain's elements are immutable (ints, Fractions, frozen
    # RatFuncs, tuples), so each constant is built once per domain object
    @cached_property
    def zero(self):
        return self.from_int(0)

    @cached_property
    def one(self):
        return self.from_int(1)

    def to_str(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        raise UnsupportedDomain(f"cannot parse scalars for {self}")


class RationalField(ScalarDomain):
    """The rationals; elements are Fraction values (reduced, positive den)."""

    is_field = True
    char = 0

    def _key(self):
        return ()

    def __repr__(self):
        return "Q"

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise NotInvertible("0 has no inverse in Q")
        return 1 / Fraction(a)

    def from_int(self, n):
        return Fraction(n)

    def is_zero(self, a):
        return a == 0

    def parse(self, text):
        return Fraction(text)


class PrimeField(ScalarDomain):
    """F_p for a prime p; elements are ints in [0, p)."""

    is_field = True
    is_finite = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p

    def _key(self):
        return self.p

    def __repr__(self):
        return f"F{self.p}"

    @property
    def size(self):
        return self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise NotInvertible(f"0 has no inverse in F{self.p}")
        return pow(a, -1, self.p)

    def from_int(self, n):
        return n % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def proot(self, a):
        """p-th root; Frobenius is the identity on F_p."""
        return a

    def parse(self, text):
        return int(text) % self.p


class ModRing(ScalarDomain):
    """Z/n for n >= 2; a ring, with unit-only inversion."""

    is_finite = True

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("modulus must be >= 2")
        self.n = n

    def _key(self):
        return self.n

    def __repr__(self):
        return f"Z/{self.n}"

    @property
    def size(self):
        return self.n

    def add(self, a, b):
        return (a + b) % self.n

    def sub(self, a, b):
        return (a - b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def inv(self, a):
        g = math.gcd(a % self.n, self.n)
        if g != 1:
            raise NotInvertible(f"{a} shares factor {g} with {self.n}", witness=g)
        return pow(a, -1, self.n)

    def from_int(self, n):
        return n % self.n

    def is_zero(self, a):
        return a % self.n == 0

    def parse(self, text):
        return int(text) % self.n


class FunctionField(ScalarDomain):
    """F_p(t) or F_p(s, t): rational functions over F_p in <= 2 variables."""

    is_field = True

    def __init__(self, p: int, var_names=("t",)):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not 1 <= len(var_names) <= 2:
            raise ValueError("function fields here carry one or two variables")
        self.p = p
        self.char = p
        self.var_names = tuple(var_names)
        self.nvars = len(var_names)
        self._one = mp_const(1, p, self.nvars)

    def _key(self):
        return (self.p, self.var_names)

    def __repr__(self):
        return f"F{self.p}({','.join(self.var_names)})"

    def _wrap(self, num, den=None):
        return ratfunc(self.p, self.nvars, num, self._one if den is None else den)

    def variable(self, name: str):
        i = self.var_names.index(name)
        return self._wrap(mp_var(i, self.p, self.nvars))

    def add(self, a: RatFunc, b: RatFunc):
        # Over denominator 1 the full formula's num*1 + num*1 over 1*1 is
        # the sum of the numerators over 1.  Other equal denominators keep
        # the full formula: ratfunc takes no gcd, so a/d + b/d and
        # (a*d + b*d)/(d*d) can differ as tuples.
        if a.den == self._one and b.den == self._one:
            return self._wrap(mp_add(a.num, b.num, self.p))
        num = mp_add(mp_mul(a.num, b.den, self.p), mp_mul(b.num, a.den, self.p), self.p)
        return self._wrap(num, mp_mul(a.den, b.den, self.p))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        # With a zero factor, or a canonical constant c = ((0, ..), c)/1 as a
        # factor (c = 1 included), the full product's ratfunc has nothing to
        # trim or normalize: the other factor came out of ratfunc, and
        # scaling its numerator by c keeps its monomials.  So the shortcut
        # gives the same RatFunc, num and den tuples included.
        one, p = self._one, self.p
        if not a.num or not b.num:
            return RatFunc(p, self.nvars, (), one)
        if b.den == one and len(b.num) == 1 and b.num[0][0] == one[0][0]:
            other, c = a, b.num[0][1]
        elif a.den == one and len(a.num) == 1 and a.num[0][0] == one[0][0]:
            other, c = b, a.num[0][1]
        else:
            return self._wrap(mp_mul(a.num, b.num, p), mp_mul(a.den, b.den, p))
        num = other.num if c == 1 else mp_scale(other.num, c, p)
        return RatFunc(p, self.nvars, num, other.den)

    def neg(self, a):
        return RatFunc(self.p, self.nvars, mp_neg(a.num, self.p), a.den)

    def inv(self, a):
        if not a.num:
            raise NotInvertible(f"0 has no inverse in {self}")
        return self._wrap(a.den, a.num)

    def from_int(self, n):
        return self._wrap(mp_const(n, self.p, self.nvars))

    def is_zero(self, a):
        return not a.num

    def derivations(self):
        """Partial derivatives with respect to each field variable, as maps
        on RatFunc values; used by squarefree decomposition in char p."""

        def make(i):
            def d(a: RatFunc):
                # (u/v)' = (u'v - uv') / v^2
                un = mp_sub(
                    mp_mul(mp_deriv(a.num, i, self.p), a.den, self.p),
                    mp_mul(a.num, mp_deriv(a.den, i, self.p), self.p),
                    self.p,
                )
                return self._wrap(un, mp_mul(a.den, a.den, self.p))

            return d

        return [make(i) for i in range(self.nvars)]

    def proot(self, a: RatFunc):
        """p-th root of a rational function, or None.

        a = u/v = u v^(p-1) / v^p, so a root exists iff u v^(p-1) is a p-th
        power in the polynomial ring."""
        if not a.num:
            return self.zero
        w = mp_mul(a.num, mp_pow(a.den, self.p - 1, self.p), self.p)
        r = mp_pth_root(w, self.p)
        if r is None:
            return None
        return self._wrap(r, a.den)

    def to_str(self, a: RatFunc) -> str:
        one = mp_const(1, self.p, self.nvars)
        if a.den == one:
            return mp_to_str(a.num, self.var_names)
        return f"({mp_to_str(a.num, self.var_names)})/({mp_to_str(a.den, self.var_names)})"


QQ = RationalField()
