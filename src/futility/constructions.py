"""Builders for the standard algebra presentations: polynomial quotients,
matrix algebras, and tower extensions of a commutative algebra by a further
polynomial.  Both quotient builders read their tables from one power
table."""

from __future__ import annotations

from functools import cached_property

from .algebra import (
    StructAlgebra,
    _per_vector,
    check_dimension,
    element_multiply,
    invert_element,
    make_algebra,
)
from .domains import ScalarDomain
from .errors import ValidationError
from .linalg import unit_vec, zero_vec
from .polynomials import Poly, make_poly, pscale


def poly_quotient_algebra(modulus: Poly) -> StructAlgebra:
    """dom[x]/(modulus) on the basis 1, x, ..., x^(deg-1).

    The leading coefficient must be invertible; the quotient is unchanged
    by making the modulus monic.
    """
    dom = modulus.dom
    if modulus.is_zero or modulus.degree < 1:
        raise ValidationError("quotient modulus must have positive degree")
    check_dimension(modulus.degree)
    try:
        inv = dom.inv(modulus.lc)
    except Exception as exc:
        raise ValidationError(f"leading coefficient is not invertible: {exc}") from exc
    n = modulus.degree
    powers = _power_table(pscale(modulus, inv))
    return make_algebra(dom, [[powers[i + j] for j in range(n)] for i in range(n)], powers[0])


def _power_table(monic: Poly) -> list:
    """x^e mod monic for e = 0, ..., 2n - 2, n = deg monic: every product of
    two basis monomials of dom[x]/(monic), each formed from the one before."""
    dom, n = monic.dom, monic.degree
    powers = [unit_vec(dom, n, 0)]
    while len(powers) < 2 * n - 1:
        # multiply by x, then subtract the top coefficient times the modulus
        top, low = powers[-1][-1], (dom.zero, *powers[-1][:-1])
        if not dom.is_zero(top):
            low = tuple(dom.sub(a, dom.mul(top, c)) for a, c in zip(low, monic.coeffs))
        powers.append(low)
    return powers


def matrix_algebra(dom: ScalarDomain, size: int) -> StructAlgebra:
    """Full matrix algebra on the basis of matrix units E_ab, row-major:
    E_ab * E_cd = [b = c] E_ad, and the unit is the sum of the E_aa.  A
    negative size is refused, and the dimension is checked before any table
    entry is formed."""
    if size < 0:
        raise ValidationError(f"matrix size must not be negative, got {size}")
    n = size * size
    check_dimension(n)
    table = [[unit_vec(dom, n, a * size + d) if b == c else zero_vec(dom, n)
              for c in range(size) for d in range(size)]
             for a in range(size) for b in range(size)]
    unit = [dom.zero] * n
    for a in range(size):
        unit[a * size + a] = dom.one
    return make_algebra(dom, table, unit)


class AlgebraScalarDomain(ScalarDomain):
    """A commutative structure-constant algebra viewed as a scalar domain,
    so tower levels can reuse the polynomial machinery; inversion of a zero
    divisor surfaces NotAField with its witness."""

    is_field = False  # possibly a field, but proven only elementwise

    def __init__(self, A: StructAlgebra):
        if not A.is_commutative:
            raise ValidationError("tower levels must be commutative")
        self.A = A
        self.char = A.dom.char

    @cached_property
    def _structure(self):
        # RatFunc values do not hash, so levels are told apart by the printed
        # form of their table and unit: equal forms mean equal levels.
        return (self.A.dom, repr(self.A.table), repr(self.A.unit))

    def _key(self):
        return self._structure

    def __repr__(self):
        return f"Level({self.A!r})"

    def add(self, a, b):
        return tuple(self.A.dom.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.A.dom.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.A.dom.neg(x) for x in a)

    def mul(self, a, b):
        return element_multiply(self.A, a, b)

    def inv(self, a):
        return invert_element(self.A, a)

    def from_int(self, n):
        return tuple(self.A.dom.mul(self.A.dom.from_int(n), c) for c in self.A.unit)

    def is_zero(self, a):
        return all(self.A.dom.is_zero(x) for x in a)


def extend_by_poly(L: StructAlgebra, coeff_vectors) -> StructAlgebra:
    """L[z]/(g) for g = sum coeff_vectors[k] z^k with an invertible leading
    coefficient, on the basis b_i z^e (index e * dim L + i).

    The product of b_i z^e and b_j z^f is (b_i b_j)(z^(e+f) mod g), read off
    the power table of g over L.  Inverting a zero-divisor leading
    coefficient raises NotAField with the witness, which is how non-field
    tower levels surface.
    """
    level = AlgebraScalarDomain(L)
    g = make_poly(level, [tuple(c) for c in coeff_vectors])
    if g.degree < 1:
        raise ValidationError("tower modulus must have positive degree")
    d, m = g.degree, L.dim
    check_dimension(m * d)
    powers = _power_table(pscale(g, level.inv(g.lc)))
    # products[i][j][s]: the coordinates of (b_i b_j)(z^s mod g), formed once
    # per distinct vector b_i b_j of L's table
    products = _per_vector(
        L.table, lambda bij: [tuple(c for w in zs for c in element_multiply(L, bij, w)) for zs in powers]
    )
    table = [[products[i][j][e + f] for f in range(d) for j in range(m)] for e in range(d) for i in range(m)]
    return make_algebra(L.dom, table, (*L.unit, *zero_vec(L.dom, m * (d - 1))))
