"""Exact linear algebra over a ScalarDomain field.

Vectors are tuples of domain elements and matrices are tuples of row
tuples.  Subspaces are stored as reduced row echelon bases, which makes
the representation canonical: two subspaces are equal iff their row
matrices are equal.

This is the package's one elimination layer over fields.  Every echelon
form (rows, pivots) grows one way: reduce clears a vector's pivot
coordinates, grow puts a nonzero residual in as a new pivot row, and finish
makes the form canonical once, at the end.  There is one such pair per
arithmetic: over QQ int_reduce, int_insert (older rows left as they are) and
int_finish (one back-substitution: fraction-free forward elimination as in
Bareiss, Math. Comp. 22, 1968); over F_2 bit_reduce/bit_adjoin on rows
packed into the bits of one int (bit j is coordinate j, so a row's pivot is
its lowest set bit, and elimination is XOR); over every other F_p
fp_reduce/fp_adjoin on ints; elsewhere reduce/adjoin through the domain's
calls.  Off QQ grow keeps the form reduced and finish returns it as it is.
echelon_pair, the one place that picks a subspace's arithmetic, gives a
domain's pair; a Subspace keeps its form in it and tests containment there.
rref folds its rows through the pair; solve, nullspace and
subspace_from_vectors run on that fold, and combine forms linear
combinations.
Integer lattice normal forms and the determinant reference live in intmat.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from typing import NamedTuple

from .domains import PrimeField, RationalField, ScalarDomain
from .errors import DimensionMismatch


def vec_add(dom, u, v):
    return tuple(dom.add(a, b) for a, b in zip(u, v))

def vec_scale(dom, c, u):
    return tuple(dom.mul(c, a) for a in u)

def vec_is_zero(dom, u):
    return all(dom.is_zero(a) for a in u)

def zero_vec(dom, n):
    return (dom.zero,) * n

def unit_vec(dom, n, i):
    return tuple(dom.one if j == i else dom.zero for j in range(n))


def primitive(vec) -> tuple:
    """The primitive integer vector on the line of a rational vector:
    denominators cleared, content 1, first nonzero entry positive.  Entries
    may be ints or Fractions; the zero vector maps to zeros."""
    den = math.lcm(*[x.denominator for x in vec])
    if den == 1:
        ints = [x.numerator for x in vec]
    else:
        ints = [x.numerator * (den // x.denominator) for x in vec]
    return _int_primitive(ints)


def _int_primitive(ints) -> tuple:
    """primitive() of a vector of ints."""
    g = math.gcd(*ints)
    if g == 0:
        return tuple(ints)
    for x in ints:
        if x:
            if x < 0:
                g = -g
            break
    return tuple(ints) if g == 1 else tuple(x // g for x in ints)


class EchelonPair(NamedTuple):
    """One arithmetic's elimination pair and its way in and out.
    enter(vec) puts a vector over the domain into the pair's arithmetic;
    reduce(rows, pivots, vec, aux) gives vec's residual against an echelon
    form (rows, pivots), and nonzero(residual) tells one that leaves the
    span; grow(rows, pivots, residual, aux) puts a nonzero residual in
    (grow((), (), r, aux) scales r to the canonical vector of its line);
    finish(rows, pivots, aux) makes a grown form canonical; and
    leave(rows, pivots, n) gives a finished form's reduced echelon rows over
    the domain, of length n."""

    enter: Callable
    reduce: Callable
    grow: Callable
    finish: Callable
    aux: object
    leave: Callable
    nonzero: Callable


def echelon_pair(dom: ScalarDomain) -> EchelonPair:
    """The elimination pair of a field.  Over QQ the form is the integer
    echelon form, entered through primitive; over F_2 it is the reduced
    echelon form with each row packed into one int; over every other F_p and
    every other field it is the reduced echelon form itself.  The elements
    of every field here (ints, Fractions, RatFuncs) are false exactly at
    zero, so a tuple residual is zero iff any() of it is false."""
    if type(dom) is RationalField:
        return _RATIONAL_PAIR
    if type(dom) is PrimeField:
        return _BIT_PAIR if dom.p == 2 else _fp_pair(dom.p)
    return EchelonPair(tuple, reduce, adjoin, _finished, dom, _rows, any)


@cache
def _fp_pair(p: int) -> EchelonPair:
    return EchelonPair(tuple, fp_reduce, fp_adjoin, _finished, p, _rows, any)


def _rows(rows, pivots, n) -> tuple:
    return rows


def _finished(rows, pivots, aux=None) -> tuple[tuple, tuple]:
    """finish of a pair whose grow keeps the form reduced."""
    return rows, pivots


def _fold(pair: EchelonPair, vecs) -> tuple[tuple, tuple]:
    """The finished form of the span of vecs: each vector entered, reduced
    and grown in, and the form finished once."""
    enter, reduce, grow, finish, aux, _, nonzero = pair
    rows, pivots = (), ()
    for v in vecs:
        r = reduce(rows, pivots, enter(v), aux)
        if nonzero(r):
            rows, pivots = grow(rows, pivots, r, aux)
    return finish(rows, pivots, aux)


def rref(dom: ScalarDomain, rows) -> tuple[tuple, tuple]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    The rows are folded one at a time into the empty span through the
    domain's echelon_pair, and the form is finished once.  The reduced
    echelon form is unique, so the order of the rows and the pair that folds
    them do not change the result."""
    pair = echelon_pair(dom)
    rows = list(rows)
    out, pivots = _fold(pair, rows)
    return pair.leave(out, pivots, len(rows[0]) if rows else 0), pivots


_ZERO = Fraction(0)


def _eliminate(v, f, row, p) -> list:
    """(p/g)*v - (f/g)*row with g = gcd(p, f): the integer vector v with its
    entry f cleared against the entry p of row in the same column."""
    g = math.gcd(p, f)
    a, b = p // g, f // g
    return [a * x - b * y for x, y in zip(v, row)]


def _rational_rows(rows, pivots, n) -> tuple:
    """Integer echelon rows divided by their pivots: the reduced rows over QQ."""
    return tuple(
        tuple(Fraction(x, row[c]) if x else _ZERO for x in row)
        for row, c in zip(rows, pivots)
    )


# The generic pair, through the domain's calls: any field whose elements
# have no faster arithmetic here (F_p(t), F_p(s, t), the tower levels).

def reduce(rows, pivots, vec, dom: ScalarDomain) -> tuple:
    """The residual of vec after eliminating the pivot coordinates of the
    reduced echelon form (rows, pivots)."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        c = v[p]
        if not dom.is_zero(c):
            for j, y in enumerate(row):
                if not dom.is_zero(y):
                    v[j] = dom.sub(v[j], dom.mul(c, y))
    return tuple(v)


def adjoin(rows, pivots, residual, dom: ScalarDomain) -> tuple[tuple, tuple]:
    """The reduced echelon form of the span of (rows, pivots) and a nonzero
    residual of reduce: the residual, scaled to a leading 1, becomes a new
    pivot row and is cleared from the rows that have an entry in its pivot
    column."""
    lead = next(j for j, x in enumerate(residual) if not dom.is_zero(x))
    inv = dom.inv(residual[lead])
    new = tuple(dom.mul(inv, x) for x in residual)
    out = []
    for row in rows:
        c = row[lead]
        if not dom.is_zero(c):
            row = tuple(dom.sub(x, dom.mul(c, y)) for x, y in zip(row, new))
        out.append(row)
    at = bisect.bisect(pivots, lead)
    out.insert(at, new)
    return tuple(out), pivots[:at] + (lead,) + pivots[at:]


# Integer echelon form.  A subspace of Q^n is held as (rows, pivots): its
# reduced echelon rows, each scaled to a primitive integer vector with a
# positive pivot.  The reduced echelon form is unique, so this form is
# canonical too, and rows can serve as a hashable key.  int_reduce,
# int_insert and int_finish are the fraction-free pair on it.

def int_reduce(rows, pivots, vec, aux=None) -> tuple:
    """The residual of reduce over QQ, made primitive, for the subspace with
    integer echelon form (rows, pivots) and vec an integer vector.  Each pivot
    coordinate is cleared by _eliminate against its row; the pivot is
    positive, so v stays a positive multiple of the rational residual.  aux
    is unused: it gives the pair the signature of the other two."""
    v = vec
    for row, p in zip(rows, pivots):
        c = v[p]
        if c:
            v = _eliminate(v, c, row, row[p])
    return _int_primitive(v)


def int_insert(rows, pivots, residual, aux=None) -> tuple[tuple, tuple]:
    """grow over QQ: the residual of int_reduce, which is zero at every
    pivot, is inserted at its own pivot, and the older rows are left as they
    are.  Each row is still zero before its pivot and at every pivot that
    came after it, so the form stays a row echelon form that int_reduce
    accepts: int_reduce reads the running vector's entry at each pivot in
    pivot order, and the residual it gives depends on the span alone."""
    lead = next(j for j, x in enumerate(residual) if x)
    at = bisect.bisect(pivots, lead)
    return rows[:at] + (residual,) + rows[at:], pivots[:at] + (lead,) + pivots[at:]


def int_finish(rows, pivots, aux=None) -> tuple[tuple, tuple]:
    """finish over QQ: the integer echelon form of a form grown by
    int_insert, by one back-substitution, last pivot first.  Each row is
    int_reduce'd against the rows below it, which are reduced by then, so
    its entries at their pivots are cleared and it is made primitive with a
    positive pivot, as in the integer echelon form."""
    out = list(rows)
    for i in range(len(out) - 2, -1, -1):
        out[i] = int_reduce(out[i + 1:], pivots[i + 1:], out[i])
    return tuple(out), pivots


# Prime-field kernel.  Over F_p a Subspace's rows are its reduced echelon
# rows as ints in [0, p), so they serve as they are.  fp_reduce and fp_adjoin
# are the generic reduce and adjoin without the per-entry domain calls.

def fp_reduce(rows, pivots, vec, p) -> tuple:
    """reduce over F_p for the reduced echelon form (rows, pivots), vec a
    vector of ints.  Each row is zero at the other pivots, so the entry of
    vec at a pivot is the coefficient of its row throughout, and the sum is
    reduced mod p once at the end, so vec may come unreduced."""
    v = vec
    for row, c in zip(rows, pivots):
        f = vec[c]
        if f:
            v = [x - f * y for x, y in zip(v, row)]
    return tuple([x % p for x in v])


def fp_adjoin(rows, pivots, residual, p) -> tuple[tuple, tuple]:
    """adjoin over F_p: the residual, scaled to a leading 1, becomes a new
    pivot row and is cleared from the rows that have an entry in its pivot
    column."""
    lead = next(j for j, x in enumerate(residual) if x)
    inv = pow(residual[lead], -1, p)
    new = tuple([inv * x % p for x in residual])
    out = []
    for row in rows:
        c = row[lead]
        if c:
            row = tuple([(x - c * y) % p for x, y in zip(row, new)])
        out.append(row)
    at = bisect.bisect(pivots, lead)
    out.insert(at, new)
    return tuple(out), pivots[:at] + (lead,) + pivots[at:]


# F_2 kernel, as in M4RI (Albrecht, Bard and Hart, ACM TOMS 37(1), 2010): a
# vector over F_2 is one int whose bit j is coordinate j, so a row's pivot is
# its lowest set bit and adding a row is one XOR.  aux is unused.

def bit_pack(vec) -> int:
    """The int whose bit j is coordinate j of a vector over F_2."""
    mask = 0
    for j, x in enumerate(vec):
        if x & 1:
            mask |= 1 << j
    return mask


def _bit_rows(rows, pivots, n) -> tuple:
    """Packed rows back to tuples of length n."""
    return tuple(tuple([row >> j & 1 for j in range(n)]) for row in rows)


def bit_reduce(rows, pivots, vec, aux=None) -> int:
    """reduce over F_2 on packed rows: the row of each pivot bit set in vec
    is XORed in.  Each row is zero at the other pivots, so the bits of vec
    at the pivots decide throughout."""
    v = vec
    for row, c in zip(rows, pivots):
        if vec >> c & 1:
            v ^= row
    return v


def bit_adjoin(rows, pivots, residual, aux=None) -> tuple[tuple, tuple]:
    """adjoin over F_2 on packed rows: the residual, zero at every pivot,
    becomes the row of its lowest set bit, which is cleared from the rows
    that have it set."""
    bit = residual & -residual
    lead = bit.bit_length() - 1
    out = [row ^ residual if row & bit else row for row in rows]
    at = bisect.bisect(pivots, lead)
    out.insert(at, residual)
    return tuple(out), pivots[:at] + (lead,) + pivots[at:]


_RATIONAL_PAIR = EchelonPair(primitive, int_reduce, int_insert, int_finish, None, _rational_rows, any)
_BIT_PAIR = EchelonPair(bit_pack, bit_reduce, bit_adjoin, _finished, None, _bit_rows, bool)


def solve(dom: ScalarDomain, rows, target):
    """Coefficients x with sum x_i * rows[i] = target, or None when target
    is outside the span of the rows; free coefficients are zero."""
    m = len(rows)
    aug = [[r[j] for r in rows] + [t] for j, t in enumerate(target)]
    red, pivots = rref(dom, aug)
    if m in pivots:
        return None
    sol = [dom.zero] * m
    for row, p in zip(red, pivots):
        sol[p] = row[m]
    return tuple(sol)


def combine(dom: ScalarDomain, coeffs, rows, n):
    """The length-n vector sum c_i * rows[i]; n is explicit so that an empty
    row list yields the zero vector."""
    acc = zero_vec(dom, n)
    for c, r in zip(coeffs, rows):
        acc = vec_add(dom, acc, vec_scale(dom, c, r))
    return acc


@dataclass(frozen=True)
class Subspace:
    """Canonical subspace of dom^ambient: reduced-echelon basis rows."""

    dom: ScalarDomain
    ambient: int
    rows: tuple
    pivots: tuple

    @classmethod
    def of_form(cls, dom: ScalarDomain, ambient: int, form) -> "Subspace":
        """The subspace of a finished form in echelon_pair(dom)'s
        arithmetic: the rows leave the pair once, and the form is kept."""
        rows, pivots = form
        s = cls(dom, ambient, echelon_pair(dom).leave(rows, pivots, ambient), pivots)
        s.__dict__["form"] = form
        return s

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def form(self) -> tuple[tuple, tuple]:
        """(rows entered into echelon_pair(dom), pivots): over QQ the
        integer echelon form, over F_2 the rows packed into ints."""
        return tuple(map(echelon_pair(self.dom).enter, self.rows)), self.pivots

    def reduce(self, vec):
        """Residual of vec after eliminating all pivot coordinates."""
        if len(vec) != self.ambient:
            raise DimensionMismatch("vector length != ambient dimension")
        if type(self.dom) is PrimeField:
            return fp_reduce(self.rows, self.pivots, vec, self.dom.p)
        return reduce(self.rows, self.pivots, vec, self.dom)

    def contains(self, vec) -> bool:
        """Whether vec's residual against the form is zero."""
        if len(vec) != self.ambient:
            raise DimensionMismatch("vector length != ambient dimension")
        enter, reduce, _, _, aux, _, nonzero = echelon_pair(self.dom)
        return not nonzero(reduce(*self.form, enter(vec), aux))

    def contains_subspace(self, other: "Subspace") -> bool:
        """Whether each row of other's form has a zero residual here."""
        if other.ambient != self.ambient:
            raise DimensionMismatch("subspaces of different ambient dimension")
        _, reduce, _, _, aux, _, nonzero = echelon_pair(self.dom)
        return not any(nonzero(reduce(*self.form, r, aux)) for r in other.form[0])

    def coords(self, vec):
        """Coordinates of vec in the echelon basis; vec must lie in the
        subspace (pivot entries of echelon rows are unit, rest eliminated)."""
        if not self.contains(vec):
            raise ValueError("vector not in subspace")
        return tuple(vec[p] for p in self.pivots)

    def key(self):
        """Hashable canonical form: the reduced echelon rows are unique, and
        every echelon pair leaves them as tuples."""
        return (self.ambient, self.rows)


def subspace_from_vectors(dom, ambient, vecs) -> Subspace:
    for v in vecs:
        if len(v) != ambient:
            raise DimensionMismatch("vector length != ambient dimension")
    return Subspace.of_form(dom, ambient, _fold(echelon_pair(dom), vecs))


def zero_subspace(dom, ambient) -> Subspace:
    return Subspace(dom, ambient, (), ())


def full_subspace(dom, ambient) -> Subspace:
    """The whole of dom^ambient, whose reduced-echelon basis is the identity."""
    return Subspace(dom, ambient, tuple(unit_vec(dom, ambient, i) for i in range(ambient)), tuple(range(ambient)))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise DimensionMismatch("subspace sum needs equal ambient dimension")
    return subspace_from_vectors(a.dom, a.ambient, list(a.rows) + list(b.rows))


def nullspace(dom, rows, ncols) -> list:
    """Basis of the right nullspace of the matrix given by rows."""
    red, pivots = rref(dom, rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [dom.zero] * ncols
        v[f] = dom.one
        for row, p in zip(red, pivots):
            v[p] = dom.neg(row[f])
        basis.append(tuple(v))
    return basis

