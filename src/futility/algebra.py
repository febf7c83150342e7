"""Structure-constant algebras and the linear-algebra primitives the
deciders consume: generated subalgebras, commutator ideal, nilradical,
local decomposition, quotients, products, minimal polynomials and
Frobenius spans.

A StructAlgebra is a free module of finite rank over a scalar domain with
multiplication given by a structure tensor; associativity and the unit law
are validated at construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate
from itertools import product as iproduct
from operator import mul

from .domains import (
    QQ,
    FunctionField,
    ModRing,
    PrimeField,
    RationalField,
    ScalarDomain,
    mp_add,
    mp_const,
    mp_mul,
)
from .errors import (
    BaseNotLocalArtinian,
    BudgetExceeded,
    CharacteristicZero,
    DimensionMismatch,
    DomainMismatch,
    NotAField,
    NotAnIdeal,
    SearchBudgetExceeded,
    UnsupportedDomain,
    ValidationError,
)
from .linalg import (
    Subspace,
    bit_reduce,
    combine,
    echelon_pair,
    fp_reduce,
    full_subspace,
    int_reduce,
    nullspace,
    primitive,
    solve,
    subspace_from_vectors,
    unit_vec,
    vec_is_zero,
    zero_subspace,
    zero_vec,
)
from .polynomials import FactoredPoly, Poly, factor_over_rationals, kernel_xgcd, poly_kernel


@dataclass(frozen=True)
class StructAlgebra:
    """Finite-dimensional unital associative algebra by structure constants.

    table[i][j] holds the coordinates of e_i * e_j; unit holds the
    coordinates of the two-sided identity.
    """

    dom: ScalarDomain
    dim: int
    table: tuple
    unit: tuple

    @cached_property
    def is_commutative(self) -> bool:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.table[i][j] != self.table[j][i]:
                    return False
        return True

    def basis_vector(self, i):
        return unit_vec(self.dom, self.dim, i)

    @cached_property
    def sparse(self) -> tuple:
        """The table without its zeros: sparse[i][j] holds the nonzero
        (k, c_ijk).  Products, validation and the trace form all run on it.
        Formed once per distinct table vector (_per_vector)."""
        is_zero = self.dom.is_zero
        return _per_vector(self.table, lambda v: tuple((k, c) for k, c in enumerate(v) if not is_zero(c)))

    @cached_property
    def int_den(self) -> int:
        """D, the common denominator of the table over QQ."""
        return math.lcm(*(c.denominator for block in self.sparse for v in block for _, c in v))

    @cached_property
    def int_tensor(self) -> tuple:
        """D * sparse over QQ: int_tensor[i][j] holds the nonzero
        (k, D * c_ijk) as Python ints."""
        den = self.int_den
        return _per_vector(self.sparse, lambda v: tuple((k, c.numerator * (den // c.denominator)) for k, c in v))

    @cached_property
    def bit_table(self) -> tuple:
        """Over F_2, the table packed as linalg.bit_pack packs vectors:
        bit_table[i][j] is the int whose bit k is c_ijk."""
        return tuple(tuple(sum(1 << k for k, _ in v) for v in block) for block in self.sparse)

    @cached_property
    def traces(self) -> tuple:
        """tau_k = Tr(e_k) = sum_m c_kmm, the trace of left multiplication by
        each basis vector; Tr(x) = sum_k x_k tau_k is linear in x."""
        dom = self.dom
        tau = []
        for block in self.sparse:
            acc = dom.zero
            for m, v in enumerate(block):
                for l, c in v:
                    if l == m:
                        acc = dom.add(acc, c)
            tau.append(acc)
        return tuple(tau)

    @cached_property
    def full_form(self) -> tuple[tuple, tuple]:
        """The whole algebra's echelon form in the arithmetic of its
        domain's linalg.echelon_pair: the basis vectors entered into the
        pair, pivots 0, ..., dim - 1.  A walk that reaches dim rows returns
        it, with no back-substitution."""
        enter = echelon_pair(self.dom).enter
        return tuple(enter(self.basis_vector(i)) for i in range(self.dim)), tuple(range(self.dim))

    @cached_property
    def unit_pivot(self) -> int | None:
        """The unit's leading coordinate, or None when the unit is 0 (the
        zero algebra)."""
        return next((i for i, x in enumerate(self.unit) if not self.dom.is_zero(x)), None)

    def __repr__(self):
        return f"StructAlgebra(dim={self.dim}, dom={self.dom})"


MAX_DIM = 32
GENERATOR_BUDGET = 2048  # primitive_element's trials over Q, 64 times it over F_p

_ZERO = Fraction(0)


def _per_vector(table, f) -> tuple:
    """The dim x dim table with f applied to each vector, once per distinct
    vector object: a quotient table repeats powers[i + j] along each
    antidiagonal, so it holds 2n - 1 distinct vectors, and equal entries
    made apart are simply formed apart.  The memo is keyed by id(); it lives
    only in this call, while table holds every vector it keys."""
    memo = {}

    def once(v):
        key = id(v)
        if key not in memo:
            memo[key] = f(v)
        return memo[key]

    return tuple(tuple(map(once, block)) for block in table)


def check_dimension(n: int) -> None:
    """Refuse a structure table of dimension above MAX_DIM before it is
    allocated: the table has n^3 entries and validating it costs up to n^5
    scalar products."""
    if n > MAX_DIM:
        raise BudgetExceeded(f"algebra dimension {n} exceeds the limit of {MAX_DIM}")


def make_algebra(dom: ScalarDomain, table, unit) -> StructAlgebra:
    """Build a StructAlgebra, validating the unit law on every basis vector
    and associativity on the basis triples whose middle vector lies in a
    generating set of the basis (generating_basis, Light's test: see
    first_nonassociative).  The coefficient domain is Q, F_p, Z/n or
    F_p(t[,s]); any other raises UnsupportedDomain."""
    kind = type(dom)
    if kind not in (RationalField, PrimeField, ModRing, FunctionField):
        raise UnsupportedDomain(f"structure-constant algebras over {dom} are not supported")
    n = len(table)
    check_dimension(n)
    tab = tuple(tuple(tuple(row) for row in block) for block in table)
    unit = tuple(unit)
    for block in tab:
        if len(block) != n or any(len(v) != n for v in block):
            raise ValidationError("structure tensor is not dim x dim x dim")
    if len(unit) != n:
        raise ValidationError("unit vector length differs from dimension")
    A = StructAlgebra(dom, n, tab, unit)
    # both laws are checked on one tensor: over Q on ints, the table scaled by
    # D and the unit by its own common denominator; over F_p(t[,s]) on
    # polynomials, table and unit scaled by one D; over F_p and Z/n as int
    # sums reduced once per coordinate
    unit_terms = [(l, c) for l, c in enumerate(unit) if c]
    invertible = bool  # over a field, where every entry of T is nonzero
    if kind is RationalField:
        T, combine = A.int_tensor, _int_combine
        d = math.lcm(*(c.denominator for _, c in unit_terms))
        unit_terms = [(l, c.numerator * (d // c.denominator)) for l, c in unit_terms]
        scale, zero = A.int_den * d, 0
    elif kind is FunctionField:
        entries = [c for _, c in unit_terms] + [c for block in A.sparse for v in block for _, c in v]
        D, cleared = _poly_clearing(dom, entries)
        T = _per_vector(A.sparse, lambda v: tuple((k, cleared(c)) for k, c in v))
        unit_terms = [(l, cleared(c)) for l, c in unit_terms]
        combine = partial(_poly_combine, dom.p, {})
        scale, zero = mp_mul(D, D, dom.p), ()
    else:
        m = dom.size
        T = A.sparse

        def invertible(c):
            return math.gcd(c, m) == 1

        def combine(size, terms, rows):
            return [x % m for x in _int_combine(size, terms, rows)]

        scale, zero = 1 % m, 0
    bad = _first_unit_failure(T, unit_terms, scale, zero, combine)
    if bad is not None:
        raise ValidationError(f"unit law fails at basis vector {bad}")
    bad = first_nonassociative(T, combine, generating_basis(T, unit_terms, invertible))
    if bad is not None:
        raise ValidationError(f"associativity fails at basis triple {bad}")
    return A


def generating_basis(T, unit_terms, invertible) -> list:
    """Indices S of basis vectors that generate the algebra of the sparse
    tensor T (T[i][j] the nonzero (k, c_ijk) of e_i e_j), read off T with no
    elimination; unit_terms are the nonzero (l, c) of the unit and
    invertible(c) tells the units of the coefficient ring.

    A basis vector is reached when it is a unit multiple of a product of
    generators: e_u when the unit is c*e_u, each index of S, and e_m when
    e_k e_g or e_g e_k is a single entry c*e_m with e_k reached, g in S and
    c invertible.  The basis is walked in order and each index not reached
    yet joins S, so S = [1] for a power basis 1, x, x^2, ... and S is the
    whole basis when no product is a single entry."""
    reached, gens = set(), []

    def single_entries(k, g):
        # the m for which e_k e_g or e_g e_k is c*e_m, c invertible
        return [v[0][0] for v in (T[k][g], T[g][k]) if len(v) == 1 and invertible(v[0][1])]

    def walk(queue):
        while queue:
            k = queue.pop()
            if k not in reached:
                reached.add(k)
                queue += [m for g in gens for m in single_entries(k, g)]

    if len(unit_terms) == 1 and invertible(unit_terms[0][1]):
        walk([unit_terms[0][0]])
    for g in range(len(T)):
        if g not in reached:
            gens.append(g)
            walk([g, *(m for k in reached for m in single_entries(k, g))])
    return gens


def first_nonassociative(T, combine, middle) -> tuple | None:
    """The first basis triple (i, j, k), in lexicographic order, where
    (e_i e_j) e_k differs from e_i (e_j e_k), or None.  Only the triples
    whose middle index j lies in middle are scanned: middle indexes a set of
    basis vectors that generates the algebra (generating_basis), and the
    unit law has been checked.

    That scan proves associativity (Light's test): the nucleus
    N = {a : (x a) y = x (a y) for all x, y} is a submodule holding 1, and
    it is closed under products, since for a, b in N
    (x (a b)) y = ((x a) b) y = (x a) (b y) = x (a (b y)) = x ((a b) y).
    Trilinearity makes "(e_i e_j) e_k = e_i (e_j e_k) for all i, k" say
    e_j in N, so a scan that passes puts a generating set in the
    subalgebra N, and N is the whole algebra.  A reached e_m is a unit
    multiple of a product of such e_j, so it lies in N without a scan of
    its own.  When the scan fails, the scan over every middle index runs
    and reports the first failing triple of all, so the triple and the
    message do not depend on middle.

    For each (i, j) both sides are formed for every k at once, as n*n
    coordinates with coordinate m of the k-th product at k*n + m: the left
    side sums c*T_lk over (l, c) in T_ij, the right side sums c*T_il over
    (l, c) in T_jk.  combine(size, terms, rows) forms such a sum: rows[l]
    shifted by off and scaled by c, over the (off, l, c) in terms.  Two sides
    are compared block by block as combine returns them, so a combine that
    writes each block in a canonical form compares them modulo that form.

    When T equals its transpose (T_ij = T_ji), only the k >= i are formed;
    the blocks of the k < i are zero on both sides.  For such T the left
    side of (k, j, i) is the right side of (i, j, k) as a raw sum, and the
    other way round, so (k, j, i) fails exactly when (i, j, k) does: the
    first failure has i <= k, and the half scan finds the same triple from
    about half the work."""
    n = len(T)
    symmetric = all(T[i][j] == T[j][i] for i in range(n) for j in range(i))
    size = n * n
    blocks = [[(k * n + m, t) for k in range(n) for m, t in T[l][k]] for l in range(n)]
    right_terms = [[(k * n, l, c) for k in range(n) for l, c in T[j][k]] for j in range(n)]
    # cuts[l][i]: where the entries of the k >= i start, in blocks[l] and
    # in right_terms[l] alike
    cuts = [list(accumulate((len(v) for v in T[l]), initial=0)) for l in range(n)]

    def scan(middle):
        rows, rights = blocks, right_terms
        for i in range(n):
            Ti = T[i]
            if symmetric and i:
                rows = [b[c[i]:] for b, c in zip(blocks, cuts)]
                rights = [t[c[i]:] for t, c in zip(right_terms, cuts)]
            for j in middle:
                left = combine(size, [(0, l, c) for l, c in Ti[j]], rows)
                right = combine(size, rights[j], Ti)
                if left != right:
                    return i, j, next(k for k in range(n) if left[k * n:(k + 1) * n] != right[k * n:(k + 1) * n])
        return None

    bad = scan(middle)
    if bad is not None and len(middle) < n:
        bad = scan(range(n))
    return bad


def _int_combine(size: int, terms, rows) -> list:
    """Sum of c*rows[l] shifted by off over the (off, l, c) in terms, on
    Python ints, as a dense list of the given size."""
    acc = [0] * size
    for off, l, c in terms:
        for m, t in rows[l]:
            acc[off + m] += c * t
    return acc


def _first_unit_failure(T, unit_terms, one, zero, combine) -> int | None:
    """The first i where u*e_i or e_i*u differs from e_i, or None.  T and the
    nonzero (l, c) of u in unit_terms are scaled so that both products are
    one*e_i (and zero elsewhere) when the law holds; combine is as in
    first_nonassociative."""
    n = len(T)
    terms = [(0, l, c) for l, c in unit_terms]
    for i in range(n):
        expected = [zero] * n
        expected[i] = one
        if combine(n, terms, [T[l][i] for l in range(n)]) != expected or combine(n, terms, T[i]) != expected:
            return i
    return None


def _poly_clearing(dom: FunctionField, values) -> tuple:
    """D, the product of the distinct denominators of the values, and the map
    taking each value num/den to the mp polynomial D * num/den: num times the
    product of the distinct denominators other than den."""
    p, one = dom.p, mp_const(1, dom.p, dom.nvars)
    dens = [*dict.fromkeys(c.den for c in values if c.den != one)]
    cofactor = {}
    for d in (one, *dens):
        f = one
        for e in dens:
            if e != d:
                f = mp_mul(f, e, p)
        cofactor[d] = f

    def cleared(c):
        f = cofactor[c.den]
        return c.num if f == one else mp_mul(c.num, f, p)

    return cofactor[one], cleared


def _poly_combine(p: int, products: dict, size: int, terms, rows) -> list:
    """_int_combine on mp polynomials over F_p, as a list of canonical
    tuples (() for zero).  products holds each c*t formed so far."""
    acc = [()] * size
    for off, l, c in terms:
        for m, t in rows[l]:
            x = products.get((c, t))
            if x is None:
                x = products[c, t] = mp_mul(c, t, p)
            m += off
            acc[m] = mp_add(acc[m], x, p) if acc[m] else x
    return acc


def element_multiply(A: StructAlgebra, u, v):
    """Bilinear product of coordinate vectors through the sparse tensor.

    Over QQ, u and v are scaled to integer vectors by their common
    denominators du and dv and multiplied through A.int_tensor, so each
    output coordinate is one reduced Fraction(x, du * dv * D).  Over a prime
    field the ints of u, v and the sparse tensor are multiplied as they are,
    and each output coordinate is reduced mod p once."""
    if len(u) != A.dim or len(v) != A.dim:
        raise DimensionMismatch("coordinate length differs from dimension")
    dom = A.dom
    if type(dom) is RationalField:
        du = math.lcm(*(c.denominator for c in u))
        dv = math.lcm(*(c.denominator for c in v))
        out = _int_multiply(
            A.int_tensor,
            A.dim,
            [c.numerator * (du // c.denominator) for c in u],
            [c.numerator * (dv // c.denominator) for c in v],
        )
        den = du * dv * A.int_den
        return tuple(Fraction(x, den) if x else _ZERO for x in out)
    if type(dom) is PrimeField:
        p = dom.p
        return tuple([x % p for x in _int_multiply(A.sparse, A.dim, u, v)])
    is_zero, add, mul = dom.is_zero, dom.add, dom.mul
    out = [dom.zero] * A.dim
    vs = [(j, cv) for j, cv in enumerate(v) if not is_zero(cv)]
    if not vs:
        return tuple(out)
    sparse = A.sparse
    for i, cu in enumerate(u):
        if is_zero(cu):
            continue
        block = sparse[i]
        for j, cv in vs:
            c = mul(cu, cv)
            for k, t in block[j]:
                out[k] = add(out[k], mul(c, t))
    return tuple(out)


def element_power(A: StructAlgebra, u, n: int):
    """u^n by squaring, from u itself rather than from the unit:
    (bit_length(n) - 1) squarings and (popcount(n) - 1) further products;
    u^0 is the unit."""
    if n == 0:
        return A.unit
    acc = None
    while True:
        if n & 1:
            acc = u if acc is None else element_multiply(A, acc, u)
        n >>= 1
        if not n:
            return acc
        u = element_multiply(A, u, u)


def mult_rows(A: StructAlgebra, u):
    """Rows of the left-multiplication map: row i = u * e_i."""
    return tuple(element_multiply(A, u, A.basis_vector(i)) for i in range(A.dim))


def invert_element(A: StructAlgebra, v):
    """Two-sided inverse of v, or NotAField carrying v as the zero-divisor
    witness when v is nonzero but not invertible."""
    dom = A.dom
    if vec_is_zero(dom, v):
        raise NotAField("zero is not invertible", witness=v)
    # x * rows = unit in row coordinates means v * x = unit
    x = solve(dom, mult_rows(A, v), A.unit)
    if x is None or element_multiply(A, v, x) != A.unit:
        raise NotAField("element is a zero divisor", witness=v)
    return x


def _arithmetic(A: StructAlgebra):
    """The echelon pair of A's domain (linalg.echelon_pair) and the product
    of A in the same arithmetic, picked together: over QQ _int_multiply on
    A.int_tensor, which gives D times the product of integer vectors; over
    F_2 _bit_multiply on A.bit_table, on packed vectors; over every other
    F_p _int_multiply on A.sparse, unreduced, which the pair's reduce takes
    mod p; over any other field element_multiply.  Each product is a nonzero
    multiple of the true one in the pair's form, so every span it goes into
    is the true span."""
    pair = echelon_pair(A.dom)
    if pair.reduce is int_reduce:
        multiply = partial(_int_multiply, A.int_tensor, A.dim)
    elif pair.reduce is bit_reduce:
        multiply = partial(_bit_multiply, A.bit_table)
    elif pair.reduce is fp_reduce:
        multiply = partial(_int_multiply, A.sparse, A.dim)
    else:
        def multiply(u, v):
            return element_multiply(A, u, v)
    return pair, multiply


def closure(A: StructAlgebra, span: Subspace, queue, ideal: bool = False) -> Subspace:
    """The least subalgebra of A (or with ideal=True, the least two-sided
    ideal) containing span and the queued vectors, where span is already a
    subalgebra (an ideal): closure_form on the span and the queue moved into
    the arithmetic of the domain's linalg.echelon_pair (span.form), made a
    Subspace once, at the end."""
    enter = echelon_pair(A.dom).enter
    return Subspace.of_form(A.dom, A.dim, closure_form(A, span.form, map(enter, queue), ideal))


def closure_form(A: StructAlgebra, base, queue, ideal: bool = False, found=None) -> tuple[tuple, tuple]:
    """closure on echelon forms: base = (rows, pivots) and the queued
    vectors in the arithmetic of A's echelon pair, and the closure returned
    in it.

    Each queued vector is reduced against the span as it grows.  A residual
    r that leaves the span is adjoined and its products are queued: for a
    subalgebra, r times each spanning vector met so far and itself; for an
    ideal, r times each basis vector.  Products are taken on both sides only
    when A is not commutative, in the pair's arithmetic (_arithmetic), and
    products inside the closed starting span are never formed.  When the
    starting span of a subalgebra contains the unit, the products by its
    unit row are not formed either (_unit_free_rows); the zero span of a
    first closure keeps every row.  The span grows through the pair's grow
    and is made canonical by its finish once, at the end; the loop stops
    once the span is the whole algebra, whose form is A.full_form.

    found, a dict from the canonical rows of closed subalgebras to their
    forms, stops the walk early: once a grow leaves rows that are a key of
    found, that subalgebra is returned.  The span P then holds the base and
    the one queued vector a and lies in the closure, so the closure, the
    least subalgebra holding both, lies in the member P: it is P.  This
    needs one queued vector and canonical rows after every step: a pair
    whose finish leaves the form as it is, every F_p pair, not QQ's."""
    (enter, reduce, grow, finish, aux, _, nonzero), multiply = _arithmetic(A)
    both_sides = not A.is_commutative
    rows, pivots = base
    if ideal:
        factors = [enter(A.basis_vector(k)) for k in range(A.dim)]
    elif nonzero(reduce(rows, pivots, enter(A.unit), aux)):  # 1 is not in the base
        factors = list(rows)
    else:
        factors = list(_unit_free_rows(A, rows, pivots))
    queue = list(queue)
    while queue:
        r = reduce(rows, pivots, queue.pop(), aux)
        if not nonzero(r):
            continue
        rows, pivots = grow(rows, pivots, r, aux)
        if len(rows) == A.dim:
            return A.full_form
        if found is not None and rows in found:
            return found[rows]
        if not ideal:
            factors.append(r)
        for g in factors:
            queue.append(multiply(r, g))
            if both_sides and g is not r:
                queue.append(multiply(g, r))
    return finish(rows, pivots, aux)


def _unit_free_rows(A: StructAlgebra, rows, pivots) -> tuple:
    """The rows of an echelon form whose span R holds the unit, but the row
    whose pivot is the unit's leading coordinate, so that R*r is spanned by
    r and the products b*r by the rows b returned.  Write 1 = sum c_i*b_i
    over the rows: the least pivot whose c_i is nonzero is the leading
    coordinate of the sum, so that row is the unit's row and its c_i is
    nonzero, and its product with r is r minus the other c_i*b_i*r, over
    its c_i.  This holds in every echelon form, reduced or not."""
    if A.unit_pivot not in pivots:  # the zero algebra, whose unit is 0
        return rows
    at = pivots.index(A.unit_pivot)
    return rows[:at] + rows[at + 1:]


def generated_by_element(A: StructAlgebra, a, base, found=None) -> tuple[tuple, tuple]:
    """Subalgebra generated by a single element over a subalgebra R of an
    algebra over QQ or F_p, where R contains the unit and is central.  a and
    base = (rows, pivots), R's echelon form, are in the arithmetic of the
    domain's linalg.echelon_pair, and so is the echelon form returned: over
    QQ the integer echelon form, over F_2 packed rows, and over any other
    F_p the reduced echelon rows: R's Subspace.form is such a base.

    The subalgebra is R + R*a + R*a^2 + ..., which is closed because R is
    closed and commutes with everything.  Let S_k = R + R*a + ... + R*a^k.
    Step k adjoins the residual r of a^k against S_(k-1), which is a^k minus
    an element of S_(k-1), and b*r for each base row b but the unit's
    (_unit_free_rows), which with r span R*r; their span with S_(k-1) is
    S_k.  The next candidate is a*r, which is a^(k+1) minus an element of
    S_k.  The loop stops at the first a^k already in S_(k-1): then R*a^k
    lies in it too, and so does every later power, since
    a^(k+1) = a * a^k lies in the span of the r'*a^(j+1) with r' in R and
    j < k.  It also stops once the span is the whole algebra, and returns
    A.full_form.

    found, a dict from the canonical rows of subalgebras to their forms,
    stops the walk at the first grow whose rows are a key of found, and
    returns that member: the span then holds R and a and lies in R[a], so
    R[a] lies in the member and equals it.  The rows must be canonical after
    every grow, so found is for the F_p pairs, whose finish leaves the form
    as it is; the QQ sampler passes none.

    The span grows through the pair's grow: over QQ each residual is
    inserted at its pivot and the older rows are left as they are, and a
    walk that stops short is back-substituted once, by the pair's finish.
    The residuals, and so the walk, depend on the spans alone.

    Products are taken in the pair's arithmetic (_arithmetic): over QQ
    through A.int_tensor, over F_2 through A.bit_table, and over any other
    F_p through A.sparse, unreduced.  Each is a nonzero multiple of the true
    product, so each span is unchanged.  Any other domain raises
    UnsupportedDomain."""
    if type(A.dom) not in (RationalField, PrimeField):
        raise UnsupportedDomain("single-element closures run over the rationals and F_p")
    if a >> A.dim if type(a) is int else len(a) != A.dim:
        raise DimensionMismatch("coordinate length differs from dimension")
    (_, reduce, grow, finish, aux, _, nonzero), multiply = _arithmetic(A)
    rows, pivots = base
    others = _unit_free_rows(A, rows, pivots)
    cur = a
    while True:
        r = reduce(rows, pivots, cur, aux)
        if not nonzero(r):
            return finish(rows, pivots, aux)
        rows, pivots = grow(rows, pivots, r, aux)
        if found is not None and rows in found:
            return found[rows]
        for b in others:
            residual = reduce(rows, pivots, multiply(b, r), aux)
            if nonzero(residual):
                rows, pivots = grow(rows, pivots, residual, aux)
                if found is not None and rows in found:
                    return found[rows]
        if len(rows) == A.dim:
            return A.full_form
        cur = multiply(r, a)


def _bit_multiply(table, u, v) -> int:
    """Product of packed vectors over F_2 through a packed table: the XOR of
    table[i][j] over the set bits i of u and j of v."""
    js = []
    while v:
        low = v & -v
        js.append(low.bit_length() - 1)
        v ^= low
    out = 0
    while u:
        low = u & -u
        row = table[low.bit_length() - 1]
        for j in js:
            out ^= row[j]
        u ^= low
    return out


def _int_multiply(tensor, dim: int, u, v) -> list:
    """Product of integer coordinate vectors through an integer tensor."""
    out = [0] * dim
    vs = [(j, cv) for j, cv in enumerate(v) if cv]
    if not vs:
        return out
    for i, cu in enumerate(u):
        if not cu:
            continue
        block = tensor[i]
        for j, cv in vs:
            c = cu * cv
            for k, t in block[j]:
                out[k] += c * t
    return out


def subspace_product(A: StructAlgebra, s: Subspace, t: Subspace) -> Subspace:
    """Span of all pairwise products of the two subspaces."""
    prods = [element_multiply(A, u, v) for u in s.rows for v in t.rows]
    return subspace_from_vectors(A.dom, A.dim, prods)


def commutator_ideal(A: StructAlgebra) -> Subspace:
    """Two-sided ideal generated by all basis commutators."""
    comms = []
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            comms.append(tuple(A.dom.sub(a, b) for a, b in zip(A.table[i][j], A.table[j][i])))
    return closure(A, zero_subspace(A.dom, A.dim), comms, ideal=True)


def is_ideal(A: StructAlgebra, s: Subspace) -> bool:
    """Whether s is closed under multiplication by each basis vector, on
    both sides when A is not commutative."""
    both_sides = not A.is_commutative
    for v in s.rows:
        for k in range(A.dim):
            e = A.basis_vector(k)
            if not s.contains(element_multiply(A, e, v)):
                return False
            if both_sides and not s.contains(element_multiply(A, v, e)):
                return False
    return True


def int_trace_form(A: StructAlgebra) -> tuple:
    """D^2 times the trace form of an algebra over QQ, on ints: row i is
    (D^2 Tr(e_i e_j))_j with Tr the trace of left multiplication, and
    D^2 Tr(e_i e_j) = sum_k (D c_ijk)(D tau_k) with D tau_k = sum_m D c_kmm,
    all read off A.int_tensor.  A nonzero multiple of the trace form, so its
    kernel is the same.  O(dim^3) on the sparse tensor."""
    tensor = A.int_tensor
    tau = [sum(c for m, v in enumerate(block) for k, c in v if k == m) for block in tensor]
    return tuple(tuple(sum(c * tau[k] for k, c in v) for v in block) for block in tensor)


def nilradical(A: StructAlgebra) -> Subspace:
    """Nilpotent elements of a commutative algebra over Q or F_p.

    Over Q this is the radical of the trace form, taken on the integer
    form int_trace_form.  Over F_p the trace form
    degenerates when p divides dimensions, so the kernel of the iterated
    Frobenius map u -> u^(p^m) with p^m >= dim is used instead; that map is
    F_p-linear and kills exactly the nilpotents.
    """
    dom = A.dom
    if not A.is_commutative:
        raise ValidationError("nilradical needs a commutative algebra")
    if A.dim == 0:
        return zero_subspace(dom, 0)
    if isinstance(dom, PrimeField):
        q = dom.p
        while q < A.dim:
            q *= dom.p
        rows = [element_power(A, A.basis_vector(i), q) for i in range(A.dim)]
        # kernel of x -> sum x_i rows[i]
        basis = nullspace(dom, [tuple(r[k] for r in rows) for k in range(A.dim)], A.dim)
    elif dom == QQ:
        basis = nullspace(dom, int_trace_form(A), A.dim)
    else:
        raise UnsupportedDomain("nilradical supports Q and F_p coefficients")
    out = subspace_from_vectors(dom, A.dim, basis)
    for v in out.rows:
        if dom == QQ:
            # a nilpotent v has v^dim = 0, so v is nilpotent exactly when
            # v^(2^k) = 0 for 2^k >= dim; the squares are taken on the ints of
            # primitive(v), a nonzero multiple of v, through A.int_tensor
            w, k = primitive(v), 1
            while any(w) and k < A.dim:
                w, k = _int_multiply(A.int_tensor, A.dim, w, w), 2 * k
            nilpotent = not any(w)
        else:
            nilpotent = vec_is_zero(dom, element_power(A, v, A.dim))
        if not nilpotent:
            raise ValidationError("radical computation produced a non-nilpotent")
    return out


def minimal_polynomial(A: StructAlgebra, a, ideal: Subspace | None = None) -> Poly:
    """The monic least-degree polynomial f with f(a) = 0, or with f(a) in the
    given ideal of A; the constant 1 when 1 already lies there (the zero
    algebra, or the ideal A).

    One incremental walk on the domain's linalg.echelon_pair, from the
    ideal's rows padded with zeros (no rows without an ideal), grown through
    the pair's grow.  Each row grown in after them is [s*v | s*c], for a
    nonzero scalar s and the coefficients c of a polynomial, lowest degree
    first, with v = c(a).  The first candidate is [1 | 1], of degree 0, and
    the candidate after a residual r is r times a, its coefficient part
    shifted by x.  Step k reduces a candidate of degree k against rows of
    degree below k, so its x^k coefficient survives; a residual with v = 0
    is then a multiple of the least-degree f, made monic once it leaves the
    pair's arithmetic.

    Products v*a are taken in the pair's arithmetic (_arithmetic).  Over QQ
    a is scaled by its common denominator d, and the product through
    A.int_tensor is D*d times v*a, so the shifted coefficient part is
    scaled by D*d to match.  Over F_2 a row is one packed int, v in bits
    0..n-1 and c in bits n..2n, so the shift is one left shift.  Over any
    other F_p products go into linalg.fp_reduce unreduced, and over any other
    field the rows hold field elements."""
    dom, n = A.dom, A.dim
    if len(a) != n:
        raise DimensionMismatch("coordinate length differs from dimension")
    if ideal is None:
        ideal = zero_subspace(dom, n)
    (enter, reduce, grow, _, aux, leave, nonzero), multiply = _arithmetic(A)
    if type(dom) is RationalField:
        d = math.lcm(*(c.denominator for c in a))
        a = [c.numerator * (d // c.denominator) for c in a]
        step, zero = A.int_den * d, 0
    else:
        a, step, zero = enter(a), 1, dom.zero
    if reduce is bit_reduce:
        # r << 1 moves c up by one coefficient; high keeps bits n+1..2n, so
        # the top bit of v, which lands on c_0, and c_n, shifted past the
        # row, are dropped
        low = (1 << n) - 1
        high = low << (n + 1)

        def head(r):
            return r & low

        def times_a(r):
            return multiply(r & low, a) | r << 1 & high
    else:
        def head(r):
            return r[:n]

        def times_a(r):
            shifted = r[n:-1] if step == 1 else [step * x for x in r[n:-1]]
            return [*multiply(r[:n], a), zero, *shifted]
    pad = (dom.zero,) * (n + 1)
    rows, pivots = tuple(enter(r + pad) for r in ideal.rows), ideal.pivots
    cur = enter((*A.unit, dom.one, *pad[1:]))
    while True:
        r = reduce(rows, pivots, cur, aux)
        if not nonzero(head(r)):
            c = list(leave(*grow((), (), r, aux), 2 * n + 1)[0][n:])
            while not c[-1]:
                c.pop()
            inv = dom.inv(c[-1])
            return Poly(dom, tuple(dom.mul(x, inv) for x in c))
        rows, pivots = grow(rows, pivots, r, aux)
        cur = times_a(r)


def primitive_element(A: StructAlgebra, seed: int = 0, ideal: Subspace | None = None):
    """(a, f) with the powers of a spanning A and f = minimal_polynomial(A, a):
    a is accepted when deg f = dim A, since K[a] is the span of its powers.
    Given an ideal I, a is accepted when f = minimal_polynomial(A, a, I) has
    degree dim A - dim I: then the image of a generates A/I, and f is its
    minimal polynomial there.

    Over F_p every element is tried in itertools.product order, so
    (None, None) proves that A (A/I) has no primitive element; more than
    64 * GENERATOR_BUDGET elements raise BudgetExceeded.  Over Q the basis
    vectors come first, then seeded random integer vectors in a box that
    doubles after every 16th trial, GENERATOR_BUDGET trials at most."""
    dom = A.dom
    if isinstance(dom, PrimeField):
        if dom.p**A.dim > GENERATOR_BUDGET * 64:
            raise BudgetExceeded("exhaustive generator search over budget")
        candidates = iproduct(range(dom.p), repeat=A.dim)
    elif dom == QQ:
        candidates = _rational_candidates(A, random.Random(seed))
    else:
        raise UnsupportedDomain("generator search supports Q and F_p domains")
    target = A.dim - (ideal.dim if ideal is not None else 0)
    for a in candidates:
        f = minimal_polynomial(A, a, ideal)
        if f.degree == target:
            return a, f
    if dom == QQ:
        raise SearchBudgetExceeded("no generator found within the search budget")
    return None, None


def _rational_candidates(A: StructAlgebra, rng):
    bound = 1
    for trial in range(GENERATOR_BUDGET):
        if trial < A.dim:
            yield A.basis_vector(trial)
        else:
            yield tuple(Fraction(rng.randint(-bound, bound)) for _ in range(A.dim))
            if trial % 16 == 0:
                bound *= 2


def quotient_algebra(A: StructAlgebra, ideal: Subspace):
    """Quotient by a validated two-sided ideal; returns the quotient algebra
    and the projection matrix (rows = images of the old basis)."""
    if ideal.ambient != A.dim:
        raise DimensionMismatch("ideal ambient dimension differs")
    if not is_ideal(A, ideal):
        raise NotAnIdeal("subspace is not a two-sided ideal")
    dom = A.dom
    keep = [j for j in range(A.dim) if j not in set(ideal.pivots)]
    q = len(keep)

    def project(v):
        r = ideal.reduce(v)
        return tuple(r[j] for j in keep)

    table = []
    for a in keep:
        row = []
        for b in keep:
            row.append(project(A.table[a][b]))
        table.append(row)
    unit = project(A.unit)
    B = make_algebra(dom, table, unit)
    proj = tuple(project(A.basis_vector(i)) for i in range(A.dim))
    return B, proj


def product_algebra(factors) -> StructAlgebra:
    """Direct product with block-diagonal structure constants."""
    factors = list(factors)
    if not factors:
        raise ValidationError("product of zero algebras is not supported")
    dom = factors[0].dom
    for f in factors:
        if f.dom != dom:
            raise DomainMismatch("product factors over different domains")
    n = sum(f.dim for f in factors)
    check_dimension(n)
    offs = []
    off = 0
    for f in factors:
        offs.append(off)
        off += f.dim
    table = [[zero_vec(dom, n) for _ in range(n)] for _ in range(n)]
    unit = [dom.zero] * n
    for f, o in zip(factors, offs):
        for i in range(f.dim):
            unit[o + i] = f.unit[i]
            for j in range(f.dim):
                vec = [dom.zero] * n
                for k in range(f.dim):
                    vec[o + k] = f.table[i][j][k]
                table[o + i][o + j] = tuple(vec)
    return make_algebra(dom, table, unit)


def subalgebra_to_algebra(A: StructAlgebra, s: Subspace):
    """Re-express a unital multiplication-closed subspace as an algebra in
    its own right; returns the algebra and the inclusion rows."""
    if not s.contains(A.unit):
        raise ValidationError("subspace does not contain the unit")

    def coords(vec):
        # a vector of s is read off at the pivots, where the echelon rows are unit
        if not s.contains(vec):
            raise ValidationError("subspace is not multiplication closed")
        return tuple(vec[p] for p in s.pivots)

    return _algebra_on(A, s.rows, coords, tuple(A.unit[p] for p in s.pivots)), s.rows


def _algebra_on(A: StructAlgebra, rows, coords, unit) -> StructAlgebra:
    """The algebra on the basis rows of A: the product of rows u and v is
    element_multiply(A, u, v) written back by coords, and unit gives the
    coordinates of the unit."""
    return make_algebra(A.dom, [[coords(element_multiply(A, u, v)) for v in rows] for u in rows], unit)


# ---------------------------------------------------------------------------
# Local decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalFactor:
    """One local factor e*A of a commutative algebra A over Q, read off A
    without forming it: the primitive idempotent e cutting it out, dim e*A,
    nil_dim = dim e*N with N the nilradical of A, and
    nil_mod_nil2_dim = dim e*N - dim e*N^2, the dimension of the factor's
    maximal ideal modulo its square."""

    idempotent: tuple
    dim: int
    nil_dim: int
    nil_mod_nil2_dim: int


@dataclass(frozen=True)
class LocalSplit:
    """The local factors of a commutative algebra over Q, sorted by
    (dim, nil_dim), with the element a the split was made by and its minimal
    polynomial mu = g_1^(m_1) ... g_k^(m_k) in A, factored as
    factor_over_rationals factors it; both None when the split returned
    early, with one factor."""

    factors: tuple
    element: tuple | None = None
    minimal_polynomial: FactoredPoly | None = None


def local_decomposition(A: StructAlgebra, seed: int = 0) -> LocalSplit:
    """The local factors of a commutative algebra over Q, sorted by
    (dim, nil_dim); factors equal in both keep the order of the
    factorization below, which depends on the element a found there.  Any
    other domain raises UnsupportedDomain.

    One pass, without forming A/N or any factor algebra: with N the
    nilradical of A, an element a whose image generates A/N
    (primitive_element modulo N) has a minimal polynomial modulo N, f, of
    degree dim A - dim N.  f is the minimal polynomial of the image of a in
    A/N = Q[x]/(f), so it is squarefree; it is factored once as
    g_1 ... g_k.  In the local factor A_i of A with residue field
    Q[x]/(g_i), the component of a has minimal polynomial g_i^(m_i), and the
    g_i are distinct, so the minimal polynomial of a in A is
    mu = g_1^(m_1) ... g_k^(m_k).  The CRT idempotent E_i of Q[x]/(mu),
    1 modulo g_i^(m_i) and 0 modulo the other factors, is 1 on the
    component of a in A_i and 0 on the others: E_i(a) is the primitive
    idempotent e_i of A.  E_i is formed on the Q polynomial kernel
    (polynomials.poly_kernel), as an integer coefficient list with one
    rational content, and evaluated on the integer powers of a
    (_int_powers); each factor's numbers are read off A by _read_factors.
    """
    if not A.is_commutative:
        raise ValidationError("local decomposition needs a commutative algebra")
    if A.dim == 0:
        return LocalSplit(())
    dom = A.dom
    if dom != QQ:
        raise UnsupportedDomain("local decomposition runs over Q")
    nil = nilradical(A)
    nil2 = subspace_product(A, nil, nil)
    whole = LocalSplit((LocalFactor(A.unit, A.dim, nil.dim, nil.dim - nil2.dim),))
    if A.dim - nil.dim == 1:
        return whole
    a, f = primitive_element(A, seed, ideal=nil)
    fac = factor_over_rationals(f, seed=0)
    if any(m > 1 for _, m in fac.factors):
        raise ValidationError("semisimple quotient produced a repeated factor")
    if len(fac.factors) == 1:
        return whole
    mu = minimal_polynomial(A, a)
    powers, scales = _int_powers(A, a, mu.degree)
    K = poly_kernel(dom)
    mu_form = K.enter(mu)
    pieces, mu_factors = [], []
    for g, _ in fac.factors:
        # q = g^m, the power of g that exactly divides mu, and h = mu / q
        g_form = K.enter(g)
        q, h, m = g_form, K.divmod(mu_form, g_form)[0], 1
        while True:
            quo, rem = K.divmod(h, g_form)
            if K.degree(rem) >= 0:
                break
            q, h, m = K.mul(q, g_form), quo, m + 1
        # t = 1/h modulo q, of degree below deg q: t*h is 1 modulo q and 0
        # modulo h, of degree below deg mu
        one, _, t = kernel_xgcd(K, q, K.divmod(h, q)[1])
        assert K.degree(one) == 0
        e = _int_evaluate(*K.mul(t, h), powers, scales)
        if element_multiply(A, e, e) != e:
            raise ValidationError("CRT idempotent is not idempotent")
        if e == A.unit or vec_is_zero(dom, e):
            raise ValidationError("CRT idempotent is trivial")
        pieces.append((e, g.degree))
        mu_factors.append((g, m))
    factors = sorted(_read_factors(A, nil, nil2, pieces), key=lambda lf: (lf.dim, lf.nil_dim))
    return LocalSplit(tuple(factors), a, FactoredPoly(dom, mu.lc, tuple(mu_factors)))


def _int_powers(A: StructAlgebra, a, count: int) -> tuple[list, list]:
    """The powers a^0, ..., a^(count-1) of an element of an algebra over QQ
    as integer vectors with one scale each, a^k = powers[k] / scales[k]: a is
    scaled by its common denominator d, so each product through A.int_tensor
    multiplies the scale by D*d."""
    d = math.lcm(*(c.denominator for c in a))
    a = [c.numerator * (d // c.denominator) for c in a]
    u = math.lcm(*(c.denominator for c in A.unit))
    powers, scales = [[c.numerator * (u // c.denominator) for c in A.unit]], [u]
    step = A.int_den * d
    while len(powers) < count:
        powers.append(_int_multiply(A.int_tensor, A.dim, powers[-1], a))
        scales.append(scales[-1] * step)
    return powers, scales


def _int_evaluate(content, ints, powers, scales) -> tuple:
    """content * sum_k ints[k] * powers[k] / scales[k], a polynomial in the
    QQ kernel's form evaluated on the integer powers, over one common
    denominator divided out once per coordinate."""
    den = math.lcm(*(s for c, s in zip(ints, scales) if c))
    acc = [0] * len(powers[0])
    for c, row, s in zip(ints, powers, scales):
        if c:
            w = c * (den // s)
            for j, x in enumerate(row):
                if x:
                    acc[j] += w * x
    n, den = content.numerator, content.denominator * den
    return tuple(Fraction(n * x, den) if x else _ZERO for x in acc)


def _read_factors(A: StructAlgebra, nil: Subspace, nil2: Subspace, pieces) -> list[LocalFactor]:
    """The LocalFactor of each (e, deg g) in pieces, e a primitive
    idempotent of A and g the residue field's modulus, read off A.

    dim e*A = Tr(L_e) = sum_k e_k tau_k (A.traces), since L_e is an
    idempotent map, whose trace is its rank; nil_dim = dim e*A - deg g.
    Multiplication by e is an idempotent map of the ideal N^2 onto e*N^2,
    and the coordinate along the echelon row r_j of N^2 of a vector in N^2
    is its entry at the pivot p_j, so dim e*N^2 = sum_j (e*r_j)[p_j].

    The pieces must be consistent: each trace an integer in [1, dim A - 1],
    the idempotents summing to 1, the dimensions of the factors, of their
    nilradicals and of their parts of N^2 summing to dim A, dim N and
    dim N^2, and 0 <= dim e*N^2 <= nil_dim.  A ValidationError names every
    check that fails."""
    idempotents = [e for e, _ in pieces]
    dims = [sum(map(mul, e, A.traces)) for e in idempotents]
    nil_dims = [d - residue for d, (_, residue) in zip(dims, pieces)]
    nil2_dims = [sum(element_multiply(A, e, r)[p] for r, p in zip(nil2.rows, nil2.pivots)) for e in idempotents]
    checks = [
        (all(d.denominator == 1 and 1 <= d < A.dim for d in dims),
         "an idempotent's trace is not an integer in [1, dim A - 1]"),
        (tuple(map(sum, zip(*idempotents))) == A.unit, "the idempotents do not sum to 1"),
        (sum(dims) == A.dim, "the factor dimensions do not sum to dim A"),
        (sum(nil_dims) == nil.dim, "the factor nil_dims do not sum to dim N"),
        (sum(nil2_dims) == nil2.dim, "the factors' parts of N^2 do not sum to dim N^2"),
        (all(0 <= n2 <= n for n, n2 in zip(nil_dims, nil2_dims)),
         "a factor's part of N^2 is not within its nilradical"),
    ]
    failed = [message for ok, message in checks if not ok]
    if failed:
        raise ValidationError("inconsistent local split: " + "; ".join(failed))
    return [
        LocalFactor(e, int(d), int(n), int(n - n2))
        for e, d, n, n2 in zip(idempotents, dims, nil_dims, nil2_dims)
    ]


# ---------------------------------------------------------------------------
# Frobenius spans for field towers
# ---------------------------------------------------------------------------

def frobenius_chain(L: StructAlgebra) -> list[Subspace]:
    """Chain of iterated Frobenius spans L, KL^p, KL^(p^2), ... down to its
    stabilization point (the separable closure of the coefficient field
    inside L).

    In a commutative algebra of characteristic p Frobenius is additive, so
    (sum c_j w_j)^p = sum c_j^p w_j^p: the K-span of the p-th powers of any
    basis of a member is the next member.  So the chain keeps basis vectors
    g_i, starting from the standard basis: each step raises them to g_i^p,
    folds them through the domain's echelon pair, and keeps the g_i whose
    residual is nonzero, a basis of the new member.  The reduced echelon
    form is canonical, so each member is the span of the p-th powers of the
    previous member's reduced rows as well."""
    dom = L.dom
    p = dom.char
    if p == 0:
        raise CharacteristicZero("Frobenius chain needs positive characteristic")
    if not L.is_commutative:
        raise ValidationError("Frobenius chain needs a commutative algebra")
    enter, reduce, grow, finish, aux, _, nonzero = echelon_pair(dom)
    chain = [full_subspace(dom, L.dim)]
    gens = [L.basis_vector(i) for i in range(L.dim)]
    while True:
        rows, pivots, kept = (), (), []
        for g in gens:
            g = element_power(L, g, p)
            r = reduce(rows, pivots, enter(g), aux)
            if nonzero(r):
                rows, pivots = grow(rows, pivots, r, aux)
                kept.append(g)
        if len(kept) == len(gens):
            return chain
        chain.append(Subspace.of_form(dom, L.dim, finish(rows, pivots, aux)))
        gens = kept


# ---------------------------------------------------------------------------
# Relative algebras over a local artinian base
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelativeAlgebra:
    """A base local artinian algebra, an ambient algebra, and the embedding
    of the base, all over a common ground field."""

    ground: ScalarDomain
    base: StructAlgebra
    max_ideal: Subspace
    amb: StructAlgebra
    emb: tuple  # rows: image of each base basis vector in amb coordinates

    def emb_vec(self, v):
        return combine(self.ground, v, self.emb, self.amb.dim)

    @property
    def base_image(self) -> Subspace:
        return subspace_from_vectors(self.ground, self.amb.dim, self.emb)

    @property
    def ideal_image(self) -> Subspace:
        vecs = [self.emb_vec(v) for v in self.max_ideal.rows]
        return subspace_from_vectors(self.ground, self.amb.dim, vecs)


def make_relative(ground, base: StructAlgebra, max_ideal: Subspace, amb: StructAlgebra, emb) -> RelativeAlgebra:
    """Validate and build a relative algebra.

    Checks: the embedding is an injective unital ring map, the designated
    ideal has codimension one, is an ideal, and consists of nilpotents (so
    the base is local artinian with residue field the ground field).
    """
    if base.dom != ground or amb.dom != ground:
        raise DomainMismatch("base and ambient must share the ground field")
    emb = tuple(tuple(r) for r in emb)
    if len(emb) != base.dim or any(len(r) != amb.dim for r in emb):
        raise ValidationError("embedding matrix has wrong shape")
    rel = RelativeAlgebra(ground, base, max_ideal, amb, emb)
    if rel.base_image.dim != base.dim:
        raise ValidationError("embedding is not injective")
    if rel.emb_vec(base.unit) != amb.unit:
        raise ValidationError("embedding does not preserve the unit")
    for i in range(base.dim):
        for j in range(base.dim):
            lhs = rel.emb_vec(base.table[i][j])
            rhs = element_multiply(amb, emb[i], emb[j])
            if lhs != rhs:
                raise ValidationError(f"embedding is not a ring map at pair ({i}, {j})")
    for i in range(base.dim):
        for k in range(amb.dim):
            e = amb.basis_vector(k)
            if element_multiply(amb, emb[i], e) != element_multiply(amb, e, emb[i]):
                raise ValidationError("base image must be central in the ambient algebra")
    if max_ideal.ambient != base.dim:
        raise BaseNotLocalArtinian("maximal ideal lives in the wrong space")
    if max_ideal.dim != base.dim - 1:
        raise BaseNotLocalArtinian("designated ideal does not have codimension one")
    if not is_ideal(base, max_ideal):
        raise BaseNotLocalArtinian("designated subspace is not an ideal")
    for v in max_ideal.rows:
        if not vec_is_zero(ground, element_power(base, v, base.dim + 1)):
            raise BaseNotLocalArtinian("designated ideal contains a non-nilpotent")
    return rel
