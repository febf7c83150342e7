"""Exhaustive ground-truth oracles over finite prime fields: full
subalgebra and ideal lattices, isomorphism enumeration, subalgebras of a
product via quintuple (Goursat-style) enumeration, and submodule lattices
of finite modules over small local base rings.

Subalgebra and ideal lattices come from one closure search: each member
found is grown by one line of the quotient space at a time, so the work
scales with the number of members times the lines over each, not with the
number of subspaces.  Over a commutative algebra a member S grown by a is
S[a] = S + S*a + S*a^2 + ..., the power walk of algebra.generated_by_element.
algebra.closure closes ideals under multiplication by the basis, and the
subalgebras of a noncommutative algebra under products.  Both run on plain
ints in [0, p) through linalg.fp_reduce and fp_adjoin, and each member grown
becomes one Subspace.  A lattice's containment pairs are computed on
first read, so only the callers that print them pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

from .algebra import (
    StructAlgebra,
    closure,
    element_multiply,
    generated_by_element,
    product_algebra,
    quotient_algebra,
    subalgebra_to_algebra,
)
from .domains import PrimeField
from .errors import BudgetExceeded, DimensionMismatch, ValidationError
from .linalg import (
    Subspace,
    combine,
    subspace_from_vectors,
    unit_vec,
    zero_subspace,
    zero_vec,
)

DEFAULT_BUDGET = 1 << 20


@dataclass(frozen=True)
class SubalgebraLattice:
    """All subalgebras of a finite algebra, canonically ordered, with the
    containment pairs."""

    algebra: StructAlgebra
    members: tuple  # of Subspace, sorted by canonical key

    @classmethod
    def of(cls, A: StructAlgebra, members) -> "SubalgebraLattice":
        return cls(A, tuple(sorted(members, key=Subspace.key)))

    @property
    def count(self) -> int:
        return len(self.members)

    @cached_property
    def inclusions(self) -> tuple:
        """The (i, j) with members[i] < members[j], in lexicographic order;
        computed on first read."""
        members = self.members
        return tuple(
            (i, j)
            for i, a in enumerate(members)
            for j, b in enumerate(members)
            if a.dim < b.dim and b.contains_subspace(a)
        )


def _require_prime_field(A: StructAlgebra):
    if not isinstance(A.dom, PrimeField):
        raise ValidationError("exhaustive enumeration needs an F_p algebra")


def _check_budget(A: StructAlgebra, budget: int):
    if A.dom.p**A.dim > budget:
        raise BudgetExceeded(
            f"{A.dom.p}^{A.dim} exceeds the enumeration budget {budget}"
        )


def iter_subspaces(dom: PrimeField, n: int):
    """Every subspace of F_p^n, one canonical echelon basis each, by
    dimension and then by pivot columns and free entries in
    itertools.product order.  The lines, which the closure search draws, are
    yielded as their one echelon row directly."""
    p = dom.p
    yield zero_subspace(dom, n)
    for lead in range(n):
        for tail in product(range(p), repeat=n - 1 - lead):
            yield Subspace(dom, n, ((0,) * lead + (1,) + tail,), (lead,))
    for r in range(2, n + 1):
        for pivots in combinations(range(n), r):
            free_pos = []
            for i, pi in enumerate(pivots):
                for c in range(pi + 1, n):
                    if c not in pivots:
                        free_pos.append((i, c))
            for fill in product(range(p), repeat=len(free_pos)):
                rows = [[0] * n for _ in range(r)]
                for i, pi in enumerate(pivots):
                    rows[i][pi] = 1
                for (i, c), v in zip(free_pos, fill):
                    rows[i][c] = v
                yield Subspace(dom, n, tuple(tuple(row) for row in rows), tuple(pivots))


def _search(A: StructAlgebra, start: Subspace, ideal: bool) -> list:
    """Every subalgebra (with ideal=True, every two-sided ideal) of A that
    contains start, itself one.

    Each member S found is grown by each line of A/S.  A line is taken from
    iter_subspaces on the non-pivot coordinates of S, so its vector a has no
    component in S, and the member it gives depends on the line alone.
    Every member T containing start is reached: adjoining a basis of T one
    vector at a time climbs from start to T through members.

    Over a commutative A a subalgebra S containing the unit is central and
    closed, so S[a] = S + S*a + S*a^2 + ... is algebra.generated_by_element,
    the power walk, which forms dim S products per power of a.  Ideals, and
    the subalgebras of a noncommutative A, are grown by algebra.closure.
    """
    dom, n = A.dom, A.dim
    if ideal or not A.is_commutative:
        def grow(S, a):
            return closure(A, S, [a], ideal)
    else:
        def grow(S, a):
            return Subspace(dom, n, *generated_by_element(A, a, S))
    # reduced echelon rows are canonical, so over one ambient they are a key
    found = {start.rows: start}
    todo = [start]
    while todo:
        S = todo.pop()
        free = [c for c in range(n) if c not in S.pivots]
        for line in iter_subspaces(dom, len(free)):
            if line.dim == 0:
                continue
            if line.dim > 1:
                break
            a = [dom.zero] * n
            for c, x in zip(free, line.rows[0]):
                a[c] = x
            T = grow(S, tuple(a))
            if T.rows not in found:
                found[T.rows] = T
                todo.append(T)
    return list(found.values())


def enumerate_subalgebras(
    A: StructAlgebra, base_image: Subspace, budget: int = DEFAULT_BUDGET
) -> SubalgebraLattice:
    """All multiplication-closed subspaces containing the base image and the
    unit: the closure search from the subalgebra they generate."""
    _require_prime_field(A)
    _check_budget(A, budget)
    if base_image.ambient != A.dim:
        raise DimensionMismatch("base image lives in the wrong space")
    start = closure(A, zero_subspace(A.dom, A.dim), [*base_image.rows, A.unit])
    return SubalgebraLattice.of(A, _search(A, start, ideal=False))


def enumerate_ideals(A: StructAlgebra, budget: int = DEFAULT_BUDGET) -> list:
    """All subspaces closed under multiplication by A on both sides, in
    canonical order: the closure search from the zero ideal."""
    _require_prime_field(A)
    _check_budget(A, budget)
    return sorted(_search(A, zero_subspace(A.dom, A.dim), ideal=True), key=Subspace.key)


def enumerate_isomorphisms(
    C: StructAlgebra, D: StructAlgebra, budget: int = DEFAULT_BUDGET
) -> list:
    """All unital algebra isomorphisms C -> D as matrices (row i = image of
    basis vector i of C in D coordinates), by brute force over invertible
    matrices."""
    if C.dom != D.dom:
        raise ValidationError("isomorphism enumeration needs a common field")
    _require_prime_field(C)
    if C.dim != D.dim:
        raise DimensionMismatch("isomorphic algebras must share dimension")
    n = C.dim
    p = C.dom.p
    if n == 0:
        return [()]
    if p ** (n * n) > budget:
        raise BudgetExceeded(f"{p}^{n * n} exceeds the enumeration budget {budget}")
    dom = C.dom
    out = []
    for flat in product(range(p), repeat=n * n):
        rows = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
        span = subspace_from_vectors(dom, n, rows)
        if span.dim != n:
            continue
        if combine(dom, C.unit, rows, n) != D.unit:
            continue
        ok = True
        for i in range(n):
            for j in range(n):
                if combine(dom, C.table[i][j], rows, n) != element_multiply(
                    D, rows[i], rows[j]
                ):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(rows)
    return out


def goursat_enumerate(
    A: StructAlgebra, B: StructAlgebra, budget: int = DEFAULT_BUDGET
) -> SubalgebraLattice:
    """Subalgebras of A x B built from quintuples (C, D, I, J, phi) with
    phi an isomorphism C/I -> D/J; the graph construction
    {(a, b) : phi(a mod I) = b mod J} realizes each subalgebra exactly once.
    """
    _require_prime_field(A)
    AB = product_algebra([A, B])
    _check_budget(AB, budget)
    dom = A.dom

    def side(X):
        unitX = subspace_from_vectors(dom, X.dim, [X.unit])
        out = []
        for S in enumerate_subalgebras(X, unitX, budget).members:
            Salg, Srows = subalgebra_to_algebra(X, S)
            quotients = []
            for I in enumerate_ideals(Salg, budget):
                SqI, proj = quotient_algebra(Salg, I)
                keep = tuple(j for j in range(Salg.dim) if j not in set(I.pivots))
                quotients.append((I, SqI, proj, keep))
            out.append((S, Salg, Srows, quotients))
        return out

    left = side(A)
    right = side(B)
    members = []
    seen = set()
    for C, Calg, Crows, lquots in left:
        for I, CqI, projC, _keepC in lquots:
            for D, Dalg, Drows, rquots in right:
                for J, DqJ, projD, keepD in rquots:
                    if D.dim - J.dim != C.dim - I.dim:
                        continue
                    # the echelon section lifting DqJ classes back to Dalg
                    section = [unit_vec(dom, Dalg.dim, pos) for pos in keepD]
                    for phi in enumerate_isomorphisms(CqI, DqJ, budget):
                        vecs = []
                        for ci in range(Calg.dim):
                            a_part = Crows[ci]
                            img = combine(dom, projC[ci], phi, DqJ.dim)
                            d_elt = combine(dom, img, section, Dalg.dim)
                            b_part = combine(dom, d_elt, Drows, B.dim)
                            vecs.append(tuple(a_part) + tuple(b_part))
                        for jrow in J.rows:
                            b_part = combine(dom, jrow, Drows, B.dim)
                            vecs.append(tuple(zero_vec(dom, A.dim)) + tuple(b_part))
                        s = subspace_from_vectors(dom, AB.dim, vecs)
                        key = s.key()
                        if key in seen:
                            raise ValidationError(
                                "quintuple enumeration hit a duplicate subalgebra"
                            )
                        seen.add(key)
                        members.append(s)
    return SubalgebraLattice.of(AB, members)


# ---------------------------------------------------------------------------
# Finite modules over Z/p^k and F_p[eps]/(eps^k)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteModule:
    """A finite module over a small local base ring.

    kind "zmod": base Z/p^k acting on a product of cyclic groups Z/orders[i]
    by integer multiplication; the maximal ideal is (p).
    kind "eps":  base F_p[eps]/(eps^k) acting on (Z/p)^len(orders) with eps
    acting through the given nilpotent matrix.
    """

    kind: str
    p: int
    k: int
    orders: tuple
    eps: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("zmod", "eps"):
            raise ValidationError("module kind must be zmod or eps")
        for o in self.orders:
            if self.kind == "eps" and o != self.p:
                raise ValidationError("eps modules are F_p vector spaces")
            if o < 1 or (self.kind == "zmod" and self.p ** _plog(o, self.p) != o):
                raise ValidationError("component orders must be powers of p")
        if self.kind == "zmod":
            for o in self.orders:
                if o > self.p**self.k:
                    raise ValidationError("component order exceeds the base ring")
        if self.kind == "eps":
            mat = self.eps or ()
            n = len(self.orders)
            if len(mat) != n or any(len(r) != n for r in mat):
                raise ValidationError("eps action matrix has wrong shape")
            power = list(map(list, mat))
            for _ in range(self.k - 1):
                power = [
                    [sum(power[i][l] * mat[l][j] for l in range(n)) % self.p for j in range(n)]
                    for i in range(n)
                ]
            if any(any(row) for row in power):
                raise ValidationError("eps^k must act as zero")

    @property
    def size(self) -> int:
        s = 1
        for o in self.orders:
            s *= o
        return s

    def zero(self):
        return (0,) * len(self.orders)

    def elements(self):
        return product(*(range(o) for o in self.orders))

    def add(self, a, b):
        return tuple((x + y) % o for x, y, o in zip(a, b, self.orders))

    def m_act(self, a):
        """Action of the maximal ideal generator (p, or eps)."""
        if self.kind == "zmod":
            return tuple((self.p * x) % o for x, o in zip(a, self.orders))
        n = len(self.orders)
        return tuple(
            sum(self.eps[j][i] * a[j] for j in range(n)) % self.p for i in range(n)
        )

    def cyclic_span(self, x):
        """The submodule generated by one element."""
        if self.kind == "zmod":
            out = set()
            cur = self.zero()
            while cur not in out:
                out.add(cur)
                cur = self.add(cur, x)
            return out
        orbit = [x]
        cur = x
        for _ in range(self.k - 1):
            cur = self.m_act(cur)
            orbit.append(cur)
        out = set()
        for coeffs in product(range(self.p), repeat=len(orbit)):
            acc = self.zero()
            for c, v in zip(coeffs, orbit):
                for _ in range(c):
                    acc = self.add(acc, v)
            out.add(acc)
        return out


def _plog(o, p):
    e = 0
    while o > 1:
        if o % p:
            return -1
        o //= p
        e += 1
    return e


def enumerate_submodules(M: FiniteModule, budget: int = 4096):
    """All action-stable subgroups, plus a flag telling whether they form a
    chain under inclusion.

    Elements are integer-encoded and an addition table is precomputed, so
    growing a subgroup by one generator is pure table lookups.
    """
    if M.size > budget:
        raise BudgetExceeded(f"module of size {M.size} exceeds budget {budget}")
    elems = list(M.elements())
    index = {x: i for i, x in enumerate(elems)}
    n = len(elems)
    add = [[0] * n for _ in range(n)]
    for i, x in enumerate(elems):
        for j in range(i, n):
            s = index[M.add(x, elems[j])]
            add[i][j] = s
            add[j][i] = s
    span_of = [frozenset(index[y] for y in M.cyclic_span(x)) for x in elems]
    zero = frozenset([index[M.zero()]])
    found = {zero}
    frontier = [zero]
    while frontier:
        H = frontier.pop()
        for x in range(n):
            if x in H:
                continue
            bigger = frozenset(add[h][y] for h in H for y in span_of[x])
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    decoded = [frozenset(elems[i] for i in s) for s in found]
    decoded.sort(key=lambda s: (len(s), sorted(s)))
    chain = True
    for a, b in zip(decoded, decoded[1:]):
        if not a <= b:
            chain = False
            break
    return decoded, chain


def module_quotient_dims(M: FiniteModule) -> tuple[int, int]:
    """(dim_k M/mM, dim_k mM/m^2M) over the residue field F_p."""
    mM = _image_subgroup(M, 1)
    m2M = _image_subgroup(M, 2)
    d0 = _plog(M.size // len(mM), M.p)
    d1 = _plog(len(mM) // len(m2M), M.p)
    return d0, d1


def _image_subgroup(M: FiniteModule, times: int):
    imgs = set()
    for x in M.elements():
        y = x
        for _ in range(times):
            y = M.m_act(y)
        imgs.add(y)
    # the image of a module map is already a subgroup
    return imgs
