"""Exhaustive ground truth over finite prime fields: the full subalgebra
lattice of an F_p algebra.

The lattice comes from one closure search: each member found is grown by
one line of the quotient space at a time, so the work scales with the
number of members times the lines over each, not with the number of
subspaces.  Over a commutative algebra a member S grown by a is
S[a] = S + S*a + S*a^2 + ..., the power walk of
algebra.generated_by_element; over a noncommutative one, algebra.closure
closes S and a under products.  Both run on plain ints in [0, p) through
linalg.fp_reduce and fp_adjoin, and each member grown becomes one Subspace.
A lattice's containment pairs are computed on first read, so only the
callers that print them pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

from .algebra import StructAlgebra, closure, generated_by_element
from .domains import PrimeField
from .errors import BudgetExceeded, DimensionMismatch, ValidationError
from .linalg import Subspace, zero_subspace

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


def _search(A: StructAlgebra, start: Subspace) -> list:
    """Every subalgebra of A that contains start, itself one.

    Each member S found is grown by each line of A/S.  A line is taken from
    iter_subspaces on the non-pivot coordinates of S, so its vector a has no
    component in S, and the member it gives depends on the line alone.
    Every member T containing start is reached: adjoining a basis of T one
    vector at a time climbs from start to T through members.

    Over a commutative A a subalgebra S containing the unit is central and
    closed, so S[a] = S + S*a + S*a^2 + ... is algebra.generated_by_element,
    the power walk, which forms dim S products per power of a.  The
    subalgebras of a noncommutative A are grown by algebra.closure.
    """
    dom, n = A.dom, A.dim
    if A.is_commutative:
        def grow(S, a):
            return Subspace(dom, n, *generated_by_element(A, a, S))
    else:
        def grow(S, a):
            return closure(A, S, [a])
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
    return SubalgebraLattice.of(A, _search(A, start))
