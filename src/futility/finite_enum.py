"""Exhaustive ground truth over finite prime fields: the full subalgebra
lattice of an F_p algebra.

The lattice comes from one closure search, not a subspace scan.  Write S[a]
for the least subalgebra containing a member S and an element a.  The start
member is grown by each line of the quotient space; each line that gives a
new member is kept as a generator.  Every member S contains the start, so
S[a] is S grown by the generator that gives the same member from the start,
and it depends only on the line of that generator modulo S.  So each later
member is grown only by the distinct lines of its generators' residuals,
and every member is still reached along a chain of such grows.  Over a
commutative algebra S[a] = S + S*a + S*a^2 + ..., the power walk of
algebra.generated_by_element; over a noncommutative one,
algebra.closure_form closes S and a under products.  Either walk stops at
the first grow that lands on a member already found, and neither multiplies
by the row of S at the unit's leading coordinate.  The search holds each
member as its echelon form in the arithmetic of linalg.echelon_pair (over
F_2 rows packed into ints and eliminated by XOR, over any other F_p ints in
[0, p)) and grows it there, products included, and each member becomes one
Subspace when the search returns.  Each call searches afresh and keeps
nothing on the algebra, so every count the enumeration oracle reports comes
from its own search; the containment pairs are computed on first read, so
only the callers that print them pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

from .algebra import StructAlgebra, closure, closure_form, generated_by_element
from .domains import PrimeField
from .errors import BudgetExceeded, DimensionMismatch, ValidationError
from .linalg import Subspace, echelon_pair, zero_subspace

DEFAULT_BUDGET = 1 << 20


@dataclass(frozen=True)
class SubalgebraLattice:
    """All subalgebras of a finite algebra, canonically ordered, with the
    containment pairs."""

    members: tuple  # of Subspace, sorted by canonical key

    @classmethod
    def of(cls, members) -> "SubalgebraLattice":
        return cls(tuple(sorted(members, key=Subspace.key)))

    @property
    def count(self) -> int:
        return len(self.members)

    @cached_property
    def inclusions(self) -> tuple:
        """The (i, j) with members[i] < members[j], in lexicographic order;
        computed on first read.  The pivots of a subspace are the leading
        positions of its nonzero vectors, so a pair whose pivot sets are not
        nested is skipped before the exact check on the members' forms."""
        members = self.members
        masks = [sum(1 << c for c in s.pivots) for s in members]
        return tuple(
            (i, j)
            for i, a in enumerate(members)
            for j, b in enumerate(members)
            if a.dim < b.dim and not masks[i] & ~masks[j] and b.contains_subspace(a)
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

    Write S[a] for the least subalgebra containing S and a.  The start member
    is grown by each line of A/start, taken from iter_subspaces on its
    non-pivot coordinates; for each new member start[a] this finds, a is kept
    as a generator a_g.  Every later member S contains start, so
    S[a] = S[start[a]] = S[a_g] for the generator with start[a_g] = start[a],
    in a commutative or noncommutative A and for any base image, and S[a]
    depends only on the line of a modulo S.  So S is grown only by the
    distinct lines of the residuals of the generators against S, each
    scaled to its canonical vector on the line; a zero residual is skipped,
    since then S[a_g] = S.  Every member T containing start is still reached:
    adjoining the generators that T contains one at a time climbs from start
    to T through members, each step a grow by such a line.  (The lattice is
    a closure system generated by its one-generated members; Ganter, "Two
    basic algorithms in concept analysis", 1984.)

    Over a commutative A a subalgebra S containing the unit is central and
    closed, so S[a] = S + S*a + S*a^2 + ... is algebra.generated_by_element,
    the power walk, which multiplies each new residual by the dim S - 1
    rows of S other than the unit's row.  The subalgebras of a
    noncommutative A are grown by algebra.closure_form.  Both walks take
    found, the members met so far, and return the member at the first grow
    whose rows are one of its keys: the span then holds S and a and lies in
    S[a], so S[a] is that member.  Most grows end so, on a member the search
    already holds.

    Members, generators and lines are held in the arithmetic of the
    domain's linalg.echelon_pair, a member as its echelon form
    (rows, pivots), keyed by its rows, which are canonical.  A residual is
    the pair's reduce of a generator, and grow((), (), r, aux) scales it to
    the canonical vector of its line.  The start lines are drawn from
    iter_subspaces and entered into the pair; each member becomes a
    Subspace, which keeps its form, once, when the search returns.
    """
    dom, n = A.dom, A.dim
    enter, reduce, grow, _, aux, _, nonzero = echelon_pair(dom)
    first = start.form
    # reduced echelon rows are canonical, so over one ambient they are a key
    found = {first[0]: first}
    if A.is_commutative:
        def close(S, a):
            return generated_by_element(A, a, S, found)
    else:
        def close(S, a):
            return closure_form(A, S, [a], found=found)
    todo, gens = [], []
    free = [c for c in range(n) if c not in start.pivots]
    for line in iter_subspaces(dom, len(free)):
        if line.dim == 0:
            continue
        if line.dim > 1:
            break
        a = [dom.zero] * n
        for c, x in zip(free, line.rows[0]):
            a[c] = x
        a = enter(a)
        T = close(first, a)
        if T[0] not in found:
            found[T[0]] = T
            todo.append(T)
            gens.append(a)
    while todo:
        rows, pivots = S = todo.pop()
        tried = set()
        for g in gens:
            r = reduce(rows, pivots, g, aux)
            if not nonzero(r):
                continue
            (r,), _ = grow((), (), r, aux)
            if r in tried:
                continue
            tried.add(r)
            T = close(S, r)
            if T[0] not in found:
                found[T[0]] = T
                todo.append(T)
    return [Subspace.of_form(dom, n, form) for form in found.values()]


def enumerate_subalgebras(
    A: StructAlgebra, base_image: Subspace, budget: int = DEFAULT_BUDGET
) -> SubalgebraLattice:
    """All multiplication-closed subspaces containing the base image and the
    unit: the closure search from the subalgebra they generate, once the
    field, the budget and the base image's ambient are checked."""
    if not isinstance(A.dom, PrimeField):
        raise ValidationError("exhaustive enumeration needs an F_p algebra")
    if A.dom.p**A.dim > budget:
        raise BudgetExceeded(f"{A.dom.p}^{A.dim} exceeds the enumeration budget {budget}")
    if base_image.ambient != A.dim:
        raise DimensionMismatch("base image lives in the wrong space")
    start = closure(A, zero_subspace(A.dom, A.dim), [*base_image.rows, A.unit])
    return SubalgebraLattice.of(_search(A, start))
