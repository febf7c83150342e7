"""The line-by-line closure search: every member of an F_p subalgebra
lattice grown by every line of the quotient space, as an oracle for
finite_enum's search, which grows each member only by the lines of its
generators' residuals."""

from futility.algebra import closure, generated_by_element
from futility.finite_enum import iter_subspaces
from futility.linalg import Subspace, echelon_pair


def line_search(A, start):
    """Every subalgebra of A that contains start, itself one: each member S
    found is grown by each line of A/S, taken from iter_subspaces on the
    non-pivot coordinates of S.  Every member T containing start is reached,
    since adjoining a basis of T one vector at a time climbs from start to T
    through members."""
    dom, n = A.dom, A.dim
    enter, *_, leave, _ = echelon_pair(dom)
    if A.is_commutative:
        def grow(S, a):
            rows, pivots = generated_by_element(A, enter(a), (tuple(map(enter, S.rows)), S.pivots))
            return Subspace(dom, n, leave(rows, pivots, n), pivots)
    else:
        def grow(S, a):
            return closure(A, S, [a])
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
