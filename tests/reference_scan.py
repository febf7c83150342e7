"""The brute-force subspace scan: every subalgebra of an F_p algebra found by
trying each subspace above the unit line, as a count and member list
independent of finite_enum's closure search."""

from futility.algebra import element_multiply
from futility.finite_enum import iter_subspaces
from futility.linalg import subspace_from_vectors


def scan_subalgebras(A, base_image=None):
    """Every subalgebra of A that contains the base image (none: just the
    unit), sorted by Subspace.key.  Let V0 be the span of the unit and the
    base image.  A subspace containing V0 is V0 + W for exactly one
    subspace W of the coordinates outside V0's pivots, which is a copy of
    A/V0; each W from iter_subspaces is tried, and V0 + W is kept when the
    products of its basis rows lie in it."""
    dom, n = A.dom, A.dim
    start = subspace_from_vectors(dom, n, [A.unit, *(base_image.rows if base_image else ())])
    free = [c for c in range(n) if c not in start.pivots]
    members = []
    for W in iter_subspaces(dom, len(free)):
        lifted = []
        for row in W.rows:
            vec = [dom.zero] * n
            for c, x in zip(free, row):
                vec[c] = x
            lifted.append(vec)
        S = subspace_from_vectors(dom, n, [*start.rows, *lifted])
        if all(S.contains(element_multiply(A, u, v)) for u in S.rows for v in S.rows):
            members.append(S)
    return tuple(sorted(members, key=lambda S: S.key()))
