"""Every subspace of F_p^n by one generic loop over dimensions, pivot columns
and free entries, as an oracle for the order in which
finite_enum.iter_subspaces yields them."""

from itertools import combinations, product

from futility.linalg import Subspace, subspace_from_vectors


def generic_subspaces(dom, n):
    """Every subspace of F_p^n, one canonical echelon basis each: the zero
    subspace, then by dimension r, pivot columns in combinations order and
    the entries right of each pivot outside the pivot columns in
    itertools.product order."""
    p = dom.p
    yield subspace_from_vectors(dom, n, [])
    for r in range(1, n + 1):
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
