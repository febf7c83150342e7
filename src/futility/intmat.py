"""Integer matrix normal forms: Smith normal form and Hermite bases of
lattices, used for finitely presented Z-modules.

All arithmetic is exact Python-int arithmetic; matrices are lists of lists.
Lattice work runs on one reduce/adjoin pair of Hermite bases (sequences of
int tuples), hnf_reduce and hnf_adjoin.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class SNFResult:
    """D = U * M * V with U, V unimodular and D diagonal, d1 | d2 | ..."""

    U: tuple
    D: tuple
    V: tuple
    invariant_factors: tuple
    rank: int


def _ident(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(M) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns U, D, V with D = U*M*V, nonnegative diagonal entries forming a
    divisibility chain, plus the nonzero invariant factors and the rank.
    Empty matrices are allowed.
    """
    A = [list(map(int, row)) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    U = _ident(m)
    V = _ident(n)

    def swap_rows(i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in A:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row i += q * row j
        A[i] = [a + q * b for a, b in zip(A[i], A[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]

    def add_col(i, j, q):
        # col i += q * col j
        for row in A:
            row[i] += q * row[j]
        for row in V:
            row[i] += q * row[j]

    t = 0
    while t < min(m, n):
        # smallest nonzero entry of the trailing block becomes the pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            # Euclid on column t
            for i in range(t + 1, m):
                while A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    add_row(i, t, -q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
            # Euclid on row t (may dirty the column again)
            for j in range(t + 1, n):
                while A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    add_col(j, t, -q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
            if any(A[i][t] for i in range(t + 1, m)):
                continue
            if any(A[t][j] for j in range(t + 1, n)):
                continue
            # divisibility sweep: fold any non-divisible entry into row t
            viol = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % A[t][t] != 0:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            add_row(t, viol, 1)
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
        t += 1

    diag = [A[i][i] for i in range(min(m, n))]
    inv = tuple(d for d in diag if d != 0)
    return SNFResult(
        U=tuple(tuple(r) for r in U),
        D=tuple(tuple(r) for r in A),
        V=tuple(tuple(r) for r in V),
        invariant_factors=inv,
        rank=len(inv),
    )


def det_int(rows) -> int:
    """Exact determinant via rational Gaussian elimination."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if a[r][c]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    assert det.denominator == 1
    return int(det)


def hnf_reduce(basis, vec) -> tuple:
    """The canonical representative of vec modulo the lattice with Hermite
    basis `basis`: each pivot entry is reduced into [0, pivot) against its
    row.  Two vectors get the same one exactly when their difference lies
    in the lattice, so it is zero exactly on the lattice."""
    v = tuple(vec)
    for row in basis:
        p = _lead(row)
        q = v[p] // row[p]
        if q:
            v = tuple([x - q * y for x, y in zip(v, row)])
    return v


def hnf_adjoin(basis, residual) -> tuple:
    """The Hermite basis of `basis` and a nonzero residual of hnf_reduce: one
    xgcd step with each row whose pivot column is the residual's leading
    column, what is left of the residual as a new pivot row, then the
    entries above each pivot reduced into [0, pivot) again."""
    v, lead = residual, _lead(residual)
    rows, pivots = [], []
    for row in basis:
        p = _lead(row)
        if p == lead:
            g, s, t = _xgcd(row[p], v[p])
            a, b = row[p] // g, v[p] // g
            row, v = (tuple([s * x + t * y for x, y in zip(row, v)]),
                      [a * y - b * x for x, y in zip(row, v)])
            lead = _lead(v)
        rows.append(row)
        pivots.append(p)
    if lead is not None:
        at = bisect.bisect(pivots, lead)
        rows.insert(at, tuple([x if v[lead] > 0 else -x for x in v]))
        pivots.insert(at, lead)
    for i, p in enumerate(pivots):
        for j in range(i):
            q = rows[j][p] // rows[i][p]
            if q:
                rows[j] = tuple([x - q * y for x, y in zip(rows[j], rows[i])])
    return tuple(rows)


def _lead(row) -> int | None:
    """The column of the first nonzero entry of a row; None for zero."""
    for i, x in enumerate(row):
        if x:
            return i
    return None


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) > 0 and s*a + t*b = g."""
    s, t, s1, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, s, s1, t, t1 = b, a - q * b, s1, s - q * s1, t1, t - q * t1
    return (a, s, t) if a > 0 else (-a, -s, -t)


def hermite_basis(rows) -> list:
    """Canonical row basis (echelon over Z) of the lattice spanned by rows:
    positive pivots, entries above each pivot in [0, pivot).  The fold of
    hnf_reduce and hnf_adjoin over the rows."""
    basis = ()
    for row in rows:
        residual = hnf_reduce(basis, map(int, row))
        if any(residual):
            basis = hnf_adjoin(basis, residual)
    return list(basis)


def lattice_contains(basis, vec) -> bool:
    """Membership of an integer vector in the lattice with Hermite basis."""
    return not any(hnf_reduce(basis, vec))


def lattice_index(big, small) -> int | None:
    """Index [big : small] of nested lattices given by row sets, or None if
    infinite (ranks differ).  small must be contained in big; their Hermite
    bases then share pivot columns, and the index is the ratio of the pivot
    products."""
    big, small = hermite_basis(big), hermite_basis(small)
    if len(big) != len(small):
        return None
    if not all(lattice_contains(big, r) for r in small):
        raise ValueError("small lattice not contained in big lattice")
    return math.prod(r[_lead(r)] for r in small) // math.prod(r[_lead(r)] for r in big)
