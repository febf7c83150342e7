"""Integer matrix normal forms: Smith normal form and Hermite-style
lattice bases, used for finitely presented Z-modules.

All arithmetic is exact Python-int arithmetic; matrices are lists of lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .domains import QQ
from .linalg import solve


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


def hermite_basis(rows) -> list:
    """Canonical row basis (echelon over Z) of the lattice spanned by rows.

    Pivot entries are positive and entries above each pivot are reduced into
    [0, pivot); the result is a canonical generating set.
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    if not work:
        return []
    n = len(work[0])
    basis = []
    col = 0
    while work and col < n:
        cand = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not cand:
            work = rest
            col += 1
            continue
        # Euclid among the candidates until a single pivot row remains
        while len(cand) > 1:
            cand.sort(key=lambda r: abs(r[col]))
            a = cand[0]
            out = [a]
            for r in cand[1:]:
                q = r[col] // a[col]
                r2 = [x - q * y for x, y in zip(r, a)]
                if r2[col] != 0:
                    out.append(r2)
                elif any(r2):
                    rest.append(r2)
            if len(out) == 1:
                break
            cand = out
        piv = cand[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        work = rest
        col += 1
    # reduce entries above each pivot into [0, pivot)
    for i in range(len(basis)):
        pcol = next(k for k, x in enumerate(basis[i]) if x)
        for j in range(i):
            q = basis[j][pcol] // basis[i][pcol]
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
    return basis


def lattice_contains(basis, vec) -> bool:
    """Membership of an integer vector in the lattice with Hermite basis."""
    v = list(map(int, vec))
    for row in basis:
        pcol = next(i for i, x in enumerate(row) if x)
        if v[pcol] % row[pcol] == 0:
            q = v[pcol] // row[pcol]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def lattice_index(big, small) -> int | None:
    """Index [big : small] of nested lattices given by row bases, or None if
    infinite (ranks differ).  small must be contained in big."""
    if len(big) != len(small):
        return None
    if not big:
        return 1
    coords = []
    for r in small:
        c = solve_integer(big, r)
        if c is None:
            raise ValueError("small lattice not contained in big lattice")
        coords.append(c)
    d = det_int(coords)
    if d == 0:
        return None
    return abs(d)


def solve_integer(basis, vec):
    """Express vec as an integer combination of the basis rows, or None."""
    sol = solve(QQ, [[Fraction(x) for x in r] for r in basis], [Fraction(x) for x in vec])
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    return [int(x) for x in sol]
