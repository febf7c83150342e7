"""The batch Hermite basis: Euclid down each column over all remaining rows
at once, then the entries above each pivot reduced, as an oracle for the
incremental fold in intmat.hermite_basis."""


def batch_hermite_basis(rows):
    """Canonical row basis (echelon over Z) of the lattice spanned by rows:
    positive pivots, entries above each pivot in [0, pivot), as lists."""
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


def dense_multiply(table, u, v):
    """Product of integer coordinate vectors through a dense table, term by
    term over all index triples."""
    n = len(u)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            c = u[i] * v[j]
            if c:
                for k in range(n):
                    out[k] += c * table[i][j][k]
    return out


def ideal_fixpoint(zp, vectors):
    """Hermite basis of the relations plus the two-sided ideal of the Z
    presentation zp generated by the vectors: take the basis of the rows and
    of all their products with each generator on both sides, until it
    settles."""
    n = zp.ngens
    gens = [[int(i == j) for i in range(n)] for j in range(n)]
    basis = batch_hermite_basis([*zp.relations, *vectors])
    while True:
        prods = [p for v in basis for g in gens
                 for p in (dense_multiply(zp.table, v, g), dense_multiply(zp.table, g, v))]
        bigger = batch_hermite_basis(basis + prods)
        if bigger == basis:
            return basis
        basis = bigger
