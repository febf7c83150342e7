"""The structure tables as each builder formed them with a loop of its own:
the matrix-unit table, the re-presentations of a subalgebra and of a local
factor on their own bases and the per-triple associativity check of a Z
presentation, as oracles for constructions.matrix_algebra,
algebra._algebra_on and algebra.first_nonassociative.  Two builders serve
the tests as inputs only: the upper triangular matrices and a change of
basis, which no command needs."""

from futility.algebra import _int_multiply, element_multiply, make_algebra
from futility.errors import MalformedPresentation, ValidationError
from futility.intmat import hermite_basis, lattice_contains
from futility.linalg import solve, subspace_from_vectors, zero_vec


def matrix_algebra(dom, size):
    n = size * size

    def idx(a, b):
        return a * size + b

    table = [[zero_vec(dom, n) for _ in range(n)] for _ in range(n)]
    for a in range(size):
        for b in range(size):
            for c in range(size):
                for d in range(size):
                    vec = [dom.zero] * n
                    if b == c:
                        vec[idx(a, d)] = dom.one
                    table[idx(a, b)][idx(c, d)] = tuple(vec)
    unit = [dom.zero] * n
    for a in range(size):
        unit[idx(a, a)] = dom.one
    return make_algebra(dom, table, unit)


def upper_triangular_algebra(dom, size):
    pos = [(a, b) for a in range(size) for b in range(a, size)]
    index = {ab: i for i, ab in enumerate(pos)}
    n = len(pos)
    table = [[zero_vec(dom, n) for _ in range(n)] for _ in range(n)]
    for i, (a, b) in enumerate(pos):
        for j, (c, d) in enumerate(pos):
            vec = [dom.zero] * n
            if b == c:
                vec[index[(a, d)]] = dom.one
            table[i][j] = tuple(vec)
    unit = [dom.zero] * n
    for a in range(size):
        unit[index[(a, a)]] = dom.one
    return make_algebra(dom, table, unit)


def subalgebra_to_algebra(A, s):
    if not s.contains(A.unit):
        raise ValidationError("subspace does not contain the unit")
    rows = s.rows
    table = []
    for u in rows:
        line = []
        for v in rows:
            prod = element_multiply(A, u, v)
            if not s.contains(prod):
                raise ValidationError("subspace is not multiplication closed")
            line.append(s.coords(prod))
        table.append(line)
    unit = s.coords(A.unit)
    return make_algebra(A.dom, table, unit), rows


def change_of_basis(A, new_basis_rows):
    dom = A.dom
    n = A.dim
    rows = [tuple(r) for r in new_basis_rows]
    span = subspace_from_vectors(dom, n, rows)
    if span.dim != n:
        raise ValidationError("change of basis needs an invertible matrix")
    table = []
    for u in rows:
        line = []
        for v in rows:
            prod = element_multiply(A, u, v)
            line.append(solve(dom, rows, prod))
        table.append(line)
    unit = solve(dom, rows, A.unit)
    return make_algebra(dom, table, unit)


def peel_factor(A, e):
    vecs = [element_multiply(A, e, A.basis_vector(i)) for i in range(A.dim)]
    s = subspace_from_vectors(A.dom, A.dim, vecs)
    table = [[s.coords(element_multiply(A, u, v)) for v in s.rows] for u in s.rows]
    C = make_algebra(A.dom, table, s.coords(e))
    return C, tuple(s.coords(v) for v in vecs)


def check_z_presentation(ngens, relations, table, unit):
    """The checks ZPresentation runs at construction, its associativity
    check one generator triple at a time: MalformedPresentation at the first
    failure."""
    n = ngens
    for r in relations:
        if len(r) != n:
            raise MalformedPresentation("relation row has wrong length")
    if len(table) != n or any(len(row) != n for row in table):
        raise MalformedPresentation("multiplication table is not ngens x ngens")
    for row in table:
        for v in row:
            if len(v) != n:
                raise MalformedPresentation("table entry has wrong length")
    if len(unit) != n:
        raise MalformedPresentation("unit vector has wrong length")
    basis = hermite_basis(relations)
    sparse = [[[(k, c) for k, c in enumerate(v) if c] for v in block] for block in table]

    def mul_vec(u, v):
        return _int_multiply(sparse, n, u, v)

    def gen(j):
        return tuple(1 if i == j else 0 for i in range(n))

    def vsub(a, b):
        return [x - y for x, y in zip(a, b)]

    for r in relations:
        for g in map(gen, range(n)):
            if not (lattice_contains(basis, mul_vec(r, g)) and lattice_contains(basis, mul_vec(g, r))):
                raise MalformedPresentation("relation lattice is not an ideal for the given table")
    for j in range(n):
        g = gen(j)
        if not (lattice_contains(basis, vsub(mul_vec(unit, g), g))
                and lattice_contains(basis, vsub(mul_vec(g, unit), g))):
            raise MalformedPresentation(f"unit law fails at generator {j}")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = mul_vec(table[i][j], gen(k))
                rhs = mul_vec(gen(i), table[j][k])
                if not lattice_contains(basis, vsub(lhs, rhs)):
                    raise MalformedPresentation(f"associativity fails at generator triple ({i}, {j}, {k})")


def scan_with_blocks(scan, T, combine, middle):
    """scan(T, combine, middle) and, for each i, the least k among the blocks
    that the scan formed for the triples (i, j, k).  The combine calls come
    in pairs for one (i, j), a restricted scan and the full scan after a
    failure alike: the left side, which reads rows[l] at k*n + m, then the
    right side, whose terms carry the offsets k*n and whose rows are T[i]
    itself, which tells i."""
    n = len(T)
    least = [n] * n
    pending = []

    def watched(size, terms, rows):
        if pending:
            i = next(i for i in range(n) if rows is T[i])
            starts = pending.pop() + [off for off, _, _ in terms]
            least[i] = min([least[i]] + [s // n for s in starts])
        else:
            pending.append([m for _, l, _ in terms for m, _ in rows[l]])
        return combine(size, terms, rows)

    return scan(T, watched, middle), least
