"""The subalgebras of a product A x B over F_p by Goursat's quintuples, as
an oracle for the closure search of finite_enum.enumerate_subalgebras on
the product.

A subalgebra of A x B is the graph {(a, b) : phi(a mod I) = b mod J} of an
isomorphism phi: C/I -> D/J, for subalgebras C of A and D of B and
two-sided ideals I of C and J of D, and each quintuple (C, D, I, J, phi)
gives a different one.  The subalgebras of each side come from
enumerate_subalgebras, their ideals from a scan of every subspace and the
isomorphisms from a scan of every matrix, so the product itself is never
searched."""

from itertools import product

from futility.algebra import element_multiply, product_algebra, quotient_algebra, subalgebra_to_algebra
from futility.domains import PrimeField
from futility.errors import BudgetExceeded, DimensionMismatch, ValidationError
from futility.finite_enum import DEFAULT_BUDGET, SubalgebraLattice, enumerate_subalgebras, iter_subspaces
from futility.linalg import combine, subspace_from_vectors, unit_vec, zero_vec


def scan_ideals(A):
    """Scan every subspace of F_p^n, keep those closed under multiplication
    by each basis vector on both sides, in canonical order."""
    basis = [A.basis_vector(i) for i in range(A.dim)]
    members = [
        s for s in iter_subspaces(A.dom, A.dim)
        if all(s.contains(element_multiply(A, e, v)) and s.contains(element_multiply(A, v, e))
               for v in s.rows for e in basis)
    ]
    return sorted(members, key=lambda s: s.key())


def enumerate_isomorphisms(C, D, budget=DEFAULT_BUDGET):
    """All unital algebra isomorphisms C -> D as matrices (row i = image of
    basis vector i of C in D coordinates), by brute force over invertible
    matrices."""
    if C.dom != D.dom:
        raise ValidationError("isomorphism enumeration needs a common field")
    if not isinstance(C.dom, PrimeField):
        raise ValidationError("isomorphism enumeration needs an F_p algebra")
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


def goursat_enumerate(A, B, budget=DEFAULT_BUDGET):
    """Subalgebras of A x B built from quintuples (C, D, I, J, phi) with
    phi an isomorphism C/I -> D/J; the graph construction
    {(a, b) : phi(a mod I) = b mod J} realizes each subalgebra exactly once.
    """
    AB = product_algebra([A, B])
    dom = A.dom

    def side(X):
        unitX = subspace_from_vectors(dom, X.dim, [X.unit])
        out = []
        for S in enumerate_subalgebras(X, unitX, budget).members:
            Salg, Srows = subalgebra_to_algebra(X, S)
            quotients = []
            for I in scan_ideals(Salg):
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
    return SubalgebraLattice.of(members)
