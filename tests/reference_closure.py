"""The span-and-multiply fixpoint: the closure of a set of vectors under
products, computed from the definition as an oracle for algebra.closure and
everything built on it."""

from futility.algebra import element_multiply
from futility.linalg import subspace_from_vectors


def span_and_multiply(A, vectors, ideal=False):
    """The least subalgebra (with ideal=True, two-sided ideal) containing the
    vectors: span them, then add every product of two spanning rows (of a
    spanning row and a basis vector, on both sides) and span again, until the
    dimension settles.  The vectors must include the unit for a subalgebra."""
    basis = [A.basis_vector(k) for k in range(A.dim)]
    span = subspace_from_vectors(A.dom, A.dim, list(vectors))
    while True:
        if ideal:
            prods = [p for v in span.rows for e in basis
                     for p in (element_multiply(A, e, v), element_multiply(A, v, e))]
        else:
            prods = [element_multiply(A, u, v) for u in span.rows for v in span.rows]
        bigger = subspace_from_vectors(A.dom, A.dim, [*span.rows, *prods])
        if bigger.dim == span.dim:
            return bigger
        span = bigger
