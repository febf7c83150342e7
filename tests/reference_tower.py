"""Tower oracles.  The per-entry reduction: the table of a tower level
L[z]/(g), each entry reduced modulo g from its own top degree down, as an
oracle for constructions.extend_by_poly.  The Frobenius chain on reduced
rows: each member the span of the p-th powers of the previous member's
reduced echelon rows, as algebra.frobenius_chain formed it before it kept
the p-th powers of a basis, as an oracle for it.  RatFunc takes no gcd, so
equal tower values can differ in their num and den tuples: exact compares
those."""

from futility.algebra import element_multiply, element_power, invert_element
from futility.domains import RatFunc
from futility.errors import CharacteristicZero
from futility.linalg import full_subspace, subspace_from_vectors, vec_is_zero, zero_vec
from futility.polynomials import Poly


def exact(x):
    """x with every RatFunc replaced by its (num, den) tuples, in tuples, lists
    and Polys, so that == compares representations, not values."""
    if isinstance(x, RatFunc):
        return (x.num, x.den)
    if isinstance(x, (tuple, list)):
        return tuple(map(exact, x))
    if isinstance(x, Poly):
        return exact(x.coeffs)
    return x


def frobenius_chain_on_rows(L):
    """The chain L, KL^p, KL^(p^2), ... down to its stabilization point, each
    member spanned by the p-th powers of the reduced rows of the one before."""
    p = L.dom.char
    if p == 0:
        raise CharacteristicZero("Frobenius chain needs positive characteristic")
    chain = [full_subspace(L.dom, L.dim)]
    while True:
        prev = chain[-1]
        nxt = subspace_from_vectors(L.dom, L.dim, [element_power(L, v, p) for v in prev.rows])
        if nxt.dim == prev.dim:
            return chain
        chain.append(nxt)


def reduce_each_entry(L, coeff_vectors):
    """The (table, unit) of L[z]/(g) for g = sum coeff_vectors[k] z^k, on the
    basis b_i z^e (index e * dim L + i).  g is first made monic by the
    inverse of its leading coefficient, unless that is already the unit.
    Entry (b_i z^e)(b_j z^f) puts b_i b_j at degree e + f, then clears the
    degrees 2d - 1, ..., d one at a time by subtracting the top coefficient
    times g shifted to that degree."""
    dom = L.dom
    coeffs = [tuple(c) for c in coeff_vectors]
    while coeffs and vec_is_zero(dom, coeffs[-1]):
        coeffs.pop()
    d, m = len(coeffs) - 1, L.dim
    if coeffs[-1] != L.unit:
        inv = invert_element(L, coeffs[-1])
        coeffs = [element_multiply(L, inv, c) for c in coeffs]
    table = []
    for i in range(m * d):
        bi, ei = i % m, i // m
        row = []
        for j in range(m * d):
            bj, ej = j % m, j // m
            by_degree = [zero_vec(dom, m) for _ in range(2 * d)]
            by_degree[ei + ej] = element_multiply(L, L.basis_vector(bi), L.basis_vector(bj))
            for t in range(2 * d - 1, d - 1, -1):
                top = by_degree[t]
                if vec_is_zero(dom, top):
                    continue
                by_degree[t] = zero_vec(dom, m)
                for k in range(d):
                    by_degree[t - d + k] = tuple(
                        dom.sub(a, b)
                        for a, b in zip(by_degree[t - d + k], element_multiply(L, top, coeffs[k]))
                    )
            row.append(tuple(c for v in by_degree[:d] for c in v))
        table.append(row)
    unit = (*L.unit, *zero_vec(dom, m * (d - 1)))
    return table, unit
