"""The local decomposition and the minimal polynomial as they were formed
before algebra ran each as one walk: the decomposition through the quotient
R = A/N, a primitive element of R and the Newton lift e <- 3e^2 - 2e^3 of
each CRT idempotent of R along N, with each factor e*A peeled into an
algebra of its own, the minimal polynomial by one solve per power, and the
trace form on the domain's elements.  Oracles for
algebra.local_decomposition, whose numbers per factor are read off A with
no factor formed, algebra.minimal_polynomial, and algebra.int_trace_form,
the trace form on ints that nilradical takes the kernel of."""

from dataclasses import dataclass

from futility.algebra import (
    _algebra_on,
    element_multiply,
    nilradical,
    primitive_element,
    quotient_algebra,
    subspace_product,
)
from futility.domains import QQ
from futility.errors import UnsupportedDomain, ValidationError
from futility.linalg import combine, solve, subspace_from_vectors, vec_is_zero
from futility.polynomials import domain_kernel, factor_over_rationals, kernel_xgcd, make_poly, pmul, pquo


@dataclass(frozen=True)
class PeeledFactor:
    """One local factor of a commutative algebra over Q: the primitive
    idempotent e cutting it out, the factor presented as an algebra on the
    ideal e*A with unit e, and the projection rows A -> factor coordinates
    (row i holds the coordinates of e*e_i)."""

    idempotent: tuple
    algebra: object
    projection: tuple


def trace_form(A):
    """Rows of the trace form, row i = (Tr(e_i e_j))_j with Tr the trace of
    left multiplication: Tr(e_i e_j) = sum_k c_ijk tau_k, with tau = A.traces.
    O(dim^3) on the sparse tensor."""
    dom, tau = A.dom, A.traces
    rows = []
    for block in A.sparse:
        row = []
        for v in block:
            acc = dom.zero
            for k, c in v:
                acc = dom.add(acc, dom.mul(c, tau[k]))
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def peel_factor(A, e):
    """The ideal e*A as an algebra with unit e, and the projection rows:
    row i holds the coordinates of e*e_i in the ideal's echelon basis."""
    vecs = [element_multiply(A, e, A.basis_vector(i)) for i in range(A.dim)]
    s = subspace_from_vectors(A.dom, A.dim, vecs)
    return _algebra_on(A, s.rows, s.coords, s.coords(e)), tuple(s.coords(v) for v in vecs)


def factor_numbers(C):
    """(dim, nil_dim, nil_mod_nil2_dim) of a local factor algebra C, from its
    own nilradical N and N^2."""
    nil = nilradical(C)
    return C.dim, nil.dim, nil.dim - subspace_product(C, nil, nil).dim


def local_profile(A, seed=0):
    """The sorted (dim, nil_dim, nil_mod_nil2_dim) of the peeled factors."""
    return sorted(factor_numbers(lf.algebra) for lf in local_decomposition(A, seed))


def minimal_polynomial(A, a, ideal=None):
    """The monic least-degree f with f(a) = 0, or with f(a) in the ideal:
    each power of a in turn is solved for against the powers before it and
    the ideal's rows."""
    dom = A.dom
    extra = list(ideal.rows) if ideal is not None else []
    powers = []
    cur = A.unit
    while True:
        coeffs = solve(dom, powers + extra, cur)
        if coeffs is not None:
            # x^k - sum coeffs_i x^i
            body = [dom.neg(c) for c in coeffs[:len(powers)]] + [dom.one]
            return make_poly(dom, body)
        powers.append(cur)
        cur = element_multiply(A, cur, a)


def local_decomposition(A, seed=0):
    """The local factors of a commutative algebra over Q, sorted by
    (dim, nil_dim), through R = A/N: a primitive element b of R has a
    squarefree minimal polynomial f = g_1 ... g_k; with h_i = f/g_i and
    s*g_i + t*h_i = 1, (t*h_i)(b) is the idempotent of R cutting out
    Q[x]/(g_i), and the Newton step e -> 3e^2 - 2e^3 lifts it along N."""
    if not A.is_commutative:
        raise ValidationError("local decomposition needs a commutative algebra")
    if A.dim == 0:
        return []
    dom = A.dom
    if dom != QQ:
        raise UnsupportedDomain("local decomposition runs over Q")
    whole = [PeeledFactor(A.unit, A, tuple(A.basis_vector(i) for i in range(A.dim)))]
    nil = nilradical(A)
    R, _ = quotient_algebra(A, nil)
    if R.dim == 1:
        return whole
    b, f = primitive_element(R, seed)
    fac = factor_over_rationals(f, seed=0)
    if any(m > 1 for _, m in fac.factors):
        raise ValidationError("semisimple quotient produced a repeated factor")
    if len(fac.factors) == 1:
        return whole
    powers = [R.unit]
    while len(powers) < R.dim:
        powers.append(element_multiply(R, powers[-1], b))
    # R's basis is A's basis vectors off the pivots of N
    section = [A.basis_vector(j) for j in range(A.dim) if j not in nil.pivots]
    three, two = dom.from_int(3), dom.from_int(2)
    out = []
    for g, _ in fac.factors:
        h = pquo(f, g)
        one, _, t = kernel_xgcd(domain_kernel(dom), g, h)
        assert one.degree == 0
        e = combine(dom, combine(dom, pmul(t, h).coeffs, powers, R.dim), section, A.dim)
        for _ in range(A.dim + 2):
            sq = element_multiply(A, e, e)
            if sq == e:
                break
            cube = element_multiply(A, sq, e)
            e = tuple(dom.sub(dom.mul(three, x), dom.mul(two, y)) for x, y in zip(sq, cube))
        if element_multiply(A, e, e) != e:
            raise ValidationError("idempotent lifting failed to converge")
        if e == A.unit or vec_is_zero(dom, e):
            raise ValidationError("idempotent lifting collapsed to a trivial idempotent")
        C, projection = peel_factor(A, e)
        out.append((C.dim, C.dim - g.degree, PeeledFactor(e, C, projection)))
    out.sort(key=lambda entry: entry[:2])
    return [lf for _, _, lf in out]
