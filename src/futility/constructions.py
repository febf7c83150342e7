"""Builders for the standard algebra presentations: polynomial quotients,
matrix algebras, upper triangular algebras, and tower extensions of a
quotient by a further monic polynomial."""

from __future__ import annotations

from .algebra import StructAlgebra, check_dimension, element_multiply, invert_element, make_algebra
from .domains import ScalarDomain
from .errors import ValidationError
from .linalg import unit_vec, vec_is_zero, zero_vec
from .polynomials import Poly, pmonic


def poly_quotient_algebra(modulus: Poly) -> StructAlgebra:
    """dom[x]/(modulus) on the basis 1, x, ..., x^(deg-1).

    The leading coefficient must be invertible; the quotient is unchanged
    by making the modulus monic.
    """
    dom = modulus.dom
    if modulus.is_zero or modulus.degree < 1:
        raise ValidationError("quotient modulus must have positive degree")
    check_dimension(modulus.degree)
    try:
        inv = dom.inv(modulus.lc)
    except Exception as exc:
        raise ValidationError(f"leading coefficient is not invertible: {exc}") from exc
    monic = pmonic(modulus) if dom.is_field else _scale_poly(modulus, inv)
    n = monic.degree
    # x^(i+j) mod modulus, precomputed for exponents up to 2n-2
    powers = []
    cur = [dom.zero] * n
    cur[0] = dom.one
    for e in range(2 * n - 1):
        powers.append(tuple(cur))
        cur = _shift_reduce(dom, cur, monic)
    table = [[powers[i + j] for j in range(n)] for i in range(n)]
    unit = unit_vec(dom, n, 0)
    return make_algebra(dom, table, unit)


def _scale_poly(f: Poly, c) -> Poly:
    from .polynomials import pscale

    return pscale(f, c)


def _shift_reduce(dom, coeffs, monic: Poly):
    """Multiply the residue by x and reduce once against the monic modulus."""
    n = monic.degree
    out = [dom.zero] * (n + 1)
    for i, c in enumerate(coeffs):
        out[i + 1] = c
    top = out[n]
    if not dom.is_zero(top):
        for i in range(n):
            out[i] = dom.sub(out[i], dom.mul(top, monic.coeffs[i]))
    return out[:n]


def matrix_algebra(dom: ScalarDomain, size: int) -> StructAlgebra:
    """Full matrix algebra on the basis of matrix units, row-major."""
    n = size * size
    check_dimension(n)

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


def upper_triangular_algebra(dom: ScalarDomain, size: int) -> StructAlgebra:
    """Upper triangular matrices on the basis E_ab with a <= b."""
    check_dimension(size * (size + 1) // 2)
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


def extend_by_poly(L: StructAlgebra, coeff_vectors) -> tuple[StructAlgebra, tuple, tuple]:
    """Quotient L[z]/(g) for g = sum coeff_vectors[k] z^k with an invertible
    leading coefficient.

    Returns the extension, the coordinates of z, and the rows embedding L.
    Inverting a zero-divisor leading coefficient raises NotAField with the
    witness, which is how non-field tower levels surface.
    """
    dom = L.dom
    coeffs = [tuple(c) for c in coeff_vectors]
    while coeffs and vec_is_zero(dom, coeffs[-1]):
        coeffs.pop()
    d = len(coeffs) - 1
    if d < 1:
        raise ValidationError("tower modulus must have positive degree")
    if coeffs[-1] != L.unit:
        inv = invert_element(L, coeffs[-1])
        coeffs = [element_multiply(L, inv, c) for c in coeffs]
    m = L.dim
    n = m * d
    check_dimension(n)

    # elements are lists of d vectors in L (coefficients of z^0 .. z^(d-1))
    def flatten(vec_list):
        flat = []
        for v in vec_list:
            flat.extend(v)
        return tuple(flat)

    table = []
    for i in range(n):
        bi, ei = i % m, i // m  # basis vector bi of L times z^ei
        row = []
        for j in range(n):
            bj, ej = j % m, j // m
            prod_l = element_multiply(L, L.basis_vector(bi), L.basis_vector(bj))
            e = ei + ej
            vec_list = [zero_vec(dom, m) for _ in range(2 * d)]
            vec_list[e] = prod_l
            # reduce degrees >= d one at a time from the top
            for t in range(2 * d - 1, d - 1, -1):
                top = vec_list[t]
                if vec_is_zero(dom, top):
                    continue
                vec_list[t] = zero_vec(dom, m)
                for k in range(d):
                    vec_list[t - d + k] = tuple(
                        dom.sub(a, b)
                        for a, b in zip(vec_list[t - d + k], element_multiply(L, top, coeffs[k]))
                    )
            row.append(flatten(vec_list[:d]))
        table.append(row)
    unit_list = [L.unit] + [zero_vec(dom, m)] * (d - 1)
    ext = make_algebra(dom, table, flatten(unit_list))
    gen = [zero_vec(dom, m)] * d
    if d > 1:
        gen[1] = L.unit
        gen_vec = flatten(gen)
    else:
        # degree-1 modulus: z = -coeffs[0]
        gen_vec = flatten([tuple(dom.neg(c) for c in coeffs[0])])
    lift = tuple(flatten([L.basis_vector(i)] + [zero_vec(dom, m)] * (d - 1)) for i in range(m))
    return ext, gen_vec, lift
