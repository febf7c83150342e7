"""Reduced row echelon subspaces: canonicality, membership, nullspace."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from futility.domains import QQ, PrimeField, RationalField
from futility.errors import DimensionMismatch
from futility.linalg import (
    Subspace,
    combine,
    fp_adjoin,
    fp_reduce,
    full_subspace,
    int_adjoin,
    int_reduce,
    int_subspace,
    mat_mul,
    nullspace,
    primitive,
    rref,
    solve,
    subspace_from_vectors,
    subspace_sum,
    unit_vec,
    zero_subspace,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_rref_canonical_pivots():
    rows, pivots = rref(QQ, [(Fraction(2), Fraction(4)), (Fraction(1), Fraction(2))])
    assert rows == ((Fraction(1), Fraction(2)),)
    assert pivots == (0,)


def test_subspace_equality_is_representation_equality():
    a = subspace_from_vectors(QQ, 3, [(Fraction(1), Fraction(1), Fraction(0)), (Fraction(0), Fraction(0), Fraction(1))])
    b = subspace_from_vectors(
        QQ, 3, [(Fraction(2), Fraction(2), Fraction(2)), (Fraction(0), Fraction(0), Fraction(5))]
    )
    assert a == b


def test_membership_and_reduce():
    s = subspace_from_vectors(F5, 3, [(1, 2, 0), (0, 0, 1)])
    assert s.contains((1, 2, 3))
    assert not s.contains((1, 0, 0))
    with pytest.raises(DimensionMismatch):
        s.contains((1, 0))


def test_coords_roundtrip():
    s = subspace_from_vectors(QQ, 3, [(Fraction(1), Fraction(0), Fraction(2)), (Fraction(0), Fraction(1), Fraction(3))])
    v = (Fraction(2), Fraction(5), Fraction(19))
    c = s.coords(v)
    rebuilt = [QQ.zero] * 3
    for coeff, row in zip(c, s.rows):
        rebuilt = [QQ.add(x, QQ.mul(coeff, y)) for x, y in zip(rebuilt, row)]
    assert tuple(rebuilt) == v


@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4), min_size=0, max_size=5))
def test_rref_idempotent_over_f5(mat):
    vecs = [tuple(x % 5 for x in row) for row in mat]
    s = subspace_from_vectors(F5, 4, vecs)
    again = subspace_from_vectors(F5, 4, s.rows)
    assert s == again
    for v in vecs:
        assert s.contains(v)


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=1, max_size=4))
def test_nullspace_annihilates(mat):
    rows = [tuple(Fraction(x) for x in row) for row in mat]
    for v in nullspace(QQ, rows, 3):
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
    s = subspace_from_vectors(QQ, 3, rows)
    assert s.dim + len(nullspace(QQ, rows, 3)) == 3


def test_sum_and_full():
    a = subspace_from_vectors(F2, 3, [(1, 0, 0)])
    b = subspace_from_vectors(F2, 3, [(0, 1, 0), (0, 0, 1)])
    assert subspace_sum(a, b) == full_subspace(F2, 3)
    assert zero_subspace(F2, 3).dim == 0


def test_mat_inv_roundtrip():
    m = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
    inv = ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(2)))
    prod = mat_mul(QQ, m, inv)
    assert prod == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_subspace_key_hashable():
    s = subspace_from_vectors(F2, 2, [(1, 1)])
    t = subspace_from_vectors(F2, 2, [(1, 1), (0, 0)])
    assert s.key() == t.key()
    assert len({s.key(), t.key()}) == 1


def _vecs(dom, *rows):
    return [tuple(dom.from_int(x) for x in row) for row in rows]


@pytest.mark.parametrize("dom", [QQ, F3])
def test_solve_recombines_target_in_span(dom):
    rows = _vecs(dom, (1, 0, 2, 1), (0, 1, 1, 2))
    target = _vecs(dom, (2, 1, 5, 4))[0]
    x = solve(dom, rows, target)
    assert x == (dom.from_int(2), dom.from_int(1))
    assert combine(dom, x, rows, 4) == target


@pytest.mark.parametrize("dom", [QQ, F3])
def test_solve_outside_span_is_none(dom):
    rows = _vecs(dom, (1, 0, 2, 1), (0, 1, 1, 2))
    assert solve(dom, rows, _vecs(dom, (0, 0, 1, 0))[0]) is None
    assert solve(dom, [], _vecs(dom, (0, 1, 0, 0))[0]) is None


@pytest.mark.parametrize("dom", [QQ, F3])
def test_solve_dependent_rows_particular_solution(dom):
    rows = _vecs(dom, (1, 1, 0), (2, 2, 0), (0, 1, 1))
    target = _vecs(dom, (1, 2, 1))[0]
    x = solve(dom, rows, target)
    assert x is not None and dom.is_zero(x[1])  # the free coefficient is zero
    assert combine(dom, x, rows, 3) == target


@pytest.mark.parametrize("dom", [QQ, F3])
def test_combine_empty_rows_is_zero_vector(dom):
    assert combine(dom, (), [], 3) == (dom.zero,) * 3
    assert solve(dom, [], (dom.zero,) * 3) == ()


class GenericRationals(RationalField):
    """The rationals under another type: != QQ, so rref takes the generic
    loop instead of the fraction-free one."""


GENERIC_QQ = GenericRationals()

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def rational_matrices(draw):
    """Rows of small rationals, with a repeated row and a zero row mixed in
    at random positions."""
    ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[rationals] * ncols), max_size=6))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), (Fraction(0),) * ncols)
    return rows


@given(rational_matrices())
@example([])
@example([(Fraction(0),) * 3] * 2)
@example([(Fraction(1, 2), Fraction(-3)), (Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(-3))])
def test_rref_over_q_matches_generic_loop(mat):
    assert GENERIC_QQ != QQ
    fast = rref(QQ, mat)
    assert fast == rref(GENERIC_QQ, mat)
    assert all(type(x) is Fraction for row in fast[0] for x in row)


def test_primitive_is_the_integer_point_on_the_line():
    assert primitive((Fraction(-2, 3), Fraction(0), Fraction(4, 9))) == (3, 0, -2)
    assert primitive((0, -4, 6)) == (0, 2, -3)
    assert primitive((Fraction(0), 0)) == (0, 0)
    assert all(type(x) is int for x in primitive((Fraction(1, 2), 3)))


def _adjoin_all(dom, ambient, vecs):
    """Grow from the zero space by adjoining each residual that leaves it."""
    s = zero_subspace(dom, ambient)
    for v in vecs:
        r = s.reduce(v)
        if not all(dom.is_zero(x) for x in r):
            s = s.adjoin(r)
    return s


@given(st.lists(st.lists(st.integers(0, 2), min_size=5, max_size=5), max_size=7))
@example([[0, 0, 1, 0, 0], [0, 1, 2, 0, 0], [1, 0, 0, 0, 2]])
def test_adjoin_matches_rref_over_f3(mat):
    vecs = [tuple(r) for r in mat]
    assert _adjoin_all(F3, 5, vecs) == subspace_from_vectors(F3, 5, vecs)


@given(rational_matrices())
@example([(Fraction(0), Fraction(1)), (Fraction(2), Fraction(3))])
def test_adjoin_matches_rref_over_q(mat):
    ncols = len(mat[0]) if mat else 2
    assert _adjoin_all(QQ, ncols, mat) == subspace_from_vectors(QQ, ncols, mat)


# --- integer echelon form -----------------------------------------------------

def integer_form(s):
    """The integer echelon form of a Subspace over QQ: its rows made primitive."""
    return tuple(primitive(r) for r in s.rows), s.pivots


@st.composite
def subspace_and_vector(draw):
    mat = draw(rational_matrices())
    ncols = len(mat[0]) if mat else draw(st.integers(1, 5))
    vec = draw(st.tuples(*[st.integers(-30, 30)] * ncols))
    return subspace_from_vectors(QQ, ncols, mat), vec


@given(subspace_and_vector())
@example((subspace_from_vectors(QQ, 2, [(Fraction(1, 2), Fraction(-3))]), (-1, 6)))
@example((zero_subspace(QQ, 3), (0, -4, 6)))
def test_int_reduce_matches_reduce_over_q(case):
    s, vec = case
    rows, pivots = integer_form(s)
    assert s.int_rows == rows
    assert int_subspace(s.ambient, rows, pivots) == s
    reduced = int_reduce(rows, pivots, vec)
    assert reduced == primitive(s.reduce(vec))
    assert all(type(x) is int for x in reduced)


@given(rational_matrices(), st.data())
@example([(Fraction(1, 2), Fraction(-3))], None)
@example([], None)
def test_contains_over_q_matches_generic_loop(mat, data):
    """Subspace.contains over QQ runs on int_rows; the generic loop over the
    same rows must agree, on vectors inside the span and outside it."""
    ncols = len(mat[0]) if mat else 3
    s = subspace_from_vectors(QQ, ncols, mat)
    generic = Subspace(GENERIC_QQ, ncols, s.rows, s.pivots)
    if data is None:
        inside = [(0,) * ncols] + [tuple(Fraction(3, 2) * x for x in r) for r in s.rows]
        other = [tuple(Fraction(k) for k in range(ncols))]
    else:
        coeffs = data.draw(st.lists(rationals, min_size=len(mat), max_size=len(mat)))
        inside = [combine(QQ, coeffs, mat, ncols)]
        other = [data.draw(st.tuples(*[rationals] * ncols))]
    assert all(s.contains(v) for v in inside)
    for v in inside + other:
        assert s.contains(v) == generic.contains(v)
    with pytest.raises(DimensionMismatch):
        s.contains((Fraction(0),) * (ncols + 1))


@given(rational_matrices())
@example([(Fraction(0), Fraction(1)), (Fraction(2), Fraction(3))])
@example([(Fraction(0), Fraction(2), Fraction(1)), (Fraction(3), Fraction(1), Fraction(-1)), (Fraction(1), Fraction(0), Fraction(0))])
def test_int_adjoin_matches_rref_over_q(mat):
    ncols = len(mat[0]) if mat else 2
    vecs = [primitive(v) for v in mat]
    rows, pivots = (), ()
    for v in vecs:
        r = int_reduce(rows, pivots, v)
        if any(r):
            rows, pivots = int_adjoin(rows, pivots, r)
    s = subspace_from_vectors(QQ, ncols, vecs)
    assert (rows, pivots) == integer_form(s)
    assert int_subspace(ncols, rows, pivots) == s


# --- prime-field kernel -------------------------------------------------------

def generic_reduce(dom, rows, pivots, vec):
    """Subspace.reduce's generic loop, through the domain's calls."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        c = v[p]
        if not dom.is_zero(c):
            for j, y in enumerate(row):
                if not dom.is_zero(y):
                    v[j] = dom.sub(v[j], dom.mul(c, y))
    return tuple(v)


def generic_adjoin(dom, rows, pivots, residual):
    """Subspace.adjoin's generic loop on (rows, pivots)."""
    lead = next(j for j, x in enumerate(residual) if not dom.is_zero(x))
    inv = dom.inv(residual[lead])
    new = tuple(dom.mul(inv, x) for x in residual)
    out = []
    for row in rows:
        c = row[lead]
        if not dom.is_zero(c):
            row = tuple(dom.sub(x, dom.mul(c, y)) for x, y in zip(row, new))
        out.append(row)
    at = sum(1 for p in pivots if p < lead)
    out.insert(at, new)
    return tuple(out), pivots[:at] + (lead,) + pivots[at:]


@st.composite
def fp_subspace_and_vectors(draw):
    """A subspace of F_p^n (p = 2, 3, 5) spanned by random vectors, a random
    vector, and a vector inside the subspace."""
    dom = draw(st.sampled_from([F2, F3, F5]))
    n = draw(st.integers(1, 6))
    vec = st.tuples(*[st.integers(0, dom.p - 1)] * n)
    s = subspace_from_vectors(dom, n, draw(st.lists(vec, max_size=n + 1)))
    coeffs = draw(st.lists(st.integers(0, dom.p - 1), min_size=s.dim, max_size=s.dim))
    return s, draw(vec), combine(dom, coeffs, s.rows, n)


def assert_fp_entries(dom, rows):
    assert all(type(x) is int and 0 <= x < dom.p for row in rows for x in row)


@given(fp_subspace_and_vectors())
@example((zero_subspace(F2, 3), (1, 0, 1), (0, 0, 0)))
@example((full_subspace(F5, 2), (4, 3), (2, 1)))
def test_fp_kernel_matches_generic_loop(case):
    s, vec, inside = case
    dom, p = s.dom, s.dom.p
    assert_fp_entries(dom, s.rows)
    for v in (vec, inside):
        want = generic_reduce(dom, s.rows, s.pivots, v)
        got = fp_reduce(s.rows, s.pivots, v, p)
        assert got == want == s.reduce(v)
        assert_fp_entries(dom, [got])
        assert s.contains(v) == all(dom.is_zero(x) for x in want)
        if any(got):
            grown = fp_adjoin(s.rows, s.pivots, got, p)
            assert grown == generic_adjoin(dom, s.rows, s.pivots, got)
            assert s.adjoin(got) == Subspace(dom, s.ambient, *grown)
            assert s.adjoin(got) == subspace_from_vectors(dom, s.ambient, s.rows + (v,))
            assert_fp_entries(dom, grown[0])
    assert s.contains(inside)
    with pytest.raises(DimensionMismatch):
        s.reduce(vec + (0,))
