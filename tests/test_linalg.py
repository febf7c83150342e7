"""Reduced row echelon subspaces: canonicality, membership, nullspace."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from futility.domains import QQ, FunctionField, PrimeField, RationalField
from futility.errors import DimensionMismatch
from futility.linalg import (
    EchelonPair,
    Subspace,
    adjoin,
    bit_adjoin,
    bit_pack,
    bit_reduce,
    combine,
    echelon_pair,
    fp_adjoin,
    fp_reduce,
    full_subspace,
    int_finish,
    int_insert,
    int_key,
    int_reduce,
    nullspace,
    primitive,
    reduce,
    rref,
    solve,
    subspace_from_vectors,
    subspace_sum,
    unit_vec,
    vec_is_zero,
    zero_subspace,
)
from reference_draw import reference_draws
from reference_linalg import int_adjoin
from reference_sampler import ambient_and_base, sampled_q_cases

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F2T = FunctionField(2, ("t",))
F3ST = FunctionField(3, ("s", "t"))


def gauss_jordan(dom, rows):
    """Reference reduced row echelon form: the Gauss-Jordan loop through the
    domain's calls that rref ran before it became a fold of reduce/adjoin
    steps.  Returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(work)):
            if not dom.is_zero(work[i][c]):
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = dom.inv(work[r][c])
        work[r] = [dom.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and not dom.is_zero(work[i][c]):
                f = work[i][c]
                work[i] = [dom.sub(x, dom.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


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
    """The rationals under a subclass: rref picks its pair by exact type, so
    it folds these through the generic pair instead of the integer one."""


GENERIC_QQ = GenericRationals()

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def matrices(draw, elements, zero, max_cols=5, max_rows=6):
    """Rows of domain elements, with a repeated row and a zero row mixed in
    at random positions."""
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.tuples(*[elements] * ncols), max_size=max_rows))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), (zero,) * ncols)
    return rows


def rational_matrices():
    return matrices(rationals, Fraction(0))


def function_field_elements(dom):
    """A few small rational functions of dom: constants, the variables, a
    sum, a quotient and an inverse."""
    names = dom.var_names
    x = dom.variable(names[0])
    y = dom.variable(names[-1])
    return [
        dom.zero,
        dom.one,
        dom.from_int(-1),
        x,
        y,
        dom.add(x, dom.one),
        dom.add(x, y),
        dom.inv(x),
        dom.mul(y, dom.inv(dom.add(x, dom.one))),
    ]


def element_strategy(dom):
    if dom == QQ:
        return rationals
    if isinstance(dom, PrimeField):
        return st.integers(0, dom.p - 1)
    return st.sampled_from(function_field_elements(dom))


FOLD_DOMAINS = [QQ, F2, F3, F5, F2T, F3ST]


@pytest.mark.parametrize("dom", FOLD_DOMAINS, ids=str)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rref_matches_gauss_jordan(dom, data):
    """rref folds through the domain's pair; the reduced echelon form is
    unique, so it must equal the Gauss-Jordan reference.  RatFunc values are
    compared by ==, since equal values may be stored as different tuples."""
    small = isinstance(dom, FunctionField)
    mat = data.draw(
        matrices(element_strategy(dom), dom.zero, max_cols=4 if small else 5, max_rows=4 if small else 6)
    )
    assert rref(dom, mat) == gauss_jordan(dom, mat)


@pytest.mark.parametrize("dom", FOLD_DOMAINS, ids=str)
def test_rref_of_empty_zero_and_repeated_rows(dom):
    one, two, zero = dom.one, dom.from_int(2), dom.zero
    row = (one, zero, two)
    cases = [[], [(zero,) * 3] * 2, [row, (zero,) * 3, row], [row, row, (zero, one, one), row]]
    for mat in cases:
        assert rref(dom, mat) == gauss_jordan(dom, mat)
    assert rref(dom, []) == ((), ())
    assert rref(dom, cases[1]) == ((), ())
    assert rref(dom, cases[2]) == gauss_jordan(dom, [row])


@given(rational_matrices())
@example([])
@example([(Fraction(0),) * 3] * 2)
@example([(Fraction(1, 2), Fraction(-3)), (Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(-3))])
def test_rref_over_q_matches_generic_loop(mat):
    """The integer pair over QQ against the generic pair on Fraction values
    and against the reference."""
    assert type(GENERIC_QQ) is not RationalField
    fast = rref(QQ, mat)
    assert fast == rref(GENERIC_QQ, mat) == gauss_jordan(QQ, mat)
    assert all(type(x) is Fraction for row in fast[0] for x in row)


def test_primitive_is_the_integer_point_on_the_line():
    assert primitive((Fraction(-2, 3), Fraction(0), Fraction(4, 9))) == (3, 0, -2)
    assert primitive((0, -4, 6)) == (0, 2, -3)
    assert primitive((Fraction(0), 0)) == (0, 0)
    assert all(type(x) is int for x in primitive((Fraction(1, 2), 3)))


def _adjoin_all(dom, vecs):
    """Grow from the zero space by adjoining each residual that leaves it,
    through the generic pair (which rref takes on neither QQ nor F_p)."""
    rows, pivots = (), ()
    for v in vecs:
        r = reduce(rows, pivots, v, dom)
        if not vec_is_zero(dom, r):
            rows, pivots = adjoin(rows, pivots, r, dom)
    return rows, pivots


@given(st.lists(st.lists(st.integers(0, 2), min_size=5, max_size=5), max_size=7))
@example([[0, 0, 1, 0, 0], [0, 1, 2, 0, 0], [1, 0, 0, 0, 2]])
def test_adjoin_matches_rref_over_f3(mat):
    vecs = [tuple(r) for r in mat]
    assert _adjoin_all(F3, vecs) == gauss_jordan(F3, vecs)


@given(rational_matrices())
@example([(Fraction(0), Fraction(1)), (Fraction(2), Fraction(3))])
def test_adjoin_matches_rref_over_q(mat):
    assert _adjoin_all(QQ, mat) == gauss_jordan(QQ, mat)


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
    assert s.form == (rows, pivots)
    reduced = int_reduce(rows, pivots, vec)
    assert reduced == primitive(s.reduce(vec))
    assert all(type(x) is int for x in reduced)


@given(rational_matrices(), st.data())
@example([(Fraction(1, 2), Fraction(-3))], None)
@example([], None)
def test_contains_over_q_matches_generic_loop(mat, data):
    """Subspace.contains over QQ runs on its integer echelon form; the
    generic loop over the same rows must agree, on vectors inside the span
    and outside it."""
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
    s = Subspace(QQ, ncols, *gauss_jordan(QQ, mat))
    assert (rows, pivots) == integer_form(s)


# --- prime-field kernel -------------------------------------------------------

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
        want = reduce(s.rows, s.pivots, v, dom)
        got = fp_reduce(s.rows, s.pivots, v, p)
        assert got == want == s.reduce(v)
        assert_fp_entries(dom, [got])
        assert s.contains(v) == all(dom.is_zero(x) for x in want)
        if any(got):
            grown = fp_adjoin(s.rows, s.pivots, got, p)
            assert grown == adjoin(s.rows, s.pivots, got, dom)
            assert grown == gauss_jordan(dom, s.rows + (v,))
            assert Subspace(dom, s.ambient, *grown) == subspace_from_vectors(dom, s.ambient, s.rows + (v,))
            assert_fp_entries(dom, grown[0])
    assert s.contains(inside)
    with pytest.raises(DimensionMismatch):
        s.reduce(vec + (0,))


# --- the three pairs over F_2 ---------------------------------------------------

def fold(reduce_, adjoin_, aux, nonzero, vecs):
    """The echelon form of the vectors, folded one at a time through a pair."""
    rows, pivots = (), ()
    for v in vecs:
        r = reduce_(rows, pivots, v, aux)
        if nonzero(r):
            rows, pivots = adjoin_(rows, pivots, r, aux)
    return rows, pivots


def f2_matrices():
    """(rows, ambient): seeded random matrices over F_2, with zero rows,
    duplicate rows, full rank and ambient 0 among them."""
    rng = random.Random(2)
    out = [([], 0), ([(), ()], 0), ([(0, 0, 0)], 3), ([(1, 0, 1), (1, 0, 1), (0, 0, 0)], 3)]
    for _ in range(60):
        n = rng.randrange(1, 11)
        rows = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(rng.randrange(n + 4))]
        if rows and rng.random() < 0.3:
            rows += [rows[0], (0,) * n]
        rng.shuffle(rows)
        out.append((rows, n))
    for n in (1, 5, 9):
        rows = [tuple(1 if j == i else rng.randrange(2) if j > i else 0 for j in range(n)) for i in range(n)]
        rng.shuffle(rows)
        out.append((rows, n))  # full rank: unit upper triangular, shuffled
    return out


def test_the_three_pairs_agree_over_f2():
    # bitmasks, the F_p ints at p = 2 and the generic domain calls fold the
    # same rows to the same reduced echelon form, which rref returns
    pair = echelon_pair(F2)
    assert (pair.enter, pair.reduce, pair.grow) == (bit_pack, bit_reduce, bit_adjoin)
    full = 0
    for rows, n in f2_matrices():
        masks, pivots = fold(bit_reduce, bit_adjoin, None, bool, map(bit_pack, rows))
        assert all(type(m) is int and m >> n == 0 for m in masks)
        unpacked = pair.leave(masks, pivots, n)
        assert (unpacked, pivots) == fold(fp_reduce, fp_adjoin, 2, any, rows)
        assert (unpacked, pivots) == fold(reduce, adjoin, F2, any, rows)
        assert (unpacked, pivots) == rref(F2, rows) == gauss_jordan(F2, rows)
        assert masks == tuple(map(bit_pack, unpacked))
        full += len(pivots) == n > 0
    assert full >= 3


# --- growing forward over Q -------------------------------------------------------

def q_matrices():
    """(base, rows, ambient): seeded random rational matrices with zero rows,
    duplicate rows, negative entries and full rank among them, and base the
    integer echelon form of a few other rows (empty for half of them), which
    the walk starts from."""
    rng = random.Random(5)
    out = [(((), ()), [], 0), (((), ()), [(Fraction(0),) * 3], 3)]
    for k in range(60):
        n = rng.randrange(1, 8)
        def row():
            return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
        rows = [row() for _ in range(rng.randrange(n + 3))]
        if rows and rng.random() < 0.3:
            rows += [rows[0], tuple(-x for x in rows[0]), (Fraction(0),) * n]
        if k % 6 == 0:  # full rank: unit upper triangular, shuffled
            rows += [tuple(Fraction(1) if j == i else Fraction(rng.randint(-5, 5)) if j > i else Fraction(0)
                           for j in range(n)) for i in range(n)]
        rng.shuffle(rows)
        base = ((), ())
        if k % 2:
            red, pivots = rref(QQ, [row() for _ in range(rng.randrange(1, n + 1))])
            base = (tuple(map(primitive, red)), pivots)
        out.append((base, rows, n))
    return out


def test_forward_growth_and_one_finish_give_the_integer_echelon_form():
    # int_insert leaves the older rows unreduced; int_reduce gives the same
    # residuals on that form, and int_finish back-substitutes it to what the
    # reference int_adjoin folds and rref returns
    pair = echelon_pair(QQ)
    assert (pair.grow, pair.finish) == (int_insert, int_finish)
    full = based = unreduced = 0
    for base, mat, n in q_matrices():
        grown = adjoined = base
        for v in map(primitive, mat):
            r = int_reduce(*grown, v)
            assert r == int_reduce(*adjoined, v)
            if any(r):
                grown = int_insert(*grown, r)
                adjoined = int_adjoin(*adjoined, r)
        assert int_finish(*grown) == adjoined
        red, pivots = rref(QQ, [*base[0], *mat])
        assert adjoined == (tuple(map(primitive, red)), pivots)
        full += len(pivots) == n
        based += bool(base[0])
        unreduced += grown != adjoined
    assert full >= 10 and based >= 25 and unreduced >= 20


# --- the reducer of one finished form over Q ------------------------------------

@st.composite
def reduced_integer_forms(draw):
    """(rows, pivots, vecs): a finished integer echelon form, each row
    primitive with a pivot entry in 1..6 (so the lcm D of the pivots may
    exceed 1), zero at the other pivots, entries of either sign after its
    pivot, and vectors to reduce, the zero vector first.  Dimension 0
    included."""
    n = draw(st.integers(0, 6))
    pivots = tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))) if n else ()
    rows = []
    for p in pivots:
        row = [0] * n
        row[p] = draw(st.integers(1, 6))
        for j in range(p + 1, n):
            if j not in pivots:
                row[j] = draw(st.integers(-9, 9))
        rows.append(primitive(row))
    vecs = draw(st.lists(st.tuples(*[st.integers(-30, 30)] * n), max_size=6))
    return tuple(rows), pivots, [(0,) * n, *vecs]


@given(reduced_integer_forms())
@example(((), (), [()]))
@example((((2, 0, 3, 0), (0, 3, -1, 0), (0, 0, 0, 1)), (0, 1, 3), [(0, 0, 0, 0), (5, -7, 2, 4), (-2, 3, 0, 1)]))
def test_int_key_is_int_reduce_on_reduced_forms(case):
    rows, pivots, vecs = case
    key = int_key(rows, pivots)
    for v in vecs:
        assert key(v) == int_reduce(rows, pivots, v)


def test_int_key_is_int_reduce_on_forms_grown_and_finished():
    # the forms of q_matrices, grown by int_insert and finished by
    # int_finish, against their own rows, their sums and seeded draws
    rng = random.Random(8)
    lcm_above_one = 0
    for base, mat, n in q_matrices():
        rows, pivots = base
        vecs = list(map(primitive, mat))
        for v in vecs:
            r = int_reduce(rows, pivots, v)
            if any(r):
                rows, pivots = int_insert(rows, pivots, r)
        rows, pivots = int_finish(rows, pivots)
        key = int_key(rows, pivots)
        vecs += [tuple(a + b for a, b in zip(u, v)) for u, v in zip(vecs, vecs[1:])]
        vecs += [tuple(rng.randint(-20, 20) for _ in range(n)) for _ in range(10)]
        for v in [(0,) * n, *vecs]:
            assert key(v) == int_reduce(rows, pivots, v)
        lcm_above_one += any(row[p] > 1 for row, p in zip(rows, pivots))
    assert lcm_above_one >= 10


SAMPLED_Q_CASES = list(sampled_q_cases())


@pytest.mark.parametrize("name, target, opts", SAMPLED_Q_CASES, ids=[c[0] for c in SAMPLED_Q_CASES])
def test_int_key_is_int_reduce_on_every_sampled_base_form(name, target, opts):
    # the memo keys of the case's own run: its accepted draws
    A, base = ambient_and_base(target)
    key = int_key(*base.form)
    draws = [v for v in reference_draws(opts["seed"], 300, A.dim, opts["bound"]) if v is not None]
    for v in [(0,) * A.dim, *draws]:
        assert key(v) == int_reduce(*base.form, v)


@pytest.mark.parametrize("dom", [F2, F3, F2T], ids=repr)
def test_grow_is_adjoin_and_finish_keeps_the_form_off_q(dom):
    # bit_reduce and fp_reduce read the pivot entries of the vector they are
    # given, so every pair but the rational one grows reduced rows
    pair = echelon_pair(dom)
    assert pair.grow is {F2: bit_adjoin, F3: fp_adjoin}.get(dom, adjoin)
    s = subspace_from_vectors(dom, 3, [(dom.one, dom.one, dom.zero), (dom.zero, dom.one, dom.one)])
    form = (tuple(map(pair.enter, s.rows)), s.pivots)
    assert s.form == form
    assert pair.finish(*form, pair.aux) == form


# --- containment through the pair ----------------------------------------------

def seeded_element(dom, rng):
    if dom == QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if isinstance(dom, PrimeField):
        return rng.randrange(dom.p)
    return rng.choice(function_field_elements(dom))


@pytest.mark.parametrize("dom", [QQ, F2, F3, F2T], ids=repr)
def test_containment_runs_on_the_form_and_agrees_with_generic_reduce(dom):
    # contains and contains_subspace reduce in the pair's arithmetic (integer
    # rows over QQ, packed rows over F_2); generic reduce on the tuple rows
    # must give the same answers, and a Subspace made from its form equals
    # the one made from rref, with the rows re-entered as its form
    assert EchelonPair._fields == ("enter", "reduce", "grow", "finish", "aux", "leave", "nonzero")
    rng = random.Random(7)
    pair = echelon_pair(dom)
    if isinstance(dom, PrimeField):  # built once per p
        assert echelon_pair(PrimeField(dom.p)) is pair

    def vector(n):
        return tuple(seeded_element(dom, rng) for _ in range(n))

    def inside(s):
        return combine(dom, [seeded_element(dom, rng) for _ in s.rows], s.rows, s.ambient)

    def generic_contains(s, v):
        return not any(reduce(s.rows, s.pivots, v, dom))

    small = isinstance(dom, FunctionField)
    verdicts = set()
    for _ in range(20 if small else 80):
        n = rng.randrange(1, 4 if small else 6)
        vs = [vector(n) for _ in range(rng.randrange(n + 2))]
        if vs and rng.random() < 0.3:
            vs += [vs[0], (dom.zero,) * n]
        s = subspace_from_vectors(dom, n, vs)
        assert s == Subspace(dom, n, *rref(dom, vs))
        assert s.form == (tuple(map(pair.enter, s.rows)), s.pivots)
        for v in [*vs, vector(n), inside(s)]:
            assert s.contains(v) == generic_contains(s, v)
            verdicts.add(("vector", s.contains(v)))
        for ws in ([inside(s) for _ in range(2)], [inside(s), vector(n)], []):
            for t in (subspace_from_vectors(dom, n, ws), Subspace(dom, n, *rref(dom, ws))):
                assert s.contains_subspace(t) == all(generic_contains(s, r) for r in t.rows)
                verdicts.add(("subspace", s.contains_subspace(t)))
        with pytest.raises(DimensionMismatch):
            s.contains(vector(n + 1))
        with pytest.raises(DimensionMismatch):
            s.contains_subspace(zero_subspace(dom, n + 1))
    assert verdicts == {(kind, b) for kind in ("vector", "subspace") for b in (True, False)}


@pytest.mark.parametrize("dom", [QQ, F2, F3, F2T, F3ST], ids=repr)
@pytest.mark.parametrize("ambient", [0, 1, 4])
def test_full_subspace_is_the_echelon_form_of_the_identity(dom, ambient):
    full = full_subspace(dom, ambient)
    identity = subspace_from_vectors(dom, ambient, [unit_vec(dom, ambient, i) for i in range(ambient)])
    assert full == identity and repr(full) == repr(identity)
    assert [list(map(type, r)) for r in full.rows] == [list(map(type, r)) for r in identity.rows]
    assert full.key() == identity.key()
    assert full.pivots == tuple(range(ambient))
