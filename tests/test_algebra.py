"""Structure-constant algebra operations against small hand-checkable and
brute-force oracles."""

import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from futility import algebra as algebra_module
from futility.algebra import (
    MAX_DIM,
    StructAlgebra,
    closure,
    closure_form,
    commutator_ideal,
    element_multiply,
    element_power,
    frobenius_chain,
    generated_by_element,
    int_trace_form,
    invert_element,
    local_decomposition,
    make_algebra,
    minimal_polynomial,
    nilradical,
    primitive_element,
    product_algebra,
    quotient_algebra,
    subalgebra_to_algebra,
    subspace_product,
)
from futility.constructions import (
    AlgebraScalarDomain,
    extend_by_poly,
    matrix_algebra,
    poly_quotient_algebra,
)
from futility.cases import build_case, parse_case
from futility.domains import QQ, FunctionField, ModRing, PrimeField, mp_const
from futility.errors import (
    CharacteristicZero,
    DimensionMismatch,
    NotAField,
    NotAnIdeal,
    SearchBudgetExceeded,
    UnsupportedDomain,
    ValidationError,
)
from futility.linalg import (
    nullspace,
    primitive,
    subspace_from_vectors,
    vec_is_zero,
    zero_subspace,
)
from futility.polynomials import factor_over_rationals, make_poly, pmul, poly_to_str, ppow
import reference_local
from reference_closure import span_and_multiply
from reference_tables import change_of_basis, scan_with_blocks, upper_triangular_algebra
from reference_tower import algebra_outcome, both_ways, case_outcome, exact, frobenius_chain_on_rows, tower_documents

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import make_cases  # noqa: E402


def decide_only_algebras(seed):
    """The algebras the decide-only documents of one seed build."""
    return [build_case(parse_case(case.text)).payload for case in make_cases("decide-only", seed, ROOT)]


def q(*cs):
    return make_poly(QQ, [Fraction(c) for c in cs])


def qx_mod(*cs):
    return poly_quotient_algebra(q(*cs))


def unit_span(A):
    return subspace_from_vectors(A.dom, A.dim, [A.unit])


def generated(A, vectors):
    """The least subalgebra containing the vectors, the unit among them:
    algebra.closure from the zero span."""
    return closure(A, zero_subspace(A.dom, A.dim), vectors)


def frac(*xs):
    return tuple(Fraction(x) for x in xs)


# Test-local references: the dense product and the validation loop on it
# that make_algebra ran before the sparse tensor.

def dense_multiply(A, u, v):
    dom = A.dom
    out = [dom.zero] * A.dim
    for i, cu in enumerate(u):
        if dom.is_zero(cu):
            continue
        for j, cv in enumerate(v):
            if dom.is_zero(cv):
                continue
            c = dom.mul(cu, cv)
            row = A.table[i][j]
            for k in range(A.dim):
                if not dom.is_zero(row[k]):
                    out[k] = dom.add(out[k], dom.mul(c, row[k]))
    return tuple(out)


def reference_validation(dom, table, unit):
    """Message of the first unit-law or associativity failure, or None."""
    tab = tuple(tuple(tuple(v) for v in block) for block in table)
    A = StructAlgebra(dom, len(tab), tab, tuple(unit))
    for i in range(A.dim):
        e = A.basis_vector(i)
        if dense_multiply(A, A.unit, e) != e or dense_multiply(A, e, A.unit) != e:
            return f"unit law fails at basis vector {i}"
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                left = dense_multiply(A, tab[i][j], A.basis_vector(k))
                right = dense_multiply(A, A.basis_vector(i), tab[j][k])
                if left != right:
                    return f"associativity fails at basis triple ({i}, {j}, {k})"
    return None


def assert_validates_like_reference(dom, table, unit):
    expected = reference_validation(dom, table, unit)
    if expected is None:
        make_algebra(dom, table, unit)
    else:
        with pytest.raises(ValidationError) as exc:
            make_algebra(dom, table, unit)
        assert str(exc.value) == expected


# --- construction -----------------------------------------------------------

def test_bad_table_raises_with_triple():
    # e2*e2 = e3, e2*e3 = e1 but e3*e3 = 0 breaks (e2 e2) e3 = e2 (e2 e3)
    dom = QQ
    table = [
        [frac(1, 0, 0), frac(0, 1, 0), frac(0, 0, 1)],
        [frac(0, 1, 0), frac(0, 0, 1), frac(1, 0, 0)],
        [frac(0, 0, 1), frac(0, 0, 0), frac(0, 0, 0)],
    ]
    with pytest.raises(ValidationError) as exc:
        make_algebra(dom, table, frac(1, 0, 0))
    assert "associativity fails at basis triple" in str(exc.value)
    assert str(exc.value) == reference_validation(dom, table, frac(1, 0, 0))


def test_unit_law_validated():
    dom = QQ
    table = [[frac(0, 0), frac(0, 0)], [frac(0, 0), frac(0, 0)]]
    with pytest.raises(ValidationError):
        make_algebra(dom, table, frac(1, 0))


def test_element_multiply_examples():
    A = qx_mod(0, 0, 0, 1)  # Q[x]/(x^3)
    x = A.basis_vector(1)
    x2 = A.basis_vector(2)
    assert element_multiply(A, A.unit, x) == x
    assert element_multiply(A, x, x2) == (0, 0, 0) or vec_is_zero(QQ, element_multiply(A, x, x2))
    M = matrix_algebra(F2, 2)
    e12 = M.basis_vector(1)
    e21 = M.basis_vector(2)
    e11 = M.basis_vector(0)
    assert element_multiply(M, e12, e21) == e11


FT = FunctionField(2, ("t",))
T = FT.variable("t")
FST = FunctionField(2, ("s", "t"))
S2, T2 = FST.variable("s"), FST.variable("t")
Z4 = ModRing(4)


def two_level_tower():
    """F_2(s,t)[x]/(x^2 + s) extended by y^2 + x*y + t, from extend_by_poly."""
    L = poly_quotient_algebra(make_poly(FST, [S2, FST.zero, FST.one]))
    x = L.basis_vector(1)
    t_in_L = tuple(FST.mul(T2, c) for c in L.unit)
    return extend_by_poly(L, [t_in_L, x, L.unit])


F2T_LEVEL = poly_quotient_algebra(make_poly(FT, [FT.add(T, FT.one), FT.zero, FT.zero, FT.zero, FT.one]))
# the same level on the basis 1, x/t, x^2/(t + 1), x^3: structure constants
# with several distinct denominators besides 1
F2T_DENOMINATORS = change_of_basis(
    F2T_LEVEL,
    [
        (FT.one, FT.zero, FT.zero, FT.zero),
        (FT.zero, FT.inv(T), FT.zero, FT.zero),
        (FT.zero, FT.zero, FT.inv(FT.add(T, FT.one)), FT.zero),
        (FT.zero, FT.zero, FT.zero, FT.one),
    ],
)

# valid tables over Q, F_2, F_3, F_5, Z/4, F_2(t) and F_2(s,t): poly
# quotients, the noncommutative 2x2 matrix and upper triangular algebras, a
# tower level, the same level in a basis with rational function entries and a
# two-level tower, with small perturbations
SOURCES = {
    "Q": (
        qx_mod(0, 0, 0, -2, 0, 1),  # Q[x]/(x^3 (x^2 - 2))
        [Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2, 3)],
    ),
    "F2": (matrix_algebra(F2, 2), [1]),
    "F3": (upper_triangular_algebra(F3, 2), [1, 2]),
    "F5": (poly_quotient_algebra(make_poly(F5, [0, 0, 0, 3, 1])), [1, 2, 4]),  # x^3 (x + 3)
    "F2(t)": (F2T_LEVEL, [FT.one, T, FT.inv(T), FT.add(T, FT.one)]),  # x^4 + t + 1
    "F2(t)-denominators": (F2T_DENOMINATORS, [FT.one, T, FT.inv(T), FT.inv(FT.add(T, FT.one))]),
    "F2(s,t)": (two_level_tower(), [FST.one, S2, T2, FST.inv(S2), FST.add(S2, T2)]),
    "Z4": (poly_quotient_algebra(make_poly(Z4, [1, 2, 0, 1])), [1, 2, 3]),  # x^3 + 2x + 1
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SOURCES)), st.data())
@example("Q", None)
@example("F2", None)
@example("F3", None)
@example("F5", None)
@example("F2(t)", None)
@example("F2(t)-denominators", None)
@example("F2(s,t)", None)
@example("Z4", None)
def test_make_algebra_agrees_with_reference_on_perturbed_tables(name, data):
    A, deltas = SOURCES[name]
    dom, n = A.dom, A.dim
    table = [[list(v) for v in block] for block in A.table]
    unit = list(A.unit)
    if data is not None:
        delta = data.draw(st.sampled_from(deltas))
        if data.draw(st.integers(0, 4)) == 0:
            k = data.draw(st.integers(0, n - 1))
            unit[k] = dom.add(unit[k], delta)
        else:
            i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
            table[i][j][k] = dom.add(table[i][j][k], delta)
    assert_validates_like_reference(dom, table, unit)


def test_function_field_sources_carry_denominators_and_two_variables():
    one = mp_const(1, 2, 1)
    dens = {c.den for block in F2T_DENOMINATORS.sparse for v in block for _, c in v if c.den != one}
    assert len(dens) >= 2
    tower = SOURCES["F2(s,t)"][0]
    assert tower.dim == 4 and tower.dom == FST


@pytest.mark.parametrize("name", ["F2", "F3", "F2(t)-denominators", "F2(s,t)", "Z4"])
def test_every_single_perturbation_is_judged_like_reference(name):
    # one delta at every table position in turn, so each (i, j, k) and each
    # arm's first failing triple is exercised, not only the sampled ones; on
    # the 2x2 matrix units over F_2 one first failure has k < i, which only
    # the full scan forms
    A, deltas = SOURCES[name]
    dom, n = A.dom, A.dim
    for i, j, k in itertools.product(range(n), repeat=3):
        table = [[list(v) for v in block] for block in A.table]
        table[i][j][k] = dom.add(table[i][j][k], deltas[(i + j + k) % len(deltas)])
        assert_validates_like_reference(dom, table, A.unit)


@pytest.mark.parametrize("name", ["Q", "F2", "F3", "F5", "F2(t)", "F2(t)-denominators", "Z4"])
def test_every_unit_entry_moved_fails_the_unit_law_like_reference(name):
    # the unit law is checked on the scaled tensor of the associativity
    # check; each entry of the unit moved by each delta breaks it, and the
    # first failing basis vector is the reference's (past 0 for the matrix
    # units of F2 and F3)
    A, deltas = SOURCES[name]
    dom = A.dom
    failing = set()
    for k, delta in itertools.product(range(A.dim), deltas):
        unit = list(A.unit)
        unit[k] = dom.add(unit[k], delta)
        table = [[list(v) for v in block] for block in A.table]
        message = reference_validation(dom, table, unit)
        assert message.startswith("unit law fails at basis vector ")
        failing.add(message)
        assert_validates_like_reference(dom, table, unit)
    if name in ("F2", "F3"):
        assert len(failing) > 1


def test_make_algebra_refuses_other_domains():
    # a tower level's scalars are vectors of an algebra, which only towers read
    L = qx_mod(1, 0, 1)
    with pytest.raises(UnsupportedDomain):
        make_algebra(AlgebraScalarDomain(L), [[[L.unit]]], [L.unit])


@pytest.mark.parametrize("left_only", [True, False])
def test_unit_law_failing_on_one_side(left_only):
    # e0 e0 = e0 and e0 e1 = e1 but e1 e0 = 0: e0 is a left unit, not a
    # right one (and the mirror table for a right unit)
    z, e0, e1 = frac(0, 0), frac(1, 0), frac(0, 1)
    table = [[e0, e1], [z, z]] if left_only else [[e0, z], [e1, z]]
    assert reference_validation(QQ, table, e0) == "unit law fails at basis vector 1"
    assert_validates_like_reference(QQ, table, e0)


# commutative sources, the unit at basis vector 0: symmetric tables over Q,
# F_2, Z/4 and F_2(t)
SYMMETRIC_SOURCES = {
    "Q": SOURCES["Q"],
    "F2": (poly_quotient_algebra(make_poly(F2, [1, 0, 1, 0, 0, 1])), [1]),  # x^5 + x^2 + 1
    "Z4": SOURCES["Z4"],
    "F2(t)": SOURCES["F2(t)"],
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_SOURCES))
def test_half_scan_finds_the_triple_of_the_full_scan(monkeypatch, name):
    """Each symmetric pair of entries (i, j), (j, i) off the unit moved by one
    seeded delta: the table stays symmetric, so make_algebra's scan forms
    only the blocks with k >= i, and it reports the first triple of the
    per-triple loop, whose message make_algebra raises.  Some first failures
    (i, j, k) have i < k, so their mirror (k, j, i) fails too and comes
    later in a full scan, where the half scan never forms it."""
    A, deltas = SYMMETRIC_SOURCES[name]
    dom, n = A.dom, A.dim
    real = algebra_module.first_nonassociative
    scans = []

    def watched(T, combine, middle):
        scans.append(scan_with_blocks(real, T, combine, middle))
        return scans[-1][0]

    monkeypatch.setattr(algebra_module, "first_nonassociative", watched)
    rng = random.Random(3)
    mirrored = 0
    for i, j in itertools.combinations_with_replacement(range(1, n), 2):
        table = [[list(v) for v in block] for block in A.table]
        m = rng.randrange(n)
        table[i][j][m] = dom.add(table[i][j][m], rng.choice(deltas))
        table[j][i][m] = table[i][j][m]
        scans.clear()
        expected = reference_validation(dom, table, A.unit)
        assert_validates_like_reference(dom, table, A.unit)
        [(half, least)] = scans
        assert all(k >= i for i, k in enumerate(least))
        assert expected == (None if half is None else f"associativity fails at basis triple {half}")
        mirrored += half is not None and half[0] < half[2]
    assert mirrored


def test_tables_unequal_to_their_transpose_get_the_full_scan():
    # the upper triangular matrices: e_11 e_12 = e_12 but e_12 e_11 = 0
    A = upper_triangular_algebra(QQ, 3)
    found, least = scan_with_blocks(
        algebra_module.first_nonassociative, A.int_tensor, algebra_module._int_combine, range(A.dim)
    )
    assert found is None and least == [0] * A.dim


# Light's test: make_algebra scans the triples whose middle index lies in
# the generating set read off the table (algebra.generating_basis)

def scan_middles(monkeypatch, check_full=False):
    """The middle index lists make_algebra hands first_nonassociative from
    now on; with check_full, each call also asserts that the restricted scan
    fails exactly when the scan over every middle index does, at the same
    triple."""
    real = algebra_module.first_nonassociative
    middles = []

    def watched(T, combine, middle):
        middles.append(list(middle))
        found = real(T, combine, middle)
        if check_full:
            assert found == real(T, combine, range(len(T)))
        return found

    monkeypatch.setattr(algebra_module, "first_nonassociative", watched)
    return middles


def rebuilt_middle(monkeypatch, A):
    middles = scan_middles(monkeypatch)
    make_algebra(A.dom, A.table, A.unit)
    [middle] = middles
    return middle


def dense_representation(A, seed):
    """A on a seeded basis of small dense integer vectors: every product and
    the unit have several nonzero coordinates."""
    rng = random.Random(seed)
    while True:
        rows = [tuple(A.dom.from_int(rng.choice([-2, -1, 1, 2, 3])) for _ in range(A.dim)) for _ in range(A.dim)]
        if subspace_from_vectors(A.dom, A.dim, rows).dim == A.dim:
            return change_of_basis(A, rows)


# 1, x, y with x^2 = c*y and every other product of x and y zero, over Z/4:
# y is reached from x exactly when c is a unit
def z4_square_table(c):
    z, one, x, y = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
    return [[one, x, y], [x, (0, 0, c), z], [y, z, z]], one


F2T_PURE = poly_quotient_algebra(make_poly(FT, [T, FT.zero, FT.zero, FT.zero, FT.one]))  # x^4 - t
Q_DENSE = dense_representation(qx_mod(1, -2, 0, 1), 4)  # Q[x]/(x^3 - 2x + 1)


def test_a_power_basis_is_generated_by_x(monkeypatch):
    assert rebuilt_middle(monkeypatch, SOURCES["Q"][0]) == [1]
    assert rebuilt_middle(monkeypatch, qx_mod(-7, 0, 3, 0, 0, 0, 0, 0, 1)) == [1]
    assert rebuilt_middle(monkeypatch, F2T_PURE) == [1]


def test_a_two_level_tower_is_generated_by_x_and_y(monkeypatch):
    tower = two_level_tower()
    middle = rebuilt_middle(monkeypatch, tower)
    assert len(middle) == 2 and middle[0] == 1


def test_a_dense_representation_scans_every_middle_index(monkeypatch):
    assert rebuilt_middle(monkeypatch, Q_DENSE) == [0, 1, 2]
    assert len(set(map(len, (v for block in Q_DENSE.sparse for v in block)))) > 1
    assert sum(map(bool, Q_DENSE.unit)) > 1


def test_a_coefficient_sharing_a_factor_with_n_reaches_nothing(monkeypatch):
    middles = scan_middles(monkeypatch)
    for c in (1, 2, 3):
        make_algebra(Z4, *z4_square_table(c))
    assert middles == [[1], [1, 2], [1]]
    # with y^2 = 2 in place of 0, x lies in the nucleus (2y times x or y is
    # zero mod 4), but (x y) y = 0 differs from x (y y) = 2x: counting
    # x^2 = 2y as a reach of y would let the table pass
    table, one = z4_square_table(2)
    table[2][2] = (2, 0, 0)
    assert reference_validation(Z4, table, one) == "associativity fails at basis triple (1, 2, 2)"
    assert_validates_like_reference(Z4, table, one)


def test_generating_basis_reads_single_entries_off_the_table():
    # the matrix units of M_2: e_12 e_21 = e_11 and e_21 e_12 = e_22 reach the
    # diagonal, whose sum is the unit; the upper triangular matrices have no
    # product of two off-unit generators that reaches e_22
    M = matrix_algebra(F2, 2)
    unit_terms = [(l, c) for l, c in enumerate(M.unit) if c]
    assert algebra_module.generating_basis(M.sparse, unit_terms, bool) == [0, 1, 2]
    U = upper_triangular_algebra(QQ, 2)
    unit_terms = [(l, c) for l, c in enumerate(U.unit) if c]
    assert algebra_module.generating_basis(U.sparse, unit_terms, bool) == [0, 1, 2]
    A = SOURCES["Q"][0]
    assert algebra_module.generating_basis(A.sparse, [(0, Fraction(1))], bool) == [1]
    assert algebra_module.generating_basis(A.sparse, [], bool) == [0, 1]
    # Q[x]/(x^4) on 1, x, x^2 + x^3, x^3: x^2 has two entries, so x reaches
    # x^3 = x (x^2 + x^3) only once x^2 + x^3 is a generator
    B = change_of_basis(qx_mod(0, 0, 0, 0, 1), [frac(1, 0, 0, 0), frac(0, 1, 0, 0), frac(0, 0, 1, 1), frac(0, 0, 0, 1)])
    assert algebra_module.generating_basis(B.sparse, [(0, Fraction(1))], bool) == [1, 2]


GENERATOR_SOURCES = {
    "Q": (SOURCES["Q"][0], [Fraction(1), Fraction(-1, 2)]),
    "F2(t)": (F2T_PURE, [FT.one, T]),
    "F2(s,t)": (two_level_tower(), [FST.one, S2]),
    "Q-dense": (Q_DENSE, [Fraction(1), Fraction(2, 3)]),
    "Z4": (make_algebra(Z4, *z4_square_table(1)), [1, 2]),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_SOURCES))
def test_every_single_perturbation_fails_the_generator_scan_like_the_full_scan(monkeypatch, name):
    # each table entry moved by each delta in turn: every perturbed table
    # that keeps the unit law is scanned on its own generating set, which
    # fails exactly when the scan over every middle index does, and
    # make_algebra raises the per-triple reference's message
    A, deltas = GENERATOR_SOURCES[name]
    dom, n = A.dom, A.dim
    middles = scan_middles(monkeypatch, check_full=True)
    restricted_failures = 0
    for (i, j, k), delta in itertools.product(itertools.product(range(n), repeat=3), deltas):
        table = [[list(v) for v in block] for block in A.table]
        table[i][j][k] = dom.add(table[i][j][k], delta)
        middles.clear()
        expected = reference_validation(dom, table, A.unit)
        assert_validates_like_reference(dom, table, A.unit)
        if middles and len(middles[0]) < n:
            restricted_failures += expected is not None
    assert restricted_failures or name == "Q-dense"


def test_a_scan_over_a_non_generating_middle_misses_a_failure():
    # 1, a, b over Q with a^2 = ab = ba = 0 and b^2 = 1: a lies in the nucleus,
    # so every triple with middle a is associative, but (a b) b = 0 and
    # a (b b) = a.  b is not reached from a, so it is a generator too
    z, one, a, b = frac(0, 0, 0), frac(1, 0, 0), frac(0, 1, 0), frac(0, 0, 1)
    table = [[one, a, b], [a, z, z], [b, z, one]]
    T = tuple(tuple(tuple((k, int(c)) for k, c in enumerate(v) if c) for v in block) for block in table)
    assert algebra_module.first_nonassociative(T, algebra_module._int_combine, [1]) is None
    assert algebra_module.generating_basis(T, [(0, 1)], bool) == [1, 2]
    with pytest.raises(ValidationError, match=r"^associativity fails at basis triple \(1, 2, 2\)$"):
        make_algebra(QQ, table, one)


def ratfuncs():
    return st.sampled_from([FT.zero, FT.one, T, FT.inv(T), FT.add(T, FT.one)])


# Q[x]/(x^3 (x^2 - 2)) on the basis 1, x/2, x^2/3, ...: rational structure
# constants, so int_tensor carries a common denominator above 1
Q_RATIONAL_BASIS = change_of_basis(
    SOURCES["Q"][0], [frac(*[Fraction(1, i + 1) if j == i else 0 for j in range(5)]) for i in range(5)]
)
# Q[x]/(x^3 (x^2 - 2)) on the basis 2, x, x^2, ...: the unit is (1/2, 0, ...)
Q_HALF_UNIT = change_of_basis(SOURCES["Q"][0], [frac(*[2 if j == i == 0 else int(j == i) for j in range(5)]) for i in range(5)])
Q_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)

PRODUCT_CASES = {
    "Q": (Q_RATIONAL_BASIS, Q_FRACTIONS),
    # int and Fraction coordinates in one vector, zeros among them
    "Q-mixed": (Q_RATIONAL_BASIS, st.one_of(st.just(0), st.integers(-3, 3), Q_FRACTIONS)),
    "Q-integral": (qx_mod(-2, 0, 0, 1), st.one_of(st.integers(-3, 3), Q_FRACTIONS)),
    "F3": (upper_triangular_algebra(F3, 3), st.integers(0, 2)),
    "F2": (matrix_algebra(F2, 2), st.integers(0, 1)),
    # commutative F_p tables next to the two noncommutative ones
    "F5-commutative": (poly_quotient_algebra(make_poly(PrimeField(5), [2, 0, 1])), st.integers(0, 4)),
    "F2-commutative": (product_algebra([poly_quotient_algebra(make_poly(F2, [0, 0, 0, 1]))] * 2),
                       st.integers(0, 1)),
    "F2(t)": (SOURCES["F2(t)"][0], ratfuncs()),
}


def test_product_cases_cover_both_tensor_denominators():
    assert Q_RATIONAL_BASIS.int_den > 1
    assert PRODUCT_CASES["Q-integral"][0].int_den == 1


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(PRODUCT_CASES)), st.data())
def test_element_multiply_matches_dense_product(name, data):
    A, scalars = PRODUCT_CASES[name]
    vectors = st.lists(scalars, min_size=A.dim, max_size=A.dim)
    if A.dom == QQ:
        vectors = st.one_of(vectors, st.just([0] * A.dim))  # the all-zero int vector
    u = tuple(data.draw(vectors))
    v = tuple(data.draw(vectors))
    got = element_multiply(A, u, v)
    assert got == dense_multiply(A, u, v)
    if isinstance(A.dom, PrimeField):
        assert all(type(x) is int and 0 <= x < A.dom.p for x in got)
    if A.dom == QQ:
        # one reduced Fraction per coordinate, whatever the input types
        for x in got:
            assert type(x) is Fraction
            assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1


def tower_f2t_x4(c):
    """F_2(t)[x]/(x^4 - c)."""
    return poly_quotient_algebra(make_poly(FT, [c, FT.zero, FT.zero, FT.zero, FT.one]))


@pytest.mark.parametrize(
    "A, entry, delta",
    [
        (Q_RATIONAL_BASIS, (1, 2, 3), Fraction(1, 2)),
        (Q_RATIONAL_BASIS, (4, 4, 0), Fraction(-5, 2)),
        (tower_f2t_x4(FT.add(T, FT.one)), (1, 3, 0), T),
        (tower_f2t_x4(T), (2, 2, 3), FT.one),
        (tower_f2t_x4(T), (0, 1, 1), FT.inv(FT.add(T, FT.one))),
    ],
    ids=["Q-half", "Q-minus-five-halves", "F2(t)-t", "F2(t)-one", "F2(t)-inverse"],
)
def test_validation_still_runs_on_the_fast_paths(A, entry, delta):
    """A corrupted entry that carries a denominator over Q, or a corrupted
    F_2(t) tower table, fails make_algebra with the reference's message."""
    dom = A.dom
    table = [[list(v) for v in block] for block in A.table]
    i, j, k = entry
    table[i][j][k] = dom.add(table[i][j][k], delta)
    if dom == QQ:
        assert table[i][j][k].denominator > 1
    expected = reference_validation(dom, table, A.unit)
    assert expected is not None
    with pytest.raises(ValidationError) as exc:
        make_algebra(dom, table, A.unit)
    assert str(exc.value) == expected


# --- generated subalgebras ---------------------------------------------------

def test_generated_empty_is_base():
    A = qx_mod(0, 0, 0, 1)
    base = unit_span(A)
    assert generated(A, base.rows) == base


def test_generated_x2_in_x3():
    # the subalgebra generated by x^2 inside Q[x]/(x^3) is span{1, x^2}
    A = qx_mod(0, 0, 0, 1)
    s = generated(A, [A.unit, A.basis_vector(2)])
    assert s == subspace_from_vectors(QQ, 3, [frac(1, 0, 0), frac(0, 0, 1)])


def test_generated_x_plus_x2_is_everything():
    A = qx_mod(0, 0, 0, 1)
    g = frac(0, 1, 1)
    s = generated(A, [A.unit, g])
    assert s.dim == 3


# --- commutator ideal --------------------------------------------------------

F2T = FunctionField(2, ("t",))


def _scalar(dom, rng):
    """A random small scalar: 0, 1 or t over F_2(t), an integer elsewhere.
    Denser rational functions make the fixpoint's entries grow past what a
    test can wait for, since RatFunc takes no gcd."""
    if dom is F2T:
        return rng.choice([F2T.zero, F2T.zero, F2T.one, F2T.variable("t")])
    return dom.from_int(rng.randint(-3, 3))


@pytest.mark.parametrize("dom", [QQ, F3, F2T], ids=["Q", "F3", "F2(t)"])
def test_commutator_and_generated_match_span_and_multiply(dom):
    # the Q, F_p and generic closures against the span-and-multiply fixpoint,
    # on noncommutative algebras in a random basis
    rng = random.Random(7)
    U = upper_triangular_algebra(dom, 3)
    n = U.dim
    # unit upper triangular, rows reversed: invertible
    basis = [
        tuple(dom.one if j == i else _scalar(dom, rng) if j > i else dom.zero for j in range(n))
        for i in reversed(range(n))
    ]
    for A in (change_of_basis(U, basis), matrix_algebra(dom, 2)):
        e = [A.basis_vector(i) for i in range(A.dim)]
        comms = [
            tuple(map(dom.sub, element_multiply(A, e[i], e[j]), element_multiply(A, e[j], e[i])))
            for i in range(A.dim)
            for j in range(i + 1, A.dim)
        ]
        assert commutator_ideal(A) == span_and_multiply(A, comms, ideal=True)
        for count in (0, 1, 1, 2):
            gens = [tuple(_scalar(dom, rng) for _ in range(A.dim)) for _ in range(count)]
            assert generated(A, [A.unit, *gens]) == span_and_multiply(A, [A.unit, *gens])

def test_commutator_commutative_zero():
    A = qx_mod(0, 0, 1)
    assert commutator_ideal(A).dim == 0


def test_commutator_mat2_is_everything():
    M = matrix_algebra(F2, 2)
    assert commutator_ideal(M).dim == 4


def test_commutator_upper_triangular():
    U = upper_triangular_algebra(QQ, 2)  # basis E11, E12, E22
    c = commutator_ideal(U)
    assert c.dim == 1
    assert c.contains(U.basis_vector(1))


# --- nilradical ----------------------------------------------------------------

def test_nilradical_x3():
    A = qx_mod(0, 0, 0, 1)
    n = nilradical(A)
    assert n.dim == 2
    assert n.contains(A.basis_vector(1)) and n.contains(A.basis_vector(2))


def test_nilradical_reduced():
    A = qx_mod(-1, 0, 1)  # Q[x]/(x^2-1)
    assert nilradical(A).dim == 0


def test_nilradical_f2_dual_numbers_bruteforce():
    A = poly_quotient_algebra(make_poly(F2, [0, 0, 1]))  # F2[x]/(x^2)
    n = nilradical(A)
    # brute force over all 4 elements
    nilpotents = []
    for a0 in range(2):
        for a1 in range(2):
            v = (a0, a1)
            if vec_is_zero(F2, element_power(A, v, 2)):
                nilpotents.append(v)
    assert sorted(nilpotents) == [(0, 0), (0, 1)]
    assert n.dim == 1 and n.contains((0, 1))


def test_nilradical_rejects_function_field():
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    A = poly_quotient_algebra(make_poly(K, [K.neg(t), K.zero, K.one]))
    with pytest.raises(UnsupportedDomain):
        nilradical(A)


def reference_trace_rows(A):
    """Trace-form rows as nilradical formed them before: each Tr(e_i e_j)
    read off whole products (e_i e_j) e_m one diagonal coordinate at a time."""
    dom = A.dom

    def mult_trace(u):
        acc = dom.zero
        for m in range(A.dim):
            acc = dom.add(acc, dense_multiply(A, u, A.basis_vector(m))[m])
        return acc

    return tuple(tuple(mult_trace(A.table[i][j]) for j in range(A.dim)) for i in range(A.dim))


TRACE_FORM_ALGEBRAS = pytest.mark.parametrize(
    "A",
    [
        qx_mod(0, 0, 0, -2, 0, 1),  # Q[x]/(x^3 (x^2 - 2)), not reduced
        qx_mod(6, -2, -3, 1),  # Q[x]/((x^2 - 2)(x - 3)), reduced
        Q_RATIONAL_BASIS,  # rational structure constants
        product_algebra([qx_mod(1, 0, 1), qx_mod(0, 0, 1)]),  # Q(i) x Q[e]/(e^2)
        upper_triangular_algebra(QQ, 3),  # noncommutative
    ],
    ids=["x3-x2m2", "x2m2-xm3", "rational-basis", "product", "upper-triangular"],
)


@TRACE_FORM_ALGEBRAS
def test_trace_form_matches_mult_trace_rows(A):
    assert reference_local.trace_form(A) == reference_trace_rows(A)


@TRACE_FORM_ALGEBRAS
def test_int_trace_form_is_d_squared_times_the_trace_form(A):
    # the integer form nilradical takes the kernel of, entry by entry
    form = int_trace_form(A)
    scale = A.int_den**2
    assert all(type(x) is int for row in form for x in row)
    assert form == tuple(tuple(scale * x for x in row) for row in reference_local.trace_form(A))
    if A.is_commutative:
        kernel = subspace_from_vectors(QQ, A.dim, nullspace(QQ, reference_local.trace_form(A), A.dim))
        assert nilradical(A) == kernel


def test_nilradical_quotient_is_reduced():
    A = qx_mod(0, 0, 0, 0, 1)  # Q[x]/(x^4)
    n = nilradical(A)
    B, _ = quotient_algebra(A, n)
    assert nilradical(B).dim == 0


# --- local decomposition ---------------------------------------------------------

def check_local_decomposition(A):
    """The split's idempotents are orthogonal and sum to 1, and each factor's
    numbers are those of the algebra e*A peeled off by the reference, whose
    projection respects multiplication."""
    factors = local_decomposition(A).factors
    dom = A.dom
    # orthogonal idempotents summing to 1
    total = (dom.zero,) * A.dim
    for lf in factors:
        e = lf.idempotent
        assert element_multiply(A, e, e) == e
        total = tuple(dom.add(a, b) for a, b in zip(total, e))
    assert total == A.unit
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            assert vec_is_zero(dom, element_multiply(A, factors[i].idempotent, factors[j].idempotent))
    assert sum(lf.dim for lf in factors) == A.dim
    assert [(lf.dim, lf.nil_dim) for lf in factors] == sorted((lf.dim, lf.nil_dim) for lf in factors)
    for lf in factors:
        C, projection = reference_local.peel_factor(A, lf.idempotent)
        assert (lf.dim, lf.nil_dim, lf.nil_mod_nil2_dim) == reference_local.factor_numbers(C)
        # the projection respects multiplication
        for i in range(A.dim):
            for j in range(A.dim):
                prod = element_multiply(A, A.basis_vector(i), A.basis_vector(j))
                terms = [(c, l) for l, c in enumerate(prod) if not dom.is_zero(c)]
                lhs = element_multiply(C, projection[i], projection[j])
                rhs = tuple(
                    sum((dom.mul(c, projection[l][k]) for c, l in terms), start=dom.zero)
                    for k in range(C.dim)
                )
                assert lhs == rhs
    return factors


# small members of the Q families the decide-only benchmark draws from: a
# squared linear factor beside an Eisenstein one, a squared Eisenstein
# factor, and a cubed linear factor beside a cubic
BENCH_MODULI = pytest.mark.parametrize(
    "modulus",
    [
        pmul(pmul(ppow(q(-1, 1), 2), q(-2, 0, 1)), q(3, 1)),
        pmul(ppow(q(-3, 0, 1), 2), q(2, 1)),
        pmul(ppow(q(-2, 1), 3), q(-5, 0, 0, 1)),
    ],
    ids=["lin2-eis2-lin", "eis2-squared-lin", "lin3-eis3"],
)


def numbers(lf):
    return lf.dim, lf.nil_dim, lf.nil_mod_nil2_dim


def assert_matches_the_quotient_reference(A):
    """Idempotents agree, repr for repr, with the decomposition through A/N
    and the Newton lift, and each factor's numbers with those of the
    reference's peeled factor algebra, its nilradical and that one's square.
    Both are compared sorted by (dim, nil_dim, idempotent): factors tied in
    (dim, nil_dim) come in the order of the factorization, which depends on
    the element each one factors by."""
    got = sorted(local_decomposition(A).factors, key=lambda lf: (lf.dim, lf.nil_dim, lf.idempotent))
    want = sorted(
        ((reference_local.factor_numbers(pf.algebra), pf.idempotent) for pf in reference_local.local_decomposition(A)),
        key=lambda entry: (entry[0][:2], entry[1]),
    )
    assert len(got) == len(want)
    for g, (w_numbers, w_idempotent) in zip(got, want):
        assert repr(g.idempotent) == repr(w_idempotent)
        assert numbers(g) == w_numbers


def assert_profile_matches_the_peeled_reference(A):
    """The sorted (dim, nil_dim, nil_mod_nil2_dim) read off A are those of
    the reference's peeled factors."""
    assert sorted(map(numbers, local_decomposition(A).factors)) == reference_local.local_profile(A)


@BENCH_MODULI
def test_local_decomposition_matches_the_quotient_reference(modulus):
    assert_matches_the_quotient_reference(poly_quotient_algebra(modulus))


@BENCH_MODULI
def test_local_decomposition_is_the_same_with_the_dense_product(monkeypatch, modulus):
    """Idempotents and factor numbers agree element for element,
    representation included, with every product taken by dense_multiply,
    and so do the factor tables and projections the reference peels from
    the idempotents."""
    A = poly_quotient_algebra(modulus)
    assert A.dim <= 6
    fast = local_decomposition(A)
    monkeypatch.setattr(algebra_module, "element_multiply", dense_multiply)
    slow_algebra = poly_quotient_algebra(modulus)
    slow = local_decomposition(slow_algebra)
    monkeypatch.undo()
    assert len(fast.factors) == len(slow.factors) > 1
    assert repr(fast) == repr(slow)
    for f, s in zip(fast.factors, slow.factors):
        (fc, fp), (sc, sp) = reference_local.peel_factor(A, f.idempotent), reference_local.peel_factor(slow_algebra, s.idempotent)
        for got, want in [(fc.table, sc.table), (fc.unit, sc.unit), (fp, sp)]:
            assert repr(got) == repr(want)


@pytest.mark.parametrize("A", [Q_RATIONAL_BASIS, Q_HALF_UNIT], ids=["rational-basis", "unit-with-denominators"])
def test_local_profile_of_the_rational_basis_fixtures(A):
    check_local_decomposition(A)
    assert_profile_matches_the_peeled_reference(A)
    assert_matches_the_quotient_reference(A)


def corpus_q_algebras():
    """Every commutative Q algebra a corpus case builds, the ambient of a
    local artinian case included."""
    out = []
    for path in sorted(CORPUS.rglob("*.case")):
        built = build_case(parse_case(path.read_text())).payload
        A = getattr(built, "amb", built)
        if isinstance(A, StructAlgebra) and A.dom == QQ and A.is_commutative:
            out.append(pytest.param(A, id=path.relative_to(CORPUS).with_suffix("").as_posix()))
    return out


@pytest.mark.parametrize("A", corpus_q_algebras())
def test_local_profile_of_the_corpus_matches_the_peeled_reference(A):
    assert_profile_matches_the_peeled_reference(A)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_local_profile_of_the_decide_only_documents_matches_the_peeled_reference(seed):
    Q_algebras = [A for A in decide_only_algebras(seed) if A.dom == QQ]
    assert len(Q_algebras) == 10
    for A in Q_algebras:
        assert_profile_matches_the_peeled_reference(A)


def test_perturbing_an_idempotent_trips_every_consistency_check():
    """_read_factors names each check that fails.  Taking one idempotent e
    to e - 1 trips them all: its trace becomes dim e*A - dim A < 1, the
    idempotents sum to 0, the dimensions, nil_dims and parts of N^2 each
    lose dim A, dim A and dim N^2, and its nil_dim turns negative.  Adding
    the unit over 2 dim A to it moves its trace by 1/2, off the integers."""
    A = qx_mod(0, 0, 0, 1, 0, 1)  # Q[x]/(x^3 (x^2 + 1))
    split = local_decomposition(A)
    nil = nilradical(A)
    nil2 = subspace_product(A, nil, nil)
    assert nil2.dim > 0 and len(split.factors) == 2
    pieces = [(lf.idempotent, lf.dim - lf.nil_dim) for lf in split.factors]
    assert algebra_module._read_factors(A, nil, nil2, pieces) == list(split.factors)
    checks = [
        "an idempotent's trace is not an integer in [1, dim A - 1]",
        "the idempotents do not sum to 1",
        "the factor dimensions do not sum to dim A",
        "the factor nil_dims do not sum to dim N",
        "the factors' parts of N^2 do not sum to dim N^2",
        "a factor's part of N^2 is not within its nilradical",
    ]
    for i, (e, residue) in enumerate(pieces):
        shifted = tuple(x - u for x, u in zip(e, A.unit))
        perturbed = pieces[:i] + [(shifted, residue)] + pieces[i + 1:]
        with pytest.raises(ValidationError) as raised:
            algebra_module._read_factors(A, nil, nil2, perturbed)
        assert str(raised.value) == "inconsistent local split: " + "; ".join(checks)
        half = tuple(x + u / (2 * A.dim) for x, u in zip(e, A.unit))
        perturbed = pieces[:i] + [(half, residue)] + pieces[i + 1:]
        with pytest.raises(ValidationError, match=r"^inconsistent local split: an idempotent's trace is not an integer"):
            algebra_module._read_factors(A, nil, nil2, perturbed)


def test_local_decomposition_split_quadratic():
    A = qx_mod(-1, 0, 1)  # Q x Q
    factors = check_local_decomposition(A)
    assert [lf.dim for lf in factors] == [1, 1]
    # idempotents are (1 +- x)/2
    idems = sorted(lf.idempotent for lf in factors)
    assert idems == [
        (Fraction(1, 2), Fraction(-1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
    ]


def test_local_decomposition_local_input():
    A = qx_mod(0, 0, 0, 1)
    factors = check_local_decomposition(A)
    assert len(factors) == 1
    assert factors[0].idempotent == A.unit
    assert numbers(factors[0]) == (3, 2, 1)


def test_local_decomposition_mixed():
    # Q[x]/((x^2+1) x^2) -> a dim-2 field and Q[y]/(y^2)
    A = qx_mod(0, 0, 1, 0, 1)
    factors = check_local_decomposition(A)
    assert [numbers(lf) for lf in factors] == [(2, 0, 0), (2, 1, 1)]


def test_local_decomposition_runs_over_q_only():
    A = poly_quotient_algebra(make_poly(F2, [0, 1, 1]))  # F2[x]/(x^2+x) = F2 x F2
    with pytest.raises(UnsupportedDomain):
        local_decomposition(A)


def test_local_decomposition_factors_once(monkeypatch):
    """One nilradical, one N^2 and one factorization per call, however many
    factors, and no algebra built."""
    calls = {}
    for name in ("nilradical", "subspace_product", "factor_over_rationals", "make_algebra"):

        def counted(*args, _real=getattr(algebra_module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(algebra_module, name, counted)
    parts = [(q(0, 1), 2), (q(-1, 1), 1), (q(1, 0, 1), 2), (q(-2, 0, 1), 1)]
    A = product_algebra([poly_quotient_algebra(ppow(g, m)) for g, m in parts])
    calls.clear()
    assert len(local_decomposition(A).factors) == 4
    assert calls == {"nilradical": 1, "subspace_product": 1, "factor_over_rationals": 1}


def test_local_split_carries_the_element_and_its_minimal_polynomial():
    """When the split runs, its element a is primitive modulo N and its
    minimal polynomial is mu = minimal_polynomial(A, a), factored as
    factor_over_rationals factors it; a split that returns early carries
    neither."""
    A = qx_mod(0, 0, -2, 0, 1)  # Q[x]/(x^2 (x^2 - 2)): x generates it
    split = local_decomposition(A)
    mu = minimal_polynomial(A, split.element)
    assert split.minimal_polynomial == factor_over_rationals(mu)
    assert split.minimal_polynomial.expand() == mu and mu.degree == A.dim
    # Q[x]/(x^2) x Q: its first basis vector generates A/N = Q x Q, with mu = x(x - 1)
    B = product_algebra([qx_mod(0, 0, 1), qx_mod(-1, 1)])
    split = local_decomposition(B)
    assert split.element == B.basis_vector(0)
    assert split.minimal_polynomial == factor_over_rationals(minimal_polynomial(B, split.element))
    assert split.minimal_polynomial.degree == 2 < B.dim
    for C in (qx_mod(0, 0, 0, 1), qx_mod(-2, 0, 1)):
        split = local_decomposition(C)
        assert (split.element, split.minimal_polynomial) == (None, None) and len(split.factors) == 1


def closure_primitive(A, a):
    """The reference predicate: the unit and a generate all of A."""
    return generated(A, [A.unit, a]).dim == A.dim


@pytest.mark.parametrize(
    "A",
    [
        poly_quotient_algebra(make_poly(F2, [0, 1, 1])),
        product_algebra([poly_quotient_algebra(make_poly(F2, [1, 1]))] * 3),
        matrix_algebra(F2, 2),
        poly_quotient_algebra(make_poly(F3, [0, 0, 0, 1])),
    ],
    ids=["f2-x2-plus-x", "f2-cubed", "mat2-f2", "f3-x3"],
)
def test_primitive_element_agrees_with_the_closure_over_fp(A):
    """On every element the degree test and the closure agree, and the search
    returns the first primitive element in itertools.product order."""
    elements = list(itertools.product(range(A.dom.p), repeat=A.dim))
    primitive = [a for a in elements if closure_primitive(A, a)]
    for a in elements:
        assert (minimal_polynomial(A, a).degree == A.dim) == (a in primitive)
    a, f = primitive_element(A)
    if primitive:
        assert a == primitive[0] and f == minimal_polynomial(A, a)
    else:
        assert (a, f) == (None, None)


@pytest.mark.parametrize("path", sorted((CORPUS / "infinite-field").glob("*.case")), ids=lambda p: p.stem)
def test_primitive_element_agrees_with_the_closure_over_q(path):
    A = build_case(parse_case(path.read_text())).payload
    rng = random.Random(A.dim)
    draws = [A.basis_vector(i) for i in range(A.dim)]
    draws += [tuple(Fraction(rng.randint(-2, 2)) for _ in range(A.dim)) for _ in range(6)]
    for a in draws:
        assert (minimal_polynomial(A, a).degree == A.dim) == closure_primitive(A, a)
    for seed in range(3):
        try:
            a, f = primitive_element(A, seed)
        except SearchBudgetExceeded:
            assert not any(closure_primitive(A, d) for d in draws)
            continue
        assert closure_primitive(A, a) and f == minimal_polynomial(A, a)


def local_shape(A):
    """(dim, nil_dim) of each local factor, in the order returned."""
    return [(lf.dim, lf.nil_dim) for lf in local_decomposition(A).factors]


PRIMARY_BASES = [q(0, 1), q(-1, 1), q(1, 0, 1), q(-2, 0, 1), q(-5, 0, 0, 1)]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(PRIMARY_BASES), st.integers(1, 3)), min_size=1, max_size=4
    ).filter(lambda parts: sum(m * g.degree for g, m in parts) <= MAX_DIM)
)
def test_local_decomposition_of_products_of_primary_quotients(parts):
    """Q[x]/(g^m) with g irreducible is local with residue field Q[x]/(g), so
    the factors of the product are its parts, sorted by (dim, nil_dim)."""
    A = product_algebra([poly_quotient_algebra(ppow(g, m)) for g, m in parts])
    check_local_decomposition(A)
    assert local_shape(A) == sorted((m * g.degree, (m - 1) * g.degree) for g, m in parts)
    assert_matches_the_quotient_reference(A)
    assert_profile_matches_the_peeled_reference(A)


# --- minimal polynomials -----------------------------------------------------------

def test_minimal_polynomial_examples():
    A = qx_mod(0, 0, 0, 1)
    assert minimal_polynomial(A, A.unit) == q(-1, 1)
    assert minimal_polynomial(A, A.basis_vector(1)) == q(0, 0, 0, 1)
    M = matrix_algebra(F2, 2)
    assert minimal_polynomial(M, M.basis_vector(1)) == make_poly(F2, [0, 0, 1])



MINIMAL_POLYNOMIAL_CASES = {
    "Q": (SOURCES["Q"][0], Q_FRACTIONS),
    "Q-rational-basis": (Q_RATIONAL_BASIS, Q_FRACTIONS),
    "Q-unit-with-denominators": (Q_HALF_UNIT, Q_FRACTIONS),
    "Q-upper-triangular": (upper_triangular_algebra(QQ, 3), Q_FRACTIONS),
    "F2": (SYMMETRIC_SOURCES["F2"][0], st.integers(0, 1)),
    "F2[x]/(x^6)": (poly_quotient_algebra(make_poly(F2, [0, 0, 0, 0, 0, 0, 1])), st.integers(0, 1)),
    "F2-upper-triangular": (upper_triangular_algebra(F2, 3), st.integers(0, 1)),
    "F5": (SOURCES["F5"][0], st.integers(0, 4)),
    "F3-upper-triangular": (upper_triangular_algebra(F3, 3), st.integers(0, 2)),
    "F2(t)-denominators": (F2T_DENOMINATORS, ratfuncs()),
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(MINIMAL_POLYNOMIAL_CASES)), st.data())
def test_minimal_polynomial_walk_matches_one_solve_per_power(name, data):
    """The walk and the solve per power give the same polynomial (over Q and
    F_p the same coefficients repr for repr), alone and modulo the two-sided
    ideal generated by a drawn element (zero, a proper ideal or all of A)."""
    A, scalars = MINIMAL_POLYNOMIAL_CASES[name]
    assert Q_HALF_UNIT.unit[0] == Fraction(1, 2)
    a, b = (tuple(data.draw(st.lists(scalars, min_size=A.dim, max_size=A.dim))) for _ in range(2))
    ideal = closure(A, zero_subspace(A.dom, A.dim), [b], ideal=True)
    for rows in (None, ideal):
        walk, solved = minimal_polynomial(A, a, rows), reference_local.minimal_polynomial(A, a, rows)
        assert walk.dom == solved.dom and walk.coeffs == solved.coeffs
        if not isinstance(A.dom, FunctionField):  # rational functions have no canonical form
            assert repr(walk.coeffs) == repr(solved.coeffs)


# --- quotients and products ---------------------------------------------------------

def test_quotient_examples():
    A = qx_mod(0, 0, 0, 1)
    z = zero_subspace(QQ, 3)
    B, _ = quotient_algebra(A, z)
    assert B.dim == 3
    x2 = subspace_from_vectors(QQ, 3, [frac(0, 0, 1)])
    C, proj = quotient_algebra(A, x2)
    assert C.dim == 2
    # C is Q[x]/(x^2): the image of x squares to zero
    ximg = proj[1]
    assert vec_is_zero(QQ, element_multiply(C, ximg, ximg))
    M = matrix_algebra(F2, 2)
    whole = subspace_from_vectors(F2, 4, [M.basis_vector(i) for i in range(4)])
    Z, _ = quotient_algebra(M, whole)
    assert Z.dim == 0


def test_quotient_rejects_non_ideal():
    A = qx_mod(0, 0, 0, 1)
    s = subspace_from_vectors(QQ, 3, [frac(0, 1, 0)])  # span{x} is not an ideal? x*x = x^2 not in it
    with pytest.raises(NotAnIdeal):
        quotient_algebra(A, s)


@pytest.mark.parametrize("side", ["left", "right"])
def test_quotient_rejects_one_sided_ideal(side):
    # in M_2(Q) on the basis E11, E12, E21, E22, span{E11, E21} (zero second
    # column) is a left ideal but not a right one, and span{E11, E12} (zero
    # second row) a right ideal but not a left one
    M = matrix_algebra(QQ, 2)
    keep = [0, 2] if side == "left" else [0, 1]
    s = subspace_from_vectors(QQ, 4, [M.basis_vector(i) for i in keep])
    e = [M.basis_vector(k) for k in range(4)]
    if side == "left":
        assert all(s.contains(element_multiply(M, x, v)) for v in s.rows for x in e)
    else:
        assert all(s.contains(element_multiply(M, v, x)) for v in s.rows for x in e)
    with pytest.raises(NotAnIdeal):
        quotient_algebra(M, s)


def qx_mod_f2():
    return poly_quotient_algebra(make_poly(F2, [1, 1]))  # F2[x]/(x+1) = F2


def test_product_examples():
    A = qx_mod(0, 0, 1)
    P = product_algebra([A])
    assert P.dim == A.dim
    QxQ = product_algebra([qx_mod(-1, 1), qx_mod(-1, 1)])
    assert QxQ.dim == 2 and QxQ.is_commutative
    F8 = product_algebra([qx_mod_f2() for _ in range(3)])
    assert F8.dim == 3


def test_subalgebra_to_algebra_roundtrip():
    A = qx_mod(0, 0, 0, 1)
    s = subspace_from_vectors(QQ, 3, [frac(1, 0, 0), frac(0, 0, 1)])
    B, incl = subalgebra_to_algebra(A, s)
    assert B.dim == 2
    assert vec_is_zero(QQ, element_multiply(B, (Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))))


# --- inversion ------------------------------------------------------------------------

def test_invert_element_and_zero_divisor():
    A = qx_mod(-2, 0, 1)  # Q[x]/(x^2-2), a field
    x = A.basis_vector(1)
    inv = invert_element(A, x)
    assert element_multiply(A, x, inv) == A.unit
    B = qx_mod(0, 0, 1)  # Q[x]/(x^2), x is a zero divisor
    with pytest.raises(NotAField) as exc:
        invert_element(B, B.basis_vector(1))
    assert exc.value.witness == B.basis_vector(1)


# --- Frobenius spans ----------------------------------------------------------------

def tower_f2t_x2_minus_t():
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    return poly_quotient_algebra(make_poly(K, [K.neg(t), K.zero, K.one]))


def test_frobenius_span_inseparable():
    L = tower_f2t_x2_minus_t()
    chain = frobenius_chain(L)
    # x^2 = t lands in the coefficient field: the Frobenius span is K
    assert [c.dim for c in chain] == [2, 1]
    squares = [element_power(L, L.basis_vector(i), 2) for i in range(L.dim)]
    assert chain[1] == subspace_from_vectors(L.dom, L.dim, squares)


def tower_separable():
    # x^2 + x + t: separable, so the Frobenius span is everything
    t = F2T.variable("t")
    return poly_quotient_algebra(make_poly(F2T, [t, F2T.one, F2T.one]))


def tower_trivial():
    K = FunctionField(3, ("t",))
    return poly_quotient_algebra(make_poly(K, [K.neg(K.variable("t")), K.one]))


def tower_two_variable():
    K = FunctionField(2, ("s", "t"))
    s_var = K.variable("s")
    t_var = K.variable("t")
    L1 = poly_quotient_algebra(make_poly(K, [K.neg(s_var), K.zero, K.one]))  # x^2 = s
    # extend by y^2 - t
    coeffs = [tuple(K.neg(t_var) if i == 0 else K.zero for i in range(2)), (K.zero, K.zero), (K.one, K.zero)]
    return extend_by_poly(L1, coeffs)


def tower_deep_chain():
    # x^4 - t over F_2(t): chain 4 -> 2 -> 1
    t = F2T.variable("t")
    return poly_quotient_algebra(make_poly(F2T, [F2T.neg(t), F2T.zero, F2T.zero, F2T.zero, F2T.one]))


TIER1_TOWERS = {
    "inseparable": tower_f2t_x2_minus_t,
    "separable": tower_separable,
    "trivial": tower_trivial,
    "two-variable": tower_two_variable,
    "deep-chain": tower_deep_chain,
}


def test_frobenius_span_separable():
    assert [c.dim for c in frobenius_chain(tower_separable())] == [2]


def test_frobenius_span_trivial():
    L = tower_trivial()
    assert L.dim == 1
    assert [c.dim for c in frobenius_chain(L)] == [1]


def test_frobenius_char_zero_rejected():
    A = qx_mod(0, 0, 1)
    with pytest.raises(CharacteristicZero):
        frobenius_chain(A)


def test_frobenius_two_variable_tower():
    L2 = tower_two_variable()
    assert L2.dim == 4
    assert [c.dim for c in frobenius_chain(L2)] == [4, 1]


def test_extend_by_poly_deep_chain():
    assert [c.dim for c in frobenius_chain(tower_deep_chain())] == [4, 2, 1]


TOWER_DOCUMENTS = tower_documents((1, 2, 3))


def every_tower():
    """Each tower of TOWER_DOCUMENTS and of TIER1_TOWERS."""
    out = [pytest.param(build_case(parse_case(text)).payload, id=name) for name, text in TOWER_DOCUMENTS]
    out += [pytest.param(build(), id=f"tier1/{name}") for name, build in TIER1_TOWERS.items()]
    return out


@pytest.mark.parametrize("L", every_tower())
def test_frobenius_chain_matches_the_chain_on_reduced_rows(L):
    chain = frobenius_chain(L)
    want = frobenius_chain_on_rows(L)
    assert [(s.rows, s.pivots) for s in chain] == [(s.rows, s.pivots) for s in want]
    # the reduced echelon form is canonical: the same RatFunc tuples too
    assert [exact(s.rows) for s in chain] == [exact(s.rows) for s in want]


@pytest.mark.parametrize("text", [t for _, t in TOWER_DOCUMENTS], ids=[n for n, _ in TOWER_DOCUMENTS])
def test_a_tower_is_built_and_decided_as_with_the_reference_arithmetic(text):
    """FunctionField.add and mul skip ratfunc where it cannot change a
    value's tuples; with reference_add and reference_mul, which never skip
    it there, each table, unit, Frobenius chain member and decide report is
    the same, num and den tuples included."""
    got, want = both_ways(case_outcome, text)
    assert got == want


@pytest.mark.parametrize("build", TIER1_TOWERS.values(), ids=TIER1_TOWERS.keys())
def test_a_tier1_tower_is_built_as_with_the_reference_arithmetic(build):
    got, want = both_ways(lambda b: algebra_outcome(b()), build)
    assert got == want


def test_a_level_equals_itself_without_printing_its_table():
    L = tower_two_variable()
    level = AlgebraScalarDomain(L)
    assert level == level and "_structure" not in vars(level)
    # two level objects of one algebra compare by their printed tables
    assert level == AlgebraScalarDomain(L) and "_structure" in vars(level)
    assert level != AlgebraScalarDomain(tower_f2t_x2_minus_t())


def test_frobenius_chain_refuses_a_noncommutative_algebra():
    with pytest.raises(ValidationError, match="commutative"):
        frobenius_chain(matrix_algebra(FunctionField(2, ("t",)), 2))


# --- one view per distinct table vector ------------------------------------------------


def scanned_sparse(A):
    """The sparse view by a scan of every coordinate of every table entry."""
    return tuple(
        tuple(tuple((k, c) for k, c in enumerate(v) if not A.dom.is_zero(c)) for v in block) for block in A.table
    )


def cleared_tensor(A):
    """The tensor make_algebra checks the laws on, caught on its way in."""
    seen = []
    real = algebra_module._first_unit_failure
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra_module, "_first_unit_failure", lambda T, *rest: seen.append(T) or real(T, *rest))
        make_algebra(A.dom, A.table, A.unit)
    (T,) = seen
    return T


def test_per_vector_applies_f_once_per_distinct_object():
    shared, equal = tuple([1, 2]), tuple([1, 2])
    calls = []
    out = algebra_module._per_vector([[shared, shared], [equal, shared]], lambda v: calls.append(v) or len(calls))
    assert out == ((1, 1), (2, 1))
    assert calls == [shared, equal] and calls[1] is equal


def _fresh_copy(A):
    """A with every table vector rebuilt as its own object: equal entries are
    distinct, as in a structure_constants table."""
    return make_algebra(A.dom, [[tuple(list(v)) for v in block] for block in A.table], A.unit)


def per_vector_algebras():
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    denominators = poly_quotient_algebra(make_poly(K, [t, K.one, K.add(t, K.one)]))  # (t + 1)x^2 + x + t
    towers = [A for A in decide_only_algebras(1) if getattr(A, "dom", None) == FunctionField(2, ("s", "t"))]
    algebras = {
        "Q-quotient": qx_mod(2, -3, 0, 1, 1),
        "Q-structure-constants": build_case(
            parse_case((CORPUS / "noncommutative" / "q-upper-triangular.case").read_text())
        ).payload,
        "F3-quotient": poly_quotient_algebra(make_poly(F3, [1, 0, 2, 1])),
        "F2(t)-quotient": tower_f2t_x2_minus_t(),
        "F2(t)-denominators": denominators,
        "F2(s,t)-two-level": towers[0],
        "F2(s,t)-two-level-fresh": _fresh_copy(towers[0]),
        "F2(t)-structure-constants": _fresh_copy(denominators),
    }
    return [pytest.param(A, id=name) for name, A in algebras.items()]


@pytest.mark.parametrize("A", per_vector_algebras())
def test_per_vector_views_match_a_per_coordinate_scan(A):
    assert exact(A.sparse) == exact(scanned_sparse(A))
    # each table vector object has one view object
    pairs = {(id(v), id(w)) for vs, ws in zip(A.table, A.sparse) for v, w in zip(vs, ws)}
    assert len(pairs) == len({id(v) for block in A.table for v in block})
    if A.dom == QQ:
        D = A.int_den
        assert A.int_tensor == tuple(
            tuple(tuple((k, c.numerator * (D // c.denominator)) for k, c in v) for v in block)
            for block in scanned_sparse(A)
        )
    if isinstance(A.dom, FunctionField):
        unit = [c for c in A.unit if c]
        _, cleared = algebra_module._poly_clearing(A.dom, unit + [c for b in A.table for v in b for c in v if c])
        want = tuple(tuple(tuple((k, cleared(c)) for k, c in v) for v in block) for block in scanned_sparse(A))
        assert cleared_tensor(A) == want


def test_a_quotient_table_holds_2n_minus_1_distinct_vectors():
    K = FunctionField(3, ("t",))
    t = K.variable("t")
    A = poly_quotient_algebra(make_poly(K, [t, K.one, K.zero, K.zero, t, K.one]))  # x^5 + t x^4 + x + t
    for view in (A.table, A.sparse, cleared_tensor(A)):
        assert len({id(v) for block in view for v in block}) == 2 * A.dim - 1


# --- powers -----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "A",
    [qx_mod(1, 0, -2, 0, 0, 1), poly_quotient_algebra(make_poly(F5, [2, 1, 0, 1])), tower_f2t_x2_minus_t()],
    ids=["Q", "F5", "F2(t)"],
)
def test_element_power_forms_one_product_per_square_and_set_bit(monkeypatch, A):
    u = tuple(A.dom.add(A.unit[i], A.dom.from_int(i)) for i in range(A.dim))
    naive = [A.unit]
    for _ in range(40):
        naive.append(element_multiply(A, naive[-1], u))
    calls = []
    real = algebra_module.element_multiply
    monkeypatch.setattr(algebra_module, "element_multiply", lambda B, x, y: calls.append((x, y)) or real(B, x, y))
    assert element_power(A, u, 0) == A.unit and not calls
    assert element_power(A, u, 1) is u and not calls
    for n in range(2, 41):
        del calls[:]
        assert element_power(A, u, n) == naive[n]
        assert len(calls) == (n.bit_length() - 1) + (bin(n).count("1") - 1)
        assert all(A.unit not in pair for pair in calls)


def test_the_arithmetic_is_formed_once_and_looks_element_multiply_up_per_call(monkeypatch):
    A = tower_f2t_x2_minus_t()
    _, multiply = A.arithmetic
    assert A.arithmetic is A.arithmetic
    calls = []
    real = algebra_module.element_multiply
    monkeypatch.setattr(algebra_module, "element_multiply", lambda B, x, y: calls.append((B, x, y)) or real(B, x, y))
    u = A.basis_vector(1)
    assert exact(multiply(u, u)) == exact(real(A, u, u))
    assert calls == [(A, u, u)]
    # closure_form reads the cached product, so the wrapper sees its products
    closure_form(A, ((), ()), [u])
    assert len(calls) > 1


# --- invariance under change of basis ----------------------------------------------

def test_operations_invariant_under_basis_change():
    rng = random.Random(5)
    A = qx_mod(0, 0, 1, 0, 1)  # Q[x]/((x^2+1) x^2)
    n = A.dim
    for _ in range(5):
        while True:
            rows = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n)]
            s = subspace_from_vectors(QQ, n, rows)
            if s.dim == n:
                break
        B = change_of_basis(A, rows)
        assert nilradical(B).dim == nilradical(A).dim
        assert commutator_ideal(B).dim == commutator_ideal(A).dim
        assert local_shape(B) == local_shape(A)


def test_subspace_product():
    A = qx_mod(0, 0, 0, 1)
    m = subspace_from_vectors(QQ, 3, [frac(0, 1, 0), frac(0, 0, 1)])
    m2 = subspace_product(A, m, m)
    assert m2.dim == 1 and m2.contains(frac(0, 0, 1))


def test_generated_subalgebra_idempotent_and_monotone():
    rng = random.Random(17)
    A = qx_mod(0, 0, 1, 0, 1)
    base = unit_span(A)
    for _ in range(10):
        g1 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(A.dim))
        g2 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(A.dim))
        s1 = generated(A, [*base.rows, g1])
        s12 = generated(A, [*base.rows, g1, g2])
        # monotone in the generator set and idempotent on its own rows
        assert s12.contains_subspace(s1)
        assert generated(A, [*base.rows, *s1.rows]) == s1
        assert s1.contains_subspace(base)
        for u in s1.rows:
            for v in s1.rows:
                assert s1.contains(element_multiply(A, u, v))


def _x5_plane_case():
    rel = build_case(parse_case((CORPUS / "local-artinian" / "x5-plane-case.case").read_text()))
    return rel.payload.amb, rel.payload.base_image


@pytest.mark.parametrize(
    "target",
    [
        lambda: (qx_mod(0, 0, 0, 0, 0, 1), None),  # Q[x]/(x^5)
        lambda: (qx_mod(0, 0, 0, 0, -1, 1), None),  # Q[x]/(x^4 (x - 1))
        _x5_plane_case,  # Q[x]/(x^5) over Q[t]/(t^2), t -> x^3
    ],
    ids=["x5", "x4-times-x-minus-1", "x5-plane-case"],
)
def test_generated_by_element_matches_subalgebra_generated(target):
    # the integer kernel over Q against the span-and-multiply fixpoint
    A, base = target()
    base = base or unit_span(A)
    form = base.form
    rng = random.Random(3)
    for _ in range(25):
        a = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(A.dim))
        expected = span_and_multiply(A, [*base.rows, a])
        assert generated_by_element(A, primitive(a), form) == expected.form
    with pytest.raises(DimensionMismatch):
        generated_by_element(A, primitive(a[:-1]), form)


# Factors of the random quotient moduli below: x, x - 1, x + 2, x^2 + 1, x^2 - 2.
MODULUS_FACTORS = [q(0, 1), q(-1, 1), q(2, 1), q(1, 0, 1), q(-2, 0, 1)]


def random_q_targets(rng):
    """(name, algebra, base, nilpotent element or None): quotients Q[x]/(m)
    with m a random product of powers of MODULUS_FACTORS, a product algebra,
    two noncommutative algebras over the unit line, and every relative
    corpus case."""
    for _ in range(6):
        picks = rng.sample(MODULUS_FACTORS, rng.randint(1, 3))
        exps = [rng.randint(1, 3) for _ in picks]
        m = q(1)
        radical = q(1)
        for f, e in zip(picks, exps):
            m = pmul(m, ppow(f, e))
            radical = pmul(radical, f)
        if m.degree > 8:
            continue
        A = poly_quotient_algebra(m)
        nil = None
        if radical.degree < m.degree:
            nil = tuple(radical.coeffs) + (QQ.zero,) * (A.dim - len(radical.coeffs))
        yield f"Q[x]/({poly_to_str(m)})", A, unit_span(A), nil
    P = product_algebra([qx_mod(0, 0, 1), qx_mod(-2, 0, 1)])
    yield "Q[x]/(x^2) x Q[x]/(x^2 - 2)", P, unit_span(P), P.basis_vector(1)
    M = matrix_algebra(QQ, 2)
    yield "M_2(Q)", M, unit_span(M), M.basis_vector(1)
    U = upper_triangular_algebra(QQ, 3)
    yield "upper triangular 3x3", U, unit_span(U), None
    for path in sorted((CORPUS / "local-artinian").glob("*.case")):
        rel = build_case(parse_case(path.read_text())).payload
        yield path.stem, rel.amb, rel.base_image, None


def test_generated_by_element_matches_subalgebra_generated_on_random_targets():
    # zero, nilpotent, random and proper-subalgebra elements of random Q
    # algebras and of the relative corpus targets: closures over a base of
    # dimension >= 2 (the walk's products by each base row), closures that
    # reach the whole algebra (A.full_form, no back-substitution) and proper
    # ones (one back-substitution)
    rng = random.Random(11)
    relative = whole = proper = 0
    for name, A, base, nil in random_q_targets(rng):
        elements = [(QQ.zero,) * A.dim]
        if nil is not None:
            assert not vec_is_zero(QQ, nil) and vec_is_zero(QQ, element_power(A, nil, A.dim))
            elements.append(nil)
        elements += [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(A.dim)) for _ in range(6)]
        # random elements of the subalgebras generated by basis vectors
        for i in range(A.dim):
            sub = span_and_multiply(A, [*base.rows, A.basis_vector(i)])
            coeffs = [rng.randint(-3, 3) for _ in sub.rows]
            elements.append(tuple(sum(c * x for c, x in zip(coeffs, col)) for col in zip(*sub.rows)))
        for a in elements:
            expected = span_and_multiply(A, [*base.rows, a])
            got = generated_by_element(A, primitive(a), base.form)
            assert got == expected.form, (name, a)
            relative += base.dim >= 2 and base.dim < expected.dim
            whole += got is A.full_form
            proper += base.dim < expected.dim < A.dim
    assert relative >= 10 and whole >= 10 and proper >= 10


def _corpus_algebra(case):
    return build_case(parse_case((CORPUS / case).read_text())).payload


@pytest.mark.parametrize("case", ["noncommutative/q-mat2.case", "noncommutative/q-upper-triangular.case"])
def test_closure_form_over_q_matches_span_and_multiply(case):
    # the commutator ideal is the whole of M_2(Q), whose form closure_form
    # returns as it is, and a proper ideal of the upper-triangular algebra,
    # which it back-substitutes once; subalgebras of both the same
    A = _corpus_algebra(case)
    e = [A.basis_vector(i) for i in range(A.dim)]
    comms = [
        tuple(map(QQ.sub, element_multiply(A, e[i], e[j]), element_multiply(A, e[j], e[i])))
        for i in range(A.dim)
        for j in range(i + 1, A.dim)
    ]
    ideal = commutator_ideal(A)
    assert ideal == span_and_multiply(A, comms, ideal=True)
    assert (ideal.dim == A.dim) == (case == "noncommutative/q-mat2.case")
    unit = unit_span(A)
    rng = random.Random(13)
    sizes = set()
    for count in (0, 1, 1, 1, 1, 2, 2, 2, 2):
        gens = [tuple(Fraction(rng.randint(-2, 2) * rng.randint(0, 1)) for _ in range(A.dim)) for _ in range(count)]
        expected = span_and_multiply(A, [A.unit, *gens])
        got = closure_form(A, unit.form, map(primitive, gens))
        assert got == expected.form, gens
        assert (got is A.full_form) == (expected.dim == A.dim)
        sizes.add(expected.dim)
    assert {1, A.dim} < sizes  # the unit line, the whole algebra and a proper one


def test_generated_by_element_runs_over_q_and_fp_only():
    for A in (
        poly_quotient_algebra(make_poly(FT, [T, FT.zero, FT.one])),  # F2(t)[x]/(x^2 + t)
        poly_quotient_algebra(make_poly(Z4, [0, 0, 1])),  # Z/4[x]/(x^2)
    ):
        with pytest.raises(UnsupportedDomain):
            generated_by_element(A, A.basis_vector(1), unit_span(A))


def test_tower_zero_divisor_leading_coefficient_raises():
    # level one is (x - t)^2, not a field; a leading coefficient of x + t at
    # the next level is a zero divisor and must surface with its witness
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    L1 = poly_quotient_algebra(make_poly(K, [K.mul(t, t), K.zero, K.one]))
    bad_lead = (K.neg(t), K.one)
    with pytest.raises(NotAField) as exc:
        extend_by_poly(L1, [(K.one, K.zero), (K.zero, K.zero), bad_lead])
    assert exc.value.witness is not None


def test_basis_change_transports_subspace_outputs_exactly():
    rng = random.Random(23)
    A = qx_mod(0, 0, 1, 0, 1)
    n = A.dim

    def to_old(rows_p, vec_new):
        out = [QQ.zero] * n
        for c, row in zip(vec_new, rows_p):
            out = [QQ.add(x, QQ.mul(c, y)) for x, y in zip(out, row)]
        return tuple(out)

    for _ in range(5):
        while True:
            P = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n)]
            if subspace_from_vectors(QQ, n, P).dim == n:
                break
        B = change_of_basis(A, P)
        for op in (nilradical, commutator_ideal):
            oldspace = op(A)
            newspace = op(B)
            transported = subspace_from_vectors(
                QQ, n, [to_old(P, r) for r in newspace.rows]
            )
            assert transported == oldspace
