"""Exhaustive finite oracles.

The independent cross-check for subalgebra lattices enumerates spans of
arbitrary element subsets (definition-level, no echelon machinery) on tiny
algebras, the closure search is compared member for member with the scan of
every subspace above the unit (reference_scan) on random algebras, the
corpus F_p algebras and the seed-1 finite-lattice presentations, and on
larger algebras with the search that grows every member by every line
(reference_lattice), and the closure step with the
span-and-multiply fixpoint.  The references the acceptance criteria use are
checked here too: the ideal scan on hand-counted lattices, the quintuple
construction (reference_goursat) against direct enumeration of the product,
which is the content of the product-subalgebra correspondence, and the
submodule lattices (reference_modules) against the uniserial dimension
test.
"""

import json
import random
import sys
from itertools import product as iproduct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import futility.algebra as algebra_module
import futility.finite_enum as finite_enum_module
import futility.sampler as sampler_module
from futility.algebra import (
    closure,
    closure_form,
    commutator_ideal,
    element_multiply,
    generated_by_element,
    make_algebra,
    product_algebra,
    quotient_algebra,
)
from futility.cases import build_case, parse_case
from futility.constructions import matrix_algebra, poly_quotient_algebra
from futility.domains import PrimeField
from futility.errors import BudgetExceeded
from futility.finite_enum import enumerate_subalgebras, iter_subspaces
from futility.linalg import Subspace, bit_pack, combine, echelon_pair, reduce, subspace_from_vectors, zero_subspace
from futility.polynomials import make_poly
from futility.sampler import sample_subalgebras
from reference_closure import span_and_multiply
from reference_goursat import enumerate_isomorphisms, goursat_enumerate, scan_ideals
from reference_lattice import line_search
from reference_modules import FiniteModule, enumerate_submodules, module_quotient_dims
from reference_scan import scan_subalgebras
from reference_subspaces import generic_subspaces
from reference_tables import change_of_basis, upper_triangular_algebra

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import make_cases  # noqa: E402

F2 = PrimeField(2)
F3 = PrimeField(3)


def unit_span(A):
    return subspace_from_vectors(A.dom, A.dim, [A.unit])


def f2x(*cs):
    return poly_quotient_algebra(make_poly(F2, list(cs)))


def subalgebras_by_subset_spans(A):
    """Definition-level oracle: spans of all element subsets that contain 1
    and are closed under multiplication.  Exponential; tiny inputs only."""
    dom = A.dom
    vectors = list(iproduct(range(dom.p), repeat=A.dim))
    found = set()
    for r in range(A.dim + 1):
        from itertools import combinations

        for subset in combinations(vectors, r):
            s = subspace_from_vectors(dom, A.dim, list(subset) + [A.unit])
            key = s.key()
            if key in found:
                continue
            closed = all(
                s.contains(element_multiply(A, u, v)) for u in s.rows for v in s.rows
            )
            if closed:
                found.add(key)
    return found


def assert_matches_scan(A, base_image):
    lat = enumerate_subalgebras(A, base_image)
    assert "inclusions" not in vars(lat)  # computed on first read
    members = scan_subalgebras(A, base_image)
    # containment by generic reduce on the tuple rows, not through the
    # pair's forms that the lattice's inclusions run on
    inclusions = tuple(
        (i, j)
        for i, a in enumerate(members)
        for j, b in enumerate(members)
        if a.dim < b.dim and not any(any(reduce(b.rows, b.pivots, r, A.dom)) for r in a.rows)
    )
    assert (lat.members, lat.inclusions) == (members, inclusions)
    return lat


@st.composite
def quotient_algebras(draw, dom, max_deg):
    deg = draw(st.integers(1, max_deg))
    coeffs = draw(st.lists(st.integers(0, dom.p - 1), min_size=deg, max_size=deg))
    return poly_quotient_algebra(make_poly(dom, coeffs + [1]))


@st.composite
def invertible_matrices(draw, dom, n):
    """L * U with unit diagonals, rows permuted: every invertible matrix
    up to a diagonal factor is of this form."""
    entry = st.integers(0, dom.p - 1)
    lower = [[draw(entry) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[draw(entry) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    rows = [tuple(sum(a * b for a, b in zip(row, col)) % dom.p for col in zip(*upper)) for row in lower]
    return draw(st.permutations(rows))


@st.composite
def finite_algebras(draw):
    dom = draw(st.sampled_from([F2, F3]))
    kind = draw(st.sampled_from(["quotient", "product", "upper", "matrix"]))
    if kind == "quotient":
        return draw(quotient_algebras(dom, 5 if dom is F2 else 4))
    if kind == "product":
        left = draw(quotient_algebras(dom, 3))
        right = draw(quotient_algebras(dom, 5 - left.dim if dom is F2 else 4 - left.dim))
        return product_algebra([left, right])
    if kind == "matrix":
        A = matrix_algebra(dom, 2)
    else:  # 3x3 over F2 exposes one-sided products; the 2x2 algebras do not
        A = upper_triangular_algebra(dom, 3 if dom is F2 else 2)
    return change_of_basis(A, draw(invertible_matrices(dom, A.dim)))


@st.composite
def algebras_with_base(draw):
    """An F_2 or F_3 algebra with a base image: the unit line, the span of
    random vectors (rarely closed), or a proper subalgebra."""
    A = draw(finite_algebras())
    kind = draw(st.sampled_from(["unit", "span", "subalgebra"]))
    if kind == "unit":
        return A, unit_span(A)
    if kind == "span":
        vec = st.tuples(*[st.integers(0, A.dom.p - 1)] * A.dim)
        return A, subspace_from_vectors(A.dom, A.dim, draw(st.lists(vec, min_size=1, max_size=2)))
    members = scan_subalgebras(A, unit_span(A))
    return A, draw(st.sampled_from(members))


@settings(max_examples=60, deadline=None)
@given(algebras_with_base())
def test_closure_search_matches_subspace_scan(case):
    A, base = case
    assert_matches_scan(A, base)


def test_closure_search_matches_scan_on_fixed_algebras():
    x = (0, 1, 0)
    A = f2x(0, 0, 0, 1)  # F2[x]/(x^3); span{1, x} is not closed
    lat = assert_matches_scan(A, subspace_from_vectors(F2, 3, [A.unit, x]))
    assert [s.dim for s in lat.members] == [3]
    for B in (matrix_algebra(F2, 2), upper_triangular_algebra(F2, 3),
              product_algebra([f2x(1, 1), f2x(1, 1), f2x(1, 1)])):
        assert_matches_scan(B, unit_span(B))


# the 7 F_p algebras of the corpus and the 135 finite-lattice documents of
# seeds 1-3: the search stops each grow at a member it holds, so where a walk
# ends depends on the order members are found in
SCANNED = [
    pytest.param(path.read_text(), id=str(path.relative_to(CORPUS)))
    for path in sorted(CORPUS.rglob("*.case"))
    if json.loads(path.read_text())["base"]["kind"] == "Fp"
] + [
    pytest.param(case.text, id=case.case_id if seed == 1 else f"{case.case_id}@seed-{seed}")
    for seed in (1, 2, 3)
    for case in make_cases("finite-lattice", seed, ROOT)
]


@pytest.mark.parametrize("text", SCANNED)
def test_closure_search_matches_the_reference_scan(text):
    # member for member, against a scan that shares no code with _search
    A = build_case(parse_case(text)).payload
    assert enumerate_subalgebras(A, unit_span(A)).members == scan_subalgebras(A)


def permuted(A, order):
    return change_of_basis(A, [A.basis_vector(k) for k in order])


def spanned(A, *vecs):
    return subspace_from_vectors(A.dom, A.dim, list(vecs))


F2X8 = f2x(*([0] * 8 + [1]))
UT3_F2 = permuted(upper_triangular_algebra(F2, 3), [4, 1, 5, 0, 3, 2])
M2_F3 = permuted(matrix_algebra(F3, 2), [2, 0, 3, 1])
F3X5 = poly_quotient_algebra(make_poly(F3, [0, 0, 0, 0, 0, 1]))
F2X3_F2X4 = product_algebra([f2x(0, 0, 0, 1), f2x(0, 0, 0, 0, 1)])


# up to dimension 8, where the subspace scan is too slow; the noncommutative
# algebras on a permuted basis, and the bases beyond the unit line start the
# search above the subalgebra the unit spans
@pytest.mark.parametrize(
    "A, base",
    [
        (F2X8, unit_span(F2X8)),
        (F2X8, spanned(F2X8, F2X8.basis_vector(2))),  # x^2: starts at F2[x^2]
        (UT3_F2, unit_span(UT3_F2)),
        (M2_F3, unit_span(M2_F3)),
        (M2_F3, spanned(M2_F3, M2_F3.basis_vector(0))),
        (F3X5, unit_span(F3X5)),
        (F2X3_F2X4, unit_span(F2X3_F2X4)),
        (F2X3_F2X4, spanned(F2X3_F2X4, F2X3_F2X4.basis_vector(0))),  # an idempotent
    ],
    ids=["F2[x]/(x^8)", "F2[x]/(x^8) over x^2", "UT3(F2) permuted", "M2(F3) permuted",
         "M2(F3) permuted over a basis vector", "F3[x]/(x^5)",
         "F2[x]/(x^3) x F2[x]/(x^4)", "F2[x]/(x^3) x F2[x]/(x^4) over an idempotent"],
)
def test_closure_search_matches_line_search(A, base):
    # the search grows each member by its generators' residuals; the
    # reference grows it by every line of A/S
    start = closure(A, zero_subspace(A.dom, A.dim), [*base.rows, A.unit])
    members = enumerate_subalgebras(A, base).members
    assert members == tuple(sorted(line_search(A, start), key=Subspace.key))


# --- prime-field kernel -------------------------------------------------------

def random_vectors(data, A, count):
    vec = st.tuples(*[st.integers(0, A.dom.p - 1)] * A.dim)
    return [data.draw(vec) for _ in range(count)]


# commutative and noncommutative, besides the random ones
FIXED_FP_ALGEBRAS = [
    f2x(0, 0, 0, 1),
    poly_quotient_algebra(make_poly(PrimeField(5), [2, 0, 1])),
    matrix_algebra(F3, 2),
    upper_triangular_algebra(F2, 3),
]


@settings(max_examples=60, deadline=None)
@given(st.one_of(finite_algebras(), st.sampled_from(FIXED_FP_ALGEBRAS)), st.data())
def test_int_closure_matches_subalgebra_generated(A, data):
    gens = random_vectors(data, A, data.draw(st.integers(0, 2)))
    zero = zero_subspace(A.dom, A.dim)
    S = closure(A, zero, [A.unit, *gens])
    assert S == span_and_multiply(A, [A.unit, *gens])
    assert all(type(x) is int and 0 <= x < A.dom.p for row in S.rows for x in row)
    # grown from a closed span by one more vector, as the search does
    [a] = random_vectors(data, A, 1)
    assert closure(A, S, [a]) == span_and_multiply(A, [*S.rows, a])
    # the same for ideals, from zero and from an ideal
    I = closure(A, zero, gens, ideal=True)
    assert I == span_and_multiply(A, gens, ideal=True)
    assert closure(A, I, [a], ideal=True) == span_and_multiply(A, [*I.rows, a], ideal=True)


# --- F_2 kernel ---------------------------------------------------------------

def seeded_change_of_basis(A, seed):
    """A on a basis of random vectors, drawn from a seeded stream until they
    are independent."""
    rng = random.Random(seed)
    while True:
        rows = [tuple(rng.randrange(A.dom.p) for _ in range(A.dim)) for _ in range(A.dim)]
        if subspace_from_vectors(A.dom, A.dim, rows).dim == A.dim:
            return change_of_basis(A, rows)


F2_ALGEBRAS = {
    "F2[x]/(x^6)": f2x(0, 0, 0, 0, 0, 0, 1),
    "F2[x]/(x^3) x F4": product_algebra([f2x(0, 0, 0, 1), f2x(1, 1, 1)]),
    "M2(F2)": matrix_algebra(F2, 2),
    "UT3(F2)": upper_triangular_algebra(F2, 3),
}
F2_ALGEBRAS.update({f"{name} on a seeded basis": seeded_change_of_basis(A, 5) for name, A in list(F2_ALGEBRAS.items())})
F2_ALGEBRAS["dimension 0"] = make_algebra(F2, [], [])


@pytest.mark.parametrize("name", sorted(F2_ALGEBRAS))
def test_f2_search_on_packed_rows_matches_line_search(name):
    # the search holds its members, generators and lines as packed ints
    A = F2_ALGEBRAS[name]
    assert echelon_pair(A.dom).enter is bit_pack
    start = closure(A, zero_subspace(A.dom, A.dim), [A.unit])
    members = enumerate_subalgebras(A, unit_span(A)).members
    assert members == tuple(sorted(line_search(A, start), key=Subspace.key))
    assert all(type(x) is int and 0 <= x < 2 for S in members for row in S.rows for x in row)


@pytest.mark.parametrize("name", sorted(F2_ALGEBRAS))
def test_f2_closure_on_packed_rows_matches_span_and_multiply(name):
    # subalgebras and ideals from zero, and each grown from a closed span by
    # one more vector, on seeded vectors; the noncommutative algebras grow
    # by products on both sides
    A = F2_ALGEBRAS[name]
    rng = random.Random(7)
    zero = zero_subspace(A.dom, A.dim)
    for _ in range(12):
        gens = [tuple(rng.randrange(2) for _ in range(A.dim)) for _ in range(rng.randrange(3))]
        a = tuple(rng.randrange(2) for _ in range(A.dim))
        S = closure(A, zero, [A.unit, *gens])
        assert S == span_and_multiply(A, [A.unit, *gens])
        assert closure(A, S, [a]) == span_and_multiply(A, [*S.rows, a])
        I = closure(A, zero, gens, ideal=True)
        assert I == span_and_multiply(A, gens, ideal=True)
        assert closure(A, I, [a], ideal=True) == span_and_multiply(A, [*I.rows, a], ideal=True)


@pytest.mark.parametrize(
    "n, count, inclusions", [(7, 35, 249), (8, 110, 1254), (9, 193, 2988), (10, 596, 15163)]
)
def test_truncated_polynomial_subalgebra_counts(n, count, inclusions):
    # the inclusion counts pin the containment that runs on packed rows
    A = f2x(*([0] * n + [1]))  # F2[x]/(x^n)
    lat = enumerate_subalgebras(A, unit_span(A))
    assert (lat.count, len(lat.inclusions)) == (count, inclusions)


def test_subspace_count_f2_cubed():
    # Galois number: subspaces of F_2^3
    assert sum(1 for _ in iter_subspaces(F2, 3)) == 16


@pytest.mark.parametrize("dom, n", [(F2, n) for n in range(1, 6)] + [(F3, n) for n in range(1, 4)])
def test_iter_subspaces_matches_the_generic_loop(dom, n):
    # the lines are yielded directly; the sequence must not change
    assert list(iter_subspaces(dom, n)) == list(generic_subspaces(dom, n))


@pytest.mark.parametrize(
    "A",
    [
        f2x(0, 0, 0, 0, 0, 0, 1),  # F2[x]/(x^6)
        poly_quotient_algebra(make_poly(F3, [0, 0, 0, 0, 1])),  # F3[x]/(x^4)
        product_algebra([f2x(0, 0, 0, 1), f2x(0, 0, 1)]),  # F2[x]/(x^3) x F2[x]/(x^2)
        f2x(1, 1, 1),  # F4 = F2[x]/(x^2 + x + 1)
    ],
    ids=["F2[x]/(x^6)", "F3[x]/(x^4)", "F2[x]/(x^3) x F2[x]/(x^2)", "F4"],
)
def test_power_walk_matches_closure_on_every_member_and_line(A):
    # S[a] by powers of a against the closure worklist, for every member S
    # and every line a of A/S
    dom, n = A.dom, A.dim
    enter, *_, leave, _ = echelon_pair(dom)
    checked = 0
    for S in enumerate_subalgebras(A, unit_span(A)).members:
        free = [c for c in range(n) if c not in S.pivots]
        for line in iter_subspaces(dom, len(free)):
            if line.dim == 0:
                continue
            if line.dim > 1:
                break
            a = [0] * n
            for c, x in zip(free, line.rows[0]):
                a[c] = x
            a = tuple(a)
            rows, pivots = generated_by_element(A, enter(a), (tuple(map(enter, S.rows)), S.pivots))
            walk = Subspace(dom, n, leave(rows, pivots, n), pivots)
            assert walk == closure(A, S, [a]), (S.rows, a)
            checked += 1
    assert checked > 0


# --- fewer products: the early stop at a known member and the unit's row ---

def pair_form(A, S):
    enter = echelon_pair(A.dom).enter
    return tuple(map(enter, S.rows)), S.pivots


def found_dict(A, members) -> dict:
    """The members keyed by their rows, as the search keeps them."""
    return {form[0]: form for form in (pair_form(A, S) for S in members)}


@settings(max_examples=40, deadline=None)
@given(finite_algebras(), st.data())
def test_walks_return_the_same_form_with_and_without_found(A, data):
    # found stops a walk at the first grow that lands on a member it holds;
    # with every member, with some of them, or with none, the walks return
    # the form they return without found
    enter = echelon_pair(A.dom).enter
    members = enumerate_subalgebras(A, unit_span(A)).members
    held = data.draw(st.lists(st.sampled_from(members), max_size=len(members)))
    for found in ({}, found_dict(A, held), found_dict(A, members)):
        for S in data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=3)):
            a = enter(data.draw(st.tuples(*[st.integers(0, A.dom.p - 1)] * A.dim)))
            base = pair_form(A, S)
            walks = [lambda f: closure_form(A, base, [a], found=f)]
            if A.is_commutative:
                walks.append(lambda f: generated_by_element(A, a, base, f))
            for walk in walks:
                assert walk(found) == walk(None)


def spy_products(monkeypatch) -> list:
    """Every pair of factors of a product that algebra._arithmetic's product
    forms from now on."""
    real = algebra_module._arithmetic
    products = []

    def arithmetic(A):
        pair, multiply = real(A)

        def spied(u, v):
            products.append((u, v))
            return multiply(u, v)
        return pair, spied

    monkeypatch.setattr(algebra_module, "_arithmetic", arithmetic)
    return products


def test_a_walk_that_lands_on_a_known_member_forms_no_product(monkeypatch):
    # F2[x]/(x^3) over the unit line, grown by x^2: the first grow spans
    # {1, x^2}, a member, so the walk stops before it forms x^4
    A = f2x(0, 0, 0, 1)
    member = pair_form(A, spanned(A, A.unit, A.basis_vector(2)))
    products = spy_products(monkeypatch)
    base, a = pair_form(A, unit_span(A)), bit_pack(A.basis_vector(2))
    assert generated_by_element(A, a, base, {member[0]: member}) is member
    assert closure_form(A, base, [a], found={member[0]: member}) is member
    assert products == []
    assert generated_by_element(A, a, base) == member and len(products) == 1


def spy_unit_rows(monkeypatch, module, name, base_arg) -> list:
    """Wrap the walk module.name, whose base is its positional argument
    base_arg (A is argument 0), so that each call records its base's unit
    row, its base's dimension and the factors of every product formed in
    it."""
    products = spy_products(monkeypatch)
    real = getattr(module, name)
    walks = []

    def walk(A, *args, **kw):
        rows, pivots = args[base_arg - 1]
        unit_row = rows[pivots.index(A.unit_pivot)]
        start = len(products)
        out = real(A, *args, **kw)
        walks.append((unit_row, len(rows), [tuple(f) if type(f) is not int else f
                                             for pair in products[start:] for f in pair]))
        return out

    monkeypatch.setattr(module, name, walk)
    return walks


def assert_no_unit_row_factor(walks):
    assert any(dim > 1 and factors for _, dim, factors in walks)  # bases with rows to drop
    for unit_row, _, factors in walks:
        assert unit_row not in factors


def test_the_search_never_multiplies_by_the_unit_row(monkeypatch):
    walks = spy_unit_rows(monkeypatch, finite_enum_module, "closure_form", 1)
    assert enumerate_subalgebras(UT3_F2, unit_span(UT3_F2)).count == len(scan_subalgebras(UT3_F2))
    assert_no_unit_row_factor(walks)


def test_the_sampler_never_multiplies_by_the_unit_row(monkeypatch):
    rel = build_case(parse_case((CORPUS / "local-artinian" / "x5-plane-case.case").read_text())).payload
    assert rel.base_image.dim == 2
    walks = spy_unit_rows(monkeypatch, sampler_module, "generated_by_element", 2)
    sample_subalgebras(rel, trials=200, bound=3, seed=1)
    assert_no_unit_row_factor(walks)


def test_a_base_without_the_unit_keeps_its_rows():
    # span(E11) in M2(F2) is closed and has its pivot at the unit's leading
    # coordinate, but it does not hold the unit: grown by E21 + E22 it gives
    # the lower triangular algebra through (E21 + E22)*E11 = E21, which a
    # walk that dropped E11's row would miss, stopping at a plane
    A = matrix_algebra(F2, 2)  # basis E11, E12, E21, E22
    E11, E21, E22 = (A.basis_vector(k) for k in (0, 2, 3))
    base = spanned(A, E11)
    assert A.unit_pivot == base.pivots[0] and not base.contains(A.unit)
    y = (0, 0, 1, 1)  # E21 + E22
    lower = spanned(A, E11, E21, E22)
    assert closure_form(A, pair_form(A, base), [bit_pack(y)]) == pair_form(A, lower)
    assert closure(A, base, [y]) == lower == span_and_multiply(A, [E11, y])


def test_enumerate_dim1():
    A = f2x(1, 1)  # F2
    lat = enumerate_subalgebras(A, unit_span(A))
    assert lat.count == 1


def test_enumerate_f2_x3():
    A = f2x(0, 0, 0, 1)  # F2[x]/(x^3)
    lat = enumerate_subalgebras(A, unit_span(A))
    assert lat.count == 3
    dims = sorted(s.dim for s in lat.members)
    assert dims == [1, 2, 3]
    assert lat.members == tuple(sorted(lat.members, key=lambda s: s.key()))
    assert subalgebras_by_subset_spans(A) == {s.key() for s in lat.members}


def test_enumerate_mat2_f2_against_subset_oracle():
    A = matrix_algebra(F2, 2)
    lat = enumerate_subalgebras(A, unit_span(A))
    assert {s.key() for s in lat.members} == subalgebras_by_subset_spans(A)
    assert lat.count == 12


def test_enumerate_members_revalidate():
    A = product_algebra([f2x(1, 1), f2x(0, 0, 1)])
    lat = enumerate_subalgebras(A, unit_span(A))
    for s in lat.members:
        assert s.contains(A.unit)
        for u in s.rows:
            for v in s.rows:
                assert s.contains(element_multiply(A, u, v))
    # inclusions consistent with containment
    for i, j in lat.inclusions:
        assert lat.members[j].contains_subspace(lat.members[i])


def test_budget_exceeded():
    A = matrix_algebra(F2, 2)
    with pytest.raises(BudgetExceeded):
        enumerate_subalgebras(A, unit_span(A), budget=8)


def test_a_base_image_beyond_the_unit_gets_its_own_lattice():
    # the members over x^2 are the members over the unit that contain x^2
    A = f2x(*([0] * 6 + [1]))  # F2[x]/(x^6)
    x2 = A.basis_vector(2)
    over_unit = enumerate_subalgebras(A, unit_span(A))
    over_x2 = enumerate_subalgebras(A, spanned(A, x2))
    assert (over_unit.count, over_x2.count) == (24, 4)
    assert over_x2.members == tuple(s for s in over_unit.members if s.contains(x2))


def test_truncated_polynomial_ideal_count():
    # the scan visits all 2825 subspaces of F_2^6
    A = f2x(*([0] * 6 + [1]))  # F2[x]/(x^6): the ideals (x^k), 0 <= k <= 6
    ideals = scan_ideals(A)
    assert [s.dim for s in ideals] == [0, 1, 2, 3, 4, 5, 6]


def test_enumerate_ideals_field_is_simple():
    F4 = f2x(1, 1, 1)
    ideals = scan_ideals(F4)
    assert [s.dim for s in ideals] == [0, 2]


def test_enumerate_ideals_dual_numbers():
    A = f2x(0, 0, 1)
    ideals = scan_ideals(A)
    assert [s.dim for s in ideals] == [0, 1, 2]
    assert ideals[1].contains((0, 1))


def test_enumerate_ideals_f2_squared():
    A = product_algebra([f2x(1, 1), f2x(1, 1)])
    assert len(scan_ideals(A)) == 4


def test_isomorphisms_f2():
    A = f2x(1, 1)
    assert enumerate_isomorphisms(A, A) == [((1,),)]


def test_isomorphisms_f4_identity_and_frobenius():
    F4 = f2x(1, 1, 1)
    isos = enumerate_isomorphisms(F4, F4)
    assert len(isos) == 2


def test_isomorphisms_no_match_with_nilpotents():
    A = f2x(0, 0, 1)
    F4 = f2x(1, 1, 1)
    assert enumerate_isomorphisms(A, F4) == []


def goursat_check(A, B):
    lat1 = goursat_enumerate(A, B)
    AB = product_algebra([A, B])
    lat2 = enumerate_subalgebras(AB, unit_span(AB))
    assert {s.key() for s in lat1.members} == {s.key() for s in lat2.members}
    assert lat1.count == lat2.count
    return lat1.count


def test_goursat_f2_f2():
    count = goursat_check(f2x(1, 1), f2x(1, 1))
    assert count == 2  # diagonal and everything


def test_goursat_f2_dualnumbers():
    goursat_check(f2x(1, 1), f2x(0, 0, 1))


def test_goursat_dualnumbers_pair():
    goursat_check(f2x(0, 0, 1), f2x(0, 0, 1))


def test_goursat_f4_ut2():
    goursat_check(f2x(1, 1, 1), upper_triangular_algebra(F2, 2))


def test_goursat_f3_pair():
    A = poly_quotient_algebra(make_poly(F3, [0, 0, 1]))
    B = poly_quotient_algebra(make_poly(F3, [1, 1]))
    goursat_check(A, B)


# --- finite modules -----------------------------------------------------------

def test_submodules_z4_over_z4():
    M = FiniteModule(kind="zmod", p=2, k=2, orders=(4,))
    subs, chain = enumerate_submodules(M)
    assert [len(s) for s in subs] == [1, 2, 4]
    assert chain


def test_submodules_klein_over_z4():
    M = FiniteModule(kind="zmod", p=2, k=2, orders=(2, 2))
    subs, chain = enumerate_submodules(M)
    assert not chain
    assert [len(s) for s in subs] == [1, 2, 2, 2, 4]


def test_submodules_z2_plus_z4_over_z8():
    M = FiniteModule(kind="zmod", p=2, k=3, orders=(2, 4))
    subs, chain = enumerate_submodules(M)
    assert not chain


def test_module_dims_match_chain_flag():
    rng = random.Random(13)
    for _ in range(60):
        p = rng.choice([2, 3])
        k = rng.randint(1, 3)
        ncomp = rng.randint(1, 3)
        orders = tuple(p ** rng.randint(0, k) for _ in range(ncomp))
        orders = tuple(o for o in orders if o > 1) or (p,)
        M = FiniteModule(kind="zmod", p=p, k=k, orders=orders)
        if M.size > 256:
            continue
        subs, chain = enumerate_submodules(M)
        d0, d1 = module_quotient_dims(M)
        assert chain == (d0 <= 1 and d1 <= 1)


def test_eps_module():
    # F_2[e]/(e^2) acting on (Z/2)^2 by the nilpotent shift
    M = FiniteModule(kind="eps", p=2, k=2, orders=(2, 2), eps=((0, 1), (0, 0)))
    subs, chain = enumerate_submodules(M)
    d0, d1 = module_quotient_dims(M)
    assert (d0, d1) == (1, 1)
    assert chain


def images_of_members_containing(A, lattice, ideal):
    """The quotient A/ideal with the images in it of the members of A's
    lattice that contain the ideal, as canonical keys, and their number."""
    B, proj = quotient_algebra(A, ideal)
    images = set()
    count = 0
    for s in lattice.members:
        if s.contains_subspace(ideal):
            vecs = [combine(A.dom, row, proj, B.dim) for row in s.rows]
            images.add(subspace_from_vectors(A.dom, B.dim, vecs).key())
            count += 1
    return B, images, count


def test_quotient_lattice_matches_ideal_correspondence():
    # over a finite field, the subalgebras of A/I are exactly the images of
    # the subalgebras of A that contain I
    for A in (f2x(0, 0, 0, 1), product_algebra([f2x(1, 1), f2x(0, 0, 1)])):
        full = enumerate_subalgebras(A, unit_span(A))
        for ideal in scan_ideals(A):
            B, images, _ = images_of_members_containing(A, full, ideal)
            assert images == {s.key() for s in enumerate_subalgebras(B, unit_span(B)).members}


UPPER_TRIANGULAR_F2 = CORPUS / "noncommutative" / "f2-upper-triangular.case"


@pytest.mark.parametrize(
    "make",
    [
        lambda: matrix_algebra(F2, 2),
        lambda: upper_triangular_algebra(F2, 3),
        lambda: matrix_algebra(F3, 2),
        lambda: upper_triangular_algebra(F3, 2),
        lambda: build_case(parse_case(UPPER_TRIANGULAR_F2.read_text())).payload,
    ],
    ids=["M2(F2)", "UT3(F2)", "M2(F3)", "UT2(F3)", "noncommutative/f2-upper-triangular"],
)
def test_the_commutative_quotient_counts_the_members_over_the_commutator_ideal(make):
    # the paper's reduction: the unital subalgebras of A/[A, A] are the
    # subalgebras of A that contain the commutator ideal [A, A]
    A = make()
    comm = commutator_ideal(A)
    assert comm.dim > 0
    B, images, count = images_of_members_containing(A, enumerate_subalgebras(A, unit_span(A)), comm)
    quotient = enumerate_subalgebras(B, unit_span(B))
    assert quotient.count == count
    assert {s.key() for s in quotient.members} == images


def test_isomorphism_budget_exceeded():
    A = poly_quotient_algebra(make_poly(F3, [0, 0, 0, 0, 1]))  # dim 4 over F3
    with pytest.raises(BudgetExceeded):
        enumerate_isomorphisms(A, A)
