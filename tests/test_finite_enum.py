"""Exhaustive finite oracles.

The independent cross-check for subalgebra lattices enumerates spans of
arbitrary element subsets (definition-level, no echelon machinery) on tiny
algebras, and the quintuple construction is compared with direct
enumeration of the product, which is the content of the product-subalgebra
correspondence.
"""

import random
from itertools import product as iproduct

import pytest

from futility.algebra import element_multiply, product_algebra
from futility.constructions import matrix_algebra, poly_quotient_algebra, upper_triangular_algebra
from futility.domains import PrimeField
from futility.errors import BudgetExceeded
from futility.finite_enum import (
    FiniteModule,
    enumerate_ideals,
    enumerate_isomorphisms,
    enumerate_submodules,
    enumerate_subalgebras,
    goursat_enumerate,
    iter_subspaces,
    module_quotient_dims,
)
from futility.linalg import subspace_from_vectors
from futility.polynomials import make_poly

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


def test_subspace_count_f2_cubed():
    # Galois number: subspaces of F_2^3
    assert sum(1 for _ in iter_subspaces(F2, 3)) == 16


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


def test_enumerate_ideals_field_is_simple():
    F4 = f2x(1, 1, 1)
    ideals = enumerate_ideals(F4)
    assert [s.dim for s in ideals] == [0, 2]


def test_enumerate_ideals_dual_numbers():
    A = f2x(0, 0, 1)
    ideals = enumerate_ideals(A)
    assert [s.dim for s in ideals] == [0, 1, 2]
    assert ideals[1].contains((0, 1))


def test_enumerate_ideals_f2_squared():
    A = product_algebra([f2x(1, 1), f2x(1, 1)])
    assert len(enumerate_ideals(A)) == 4


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


def test_quotient_lattice_matches_ideal_correspondence():
    # over a finite field, the subalgebras of A/I are exactly the images of
    # the subalgebras of A that contain I
    from futility.algebra import quotient_algebra
    from futility.linalg import combine

    for A in (f2x(0, 0, 0, 1), product_algebra([f2x(1, 1), f2x(0, 0, 1)])):
        full = enumerate_subalgebras(A, unit_span(A))
        for ideal in enumerate_ideals(A):
            B, proj = quotient_algebra(A, ideal)
            quot_lattice = {
                s.key() for s in enumerate_subalgebras(B, unit_span(B)).members
            }
            images = set()
            for s in full.members:
                if not s.contains_subspace(ideal):
                    continue
                vecs = [combine(A.dom, row, proj, B.dim) for row in s.rows]
                images.add(subspace_from_vectors(A.dom, B.dim, vecs).key())
            assert images == quot_lattice


def test_isomorphism_budget_exceeded():
    A = poly_quotient_algebra(make_poly(F3, [0, 0, 0, 0, 1]))  # dim 4 over F3
    with pytest.raises(BudgetExceeded):
        enumerate_isomorphisms(A, A)
