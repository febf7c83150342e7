"""Smith normal form and integer lattice helpers.

The independent oracle for invariant factors computes gcds of k x k minors,
which never touches the elimination path used by the implementation.
"""

import math
import random
from itertools import combinations

from futility.intmat import (
    det_int,
    hermite_basis,
    lattice_contains,
    lattice_index,
    smith_normal_form,
    solve_integer,
)


def mat_mul_int(a, b):
    """Integer matrix product, the reference for checking U*M*V = D."""
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def minors_gcd(M, k):
    """gcd of all k x k minors (0 if all vanish)."""
    m, n = len(M), len(M[0])
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            sub = [[M[r][c] for c in cols] for r in rows]
            g = math.gcd(g, abs(det_int(sub)))
    return g


def invariant_factors_via_minors(M):
    """Independent oracle: d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    if not M or not M[0]:
        return ()
    out = []
    prev = 1
    for k in range(1, min(len(M), len(M[0])) + 1):
        g = minors_gcd(M, k)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def check_snf(M):
    res = smith_normal_form(M)
    if M and M[0]:
        assert [list(r) for r in res.D] == mat_mul_int(
            mat_mul_int([list(r) for r in res.U], [list(r) for r in M]), [list(r) for r in res.V]
        )
        assert abs(det_int(res.U)) == 1
        assert abs(det_int(res.V)) == 1
    for i in range(len(res.invariant_factors) - 1):
        assert res.invariant_factors[i + 1] % res.invariant_factors[i] == 0
    # off-diagonal zero
    for i, row in enumerate(res.D):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    return res


def test_snf_diag_2_3():
    res = check_snf([[2, 0], [0, 3]])
    assert res.invariant_factors == (1, 6)
    assert res.rank == 2


def test_snf_identity():
    res = check_snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert res.invariant_factors == (1, 1, 1)


def test_snf_zero_row_matrix():
    res = check_snf([[0, 0]])
    assert res.rank == 0
    assert res.invariant_factors == ()


def test_snf_empty_matrix():
    res = smith_normal_form([])
    assert res.rank == 0
    assert res.invariant_factors == ()


def test_snf_against_minor_gcd_oracle_random():
    rng = random.Random(7)
    for _ in range(100):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        res = check_snf(M)
        assert res.invariant_factors == invariant_factors_via_minors(M)


def test_snf_preserves_det_for_square_nonsingular():
    rng = random.Random(3)
    count = 0
    while count < 25:
        n = rng.randint(1, 5)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        d = det_int(M)
        if d == 0:
            continue
        count += 1
        res = check_snf(M)
        prod = 1
        for f in res.invariant_factors:
            prod *= f
        assert prod == abs(d)


def test_hermite_membership_and_index():
    basis = hermite_basis([[2, 0, 0], [0, 3, 0]])
    assert lattice_contains(basis, [4, 3, 0])
    assert not lattice_contains(basis, [1, 0, 0])
    assert not lattice_contains(basis, [0, 0, 1])
    big = hermite_basis([[1, 0, 0], [0, 1, 0]])
    assert lattice_index(big, basis) == 6
    assert lattice_index(hermite_basis([[1, 0, 0]]), basis) is None


def test_solve_integer():
    basis = [[2, 1], [0, 3]]
    assert solve_integer(basis, [2, 4]) == [1, 1]
    assert solve_integer(basis, [1, 0]) is None
