"""Smith normal form and integer lattice helpers.

The independent oracle for invariant factors computes gcds of k x k minors,
which never touches the elimination path used by the implementation.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from futility.domains import QQ
from futility.intmat import (
    det_int,
    hermite_basis,
    hnf_adjoin,
    hnf_reduce,
    lattice_contains,
    lattice_index,
    smith_normal_form,
)
from futility.linalg import solve
from reference_hermite import batch_hermite_basis


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


def random_rows(rng, m, n, size):
    """m integer rows of length n, mixed with zero rows, repeated rows,
    multiples of rows and, now and then, rows from a rank-2 lattice."""
    if m and rng.random() < 0.3:
        gens = [[rng.randint(-size, size) for _ in range(n)] for _ in range(2)]
        return [[rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(*gens)] for _ in range(m)]
    rows = [[rng.randint(-size, size) for _ in range(n)] for _ in range(m)]
    extras = []
    for r in rows:
        u = rng.random()
        if u < 0.15:
            extras.append([0] * n)
        elif u < 0.3:
            extras.append(list(r))
        elif u < 0.45:
            extras.append([rng.choice((-4, -2, 3, 7)) * x for x in r])
    rows += extras
    rng.shuffle(rows)
    return rows


def test_fold_matches_batch_hermite_basis():
    rng = random.Random(11)
    for _ in range(3000):
        rows = random_rows(rng, rng.randint(0, 7), rng.randint(1, 6), rng.choice((1, 3, 10, 1000)))
        assert [list(r) for r in hermite_basis(rows)] == batch_hermite_basis(rows), rows


@pytest.mark.parametrize(
    "rows",
    [[], [[0, 0, 0]], [[0, 0], [0, 0]], [[4, 6], [4, 6], [-8, -12]], [[0, 3, 5], [0, 6, 10], [0, 0, 2]],
     [[2, 4, 6], [3, 6, 9]], [[6, 0], [10, 0], [15, 0]], [[0, -7]]],
    ids=["empty", "zero-row", "zero-rows", "repeated-and-multiple", "leading-zero-column",
         "rank-deficient", "gcd-of-three", "negative-pivot"],
)
def test_fold_matches_batch_hermite_basis_on_fixed_inputs(rows):
    assert [list(r) for r in hermite_basis(rows)] == batch_hermite_basis(rows)


def test_hnf_reduce_is_a_coset_key():
    """v and v + (a lattice combination) reduce to the same key, which is
    zero exactly on the lattice, and keys differ across cosets."""
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 5)
        basis = hermite_basis(random_rows(rng, rng.randint(0, 5), n, 6))
        v = [rng.randint(-20, 20) for _ in range(n)]
        coeffs = [rng.randint(-5, 5) for _ in basis]
        shift = [sum(c * row[k] for c, row in zip(coeffs, basis)) for k in range(n)]
        key = hnf_reduce(basis, v)
        assert hnf_reduce(basis, [x + y for x, y in zip(v, shift)]) == key
        assert hnf_reduce(basis, key) == key
        assert (not any(key)) == lattice_contains(basis, v)
        assert not any(hnf_reduce(basis, shift))
        # the key differs from v by a lattice vector
        assert lattice_contains(basis, [x - y for x, y in zip(v, key)])
        w = [rng.randint(-20, 20) for _ in range(n)]
        same = hnf_reduce(basis, w) == key
        assert same == lattice_contains(basis, [x - y for x, y in zip(v, w)])


def test_hnf_adjoin_matches_hermite_basis_of_the_union():
    rng = random.Random(8)
    for _ in range(500):
        n = rng.randint(1, 5)
        rows = random_rows(rng, rng.randint(0, 5), n, 9)
        basis = hermite_basis(rows)
        v = [rng.randint(-30, 30) for _ in range(n)]
        residual = hnf_reduce(basis, v)
        if any(residual):
            assert list(hnf_adjoin(basis, residual)) == hermite_basis([*rows, v])


def index_by_coordinates(big, small):
    """[big : small] the old way: solve each row of small in the rows of big
    (a basis) over Q, then take the determinant of the integer coordinates."""
    coords = []
    for r in small:
        sol = solve(QQ, [[Fraction(x) for x in b] for b in big], [Fraction(x) for x in r])
        assert sol is not None and all(x.denominator == 1 for x in sol)
        coords.append([int(x) for x in sol])
    return abs(det_int(coords))


def test_lattice_index_on_non_hermite_nested_pairs():
    rng = random.Random(13)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        big = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        if len(hermite_basis(big)) != k:
            continue
        # small: integer combinations of big's rows with a nonsingular matrix
        while True:
            C = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
            if det_int(C):
                break
        small = [[sum(c * row[j] for c, row in zip(crow, big)) for j in range(n)] for crow in C]
        expected = index_by_coordinates(big, small)
        assert expected == abs(det_int(C))
        # redundant rows change neither lattice
        padded = small + [[2 * x for x in small[0]], [0] * n]
        assert lattice_index(big, small) == expected
        assert lattice_index(big + [[x + y for x, y in zip(big[0], big[-1])]], padded) == expected
        checked += 1
    with pytest.raises(ValueError):
        lattice_index([[2, 0], [0, 1]], [[1, 0], [0, 1]])
