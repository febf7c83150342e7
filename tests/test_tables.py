"""Structure tables built and checked in one place, against the loops each
builder ran on its own (reference_tables): the matrix-unit table, the
re-presentations of subalgebras and local factors on their own bases and
the associativity check of Z presentations."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import reference_local
import reference_tables as ref
from futility import constructions, deciders
from futility.algebra import (
    StructAlgebra,
    closure,
    local_decomposition,
    product_algebra,
    subalgebra_to_algebra,
)
from futility.constructions import matrix_algebra, poly_quotient_algebra
from futility.deciders import ZPresentation
from futility.domains import QQ, FunctionField, PrimeField
from futility.errors import BudgetExceeded, MalformedPresentation, ValidationError
from futility.linalg import subspace_from_vectors, zero_subspace
from futility.polynomials import make_poly

F2 = PrimeField(2)
F3 = PrimeField(3)
FT = FunctionField(2, ("t",))
T = FT.variable("t")
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def tables(A):
    return repr((A.dom, A.dim, A.table, A.unit))


def q_quotient(*cs):
    return poly_quotient_algebra(make_poly(QQ, [Fraction(c) for c in cs]))


def outcome(fn, *args):
    """What fn(*args) returns, algebras shown by their tables and the rest by
    repr, or the class and message of the error it raises."""
    try:
        return _shown(fn(*args))
    except (ValidationError, MalformedPresentation) as exc:
        return type(exc).__name__, str(exc)


def _shown(x):
    if isinstance(x, StructAlgebra):
        return tables(x)
    if isinstance(x, tuple):
        return tuple(map(_shown, x))
    return repr(x)


# --- matrix units -------------------------------------------------------------

@pytest.mark.parametrize("dom", [QQ, F2, F3], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("size", [0, 1, 2, 3])
def test_matrix_unit_tables_match_the_reference(dom, size):
    assert tables(matrix_algebra(dom, size)) == tables(ref.matrix_algebra(dom, size))


@pytest.mark.parametrize("build", [matrix_algebra])
@pytest.mark.parametrize("size", [-1, -3, -6, -10**9])
def test_negative_matrix_size_is_refused(build, size):
    # refused as negative, not as a dimension over the cap, and before any
    # table entry is formed
    with pytest.raises(ValidationError) as exc:
        build(QQ, size)
    assert str(exc.value) == f"matrix size must not be negative, got {size}"
    assert build(QQ, 0).dim == 0


@pytest.mark.parametrize("build", [matrix_algebra])
def test_matrix_dimension_cap_runs_before_the_positions_are_listed(monkeypatch, build):
    # size 10^9 has 10^18 positions: a cap checked once the table is being
    # formed would reach its first entry, which fails the test here instead
    # of running
    def formed(*args):
        raise AssertionError("a table entry was formed before the dimension cap")

    monkeypatch.setattr(constructions, "unit_vec", formed)
    monkeypatch.setattr(constructions, "zero_vec", formed)
    with pytest.raises(BudgetExceeded):
        build(F2, 10**9)


# --- re-presentations ---------------------------------------------------------

F2T_QUOTIENT = poly_quotient_algebra(make_poly(FT, [FT.add(T, FT.one), FT.zero, FT.zero, FT.zero, FT.one]))


def _subspaces(A):
    """Subspaces of A to re-present: generated subalgebras, the unit line, a
    span that is not closed and a span without the unit."""
    e = [A.basis_vector(i) for i in range(A.dim)]
    zero = zero_subspace(A.dom, A.dim)
    return [
        subspace_from_vectors(A.dom, A.dim, [A.unit]),
        closure(A, zero, [A.unit, e[2]]),
        closure(A, zero, [A.unit, e[1]]),
        subspace_from_vectors(A.dom, A.dim, [A.unit, e[1]]),
        subspace_from_vectors(A.dom, A.dim, [e[1], e[2]]),
    ]


@pytest.mark.parametrize(
    "A",
    [q_quotient(0, 0, 0, -2, 0, 1), ref.upper_triangular_algebra(QQ, 3), F2T_QUOTIENT],
    ids=["Q-quotient", "Q-upper-triangular", "F2(t)-quotient"],
)
def test_subalgebras_match_the_reference(A):
    seen = set()
    for s in _subspaces(A):
        want = outcome(ref.subalgebra_to_algebra, A, s)
        assert outcome(subalgebra_to_algebra, A, s) == want
        seen.add(want[0] if want[0] == "ValidationError" else "algebra")
    assert seen == {"ValidationError", "algebra"}


@pytest.mark.parametrize(
    "A",
    [
        q_quotient(0, 0, -2, 2, -1, 1),  # x^2 (x^2 - 2)(x - 1)
        product_algebra([q_quotient(0, 0, 1), q_quotient(-2, 0, 1), q_quotient(1, 1)]),
    ],
    ids=["Q-quotient", "Q-product"],
)
def test_local_factors_match_the_reference(A):
    """The peel of each local factor through algebra._algebra_on
    (reference_local) gives the tables and projection of the per-entry loop,
    and the dimension the split reads off A."""
    factors = local_decomposition(A).factors
    assert len(factors) == 3
    for lf in factors:
        C, projection = ref.peel_factor(A, lf.idempotent)
        peeled, peeled_projection = reference_local.peel_factor(A, lf.idempotent)
        assert tables(peeled) == tables(C) and peeled_projection == projection
        assert lf.dim == C.dim


# --- associativity of Z presentations -------------------------------------------

def _z_fields(case):
    alg = json.loads((CORPUS / f"{case}.case").read_text())["algebra"]
    n = alg["gens"]
    return n, [list(r) for r in alg["relations"]], [[list(v) for v in row] for row in alg["table"]], list(alg["unit"])


def _judge_both(n, relations, table, unit):
    def construct():
        ZPresentation(
            ngens=n,
            relations=tuple(map(tuple, relations)),
            table=tuple(tuple(map(tuple, row)) for row in table),
            unit=tuple(unit),
        )

    return outcome(construct), outcome(ref.check_z_presentation, n, relations, table, unit)


UNIT_LAW = "unit law fails"
NOT_IDEAL = "relation lattice is not an ideal for the given table"
NOT_ASSOCIATIVE = "associativity fails"


@pytest.mark.parametrize(
    "case, kinds",
    [
        # with two generators, the first the unit, a moved product of the
        # second with itself stays associative; every other entry is in the
        # unit law
        ("integer/z-split", {"None", UNIT_LAW}),
        ("integer/z-rank2-nilpotent", {"None", UNIT_LAW}),
        ("integer/z-nilpotent-torsion", {"None", UNIT_LAW, NOT_IDEAL}),
        ("noncommutative/z-times-mat2-f2", {"None", UNIT_LAW, NOT_IDEAL, NOT_ASSOCIATIVE}),
    ],
)
def test_every_single_z_perturbation_is_judged_like_the_reference(case, kinds):
    # each table entry in turn moved by each delta, so each (i, j, k) and the
    # first failing triple of each check are exercised; relation rows make
    # the last two compare modulo a lattice
    n, relations, table, unit = _z_fields(case)
    assert _judge_both(n, relations, table, unit) == ("None", "None")
    outcomes = set()
    for (i, j, k), delta in itertools.product(itertools.product(range(n), repeat=3), (1, -1, 2, 5)):
        perturbed = [[list(v) for v in row] for row in table]
        perturbed[i][j][k] += delta
        got, want = _judge_both(n, relations, perturbed, unit)
        assert got == want, (i, j, k, delta)
        outcomes.add(want[1].split(" at ")[0] if want != "None" else want)
    assert outcomes == kinds


def test_dense_z_presentations_fail_at_the_reference_triple():
    # random dense tables on Z^8 with generator 0 as the unit: almost surely
    # not associative, over Z and modulo 2 and 3, where the first failing
    # triple is found modulo the relation lattice
    rng = random.Random(5)
    n = 8
    identity = [[int(i == j) for i in range(n)] for j in range(n)]
    unit = identity[0]
    failures = 0
    for _ in range(4):
        table = [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        table[0] = [list(e) for e in identity]
        for j in range(n):
            table[j][0] = list(identity[j])
        for m in (0, 2, 3):
            relations = [[m * x for x in e] for e in identity] if m else []
            got, want = _judge_both(n, relations, table, unit)
            assert got == want
            failures += want[1].startswith("associativity fails")
    assert failures == 12


def test_symmetric_z_presentations_take_the_half_scan_to_the_reference_triple(monkeypatch):
    # tables equal to their transpose as raw rows, generator 0 the unit, over
    # Z and modulo 2 and 3: Z[x]/(x^4 - 2x - 1) with each symmetric pair of
    # entries off the unit moved by one, and random dense tables.  The scan
    # forms only the blocks with k >= i and raises the reference's message;
    # some first failures (i, j, k) have i < k, so the mirror (k, j, i) that
    # the half scan skips fails later in the reference's loop
    real = deciders.first_nonassociative
    scans = []

    def watched(T, combine, middle):
        scans.append(ref.scan_with_blocks(real, T, combine, middle))
        return scans[-1][0]

    monkeypatch.setattr(deciders, "first_nonassociative", watched)
    quartic = [[[int(c) for c in v] for v in block] for block in q_quotient(-1, -2, 0, 0, 1).table]
    tables = []
    for i, j in itertools.combinations_with_replacement(range(1, 4), 2):
        for k in range(4):
            table = [[list(v) for v in block] for block in quartic]
            table[i][j][k] += 1
            table[j][i][k] = table[i][j][k]
            tables.append(table)
    rng = random.Random(11)
    n = 6
    identity = [[int(i == j) for i in range(n)] for j in range(n)]
    for _ in range(4):
        table = [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for i in range(n):
            table[0][i] = table[i][0] = list(identity[i])
            for j in range(i):
                table[i][j] = list(table[j][i])
        tables.append(table)
    failures = mirrored = 0
    for table in tables:
        n = len(table)
        for m in (0, 2, 3):
            relations = [[m * int(i == j) for i in range(n)] for j in range(n)] if m else []
            scans.clear()
            got, want = _judge_both(n, relations, table, [1] + [0] * (n - 1))
            assert got == want
            if want[1].startswith("associativity fails"):
                [(half, least)] = scans
                assert all(k >= i for i, k in enumerate(least)) and want[1].endswith(f"triple {half}")
                failures += 1
                mirrored += half[0] < half[2]
    assert failures > 20 and mirrored


def test_z_presentations_reach_a_generator_only_through_plus_or_minus_one(monkeypatch):
    # 1, a, b with a^2 = c*b and the other products of a and b zero, over Z:
    # b is reached from a for c = 1 and c = -1 only.  Modulo 2, with b^2 = 1
    # in place of 0, a^2 = 2b is zero, a lies in the nucleus, and
    # (a b) b = 0 differs from a (b b) = a: the scan must take b as a middle
    # index of its own to find that
    real = deciders.first_nonassociative
    middles = []

    def watched(T, combine, middle):
        middles.append(list(middle))
        return real(T, combine, middle)

    monkeypatch.setattr(deciders, "first_nonassociative", watched)
    one, a, b, z = [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]
    even = [[2 * int(i == j) for i in range(3)] for j in range(3)]
    for c, relations, square in [(1, [], z), (-1, [], z), (2, [], z), (3, [[0, 0, 3]], z), (2, even, one)]:
        table = [[one, a, b], [a, [0, 0, c], z], [b, z, square]]
        middles.clear()
        got, want = _judge_both(3, relations, table, one)
        assert got == want
        assert middles == [[1] if abs(c) == 1 else [1, 2]]
    assert want == ("MalformedPresentation", "associativity fails at generator triple (1, 2, 2)")
