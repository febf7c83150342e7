"""Decision procedures: boundary cases, certificates, consistency
invariants, and basis-change invariance."""

import ast
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from futility import deciders
from futility.algebra import (
    make_algebra,
    make_relative,
    minimal_polynomial,
    nilradical,
    primitive_element,
    product_algebra,
    quotient_algebra,
)
from futility.cases import build_case, parse_case
from futility.cli import main as cli_main
from futility.constructions import matrix_algebra, poly_quotient_algebra
from futility.deciders import (
    FUTILE,
    NOT_FUTILE,
    LocalizedZ,
    ZPresentation,
    decide_field_extension,
    decide_finite_base,
    decide_infinite_field,
    decide_integer_algebra,
    decide_local_artinian,
    decide_noncommutative,
    find_generator,
)
from futility.domains import QQ, FunctionField, ModRing, PrimeField
from futility.errors import MalformedPresentation, UnsupportedDomain
from futility.linalg import subspace_from_vectors, zero_subspace
from futility.polynomials import factor_over_rationals, make_poly, ppow, pmul
from reference_closure import span_and_multiply
from reference_hermite import dense_multiply, ideal_fixpoint
from reference_tables import upper_triangular_algebra

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import make_cases  # noqa: E402

F2 = PrimeField(2)


def q(*cs):
    return make_poly(QQ, [Fraction(c) for c in cs])


def qx_mod(poly):
    return poly_quotient_algebra(poly)


def x_power_algebra(r):
    return qx_mod(make_poly(QQ, [Fraction(0)] * r + [Fraction(1)]))


def square_zero_plane():
    # Q[x,y]/(x,y)^2: dim 3, maximal ideal squares to zero
    z = Fraction(0)
    o = Fraction(1)
    table = [
        [(o, z, z), (z, o, z), (z, z, o)],
        [(z, o, z), (z, z, z), (z, z, z)],
        [(z, z, o), (z, z, z), (z, z, z)],
    ]
    return make_algebra(QQ, table, (o, z, z))


# --- infinite field decider ---------------------------------------------------

@pytest.mark.parametrize("r,expected", [(1, FUTILE), (2, FUTILE), (3, FUTILE), (4, NOT_FUTILE), (5, NOT_FUTILE), (6, NOT_FUTILE)])
def test_nilpotent_line_boundary(r, expected):
    rep = decide_infinite_field(x_power_algebra(r))
    assert rep.verdict == expected


def test_certificate_soundness_x3():
    A = x_power_algebra(3)
    rep = decide_infinite_field(A)
    gen = rep.certificate["generator"]
    fac = rep.certificate["minimal_polynomial"]
    assert span_and_multiply(A, [A.unit, gen]).dim == A.dim
    assert fac.expand() == minimal_polynomial(A, gen)
    # factorization shape: all multiplicities 1 except possibly one linear factor
    heavy = [(g, m) for g, m in fac.factors if m > 1]
    assert len(heavy) <= 1
    for g, m in heavy:
        assert g.degree == 1 and m <= 3


def test_repeated_quadratic_not_futile():
    A = qx_mod(ppow(q(1, 0, 1), 2))  # Q[x]/((x^2+1)^2)
    rep = decide_infinite_field(A)
    assert rep.verdict == NOT_FUTILE
    assert "residue field" in rep.certificate["violation"]


def test_two_nilpotent_blocks_not_futile():
    A = qx_mod(pmul(ppow(q(0, 1), 2), ppow(q(-1, 1), 2)))  # x^2 (x-1)^2
    rep = decide_infinite_field(A)
    assert rep.verdict == NOT_FUTILE
    assert "non-reduced local factors" in rep.certificate["violation"]


def test_field_factors_futile():
    A = qx_mod(pmul(q(1, 0, 1), q(-2, 0, 1)))  # (x^2+1)(x^2-2)
    rep = decide_infinite_field(A)
    assert rep.verdict == FUTILE


def test_mixed_futile():
    A = qx_mod(pmul(ppow(q(0, 1), 2), q(-1, 1)))  # x^2 (x-1)
    rep = decide_infinite_field(A)
    assert rep.verdict == FUTILE


@pytest.mark.parametrize(
    "A,B",
    [
        (qx_mod(q(-5, 0, 0, 1)), x_power_algebra(3)),  # Q[x]/(x^3 - 5) and Q[x]/(x^3)
        (qx_mod(q(1, 0, 1)), x_power_algebra(2)),  # Q(i) and Q[eps]
        # equal (dim, nil_dim), different nil_mod_nil2_dim
        (square_zero_plane(), x_power_algebra(3)),
    ],
    ids=["cubic-field-and-x3", "gaussian-and-dual", "plane-and-x3"],
)
def test_local_profile_is_independent_of_factor_order(A, B):
    profiles = [
        decide_infinite_field(product_algebra(parts)).certificate["local_profile"]
        for parts in ([A, B], [B, A])
    ]
    assert profiles[0] == profiles[1]


def test_dim3_with_square_zero_radical_not_futile():
    A = square_zero_plane()
    rep = decide_infinite_field(A)
    assert rep.verdict == NOT_FUTILE
    assert "not principal" in rep.certificate["violation"]


def test_noncommutative_over_q_not_futile():
    rep = decide_infinite_field(upper_triangular_algebra(QQ, 2))
    assert rep.verdict == NOT_FUTILE
    assert rep.certificate["violation"] == "noncommutative over an infinite field"


def test_quotient_consistency():
    # every quotient of a futile algebra stays futile
    A = qx_mod(pmul(ppow(q(0, 1), 3), q(-1, 1)))  # x^3 (x-1): futile
    assert decide_infinite_field(A).verdict == FUTILE
    # quotient by each ideal generated by a basis nilpotent power
    nil = nilradical(A)
    from futility.algebra import closure

    for v in nil.rows:
        ideal = closure(A, zero_subspace(QQ, A.dim), [v], ideal=True)
        B, _ = quotient_algebra(A, ideal)
        assert decide_infinite_field(B).verdict == FUTILE


# --- field extensions ----------------------------------------------------------

def test_purely_inseparable_degree_p():
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    L = poly_quotient_algebra(make_poly(K, [K.neg(t), K.zero, K.one]))
    rep = decide_field_extension(L)
    assert rep.verdict == FUTILE
    assert rep.certificate["frobenius_index"] == 2
    assert rep.certificate["chain_dims"] == [2, 1]


def test_separable_quadratic():
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    L = poly_quotient_algebra(make_poly(K, [t, K.one, K.one]))  # x^2 + x + t
    rep = decide_field_extension(L)
    assert rep.verdict == FUTILE
    assert rep.certificate["frobenius_index"] == 1


def test_two_variable_tower_not_futile():
    from futility.constructions import extend_by_poly

    K = FunctionField(2, ("s", "t"))
    s = K.variable("s")
    t = K.variable("t")
    L1 = poly_quotient_algebra(make_poly(K, [K.neg(s), K.zero, K.one]))
    coeffs = [(K.neg(t), K.zero), (K.zero, K.zero), (K.one, K.zero)]
    L2 = extend_by_poly(L1, coeffs)
    rep = decide_field_extension(L2)
    assert rep.verdict == NOT_FUTILE
    assert rep.certificate["frobenius_index"] == 4


def test_trivial_tower_futile():
    K = FunctionField(3, ("t",))
    L = poly_quotient_algebra(make_poly(K, [K.neg(K.variable("t")), K.one]))
    rep = decide_field_extension(L)
    assert rep.verdict == FUTILE
    assert rep.certificate["frobenius_index"] == 1


def test_chain_ratios_weakly_decreasing():
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    L = poly_quotient_algebra(make_poly(K, [K.neg(t), K.zero, K.zero, K.zero, K.one]))  # x^4 - t
    rep = decide_field_extension(L)
    dims = rep.certificate["chain_dims"]
    assert dims == [4, 2, 1]
    ratios = [Fraction(a, b) for a, b in zip(dims, dims[1:])]
    assert all(r1 >= r2 for r1, r2 in zip(ratios, ratios[1:]))
    assert rep.verdict == FUTILE


# --- finite base -----------------------------------------------------------------

@pytest.mark.parametrize(
    "make, size",
    [
        (lambda: poly_quotient_algebra(make_poly(F2, [0, 0, 0, 1])), 8),
        (lambda: matrix_algebra(F2, 2), 16),
        (lambda: poly_quotient_algebra(make_poly(PrimeField(3), [0, 0, 1])), 9),
        (lambda: poly_quotient_algebra(make_poly(ModRing(4), [0, 0, 1])), 16),
    ],
    ids=["F2[x]/(x^3)", "M2(F2)", "F3[x]/(x^2)", "Z4[x]/(x^2)"],
)
def test_finite_base_is_decided_by_its_cardinality(make, size):
    # one certificate and one note list for every finite ring
    A = make()
    rep = decide_finite_base(A)
    assert rep.verdict == FUTILE
    assert rep.certificate == {"cardinality": size}
    assert rep.notes == (
        f"finite algebra with {size} elements over {A.dom}",
        "a finite set has finitely many subsets: cardinality argument applies",
    )


def test_the_deciders_import_no_oracle():
    # a decider that read the enumeration's or the sampler's work could not
    # be checked by them
    tree = ast.parse((ROOT / "src" / "futility" / "deciders.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert not imported & {"finite_enum", "sampler"}


# --- generator search -------------------------------------------------------------

def test_find_generator_f2_squared():
    A = poly_quotient_algebra(make_poly(F2, [0, 1, 1]))  # F2 x F2
    res = find_generator(A)
    assert res.generator is not None
    assert res.exhaustive
    f = res.factored.expand()
    assert f == make_poly(F2, [0, 1, 1])


def test_find_generator_f2_cubed_proven_none():
    one = poly_quotient_algebra(make_poly(F2, [1, 1]))
    A = product_algebra([one, one, one])
    res = find_generator(A)
    assert res.generator is None
    assert res.exhaustive


def test_find_generator_q_x3():
    A = x_power_algebra(3)
    res = find_generator(A)
    assert res.generator is not None
    assert span_and_multiply(A, [A.unit, res.generator]).dim == 3


# Futile Q cases whose split runs and finds an element of degree dim A, and
# those where find_generator searches: the split's element misses A
# (q-product-split) or the split returns early (q-x3, q-cubic-field)
SPLIT_PATH = ["q-mixed", "q-two-fields", "q-field-and-block", "q-split-quadratic"]
SEARCH_PATH = ["q-product-split", "q-x3", "q-cubic-field"]
FUTILE_DECIDE_ONLY_Q = {"q8-lin2", "q8-lin3", "q8-reduced", "q8-lin3-eis", "q9-eis4-lin2"}


def assert_certificate_is_the_search_result(monkeypatch, A, seed):
    """The Futile certificate's generator and minimal polynomial are, repr
    for repr, primitive_element(A, seed) with its polynomial factored by
    factor_over_rationals; returns whether find_generator searched."""
    searches = []

    def counted(*args, **kwargs):
        searches.append(args)
        return primitive_element(*args, **kwargs)

    monkeypatch.setattr(deciders, "primitive_element", counted)
    rep = decide_infinite_field(A, seed=seed)
    monkeypatch.undo()
    assert rep.verdict == FUTILE
    a, f = primitive_element(A, seed)
    cert = rep.certificate
    assert repr((cert["generator"], cert["minimal_polynomial"])) == repr((a, factor_over_rationals(f, seed=seed)))
    return bool(searches)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", SPLIT_PATH + SEARCH_PATH)
def test_futile_certificate_is_the_search_result_on_the_corpus(monkeypatch, name, seed):
    A = build_case(parse_case((CORPUS / "infinite-field" / f"{name}.case").read_text())).payload
    assert assert_certificate_is_the_search_result(monkeypatch, A, seed) == (name in SEARCH_PATH)


def test_futile_certificate_is_the_split_element_on_the_decide_only_documents(monkeypatch):
    futile = set()
    for case in make_cases("decide-only", 1, ROOT):
        A = build_case(parse_case(case.text)).payload
        if A.dom != QQ or decide_infinite_field(A).verdict != FUTILE:
            continue
        futile.add(case.case_id.split("/")[1].split("#")[0])
        assert not assert_certificate_is_the_search_result(monkeypatch, A, 0)
    assert futile == FUTILE_DECIDE_ONLY_Q


def test_futile_product_decides_without_a_closure(monkeypatch):
    """The generator of a Futile certificate comes from the minimal
    polynomial alone: no closure runs."""
    import futility.algebra

    calls = []
    real = futility.algebra.closure
    monkeypatch.setattr(futility.algebra, "closure", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    A = product_algebra([x_power_algebra(2), qx_mod(q(-1, 1)), qx_mod(q(-2, 0, 1))])
    rep = decide_infinite_field(A)
    assert rep.verdict == FUTILE and calls == []
    assert span_and_multiply(A, [A.unit, rep.certificate["generator"]]).dim == A.dim


# --- noncommutative reduction -------------------------------------------------------

def test_noncommutative_ut2_q():
    rep = decide_noncommutative(upper_triangular_algebra(QQ, 2))
    assert rep.verdict == NOT_FUTILE
    assert rep.certificate["commutator_dim"] == 1


def test_noncommutative_commutative_defers():
    rep = decide_noncommutative(x_power_algebra(3))
    assert rep.verdict == FUTILE
    assert rep.criterion == "infinite-field-classification"


def test_noncommutative_finite():
    M = matrix_algebra(F2, 2)
    rep = decide_noncommutative(M)
    assert rep.verdict == FUTILE
    assert rep.certificate["commutator_dim"] == 4
    assert rep.certificate["commutator_size"] == 16


def test_noncommutative_over_function_field_is_refused():
    # the case routes refuse F_p(t) structure algebras before any reduction;
    # a direct call reaches the decider's own refusal
    with pytest.raises(UnsupportedDomain, match=r"^no noncommutative path for domain F2\(t\)$"):
        decide_noncommutative(matrix_algebra(FunctionField(2, ("t",)), 2))


# --- integer algebras -----------------------------------------------------------------

def zpres_zx_mod(relations, table, ngens, unit=None):
    return ZPresentation(
        ngens=ngens,
        relations=tuple(tuple(r) for r in relations),
        table=tuple(tuple(tuple(v) for v in row) for row in table),
        unit=tuple(unit or ([1] + [0] * (ngens - 1))),
    )


def zx_mod_x2_minus_x():
    # Z[x]/(x^2 - x): generators 1, x with x*x = x
    table = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 1]],
    ]
    return zpres_zx_mod([], table, 2)


def zx_mod_x2_5x():
    # Z[x]/(x^2, 5x): generators 1, x with x*x = 0 and relation 5x = 0
    table = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 0]],
    ]
    return zpres_zx_mod([[0, 5]], table, 2)


def test_integer_rank2_not_futile():
    rep = decide_integer_algebra(zx_mod_x2_minus_x())
    assert rep.verdict == NOT_FUTILE
    assert rep.certificate["free_rank"] == 2


def test_integer_rank1_with_torsion_futile():
    rep = decide_integer_algebra(zx_mod_x2_5x())
    assert rep.verdict == FUTILE
    assert rep.certificate["free_rank"] == 1
    assert rep.certificate["torsion_size"] == 5


def test_integer_localized_futile():
    rep = decide_integer_algebra(LocalizedZ(invert=6))
    assert rep.verdict == FUTILE
    assert rep.certificate["localization"] == "Z[1/6]"


def test_integer_finite_futile():
    # F_2[x]/(x^2) as a Z-algebra
    table = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 0]],
    ]
    zp = zpres_zx_mod([[2, 0], [0, 2]], table, 2)
    rep = decide_integer_algebra(zp)
    assert rep.verdict == FUTILE
    assert rep.certificate["free_rank"] == 0
    assert rep.certificate["torsion_size"] == 4


def test_integer_malformed_rejected():
    # relation lattice not multiplication stable: 2*1 = 0 but x*1 = x has
    # no 2x relation while x*(2*1) would need it... build a broken one
    table = [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
    ]
    # x*x = 1 with relation 2*x = 0 forces 2*1 = 0 too; omitting it breaks
    with pytest.raises(MalformedPresentation):
        zpres_zx_mod([[0, 2]], table, 2)


ASSOC_FAILS = [  # 1 unit, x*x = y, x*y = y*x = 0, y*y = 1: (xx)y = 1, x(xy) = 0
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
]


@pytest.mark.parametrize(
    "gens, relations, table, unit, message",
    [
        (1, [[1, 0]], [[[1]]], [1], "relation row has wrong length"),
        (2, [], [[[1, 0], [0, 1]]], [1, 0], "multiplication table is not ngens x ngens"),
        (1, [], [[[1, 0]]], [1], "table entry has wrong length"),
        (1, [], [[[1]]], [1, 0], "unit vector has wrong length"),
        (2, [[0, 2]], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 0],
         "relation lattice is not an ideal for the given table"),
        (1, [], [[[1]]], [2], "unit law fails at generator 0"),
        (3, [], ASSOC_FAILS, [1, 0, 0], "associativity fails at generator triple (1, 1, 2)"),
    ],
    ids=["relation-length", "table-shape", "entry-length", "unit-length", "not-an-ideal", "unit-law", "associativity"],
)
def test_malformed_presentation_fails_at_construction(tmp_path, capsys, gens, relations, table, unit, message):
    """Each check of ZPresentation raises when it is built, and a case with
    the same data ends in that one error line."""
    with pytest.raises(MalformedPresentation) as exc:
        zpres_zx_mod(relations, table, gens, unit)
    assert str(exc.value) == message
    algebra = {"kind": "z_presentation", "gens": gens, "relations": relations, "table": table, "unit": unit}
    path = tmp_path / "malformed.case"
    path.write_text(json.dumps({"format_version": 1, "id": "tmp/z", "base": {"kind": "Z"}, "algebra": algebra}))
    assert cli_main(["decide", "--case", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def z_times_mat2_f2():
    """Z x Mat_2(F_2): generators (1,0), (0,E11), (0,E12), (0,E21), (0,E22);
    relations kill 2 E_ij; the global unit is (1, E11+E22) = g0 + g1 + g4."""
    n = 5

    def vec(*pairs):
        v = [0] * n
        for i, c in pairs:
            v[i] = c
        return v

    def mat_entry(a, b, c, d):
        # E_ab * E_cd = delta_bc E_ad, with generator indices 1..4 row-major
        if b != c:
            return vec()
        return vec((1 + 2 * a + d, 1))

    table = [[None] * n for _ in range(n)]
    table[0][0] = vec((0, 1))
    for i in range(1, n):
        table[0][i] = vec()
        table[i][0] = vec()
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    table[1 + 2 * a + b][1 + 2 * c + d] = mat_entry(a, b, c, d)
    relations = [vec((i, 2)) for i in range(1, n)]
    unit = vec((0, 1), (1, 1), (4, 1))
    return ZPresentation(
        ngens=n,
        relations=tuple(tuple(r) for r in relations),
        table=tuple(tuple(tuple(v) for v in row) for row in table),
        unit=tuple(unit),
    )


def test_z_times_mat2_decide_checks_the_presentation_once(monkeypatch, capsys):
    checks = []
    real = ZPresentation.__post_init__
    monkeypatch.setattr(ZPresentation, "__post_init__", lambda self: checks.append(self) or real(self))
    path = Path(__file__).resolve().parent.parent / "corpus" / "noncommutative" / "z-times-mat2-f2.case"
    assert cli_main(["decide", "--case", str(path)]) == 0
    assert "verdict:   Futile" in capsys.readouterr().out
    assert len(checks) == 1


def test_z_times_mat2_futile_with_trace():
    zp = z_times_mat2_f2()
    rep = decide_noncommutative(zp)
    assert rep.verdict == FUTILE
    assert rep.certificate["commutator_size"] == 16
    assert rep.certificate["quotient"]["free_rank"] == 1
    assert any("recursing" in n for n in rep.notes)


def zpres_of_order(A, relations=(), seed=None):
    """The Z presentation of the order spanned by the basis of A, whose
    structure constants are integers; with a seed, in the basis f = P*e for
    a random unimodular P, with relation rows and unit carried along."""
    n = A.dim
    table = [[[int(c) for c in v] for v in row] for row in A.table]
    unit = [int(c) for c in A.unit]
    relations = [list(r) for r in relations]
    if seed is not None:
        rng = random.Random(seed)
        P = [[int(i == j) for j in range(n)] for i in range(n)]
        Q = [[int(i == j) for j in range(n)] for i in range(n)]  # P^-1
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            P[i] = [x + c * y for x, y in zip(P[i], P[j])]
            for row in Q:
                row[j] -= c * row[i]

        def coords(x):  # old coordinates -> new ones: x * P^-1
            return [sum(x[a] * Q[a][k] for a in range(n)) for k in range(n)]

        table = [[coords(dense_multiply(table, P[i], P[j])) for j in range(n)] for i in range(n)]
        unit, relations = coords(unit), [coords(r) for r in relations]
    return zpres_zx_mod(relations, table, n, unit)


def commutator_test_presentations():
    T3 = upper_triangular_algebra(QQ, 3)
    M2 = matrix_algebra(QQ, 2)
    # 2 * (strictly upper triangular part) + 6 * T3, an ideal; E_01, E_02
    # and E_12 are the basis vectors 1, 2 and 4
    ideal_T3 = [[2 * int(j == k) for j in range(6)] for k in (1, 2, 4)]
    ideal_T3 += [[6 * int(i == j) for j in range(6)] for i in range(6)]
    out = {"z-times-mat2-f2": z_times_mat2_f2(), "zx-mod-x2-5x": zx_mod_x2_5x()}
    for seed in (None, 1, 2):
        out[f"mat2-{seed}"] = zpres_of_order(M2, seed=seed)
        out[f"mat2-mod-4-{seed}"] = zpres_of_order(M2, [[4 * int(i == j) for j in range(4)] for i in range(4)], seed)
        out[f"upper3-{seed}"] = zpres_of_order(T3, seed=seed)
        out[f"upper3-mod-ideal-{seed}"] = zpres_of_order(T3, ideal_T3, seed)
    return out


COMMUTATOR_CASES = commutator_test_presentations()


@pytest.mark.parametrize("name", sorted(COMMUTATOR_CASES))
def test_commutator_lattice_matches_fixpoint(name):
    zp = COMMUTATOR_CASES[name]
    n = zp.ngens
    commutators = [[x - y for x, y in zip(zp.table[i][j], zp.table[j][i])]
                   for i in range(n) for j in range(i + 1, n)]
    assert [list(r) for r in zp.commutator_lattice()] == ideal_fixpoint(zp, commutators)
    rng = random.Random(n)
    for _ in range(20):
        u, v = ([rng.randint(-3, 3) for _ in range(n)] for _ in range(2))
        assert list(zp.mul_vec(u, v)) == dense_multiply(zp.table, u, v)


# --- local artinian -------------------------------------------------------------------

def dual_numbers_base():
    """R = Q[t]/(t^2) with its maximal ideal span{t}."""
    R = x_power_algebra(2)
    m = subspace_from_vectors(QQ, 2, [(Fraction(0), Fraction(1))])
    return R, m


def embed_xpower(R, m, ambient_dim, t_image_exponent):
    """Embed Q[t]/(t^2) into Q[x]/(x^ambient_dim) by t -> x^e."""
    A = x_power_algebra(ambient_dim)
    img = [Fraction(0)] * ambient_dim
    img[t_image_exponent] = Fraction(1)
    emb = [A.unit, tuple(img)]
    return make_relative(QQ, R, m, A, emb)


def test_local_artinian_degenerate_base_matches_infinite_field():
    # base Q: every condition involving m is vacuous
    Rtriv = x_power_algebra(1)
    m0 = subspace_from_vectors(QQ, 1, [])
    for r in range(1, 6):
        A = x_power_algebra(r)
        rel = make_relative(QQ, Rtriv, m0, A, [A.unit])
        assert decide_local_artinian(rel).verdict == decide_infinite_field(A).verdict


def test_local_artinian_futile_case():
    # R = Q[t]/(t^2) inside A = Q[x]/(x^5) via t = x^3
    R, m = dual_numbers_base()
    rel = embed_xpower(R, m, 5, 3)
    rep = decide_local_artinian(rel)
    assert rep.verdict == FUTILE
    conds = rep.certificate["conditions"]
    assert conds["r_T"] == 2
    assert conds["plane_identity"]
    assert conds["uniserial_dims"] == (1, 0)


def test_local_artinian_uniserial_failure():
    # R = Q[t]/(t^2) inside A = Q[x]/(x^6) via t = x^3: m(A/R) needs two
    # generators, so uniseriality fails
    R, m = dual_numbers_base()
    rel = embed_xpower(R, m, 6, 3)
    rep = decide_local_artinian(rel)
    assert rep.verdict == NOT_FUTILE
    assert not rep.certificate["conditions"]["uniserial"]


def test_local_artinian_plane_identity_failure():
    # A = Q{1, x, x^2, t, tx} with x^3 = 0, t^2 = 0, x^2 t = 0:
    # every condition holds except the plane identity
    z = Fraction(0)
    o = Fraction(1)
    n = 5  # basis 1, x, x2, t, tx

    def vec(**kw):
        v = [z] * n
        names = {"one": 0, "x": 1, "x2": 2, "t": 3, "tx": 4}
        for k, c in kw.items():
            v[names[k]] = Fraction(c)
        return tuple(v)

    basis_products = {
        (0, 0): vec(one=1),
        (0, 1): vec(x=1), (0, 2): vec(x2=1), (0, 3): vec(t=1), (0, 4): vec(tx=1),
        (1, 1): vec(x2=1), (1, 2): vec(), (1, 3): vec(tx=1), (1, 4): vec(),
        (2, 2): vec(), (2, 3): vec(), (2, 4): vec(),
        (3, 3): vec(), (3, 4): vec(),
        (4, 4): vec(),
    }
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            key = (min(i, j), max(i, j))
            table[i][j] = basis_products[key]
    from futility.algebra import make_algebra

    A = make_algebra(QQ, table, vec(one=1))
    R, m = dual_numbers_base()
    emb = [A.unit, vec(t=1)]
    rel = make_relative(QQ, R, m, A, emb)
    rep = decide_local_artinian(rel)
    assert rep.verdict == NOT_FUTILE
    conds = rep.certificate["conditions"]
    assert conds["uniserial"]
    assert conds["A_mod_mA_futile"] and conds["T_mod_mT_futile"]
    assert conds["r_T"] == 2
    assert not conds["plane_identity"]


def test_local_artinian_noncommutative():
    R = x_power_algebra(1)
    m0 = subspace_from_vectors(QQ, 1, [])
    U = upper_triangular_algebra(QQ, 2)
    rel = make_relative(QQ, R, m0, U, [U.unit])
    rep = decide_local_artinian(rel)
    assert rep.verdict == NOT_FUTILE


def test_quotient_consistency_across_corpus():
    # for every futile corpus algebra over Q, quotients by computable ideals
    # (nilpotent generators and idempotent cuts) must stay futile
    import json
    from pathlib import Path

    from futility.algebra import closure, local_decomposition
    from futility.cases import build_case, parse_case

    corpus = Path(__file__).resolve().parent.parent / "corpus" / "infinite-field"
    checked = 0
    for path in sorted(corpus.glob("*.case")):
        built = build_case(parse_case(path.read_text()))
        A = built.payload
        if not A.is_commutative:
            continue
        if decide_infinite_field(A).verdict != FUTILE:
            continue
        ideals = []
        for v in nilradical(A).rows:
            ideals.append(closure(A, zero_subspace(QQ, A.dim), [v], ideal=True))
        for lf in local_decomposition(A).factors:
            ideals.append(closure(A, zero_subspace(QQ, A.dim), [lf.idempotent], ideal=True))
        for ideal in ideals:
            if ideal.dim == A.dim:
                continue
            B, _ = quotient_algebra(A, ideal)
            assert decide_infinite_field(B).verdict == FUTILE
            checked += 1
    assert checked >= 10
