"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Every tolerance and threshold is pinned here; run with -s to see the
lines."""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

from futility.algebra import (
    element_multiply,
    make_relative,
    product_algebra,
)
from futility.cases import build_case, parse_case
from futility.constructions import extend_by_poly, matrix_algebra, poly_quotient_algebra
from futility.deciders import (
    FUTILE,
    NOT_FUTILE,
    ZPresentation,
    LocalizedZ,
    decide_field_extension,
    decide_finite_base,
    decide_infinite_field,
    decide_integer_algebra,
    decide_local_artinian,
    decide_noncommutative,
    find_generator,
)
from futility.domains import QQ, FunctionField, PrimeField
from futility.finite_enum import enumerate_subalgebras
from futility.intmat import det_int, smith_normal_form
from futility.linalg import subspace_from_vectors
from futility.polynomials import factor_over_prime_field, factor_over_rationals, make_poly
from futility.reports import run_command
from futility.sampler import family_witness, sample_subalgebras
from reference_goursat import goursat_enumerate
from reference_modules import FiniteModule, enumerate_submodules, module_quotient_dims
from reference_tables import change_of_basis, upper_triangular_algebra

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
F2 = PrimeField(2)
F3 = PrimeField(3)


def mat_mul_int(a, b):
    """Integer matrix product, the reference for checking U*M*V = D."""
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def q(*cs):
    return make_poly(QQ, [Fraction(c) for c in cs])


def xpow(r):
    return poly_quotient_algebra(make_poly(QQ, [Fraction(0)] * r + [Fraction(1)]))


def unit_span(A):
    return subspace_from_vectors(A.dom, A.dim, [A.unit])


def report(num, label, ok):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"acceptance criterion {num} failed: {label}"


def test_criterion_1_nilpotent_line_boundary():
    checks = []
    for r, expected in ((1, FUTILE), (2, FUTILE), (3, FUTILE), (4, NOT_FUTILE), (5, NOT_FUTILE), (6, NOT_FUTILE)):
        t0 = time.perf_counter()
        rep = decide_infinite_field(xpow(r))
        elapsed = time.perf_counter() - t0
        checks.append(rep.verdict == expected)
        checks.append(elapsed < 1.0)
    A = xpow(3)
    t0 = time.perf_counter()
    h = sample_subalgebras(A, trials=1000, bound=3, seed=7)
    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 1.0)
    checks.append(h.count == 3)
    expected_members = {
        subspace_from_vectors(QQ, 3, [A.unit]).form[0],
        subspace_from_vectors(QQ, 3, [A.unit, (Fraction(0), Fraction(0), Fraction(1))]).form[0],
        subspace_from_vectors(
            QQ, 3, [A.unit, (Fraction(0), Fraction(1), Fraction(0)), (Fraction(0), Fraction(0), Fraction(1))]
        ).form[0],
    }
    checks.append(set(h.distinct) == expected_members)
    report(1, "nilpotent line boundary r<=3 plus exact sampler list", all(checks))


def test_criterion_2_projective_family():
    t0 = time.perf_counter()
    modulus = q(1, 0, 2, 0, 1)  # (x^2+1)^2
    points = [(1, k) for k in range(24)] + [(0, 1)]
    members = family_witness(modulus, points)
    A = poly_quotient_algebra(modulus)
    distinct = {m.key() for m in members}
    ok_family = len(distinct) == 25
    ok_valid = True
    for m in members:
        for u in m.rows:
            for v in m.rows:
                if not m.contains(element_multiply(A, u, v)):
                    ok_valid = False
    h = sample_subalgebras(A, trials=500, bound=5, seed=0)
    rep = decide_infinite_field(A)
    elapsed = time.perf_counter() - t0
    ok = ok_family and ok_valid and h.count >= 20 and rep.verdict == NOT_FUTILE and elapsed < 5.0
    report(2, "projective witness family of 25 plus sampler >= 20", ok)


def test_criterion_3_goursat_oracle_equivalence():
    t0 = time.perf_counter()
    f2 = [
        poly_quotient_algebra(make_poly(F2, [1, 1])),         # F2, dim 1
        poly_quotient_algebra(make_poly(F2, [1, 1, 1])),      # F4, dim 2
        poly_quotient_algebra(make_poly(F2, [0, 0, 1])),      # F2[x]/(x^2), dim 2
        poly_quotient_algebra(make_poly(F2, [0, 1, 1])),      # F2 x F2, dim 2
        poly_quotient_algebra(make_poly(F2, [0, 0, 0, 1])),   # F2[x]/(x^3), dim 3
        upper_triangular_algebra(F2, 2),                      # dim 3
        matrix_algebra(F2, 2),                                # dim 4
    ]
    f3 = [
        poly_quotient_algebra(make_poly(F3, [2, 1])),         # F3, dim 1
        poly_quotient_algebra(make_poly(F3, [0, 0, 1])),      # F3[x]/(x^2), dim 2
        poly_quotient_algebra(make_poly(F3, [1, 0, 1])),      # F9, dim 2
    ]
    pairs = 0
    ok = True
    for pool in (f2, f3):
        for A, B in combinations_with_replacement(pool, 2):
            if A.dim + B.dim > 6:
                continue
            pairs += 1
            lat1 = goursat_enumerate(A, B)
            AB = product_algebra([A, B])
            lat2 = enumerate_subalgebras(AB, unit_span(AB))
            if {s.key() for s in lat1.members} != {s.key() for s in lat2.members}:
                ok = False
            if lat1.count != lat2.count:
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and pairs >= 10 and elapsed < 30.0
    report(3, f"quintuple vs direct product lattices on {pairs} pairs", ok)


def test_criterion_4_frobenius_indices():
    checks = []
    K = FunctionField(2, ("t",))
    t = K.variable("t")
    t0 = time.perf_counter()
    insep = poly_quotient_algebra(make_poly(K, [K.neg(t), K.zero, K.one]))
    rep1 = decide_field_extension(insep)
    checks.append(time.perf_counter() - t0 < 1.0)
    checks.append(rep1.certificate["frobenius_index"] == 2 and rep1.verdict == FUTILE)

    t0 = time.perf_counter()
    sep = poly_quotient_algebra(make_poly(K, [t, K.one, K.one]))
    rep2 = decide_field_extension(sep)
    checks.append(time.perf_counter() - t0 < 1.0)
    checks.append(rep2.certificate["frobenius_index"] == 1 and rep2.verdict == FUTILE)

    t0 = time.perf_counter()
    K2 = FunctionField(2, ("s", "t"))
    s2 = K2.variable("s")
    t2 = K2.variable("t")
    L1 = poly_quotient_algebra(make_poly(K2, [K2.neg(s2), K2.zero, K2.one]))
    L2 = extend_by_poly(L1, [(K2.neg(t2), K2.zero), (K2.zero, K2.zero), (K2.one, K2.zero)])
    rep3 = decide_field_extension(L2)
    checks.append(time.perf_counter() - t0 < 1.0)
    checks.append(rep3.certificate["frobenius_index"] == 4 and rep3.verdict == NOT_FUTILE)

    for rep in (rep1, rep2, rep3):
        dims = rep.certificate["chain_dims"]
        ratios = [Fraction(a, b) for a, b in zip(dims, dims[1:])]
        checks.append(all(r1 >= r2 for r1, r2 in zip(ratios, ratios[1:])))
        checks.append(dims[-1] == rep.certificate["separable_closure_dim"])
    report(4, "Frobenius indices 2 / 1 / 4 with decreasing chains", all(checks))


def test_criterion_5_generator_obstruction():
    one = poly_quotient_algebra(make_poly(F2, [1, 1]))
    cube = product_algebra([one, one, one])
    res_cube = find_generator(cube)
    square = poly_quotient_algebra(make_poly(F2, [0, 1, 1]))
    res_square = find_generator(square)
    ok = (
        res_cube.generator is None
        and res_cube.exhaustive
        and res_square.generator is not None
        and res_square.factored.expand() == make_poly(F2, [0, 1, 1])
        and decide_finite_base(cube).verdict == FUTILE
        and decide_finite_base(square).verdict == FUTILE
    )
    report(5, "futile-but-not-monogenic gap over F2", ok)


def test_criterion_6_commutator_reduction():
    repA = decide_noncommutative(upper_triangular_algebra(QQ, 2))
    path = CORPUS / "noncommutative" / "z-times-mat2-f2.case"
    built = build_case(parse_case(path.read_text()))
    repB = decide_noncommutative(built.payload)
    ok = (
        repA.verdict == NOT_FUTILE
        and repB.verdict == FUTILE
        and repB.certificate["commutator_size"] == 16
        and any("recursing" in n for n in repB.notes)
        and repB.certificate["quotient"]["free_rank"] == 1
    )
    report(6, "commutator reduction on UT2(Q) and Z x Mat2(F2)", ok)


def test_criterion_7_integer_rank_and_snf():
    split = ZPresentation(
        ngens=2,
        relations=(),
        table=(((1, 0), (0, 1)), ((0, 1), (0, 1))),
        unit=(1, 0),
    )
    nilp = ZPresentation(
        ngens=2,
        relations=((0, 5),),
        table=(((1, 0), (0, 1)), ((0, 1), (0, 0))),
        unit=(1, 0),
    )
    rep1 = decide_integer_algebra(split)
    rep2 = decide_integer_algebra(nilp)
    rep3 = decide_integer_algebra(LocalizedZ(invert=6))
    ok = (
        rep1.verdict == NOT_FUTILE
        and rep1.certificate["free_rank"] == 2
        and rep2.verdict == FUTILE
        and rep2.certificate["free_rank"] == 1
        and rep2.certificate["torsion_size"] == 5
        and rep3.verdict == FUTILE
    )
    rng = random.Random(2024)
    for _ in range(100):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        res = smith_normal_form(M)
        prod = mat_mul_int(mat_mul_int([list(r) for r in res.U], M), [list(r) for r in res.V])
        if [list(r) for r in res.D] != prod:
            ok = False
        if abs(det_int(res.U)) != 1 or abs(det_int(res.V)) != 1:
            ok = False
        for a, b in zip(res.invariant_factors, res.invariant_factors[1:]):
            if b % a != 0:
                ok = False
    report(7, "integer ranks and 100 SNF self-checks", ok)


def _commutative_q_corpus():
    out = []
    for path in sorted((CORPUS / "infinite-field").glob("*.case")):
        built = build_case(parse_case(path.read_text()))
        if built.kind == "struct" and built.payload.is_commutative:
            out.append((path.stem, built.payload))
    return out


def test_criterion_8_degeneracy_and_relative_consistency():
    cases = _commutative_q_corpus()
    ok = len(cases) >= 18
    Rtriv = xpow(1)
    m0 = subspace_from_vectors(QQ, 1, [])
    for _, A in cases:
        rel = make_relative(QQ, Rtriv, m0, A, [A.unit])
        if decide_local_artinian(rel).verdict != decide_infinite_field(A).verdict:
            ok = False
    # every relative corpus case must agree with its sampler oracle
    for path in sorted((CORPUS / "local-artinian").glob("*.case")):
        repdoc = run_command("oracle-compare", parse_case(path.read_text()), {})
        if repdoc.agreement is not True:
            ok = False
    report(8, f"degenerate base agreement on {len(cases)} cases, relative oracle clean", ok)


def test_criterion_9_uniserial_oracle():
    t0 = time.perf_counter()
    rng = random.Random(99)
    checked = 0
    ok = True
    while checked < 50:
        p = rng.choice([2, 3])
        k = rng.randint(1, 3)
        ncomp = rng.randint(1, 3)
        orders = tuple(p ** rng.randint(1, k) for _ in range(ncomp))
        M = FiniteModule(kind="zmod", p=p, k=k, orders=orders)
        if M.size > 256:
            continue
        checked += 1
        d0, d1 = module_quotient_dims(M)
        flag = d0 <= 1 and d1 <= 1
        _, chain = enumerate_submodules(M)
        if flag != chain:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(9, f"uniserial dimension test vs {checked} enumerated module lattices", ok)


def _struct_corpus_cases():
    out = []
    for path in sorted(CORPUS.rglob("*.case")):
        desc = parse_case(path.read_text())
        built = build_case(desc)
        if built.kind == "struct":
            out.append((desc, built.payload))
    return out


def test_criterion_10_invariance_and_revalidation():
    ok = True
    rng = random.Random(31337)
    cases = _struct_corpus_cases()
    for desc, A in cases:
        # a finite-base verdict is always Futile, so over F_p the lattice count is compared
        if A.dom == QQ:
            base = (decide_infinite_field(A) if A.is_commutative else decide_noncommutative(A)).verdict
        elif isinstance(A.dom, PrimeField):
            base = enumerate_subalgebras(A, unit_span(A)).count
        else:
            continue
        n = A.dim
        for _ in range(20):
            while True:
                rows = [
                    tuple(A.dom.from_int(rng.randint(-2, 2)) for _ in range(n))
                    for _ in range(n)
                ]
                if subspace_from_vectors(A.dom, n, rows).dim == n:
                    break
            B = change_of_basis(A, rows)
            if A.dom == QQ:
                got = (decide_infinite_field(B) if B.is_commutative else decide_noncommutative(B)).verdict
            else:
                got = enumerate_subalgebras(B, unit_span(B)).count
            if got != base:
                ok = False
    # factorizations re-expand exactly
    for coeffs in ((1, 0, 2, 0, 1), (0, 0, 0, 1), (-1, 0, 1), (6, -5, 1)):
        f = q(*coeffs)
        if factor_over_rationals(f).expand() != f:
            ok = False
    for coeffs in ((1, 1, 1), (0, 1, 1), (1, 0, 1, 1)):
        f = make_poly(F2, list(coeffs))
        if factor_over_prime_field(f).expand() != f:
            ok = False
    # enumerated lattice members re-validate closure
    for path in sorted((CORPUS / "finite").glob("*.case")):
        built = build_case(parse_case(path.read_text()))
        if built.kind != "struct" or not isinstance(built.payload.dom, PrimeField):
            continue
        A = built.payload
        lat = enumerate_subalgebras(A, unit_span(A))
        for s in lat.members:
            if not s.contains(A.unit):
                ok = False
            for u in s.rows:
                for v in s.rows:
                    if not s.contains(element_multiply(A, u, v)):
                        ok = False
    report(10, f"verdicts and F_p lattice counts invariant under 20 basis changes on {len(cases)} cases", ok)
