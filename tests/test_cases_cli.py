"""Case parsing, report generation, golden corpus harness, CLI behavior."""

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futility import cases as cases_module
from futility import finite_enum
from futility.algebra import MAX_DIM, make_algebra, product_algebra
from futility.cases import (
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_PRIME,
    MAX_TRIALS,
    base_domain,
    build_case,
    build_struct_algebra,
    parse_case,
    parse_poly,
)
from futility.cli import main as cli_main
from futility.constructions import (
    AlgebraScalarDomain,
    extend_by_poly,
    matrix_algebra,
    poly_quotient_algebra,
)
from futility.deciders import FUTILE, NOT_FUTILE
from futility.domains import QQ, FunctionField, PrimeField
from futility.errors import (
    BudgetExceeded,
    FutilityError,
    InapplicableCommand,
    ParseError,
    SearchBudgetExceeded,
    ValidationError,
)
from futility.polynomials import poly_to_str
from futility.reports import ROUTES, _oracle_compare, check_asserts, decide_case, merge_options, run_command
from futility.sampler import sample_subalgebras
from reference_tables import upper_triangular_algebra
from reference_tower import reduce_each_entry
from refused_inputs import DEEP_DOCUMENTS, FP_T, REFUSED, case_text, nested_products

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

ALL_CASES = sorted(CORPUS.rglob("*.case"))


def make_case(**kw):
    doc = {
        "format_version": 1,
        "id": "test/inline",
        "base": {"kind": "Q"},
        "algebra": {"kind": "quotient_poly", "modulus": "x^3"},
    }
    doc.update(kw)
    return json.dumps(doc)


def struct_to_spec(A):
    """The structure-constant form of an algebra, as a case file writes it."""
    dom = A.dom
    return {
        "kind": "structure_constants",
        "dim": A.dim,
        "unit": [dom.to_str(c) for c in A.unit],
        "table": [[[dom.to_str(c) for c in vec] for vec in row] for row in A.table],
    }


# --- polynomial expressions ---------------------------------------------------

def test_parse_poly_basic():
    f = parse_poly("x^3 - 2*x + 1", QQ)
    assert poly_to_str(f) == "x^3 - 2*x + 1"


def test_parse_poly_rational_coefficients():
    f = parse_poly("(1/2)*x^2 - 3", QQ)
    assert f.coeffs[-1] == 0.5 or str(f.coeffs[-1]) == "1/2"


def test_parse_poly_function_field_constants():
    K = FunctionField(2, ("t",))
    f = parse_poly("x^2 - t", K)
    assert f.degree == 2
    assert f.coeffs[0] == K.neg(K.variable("t"))


def test_parse_poly_errors_carry_columns():
    with pytest.raises(ParseError) as exc:
        parse_poly("x +* 2", QQ)
    assert exc.value.col is not None
    with pytest.raises(ParseError):
        parse_poly("x / (x + 1)", QQ)  # non-scalar division
    with pytest.raises(ParseError):
        parse_poly("y + 1", QQ)  # unknown variable
    # digits are ASCII 0-9 only: an Arabic-Indic three or a superscript two
    # is an unexpected character at its column
    for text, col in (("x^2 + \u0663", 7), ("x^\u00b2", 3)):
        with pytest.raises(ParseError) as exc:
            parse_poly(text, QQ)
        assert exc.value.col == col


# --- case documents --------------------------------------------------------------

def test_parse_case_rejects_floats():
    with pytest.raises(ValidationError):
        parse_case(make_case(options={"bound": 1.5}))


def test_parse_case_rejects_bad_version():
    with pytest.raises(ValidationError):
        parse_case(make_case(format_version=99))


def test_parse_case_locates_json_errors():
    with pytest.raises(ParseError) as exc:
        parse_case("{\n  broken\n}")
    assert exc.value.line == 2


@pytest.mark.parametrize("text, depth, line, col", DEEP_DOCUMENTS, ids=["arrays", "objects", "string-brackets"])
def test_parse_case_locates_nesting_too_deep_to_read(text, depth, line, col):
    with pytest.raises(ParseError) as exc:
        parse_case(text)
    assert f"nests arrays and objects {depth} deep" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_parse_case_locates_an_integer_literal_past_the_str_limit():
    # the digits inside the id string do not count; the seed is the literal
    text = '{"format_version": 1, "id": "' + "9" * 5000 + '",\n "options": {"seed": ' + "9" * 5000 + "}}"
    with pytest.raises(ParseError) as exc:
        parse_case(text)
    assert "integer literal of 5000 digits exceeds" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (2, len(' "options": {"seed": ') + 1)


def test_prime_bases_are_capped_before_the_primality_test():
    for base in ({"kind": "Fp"}, FP_T):
        # 2^31 - 1 is prime, 2^31 is not, and 2^31 + 1 is refused before any test
        assert base_domain(dict(base, p=MAX_PRIME - 1)).p == MAX_PRIME - 1
        with pytest.raises(ValidationError, match="is not prime"):
            base_domain(dict(base, p=MAX_PRIME))
        for p in (MAX_PRIME + 1, 2**61 - 1):
            with pytest.raises(BudgetExceeded, match=rf"'p' of ground of base \({base['kind']}\)"):
                base_domain(dict(base, p=p), "ground of base")


@pytest.mark.parametrize("where", ["base of finite part", "ground of base"])
def test_a_nested_z_base_is_refused_where_it_stands(where):
    # a Z case base never reaches base_domain: build_case hands it to the Z deciders
    with pytest.raises(ValidationError, match=rf"^{where} cannot be Z; only a case's own base may be Z$"):
        base_domain({"kind": "Z"}, where)


def test_parse_case_requires_fields():
    with pytest.raises(ValidationError):
        parse_case(json.dumps({"format_version": 1, "id": "x"}))


def test_build_rejects_bad_associativity():
    spec = {
        "kind": "structure_constants",
        "dim": 3,
        "unit": ["1", "0", "0"],
        "table": [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]],
            [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]],
        ],
    }
    with pytest.raises(ValidationError) as exc:
        build_struct_algebra(QQ, spec)
    assert "associativity fails at basis triple" in str(exc.value)


def test_struct_to_spec_roundtrip():
    for A in (matrix_algebra(PrimeField(2), 2), upper_triangular_algebra(QQ, 2)):
        spec = struct_to_spec(A)
        B = build_struct_algebra(A.dom, spec)
        assert B.table == A.table and B.unit == A.unit


def test_tower_case_builds():
    desc = parse_case(
        json.dumps(
            {
                "format_version": 1,
                "id": "test/tower",
                "base": {"kind": "FpRational", "p": 2, "vars": ["s", "t"]},
                "algebra": {"kind": "tower", "moduli": ["x^2 - s", "y^2 - t"]},
            }
        )
    )
    built = build_case(desc)
    assert built.kind == "tower"
    assert built.payload.dim == 4


# --- reports -----------------------------------------------------------------------

def test_decide_report_byte_identical():
    desc = parse_case(make_case())
    a = run_command("decide", desc, {}).to_json()
    b = run_command("decide", desc, {}).to_json()
    assert a == b
    assert "timing_ms" in json.loads(a)
    assert json.loads(a)["timing_ms"] is None


def test_report_has_no_floats():
    desc = parse_case(make_case())
    rep = run_command("oracle-compare", desc, {"trials": 50, "bound": 3})

    def walk(x):
        assert not isinstance(x, float)
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        if isinstance(x, list):
            for v in x:
                walk(v)

    walk(rep.to_jsonable())


def test_enumerate_command_inapplicable_over_q():
    desc = parse_case(make_case())
    with pytest.raises(InapplicableCommand):
        run_command("enumerate", desc, {})


def test_sample_command_inapplicable_over_fp():
    desc = parse_case(make_case(base={"kind": "Fp", "p": 2}))
    with pytest.raises(InapplicableCommand):
        run_command("sample", desc, {})


def test_tower_level_domains_compare_by_structure():
    K = FunctionField(2, ("t",))

    def level(modulus):
        return AlgebraScalarDomain(poly_quotient_algebra(parse_poly(modulus, K)))

    first, again, other = level("x^2 + t"), level("x^2 + t"), level("x^2 + t + 1")
    assert first == again and hash(first) == hash(again)
    assert first != other
    assert len({first, again, other}) == 2


def test_check_asserts_names_each_failed_expectation():
    every = {
        "verdict": "NotFutile",
        "enumeration_count": 4,
        "sampler_distinct_exact": 3,
        "sampler_distinct_min": 9,
    }
    desc = parse_case(make_case(asserts=every))
    assert check_asserts(desc, {"verdict": "Futile"}, {"count": 5, "distinct_count": 2}) == (
        False,
        [
            "verdict: expected NotFutile, got Futile",
            "enumeration_count: expected 4, got 5",
            "sampler_distinct_exact: expected 3, got 2",
            "sampler_distinct_min: expected >= 9, got 2",
        ],
    )
    assert check_asserts(desc, {"verdict": "NotFutile"}, {"count": 4, "distinct_count": 9}) == (
        False,
        ["sampler_distinct_exact: expected 3, got 9"],
    )
    least = parse_case(make_case(asserts={"sampler_distinct_min": 1}))
    assert check_asserts(least, {"verdict": "Futile"}, None) == (
        False,
        ["sampler_distinct_min: expected >= 1, got 0"],
    )
    assert check_asserts(parse_case(make_case(asserts={})), {"verdict": "Futile"}, None) == (True, [])


def test_factor_command_on_relative_case_uses_the_ambient_field():
    """A relative case's quotient_poly ambient lives over its ground field Q."""
    desc = parse_case((CORPUS / "local-artinian" / "degenerate-x3.case").read_text())
    res = run_command("factor", desc, {}).result
    assert res == {"input": "x^3", "factored": "(x)^3", "parts": [["x", 3]]}


def test_factor_command_squarefree_over_function_field():
    desc = parse_case(
        make_case(
            base={"kind": "FpRational", "p": 2, "vars": ["t"]},
            algebra={"kind": "quotient_poly", "modulus": "x^2 - t"},
        )
    )
    res = run_command("factor", desc, {}).result
    assert res["squarefree_parts"] == [["x^2 + t", 1]]


# --- golden corpus --------------------------------------------------------------------

@pytest.mark.parametrize("path", ALL_CASES, ids=lambda p: str(p.relative_to(CORPUS)))
def test_corpus_case_matches_golden(path):
    desc = parse_case(path.read_text())
    report = run_command("oracle-compare", desc, {})
    assert report.agreement is True
    expected = path.with_suffix(".expected")
    assert expected.exists()
    assert report.to_json() == expected.read_text()


SAMPLER_CASES = [
    path for path in ALL_CASES
    if json.loads(path.with_suffix(".expected").read_text())["oracle"]["kind"] == "sampler"
]


@pytest.mark.parametrize("seed", range(16))
def test_sampler_oracle_agrees_at_every_seed(seed):
    # the golden checks each case at its own seed; this checks seeds 0-15
    assert len(SAMPLER_CASES) == 34
    disagree = []
    for path in SAMPLER_CASES:
        desc = parse_case(path.read_text())
        if merge_options(desc, None)["seed"] == seed:
            continue
        if run_command("oracle-compare", desc, {"seed": seed}).agreement is not True:
            disagree.append(desc.case_id)
    assert disagree == []


def without_stop(sample):
    """A route's sampler that ignores the stop limit and draws every trial."""
    return lambda payload, *draws, stop=None: sample(payload, *draws)


@pytest.mark.parametrize("path", SAMPLER_CASES, ids=lambda p: str(p.relative_to(CORPUS)))
def test_stopped_sampler_oracle_reads_as_the_full_run(monkeypatch, path):
    # the distinct count never falls, so a run stopped past the threshold and
    # the asserted counts agrees and fails its asserts as the full run does
    desc = parse_case(path.read_text())
    stopped = run_command("oracle-compare", desc, {})
    for kind, r in list(ROUTES.items()):
        monkeypatch.setitem(ROUTES, kind, dataclasses.replace(r, sample=without_stop(r.sample)))
    full = run_command("oracle-compare", desc, {})
    assert stopped.agreement == full.agreement
    assert stopped.oracle.get("assert_failures") == full.oracle.get("assert_failures")
    assert "stopped_at" not in full.oracle
    if "stopped_at" not in stopped.oracle:
        assert stopped.oracle == full.oracle
        return
    asserts = desc.asserts or {}
    limit = max(
        stopped.oracle["divergence_threshold"],
        asserts.get("sampler_distinct_min", 0) - 1,
        asserts.get("sampler_distinct_exact", 0),
    )
    assert stopped.oracle["distinct_count"] == limit + 1 <= full.oracle["distinct_count"]
    assert stopped.oracle["diverged"] and "stabilized" not in stopped.oracle
    assert stopped.oracle["growth_curve"][-1] == limit + 1


@pytest.mark.parametrize("case_id, agreement", [
    ("infinite-field/q-x3", False),
    ("infinite-field/q-x4", True),
    ("local-artinian/x5-plane-case", False),
    ("integer/z-split", True),
])
def test_divergence_threshold_zero_stops_before_the_first_trial(case_id, agreement):
    doc = json.loads((CORPUS / f"{case_id}.case").read_text())
    doc["asserts"] = {"verdict": doc["asserts"]["verdict"]}
    doc["options"]["divergence_threshold"] = 0
    report = run_command("oracle-compare", parse_case(json.dumps(doc)), {})
    assert report.oracle == {
        "kind": "sampler",
        "distinct_count": 1,
        "growth_curve": [1],
        "diverged": True,
        "divergence_threshold": 0,
        "stopped_at": 0,
    }
    assert report.agreement is agreement


def test_sample_command_runs_every_trial():
    # its histogram is the output, so it never stops at a limit: q-mat2 stops
    # the oracle at 17 distinct members, and the full run finds 514
    desc = parse_case((CORPUS / "noncommutative" / "q-mat2.case").read_text())
    opts = merge_options(desc, None)
    h = sample_subalgebras(build_case(desc).payload, opts["trials"], opts["bound"], opts["seed"], stop=None)
    assert h.stopped_at is None
    by_dim = Counter(len(rows) for rows in h.distinct)
    assert run_command("sample", desc, {}).result == {
        "distinct_count": h.count,
        "growth_curve": list(h.growth_curve),
        "by_dim": {str(k): v for k, v in sorted(by_dim.items())},
        "trials": opts["trials"],
        "bound": opts["bound"],
        "seed": opts["seed"],
        "stabilized": h.stabilized(),
    }
    assert h.count == 514
    assert len(h.growth_curve) == opts["trials"].bit_length() + 1


CHECKED_CASES = [
    path for path in ALL_CASES
    if json.loads(path.with_suffix(".expected").read_text())["oracle"]["kind"] != "none"
]


@pytest.mark.parametrize("path", CHECKED_CASES, ids=lambda p: str(p.relative_to(CORPUS)))
def test_every_oracle_rejects_the_flipped_verdict(path):
    # an oracle that agrees with both verdicts checks nothing
    desc = parse_case(path.read_text())
    opts = merge_options(desc, None)
    built = build_case(desc)
    rep = decide_case(built, opts)
    flipped = dataclasses.replace(rep, verdict=NOT_FUTILE if rep.verdict == FUTILE else FUTILE)
    _, agreement = _oracle_compare(built, flipped, opts)
    assert agreement is False


COUNTED_CASES = [path for path in ALL_CASES if "enumeration_count" in (parse_case(path.read_text()).asserts or {})]


@pytest.mark.parametrize("path", COUNTED_CASES, ids=lambda p: str(p.relative_to(CORPUS)))
def test_a_dropped_member_fails_the_count_assert(path, monkeypatch):
    # the verdict needs no lattice, so a wrong count is caught by the case's
    # enumeration_count assert, against the oracle's own search
    assert run_command("oracle-compare", parse_case(path.read_text())).agreement is True
    real = finite_enum._search
    monkeypatch.setattr(finite_enum, "_search", lambda A, start: real(A, start)[:-1])
    rep = run_command("oracle-compare", parse_case(path.read_text()))
    assert rep.agreement is False
    count = rep.oracle["count"]
    assert rep.oracle["assert_failures"] == [f"enumeration_count: expected {count + 1}, got {count}"]


def test_an_over_budget_enumeration_checks_nothing(tmp_path, capsys):
    # past the budget nothing is searched: with no count asserted the
    # agreement is None and the command exits 0; a count assert still turns
    # it False
    raw = json.loads((CORPUS / "noncommutative" / "f2-upper-triangular.case").read_text())
    del raw["asserts"]["enumeration_count"]
    path = tmp_path / "uncounted.case"
    path.write_text(json.dumps(raw))
    rep = run_command("oracle-compare", parse_case(path.read_text()), {"budget": 4})
    assert rep.oracle == {"kind": "enumeration", "status": "over-budget"}
    assert rep.agreement is None
    assert cli_main(["oracle-compare", "--case", str(path), "--budget", "4"]) == 0
    assert capsys.readouterr().out.endswith("agreement: None\n")
    for case, count in [("noncommutative/f2-upper-triangular", 5), ("finite/f2-x3", 3)]:
        rep = run_command("oracle-compare", parse_case((CORPUS / f"{case}.case").read_text()), {"budget": 4})
        assert rep.agreement is False
        assert rep.oracle["assert_failures"] == [f"enumeration_count: expected {count}, got None"]


# Each committed .case file is the one definition of its case: it is in
# canonical form, its id is its path, it has a golden, and a table that comes
# from a library construction equals that construction.

def test_parse_case_roundtrip_corpus():
    assert len(ALL_CASES) >= 40
    for path in ALL_CASES:
        text = path.read_text()
        # canonical: sorted keys, two-space indent, one final newline
        assert json.dumps(parse_case(text).raw, sort_keys=True, indent=2) + "\n" == text, path


def test_corpus_ids_match_paths():
    for path in ALL_CASES:
        desc = parse_case(path.read_text())
        rel = path.relative_to(CORPUS).with_suffix("")
        assert desc.case_id == str(rel)


def test_corpus_cases_and_goldens_pair_up():
    cases = {p.with_suffix("") for p in ALL_CASES}
    goldens = {p.with_suffix("") for p in CORPUS.rglob("*.expected")}
    assert cases == goldens


def _dual_over_dual_level():
    """Q[t]/(t^2) and the coefficients of x^2 over it."""
    zero, one = (QQ.zero, QQ.zero), (QQ.one, QQ.zero)
    return poly_quotient_algebra(parse_poly("x^2", QQ)), [zero, zero, one]


def _dual_over_dual():
    """Q[t, x] / (t^2, x^2) on the basis 1, t, x, tx: x^2 adjoined to Q[t]/(t^2)."""
    return extend_by_poly(*_dual_over_dual_level())


CONSTRUCTED_TABLES = [
    # upper triangular 2x2 over Q, on the basis E11, E12, E22
    ("noncommutative/q-upper-triangular", lambda: upper_triangular_algebra(QQ, 2)),
    # the same algebra over Q as a base-Q relative case; its embedding is the
    # unit E11 + E22 of the triangular algebra
    ("local-artinian/degenerate-noncommutative", lambda: upper_triangular_algebra(QQ, 2)),
    # upper triangular 2x2 over F_2
    ("noncommutative/f2-upper-triangular", lambda: upper_triangular_algebra(PrimeField(2), 2)),
    ("local-artinian/dual-over-dual", _dual_over_dual),
    # three copies of the dual numbers Q[x]/(x^2), the base embedded diagonally
    (
        "local-artinian/triple-product",
        lambda: product_algebra([poly_quotient_algebra(parse_poly("x^2", QQ))] * 3),
    ),
]


@pytest.mark.parametrize("case_id, construct", CONSTRUCTED_TABLES, ids=[c for c, _ in CONSTRUCTED_TABLES])
def test_corpus_tables_match_their_constructions(case_id, construct):
    desc = parse_case((CORPUS / f"{case_id}.case").read_text())
    assert desc.algebra == struct_to_spec(construct())


def _tower(p, moduli):
    return make_case(base={"kind": "FpRational", "p": p, "vars": ["s", "t"]}, algebra={"kind": "tower", "moduli": moduli})


# second tower levels, as a case text or as a function giving (L, g): the
# corpus tower, one decide-only tower of each two-level shape in the benchmark
# (copy #0), a level with a middle term, a leading coefficient that is
# invertible but not 1, and a first level whose table has denominators
TOWER_LEVELS = {
    "field-extension/two-variable": (CORPUS / "field-extension" / "two-variable.case").read_text(),
    "f2-4-2": _tower(2, ["x^4 - (s + 0)", "y^2 - (t + 0)"]),
    "f2-2-4": _tower(2, ["x^2 - (s + 1)", "y^4 - (t + 0)"]),
    "f2-2-2": _tower(2, ["x^2 - (s + 1)", "y^2 - (t + 0)"]),
    "f3-3-3": _tower(3, ["x^3 - (s + 2)", "y^3 - (t + 2)"]),
    "f2-4-4": _tower(2, ["x^4 - (s + 1)", "y^4 - (t + 1)"]),
    "middle-term": _tower(2, ["x^2 + s", "y^2 + x*y + t"]),
    "dual-over-dual": _dual_over_dual_level,
    "non-unit-lead": _tower(3, ["x^2 - t", "(x + 1)*y^2 + y + t"]),
    # a non-monic first modulus puts denominators into the first level's table
    "level-one-denominators": _tower(2, ["(t + 1)*x^2 + x + t", "x*y^2 + t*y + 1"]),
}


@pytest.mark.parametrize("level", TOWER_LEVELS.values(), ids=TOWER_LEVELS)
def test_extend_by_poly_matches_the_per_entry_reduction(monkeypatch, level):
    if callable(level):
        L, g = level()
    else:
        seen = []
        monkeypatch.setattr(cases_module, "extend_by_poly", lambda L, g: seen.append((L, g)) or extend_by_poly(L, g))
        build_case(parse_case(level))
        (L, g), = seen
    A = extend_by_poly(L, g)
    table, unit = reduce_each_entry(L, g)
    # by repr, so the num and den tuples of every RatFunc agree as well
    assert repr(A.table) == repr(tuple(map(tuple, table)))
    assert repr(A.unit) == repr(unit)


# --- CLI ------------------------------------------------------------------------------

def test_cli_decide_exit_zero(capsys):
    rc = cli_main(["decide", "--case", str(CORPUS / "infinite-field" / "q-x3.case")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict:   Futile" in out


def test_cli_machine_format(capsys):
    rc = cli_main(
        ["decide", "--case", str(CORPUS / "finite" / "f2-x3.case"), "--format", "machine"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["verdict"] == "Futile"


def test_cli_error_exit_one(capsys):
    rc = cli_main(["enumerate", "--case", str(CORPUS / "infinite-field" / "q-x3.case")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def exterior_algebra_xy() -> dict:
    """The exterior algebra on x and y: basis 1, x, y, xy with xy = -yx, so
    [x, y] = 2xy and the algebra is noncommutative over every ring without
    2 = 0."""
    zero = ["0"] * 4

    def e(k, c="1"):
        return [c if i == k else "0" for i in range(4)]

    table = [
        [e(0), e(1), e(2), e(3)],
        [e(1), zero, e(3), zero],
        [e(2), e(3, "-1"), zero, zero],
        [e(3), zero, zero, zero],
    ]
    return {"kind": "structure_constants", "dim": 4, "unit": e(0), "table": table}


@pytest.mark.parametrize(
    "base",
    [{"kind": "Zmod", "n": 4}, {"kind": "Zmod", "n": 6}, {"kind": "Fp", "p": 3}],
    ids=["z4", "z6", "f3"],
)
def test_cli_decides_noncommutative_finite_algebra_futile(tmp_path, capsys, base):
    """A finite-rank algebra over a finite ring is finite, hence futile,
    whether or not it is commutative; over Z/n no field elimination runs."""
    doc = {"format_version": 1, "id": "tmp/exterior", "base": base, "algebra": exterior_algebra_xy()}
    p = tmp_path / "exterior.case"
    p.write_text(json.dumps(doc))
    rc = cli_main(["decide", "--case", str(p)])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "verdict:   Futile" in captured.out


WRONG_ASSERT = {
    "format_version": 1,
    "id": "tmp/wrong-assert",
    "base": {"kind": "Q"},
    "algebra": {"kind": "quotient_poly", "modulus": "x^3"},
    "options": {"trials": 100, "bound": 3, "seed": 0},
    "asserts": {"verdict": "NotFutile"},
}


def test_cli_discrepancy_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.case"
    p.write_text(json.dumps(WRONG_ASSERT))
    rc = cli_main(["oracle-compare", "--case", str(p)])
    assert rc == 2


def test_cli_corpus_update_refuses_on_discrepancy(tmp_path, capsys):
    (tmp_path / "bad.case").write_text(json.dumps(WRONG_ASSERT))
    rc = cli_main(["corpus", "--dir", str(tmp_path), "--update"])
    assert rc == 2
    assert "DISCREPANCY" in capsys.readouterr().out
    assert not list(tmp_path.rglob("*.expected"))


@pytest.mark.parametrize("base, algebra", [row[1:] for row in REFUSED], ids=[row[0] for row in REFUSED])
def test_cli_malformed_case_is_one_error_line(tmp_path, capsys, base, algebra):
    p = tmp_path / "malformed.case"
    p.write_text(case_text(base, algebra))
    rc = cli_main(["decide", "--case", str(p)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("text", [text for text, *_ in DEEP_DOCUMENTS], ids=["arrays", "objects", "string-brackets"])
def test_cli_document_nested_too_deep_is_one_error_line(tmp_path, capsys, text):
    p = tmp_path / "deep.case"
    p.write_text(text)
    rc = cli_main(["decide", "--case", str(p)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: case document nests arrays and objects")


@pytest.mark.parametrize("modulus, factor", [("x^4", "x"), ("x^3 - x", "x + 1"), ("x^4 - t^2", "x^2 + t")])
def test_tower_modulus_names_its_repeated_factor(modulus, factor):
    desc = parse_case(make_case(base=FP_T, algebra={"kind": "tower", "moduli": [modulus]}))
    with pytest.raises(ValidationError) as exc:
        build_case(desc)
    assert f"has the repeated factor {factor}," in str(exc.value)


@pytest.mark.parametrize(
    "base, modulus, decomposed",
    [
        (FP_T, "x^16 - (t + 1)", False),  # d/dt proves it squarefree
        (FP_T, "x^3 + t*x + 1", False),  # d/dx does
        # squarefree, but no single derivation proves it
        ({"kind": "FpRational", "p": 2, "vars": ["s", "t"]}, "(x^2 - s) * (x^2 - t)", True),
    ],
)
def test_tower_decomposes_its_modulus_only_when_no_derivation_proves_it_squarefree(
    monkeypatch, base, modulus, decomposed
):
    calls = []
    real = cases_module.squarefree_decomposition
    monkeypatch.setattr(cases_module, "squarefree_decomposition", lambda f: calls.append(f) or real(f))
    built = build_case(parse_case(make_case(base=base, algebra={"kind": "tower", "moduli": [modulus]})))
    assert built.kind == "tower"
    assert bool(calls) is decomposed


@pytest.mark.parametrize(
    "base, two_levels, one_level",
    [
        # x = -t = t, so y^2 = t, not y^2 = 1
        (FP_T, ["x + t", "y^2 + x"], "x^2 + t"),
        # x = s: the separable y^2 + (s + 1)*y + t, chain [2] and index 1
        ({"kind": "FpRational", "p": 2, "vars": ["s", "t"]}, ["x + s", "y^2 + (x + 1)*y + t"], "x^2 + (s + 1)*x + t"),
    ],
    ids=["inseparable-over-f2t", "separable-over-f2st"],
)
def test_tower_over_a_linear_first_level_binds_x_to_its_root(base, two_levels, one_level):
    def build(moduli):
        desc = parse_case(make_case(base=base, algebra={"kind": "tower", "moduli": moduli}))
        return build_case(desc).payload, run_command("decide", desc).result["certificate"]

    (tower, tower_cert), (field, field_cert) = build(two_levels), build([one_level])
    assert repr(tower.table) == repr(field.table)
    assert tower_cert == field_cert


@pytest.mark.parametrize(
    "base, algebra, message",
    [
        ({"kind": "Q"}, {"kind": "quotient_poly", "modulus": "x^100000"},
         "exponent 100000 exceeds the limit of 256 (line 1, col 3)"),
        ({"kind": "Q"}, {"kind": "quotient_poly", "modulus": "x^2 * (x + 1)^100000"},
         "exponent 100000 exceeds the limit of 256 (line 1, col 15)"),
        ({"kind": "Q"}, {"kind": "quotient_poly", "modulus": "(x^8)^8"},
         "polynomial degree 64 exceeds the limit of 32 (line 1, col 6)"),
        ({"kind": "Q"}, {"kind": "quotient_poly", "modulus": "x^20 * x^20"},
         "polynomial degree 40 exceeds the limit of 32 (line 1, col 6)"),
        ({"kind": "Fp", "p": 2}, {"kind": "matrix_algebra", "size": 6},
         "algebra dimension 36 exceeds the limit of 32"),
        ({"kind": "Q"}, {"kind": "product", "factors": [{"kind": "quotient_poly", "modulus": "x^6"}] * 6},
         "algebra dimension 36 exceeds the limit of 32"),
        ({"kind": "FpRational", "p": 2, "vars": ["s", "t"]}, {"kind": "tower", "moduli": ["x^8 - s", "y^8 - t"]},
         "algebra dimension 64 exceeds the limit of 32"),
        # the cap trips before the table is read: this one is malformed
        ({"kind": "Z"}, {"kind": "z_presentation", "gens": 33, "table": "unread", "unit": [1]},
         "algebra dimension 33 exceeds the limit of 32"),
    ],
    ids=["modulus-exponent", "factor-exponent", "nested-power-degree", "product-degree",
         "matrix-dimension", "product-dimension", "tower-dimension", "z-presentation-generators"],
)
def test_cli_oversized_case_is_one_budget_error(tmp_path, capsys, monkeypatch, base, algebra, message):
    # the guards trip before anything large is expanded: a power past the
    # degree cap would fail this test instead of running
    import futility.polynomials

    ppow = futility.polynomials.ppow

    def bounded_ppow(a, n):
        assert a.degree * n <= MAX_DIM, "expanded a power past the degree cap"
        return ppow(a, n)

    monkeypatch.setattr(futility.polynomials, "ppow", bounded_ppow)
    p = tmp_path / "oversized.case"
    p.write_text(make_case(base=base, algebra=algebra))
    rc = cli_main(["decide", "--case", str(p)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == [f"error: {message}"]


@pytest.mark.parametrize(
    "options, argv, message",
    [
        ({"trials": "abc"}, [], "'trials' of options must be an integer, not str"),
        ({"seed": [1]}, [], "'seed' of options must be an integer, not list"),
        ({"bound": True}, [], "'bound' of options must be an integer, not bool"),
        ({"divergence_threshold": "8"}, [], "'divergence_threshold' of options must be an integer, not str"),
        ({"trials": -5}, [], "'trials' of options must be at least 1, got -5"),
        ({"budget": 0}, [], "'budget' of options must be at least 1, got 0"),
        (5, [], "options must be an object, not int"),
        ({"trials": MAX_TRIALS + 1}, [], f"{MAX_TRIALS + 1} trials exceed the limit of {MAX_TRIALS} (options)"),
        ({}, ["--trials", "-5"], "'trials' of command-line options must be at least 1, got -5"),
        ({}, ["--seed", "-1"], "'seed' of command-line options must be at least 0, got -1"),
        ({}, ["--trials", str(MAX_TRIALS + 1)],
         f"{MAX_TRIALS + 1} trials exceed the limit of {MAX_TRIALS} (command-line options)"),
    ],
    ids=["trials-not-int", "seed-not-int", "bound-is-bool", "threshold-not-int", "trials-negative",
         "budget-zero", "options-not-object", "trials-over-cap", "cli-trials-negative",
         "cli-seed-negative", "cli-trials-over-cap"],
)
def test_cli_bad_option_is_one_error_line(tmp_path, capsys, options, argv, message):
    p = tmp_path / "options.case"
    p.write_text(make_case(options=options))
    rc = cli_main(["oracle-compare", "--case", str(p), *argv])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "option, value, shown",
    [
        ("--seed", "abc", "'abc'"),
        ("--trials", "1.5", "'1.5'"),
        ("--bound", "9" * 5000, f"{'9' * 20!r}... (5000 characters)"),
        ("--budget", "", "''"),
    ],
    ids=["seed-abc", "trials-1.5", "bound-5000-nines", "budget-empty"],
)
def test_cli_malformed_integer_option_is_one_error_line(capsys, option, value, shown):
    case = CORPUS / "infinite-field" / "q-x3.case"
    rc = cli_main(["sample", "--case", str(case), option, value])
    assert rc == 1
    name = option.removeprefix("--")
    assert capsys.readouterr().err.splitlines() == [
        f"error: {name!r} of command-line options must be an integer, got {shown}"
    ]


def test_cli_integer_option_reads_as_the_same_int(capsys):
    case = CORPUS / "infinite-field" / "q-x3.case"
    assert cli_main(["sample", "--case", str(case), "--seed", "3", "--format", "machine"]) == 0
    expected = run_command("sample", parse_case(case.read_text()), {"seed": 3}).to_json()
    assert capsys.readouterr().out == expected


ALLOWED_ASSERTS = "enumeration_count, sampler_distinct_exact, sampler_distinct_min, verdict"
ALLOWED_OPTIONS = "bound, budget, divergence_threshold, seed, trials"


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"asserts": {"sampler_distinct_min": "5"}},
         "'sampler_distinct_min' of asserts must be an integer, not str"),
        ({"asserts": {"enumeration_count": True}}, "'enumeration_count' of asserts must be an integer, not bool"),
        ({"asserts": {"sampler_distinct_exact": -1}},
         "'sampler_distinct_exact' of asserts must be at least 0, got -1"),
        ({"asserts": {"verdikt": "NotFutile"}}, f"unknown key 'verdikt' in asserts (allowed: {ALLOWED_ASSERTS})"),
        ({"asserts": {"verdict": "Maybe"}}, "'verdict' of asserts must be 'Futile' or 'NotFutile', got 'Maybe'"),
        ({"asserts": {"verdict": None}}, "'verdict' of asserts must be 'Futile' or 'NotFutile', got None"),
        ({"options": {"trails": 50}}, f"unknown key 'trails' in options (allowed: {ALLOWED_OPTIONS})"),
        ({"options": {"timing": True}}, f"unknown key 'timing' in options (allowed: {ALLOWED_OPTIONS})"),
        ({"id": 5}, "'id' of case must be a string, not int"),
    ],
    ids=["min-not-int", "count-is-bool", "exact-negative", "unknown-assert", "bad-verdict", "null-verdict",
         "unknown-option", "timing-option", "id-not-string"],
)
def test_cli_bad_case_field_is_one_error_line(tmp_path, capsys, fields, message):
    p = tmp_path / "fields.case"
    p.write_text(make_case(**fields))
    rc = cli_main(["oracle-compare", "--case", str(p)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_zero_counts_and_both_verdicts_are_valid_asserts():
    for verdict in ("Futile", "NotFutile"):
        asserts = {"verdict": verdict, "enumeration_count": 0, "sampler_distinct_exact": 0, "sampler_distinct_min": 0}
        assert parse_case(make_case(asserts=asserts)).asserts == asserts


def _latin1_case(tmp_path):
    """A case file whose id holds a Latin-1 byte; returns (path, reason)."""
    data = make_case(id="test/cafe-latin1").encode().replace(b"cafe", b"caf\xe9")
    p = tmp_path / "latin1.case"
    p.write_bytes(data)
    return p, f"not UTF-8 text (invalid continuation byte at byte {data.index(0xE9)})"


@pytest.mark.parametrize(
    "make_path",
    [
        lambda tmp: (tmp / "missing.case", "No such file or directory"),
        lambda tmp: (tmp, "Is a directory"),
        _latin1_case,
    ],
    ids=["missing", "directory", "not-utf8"],
)
def test_cli_unreadable_case_is_one_error_line(tmp_path, capsys, make_path):
    path, reason = make_path(tmp_path)
    rc = cli_main(["decide", "--case", str(path)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: cannot read case file: {reason}"]


def test_cli_corpus_unreadable_case_is_one_error_line(tmp_path, capsys):
    bad, reason = _latin1_case(tmp_path)
    rc = cli_main(["corpus", "--dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: cannot read case file: {reason}"]


@pytest.mark.parametrize("subdir", ["empty", "missing"])
def test_cli_corpus_without_cases_is_one_error_line(tmp_path, capsys, subdir):
    root = tmp_path / subdir
    if subdir == "empty":
        root.mkdir()
        (root / "notes.txt").write_text("not a case\n")
    rc = cli_main(["corpus", "--dir", str(root)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: no .case files under {root}"]


def test_trial_cap_admits_its_own_value():
    desc = parse_case(make_case(options={"trials": MAX_TRIALS, "seed": 0}))
    assert merge_options(desc, {"trials": None})["trials"] == MAX_TRIALS


# --- fuzzing: corpus documents with one field's type swapped ------------------

SWAPS = {
    "int": [-1, "abc", "1/0", [], [5], {}, None, True],
    "str": [5, -1, [], ["x"], {}, {"kind": 5}, None],
    "list": [5, "zz", {}, [5], [[]], None],
    "dict": [5, "x", [], [{}], {"kind": "Q"}, None],
}


def _paths(doc, path=()):
    """Every (path, type name) below the document root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        kind = {bool: None, int: "int", str: "str", list: "list", dict: "dict"}.get(type(v))
        if kind:
            yield path + (k,), kind
        yield from _paths(v, path + (k,))


@st.composite
def swapped_documents(draw):
    doc = json.loads(draw(st.sampled_from(ALL_CASES)).read_text())
    path, kind = draw(st.sampled_from(list(_paths(doc))))
    new = draw(st.sampled_from(SWAPS[kind]))
    node = doc
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = new
    return json.dumps(doc)


@settings(max_examples=150, deadline=None)
@given(swapped_documents())
def test_swapped_field_types_end_in_a_report_or_a_futility_error(text):
    try:
        run_command("decide", parse_case(text), {})
    except FutilityError:
        pass


def test_caps_sit_above_their_largest_allowed_values():
    assert parse_poly(f"x - 2^{MAX_EXPONENT}", QQ).coeffs[0] == -(2**MAX_EXPONENT)
    with pytest.raises(BudgetExceeded):
        parse_poly(f"x - 2^{MAX_EXPONENT + 1}", QQ)
    assert parse_poly(f"x^{MAX_DIM}", QQ).degree == MAX_DIM
    for open_, close in (("(", ")"), ("-", "")):
        assert parse_poly(open_ * MAX_NESTING + "x" + close * MAX_NESTING, QQ).degree == 1
        with pytest.raises(BudgetExceeded):
            parse_poly(open_ * (MAX_NESTING + 1) + "x" + close * (MAX_NESTING + 1), QQ)
    # the depth counts levels open at one point, not levels seen so far
    assert parse_poly(" + ".join(["(-x)"] * (2 * MAX_NESTING)), QQ).degree == 1
    assert build_struct_algebra(PrimeField(2), nested_products(MAX_NESTING)).dim == 1
    with pytest.raises(BudgetExceeded):
        build_struct_algebra(PrimeField(2), nested_products(MAX_NESTING + 1))
    assert parse_poly("x - " + "7" * MAX_LITERAL_DIGITS, QQ).degree == 1
    with pytest.raises(BudgetExceeded, match=r"\(line 1, col 5\)"):
        parse_poly("x - " + "7" * (MAX_LITERAL_DIGITS + 1), QQ)
    # so a long literal is refused the same way under any int-string limit
    assert MAX_LITERAL_DIGITS < sys.int_info.default_max_str_digits
    # the dimension is checked before the table is even read
    with pytest.raises(BudgetExceeded):
        make_algebra(QQ, [None] * (MAX_DIM + 1), [])


def test_cli_generator_search_failure_is_an_error(monkeypatch, capsys):
    # a Futile verdict must carry its generator, so a failed search is an error
    import futility.deciders

    def give_up(*args, **kwargs):
        raise SearchBudgetExceeded("no generator found within the search budget")

    monkeypatch.setattr(futility.deciders, "find_generator", give_up)
    rc = cli_main(["decide", "--case", str(CORPUS / "infinite-field" / "q-x3.case")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == ["error: no generator found within the search budget"]


def test_cli_corpus_subdir(capsys):
    rc = cli_main(["corpus", "--dir", str(CORPUS / "integer")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_cli_corpus_machine_summary(capsys):
    rc = cli_main(["corpus", "--dir", str(CORPUS / "finite"), "--format", "machine"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    paths = sorted((CORPUS / "finite").glob("*.case"))
    assert [c["case"] for c in doc["cases"]] == [parse_case(p.read_text()).case_id for p in paths]
    assert doc["total"] == len(paths) and doc["failures"] == 0
    for c in doc["cases"]:
        assert c["status"] == "ok"
        assert c["verdict"] in ("Futile", "NotFutile")
        assert isinstance(c["ms"], int) and c["ms"] >= 0
    oracles = {c["case"]: c["oracle"] for c in doc["cases"]}
    assert oracles["finite/f2-x3"] == "enumeration"
    assert oracles["finite/zmod4-dual-numbers"] == "none"  # no oracle over Z/4
    assert doc["ms"] == sum(c["ms"] for c in doc["cases"])


def test_cli_corpus_error_names_the_case_file(tmp_path, capsys):
    for suffix in (".case", ".expected"):
        (tmp_path / f"a-good{suffix}").write_text((CORPUS / "finite" / f"f2-x3{suffix}").read_text())
    bad = tmp_path / "b-bad.case"
    bad.write_text(make_case(algebra={"kind": "quotient_poly", "modulus": "x^y"}))
    rc = cli_main(["corpus", "--dir", str(tmp_path)])
    out = capsys.readouterr()
    assert rc == 1
    assert out.out.split() == ["ok", "finite/f2-x3"]
    assert out.err.splitlines() == [f"error: {bad}: exponent must be a literal integer (line 1, col 3)"]


@pytest.mark.parametrize("fmt", ["human", "machine"])
def test_cli_corpus_case_without_golden_fails_until_updated(tmp_path, capsys, fmt):
    case = tmp_path / "z-finite.case"
    case.write_text((CORPUS / "integer" / "z-finite.case").read_text())
    rc = cli_main(["corpus", "--dir", str(tmp_path), "--format", fmt])
    out = capsys.readouterr().out
    assert rc == 2
    if fmt == "machine":
        doc = json.loads(out)
        assert [c["status"] for c in doc["cases"]] == ["GOLDEN-MISSING"]
        assert doc["failures"] == 1
    else:
        assert out.splitlines() == ["GOLDEN-MISSING   integer/z-finite", "1 cases, 1 failures"]
    assert cli_main(["corpus", "--dir", str(tmp_path), "--update"]) == 0
    golden = (CORPUS / "integer" / "z-finite.expected").read_text()
    assert case.with_suffix(".expected").read_text() == golden
    assert cli_main(["corpus", "--dir", str(tmp_path), "--format", fmt]) == 0


@pytest.mark.parametrize("fmt", ["human", "machine"])
def test_cli_corpus_golden_without_case_fails(tmp_path, capsys, fmt):
    for suffix in (".case", ".expected"):
        (tmp_path / f"z-finite{suffix}").write_text((CORPUS / "integer" / f"z-finite{suffix}").read_text())
    stray = tmp_path / "finite" / "f2-x3.expected"
    stray.parent.mkdir()
    stray.write_text((CORPUS / "finite" / "f2-x3.expected").read_text())
    rc = cli_main(["corpus", "--dir", str(tmp_path), "--format", fmt])
    out = capsys.readouterr().out
    assert rc == 2
    if fmt == "machine":
        doc = json.loads(out)
        assert [(c["case"], c["status"]) for c in doc["cases"]] == [
            ("integer/z-finite", "ok"), ("finite/f2-x3", "CASE-MISSING")
        ]
        assert doc["total"] == 1 and doc["failures"] == 1
    else:
        assert out.splitlines() == ["ok               integer/z-finite", "CASE-MISSING     finite/f2-x3", "1 cases, 1 failures"]
    # --update refuses too, and writes nothing
    golden = tmp_path / "z-finite.expected"
    golden.write_text("stale\n")
    assert cli_main(["corpus", "--dir", str(tmp_path), "--update"]) == 2
    assert "refusing to write goldens" in capsys.readouterr().err
    assert golden.read_text() == "stale\n"


@pytest.mark.parametrize(
    "golden, options, message",
    [
        ("not UTF-8", [], "cannot read golden: not UTF-8 text (invalid start byte at byte 0)"),
        ("a directory", [], "cannot read golden: Is a directory"),
        ("a directory", ["--update"], "cannot write golden: Is a directory"),
    ],
    ids=["not-utf8", "directory", "update-onto-directory"],
)
def test_cli_corpus_bad_golden_is_one_error_line(tmp_path, capsys, golden, options, message):
    case = tmp_path / "z-finite.case"
    case.write_text((CORPUS / "integer" / "z-finite.case").read_text())
    expected = case.with_suffix(".expected")
    if golden == "a directory":
        expected.mkdir()
    else:
        expected.write_bytes(b"\xff" + (CORPUS / "integer" / "z-finite.expected").read_bytes())
    rc = cli_main(["corpus", "--dir", str(tmp_path), *options])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {expected}: {message}"]


def test_cli_timing_flag(capsys):
    rc = cli_main(
        [
            "decide",
            "--case",
            str(CORPUS / "finite" / "f2-x3.case"),
            "--format",
            "machine",
            "--timing",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc["timing_ms"], int)
