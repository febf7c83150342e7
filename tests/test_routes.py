"""Every command over one small case per route: the report it gives, or the
exact error class and message it refuses with."""

import json
from pathlib import Path

import pytest

from futility import finite_enum
from futility.cases import parse_case
from futility.errors import FutilityError, InapplicableCommand, UnsupportedDomain
from futility.reports import COMMANDS, run_command

# Small enough that every pair runs in well under a second.  With this few
# trials the sampler meets only 2 of the 3 subalgebras of Q[x]/(x^3), and its
# curve is flat from trial 2 on, so it reports stabilized and agrees: a flat
# curve is evidence, not proof.
OPTIONS = {"trials": 100, "bound": 3}

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

F2T = {"kind": "FpRational", "p": 2, "vars": ["t"]}

# e11, e12, e22 of the upper-triangular 2x2 matrices over Z.
Z_UPPER_TRIANGULAR = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
]

# 1, x, y, xy of the exterior algebra on x and y over Z/4: xy = -yx = 3yx.
Z4_EXTERIOR = {
    "kind": "structure_constants",
    "dim": 4,
    "unit": ["1", "0", "0", "0"],
    "table": [
        [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "1"], ["0", "0", "0", "0"]],
        [["0", "0", "1", "0"], ["0", "0", "0", "3"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
        [["0", "0", "0", "1"], ["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
    ],
}

CASES = {
    "q-comm": ({"kind": "Q"}, {"kind": "quotient_poly", "modulus": "x^3"}),
    "q-noncomm": ({"kind": "Q"}, {"kind": "matrix_algebra", "size": 2}),
    "f2-comm": ({"kind": "Fp", "p": 2}, {"kind": "quotient_poly", "modulus": "x^3"}),
    "f2-noncomm": ({"kind": "Fp", "p": 2}, {"kind": "matrix_algebra", "size": 2}),
    "z4-comm": ({"kind": "Zmod", "n": 4}, {"kind": "quotient_poly", "modulus": "x^2"}),
    "z4-noncomm": ({"kind": "Zmod", "n": 4}, {"kind": "matrix_algebra", "size": 2}),
    "z4-exterior": ({"kind": "Zmod", "n": 4}, Z4_EXTERIOR),
    "f2t-quotient": (F2T, {"kind": "quotient_poly", "modulus": "x^2 + t"}),
    "f2t-matrix": (F2T, {"kind": "matrix_algebra", "size": 2}),
    "tower": (F2T, {"kind": "tower", "moduli": ["x^2 + t"]}),
    "relative": (
        {
            "kind": "LocalArtinian",
            "ground": {"kind": "Q"},
            "base_algebra": {"kind": "quotient_poly", "modulus": "x"},
            "max_ideal": [],
            "embedding": [["1", "0", "0"]],
        },
        {"kind": "quotient_poly", "modulus": "x^3"},
    ),
    "zpres-comm": (
        {"kind": "Z"},
        {
            "kind": "z_presentation",
            "gens": 2,
            "relations": [],
            "table": [[[1, 0], [0, 1]], [[0, 1], [0, 1]]],
            "unit": [1, 0],
        },
    ),
    "zpres-noncomm": (
        {"kind": "Z"},
        {
            "kind": "z_presentation",
            "gens": 3,
            "relations": [],
            "table": Z_UPPER_TRIANGULAR,
            "unit": [1, 0, 1],
        },
    ),
    "localized": ({"kind": "Z"}, {"kind": "localized", "invert": 6}),
}

NO_ENUMERATION = (InapplicableCommand, "enumerate needs an algebra over a finite prime field")
NO_SAMPLER_FIELD = (InapplicableCommand, "sampling needs an infinite coefficient field")
NO_SAMPLER_KIND = (
    InapplicableCommand,
    "sampling applies to algebras over Q, relative cases, and Z presentations",
)
NOT_QUOTIENT = (InapplicableCommand, "factor needs a quotient_poly case")
NO_F2T_DECIDER = (UnsupportedDomain, "no decider for struct algebras over F2(t)")

# A report is summarized as ("report", headline, oracle kind, agreement); the
# headline is the verdict, the lattice count, the distinct sample count or
# the factorization.
EXPECTED = {
    ("q-comm", "decide"): ("report", "Futile", None, None),
    ("q-comm", "enumerate"): NO_ENUMERATION,
    ("q-comm", "sample"): ("report", 2, None, None),
    ("q-comm", "factor"): ("report", "(x)^3", None, None),
    ("q-comm", "oracle-compare"): ("report", "Futile", "sampler", True),
    ("q-noncomm", "decide"): ("report", "NotFutile", None, None),
    ("q-noncomm", "enumerate"): NO_ENUMERATION,
    ("q-noncomm", "sample"): ("report", 27, None, None),
    ("q-noncomm", "factor"): NOT_QUOTIENT,
    ("q-noncomm", "oracle-compare"): ("report", "NotFutile", "sampler", True),
    ("f2-comm", "decide"): ("report", "Futile", None, None),
    ("f2-comm", "enumerate"): ("report", 3, None, None),
    ("f2-comm", "sample"): NO_SAMPLER_FIELD,
    ("f2-comm", "factor"): ("report", "(x)^3", None, None),
    ("f2-comm", "oracle-compare"): ("report", "Futile", "enumeration", True),
    ("f2-noncomm", "decide"): ("report", "Futile", None, None),
    ("f2-noncomm", "enumerate"): ("report", 12, None, None),
    ("f2-noncomm", "sample"): NO_SAMPLER_FIELD,
    ("f2-noncomm", "factor"): NOT_QUOTIENT,
    ("f2-noncomm", "oracle-compare"): ("report", "Futile", "enumeration", True),
    ("z4-comm", "decide"): ("report", "Futile", None, None),
    ("z4-comm", "enumerate"): NO_ENUMERATION,
    ("z4-comm", "sample"): NO_SAMPLER_FIELD,
    ("z4-comm", "factor"): (InapplicableCommand, "no factorization over Z/4"),
    ("z4-comm", "oracle-compare"): ("report", "Futile", "none", True),
    ("z4-noncomm", "decide"): ("report", "Futile", None, None),
    ("z4-noncomm", "enumerate"): NO_ENUMERATION,
    ("z4-noncomm", "sample"): NO_SAMPLER_FIELD,
    ("z4-noncomm", "factor"): NOT_QUOTIENT,
    ("z4-noncomm", "oracle-compare"): ("report", "Futile", "none", True),
    ("z4-exterior", "decide"): ("report", "Futile", None, None),
    ("z4-exterior", "enumerate"): NO_ENUMERATION,
    ("z4-exterior", "sample"): NO_SAMPLER_FIELD,
    ("z4-exterior", "factor"): NOT_QUOTIENT,
    ("z4-exterior", "oracle-compare"): ("report", "Futile", "none", True),
    ("f2t-quotient", "decide"): NO_F2T_DECIDER,
    ("f2t-quotient", "enumerate"): NO_ENUMERATION,
    ("f2t-quotient", "sample"): NO_SAMPLER_FIELD,
    ("f2t-quotient", "factor"): ("report", [["x^2 + t", 1]], None, None),
    ("f2t-quotient", "oracle-compare"): NO_F2T_DECIDER,
    ("f2t-matrix", "decide"): NO_F2T_DECIDER,
    ("f2t-matrix", "enumerate"): NO_ENUMERATION,
    ("f2t-matrix", "sample"): NO_SAMPLER_FIELD,
    ("f2t-matrix", "factor"): NOT_QUOTIENT,
    ("f2t-matrix", "oracle-compare"): NO_F2T_DECIDER,
    ("tower", "decide"): ("report", "Futile", None, None),
    ("tower", "enumerate"): NO_ENUMERATION,
    ("tower", "sample"): NO_SAMPLER_KIND,
    ("tower", "factor"): NOT_QUOTIENT,
    ("tower", "oracle-compare"): ("report", "Futile", "none", True),
    ("relative", "decide"): ("report", "Futile", None, None),
    ("relative", "enumerate"): NO_ENUMERATION,
    ("relative", "sample"): ("report", 2, None, None),
    ("relative", "factor"): ("report", "(x)^3", None, None),
    ("relative", "oracle-compare"): ("report", "Futile", "sampler", True),
    ("zpres-comm", "decide"): ("report", "NotFutile", None, None),
    ("zpres-comm", "enumerate"): NO_ENUMERATION,
    ("zpres-comm", "sample"): ("report", 4, None, None),
    ("zpres-comm", "factor"): NOT_QUOTIENT,
    ("zpres-comm", "oracle-compare"): ("report", "NotFutile", "sampler", False),
    ("zpres-noncomm", "decide"): ("report", "NotFutile", None, None),
    ("zpres-noncomm", "enumerate"): NO_ENUMERATION,
    ("zpres-noncomm", "sample"): ("report", 18, None, None),
    ("zpres-noncomm", "factor"): NOT_QUOTIENT,
    ("zpres-noncomm", "oracle-compare"): ("report", "NotFutile", "sampler", True),
    ("localized", "decide"): ("report", "Futile", None, None),
    ("localized", "enumerate"): NO_ENUMERATION,
    ("localized", "sample"): NO_SAMPLER_KIND,
    ("localized", "factor"): NOT_QUOTIENT,
    ("localized", "oracle-compare"): ("report", "Futile", "none", True),
}


def description(route: str):
    base, algebra = CASES[route]
    return parse_case(json.dumps({"format_version": 1, "id": f"routes/{route}", "base": base, "algebra": algebra}))


def outcome(route: str, command: str):
    try:
        rep = run_command(command, description(route), OPTIONS)
    except FutilityError as exc:
        return type(exc), str(exc)
    res = rep.result
    headlines = ("verdict", "count", "distinct_count", "factored", "squarefree_parts")
    headline = next(res[k] for k in headlines if k in res)
    return "report", headline, (rep.oracle or {}).get("kind"), rep.agreement


def test_every_route_and_command_is_pinned():
    assert set(EXPECTED) == {(route, command) for route in CASES for command in COMMANDS}


@pytest.mark.parametrize("route,command", sorted(EXPECTED))
def test_route_outcome(route, command):
    assert outcome(route, command) == EXPECTED[(route, command)]


def counted_searches(monkeypatch):
    calls = []
    real = finite_enum._search
    monkeypatch.setattr(finite_enum, "_search", lambda A, start: calls.append(A) or real(A, start))
    return calls


def test_oracle_compare_over_fp_shares_the_deciders_lattice(monkeypatch):
    # the decider certifies by the cardinality, so the oracle's search is the only one
    calls = counted_searches(monkeypatch)
    assert outcome("f2-comm", "oracle-compare") == EXPECTED[("f2-comm", "oracle-compare")]
    assert [A.dim for A in calls] == [3]


def test_oracle_compare_over_fp_searches_a_noncommutative_algebra_and_its_quotient(monkeypatch):
    # the oracle enumerates A itself; the decider no longer enumerates A/[A, A]
    calls = counted_searches(monkeypatch)
    desc = parse_case((CORPUS / "noncommutative" / "f2-upper-triangular.case").read_text())
    rep = run_command("oracle-compare", desc)
    assert rep.agreement is True
    assert [A.dim for A in calls] == [3]


def test_every_run_searches_its_own_algebra(monkeypatch):
    # no lattice is kept between runs, so each run searches its own algebra
    calls = counted_searches(monkeypatch)
    desc = description("f2-comm")
    first = run_command("oracle-compare", desc)
    second = run_command("oracle-compare", desc)
    assert first.to_json() == second.to_json()
    assert len(calls) == 2 and calls[0] is not calls[1]


def test_each_fp_command_searches_at_most_once(monkeypatch):
    # decide certifies by the cardinality, so only the enumeration searches,
    # and it searches A itself, not the quotient by the commutator ideal
    calls = counted_searches(monkeypatch)
    for route, dim in (("f2-comm", 3), ("f2-noncomm", 4)):
        for command, searches in (("decide", 0), ("enumerate", 1), ("oracle-compare", 1)):
            calls.clear()
            assert outcome(route, command) == EXPECTED[(route, command)]
            assert [A.dim for A in calls] == [dim] * searches
