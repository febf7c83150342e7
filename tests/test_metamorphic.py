"""Exact relations between presentations: a route run on two presentations
of related algebras must give related answers, with no oracle in between.

The opposite algebra A^op (the transposed table, e_i o e_j = e_j * e_i)
has exactly A's subalgebras, as subspaces, and a single element has the
same powers in both.  So over Q the sampler's histogram on A^op equals A's field
for field (one draw stream, one memo key against Q*1, the same closure per
key), and over F_p the enumeration lists the same members.  Both run on the
struct algebras of the corpus, at each case's options.

A tower over F_p(t) or F_p(s, t) with every variable v replaced by v + c in
its moduli, for nonzero c in F_p, is the same tower pulled back along the
F_p-automorphism v -> v + c of the base field, so its decide report has the
same verdict, chain_dims and frobenius_index.  It runs on the corpus towers
and the decide-only towers of seed 3.

Time budget: 1 s for the module (0.5 s of the opposite-algebra relation and
0.2 s of the shifted towers on one core of a 2-vCPU machine).
"""

import json
import re
from pathlib import Path

import pytest

from futility.algebra import StructAlgebra, make_algebra
from futility.cases import build_case, parse_case
from futility.domains import QQ, PrimeField
from futility.finite_enum import enumerate_subalgebras
from futility.linalg import subspace_from_vectors
from futility.reports import DEFAULT_OPTIONS, jsonable, run_command
from futility.sampler import sample_subalgebras
from reference_tower import tower_documents

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def struct_cases():
    """(name, algebra, options) of every corpus case built as a StructAlgebra."""
    for path in sorted(CORPUS.rglob("*.case")):
        built = build_case(parse_case(path.read_text()))
        if isinstance(built.payload, StructAlgebra):
            name = path.relative_to(CORPUS).with_suffix("").as_posix()
            yield name, built.payload, {**DEFAULT_OPTIONS, **built.description.options}


STRUCT_CASES = list(struct_cases())
Q_CASES = [c for c in STRUCT_CASES if c[1].dom == QQ]
FP_CASES = [c for c in STRUCT_CASES if type(c[1].dom) is PrimeField]


def opposite(A: StructAlgebra) -> StructAlgebra:
    """A^op: the same space and unit, with the product e_i o e_j = e_j * e_i."""
    return make_algebra(A.dom, [[A.table[j][i] for j in range(A.dim)] for i in range(A.dim)], A.unit)


def test_the_struct_cases_hold_noncommutative_algebras():
    # the relation is the identity on a commutative algebra, so each group
    # must hold algebras whose opposite is another table
    assert (len(Q_CASES), len(FP_CASES)) == (20, 7)
    for cases in (Q_CASES, FP_CASES):
        assert sum(opposite(A).table != A.table for _, A, _ in cases) >= 2


@pytest.mark.parametrize("name, A, opts", Q_CASES, ids=[c[0] for c in Q_CASES])
def test_opposite_algebra_samples_the_same_histogram_over_q(name, A, opts):
    args = (opts["trials"], opts["bound"], opts["seed"])
    assert sample_subalgebras(opposite(A), *args) == sample_subalgebras(A, *args)


@pytest.mark.parametrize("name, A, opts", FP_CASES, ids=[c[0] for c in FP_CASES])
def test_opposite_algebra_enumerates_the_same_members_over_fp(name, A, opts):
    def members(B):
        base = subspace_from_vectors(B.dom, B.dim, [B.unit])
        return enumerate_subalgebras(B, base, opts["budget"]).members

    assert members(opposite(A)) == members(A)


TOWERS = tower_documents((3,))


def shifted(text: str, c: int) -> str:
    """The tower document with each base variable v written (v + c) in
    every modulus."""
    doc = json.loads(text)
    names = re.compile(r"\b(" + "|".join(map(re.escape, doc["base"]["vars"])) + r")\b")
    doc["algebra"]["moduli"] = [names.sub(lambda m: f"({m[1]} + {c})", g) for g in doc["algebra"]["moduli"]]
    return json.dumps(doc)


def frobenius_answer(text: str) -> tuple:
    result = run_command("decide", parse_case(text)).result
    certificate = jsonable(result["certificate"])
    return result["verdict"], certificate["chain_dims"], certificate["frobenius_index"]


def test_the_towers_hold_both_verdicts_and_two_variables():
    assert len(TOWERS) == 7 + 32
    docs = [json.loads(text) for _, text in TOWERS]
    assert {len(d["base"]["vars"]) for d in docs} == {1, 2}
    assert {d["base"]["p"] for d in docs} == {2, 3}
    assert {frobenius_answer(text)[0] for _, text in TOWERS} == {"Futile", "NotFutile"}
    assert shifted(TOWERS[0][1], 1) != TOWERS[0][1]


@pytest.mark.parametrize("text", [t for _, t in TOWERS], ids=[n for n, _ in TOWERS])
def test_a_tower_shifted_by_a_constant_gets_the_same_frobenius_answer(text):
    p = json.loads(text)["base"]["p"]
    want = frobenius_answer(text)
    for c in range(1, p):
        assert frobenius_answer(shifted(text, c)) == want
