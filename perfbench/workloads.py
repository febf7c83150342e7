"""Seeded workloads and their answer keys.

A workload turns a seed into a list of `Case` records: the case document the
program parses, the CLI command that runs it, and a check of the report.  The
checks never ask a decider for the answer:

- `corpus`: the committed `corpus/**/*.case` files under `oracle-compare`.
  Each report must equal its `.expected` golden byte for byte and satisfy the
  `asserts` embedded in its case.  The seed only shuffles the case order, so
  a cross-case cache that depends on order or on `id()` shows up.
- `finite-lattice`: finite F_p algebras under `oracle-compare`.  The seed
  draws an isomorphic presentation of each template (x -> c*x + a in a
  quotient, shuffled and shifted product factors, a permuted and rescaled
  basis of a matrix algebra), so the subalgebra count stored with the template
  is the answer for every seed.  Here finite enumeration and prime-field
  arithmetic do the work; there is no sampler and no `Fraction` work.
- `decide-only`: `decide` with no oracle, the time a user waits for a verdict.
  Q[x]/(prod f_i^m_i) with Eisenstein factors x^k - p and distinct linear
  factors is futile exactly when at most one factor repeats and that factor
  is linear with multiplicity <= 3.  The purely inseparable tower
  x^(p^k) - (c*t + d) is futile; x^(p^a) - (s + c), y^(p^b) - (t + d) with
  a, b >= 1 is not.  The roots, primes and constants are drawn once per case
  id, not per seed: the decider's cost swings up to 3x with them, which would
  bury any change under seed noise.  The seed draws the order of the cases
  and of the factors in each modulus.

Every template of a generated workload appears in every pass at a fixed
shape, so the cost of a pass barely depends on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

WORKLOADS = ("corpus", "finite-lattice", "decide-only")


@dataclass(frozen=True)
class Case:
    case_id: str
    text: str  # the case document, exactly as the program reads it
    command: str
    check: Callable[[str], "str | None"]  # report JSON -> failure message, or None


def make_cases(workload: str, seed: int, root: Path, smoke: bool = False) -> list[Case]:
    """The cases of one pass of `workload`, drawn from `seed`."""
    rng = random.Random(seed)
    if workload == "corpus":
        return _corpus_cases(root / "corpus", rng, smoke)
    if workload == "finite-lattice":
        return _finite_cases(rng, smoke)
    if workload == "decide-only":
        return _decide_cases(rng, smoke)
    raise ValueError(f"unknown workload {workload!r}")


def _document(case_id: str, base: dict, algebra: dict) -> str:
    return json.dumps(
        {"format_version": 1, "id": case_id, "base": base, "algebra": algebra, "options": {}},
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

# Cases that finish in a few milliseconds, for smoke runs.
CORPUS_SMOKE = ("finite", "integer")


def _corpus_cases(corpus: Path, rng: random.Random, smoke: bool) -> list[Case]:
    paths = sorted(corpus.rglob("*.case"))
    if not paths:
        raise FileNotFoundError(f"no .case files under {corpus}")
    if smoke:
        paths = [p for p in paths if p.parent.name in CORPUS_SMOKE and p.stem != "z-split"]
    rng.shuffle(paths)
    cases = []
    for path in paths:
        text = path.read_text()
        case_id = path.relative_to(corpus).with_suffix("").as_posix()
        check = partial(_check_golden, path.with_suffix(".expected"), text)
        cases.append(Case(case_id, text, "oracle-compare", check))
    return cases


def _check_golden(expected_path: Path, case_text: str, report_text: str):
    if report_text != expected_path.read_text():
        return f"report differs from {expected_path.name}"
    report = json.loads(report_text)
    oracle = report["oracle"] or {}
    asserts = json.loads(case_text).get("asserts", {})
    if report["agreement"] is not True:
        return "oracle disagrees"
    if "verdict" in asserts and report["result"]["verdict"] != asserts["verdict"]:
        return f"verdict {report['result']['verdict']}, asserted {asserts['verdict']}"
    if "enumeration_count" in asserts and oracle.get("count") != asserts["enumeration_count"]:
        return f"enumeration count {oracle.get('count')}, asserted {asserts['enumeration_count']}"
    if "sampler_distinct_exact" in asserts and oracle.get("distinct_count") != asserts["sampler_distinct_exact"]:
        return f"sampler count {oracle.get('distinct_count')}, asserted {asserts['sampler_distinct_exact']}"
    if "sampler_distinct_min" in asserts and (oracle.get("distinct_count") or 0) < asserts["sampler_distinct_min"]:
        return f"sampler count {oracle.get('distinct_count')}, asserted >= {asserts['sampler_distinct_min']}"
    return None


# ---------------------------------------------------------------------------
# finite-lattice
# ---------------------------------------------------------------------------

# (name, p, kind, data, copies per pass, subalgebra count).  `poly` data is a
# list of (irreducible in x, multiplicity); `product` data is a list of such
# lists; `matrix` and `upper` data is the matrix size.  The counts were taken
# from `futility enumerate` at the commit that added this benchmark and agree
# for every seed, since each seed draws an isomorphic presentation.
FINITE_TEMPLATES = (
    ("f2-x5", 2, "poly", [("x", 5)], 2, 9),
    ("f2-x2-y3", 2, "poly", [("x", 2), ("x + 1", 3)], 2, 14),
    ("f2-q-y3", 2, "poly", [("x^2 + x + 1", 1), ("x + 1", 3)], 2, 9),
    ("f2-field5", 2, "poly", [("x^3 + x + 1", 1), ("x^2 + x + 1", 1)], 2, 5),
    ("f2-x6", 2, "poly", [("x", 6)], 2, 24),
    ("f2-x3-y3", 2, "poly", [("x", 3), ("x + 1", 3)], 2, 24),
    ("f2-x2-y2-q", 2, "poly", [("x", 2), ("x + 1", 2), ("x^2 + x + 1", 1)], 2, 31),
    ("f2-c3-q-x", 2, "poly", [("x^3 + x + 1", 1), ("x^2 + x + 1", 1), ("x", 1)], 2, 10),
    ("f2-q3", 2, "poly", [("x^2 + x + 1", 3)], 2, 18),
    ("f2-x2.x3.f2", 2, "product", [[("x", 2)], [("x", 3)], [("x", 1)]], 2, 34),
    ("f2-x2.q", 2, "product", [[("x", 2)], [("x^2 + x + 1", 1)], [("x", 1)]], 2, 14),
    ("f2-upper3", 2, "upper", 3, 2, 88),
    ("f2-mat2", 2, "matrix", 2, 2, 12),
    ("f2-x7", 2, "poly", [("x", 7)], 1, 35),
    ("f2-x4.x3", 2, "product", [[("x", 4)], [("x", 3)]], 1, 52),
    ("f2-q-x5", 2, "poly", [("x^2 + x + 1", 1), ("x", 5)], 1, 27),
    ("f3-x4", 3, "poly", [("x", 4)], 2, 7),
    ("f3-x5", 3, "poly", [("x", 5)], 2, 11),
    ("f3-i-x3", 3, "poly", [("x^2 + 1", 1), ("x", 3)], 2, 9),
    ("f3-x2-y-z", 3, "poly", [("x", 2), ("x + 1", 1), ("x + 2", 1)], 2, 10),
    ("f3-i-y2", 3, "poly", [("x^2 + 1", 1), ("x + 2", 2)], 2, 6),
    ("f3-x2.x3", 3, "product", [[("x", 2)], [("x", 3)]], 2, 16),
    ("f3-mat2", 3, "matrix", 2, 2, 19),
    ("f3-upper2", 3, "upper", 2, 2, 6),
)

FINITE_SMOKE = ("f2-x5", "f2-mat2", "f3-x4")


def _finite_cases(rng: random.Random, smoke: bool) -> list[Case]:
    cases = []
    for name, p, kind, data, copies, count in FINITE_TEMPLATES:
        if smoke:
            if name not in FINITE_SMOKE:
                continue
            copies = 1
        for i in range(copies):
            case_id = f"finite-lattice/{name}#{i}"
            if kind == "poly":
                algebra = {"kind": "quotient_poly", "modulus": _shifted_modulus(data, p, rng)}
            elif kind == "product":
                factors = [
                    {"kind": "quotient_poly", "modulus": _shifted_modulus(f, p, rng)} for f in data
                ]
                rng.shuffle(factors)
                algebra = {"kind": "product", "factors": factors}
            else:
                algebra = _matrix_spec(p, data, kind == "upper", rng)
            text = _document(case_id, {"kind": "Fp", "p": p}, algebra)
            cases.append(Case(case_id, text, "oracle-compare", partial(_check_lattice, count)))
    rng.shuffle(cases)
    return cases


def _shifted_modulus(factors, p: int, rng: random.Random) -> str:
    """prod f(c*x + a)^m for a random automorphism x -> c*x + a of F_p[x]."""
    c = rng.randrange(1, p)
    a = rng.randrange(p)
    image = f"({c}*x + {a})"
    return " * ".join(f"({f.replace('x', image)})^{m}" for f, m in factors)


def _matrix_spec(p: int, size: int, upper: bool, rng: random.Random) -> dict:
    """Full or upper-triangular matrices over F_p on a permuted, rescaled
    basis of matrix units, as structure constants."""
    units = [(a, b) for a in range(size) for b in range(size) if b >= a or not upper]
    n = len(units)
    index = {ab: i for i, ab in enumerate(units)}
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [rng.randrange(1, p) for _ in range(n)]
    inv = [pow(c, -1, p) for c in scale]
    # New basis f_i = scale[i] * E_{units[perm[i]]}; f_i f_j = sum_k T[i][j][k] f_k.
    position = {perm[i]: i for i in range(n)}
    table = []
    for i in range(n):
        row = []
        a, b = units[perm[i]]
        for j in range(n):
            c, d = units[perm[j]]
            vec = [0] * n
            if b == c:
                k = position[index[(a, d)]]
                vec[k] = scale[i] * scale[j] * inv[k] % p
            row.append([str(v) for v in vec])
        table.append(row)
    unit = [0] * n
    for a in range(size):
        k = position[index[(a, a)]]
        unit[k] = inv[k]
    return {"kind": "structure_constants", "dim": n, "unit": [str(v) for v in unit], "table": table}


def _check_lattice(count: int, report_text: str):
    report = json.loads(report_text)
    result = report["result"]
    oracle = report["oracle"] or {}
    if report["agreement"] is not True:
        return "oracle disagrees"
    if result["verdict"] != "Futile":
        return f"verdict {result['verdict']} for a finite algebra"
    if oracle.get("count") != count:
        return f"oracle counted {oracle.get('count')} subalgebras, reference {count}"
    certified = result["certificate"].get("subalgebra_count")
    if certified is not None and certified != count:
        return f"certificate counts {certified} subalgebras, reference {count}"
    return None


# ---------------------------------------------------------------------------
# decide-only
# ---------------------------------------------------------------------------

# Q shapes: (name, copies per pass, factors), each factor (kind, degree,
# multiplicity) with kind "L" for a linear factor x - a and "E" for an
# Eisenstein factor x^degree - p.
Q_SHAPES = (
    ("q8-lin2", 1, (("L", 1, 2), ("E", 2, 1), ("L", 1, 1), ("E", 3, 1))),
    ("q8-lin3", 1, (("L", 1, 3), ("E", 2, 1), ("L", 1, 1), ("L", 1, 1), ("L", 1, 1))),
    ("q8-eis2", 1, (("E", 2, 2), ("L", 1, 1), ("L", 1, 1), ("L", 1, 1), ("L", 1, 1))),
    ("q8-two-lin2", 1, (("L", 1, 2), ("L", 1, 2), ("E", 2, 1), ("E", 2, 1))),
    ("q8-lin4", 1, (("L", 1, 4), ("E", 2, 1), ("L", 1, 1), ("L", 1, 1))),
    ("q8-reduced", 1, (("E", 2, 1), ("E", 3, 1), ("L", 1, 1), ("L", 1, 1), ("L", 1, 1))),
    ("q8-lin3-eis", 1, (("L", 1, 3), ("E", 3, 1), ("E", 2, 1))),
    ("q9-eis4-lin2", 1, (("E", 4, 1), ("L", 1, 2), ("L", 1, 1), ("L", 1, 1), ("L", 1, 1))),
    ("q9-lin3-lin2", 1, (("L", 1, 3), ("L", 1, 2), ("E", 2, 1), ("L", 1, 1), ("L", 1, 1))),
    ("q10-eis3", 1, (("E", 3, 2), ("E", 2, 1), ("L", 1, 1), ("L", 1, 1))),
)

# Towers: (copies per pass, p, exponents).  One exponent k gives
# x^(p^k) - (c*t + d); two exponents a, b give x^(p^a) - (s + c),
# y^(p^b) - (t + d).
TOWERS = (
    (7, 2, (3,)),
    (7, 3, (2,)),
    (1, 2, (4,)),
    (4, 2, (2, 1)),
    (4, 2, (1, 2)),
    (3, 2, (1, 1)),
    (5, 3, (1, 1)),
    (1, 2, (2, 2)),
)

Q_PRIMES = (2, 3, 5, 7)
Q_ROOTS = tuple(range(-4, 5))


def _decide_cases(rng: random.Random, smoke: bool) -> list[Case]:
    cases = []
    for name, copies, shape in Q_SHAPES[:2] if smoke else Q_SHAPES:
        for i in range(1 if smoke else copies):
            case_id = f"decide-only/{name}#{i}"
            modulus, verdict = _q_modulus(shape, random.Random(case_id), rng)
            text = _document(case_id, {"kind": "Q"}, {"kind": "quotient_poly", "modulus": modulus})
            cases.append(Case(case_id, text, "decide", partial(_check_verdict, verdict)))
    for copies, p, exps in TOWERS[:2] if smoke else TOWERS:
        for i in range(1 if smoke else copies):
            case_id = f"decide-only/tower-f{p}-{'-'.join(str(p ** k) for k in exps)}#{i}"
            fixed = random.Random(case_id)
            if len(exps) == 1:
                moduli = [f"x^{p ** exps[0]} - ({fixed.randrange(1, p)}*t + {fixed.randrange(p)})"]
                base = {"kind": "FpRational", "p": p, "vars": ["t"]}
                verdict = "Futile"
            else:
                moduli = [
                    f"x^{p ** exps[0]} - (s + {fixed.randrange(p)})",
                    f"y^{p ** exps[1]} - (t + {fixed.randrange(p)})",
                ]
                base = {"kind": "FpRational", "p": p, "vars": ["s", "t"]}
                verdict = "NotFutile"
            text = _document(case_id, base, {"kind": "tower", "moduli": moduli})
            cases.append(Case(case_id, text, "decide", partial(_check_verdict, verdict)))
    rng.shuffle(cases)
    return cases


def _q_modulus(shape, numbers: random.Random, order: random.Random) -> tuple[str, str]:
    """A modulus of the given shape, with roots and primes drawn from
    `numbers` and factors written in an order drawn from `order`, and the
    verdict its shape implies."""
    roots = numbers.sample(Q_ROOTS, sum(1 for kind, _d, _m in shape if kind == "L"))
    used = set()
    parts = []
    for kind, degree, mult in shape:
        if kind == "L":
            a = roots.pop()
            factor = "x" if a == 0 else f"x - {a}" if a > 0 else f"x + {-a}"
        else:
            prime = numbers.choice([q for q in Q_PRIMES if (degree, q) not in used])
            used.add((degree, prime))
            factor = f"x^{degree} - {prime}"
        parts.append(f"({factor})^{mult}" if mult > 1 else f"({factor})")
    order.shuffle(parts)
    repeated = [(kind, mult) for kind, _d, mult in shape if mult > 1]
    futile = not repeated or (len(repeated) == 1 and repeated[0][0] == "L" and repeated[0][1] <= 3)
    return " * ".join(parts), "Futile" if futile else "NotFutile"


def _check_verdict(verdict: str, report_text: str):
    got = json.loads(report_text)["result"]["verdict"]
    return None if got == verdict else f"verdict {got}, construction implies {verdict}"
