"""Tower oracles.  The per-entry reduction: the table of a tower level
L[z]/(g), each entry reduced modulo g from its own top degree down, as an
oracle for constructions.extend_by_poly.  The Frobenius chain on reduced
rows: each member the span of the p-th powers of the previous member's
reduced echelon rows, as algebra.frobenius_chain formed it before it kept
the p-th powers of a basis, as an oracle for it.  The F_p(t[,s]) sum and
product that call ratfunc on every sum and every non-constant product
(reference_add, reference_mul), as oracles for FunctionField.add and mul.
RatFunc takes no gcd, so equal tower values can differ in their num and
den tuples: exact compares those.

Also a script, which builds and decides every decide-only tower of the
given seeds with FunctionField's arithmetic and with the reference one and
compares tables, units, Frobenius chains and report JSON (about 0.35 s a
seed on one core of a 2-vCPU machine).  Run from the repository root:

    PYTHONPATH=src python tests/reference_tower.py 4 5 6

It stops at the first mismatch, prints the case id and exits 1; it exits 0
when all agree.  Tier-1 runs the same comparison on seeds 1-3.  The file is
not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

from futility.algebra import element_multiply, element_power, frobenius_chain, invert_element
from futility.cases import build_case, parse_case
from futility.domains import FunctionField, RatFunc, mp_add, mp_mul, mp_scale
from futility.errors import CharacteristicZero
from futility.linalg import full_subspace, subspace_from_vectors, vec_is_zero, zero_vec
from futility.polynomials import Poly
from futility.reports import run_command

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import make_cases  # noqa: E402


def exact(x):
    """x with every RatFunc replaced by its (num, den) tuples, in tuples, lists
    and Polys, so that == compares representations, not values."""
    if isinstance(x, RatFunc):
        return (x.num, x.den)
    if isinstance(x, (tuple, list)):
        return tuple(map(exact, x))
    if isinstance(x, Poly):
        return exact(x.coeffs)
    return x


def frobenius_chain_on_rows(L):
    """The chain L, KL^p, KL^(p^2), ... down to its stabilization point, each
    member spanned by the p-th powers of the reduced rows of the one before."""
    p = L.dom.char
    if p == 0:
        raise CharacteristicZero("Frobenius chain needs positive characteristic")
    chain = [full_subspace(L.dom, L.dim)]
    while True:
        prev = chain[-1]
        nxt = subspace_from_vectors(L.dom, L.dim, [element_power(L, v, p) for v in prev.rows])
        if nxt.dim == prev.dim:
            return chain
        chain.append(nxt)


def reduce_each_entry(L, coeff_vectors):
    """The (table, unit) of L[z]/(g) for g = sum coeff_vectors[k] z^k, on the
    basis b_i z^e (index e * dim L + i).  g is first made monic by the
    inverse of its leading coefficient, unless that is already the unit.
    Entry (b_i z^e)(b_j z^f) puts b_i b_j at degree e + f, then clears the
    degrees 2d - 1, ..., d one at a time by subtracting the top coefficient
    times g shifted to that degree."""
    dom = L.dom
    coeffs = [tuple(c) for c in coeff_vectors]
    while coeffs and vec_is_zero(dom, coeffs[-1]):
        coeffs.pop()
    d, m = len(coeffs) - 1, L.dim
    if coeffs[-1] != L.unit:
        inv = invert_element(L, coeffs[-1])
        coeffs = [element_multiply(L, inv, c) for c in coeffs]
    table = []
    for i in range(m * d):
        bi, ei = i % m, i // m
        row = []
        for j in range(m * d):
            bj, ej = j % m, j // m
            by_degree = [zero_vec(dom, m) for _ in range(2 * d)]
            by_degree[ei + ej] = element_multiply(L, L.basis_vector(bi), L.basis_vector(bj))
            for t in range(2 * d - 1, d - 1, -1):
                top = by_degree[t]
                if vec_is_zero(dom, top):
                    continue
                by_degree[t] = zero_vec(dom, m)
                for k in range(d):
                    by_degree[t - d + k] = tuple(
                        dom.sub(a, b)
                        for a, b in zip(by_degree[t - d + k], element_multiply(L, top, coeffs[k]))
                    )
            row.append(tuple(c for v in by_degree[:d] for c in v))
        table.append(row)
    unit = (*L.unit, *zero_vec(dom, m * (d - 1)))
    return table, unit


def reference_add(K, a, b):
    """FunctionField.add with ratfunc on every sum: a zero summand goes
    through the full formula, and a sum over denominator 1 through ratfunc."""
    if a.den == K._one and b.den == K._one:
        return K._wrap(mp_add(a.num, b.num, K.p))
    num = mp_add(mp_mul(a.num, b.den, K.p), mp_mul(b.num, a.den, K.p), K.p)
    return K._wrap(num, mp_mul(a.den, b.den, K.p))


def reference_mul(K, a, b):
    """FunctionField.mul with ratfunc on every product but those by zero or
    by a constant."""
    one, p = K._one, K.p
    if not a.num or not b.num:
        return RatFunc(p, K.nvars, (), one)
    if b.den == one and len(b.num) == 1 and b.num[0][0] == one[0][0]:
        other, c = a, b.num[0][1]
    elif a.den == one and len(a.num) == 1 and a.num[0][0] == one[0][0]:
        other, c = b, a.num[0][1]
    else:
        return K._wrap(mp_mul(a.num, b.num, p), mp_mul(a.den, b.den, p))
    num = other.num if c == 1 else mp_scale(other.num, c, p)
    return RatFunc(p, K.nvars, num, other.den)


@contextmanager
def reference_arithmetic():
    """FunctionField.add and mul (and so sub) replaced by reference_add and
    reference_mul while the block runs."""
    real = FunctionField.add, FunctionField.mul
    FunctionField.add, FunctionField.mul = reference_add, reference_mul
    try:
        yield
    finally:
        FunctionField.add, FunctionField.mul = real


def algebra_outcome(L):
    """The table, unit and Frobenius chain members of a tower L, through exact."""
    return exact(L.table), exact(L.unit), [(exact(s.rows), s.pivots) for s in frobenius_chain(L)]


def case_outcome(text: str):
    """algebra_outcome of the tower a case document builds, and its decide
    report as JSON."""
    return (*algebra_outcome(build_case(parse_case(text)).payload), run_command("decide", parse_case(text)).to_json())


def both_ways(outcome, arg):
    """outcome(arg) with FunctionField's arithmetic and with the reference's."""
    got = outcome(arg)
    with reference_arithmetic():
        want = outcome(arg)
    return got, want


def decide_only_towers(seed: int) -> list:
    """(case id, document) of each decide-only tower of one seed."""
    return [(case.case_id, case.text) for case in make_cases("decide-only", seed, ROOT) if "tower" in case.case_id]


def tower_documents(seeds) -> list:
    """(id, document) of each corpus tower and each decide-only tower of the
    given seeds."""
    out = [(f"corpus/{path.stem}", path.read_text()) for path in sorted((ROOT / "corpus" / "field-extension").glob("*.case"))]
    for seed in seeds:
        out += [(f"seed{seed}/{case_id.removeprefix('decide-only/')}", text) for case_id, text in decide_only_towers(seed)]
    return out


def main(argv) -> int:
    seeds = [int(a) for a in argv]
    if not seeds:
        print("usage: reference_tower.py SEED [SEED ...]", file=sys.stderr)
        return 2
    count = 0
    for seed in seeds:
        for case_id, text in decide_only_towers(seed):
            got, want = both_ways(case_outcome, text)
            if got != want:
                print(f"seed {seed}: {case_id}: differs from the reference arithmetic")
                return 1
            count += 1
    print(f"{count} decide-only towers over {len(seeds)} seeds agree with the reference arithmetic")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
