#!/usr/bin/env python3
"""Regenerate the golden corpus: write every .case file, then run
`futility corpus --update`, which checks each case's oracle agreement and
embedded asserts and writes the sibling .expected reports only when every
case agrees (exit code 2 and no goldens written otherwise).

Run from the repository root:  python3 scripts/gen_corpus.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from futility.algebra import make_algebra, product_algebra
from futility.cases import struct_to_spec
from futility.cli import main as cli_main
from futility.constructions import (
    extend_by_poly,
    poly_quotient_algebra,
    upper_triangular_algebra,
)
from futility.domains import QQ, PrimeField
from futility.polynomials import make_poly

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def q(*cs):
    return make_poly(QQ, [Fraction(c) for c in cs])


def ut2_spec(dom):
    return struct_to_spec(upper_triangular_algebra(dom, 2))


def tensor_dual_numbers_spec():
    """Q[t, x] / (t^2, x^2) on the basis 1, t, x, tx."""
    L = poly_quotient_algebra(q(0, 0, 1))
    zero = (Fraction(0), Fraction(0))
    one = (Fraction(1), Fraction(0))
    ext, _, _ = extend_by_poly(L, [zero, zero, one])
    return struct_to_spec(ext)


def triple_dual_spec():
    R = poly_quotient_algebra(q(0, 0, 1))
    return struct_to_spec(product_algebra([R, R, R]))


def plane_identity_fail_spec():
    """Q{1, x, x^2, t, tx} with x^3 = t^2 = x^2 t = 0: all relative
    conditions hold except the plane subspace identity."""
    z = Fraction(0)
    names = {"one": 0, "x": 1, "x2": 2, "t": 3, "tx": 4}

    def vec(**kw):
        v = [z] * 5
        for k, c in kw.items():
            v[names[k]] = Fraction(c)
        return tuple(v)

    products = {
        (0, 0): vec(one=1),
        (0, 1): vec(x=1), (0, 2): vec(x2=1), (0, 3): vec(t=1), (0, 4): vec(tx=1),
        (1, 1): vec(x2=1), (1, 2): vec(), (1, 3): vec(tx=1), (1, 4): vec(),
        (2, 2): vec(), (2, 3): vec(), (2, 4): vec(),
        (3, 3): vec(), (3, 4): vec(),
        (4, 4): vec(),
    }
    table = [[products[(min(i, j), max(i, j))] for j in range(5)] for i in range(5)]
    return struct_to_spec(make_algebra(QQ, table, vec(one=1)))


def qq_case(name, algebra, asserts, options=None):
    return {
        "format_version": 1,
        "id": name,
        "base": {"kind": "Q"},
        "algebra": algebra,
        "options": options or {},
        "asserts": asserts,
    }


def qpoly(name, modulus, asserts, options=None):
    return qq_case(name, {"kind": "quotient_poly", "modulus": modulus}, asserts, options)


def relative_case(name, base_algebra, max_ideal, embedding, ambient, asserts, options=None):
    return {
        "format_version": 1,
        "id": name,
        "base": {
            "kind": "LocalArtinian",
            "ground": {"kind": "Q"},
            "base_algebra": base_algebra,
            "max_ideal": max_ideal,
            "embedding": embedding,
        },
        "algebra": ambient,
        "options": options or {},
        "asserts": asserts,
    }


def dual_base():
    return {"kind": "quotient_poly", "modulus": "x^2"}, [["0", "1"]]


def xpow_embedding(ambient_dim, exponent):
    unit = ["1"] + ["0"] * (ambient_dim - 1)
    t = ["0"] * ambient_dim
    t[exponent] = "1"
    return [unit, t]


def zpres_case(name, gens, relations, table, unit, asserts, options=None):
    return {
        "format_version": 1,
        "id": name,
        "base": {"kind": "Z"},
        "algebra": {
            "kind": "z_presentation",
            "gens": gens,
            "relations": relations,
            "table": table,
            "unit": unit,
        },
        "options": options or {},
        "asserts": asserts,
    }


def z_mat2_tables():
    n = 5

    def vec(*pairs):
        v = [0] * n
        for i, c in pairs:
            v[i] = c
        return v

    table = [[None] * n for _ in range(n)]
    table[0][0] = vec((0, 1))
    for i in range(1, n):
        table[0][i] = vec()
        table[i][0] = vec()
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    out = vec((1 + 2 * a + d, 1)) if b == c else vec()
                    table[1 + 2 * a + b][1 + 2 * c + d] = out
    relations = [vec((i, 2)) for i in range(1, n)]
    unit = vec((0, 1), (1, 1), (4, 1))
    return relations, table, unit


def build_cases():
    cases = []
    F = {"verdict": "Futile"}
    NF = {"verdict": "NotFutile"}

    # ---- infinite field -------------------------------------------------
    cases += [
        ("infinite-field", "q-linear", qpoly("infinite-field/q-linear", "x", F)),
        ("infinite-field", "q-x2", qpoly("infinite-field/q-x2", "x^2", F)),
        (
            "infinite-field",
            "q-x3",
            qpoly(
                "infinite-field/q-x3",
                "x^3",
                {"verdict": "Futile", "sampler_distinct_exact": 3},
                {"trials": 1000, "bound": 3, "seed": 7},
            ),
        ),
        ("infinite-field", "q-x4", qpoly("infinite-field/q-x4", "x^4", NF)),
        ("infinite-field", "q-x5", qpoly("infinite-field/q-x5", "x^5", NF)),
        ("infinite-field", "q-x6", qpoly("infinite-field/q-x6", "x^6", NF)),
        (
            "infinite-field",
            "q-gauss-squared",
            qpoly(
                "infinite-field/q-gauss-squared",
                "(x^2 + 1)^2",
                {"verdict": "NotFutile", "sampler_distinct_min": 20},
                {"trials": 500, "bound": 5, "seed": 0},
            ),
        ),
        ("infinite-field", "q-split-quadratic", qpoly("infinite-field/q-split-quadratic", "x^2 - 1", F)),
        ("infinite-field", "q-gauss", qpoly("infinite-field/q-gauss", "x^2 + 1", F)),
        ("infinite-field", "q-mixed", qpoly("infinite-field/q-mixed", "x^2 * (x - 1)", F)),
        ("infinite-field", "q-mixed-heavy", qpoly("infinite-field/q-mixed-heavy", "x^4 * (x - 1)", NF)),
        ("infinite-field", "q-two-blocks", qpoly("infinite-field/q-two-blocks", "x^2 * (x - 1)^2", NF)),
        ("infinite-field", "q-cubic-field", qpoly("infinite-field/q-cubic-field", "x^3 - 2", F)),
        (
            "infinite-field",
            "q-two-fields",
            qpoly(
                "infinite-field/q-two-fields",
                "(x^2 + 1) * (x^2 - 2)",
                F,
                {"trials": 2000, "bound": 5, "seed": 0},
            ),
        ),
        (
            "infinite-field",
            "q-field-and-block",
            qpoly(
                "infinite-field/q-field-and-block",
                "(x^2 + 1) * x^2",
                F,
                {"trials": 2000, "bound": 5, "seed": 0},
            ),
        ),
        (
            "infinite-field",
            "q-m2-zero",
            qq_case(
                "infinite-field/q-m2-zero",
                {
                    "kind": "structure_constants",
                    "dim": 3,
                    "unit": ["1", "0", "0"],
                    "table": [
                        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                        [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
                        [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]],
                    ],
                },
                NF,
            ),
        ),
        (
            "infinite-field",
            "q-product-split",
            qq_case(
                "infinite-field/q-product-split",
                {
                    "kind": "product",
                    "factors": [
                        {"kind": "quotient_poly", "modulus": "x^2"},
                        {"kind": "quotient_poly", "modulus": "x - 1"},
                    ],
                },
                F,
            ),
        ),
        (
            "infinite-field",
            "q-product-two-blocks",
            qq_case(
                "infinite-field/q-product-two-blocks",
                {
                    "kind": "product",
                    "factors": [
                        {"kind": "quotient_poly", "modulus": "x^2"},
                        {"kind": "quotient_poly", "modulus": "x^2"},
                    ],
                },
                NF,
            ),
        ),
    ]

    # ---- noncommutative --------------------------------------------------
    cases += [
        (
            "noncommutative",
            "q-upper-triangular",
            qq_case("noncommutative/q-upper-triangular", ut2_spec(QQ), NF),
        ),
        (
            "noncommutative",
            "q-mat2",
            qq_case(
                "noncommutative/q-mat2",
                {"kind": "matrix_algebra", "size": 2},
                NF,
                {"trials": 1000, "bound": 5, "seed": 0},
            ),
        ),
        (
            "noncommutative",
            "f2-upper-triangular",
            {
                "format_version": 1,
                "id": "noncommutative/f2-upper-triangular",
                "base": {"kind": "Fp", "p": 2},
                "algebra": ut2_spec(PrimeField(2)),
                "options": {},
                "asserts": {"verdict": "Futile"},
            },
        ),
    ]
    relations, table, unit = z_mat2_tables()
    cases.append(
        (
            "noncommutative",
            "z-times-mat2-f2",
            zpres_case(
                "noncommutative/z-times-mat2-f2", 5, relations, table, unit, F,
                {"trials": 600, "bound": 4, "seed": 0},
            ),
        )
    )

    # ---- field extensions -------------------------------------------------
    def tower(name, p, vars_, moduli, asserts):
        return {
            "format_version": 1,
            "id": name,
            "base": {"kind": "FpRational", "p": p, "vars": vars_},
            "algebra": {"kind": "tower", "moduli": moduli},
            "options": {},
            "asserts": asserts,
        }

    cases += [
        ("field-extension", "insep-quadratic", tower("field-extension/insep-quadratic", 2, ["t"], ["x^2 - t"], F)),
        ("field-extension", "sep-quadratic", tower("field-extension/sep-quadratic", 2, ["t"], ["x^2 + x + t"], F)),
        ("field-extension", "two-variable", tower("field-extension/two-variable", 2, ["s", "t"], ["x^2 - s", "y^2 - t"], NF)),
        ("field-extension", "trivial", tower("field-extension/trivial", 2, ["t"], ["x - t"], F)),
        ("field-extension", "insep-cubic", tower("field-extension/insep-cubic", 3, ["t"], ["x^3 - t"], F)),
        ("field-extension", "sep-constant", tower("field-extension/sep-constant", 2, ["t"], ["x^2 + x + 1"], F)),
        ("field-extension", "deep-chain", tower("field-extension/deep-chain", 2, ["t"], ["x^4 - t"], F)),
    ]

    # ---- local artinian ----------------------------------------------------
    dual, dual_ideal = dual_base()

    # degenerate base Q cases need the 1 x dim embedding; fill explicitly
    def degenerate_case(name, ambient, amb_dim, asserts, options=None):
        return relative_case(
            name,
            {"kind": "quotient_poly", "modulus": "x"},
            [],
            [["1"] + ["0"] * (amb_dim - 1)],
            ambient,
            asserts,
            options,
        )

    cases += [
        (
            "local-artinian",
            "degenerate-x3",
            degenerate_case(
                "local-artinian/degenerate-x3",
                {"kind": "quotient_poly", "modulus": "x^3"},
                3,
                F,
            ),
        ),
        (
            "local-artinian",
            "degenerate-x4",
            degenerate_case(
                "local-artinian/degenerate-x4",
                {"kind": "quotient_poly", "modulus": "x^4"},
                4,
                NF,
            ),
        ),
        (
            "local-artinian",
            "degenerate-noncommutative",
            relative_case(
                "local-artinian/degenerate-noncommutative",
                {"kind": "quotient_poly", "modulus": "x"},
                [],
                [["1", "0", "1"]],  # unit of the triangular algebra
                ut2_spec(QQ),
                NF,
            ),
        ),
        (
            "local-artinian",
            "dual-over-dual",
            relative_case(
                "local-artinian/dual-over-dual",
                dual,
                dual_ideal,
                [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
                tensor_dual_numbers_spec(),
                F,
                {"trials": 1500, "bound": 5, "seed": 0},
            ),
        ),
        (
            "local-artinian",
            "x3-over-square",
            relative_case(
                "local-artinian/x3-over-square",
                dual,
                dual_ideal,
                xpow_embedding(3, 2),
                {"kind": "quotient_poly", "modulus": "x^3"},
                F,
                {"trials": 1000, "bound": 5, "seed": 0},
            ),
        ),
        (
            "local-artinian",
            "x5-plane-case",
            relative_case(
                "local-artinian/x5-plane-case",
                dual,
                dual_ideal,
                xpow_embedding(5, 3),
                {"kind": "quotient_poly", "modulus": "x^5"},
                F,
                {"trials": 5000, "bound": 5, "seed": 0},
            ),
        ),
        (
            "local-artinian",
            "x6-uniserial-failure",
            relative_case(
                "local-artinian/x6-uniserial-failure",
                dual,
                dual_ideal,
                xpow_embedding(6, 3),
                {"kind": "quotient_poly", "modulus": "x^6"},
                NF,
                {"trials": 2000, "bound": 5, "seed": 0, "divergence_threshold": 8},
            ),
        ),
        (
            "local-artinian",
            "triple-product",
            relative_case(
                "local-artinian/triple-product",
                dual,
                dual_ideal,
                [
                    ["1", "0", "1", "0", "1", "0"],
                    ["0", "1", "0", "1", "0", "1"],
                ],
                triple_dual_spec(),
                NF,
                {"trials": 2000, "bound": 5, "seed": 0, "divergence_threshold": 12},
            ),
        ),
        (
            "local-artinian",
            "plane-identity-failure",
            relative_case(
                "local-artinian/plane-identity-failure",
                dual,
                dual_ideal,
                [["1", "0", "0", "0", "0"], ["0", "0", "0", "1", "0"]],
                plane_identity_fail_spec(),
                NF,
                {"trials": 2000, "bound": 5, "seed": 0, "divergence_threshold": 8},
            ),
        ),
    ]

    # ---- integers -------------------------------------------------------------
    cases += [
        (
            "integer",
            "z-split",
            zpres_case(
                "integer/z-split",
                2,
                [],
                [[[1, 0], [0, 1]], [[0, 1], [0, 1]]],
                [1, 0],
                NF,
                {"trials": 800, "bound": 8, "seed": 0, "divergence_threshold": 8},
            ),
        ),
        (
            "integer",
            "z-nilpotent-torsion",
            zpres_case(
                "integer/z-nilpotent-torsion",
                2,
                [[0, 5]],
                [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                [1, 0],
                F,
                {"trials": 800, "bound": 6, "seed": 0},
            ),
        ),
        (
            "integer",
            "z-rank2-nilpotent",
            zpres_case(
                "integer/z-rank2-nilpotent",
                2,
                [],
                [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                [1, 0],
                NF,
                {"trials": 800, "bound": 8, "seed": 0, "divergence_threshold": 8},
            ),
        ),
        (
            "integer",
            "z-finite",
            zpres_case(
                "integer/z-finite",
                2,
                [[2, 0], [0, 2]],
                [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                [1, 0],
                F,
                {"trials": 400, "bound": 5, "seed": 0},
            ),
        ),
        (
            "integer",
            "z-localized",
            {
                "format_version": 1,
                "id": "integer/z-localized",
                "base": {"kind": "Z"},
                "algebra": {"kind": "localized", "invert": 6},
                "options": {},
                "asserts": F,
            },
        ),
        (
            "integer",
            "z-localized-with-finite",
            {
                "format_version": 1,
                "id": "integer/z-localized-with-finite",
                "base": {"kind": "Z"},
                "algebra": {
                    "kind": "localized",
                    "invert": 6,
                    "finite_part": {
                        "base": {"kind": "Fp", "p": 2},
                        "algebra": {"kind": "quotient_poly", "modulus": "x^2"},
                    },
                },
                "options": {},
                "asserts": F,
            },
        ),
    ]

    # ---- finite ------------------------------------------------------------------
    def fp_case(name, p, algebra, asserts, options=None):
        return {
            "format_version": 1,
            "id": name,
            "base": {"kind": "Fp", "p": p},
            "algebra": algebra,
            "options": options or {},
            "asserts": asserts,
        }

    cases += [
        (
            "finite",
            "f2-x3",
            fp_case(
                "finite/f2-x3",
                2,
                {"kind": "quotient_poly", "modulus": "x^3"},
                {"verdict": "Futile", "enumeration_count": 3},
            ),
        ),
        (
            "finite",
            "f2-mat2",
            fp_case(
                "finite/f2-mat2",
                2,
                {"kind": "matrix_algebra", "size": 2},
                {"verdict": "Futile", "enumeration_count": 12},
            ),
        ),
        (
            "finite",
            "f2-cube",
            fp_case(
                "finite/f2-cube",
                2,
                {
                    "kind": "product",
                    "factors": [
                        {"kind": "quotient_poly", "modulus": "x - 1"},
                        {"kind": "quotient_poly", "modulus": "x - 1"},
                        {"kind": "quotient_poly", "modulus": "x - 1"},
                    ],
                },
                {"verdict": "Futile", "enumeration_count": 5},
            ),
        ),
        (
            "finite",
            "f2-f4",
            fp_case(
                "finite/f2-f4",
                2,
                {"kind": "quotient_poly", "modulus": "x^2 + x + 1"},
                {"verdict": "Futile", "enumeration_count": 2},
            ),
        ),
        (
            "finite",
            "f3-dual-numbers",
            fp_case(
                "finite/f3-dual-numbers",
                3,
                {"kind": "quotient_poly", "modulus": "x^2"},
                {"verdict": "Futile", "enumeration_count": 2},
            ),
        ),
        (
            "finite",
            "f2-split-quadratic",
            fp_case(
                "finite/f2-split-quadratic",
                2,
                {"kind": "quotient_poly", "modulus": "x^2 + x"},
                {"verdict": "Futile", "enumeration_count": 2},
            ),
        ),
        (
            "finite",
            "zmod4-dual-numbers",
            {
                "format_version": 1,
                "id": "finite/zmod4-dual-numbers",
                "base": {"kind": "Zmod", "n": 4},
                "algebra": {"kind": "quotient_poly", "modulus": "x^2"},
                "options": {},
                "asserts": F,
            },
        ),
    ]
    return cases


def main():
    """Write every .case file, delete cases that are no longer built, and
    let `futility corpus --update` write the goldens."""
    written = set()
    for tag, name, doc in build_cases():
        path = CORPUS / tag / f"{name}.case"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        written.add(path)
    for stale in set(CORPUS.rglob("*.case")) - written:
        stale.unlink()
        stale.with_suffix(".expected").unlink(missing_ok=True)
    return cli_main(["corpus", "--dir", str(CORPUS), "--update"])


if __name__ == "__main__":
    sys.exit(main())
