"""Case documents that `futility decide` must refuse with one located
`error:` line and exit code 1.

`test_cli_malformed_case_is_one_error_line` runs every row of REFUSED, and
`test_cli_document_nested_too_deep_is_one_error_line` every document of
DEEP_DOCUMENTS.  `route_reach.py` runs them all, so that a function reached
only on the way to a refusal counts as reached.  A row of REFUSED is
(id, base, algebra), and `case_text` writes the document it stands for.
"""

from __future__ import annotations

import json

STRUCT_1 = {"kind": "structure_constants", "dim": 1, "unit": ["1"], "table": [[["1"]]]}
FP_T = {"kind": "FpRational", "p": 2, "vars": ["t"]}
MATRIX_5 = {"kind": "matrix_algebra", "size": 5}
Z_PRES_1 = {"kind": "z_presentation", "gens": 1, "table": [[[1]]], "unit": [1]}
LOCAL_X2 = {
    "kind": "LocalArtinian",
    "ground": {"kind": "Q"},
    "base_algebra": {"kind": "quotient_poly", "modulus": "x^2"},
    "max_ideal": [["0", "1"]],
    "embedding": [["1", "0", "0"], ["0", "0", "1"]],  # t -> x^2
}

# json.dumps cannot write an int past the interpreter's int-string limit, so a
# row puts this string where the literal goes and case_text writes the digits.
NINES_5000 = "<5000 nines>"


def nested_products(depth):
    """F2[x]/(x) as the one factor of depth nested products."""
    spec = {"kind": "quotient_poly", "modulus": "x"}
    for _ in range(depth):
        spec = {"kind": "product", "factors": [spec]}
    return spec


def case_text(base, algebra) -> str:
    doc = {"format_version": 1, "id": "test/inline", "base": base, "algebra": algebra}
    return json.dumps(doc).replace(json.dumps(NINES_5000), "9" * 5000)


REFUSED = [
    ("dim-not-int", {"kind": "Q"}, dict(STRUCT_1, dim="abc")),
    ("p-not-int", {"kind": "Fp", "p": "x"}, {"kind": "quotient_poly", "modulus": "x^2"}),
    ("unit-divides-by-zero", {"kind": "Q"}, dict(STRUCT_1, unit=["1/0"])),
    ("factors-not-list", {"kind": "Q"}, {"kind": "product", "factors": "zz"}),
    ("modulus-not-string", {"kind": "Q"}, {"kind": "quotient_poly", "modulus": 5}),
    ("table-not-list", {"kind": "Q"}, dict(STRUCT_1, table=5)),
    ("table-block-not-list", {"kind": "Q"}, dict(STRUCT_1, table=["1"])),
    ("table-row-not-list", {"kind": "Q"}, dict(STRUCT_1, table=[["1"]])),
    ("moduli-not-list", FP_T, {"kind": "tower", "moduli": "x - t"}),
    ("tower-modulus-not-string", FP_T, {"kind": "tower", "moduli": [5]}),
    ("vars-not-list", dict(FP_T, vars="t"), {"kind": "tower", "moduli": ["x - t"]}),
    ("relations-not-list", {"kind": "Z"}, dict(Z_PRES_1, relations=5)),
    ("max-ideal-not-list", dict(LOCAL_X2, max_ideal=5), {"kind": "quotient_poly", "modulus": "x^3"}),
    ("embedding-not-list", dict(LOCAL_X2, embedding=5), {"kind": "quotient_poly", "modulus": "x^3"}),
    ("ground-not-object", dict(LOCAL_X2, ground=5), {"kind": "quotient_poly", "modulus": "x^3"}),
    ("ground-without-kind", dict(LOCAL_X2, ground={"p": 2}), {"kind": "quotient_poly", "modulus": "x^3"}),
    ("finite-part-not-object", {"kind": "Z"}, {"kind": "localized", "invert": 2, "finite_part": 5}),
    ("finite-part-base-not-object", {"kind": "Z"},
     {"kind": "localized", "invert": 2, "finite_part": {"base": 5, "algebra": STRUCT_1}}),
    ("finite-part-base-without-kind", {"kind": "Z"},
     {"kind": "localized", "invert": 2, "finite_part": {"base": {"p": 2}, "algebra": STRUCT_1}}),
    ("vars-entry-not-string", dict(FP_T, vars=[5]), {"kind": "tower", "moduli": ["x - t"]}),
    ("vars-repeated", dict(FP_T, vars=["t", "t"]), {"kind": "tower", "moduli": ["x^2 - t"]}),
    ("vars-shadow-indeterminate", dict(FP_T, vars=["x"]), {"kind": "tower", "moduli": ["x^2 - x"]}),
    ("tower-x4-not-a-field", FP_T, {"kind": "tower", "moduli": ["x^4"]}),
    ("tower-x3-minus-x-not-a-field", FP_T, {"kind": "tower", "moduli": ["x^3 - x"]}),
    ("tower-square-not-a-field", FP_T, {"kind": "tower", "moduli": ["x^4 - t^2"]}),
    ("superscript-digit", {"kind": "Q"}, {"kind": "quotient_poly", "modulus": "x^\u00b2"}),
    ("deep-parentheses", {"kind": "Q"}, {"kind": "quotient_poly", "modulus": "(" * 250 + "x" + ")" * 250}),
    ("long-unary-minus-chain", {"kind": "Q"}, {"kind": "quotient_poly", "modulus": "-" * 1000 + "x"}),
    ("deep-products", {"kind": "Fp", "p": 2}, nested_products(400)),
    ("json-integer-past-the-str-limit", {"kind": "Fp", "p": NINES_5000}, {"kind": "quotient_poly", "modulus": "x^2"}),
    ("modulus-literal-too-long", {"kind": "Q"}, {"kind": "quotient_poly", "modulus": "x^3 - " + "7" * 5000}),
    ("fp-prime-too-large", {"kind": "Fp", "p": 2**61 - 1}, {"kind": "quotient_poly", "modulus": "x^2"}),
    ("fprational-prime-too-large", dict(FP_T, p=2**61 - 1), {"kind": "tower", "moduli": ["x^2 - t"]}),
    ("matrix-size-negative", {"kind": "Q"}, {"kind": "matrix_algebra", "size": -3}),
    # Z/n^25 past the int-string limit, refused by the cap on n before any size is formed
    ("zmod-modulus-too-large", {"kind": "Zmod", "n": 10**300}, MATRIX_5),
    ("finite-part-modulus-too-large", {"kind": "Z"},
     {"kind": "localized", "invert": 2, "finite_part": {"base": {"kind": "Zmod", "n": 10**300}, "algebra": MATRIX_5}}),
    ("finite-part-base-z", {"kind": "Z"},
     {"kind": "localized", "invert": 2, "finite_part": {"base": {"kind": "Z"}, "algebra": STRUCT_1}}),
    ("ground-z", dict(LOCAL_X2, ground={"kind": "Z"}), {"kind": "quotient_poly", "modulus": "x^3"}),
    # well formed, but no decider covers a quotient over F_p(t) that is not a tower
    ("struct-over-function-field", FP_T, {"kind": "quotient_poly", "modulus": "x^2 + t"}),
]

# (text, nesting depth, line, column of the bracket past the limit)
DEEP_DOCUMENTS = [
    ("[" * 100_000 + "]" * 100_000, 100_000, 1, 100_000),
    ('{"a": ' * 2000 + "1" + "}" * 2000, 2000, 1, 6 * 1999 + 1),
    # brackets inside strings do not count
    ('{"id": "[[[[",\n "a": ' + "[" * 1500 + "]" * 1500 + "}", 1501, 2, 7 + 1499),
]
