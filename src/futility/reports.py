"""Command execution and report documents.

Reports serialize to canonical JSON (sorted keys, exact scalars as strings,
no floats anywhere); given identical inputs, seeds, and tool version the
bytes are identical across runs.  Timing is only included on request since
it would break that guarantee.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .algebra import StructAlgebra, frobenius_span
from .cases import BuiltCase, CaseDescription, build_case, parse_poly
from .deciders import (
    FUTILE,
    LocalizedZ,
    ZPresentation,
    decide_field_extension,
    decide_finite_base,
    decide_infinite_field,
    decide_integer_algebra,
    decide_local_artinian,
    decide_noncommutative,
)
from .domains import QQ, FunctionField, PrimeField, RatFunc
from .errors import BudgetExceeded, InapplicableCommand, UnsupportedDomain, ValidationError
from .finite_enum import DEFAULT_BUDGET, enumerate_subalgebras
from .linalg import Subspace, subspace_from_vectors
from .polynomials import (
    FactoredPoly,
    Poly,
    factor_over_prime_field,
    factor_over_rationals,
    factored_to_str,
    poly_to_str,
    squarefree_decomposition,
)
from .sampler import SampleHistogram, sample_subalgebras, sample_subrings

COMMANDS = ("decide", "enumerate", "sample", "factor", "oracle-compare")

DEFAULT_OPTIONS = {
    "trials": 1000,
    "bound": 5,
    "seed": 0,
    "budget": DEFAULT_BUDGET,
}


@dataclass(frozen=True)
class ReportDocument:
    """One command run over one case."""

    case_id: str
    command: str
    result: dict
    oracle: dict | None
    agreement: bool | None
    options: dict
    timing_ms: int | None

    def to_jsonable(self) -> dict:
        return {
            "format_version": 1,
            "case": self.case_id,
            "command": self.command,
            "result": jsonable(self.result),
            "oracle": jsonable(self.oracle),
            "agreement": self.agreement,
            "options": jsonable(self.options),
            "tool_version": __version__,
            "timing_ms": self.timing_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=2) + "\n"


def jsonable(obj):
    """Exact-value JSON conversion; floats are rejected outright."""
    if obj is None or isinstance(obj, (bool, int)):
        return obj
    if isinstance(obj, float):
        raise ValueError("refusing to serialize a float")
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, str):
        return obj
    if isinstance(obj, RatFunc):
        return repr(obj)
    if isinstance(obj, Poly):
        return poly_to_str(obj)
    if isinstance(obj, FactoredPoly):
        return factored_to_str(obj)
    if isinstance(obj, Subspace):
        return [[str(x) for x in row] for row in obj.rows]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return str(obj)


# Largest sampler trial count a case or the command line may ask for; the
# corpus uses at most 5,000.
MAX_TRIALS = 100_000

# Integer options and their smallest allowed values.
INT_OPTION_MINIMA = {"trials": 1, "bound": 1, "seed": 0, "budget": 1, "divergence_threshold": 0}


def _check_options(opts: dict, where: str):
    """A located ValidationError for an integer option that is not an int
    (bools excluded) or lies below its minimum; BudgetExceeded for a trial
    count above MAX_TRIALS."""
    for key, least in INT_OPTION_MINIMA.items():
        if key not in opts:
            continue
        v = opts[key]
        if type(v) is not int:
            raise ValidationError(f"{key!r} of {where} must be an integer, not {type(v).__name__}")
        if v < least:
            raise ValidationError(f"{key!r} of {where} must be at least {least}, got {v}")
    if opts.get("trials", 0) > MAX_TRIALS:
        raise BudgetExceeded(f"{opts['trials']} trials exceed the limit of {MAX_TRIALS} ({where})")


def merge_options(desc: CaseDescription, overrides: dict | None) -> dict:
    """Defaults, then the case's options, then the non-None overrides, each
    layer checked before it is applied."""
    _check_options(desc.options, "options")
    opts = dict(DEFAULT_OPTIONS)
    opts.update(desc.options)
    given = {k: v for k, v in (overrides or {}).items() if v is not None}
    _check_options(given, "command-line options")
    opts.update(given)
    return opts


def run_command(command: str, desc: CaseDescription, overrides: dict | None = None) -> ReportDocument:
    """Dispatch one CLI command over a parsed case."""
    if command not in COMMANDS:
        raise InapplicableCommand(f"unknown command {command!r}")
    opts = merge_options(desc, overrides)
    t0 = time.perf_counter_ns()
    built = build_case(desc)
    if command == "decide":
        rep = decide_case(built, opts)
        result = _futility_result(rep)
        oracle = None
        agreement = None
    elif command == "enumerate":
        result = _enumerate_result(built, opts)
        oracle = None
        agreement = None
    elif command == "sample":
        result = _sample_result(built, opts)
        oracle = None
        agreement = None
    elif command == "factor":
        result = _factor_result(built, opts)
        oracle = None
        agreement = None
    else:  # oracle-compare
        rep = decide_case(built, opts)
        result = _futility_result(rep)
        oracle, agreement = _oracle_compare(built, rep, opts)
        ok, failures = check_asserts(desc, result, oracle)
        if not ok:
            agreement = False
            oracle = dict(oracle or {})
            oracle["assert_failures"] = failures
    elapsed = (time.perf_counter_ns() - t0) // 1_000_000
    timing = elapsed if opts.get("timing") else None
    shown = {k: opts[k] for k in ("trials", "bound", "seed", "budget") if k in opts}
    return ReportDocument(
        case_id=desc.case_id,
        command=command,
        result=result,
        oracle=oracle,
        agreement=agreement,
        options=shown,
        timing_ms=timing,
    )


def decide_case(built: BuiltCase, opts: dict):
    seed = opts.get("seed", 0)
    budget = opts.get("budget", DEFAULT_BUDGET)
    if built.kind == "struct":
        A: StructAlgebra = built.payload
        if not A.is_commutative:
            return decide_noncommutative(A, seed=seed, budget=budget)
        if A.dom == QQ:
            return decide_infinite_field(A, seed=seed)
        if getattr(A.dom, "is_finite", False):
            return decide_finite_base(A, budget=budget)
        raise UnsupportedDomain(f"no decider for struct algebras over {A.dom}")
    if built.kind == "tower":
        return decide_field_extension(built.payload)
    if built.kind == "relative":
        return decide_local_artinian(built.payload, seed=seed)
    if built.kind == "zpres":
        zp: ZPresentation = built.payload
        if _z_commutative(zp):
            return decide_integer_algebra(zp)
        return decide_noncommutative(zp, seed=seed)
    if built.kind == "localized":
        return decide_integer_algebra(built.payload)
    raise InapplicableCommand(f"cannot decide case kind {built.kind}")


def _z_commutative(zp: ZPresentation) -> bool:
    from .intmat import hermite_basis, lattice_contains

    basis = hermite_basis([list(r) for r in zp.relations])
    for i in range(zp.ngens):
        for j in range(i + 1, zp.ngens):
            diff = [a - b for a, b in zip(zp.table[i][j], zp.table[j][i])]
            if any(diff) and not (basis and lattice_contains(basis, diff)):
                return False
    return True


def _futility_result(rep) -> dict:
    return {
        "verdict": rep.verdict,
        "criterion": rep.criterion,
        "certificate": rep.certificate,
        "notes": list(rep.notes),
    }


def _enumerate_result(built: BuiltCase, opts: dict) -> dict:
    if built.kind != "struct" or not isinstance(built.payload.dom, PrimeField):
        raise InapplicableCommand("enumerate needs an algebra over a finite prime field")
    A = built.payload
    base = subspace_from_vectors(A.dom, A.dim, [A.unit])
    lat = enumerate_subalgebras(A, base, opts.get("budget", DEFAULT_BUDGET))
    return {
        "count": lat.count,
        "dims": [s.dim for s in lat.members],
        "members": list(lat.members),
        "inclusions": list(lat.inclusions),
    }


def _sample_result(built: BuiltCase, opts: dict) -> dict:
    h = _run_sampler(built, opts)
    return _histogram_result(h)


def _run_sampler(built: BuiltCase, opts: dict) -> SampleHistogram:
    trials = opts["trials"]
    bound = opts["bound"]
    seed = opts["seed"]
    if built.kind == "struct":
        if built.payload.dom != QQ:
            raise InapplicableCommand("sampling needs an infinite coefficient field")
        return sample_subalgebras(built.payload, trials, bound, seed)
    if built.kind == "relative":
        return sample_subalgebras(built.payload, trials, bound, seed)
    if built.kind == "zpres":
        return sample_subrings(built.payload, trials, bound, seed)
    raise InapplicableCommand("sampling applies to algebras over Q, relative cases, and Z presentations")


def _histogram_result(h: SampleHistogram) -> dict:
    by_dim: dict = {}
    for s in h.distinct:
        key = s.dim if isinstance(s, Subspace) else len(s)
        by_dim[key] = by_dim.get(key, 0) + 1
    return {
        "distinct_count": h.count,
        "growth_curve": list(h.growth_curve),
        "by_dim": {str(k): v for k, v in sorted(by_dim.items())},
        "trials": h.trials,
        "bound": h.bound,
        "seed": h.seed,
        "stabilized": h.stabilized(),
    }


def _factor_result(built: BuiltCase, opts: dict) -> dict:
    desc = built.description
    if desc.algebra.get("kind") != "quotient_poly":
        raise InapplicableCommand("factor needs a quotient_poly case")
    from .cases import base_domain

    dom = base_domain(desc.base)
    f = parse_poly(desc.algebra["modulus"], dom)
    if dom == QQ:
        fac = factor_over_rationals(f, seed=opts.get("seed", 0))
        return {"input": poly_to_str(f), "factored": factored_to_str(fac),
                "parts": [[poly_to_str(g), m] for g, m in fac.factors]}
    if isinstance(dom, PrimeField):
        fac = factor_over_prime_field(f, seed=opts.get("seed", 0))
        return {"input": poly_to_str(f), "factored": factored_to_str(fac),
                "parts": [[poly_to_str(g), m] for g, m in fac.factors]}
    if isinstance(dom, FunctionField):
        parts = squarefree_decomposition(f)
        return {"input": poly_to_str(f),
                "squarefree_parts": [[poly_to_str(g), m] for g, m in parts]}
    raise InapplicableCommand(f"no factorization over {dom}")


# ---------------------------------------------------------------------------
# Oracle comparison
# ---------------------------------------------------------------------------

def _oracle_compare(built: BuiltCase, rep, opts: dict):
    if built.kind == "struct":
        A: StructAlgebra = built.payload
        if isinstance(A.dom, PrimeField):
            return _compare_enumeration(built, rep, opts)
        if A.dom == QQ:
            return _compare_sampler(built, rep, opts)
        if getattr(A.dom, "is_finite", False):
            return {"kind": "none", "reason": "no subspace oracle over composite moduli"}, True
    if built.kind == "relative":
        return _compare_sampler(built, rep, opts)
    if built.kind == "zpres":
        return _compare_sampler(built, rep, opts)
    if built.kind == "tower":
        return _compare_frobenius(built, rep, opts)
    if built.kind == "localized":
        return {"kind": "none", "reason": "symbolic localization has no sampling oracle"}, True
    raise InapplicableCommand(f"no oracle for case kind {built.kind}")


def _compare_enumeration(built: BuiltCase, rep, opts: dict):
    A = built.payload
    base = subspace_from_vectors(A.dom, A.dim, [A.unit])
    try:
        lat = enumerate_subalgebras(A, base, opts.get("budget", DEFAULT_BUDGET))
    except BudgetExceeded:
        return {"kind": "enumeration", "status": "over-budget"}, rep.verdict == FUTILE
    oracle = {"kind": "enumeration", "count": lat.count}
    expected = rep.certificate.get("subalgebra_count")
    agreement = rep.verdict == FUTILE and (expected is None or expected == lat.count)
    return oracle, agreement


def _divergence_threshold(built: BuiltCase, opts: dict) -> int:
    if "divergence_threshold" in opts:
        return opts["divergence_threshold"]
    if built.kind == "struct":
        dim = built.payload.dim
    elif built.kind == "relative":
        dim = built.payload.amb.dim
    else:
        dim = built.payload.ngens
    return max(16, 4 * dim)


def _compare_sampler(built: BuiltCase, rep, opts: dict):
    h = _run_sampler(built, opts)
    threshold = _divergence_threshold(built, opts)
    diverged = h.count > threshold
    stabilized = h.stabilized()
    oracle = {
        "kind": "sampler",
        "distinct_count": h.count,
        "growth_curve": list(h.growth_curve),
        "stabilized": stabilized,
        "diverged": diverged,
        "divergence_threshold": threshold,
    }
    if rep.verdict == FUTILE:
        agreement = stabilized and not diverged
    else:
        agreement = diverged
    return oracle, agreement


def _compare_frobenius(built: BuiltCase, rep, opts: dict):
    """Spot-check the Frobenius span: the p-th power of every sampled
    element must land inside it."""
    import random as _random

    from .algebra import element_power

    L: StructAlgebra = built.payload
    K: FunctionField = L.dom
    span = frobenius_span(L)
    rng = _random.Random(opts.get("seed", 0))
    samples = min(100, opts.get("trials", 100))
    ok = 0
    for _ in range(samples):
        vec = []
        for _i in range(L.dim):
            c = K.from_int(rng.randint(-3, 3))
            if rng.random() < 0.5:
                c = K.add(c, K.mul(K.from_int(rng.randint(-2, 2)), K.variable(K.var_names[0])))
            vec.append(c)
        power = element_power(L, tuple(vec), K.p)
        if span.contains(power):
            ok += 1
    oracle = {"kind": "frobenius-power-membership", "samples": samples, "contained": ok}
    return oracle, ok == samples


def check_asserts(desc: CaseDescription, result: dict, oracle: dict | None):
    """Golden expectations embedded in a case; returns (ok, failure list)."""
    failures = []
    asserts = desc.asserts or {}
    if "verdict" in asserts and asserts["verdict"] != result.get("verdict"):
        failures.append(
            f"verdict: expected {asserts['verdict']}, got {result.get('verdict')}"
        )
    if "enumeration_count" in asserts:
        got = (oracle or {}).get("count")
        if got != asserts["enumeration_count"]:
            failures.append(f"enumeration_count: expected {asserts['enumeration_count']}, got {got}")
    if "sampler_distinct_exact" in asserts:
        got = (oracle or {}).get("distinct_count")
        if got != asserts["sampler_distinct_exact"]:
            failures.append(
                f"sampler_distinct_exact: expected {asserts['sampler_distinct_exact']}, got {got}"
            )
    if "sampler_distinct_min" in asserts:
        got = (oracle or {}).get("distinct_count") or 0
        if got < asserts["sampler_distinct_min"]:
            failures.append(
                f"sampler_distinct_min: expected >= {asserts['sampler_distinct_min']}, got {got}"
            )
    return not failures, failures
