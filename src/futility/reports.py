"""Command execution and report documents.

Reports serialize to canonical JSON (sorted keys, exact scalars as strings,
no floats anywhere); given identical inputs, seeds, and tool version the
bytes are identical across runs.  Timing is only included on request since
it would break that guarantee.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

from . import __version__
from .cases import BuiltCase, CaseDescription, build_case, check_options, parse_poly
from .deciders import (
    FUTILE,
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
from .sampler import sample_subalgebras, sample_subrings

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
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        raise ValueError("refusing to serialize a float")
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


def merge_options(desc: CaseDescription, overrides: dict | None) -> dict:
    """Defaults, then the case's options (checked by parse_case), then the
    non-None overrides, checked here; an override given as text, as the
    command line gives it, is read as an integer first."""
    opts = dict(DEFAULT_OPTIONS)
    opts.update(desc.options)
    where = "command-line options"
    given = {k: _read_int(v, f"{k!r} of {where}") if isinstance(v, str) else v
             for k, v in (overrides or {}).items() if v is not None}
    check_options(given, where)
    opts.update(given)
    return opts


def _read_int(text: str, where: str) -> int:
    """int(text), or a ValidationError quoting at most 20 characters of it."""
    try:
        return int(text)
    except ValueError:
        shown = repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"
        raise ValidationError(f"{where} must be an integer, got {shown}") from None


def run_command(command: str, desc: CaseDescription, overrides: dict | None = None) -> ReportDocument:
    """Run one CLI command over a parsed case."""
    if command not in COMMAND_TABLE:
        raise InapplicableCommand(f"unknown command {command!r}")
    opts = merge_options(desc, overrides)
    t0 = time.perf_counter_ns()
    built = build_case(desc)
    result, oracle, agreement = COMMAND_TABLE[command](built, opts)
    elapsed = (time.perf_counter_ns() - t0) // 1_000_000
    timing = elapsed if opts.get("timing") else None
    shown = {k: opts[k] for k in ("trials", "bound", "seed", "budget")}
    return ReportDocument(
        case_id=desc.case_id,
        command=command,
        result=result,
        oracle=oracle,
        agreement=agreement,
        options=shown,
        timing_ms=timing,
    )


def _futility_result(rep) -> dict:
    return {
        "verdict": rep.verdict,
        "criterion": rep.criterion,
        "certificate": rep.certificate,
        "notes": list(rep.notes),
    }


def _enumerate_result(built: BuiltCase, opts: dict) -> dict:
    A = route(built).algebra(built.payload)
    if A is None or not isinstance(A.dom, PrimeField):
        raise InapplicableCommand("enumerate needs an algebra over a finite prime field")
    base = subspace_from_vectors(A.dom, A.dim, [A.unit])
    lat = enumerate_subalgebras(A, base, opts["budget"])
    return {
        "count": lat.count,
        "dims": [s.dim for s in lat.members],
        "members": list(lat.members),
        "inclusions": list(lat.inclusions),
    }


def _sample_result(built: BuiltCase, opts: dict) -> dict:
    h = route(built).sample(built.payload, opts["trials"], opts["bound"], opts["seed"])
    by_dim = Counter(len(rows) for rows in h.distinct)
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
    """Factor a quotient_poly modulus over the domain of the algebra it built."""
    desc = built.description
    A = route(built).algebra(built.payload)
    if desc.algebra.get("kind") != "quotient_poly" or A is None:
        raise InapplicableCommand("factor needs a quotient_poly case")
    dom = A.dom
    f = parse_poly(desc.algebra["modulus"], dom)
    if dom == QQ or isinstance(dom, PrimeField):
        factor = factor_over_rationals if dom == QQ else factor_over_prime_field
        fac = factor(f, seed=opts["seed"])
        return {"input": poly_to_str(f), "factored": factored_to_str(fac),
                "parts": [[poly_to_str(g), m] for g, m in fac.factors]}
    if isinstance(dom, FunctionField):
        parts = squarefree_decomposition(f)
        return {"input": poly_to_str(f),
                "squarefree_parts": [[poly_to_str(g), m] for g, m in parts]}
    raise InapplicableCommand(f"no factorization over {dom}")


def _oracle_compare_result(built: BuiltCase, opts: dict):
    rep = decide_case(built, opts)
    result = _futility_result(rep)
    oracle, agreement = _oracle_compare(built, rep, opts)
    ok, failures = check_asserts(built.description, result, oracle)
    if not ok:
        agreement = False
        oracle = dict(oracle or {})
        oracle["assert_failures"] = failures
    return result, oracle, agreement


# Each command gives (result, oracle, agreement); lambdas look callees up when run.
COMMAND_TABLE = {
    "decide": lambda built, opts: (_futility_result(decide_case(built, opts)), None, None),
    "enumerate": lambda built, opts: (_enumerate_result(built, opts), None, None),
    "sample": lambda built, opts: (_sample_result(built, opts), None, None),
    "factor": lambda built, opts: (_factor_result(built, opts), None, None),
    "oracle-compare": _oracle_compare_result,
}

COMMANDS = tuple(COMMAND_TABLE)


# ---------------------------------------------------------------------------
# Oracle comparison
# ---------------------------------------------------------------------------

def _compare_enumeration(built: BuiltCase, rep, opts: dict):
    """The lattice search's count against a verdict that a finite base makes
    Futile; past the budget nothing is searched, so the agreement is None,
    and only an asserted count can turn it False."""
    A = built.payload
    base = subspace_from_vectors(A.dom, A.dim, [A.unit])
    try:
        lat = enumerate_subalgebras(A, base, opts["budget"])
    except BudgetExceeded:
        return {"kind": "enumeration", "status": "over-budget"}, None
    return {"kind": "enumeration", "count": lat.count}, rep.verdict == FUTILE


def _compare_sampler(built: BuiltCase, rep, opts: dict):
    r = route(built)
    threshold = opts.get("divergence_threshold", max(16, 4 * r.draw_dim(built.payload)))
    # The count never falls, so once it passes the threshold and the asserted
    # counts, more trials change neither the agreement nor an assert: a run
    # stopped at limit + 1 members reads as the full run would.
    asserts = built.description.asserts or {}
    limit = max(threshold, asserts.get("sampler_distinct_min", 0) - 1, asserts.get("sampler_distinct_exact", 0))
    h = r.sample(built.payload, opts["trials"], opts["bound"], opts["seed"], stop=limit)
    diverged = h.count > threshold
    oracle = {
        "kind": "sampler",
        "distinct_count": h.count,
        "growth_curve": list(h.growth_curve),
        "diverged": diverged,
        "divergence_threshold": threshold,
    }
    if h.stopped_at is None:
        oracle["stabilized"] = h.stabilized()
    else:
        oracle["stopped_at"] = h.stopped_at
    if rep.verdict == FUTILE:
        # a stopped run has diverged, so it never asks whether it stabilized
        agreement = not diverged and oracle["stabilized"]
    else:
        agreement = diverged
    return oracle, agreement


# ---------------------------------------------------------------------------
# Case routes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Route:
    """How one kind of case is decided, checked and sampled.  Entries call
    deciders and samplers by module-level name, looked up when they run."""

    decide: Callable  # (payload, seed) -> FutilityReport
    oracle: Callable  # (built, report, opts) -> (oracle, agreement)
    sample: Callable  # (payload, trials, bound, seed, stop=None) -> sampler.SampleHistogram
    algebra: Callable = lambda payload: None  # payload -> the StructAlgebra of the algebra spec
    draw_dim: Callable = lambda payload: payload.dim  # payload -> the dimension the sampler draws in


def _commutative_or_reduced(decide_commutative: Callable) -> Callable:
    """The paper's first step: a noncommutative algebra is reduced along
    its commutator ideal; a commutative one goes to its own decider."""

    def decide(alg, seed):
        if alg.is_commutative:
            return decide_commutative(alg, seed)
        return decide_noncommutative(alg, seed=seed)

    return decide


def _refuse(message: str) -> Callable:
    def refuse(*args):
        raise InapplicableCommand(message)

    return refuse


def _no_oracle(reason: str) -> Callable:
    return lambda built, rep, opts: ({"kind": "none", "reason": reason}, True)


def _no_struct_decider(A, seed):
    raise UnsupportedDomain(f"no decider for struct algebras over {A.dom}")


def _struct(decide, oracle, sample=_refuse("sampling needs an infinite coefficient field")) -> Route:
    """The route of structure-constant algebras over one kind of domain."""
    return Route(decide, oracle, sample, lambda A: A)


_NO_SAMPLER = _refuse("sampling applies to algebras over Q, relative cases, and Z presentations")

ROUTES = {
    "struct/Q": _struct(
        _commutative_or_reduced(lambda A, seed: decide_infinite_field(A, seed=seed)),
        _compare_sampler,
        sample=lambda A, *draws, stop=None: sample_subalgebras(A, *draws, stop=stop),
    ),
    "struct/Fp": _struct(
        _commutative_or_reduced(lambda A, seed: decide_finite_base(A)), _compare_enumeration
    ),
    # a finite-rank algebra over Z/n is finite, so futile, commutative or not
    "struct/finite": _struct(
        lambda A, seed: decide_finite_base(A), _no_oracle("no subspace oracle over composite moduli")
    ),
    "struct/unsupported": _struct(_no_struct_decider, _refuse("no oracle for case kind struct")),
    "tower": Route(
        decide=lambda L, seed: decide_field_extension(L),
        oracle=_no_oracle(
            "every p-th power lies in the Frobenius span, so checking it cannot reject;"
            " no independent tower oracle exists yet"
        ),
        sample=_NO_SAMPLER,
    ),
    "relative": Route(
        decide=lambda rel, seed: decide_local_artinian(rel, seed=seed),
        oracle=_compare_sampler,
        sample=lambda rel, *draws, stop=None: sample_subalgebras(rel, *draws, stop=stop),
        algebra=lambda rel: rel.amb,
        draw_dim=lambda rel: rel.amb.dim,
    ),
    "zpres": Route(
        decide=_commutative_or_reduced(lambda zp, seed: decide_integer_algebra(zp)),
        oracle=_compare_sampler,
        sample=lambda zp, *draws, stop=None: sample_subrings(zp, *draws, stop=stop),
        draw_dim=lambda zp: zp.ngens,
    ),
    "localized": Route(
        decide=lambda loc, seed: decide_integer_algebra(loc),
        oracle=_no_oracle("symbolic localization has no sampling oracle"),
        sample=_NO_SAMPLER,
    ),
}


def route(built: BuiltCase) -> Route:
    """The route of a case: its kind, split by coefficient domain for
    structure-constant algebras."""
    if built.kind != "struct":
        return ROUTES[built.kind]
    dom = built.payload.dom
    if dom == QQ:
        return ROUTES["struct/Q"]
    if isinstance(dom, PrimeField):
        return ROUTES["struct/Fp"]
    if dom.is_finite:
        return ROUTES["struct/finite"]
    return ROUTES["struct/unsupported"]


def decide_case(built: BuiltCase, opts: dict):
    return route(built).decide(built.payload, opts["seed"])


def _oracle_compare(built: BuiltCase, rep, opts: dict):
    return route(built).oracle(built, rep, opts)


def check_asserts(desc: CaseDescription, result: dict, oracle: dict | None):
    """Golden expectations embedded in a case; returns (ok, failure list)."""
    asserts = desc.asserts or {}
    oracle = oracle or {}
    exact = {
        "verdict": result.get("verdict"),
        "enumeration_count": oracle.get("count"),
        "sampler_distinct_exact": oracle.get("distinct_count"),
    }
    failures = [
        f"{key}: expected {asserts[key]}, got {got}"
        for key, got in exact.items()
        if key in asserts and got != asserts[key]
    ]
    least = asserts.get("sampler_distinct_min")
    got = oracle.get("distinct_count") or 0
    if least is not None and got < least:
        failures.append(f"sampler_distinct_min: expected >= {least}, got {got}")
    return not failures, failures
