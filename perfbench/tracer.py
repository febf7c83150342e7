"""Outside hooks that time the layers of `futility` without editing it.

A `Tracer` replaces selected functions by timing wrappers for as long as it is
installed.  `from .algebra import element_multiply` binds the same function
object under another module's name, so each wrapper is patched into every
`futility` module whose namespace holds the original object; methods such as
`Subspace.contains` are patched on their class.  `uninstall` puts every
original back.

Hot kernels only accumulate calls, busy time (outermost calls) and self time
(busy time minus time spent in other wrapped functions) per (case, function).
Coarse boundaries (case, stage, decider, sampler, enumeration) also record one
span each, with start, end, parent span and case id; spans stay in memory until
`dump` writes them out.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

# (module, attribute, metric name, span kind or None).  The span kind marks a
# coarse boundary; None marks a kernel that only accumulates counters.
HOOKS = (
    ("cases", "parse_case", "cases.parse_case", "stage"),
    ("cases", "build_case", "cases.build_case", None),
    ("reports", "build_case", "reports.build", "stage"),
    ("reports", "decide_case", "reports.decide", "stage"),
    ("reports", "_oracle_compare", "reports.oracle", "stage"),
    ("reports", "ReportDocument.to_json", "reports.serialize", "stage"),
    ("algebra", "make_algebra", "algebra.make_algebra", None),
    ("algebra", "element_multiply", "algebra.element_multiply", None),
    ("algebra", "generated_by_element", "algebra.generated_by_element", None),
    ("algebra", "local_decomposition", "algebra.local_decomposition", None),
    ("algebra", "nilradical", "algebra.nilradical", None),
    ("algebra", "frobenius_chain", "algebra.frobenius_chain", None),
    ("linalg", "rref", "linalg.rref", None),
    ("linalg", "Subspace.contains", "linalg.Subspace.contains", None),
    ("finite_enum", "enumerate_subalgebras", "finite_enum.enumerate_subalgebras", "enumeration"),
    ("sampler", "sample_subalgebras", "sampler.sample_subalgebras", "sampler"),
    ("sampler", "sample_subrings", "sampler.sample_subrings", "sampler"),
    ("sampler", "_draw", "sampler.draw", None),
    ("polynomials", "factor_over_rationals", "polynomials.factor_over_rationals", None),
    ("polynomials", "factor_over_prime_field", "polynomials.factor_over_prime_field", None),
    ("intmat", "hermite_basis", "intmat.hermite_basis", None),
    ("intmat", "smith_normal_form", "intmat.smith_normal_form", None),
    ("deciders", "find_generator", "deciders.find_generator", None),
    ("deciders", "decide_infinite_field", "deciders.decide_infinite_field", "decider"),
    ("deciders", "decide_field_extension", "deciders.decide_field_extension", "decider"),
    ("deciders", "decide_local_artinian", "deciders.decide_local_artinian", "decider"),
    ("deciders", "decide_finite_base", "deciders.decide_finite_base", "decider"),
    ("deciders", "decide_noncommutative", "deciders.decide_noncommutative", "decider"),
    ("deciders", "decide_integer_algebra", "deciders.decide_integer_algebra", "decider"),
)

ENUMERATE = "finite_enum.enumerate_subalgebras"

# Counters read from a hook's arguments or result after the call returns.
AFTER = {
    "linalg.rref": lambda t, args, result: t.count("linalg.rref.rows_in", len(args[1])),
    "sampler.draw": lambda t, args, result: t.count("sampler.closures", result is not None),
    "sampler.sample_subalgebras": lambda t, args, result: t.count("sampler.distinct", result.count),
    "sampler.sample_subrings": lambda t, args, result: t.count("sampler.distinct", result.count),
    ENUMERATE: lambda t, args, result: t.count("finite_enum.members", result.count),
}


class Tracer:
    def __init__(self):
        self.case_id = None
        # (case, name) -> [calls, busy_ns, self_ns]
        self.stats = defaultdict(lambda: [0, 0, 0])
        # (case, name) -> count
        self.counts = defaultdict(int)
        self.spans = []
        self._frames = []  # child-time accumulators of the open wrapped calls
        self._open_spans = []  # indices into self.spans
        self._depth = defaultdict(int)
        self._patches = []

    # -- installing -------------------------------------------------------

    def install(self):
        """Patch every hook; returns self so `with Tracer().install()` reads well.

        Hooks named in `reports` wrap only that namespace, so the stage split
        sits on top of the library-wide wrappers of the same functions.
        """
        for module, attr, name, span_kind in HOOKS:
            owner = importlib.import_module(f"futility.{module}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            wrapper = self._wrap(getattr(owner, attr), name, span_kind)
            if module == "reports" or isinstance(owner, type):
                self._patch_attr(owner, attr, wrapper)
            else:
                self._patch_everywhere(getattr(owner, attr), wrapper)
        finite_enum = importlib.import_module("futility.finite_enum")
        original = finite_enum.iter_subspaces
        self._patch_everywhere(original, self._count_candidates(original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch_attr(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper):
        """Rebind every name in a futility module that holds `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "futility" or mod_name.startswith("futility.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch_attr(mod, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name, span_kind):
        clock = time.perf_counter_ns
        frames = self._frames
        depth = self._depth
        stats = self.stats
        tracer = self
        after = AFTER.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            frames.append(frame)
            depth[name] += 1
            span = tracer._open_span(name, span_kind) if span_kind else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                frames.pop()
                depth[name] -= 1
                if frames:
                    frames[-1][0] += elapsed
                rec = stats[(tracer.case_id, name)]
                rec[0] += 1
                rec[2] += elapsed - frame[0]
                if not depth[name]:
                    rec[1] += elapsed
                if span is not None:
                    tracer._close_span(span)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def count(self, name, n=1):
        self.counts[(self.case_id, name)] += n

    def _count_candidates(self, fn):
        """Count the subspaces `iter_subspaces` yields to `enumerate_subalgebras`."""
        depth = self._depth
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            for s in fn(*args, **kwargs):
                if depth[ENUMERATE]:
                    tracer.count("finite_enum.candidates")
                yield s

        return wrapper

    # -- spans ------------------------------------------------------------

    def _open_span(self, name, kind):
        index = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append(
            {"id": index, "name": name, "kind": kind, "case": self.case_id, "parent": parent,
             "start_ns": time.perf_counter_ns(), "end_ns": None}
        )
        self._open_spans.append(index)
        return index

    def _close_span(self, index):
        self.spans[index]["end_ns"] = time.perf_counter_ns()
        self._open_spans.pop()

    @contextmanager
    def case(self, case_id):
        """Attribute the work inside the block to one case, under one span."""
        self.case_id = case_id
        span = self._open_span("case", "case")
        try:
            yield
        finally:
            self._close_span(span)
            self.case_id = None

    # -- results ----------------------------------------------------------

    def totals(self):
        """Sum over cases: name -> {"calls", "busy_ns", "self_ns"} and counter totals."""
        fn = defaultdict(lambda: {"calls": 0, "busy_ns": 0, "self_ns": 0})
        for (_case, name), (calls, busy, self_ns) in self.stats.items():
            rec = fn[name]
            rec["calls"] += calls
            rec["busy_ns"] += busy
            rec["self_ns"] += self_ns
        counts = defaultdict(int)
        for (_case, name), value in self.counts.items():
            counts[name] += value
        return fn, counts

    def dump(self, path):
        """Write spans and per-(case, function) statistics as one JSON file."""
        per_case = [
            {"case": case, "name": name, "calls": c, "busy_ns": b, "self_ns": s}
            for (case, name), (c, b, s) in sorted(self.stats.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
        ]
        counts = [
            {"case": case, "name": name, "count": value}
            for (case, name), value in sorted(self.counts.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "per_case": per_case, "counts": counts}, fh)

