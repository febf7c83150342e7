"""Command line interface.

Exit codes: 0 = run completed (either verdict), 1 = error, 2 = oracle
discrepancy or golden-corpus mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .cases import parse_case
from .errors import FutilityError, UnreadableCase
from .reports import COMMANDS, ReportDocument, run_command


def _add_common(p):
    p.add_argument("--case", required=True, help="path to a .case file")
    # read as text: reports.merge_options reads and checks the integers, so a
    # malformed value is one error line
    for name in ("--seed", "--trials", "--bound", "--budget"):
        p.add_argument(name, default=None)
    p.add_argument("--timing", action="store_true", help="include wall time in the report")
    p.add_argument(
        "--format", choices=("human", "machine"), default="human", dest="fmt"
    )


def build_parser():
    ap = argparse.ArgumentParser(
        prog="futility",
        description="decide whether an algebra has finitely many subalgebras",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        _add_common(p)
    corpus = sub.add_parser("corpus", help="run oracle-compare over a corpus directory")
    corpus.add_argument("--dir", required=True)
    corpus.add_argument("--update", action="store_true", help="write .expected files")
    corpus.add_argument("--format", choices=("human", "machine"), default="human", dest="fmt")
    return ap


def _overrides(args) -> dict:
    """The command-line options; run_command drops the ones left as None."""
    overrides = {k: getattr(args, k) for k in ("seed", "trials", "bound", "budget")}
    overrides["timing"] = args.timing or None
    return overrides


def _emit(report: ReportDocument, fmt: str):
    if fmt == "machine":
        sys.stdout.write(report.to_json())
        return
    r = report.to_jsonable()
    print(f"case:      {r['case']}")
    print(f"command:   {r['command']}")
    res = r["result"]
    if "verdict" in res:
        print(f"verdict:   {res['verdict']}")
        print(f"criterion: {res['criterion']}")
        print("certificate:")
        for line in json.dumps(res["certificate"], sort_keys=True, indent=2).splitlines():
            print(f"  {line}")
        for note in res.get("notes", []):
            print(f"note: {note}")
    else:
        for line in json.dumps(res, sort_keys=True, indent=2).splitlines():
            print(f"  {line}")
    if r["oracle"] is not None:
        print("oracle:")
        for line in json.dumps(r["oracle"], sort_keys=True, indent=2).splitlines():
            print(f"  {line}")
        print(f"agreement: {r['agreement']}")
    if r["timing_ms"] is not None:
        print(f"timing_ms: {r['timing_ms']}")


def _read_text(path, what: str) -> str:
    """The UTF-8 text of a case file or golden; a missing, unreadable or
    non-UTF-8 file is an UnreadableCase that names the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    raise UnreadableCase(f"{path}: cannot read {what}: {reason}")


def run_single(args) -> int:
    desc = parse_case(_read_text(args.case, "case file"))
    report = run_command(args.cmd, desc, _overrides(args))
    _emit(report, args.fmt)
    if report.agreement is False:
        return 2
    return 0


def run_corpus(args) -> int:
    """Compare every case against its golden (a case without one fails, and
    so does a golden without its case, named by its path under the
    directory), or with --update write the goldens; --update writes nothing
    unless every case agrees and no golden is orphaned.  The machine format
    prints one JSON summary: each case's status, verdict, oracle kind and
    time in ms, and the totals.  Goldens are read and written as UTF-8; one
    that cannot be read or written is an error that names its path."""
    root = Path(args.dir)
    cases = sorted(root.rglob("*.case"))
    if not cases:
        raise UnreadableCase(f"no .case files under {root}")
    orphans = sorted(set(root.rglob("*.expected")) - {p.with_suffix(".expected") for p in cases})
    bad = 0
    goldens = []
    summary = []
    for path in cases:
        t0 = time.perf_counter_ns()
        text = _read_text(path, "case file")
        try:
            desc = parse_case(text)
            report = run_command("oracle-compare", desc, {})
        except FutilityError as exc:
            exc.args = (f"{path}: {exc}",)
            raise
        ms = (time.perf_counter_ns() - t0) // 1_000_000
        text = report.to_json()
        expected_path = path.with_suffix(".expected")
        status = "ok"
        if report.agreement is False:
            status = "DISCREPANCY"
            bad += 1
        elif args.update:
            goldens.append((expected_path, text))
        elif not expected_path.exists():
            status = "GOLDEN-MISSING"
            bad += 1
        elif _read_text(expected_path, "golden") != text:
            status = "GOLDEN-MISMATCH"
            bad += 1
        summary.append(
            {
                "case": desc.case_id,
                "status": status,
                "verdict": report.result.get("verdict"),
                "oracle": (report.oracle or {}).get("kind"),
                "ms": ms,
            }
        )
        if args.fmt == "human":
            print(f"{status:16} {desc.case_id}")
    for path in orphans:
        bad += 1
        name = path.relative_to(root).with_suffix("").as_posix()
        summary.append({"case": name, "status": "CASE-MISSING", "verdict": None, "oracle": None, "ms": 0})
        if args.fmt == "human":
            print(f"{'CASE-MISSING':16} {name}")
    if args.fmt == "machine":
        doc = {
            "cases": summary,
            "total": len(cases),
            "failures": bad,
            "ms": sum(c["ms"] for c in summary),
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"{len(cases)} cases, {bad} failures")
    if bad:
        if args.update:
            print("refusing to write goldens while any case disagrees or any golden has no case", file=sys.stderr)
        return 2
    for expected_path, text in goldens:
        try:
            expected_path.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UnreadableCase(f"{expected_path}: cannot write golden: {exc.strerror or exc}") from None
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "corpus":
            return run_corpus(args)
        return run_single(args)
    except FutilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
