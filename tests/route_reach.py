"""Scan for module-level functions and classes of src/futility that no
command reaches.

Drives `futility.cli.main` under `sys.setprofile` over every command a user
can run on the committed inputs:

- all five commands (decide, enumerate, sample, factor, oracle-compare) on
  every corpus case, errors included, `decide` with an explicit `--seed`;
- `corpus --dir corpus/`;
- the seed-3 `finite-lattice` and `decide-only` documents of
  `perfbench/workloads.py`, each under its own command;
- `decide` on every refused input of `refused_inputs.py`, so that a
  function reached only on the way to a refusal counts as reached.

The profile is on before the package is imported, so the functions that
build module tables at import time count as reached.  The scan then lists
every function defined at the top level of a module of src/futility that
was never called, and every top-level class none of whose functions ran.
A class's functions are those in its body: methods, including the ones a
dataclass generates, static and class methods, and the getters and setters
of its properties and cached properties.  A class with none, such as an
exception that only names a case, is not scanned.  Each unreached name must
be on ALLOWED with its reason; an allowed name that is now reached, or that
no longer exists, is an error too, so the list can only shrink.

Run from the repository root (about 12 s on one core of a 2-vCPU machine):

    PYTHONPATH=src python tests/route_reach.py

Exit code 0 when the allow-list matches the scan exactly, 1 otherwise.  The
file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
import tempfile
from functools import cached_property
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from refused_inputs import DEEP_DOCUMENTS, REFUSED, case_text  # noqa: E402
from workloads import make_cases  # noqa: E402

ERROR_ONLY = "error-only: runs when an input is refused"

# module.function or module.Class -> why no command reaches it
ALLOWED = {
    "domains.mp_shift_down": "input-dependent: a rational function whose numerator and denominator share a monomial",
    "intmat.det_int": "ROADMAP item 2: the integer-rank certificate check",
    "sampler.family_witness": "ROADMAP item 3: replaced by the linear witness family",
    "sampler._trim": "ROADMAP item 3: replaced by the linear witness family",
    "errors.NotAField": ERROR_ONLY,
    "errors.NotInvertible": ERROR_ONLY,
}


def class_functions(cls):
    """The functions defined in a class body: plain, static and class
    methods (a dataclass's generated ones too), and the getter, setter and
    deleter of each property and cached property."""
    for value in vars(cls).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            yield from (f for f in (value.fget, value.fset, value.fdel) if f is not None)
        elif isinstance(value, cached_property):
            yield value.func
        elif inspect.isfunction(value):
            yield value


def module_code():
    """(module.name, code objects) for every def at the top level of a module
    of the package, and for every top-level class with a function in its
    body: the class counts as reached when any of them runs."""
    import futility

    for info in pkgutil.walk_packages(futility.__path__, "futility."):
        module = importlib.import_module(info.name)
        short = info.name.removeprefix("futility.")
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = inspect.unwrap(getattr(module, node.name))
                yield f"{short}.{node.name}", {func.__code__}
            elif isinstance(node, ast.ClassDef):
                codes = {inspect.unwrap(f).__code__ for f in class_functions(getattr(module, node.name))}
                if codes:
                    yield f"{short}.{node.name}", codes


def drive(tmp: Path) -> None:
    """Every command over the corpus and the two generated workloads, and
    decide on every refused input."""
    from futility.cli import main as cli_main
    from futility.reports import COMMANDS

    corpus = ROOT / "corpus"
    for path in sorted(corpus.rglob("*.case")):
        for command in COMMANDS:
            # an option given on the command line takes the option reader's path
            options = ["--seed", "0"] if command == "decide" else []
            cli_main([command, "--case", str(path), *options])
    cli_main(["corpus", "--dir", str(corpus)])
    for workload in ("finite-lattice", "decide-only"):
        for i, case in enumerate(make_cases(workload, 3, ROOT)):
            path = tmp / f"{workload}-{i}.case"
            path.write_text(case.text)
            cli_main([case.command, "--case", str(path), "--format", "machine"])
    refused = [case_text(base, algebra) for _, base, algebra in REFUSED]
    for i, text in enumerate(refused + [text for text, *_ in DEEP_DOCUMENTS]):
        path = tmp / f"refused-{i}.case"
        path.write_text(text)
        cli_main(["decide", "--case", str(path)])


def main() -> int:
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(hook)
        try:
            names = dict(module_code())
            drive(Path(tmp))
        finally:
            sys.setprofile(None)

    unreached = {name for name, codes in names.items() if not codes & seen}
    problems = [f"no command reaches {name}" for name in sorted(unreached - set(ALLOWED))]
    problems += [f"{name} is reached now: take it off ALLOWED" for name in sorted(set(ALLOWED) & set(names) - unreached)]
    problems += [f"{name} no longer exists: take it off ALLOWED" for name in sorted(set(ALLOWED) - set(names))]
    for line in problems:
        print(line)
    print(f"{len(names)} module-level functions and classes: {len(names) - len(unreached)} reached, "
          f"{len(unreached)} not reached, {len(ALLOWED)} allowed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
