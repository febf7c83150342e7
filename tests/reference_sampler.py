"""The Q sampler's trial loop written out with one closure per draw, as an
oracle for sampler.sample_subalgebras, and a check of every sampled Q corpus
case against it.

Run from the repository root with the seeds to check (about 3 s a seed on
one core of a 2-vCPU machine):

    PYTHONPATH=src python tests/reference_sampler.py 1 2 3

Every corpus case the Q sampler runs on (sampled_q_cases) is sampled at its
own trials and bound under each seed given, and its distinct members and
growth curve are compared with the reference loop's.  Exit code 0 when all
agree, 1 otherwise.  Tier-1 runs the same comparison at each case's own
seed.  The file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

from futility.algebra import RelativeAlgebra, StructAlgebra, closure
from futility.cases import build_case, parse_case
from futility.domains import QQ
from futility.linalg import subspace_from_vectors, zero_subspace
from futility.reports import DEFAULT_OPTIONS
from futility.sampler import sample_subalgebras
from reference_draw import reference_draws

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def sampled_q_cases():
    """The corpus cases the Q sampler runs on: algebras over Q and relative
    algebras, with the options their runs use."""
    for path in sorted(CORPUS.rglob("*.case")):
        built = build_case(parse_case(path.read_text()))
        target = built.payload
        if isinstance(target, RelativeAlgebra) or isinstance(target, StructAlgebra) and target.dom == QQ:
            yield path.relative_to(CORPUS).with_suffix("").as_posix(), target, {**DEFAULT_OPTIONS, **built.description.options}


def ambient_and_base(target):
    """The algebra a Q sampler run draws in and the base image it closes
    over: a relative algebra's, or Q*1."""
    if isinstance(target, RelativeAlgebra):
        return target.amb, target.base_image
    return target, subspace_from_vectors(QQ, target.dim, [target.unit])


def unmemoized_histogram(A, base, trials, bound, seed):
    """The sampler's trial loop written out with one closure of the zero
    span per draw, starting from the base member; members as their integer
    rows."""
    zero = zero_subspace(QQ, A.dim)
    seen = {closure(A, zero, base.rows).form[0]}
    curve = []
    mark = 1
    for t, vec in enumerate(reference_draws(seed, trials, A.dim, bound), 1):
        if vec is not None:
            seen.add(closure(A, zero, [*base.rows, tuple(map(Fraction, vec))]).form[0])
        if t == mark:
            curve.append(len(seen))
            mark *= 2
    curve.append(len(seen))
    return tuple(sorted(seen, key=lambda rows: (len(rows), rows))), tuple(curve)


def sampled_and_reference(target, trials, bound, seed):
    """(distinct, growth_curve) of sample_subalgebras on target, and the
    same pair from the reference loop."""
    h = sample_subalgebras(target, trials, bound, seed)
    return (h.distinct, h.growth_curve), unmemoized_histogram(*ambient_and_base(target), trials, bound, seed)


def main(argv) -> int:
    seeds = [int(a) for a in argv]
    if not seeds:
        print("usage: reference_sampler.py SEED [SEED ...]", file=sys.stderr)
        return 2
    cases = list(sampled_q_cases())
    failed = 0
    for seed in seeds:
        for name, target, opts in cases:
            got, want = sampled_and_reference(target, opts["trials"], opts["bound"], seed)
            if got != want:
                failed += 1
                print(f"seed {seed}: {name}: the sampler differs from the reference loop")
    print(f"{len(cases)} sampled Q cases x {len(seeds)} seeds, {failed} mismatches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
