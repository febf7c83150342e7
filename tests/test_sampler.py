"""Randomized subalgebra sampling and the projective witness family."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from futility.algebra import RelativeAlgebra, StructAlgebra, closure, element_multiply, generated_by_element, make_relative
from futility.cases import build_case, parse_case
from futility.constructions import poly_quotient_algebra
from futility.domains import QQ, PrimeField
from futility.errors import NotApplicable, UnsupportedDomain
from futility.intmat import hnf_reduce
from futility.linalg import subspace_from_vectors, zero_subspace
from futility.polynomials import make_poly, pmul, ppow
from futility.reports import DEFAULT_OPTIONS
from futility.sampler import _draw, family_witness, sample_subalgebras, sample_subrings
from reference_closure import span_and_multiply
from reference_draw import draw_box, randint_draw, reference_draws
from reference_hermite import batch_hermite_basis, dense_multiply


def q(*cs):
    return make_poly(QQ, [Fraction(c) for c in cs])


def x_power_algebra(r):
    return poly_quotient_algebra(make_poly(QQ, [Fraction(0)] * r + [Fraction(1)]))


def subspace_of(A, rows):
    """The subspace of A a sampled member's integer rows span."""
    return subspace_from_vectors(QQ, A.dim, [tuple(map(Fraction, r)) for r in rows])


def test_sample_x3_finds_exactly_three():
    A = x_power_algebra(3)
    h = sample_subalgebras(A, trials=1000, bound=3, seed=7)
    assert h.count == 3
    assert sorted(len(rows) for rows in h.distinct) == [1, 2, 3]
    assert h.stabilized()


def test_sample_dim1_single_value():
    A = x_power_algebra(1)
    h = sample_subalgebras(A, trials=50, bound=4, seed=1)
    assert h.count == 1


def test_sample_repeated_quadratic_family_grows():
    A = poly_quotient_algebra(ppow(q(1, 0, 1), 2))
    h = sample_subalgebras(A, trials=500, bound=5, seed=0)
    assert h.count >= 20
    assert not h.stabilized()


@pytest.mark.parametrize("stop", [0, 1, 6, 19, 27, 28])
def test_stopped_run_is_the_full_run_cut_at_its_stop_trial(stop):
    A = poly_quotient_algebra(ppow(q(1, 0, 1), 2))
    full = sample_subalgebras(A, trials=500, bound=5, seed=0)
    assert full.count == 28
    h = sample_subalgebras(A, trials=500, bound=5, seed=0, stop=stop)
    if stop >= full.count:
        assert h == full
        return
    assert h.count == stop + 1
    t = h.stopped_at
    assert h.distinct == sample_subalgebras(A, trials=t, bound=5, seed=0).distinct
    if t > 0:
        assert sample_subalgebras(A, trials=t - 1, bound=5, seed=0).count == stop
    # the marks before the stop trial, then the count at it
    marks = [c for i, c in enumerate(full.growth_curve[:-1]) if 1 << i < t]
    assert h.growth_curve == (*marks, stop + 1)


def test_sample_determinism_and_curve():
    A = x_power_algebra(3)
    h1 = sample_subalgebras(A, trials=200, bound=3, seed=5)
    h2 = sample_subalgebras(A, trials=200, bound=3, seed=5)
    assert h1 == h2
    assert list(h1.growth_curve) == sorted(h1.growth_curve)


def test_sample_monotone_in_bound_pinned_seeds():
    A = poly_quotient_algebra(ppow(q(1, 0, 1), 2))
    for seed in (0, 1, 2):
        h_small = sample_subalgebras(A, trials=300, bound=2, seed=seed)
        h_big = sample_subalgebras(A, trials=300, bound=6, seed=seed)
        assert all(a <= b for a, b in zip(h_small.growth_curve, h_big.growth_curve))


def test_sample_members_revalidate():
    A = poly_quotient_algebra(pmul(q(0, 1), pmul(q(-1, 1), q(-2, 1))))  # x(x-1)(x-2)
    h = sample_subalgebras(A, trials=300, bound=4, seed=11)
    for rows in h.distinct:
        s = subspace_of(A, rows)
        assert s.form[0] == rows
        assert s.contains(A.unit)
        for u in s.rows:
            for v in s.rows:
                assert s.contains(element_multiply(A, u, v))


def test_sample_rejects_finite_domain():
    F2 = PrimeField(2)
    A = poly_quotient_algebra(make_poly(F2, [0, 0, 1]))
    with pytest.raises(UnsupportedDomain):
        sample_subalgebras(A, trials=10, bound=2, seed=0)


def x5_plane_relative():
    # A = Q[x]/(x^5) over R = Q[t]/(t^2), t -> x^3
    R = x_power_algebra(2)
    m = subspace_from_vectors(QQ, 2, [(Fraction(0), Fraction(1))])
    A = x_power_algebra(5)
    img = [Fraction(0)] * 5
    img[3] = Fraction(1)
    return make_relative(QQ, R, m, A, [A.unit, tuple(img)])


def test_relative_sampling_counts_relative_subalgebras():
    # futile, so the sampler must stabilize on a small set
    rel = x5_plane_relative()
    h = sample_subalgebras(rel, trials=5000, bound=5, seed=0)
    assert h.stabilized()
    assert h.count == 4
    for rows in h.distinct:
        assert subspace_of(rel.amb, rows).contains_subspace(rel.base_image)


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


@pytest.mark.parametrize("relative", [False, True], ids=["q-two-fields", "x5-plane-case"])
def test_memoized_sampler_matches_one_closure_per_draw(monkeypatch, relative):
    import futility.sampler

    closures = []

    def counted(A, a, base):
        closures.append(a)
        return generated_by_element(A, a, base)

    monkeypatch.setattr(futility.sampler, "generated_by_element", counted)
    if relative:
        target = x5_plane_relative()
        A, base = target.amb, target.base_image
    else:
        target = A = poly_quotient_algebra(pmul(q(1, 0, 1), q(-2, 0, 1)))
        base = subspace_from_vectors(QQ, A.dim, [A.unit])
    h = sample_subalgebras(target, trials=600, bound=5, seed=4)
    distinct, curve = unmemoized_histogram(A, base, trials=600, bound=5, seed=4)
    assert h.distinct == distinct
    assert h.growth_curve == curve
    # the memo answered some draws: fewer closures than accepted draws
    accepted = sum(vec is not None for vec in reference_draws(4, 600, A.dim, 5))
    assert len(closures) < accepted


CORPUS = Path(__file__).resolve().parent.parent / "corpus"

ZPRES_CASES = sorted(
    path for path in CORPUS.rglob("*.case")
    if '"z_presentation"' in path.read_text()
)


def subring_by_powers(zp, a):
    """Hermite basis of relations + Z[a], from the definition: append
    a, a^2, ... to the rows, each power from the last, and take the batch
    basis again until a power adds nothing."""
    rows = [*zp.relations, zp.unit]
    basis = batch_hermite_basis(rows)
    power = zp.unit
    while True:
        power = dense_multiply(zp.table, power, a)
        rows.append(power)
        bigger = batch_hermite_basis(rows)
        if bigger == basis:
            return tuple(tuple(r) for r in basis)
        basis = bigger


def unmemoized_subrings(zp, trials, bound, seed):
    """The Z sampler's trial loop written out with one closure per draw,
    starting from the start lattice, the subring the zero vector generates."""
    seen = {subring_by_powers(zp, (0,) * zp.ngens)}
    curve = []
    mark = 1
    for t, vec in enumerate(reference_draws(seed, trials, zp.ngens, bound), 1):
        if vec is not None:
            seen.add(subring_by_powers(zp, vec))
        if t == mark:
            curve.append(len(seen))
            mark *= 2
    curve.append(len(seen))
    return tuple(sorted(seen, key=lambda b: (len(b), b))), tuple(curve)


@pytest.mark.parametrize("path", ZPRES_CASES, ids=lambda p: p.stem)
def test_memoized_subring_sampler_matches_one_closure_per_draw(path):
    desc = parse_case(path.read_text())
    zp = build_case(desc).payload
    trials, bound, seed = (desc.options[k] for k in ("trials", "bound", "seed"))
    h = sample_subrings(zp, trials, bound, seed)
    distinct, curve = unmemoized_subrings(zp, trials, bound, seed)
    assert h.distinct == distinct
    assert h.growth_curve == curve
    # the memo merges draws: accepted draws outnumber their keys
    start = batch_hermite_basis([*zp.relations, zp.unit])
    accepted = [v for v in reference_draws(seed, trials, zp.ngens, bound) if v is not None]
    assert len({hnf_reduce(start, v) for v in accepted}) < len(accepted)


def test_zpres_corpus_cases_are_found():
    assert len(ZPRES_CASES) == 5


def test_one_stream_serves_every_trial(monkeypatch):
    # the state before each draw is that of one random.Random(seed) advanced
    # by randint_draw, which reads the whole vector before it rejects; bound 2
    # rejects most draws from the box of 5
    import futility.sampler

    states = []

    def recorded(rng, dim, bound):
        states.append(rng.getstate())
        return _draw(rng, dim, bound)

    monkeypatch.setattr(futility.sampler, "_draw", recorded)
    sample_subalgebras(x_power_algebra(3), trials=40, bound=2, seed=9)
    rng = random.Random(9)
    expected = []
    for _ in range(40):
        expected.append(rng.getstate())
        randint_draw(rng, 3, 2)
    assert states == expected


# Seeds past 2,000 whose box doubles to 256, 1024, 2048 and 4096, which no
# seed up to 2,000 draws; at 4096 the first stops at the cap with random() < 0.5
# still drawn, the second on a random() >= 0.5.
DOUBLING_SEEDS = (3375, 5151, 3998, 12933, 24571)


def test_draw_consumes_the_stream_as_randint_does():
    ours, theirs = random.Random(), random.Random()
    boxes = set()
    for seed in (*range(2001), *DOUBLING_SEEDS):
        state = random.Random(seed).getstate()
        theirs.setstate(state)
        boxes.add(draw_box(theirs))
        for dim in (1, 2, 3, 5, 8, 10, 16):
            for bound in (1, 3, 5, 50, 5000):
                ours.setstate(state)
                theirs.setstate(state)
                assert _draw(ours, dim, bound) == randint_draw(theirs, dim, bound)
    assert boxes == {1, 2, 3, 4, 5, *(8 << i for i in range(10))}


@pytest.mark.parametrize("seed", range(8))
def test_samplers_on_corpus_cases_match_the_reference_loop(seed):
    desc = parse_case((CORPUS / "infinite-field" / "q-gauss-squared.case").read_text())
    A = build_case(desc).payload
    trials, bound = desc.options["trials"], desc.options["bound"]
    h = sample_subalgebras(A, trials, bound, seed)
    base = subspace_from_vectors(QQ, A.dim, [A.unit])
    assert (h.distinct, h.growth_curve) == unmemoized_histogram(A, base, trials, bound, seed)

    desc = parse_case((CORPUS / "integer" / "z-split.case").read_text())
    zp = build_case(desc).payload
    trials, bound = desc.options["trials"], desc.options["bound"]
    h = sample_subrings(zp, trials, bound, seed)
    assert (h.distinct, h.growth_curve) == unmemoized_subrings(zp, trials, bound, seed)


def sampled_q_cases():
    """The corpus cases the Q sampler runs on: algebras over Q and relative
    algebras, with the options their runs use."""
    for path in sorted(CORPUS.rglob("*.case")):
        built = build_case(parse_case(path.read_text()))
        target = built.payload
        if isinstance(target, RelativeAlgebra) or isinstance(target, StructAlgebra) and target.dom == QQ:
            yield path.relative_to(CORPUS).with_suffix("").as_posix(), target, {**DEFAULT_OPTIONS, **built.description.options}


SAMPLED_Q_CASES = list(sampled_q_cases())


@pytest.mark.parametrize("name, target, opts", SAMPLED_Q_CASES, ids=[c[0] for c in SAMPLED_Q_CASES])
def test_sampled_rows_match_span_and_multiply_closures(monkeypatch, name, target, opts):
    # the goldens pin only the counts per dimension; this pins each distinct
    # member's integer echelon rows against the span-and-multiply fixpoint
    import futility.sampler

    h = sample_subalgebras(target, 200, opts["bound"], opts["seed"])

    def reference(A, a, base):
        s = span_and_multiply(A, [*(tuple(map(Fraction, r)) for r in base[0]), tuple(map(Fraction, a))])
        return s.form

    monkeypatch.setattr(futility.sampler, "generated_by_element", reference)
    assert h.distinct == sample_subalgebras(target, 200, opts["bound"], opts["seed"]).distinct


def test_family_witness_distinct_points():
    modulus = ppow(q(1, 0, 1), 2)
    pts = [(1, 0), (0, 1), (1, 1)]
    members = family_witness(modulus, pts)
    assert len({m.key() for m in members}) == 3
    for m in members:
        assert m.dim == 2


def test_family_witness_25_points():
    modulus = ppow(q(1, 0, 1), 2)
    pts = [(1, k) for k in range(24)] + [(0, 1)]
    members = family_witness(modulus, pts)
    assert len({m.key() for m in members}) == 25


def test_family_witness_single_point_closed():
    A = poly_quotient_algebra(ppow(q(1, 0, 1), 2))
    (member,) = family_witness(ppow(q(1, 0, 1), 2), [(2, 3)])
    for u in member.rows:
        for v in member.rows:
            assert member.contains(element_multiply(A, u, v))


def test_family_witness_rejects_wrong_shape():
    with pytest.raises(NotApplicable):
        family_witness(ppow(q(1, 1), 2), [(1,)])  # degree-1 factor
    with pytest.raises(NotApplicable):
        family_witness(q(1, 0, 1), [(1, 0)])  # not a square
    with pytest.raises(NotApplicable):
        family_witness(ppow(q(1, 0, 1), 2), [(0, 0)])


def test_family_members_appear_in_samples():
    modulus = ppow(q(1, 0, 1), 2)
    members = family_witness(modulus, [(1, 0), (0, 1), (1, 1), (1, -1)])
    A = poly_quotient_algebra(modulus)
    h = sample_subalgebras(A, trials=800, bound=3, seed=17)
    for m in members:
        assert m.form[0] in h.distinct
