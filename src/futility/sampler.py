"""Randomized falsification oracle over the rationals: sample generated
subalgebras, canonicalize, and watch how the count of distinct values
grows.  A stabilized histogram is evidence, never proof; the deciders carry
the proof burden.

Also constructs the explicit infinite family of subalgebras of Q[x]/(f^2)
indexed by projective points, which witnesses non-futility directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import math
import random

from .algebra import (
    RelativeAlgebra,
    StructAlgebra,
    element_multiply,
    generated_by_element,
)
from .constructions import poly_quotient_algebra
from .domains import QQ
from .errors import NotApplicable, UnsupportedDomain
from .intmat import hermite_basis, hnf_adjoin, hnf_reduce
from .linalg import Subspace, int_key, subspace_from_vectors
from .polynomials import Poly, make_poly, pmul, squarefree_decomposition

STABLE_MARKS = 4  # equal growth marks at the end of a run that make it stabilized


@dataclass(frozen=True)
class SampleHistogram:
    """Distinct generated subalgebras seen over a sampling run."""

    trials: int
    bound: int
    seed: int
    # Canonical integer row tuples sorted by (len, rows): over Q the integer
    # echelon rows of a subalgebra, over Z the Hermite basis of a subring.
    # Reports read only the count and the counts per dimension.
    distinct: tuple
    growth_curve: tuple  # distinct counts after trials 1, 2, 4, ... and at the last trial run
    stopped_at: int | None = None  # the trial a stop limit ended the run at, 0 before trial 1

    @property
    def count(self) -> int:
        return len(self.distinct)

    def stabilized(self) -> bool:
        """True when the last STABLE_MARKS growth marks are all equal."""
        if len(self.growth_curve) < STABLE_MARKS:
            return False
        tail = self.growth_curve[-STABLE_MARKS:]
        return all(x == tail[0] for x in tail)


def sample_subalgebras(target, trials: int, bound: int, seed: int = 0, stop: int | None = None) -> SampleHistogram:
    """Draw elements with integer coordinates in [-bound, bound], close each
    under multiplication over the base image, canonicalize and dedupe; the
    run ends early once more than `stop` distinct members are seen.

    The memo key is the draw reduced modulo the base image and scaled to a
    primitive integer vector (linalg.int_key, formed once per run from the
    base image's form), which is sound because R[a] = R[c*a + r] for
    c != 0 and r in the base image.  Memo keys and closures are integer
    echelon forms, and a subalgebra is kept as its canonical integer echelon
    rows, those of its Subspace.form.
    """
    if isinstance(target, RelativeAlgebra):
        A = target.amb
        base = target.base_image
    elif isinstance(target, StructAlgebra):
        A = target
        base = subspace_from_vectors(A.dom, A.dim, [A.unit])
    else:
        raise UnsupportedDomain("sampler expects an algebra or a relative algebra")
    if A.dom != QQ:
        raise UnsupportedDomain("sampling runs over the rationals; finite domains enumerate")

    form = base.form

    def close(a):
        return generated_by_element(A, a, form)[0]

    return _sample(A.dim, trials, bound, seed, int_key(*form), close, stop)


def _sample(dim: int, trials: int, bound: int, seed: int, key, close, stop: int | None = None) -> SampleHistogram:
    """The trial loop and memo of both samplers.  One random.Random(seed)
    serves the whole run: trial t draws from the stream where trial t - 1
    left it.  key(vec) is a canonical representative of the draw that
    generates the same closure; only the first draw with a given key is
    closed, by close(key), to its canonical integer rows.  The zero vector's
    key is closed before the first trial, so the base member (R*1 over Q, the
    start lattice over Z) counts from trial 1.  The distinct row tuples are
    sorted by (len, rows).

    With a stop limit the run ends at the first trial whose closure brings
    the distinct count above it, or before trial 1 if the base member alone
    does.  A closure adds at most one member, so a stopped run has exactly
    stop + 1 members; the count never falls, so a full run would end above
    the limit as well."""
    limit = math.inf if stop is None else stop
    rng = random.Random(seed)
    k0 = key((0,) * dim)
    memo = {k0}
    seen = {close(k0)}
    curve = []
    mark = 1
    stopped_at = 0 if len(seen) > limit else None
    if stopped_at is None:
        for t in range(1, trials + 1):
            vec = _draw(rng, dim, bound)
            if vec is not None:
                k = key(vec)
                if k not in memo:
                    memo.add(k)
                    seen.add(close(k))
                    if len(seen) > limit:
                        stopped_at = t
                        break
            if t == mark:
                curve.append(len(seen))
                mark *= 2
    curve.append(len(seen))
    return SampleHistogram(
        trials=trials, bound=bound, seed=seed,
        distinct=tuple(sorted(seen, key=lambda rows: (len(rows), rows))), growth_curve=tuple(curve),
        stopped_at=stopped_at,
    )


def _draw(rng, dim: int, bound: int):
    """One master draw of integer coordinates with a box-size mixture,
    rejected against the bound: None when a coordinate lies outside
    [-bound, bound].

    The box is 5 with probability 0.8, uniform in 1..4 with 0.15, and
    otherwise 8 doubled while random() < 0.5, up to 4096.  Every integer is
    read from getrandbits exactly as randint(lo, hi) reads it in CPython:
    lo + r for the first r < n = hi - lo + 1 among getrandbits(n.bit_length())
    draws.  The stream is therefore the one randint would consume.  All dim
    coordinates are read before the vector is rejected, so what a draw takes
    from the stream does not depend on the bound.

    For a fixed seed every trial then draws the same vector whatever the
    bound, so the accepted set with a smaller box is a subset of the
    accepted set with a larger one; growth curves are pointwise monotone in
    the bound by construction.
    """
    getrandbits = rng.getrandbits
    u = rng.random()
    if u < 0.8:
        box = 5
    elif u < 0.95:
        box = getrandbits(3)  # randint(1, 4): n = 4 takes 3 bits
        while box >= 4:
            box = getrandbits(3)
        box += 1
    else:
        box = 8
        while rng.random() < 0.5 and box < 1 << 12:
            box <<= 1
    n = 2 * box + 1
    k = n.bit_length()
    vec = []
    for _ in range(dim):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        vec.append(r - box)
    if box > bound and any(c > bound or c < -bound for c in vec):
        return None
    return tuple(vec)


def family_witness(modulus: Poly, points) -> list[Subspace]:
    """The injective family of subalgebras of Q[x]/(f^2): a projective point
    (a_0 : ... : a_{n-1}) maps to the span of 1 and f * sum a_i x^i.

    The presentation is taken through the modulus, which must be an exact
    square of a squarefree f with deg f >= 2.
    """
    if modulus.dom != QQ:
        raise UnsupportedDomain("family witness runs over the rationals")
    parts = squarefree_decomposition(modulus)
    if len(parts) != 1 or parts[0][1] != 2:
        raise NotApplicable("modulus is not the square of a squarefree polynomial")
    f = parts[0][0]
    n = f.degree
    if n < 2:
        raise NotApplicable("squared factor must have degree at least 2")
    A = poly_quotient_algebra(modulus)
    out = []
    for pt in points:
        coords = [Fraction(c) for c in pt]
        if len(coords) != n:
            raise NotApplicable(f"projective points need {n} coordinates")
        if all(c == 0 for c in coords):
            raise NotApplicable("projective points cannot be all zero")
        gpoly = make_poly(QQ, coords)
        w = pmul(f, gpoly)
        vec = tuple(w.coeffs) + (Fraction(0),) * (A.dim - len(w.coeffs))
        span = subspace_from_vectors(QQ, A.dim, [A.unit, vec])
        # closed: the line part squares to a multiple of f^2 = 0
        prod = element_multiply(A, vec, vec)
        if not span.contains(prod):
            raise NotApplicable("family member failed its closure check")
        out.append(span)
    return out


def sample_subrings(zp, trials: int, bound: int, seed: int = 0, stop: int | None = None) -> SampleHistogram:
    """Integer analogue of the subalgebra sampler: generate Z[a] for random
    a and count distinct canonical lattices (Hermite bases including the
    relation rows).  Z[a] grows power by power with hnf_adjoin from the
    basis of relations + Z*1, until a power lies in the lattice; as over Q,
    the next power is taken from the residual just adjoined.  Draws are
    memoized by hnf_reduce against that start basis: Z[a] = Z[a + k*1 + r]
    for every integer k and relation r."""
    start = tuple(hermite_basis([*zp.relation_basis, zp.unit]))

    def close(a):
        basis, power = start, zp.unit
        while True:
            power = hnf_reduce(basis, zp.mul_vec(power, a))
            if not any(power):
                return basis
            basis = hnf_adjoin(basis, power)

    return _sample(zp.ngens, trials, bound, seed, partial(hnf_reduce, start), close, stop)
