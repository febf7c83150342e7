"""Decision procedures for whether an algebra has only finitely many
subalgebras, with checkable certificates.

Each decider returns a FutilityReport carrying the verdict, a tag naming
the criterion that was applied, a certificate, and trace notes.  Verdicts
are structural; the randomized sampler and the exhaustive enumerator act
as independent oracles on top of these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .algebra import (
    LocalSplit,
    RelativeAlgebra,
    StructAlgebra,
    _int_combine,
    _int_multiply,
    commutator_ideal,
    first_nonassociative,
    frobenius_chain,
    generating_basis,
    local_decomposition,
    nilradical,
    primitive_element,
    quotient_algebra,
    subalgebra_to_algebra,
    subspace_product,
)
from .domains import QQ, FunctionField, PrimeField
from .errors import MalformedPresentation, UnsupportedDomain
from .intmat import (
    hermite_basis,
    hnf_adjoin,
    hnf_reduce,
    lattice_contains,
    lattice_index,
    smith_normal_form,
)
from .linalg import full_subspace, subspace_from_vectors, subspace_sum
from .polynomials import FactoredPoly, factor_over_prime_field, factor_over_rationals

FUTILE = "Futile"
NOT_FUTILE = "NotFutile"


@dataclass(frozen=True)
class FutilityReport:
    """Verdict plus the criterion applied, a checkable certificate, and a
    trace of the reduction steps."""

    verdict: str
    criterion: str
    certificate: dict
    notes: tuple = ()

    @property
    def futile(self) -> bool:
        return self.verdict == FUTILE


# ---------------------------------------------------------------------------
# Generator search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSearch:
    """Result of hunting for a single generator: either a generator with its
    factored minimal polynomial, or a proven/abandoned negative."""

    generator: tuple | None
    factored: FactoredPoly | None
    exhaustive: bool


def find_generator(A: StructAlgebra, seed: int = 0, split: LocalSplit | None = None) -> GeneratorSearch:
    """algebra.primitive_element with its minimal polynomial factored.

    Over F_p the search is exhaustive, so a None generator comes with a
    proof flag; over Q a search past algebra.GENERATOR_BUDGET trials raises
    instead.

    Given split = local_decomposition(A, seed) whose minimal polynomial mu
    has degree dim A, its element a and mu are returned as they are: a is
    the first of the search's seeded candidates whose image generates A/N,
    and a candidate that generates A generates A/N, so a is the first that
    generates A; mu is factored as factor_over_rationals factors it."""
    if A.dim == 0:
        return GeneratorSearch(generator=(), factored=None, exhaustive=True)
    mu = split.minimal_polynomial if split is not None else None
    if mu is not None and mu.degree == A.dim:
        return GeneratorSearch(split.element, mu, False)
    a, f = primitive_element(A, seed)
    exhaustive = isinstance(A.dom, PrimeField)
    if a is None:
        return GeneratorSearch(None, None, exhaustive)
    factor = factor_over_prime_field if exhaustive else factor_over_rationals
    return GeneratorSearch(a, factor(f, seed=seed), exhaustive)


# ---------------------------------------------------------------------------
# Infinite ground field
# ---------------------------------------------------------------------------

def decide_infinite_field(A: StructAlgebra, seed: int = 0) -> FutilityReport:
    """Classification over Q: split into local factors; futile iff at most
    one factor is non-reduced and that factor is a nilpotent line algebra
    K[x]/(x^r) with r <= 3, every other factor being a (automatically
    primitive) field extension."""
    if A.dom != QQ:
        raise UnsupportedDomain("infinite-field decider runs over Q")
    tag = "infinite-field-classification"
    if A.dim == 0:
        return FutilityReport(FUTILE, tag, {"dim": 0}, ("zero algebra",))
    if not A.is_commutative:
        return FutilityReport(
            NOT_FUTILE,
            tag,
            {"violation": "noncommutative over an infinite field"},
            ("a noncommutative algebra over an infinite field is never futile",),
        )
    split = local_decomposition(A, seed=seed)
    # the factors come sorted by (dim, nil_dim); ties are ordered here too, so
    # that the profile does not depend on the order the input was given in
    profile = sorted(
        (
            {
                "dim": lf.dim,
                "nil_dim": lf.nil_dim,
                "residue_dim": lf.dim - lf.nil_dim,
                "nil_mod_nil2_dim": lf.nil_mod_nil2_dim,
            }
            for lf in split.factors
        ),
        key=lambda e: (e["dim"], e["nil_dim"], e["nil_mod_nil2_dim"]),
    )
    nonreduced = [e for e in profile if e["nil_dim"]]
    cert = {"local_profile": profile}
    verdict = FUTILE
    violation = None
    if len(nonreduced) > 1:
        verdict = NOT_FUTILE
        violation = f"{len(nonreduced)} non-reduced local factors"
    elif nonreduced:
        e = nonreduced[0]
        if e["residue_dim"] != 1:
            violation = (
                f"non-reduced factor has residue field of dimension {e['residue_dim']}"
            )
        elif e["dim"] > 3:
            violation = f"non-reduced factor has dimension {e['dim']} > 3"
        elif e["nil_mod_nil2_dim"] > 1:
            violation = "non-reduced factor's maximal ideal is not principal"
        if violation:
            verdict = NOT_FUTILE
    if verdict == FUTILE:
        search = find_generator(A, seed=seed, split=split)
        cert["generator"] = search.generator
        cert["minimal_polynomial"] = search.factored
        notes = ("futile: monogenic with factored minimal polynomial certificate",)
    else:
        cert["violation"] = violation
        notes = (f"not futile: {violation}",)
    return FutilityReport(verdict, tag, cert, notes)


# ---------------------------------------------------------------------------
# Field towers in characteristic p
# ---------------------------------------------------------------------------

def decide_field_extension(L: StructAlgebra) -> FutilityReport:
    """Futility of a finite field extension L/K in characteristic p: futile
    iff the index of the Frobenius-compositum subfield is 1 or p.  The
    certificate carries the whole chain of iterated Frobenius spans down to
    the separable closure."""
    if not isinstance(L.dom, FunctionField):
        raise UnsupportedDomain("field-extension decider runs over F_p(t[,s])")
    p = L.dom.p
    chain = frobenius_chain(L)
    dims = [s.dim for s in chain]
    d0 = dims[0]
    d1 = dims[1] if len(dims) > 1 else dims[0]
    ratio = Fraction(d0, d1)
    futile = ratio in (Fraction(1), Fraction(p))
    cert = {
        "degree_over_base": L.dim,
        "chain_dims": dims,
        "frobenius_index": ratio,
        "separable_closure_dim": dims[-1],
    }
    note = f"[L : L^pK] = {ratio}; futile iff it lies in {{1, {p}}}"
    return FutilityReport(FUTILE if futile else NOT_FUTILE, "field-extension-frobenius", cert, (note,))


# ---------------------------------------------------------------------------
# Local artinian base
# ---------------------------------------------------------------------------

def decide_local_artinian(rel: RelativeAlgebra, seed: int = 0) -> FutilityReport:
    """Relative futility over a local artinian base with infinite residue
    field: commutativity, futility of A/mA and T/mT over the residue field,
    uniseriality of m(A/R), and when the nilradical of T/mT is a plane, the
    subspace identity n^4 + n^2 m + m = mT inside T."""
    if rel.ground != QQ:
        raise UnsupportedDomain("local artinian decider needs ground field Q")
    A = rel.amb
    tag = "local-artinian-conditions"
    notes = []
    conds = {}
    if not A.is_commutative:
        return FutilityReport(
            NOT_FUTILE, tag, {"violation": "ambient algebra is noncommutative"},
            ("not futile: ambient algebra is noncommutative",),
        )
    dom = rel.ground
    m_img = rel.ideal_image
    base_img = rel.base_image
    ambient_full = full_subspace(dom, A.dim)
    mA = subspace_product(A, m_img, ambient_full)
    m2A = subspace_product(A, m_img, mA)
    m3A = subspace_product(A, m_img, m2A)

    # A/mA over the residue field (= ground field)
    AmodmA, _ = quotient_algebra(A, mA)
    sub_a = decide_infinite_field(AmodmA, seed=seed)
    conds["A_mod_mA_futile"] = sub_a.futile
    notes.append(f"A/mA has dimension {AmodmA.dim}: {sub_a.verdict}")

    # T = R + nilradical(A)
    nil = nilradical(A)
    T_span = subspace_sum(base_img, nil)
    Talg, Trows = subalgebra_to_algebra(A, T_span)
    mT_amb = subspace_product(A, m_img, T_span)
    mT_in_T = subspace_from_vectors(dom, Talg.dim, [T_span.coords(v) for v in mT_amb.rows])
    TmodmT, _ = quotient_algebra(Talg, mT_in_T)
    sub_t = decide_infinite_field(TmodmT, seed=seed)
    conds["T_mod_mT_futile"] = sub_t.futile
    notes.append(f"T/mT has dimension {TmodmT.dim}: {sub_t.verdict}")

    # uniseriality of m(A/R) via the two leading quotient dimensions
    m2A_R_dim = subspace_sum(m2A, base_img).dim
    d0 = subspace_sum(mA, base_img).dim - m2A_R_dim
    d1 = m2A_R_dim - subspace_sum(m3A, base_img).dim
    conds["uniserial_dims"] = (d0, d1)
    conds["uniserial"] = d0 <= 1 and d1 <= 1
    notes.append(f"m(A/R) quotient dimensions: ({d0}, {d1})")

    # the plane case needs the subspace identity
    r_T = nilradical(TmodmT).dim
    conds["r_T"] = r_T
    if r_T == 2:
        n2 = subspace_product(A, nil, nil)
        n4 = subspace_product(A, n2, n2)
        n2m = subspace_product(A, n2, m_img)
        lhs = subspace_sum(subspace_sum(n4, n2m), m_img)
        conds["plane_identity"] = lhs == mT_amb
        notes.append(
            f"plane case: n^4 + n^2 m + m has dimension {lhs.dim}, mT has {mT_amb.dim}"
        )
    else:
        conds["plane_identity"] = True
    futile = (
        conds["A_mod_mA_futile"]
        and conds["T_mod_mT_futile"]
        and conds["uniserial"]
        and conds["plane_identity"]
    )
    cert = {"conditions": conds, "T_dim": Talg.dim}
    verdict = FUTILE if futile else NOT_FUTILE
    notes.append(f"verdict: {verdict}")
    return FutilityReport(verdict, tag, cert, tuple(notes))


# ---------------------------------------------------------------------------
# Finite coefficient rings
# ---------------------------------------------------------------------------

def decide_finite_base(A: StructAlgebra) -> FutilityReport:
    """Over a finite coefficient ring every finite-rank algebra is a finite
    set, so it has finitely many subsets and is futile; the certificate is
    its cardinality.  No lattice is searched: counting the subalgebras is
    the enumeration oracle's work, kept apart from the verdict."""
    dom = A.dom
    if not dom.is_finite:
        raise UnsupportedDomain("finite-base decider needs a finite coefficient ring")
    size = dom.size**A.dim
    notes = (
        f"finite algebra with {size} elements over {dom}",
        "a finite set has finitely many subsets: cardinality argument applies",
    )
    return FutilityReport(FUTILE, "finite-base-exhaustion", {"cardinality": size}, notes)


# ---------------------------------------------------------------------------
# Noncommutative reduction
# ---------------------------------------------------------------------------

def decide_noncommutative(A, seed: int = 0) -> FutilityReport:
    """Reduce along the commutator ideal: futile iff the commutator ideal is
    finite and the commutative quotient is futile."""
    if isinstance(A, ZPresentation):
        return _decide_noncommutative_z(A)
    if not isinstance(A, StructAlgebra):
        raise UnsupportedDomain("expected a structure-constant algebra or Z presentation")
    tag = "commutator-reduction"
    comm = commutator_ideal(A)
    dom = A.dom
    if dom == QQ:
        if comm.dim == 0:
            inner = decide_infinite_field(A, seed=seed)
            return FutilityReport(
                inner.verdict,
                inner.criterion,
                inner.certificate,
                ("commutator ideal is zero; deferring to the commutative decider",)
                + inner.notes,
            )
        cert = {"commutator_dim": comm.dim, "violation": "infinite commutator ideal"}
        return FutilityReport(
            NOT_FUTILE,
            tag,
            cert,
            (f"commutator ideal is a {comm.dim}-dimensional Q-space, hence infinite",),
        )
    if dom.is_finite:
        size = dom.size**comm.dim
        quot, _ = quotient_algebra(A, comm)
        inner = decide_finite_base(quot)
        notes = (
            f"commutator ideal has dimension {comm.dim} (size {size}), always finite",
            "recursing on the commutative quotient",
        ) + inner.notes
        cert = {
            "commutator_dim": comm.dim,
            "commutator_size": size,
            "quotient": inner.certificate,
        }
        return FutilityReport(inner.verdict, tag, cert, notes)
    raise UnsupportedDomain(f"no noncommutative path for domain {dom}")


# ---------------------------------------------------------------------------
# Integer algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZPresentation:
    """Module-finite Z-algebra: ngens generators, integer relation rows, a
    multiplication table on generators, and the unit's coordinates.  The
    shapes, the relation lattice being an ideal, the unit law and
    associativity are checked at construction (MalformedPresentation)."""

    ngens: int
    relations: tuple
    table: tuple
    unit: tuple

    def __post_init__(self):
        n = self.ngens
        for r in self.relations:
            if len(r) != n:
                raise MalformedPresentation("relation row has wrong length")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise MalformedPresentation("multiplication table is not ngens x ngens")
        for row in self.table:
            for v in row:
                if len(v) != n:
                    raise MalformedPresentation("table entry has wrong length")
        if len(self.unit) != n:
            raise MalformedPresentation("unit vector has wrong length")
        basis = self.relation_basis
        # relations must absorb multiplication on either side
        for r in self.relations:
            for g in map(self.gen, range(n)):
                if not (lattice_contains(basis, self.mul_vec(r, g))
                        and lattice_contains(basis, self.mul_vec(g, r))):
                    raise MalformedPresentation("relation lattice is not an ideal for the given table")
        for j in range(n):
            g = self.gen(j)
            if not (lattice_contains(basis, _vsub(self.mul_vec(self.unit, g), g))
                    and lattice_contains(basis, _vsub(self.mul_vec(g, self.unit), g))):
                raise MalformedPresentation(f"unit law fails at generator {j}")

        # each generator block of a side becomes its representative modulo the
        # relation lattice, equal on both sides exactly when their difference
        # lies in the lattice
        def combine(size, terms, rows):
            acc = _int_combine(size, terms, rows)
            return [x for k in range(0, size, n) for x in hnf_reduce(basis, acc[k:k + n])]

        # a single entry of the raw table is one modulo the lattice too, so
        # the generators read off it generate the quotient ring
        unit_terms = [(l, c) for l, c in enumerate(self.unit) if c]
        middle = generating_basis(self.sparse, unit_terms, lambda c: abs(c) == 1)
        bad = first_nonassociative(self.sparse, combine, middle)
        if bad is not None:
            raise MalformedPresentation(f"associativity fails at generator triple {bad}")

    @cached_property
    def relation_basis(self) -> tuple:
        """Hermite basis of the relation lattice."""
        return tuple(hermite_basis(self.relations))

    @cached_property
    def sparse(self) -> tuple:
        """The nonzero (k, c_ijk) of each e_i * e_j, as StructAlgebra.sparse."""
        return tuple(tuple(tuple((k, c) for k, c in enumerate(v) if c) for v in block)
                     for block in self.table)

    @property
    def is_commutative(self) -> bool:
        """Whether every generator commutator lies in the relation lattice."""
        return all(lattice_contains(self.relation_basis, c) for c in self._commutators())

    def _commutators(self) -> list:
        n = self.ngens
        return [_vsub(self.table[i][j], self.table[j][i]) for i in range(n) for j in range(i + 1, n)]

    def gen(self, j):
        return tuple(1 if i == j else 0 for i in range(self.ngens))

    def mul_vec(self, u, v):
        return _int_multiply(self.sparse, self.ngens, u, v)

    def commutator_lattice(self) -> tuple:
        """Hermite basis of relations + the two-sided ideal generated by all
        generator commutators: a worklist on the lattice pair from the
        relation lattice (an ideal, checked at construction).  A queued
        vector that leaves the lattice is adjoined and its products with each
        generator, on both sides, are queued."""
        basis, queue = self.relation_basis, self._commutators()
        while queue:
            residual = hnf_reduce(basis, queue.pop())
            if any(residual):
                basis = hnf_adjoin(basis, residual)
                for g in map(self.gen, range(self.ngens)):
                    queue += [self.mul_vec(residual, g), self.mul_vec(g, residual)]
        return basis


def _vsub(a, b):
    return [x - y for x, y in zip(a, b)]


@dataclass(frozen=True)
class LocalizedZ:
    """The subring Z[1/n] of Q, optionally times a finite ring."""

    invert: int
    finite_part_size: int = 1

    def __post_init__(self):
        if self.invert == 0:
            raise MalformedPresentation("cannot invert zero")
        if self.finite_part_size < 1:
            raise MalformedPresentation("finite part size must be positive")


def decide_integer_algebra(P) -> FutilityReport:
    """Futility over Z: a module-finite presentation is futile iff its free
    rank is at most 1 (rank 0 means finite; rank 1 means finite torsion plus
    a copy of Z); the symbolic localized form Z[1/n] x finite is futile."""
    if isinstance(P, LocalizedZ):
        cert = {
            "localization": f"Z[1/{abs(P.invert)}]",
            "finite_part_size": P.finite_part_size,
        }
        notes = (
            "a localization of Z inside Q is futile, and a finite factor "
            "cannot add more than finitely many subalgebras",
        )
        return FutilityReport(FUTILE, "integer-rank", cert, notes)
    if not isinstance(P, ZPresentation):
        raise UnsupportedDomain("expected a Z presentation or localized form")
    return _rank_report(P.ngens, P.relations)


def _rank_report(ngens: int, rows) -> FutilityReport:
    """The integer-rank verdict on the Z-module Z^ngens / (rows), read off
    its Smith normal form."""
    snf = smith_normal_form([list(r) for r in rows] or [[0] * ngens])
    free_rank = ngens - snf.rank
    tor_size = math.prod(d for d in snf.invariant_factors if d > 1)
    cert = {
        "free_rank": free_rank,
        "invariant_factors": list(snf.invariant_factors),
        "torsion_size": tor_size,
    }
    if free_rank >= 2:
        note = f"free rank {free_rank} >= 2: the rational span is too big"
    elif free_rank == 1:
        note = (f"free rank 1 with finite torsion of size {tor_size}; the "
                "torsion-free quotient is a copy of Z")
    else:
        note = f"finite ring of size {tor_size}"
    return FutilityReport(NOT_FUTILE if free_rank >= 2 else FUTILE, "integer-rank", cert, (note,))


def _decide_noncommutative_z(P: ZPresentation) -> FutilityReport:
    tag = "commutator-reduction"
    rel_basis = P.relation_basis
    comm = P.commutator_lattice()
    notes = [f"commutator ideal lattice has rank {len(comm)} over relations rank {len(rel_basis)}"]
    if len(comm) != len(rel_basis):
        cert = {"commutator_rank": len(comm) - len(rel_basis)}
        notes.append("commutator ideal has positive free rank, hence is infinite")
        return FutilityReport(NOT_FUTILE, tag, cert, tuple(notes))
    size = lattice_index(comm, rel_basis)
    notes.append(f"commutator ideal is finite of size {size}")
    inner = _rank_report(P.ngens, comm)
    notes.append("recursing on the commutative quotient")
    notes.extend(inner.notes)
    cert = {"commutator_size": size, "quotient": inner.certificate}
    return FutilityReport(inner.verdict, tag, cert, tuple(notes))
