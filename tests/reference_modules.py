"""Submodule lattices of finite modules over a small local base ring, as an
oracle for the uniserial criterion: a module over a local ring has a chain
of submodules exactly when dim M/mM <= 1 and dim mM/m^2M <= 1.

Elements are tuples of residues, and the lattice is grown from the zero
submodule over a precomputed addition table, by the cyclic submodule of one
element at a time."""

from dataclasses import dataclass
from itertools import product

from futility.errors import BudgetExceeded, ValidationError


@dataclass(frozen=True)
class FiniteModule:
    """A finite module over a small local base ring.

    kind "zmod": base Z/p^k acting on a product of cyclic groups Z/orders[i]
    by integer multiplication; the maximal ideal is (p).
    kind "eps":  base F_p[eps]/(eps^k) acting on (Z/p)^len(orders) with eps
    acting through the given nilpotent matrix.
    """

    kind: str
    p: int
    k: int
    orders: tuple
    eps: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("zmod", "eps"):
            raise ValidationError("module kind must be zmod or eps")
        for o in self.orders:
            if self.kind == "eps" and o != self.p:
                raise ValidationError("eps modules are F_p vector spaces")
            if o < 1 or (self.kind == "zmod" and self.p ** _plog(o, self.p) != o):
                raise ValidationError("component orders must be powers of p")
        if self.kind == "zmod":
            for o in self.orders:
                if o > self.p**self.k:
                    raise ValidationError("component order exceeds the base ring")
        if self.kind == "eps":
            mat = self.eps or ()
            n = len(self.orders)
            if len(mat) != n or any(len(r) != n for r in mat):
                raise ValidationError("eps action matrix has wrong shape")
            power = list(map(list, mat))
            for _ in range(self.k - 1):
                power = [
                    [sum(power[i][l] * mat[l][j] for l in range(n)) % self.p for j in range(n)]
                    for i in range(n)
                ]
            if any(any(row) for row in power):
                raise ValidationError("eps^k must act as zero")

    @property
    def size(self) -> int:
        s = 1
        for o in self.orders:
            s *= o
        return s

    def zero(self):
        return (0,) * len(self.orders)

    def elements(self):
        return product(*(range(o) for o in self.orders))

    def add(self, a, b):
        return tuple((x + y) % o for x, y, o in zip(a, b, self.orders))

    def m_act(self, a):
        """Action of the maximal ideal generator (p, or eps)."""
        if self.kind == "zmod":
            return tuple((self.p * x) % o for x, o in zip(a, self.orders))
        n = len(self.orders)
        return tuple(
            sum(self.eps[j][i] * a[j] for j in range(n)) % self.p for i in range(n)
        )

    def cyclic_span(self, x):
        """The submodule generated by one element."""
        if self.kind == "zmod":
            out = set()
            cur = self.zero()
            while cur not in out:
                out.add(cur)
                cur = self.add(cur, x)
            return out
        orbit = [x]
        cur = x
        for _ in range(self.k - 1):
            cur = self.m_act(cur)
            orbit.append(cur)
        out = set()
        for coeffs in product(range(self.p), repeat=len(orbit)):
            acc = self.zero()
            for c, v in zip(coeffs, orbit):
                for _ in range(c):
                    acc = self.add(acc, v)
            out.add(acc)
        return out


def _plog(o, p):
    e = 0
    while o > 1:
        if o % p:
            return -1
        o //= p
        e += 1
    return e


def enumerate_submodules(M: FiniteModule, budget: int = 4096):
    """All action-stable subgroups, plus a flag telling whether they form a
    chain under inclusion.

    Elements are integer-encoded and an addition table is precomputed, so
    growing a subgroup by one generator is pure table lookups.
    """
    if M.size > budget:
        raise BudgetExceeded(f"module of size {M.size} exceeds budget {budget}")
    elems = list(M.elements())
    index = {x: i for i, x in enumerate(elems)}
    n = len(elems)
    add = [[0] * n for _ in range(n)]
    for i, x in enumerate(elems):
        for j in range(i, n):
            s = index[M.add(x, elems[j])]
            add[i][j] = s
            add[j][i] = s
    span_of = [frozenset(index[y] for y in M.cyclic_span(x)) for x in elems]
    zero = frozenset([index[M.zero()]])
    found = {zero}
    frontier = [zero]
    while frontier:
        H = frontier.pop()
        for x in range(n):
            if x in H:
                continue
            bigger = frozenset(add[h][y] for h in H for y in span_of[x])
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    decoded = [frozenset(elems[i] for i in s) for s in found]
    decoded.sort(key=lambda s: (len(s), sorted(s)))
    chain = True
    for a, b in zip(decoded, decoded[1:]):
        if not a <= b:
            chain = False
            break
    return decoded, chain


def module_quotient_dims(M: FiniteModule) -> tuple[int, int]:
    """(dim_k M/mM, dim_k mM/m^2M) over the residue field F_p."""
    mM = _image_subgroup(M, 1)
    m2M = _image_subgroup(M, 2)
    d0 = _plog(M.size // len(mM), M.p)
    d1 = _plog(len(mM) // len(m2M), M.p)
    return d0, d1


def _image_subgroup(M: FiniteModule, times: int):
    imgs = set()
    for x in M.elements():
        y = x
        for _ in range(times):
            y = M.m_act(y)
        imgs.add(y)
    # the image of a module map is already a subgroup
    return imgs
