"""The integer echelon form over QQ kept reduced at every step, as an oracle
for linalg's forward growth (int_insert) and its one back-substitution
(int_finish): the fold that the rational pair ran before it grew forward."""

import bisect
import math


def _primitive(ints):
    """ints divided by their content, first nonzero entry positive."""
    g = math.gcd(*ints)
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        g = -g
    return tuple(x // g for x in ints) if g else tuple(ints)


def int_adjoin(rows, pivots, residual):
    """The integer echelon form of the span of (rows, pivots) and a nonzero
    residual of int_reduce: the residual becomes a new pivot row and is
    cleared from the rows that have an entry in its pivot column, by
    fraction-free elimination.  Only those rows are made primitive again."""
    lead = next(j for j, x in enumerate(residual) if x)
    d = residual[lead]
    out = []
    for row in rows:
        c = row[lead]
        if c:
            g = math.gcd(d, c)
            row = _primitive([d // g * x - c // g * y for x, y in zip(row, residual)])
        out.append(row)
    at = bisect.bisect(pivots, lead)
    out.insert(at, residual)
    return tuple(out), pivots[:at] + (lead,) + pivots[at:]
