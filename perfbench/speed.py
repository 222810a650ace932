"""A fixed probe of how fast this machine runs Python at the moment.

On a shared host the speed of a core drifts by up to twofold over seconds
to minutes (a fixed pure-Python loop took between 112 and 215 ms within
40 s on a 2-vCPU Intel Xeon virtual machine).  That drift swamps the differences a benchmark
must resolve.  The benchmark therefore runs this probe around its timed
work and scales each measured time by REFERENCE_S / probe time, which
expresses it in seconds of a machine on which the probe takes REFERENCE_S.

The probe imitates the interpreter work of the library: Gauss-Jordan
elimination on small element objects that dispatch `*` and `-` to a field
object, as hermgrs.field.Element does, once with table-based sums (order
256) and once with sums by base-3 digit walks (order 3^7, just above the
add-table limit, so that its tables stay small).  The tables are
permutations, not a field; the probe computes nothing of use.  It does not
use hermgrs, so no change to the library changes it.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.0057


class _Field:
    """Element arithmetic shaped like hermgrs.field.Field: log/exp tables
    for products, and sums either by table (small orders) or by a walk over
    base-p digits (large orders)."""

    def __init__(self, p, digits):
        self.p = p
        self.order = p ** digits
        n = self.order - 1
        step = next(s for s in range(n // 3, n) if _gcd(s, n) == 1)
        self.exp = [1 + (i * step) % n for i in range(2 * n)]
        self.log = [0] * self.order
        for i in range(n):
            self.log[self.exp[i]] = i
        self.add_table = None
        if self.order <= 1024:
            self.add_table = [[self._add_slow(a, b) for b in range(self.order)] for a in range(self.order)]

    def _add_slow(self, a, b):
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def mul(self, x, y):
        if x.value == 0 or y.value == 0:
            return _Element(self, 0)
        return _Element(self, self.exp[self.log[x.value] + self.log[y.value]])

    def sub(self, x, y):
        if self.add_table is not None:
            return _Element(self, self.add_table[x.value][y.value])
        return _Element(self, self._add_slow(x.value, y.value))


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class _Element:
    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def __mul__(self, other):
        return self.field.mul(self, other)

    def __sub__(self, other):
        return self.field.sub(self, other)

    def __bool__(self):
        return self.value != 0


def _matrix(field, size):
    n = field.order - 1
    return [[_Element(field, (r * 37 + c * 11) % n + 1) for c in range(size)] for r in range(size)]


_SMALL = _matrix(_Field(2, 8), 16)
_LARGE = _matrix(_Field(3, 7), 10)


def _eliminate(rows):
    rows = [list(r) for r in rows]
    size = len(rows)
    for c in range(size):
        pivot = rows[c]
        for i in range(size):
            if i != c and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], pivot)]


def _kernel() -> float:
    start = time.perf_counter()
    for _ in range(4):
        _eliminate(_SMALL)
    _eliminate(_LARGE)
    return time.perf_counter() - start


def probe() -> float:
    """Time the fixed kernel three times; returns the median, in seconds."""
    return sorted(_kernel() for _ in range(3))[1]
