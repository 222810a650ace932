"""Exact linear algebra over GF(q^2) on canonical indices.

`Matrix` holds field elements at the API boundary; the routines below work
on rows of canonical indices through the field's log, exp, negation and
addition tables.

* `_eliminate` is the one Gaussian elimination over GF(q^2).  The MDS minor
  test (`_is_nonsingular`) and the span conditions (`_solve`) share it.
* `_dot` and `_satisfies` re-check a solution by its residual.
* `solve_split_nonzero` is the subfield solver at the heart of the
  existence scans: given a system already split into its
  {1, theta}-components over GF(q), it finds a solution whose coordinates
  all lie in GF(q)*, or proves that none exists by exhausting the affine
  solution coset.  `selfdual.PowerSumSystems` does the split and the
  re-check over GF(q^2) (`check_subfield_solution`).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatch,
    EnumerationBudgetExceeded,
    InternalConsistencyError,
)
from .field import Element, Field, SubfieldTables

DEFAULT_COSET_BUDGET = 10 ** 7

Vector = List[Element]


class Matrix:
    """Row-major matrix of field elements."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows: List[Vector]):
        self.field = field
        self.rows = rows
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def is_zero(self) -> bool:
        return all(not e for row in self.rows for e in row)

    def to_dlog_rows(self) -> List[List[int]]:
        """JSON encoding: dlog per entry, -1 for zero."""
        f = self.field
        return [
            [f.dlog(e) if e else -1 for e in row]
            for row in self.rows
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field is other.field
            and [[e.value for e in r] for r in self.rows]
            == [[e.value for e in r] for r in other.rows]
        )

    def __repr__(self) -> str:
        body = "\n".join("  [" + ", ".join(map(repr, r)) + "]" for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols},\n{body})"


def _eliminate(
    field: Field, rows: Sequence[Sequence[int]], width: int
) -> Tuple[List[Tuple[int, List[int]]], List[List[int]]]:
    """Gaussian elimination on the first `width` columns of `rows`, a matrix
    of canonical indices over GF(q^2); any further columns are carried.

    Each step takes the first remaining row with a nonzero entry in the
    column as pivot, clears that column in the other rows and drops it; a
    column with no nonzero entry left is free.  Returns (pivots, rest):
    pivots lists (column, pivot row from that column on, pivot entry first,
    not normalised) in increasing column order, and rest the rows left
    without a pivot, from column `width` on.  Multiplication runs through
    the log tables.
    """
    exp, log, neg, add = field._exp, field._log, field._neg_table, field._add_idx
    units = field.order - 1
    rows = list(rows)
    pivots = []
    for c in range(width):
        p = next((i for i, r in enumerate(rows) if r[0]), None)
        if p is None:
            rows = [r[1:] for r in rows]
            continue
        pivot = rows.pop(p)
        log_pivot = log[pivot[0]]
        rest = []
        for r in rows:
            if r[0]:
                # r - (r[0] / pivot[0]) * pivot, leading column dropped
                t = log[neg[r[0]]] - log_pivot
                r = [
                    add(x, exp[(log[y] + t) % units]) if y else x
                    for x, y in zip(r[1:], pivot[1:])
                ]
            else:
                r = r[1:]
            rest.append(r)
        pivots.append((c, pivot))
        rows = rest
    return pivots, rows


def _is_nonsingular(field: Field, rows: Sequence[Sequence[int]]) -> bool:
    """Whether the square matrix of canonical indices `rows` has full rank:
    a pivot in every column of `_eliminate`."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("nonsingularity test needs a square matrix")
    return len(_eliminate(field, rows, n)[0]) == n


def _solve(
    field: Field, rows: Sequence[Sequence[int]], targets: Sequence[Sequence[int]]
) -> List[Optional[List[int]]]:
    """For each target b, the solution x of A x = b whose free coordinates
    are zero, or None when A x = b is inconsistent.  A (`rows`) and each b
    hold canonical indices; one elimination of A serves every target.

    The pivot columns are the first columns independent of those before
    them, so x is the one that reduced row-echelon form would give.
    """
    width = len(rows[0]) if rows else 0
    augmented = [list(row) + [b[i] for b in targets] for i, row in enumerate(rows)]
    pivots, rest = _eliminate(field, augmented, width)
    exp, log, neg, add = field._exp, field._log, field._neg_table, field._add_idx
    units = field.order - 1
    solutions = []
    for k in range(len(targets)):
        if any(r[k] for r in rest):
            solutions.append(None)
            continue
        x = [0] * width
        for c, row in reversed(pivots):
            # back substitution: x_c = (b - sum_{j > c} a_j x_j) / a_c
            acc = add(row[width - c + k], neg[_dot(field, row[1 : width - c], x[c + 1 :])])
            x[c] = exp[(log[acc] - log[row[0]]) % units] if acc else 0
        solutions.append(x)
    return solutions


def _dot(field: Field, row: Sequence[int], x: Sequence[int]) -> int:
    """sum_j row[j] * x[j] over GF(q^2), on canonical indices."""
    exp, log, add = field._exp, field._log, field._add_idx
    units = field.order - 1
    acc = 0
    for a, b in zip(row, x):
        if a and b:
            acc = add(acc, exp[(log[a] + log[b]) % units])
    return acc


def _satisfies(
    field: Field, rows: Sequence[Sequence[int]], x: Sequence[int], b: Sequence[int]
) -> bool:
    """Whether A x = b, by integer dot products (the residual re-check)."""
    return all(_dot(field, row, x) == bi for row, bi in zip(rows, b))


def solve_split_nonzero(
    tables: SubfieldTables,
    rows: Iterable[Sequence[int]],
    rhs: Iterable[int],
    n: int,
    budget: int = DEFAULT_COSET_BUDGET,
) -> Optional[List[int]]:
    """The lexicographically smallest x in (GF(q)*)^n with A x = c, or None.

    A (rows, n columns) and c (rhs) hold compact GF(q) indices, and so does
    the returned x.  One augmented elimination gives both the particular
    solution and the kernel.  It takes the rows one at a time into a
    reduced row-echelon basis, and stops early once no solution can remain
    in (GF(q)*)^n: when a row reduces to 0 = c with c nonzero, or when every
    column has a pivot and the one solution left has a zero coordinate.
    The affine solution coset is then enumerated in ascending order of the
    free coordinates, leaving out only the vectors whose free coordinates
    are zero, since they cannot be in (GF(q)*)^n.  A None return is
    therefore a proof of non-existence for this system.
    """
    add, mul, neg, inv = tables.add, tables.mul, tables.neg, tables.inv
    reduced: Dict[int, List[int]] = {}  # pivot column -> row, pivot entry 1
    for row, c in zip(rows, rhs):
        r = list(row)
        r.append(c)
        for col, prow in reduced.items():
            factor = r[col]
            if factor:
                scale = mul[neg[factor]]
                r = [add[e][scale[g]] for e, g in zip(r, prow)]
        lead = next((j for j, e in enumerate(r) if e), None)
        if lead is None:
            continue
        if lead == n:
            return None  # inconsistent
        if r[lead] != 1:
            scale = mul[inv[r[lead]]]
            r = [scale[e] for e in r]
        for col, prow in reduced.items():
            factor = prow[lead]
            if factor:
                scale = mul[neg[factor]]
                reduced[col] = [add[e][scale[g]] for e, g in zip(prow, r)]
        reduced[lead] = r
        if len(reduced) == n and any(prow[n] == 0 for prow in reduced.values()):
            return None  # the unique solution has a zero coordinate
    free = [c for c in range(n) if c not in reduced]
    q = tables.q
    if q ** len(free) > budget:
        raise EnumerationBudgetExceeded(
            f"coset of size {q}^{len(free)} exceeds budget {budget}"
        )
    particular = [0] * n
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        basis.append(vec)
    for pc, prow in reduced.items():
        particular[pc] = prow[n]
        for vec, fc in zip(basis, free):
            vec[pc] = neg[prow[fc]]
    best: Optional[List[int]] = None
    for coeffs in itertools.product(range(1, q), repeat=len(free)):
        x = particular
        for c, vec in zip(coeffs, basis):
            scale = mul[c]
            x = [add[xi][scale[vi]] for xi, vi in zip(x, vec)]
        if 0 not in x and (best is None or x < best):
            best = x
    return best


def check_subfield_solution(mat: Matrix, b: Vector, x: Vector) -> None:
    """Raise unless x lies in (GF(q)*)^n and M x = b holds over GF(q^2)."""
    field = mat.field
    if not all(xi and field.in_subfield(xi) for xi in x):
        raise InternalConsistencyError("subfield solution has a coordinate outside GF(q)*")
    rows = [[e.value for e in row] for row in mat.rows]
    if not _satisfies(field, rows, [xi.value for xi in x], [bi.value for bi in b]):
        raise InternalConsistencyError("subfield solution failed its residual check")
