"""Dense exact linear algebra over GF(q^2).

Includes the subfield solver at the heart of the existence scans,
`solve_split_nonzero`: given a system already split into its
{1, theta}-components over GF(q), it finds a solution whose coordinates all
lie in GF(q)*, or proves that none exists by exhausting the affine solution
coset.  `selfdual.PowerSumSystems` does the split and the re-check over
GF(q^2) (`check_subfield_solution`).
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


def rref(mat: Matrix) -> Tuple[Matrix, int, List[int]]:
    """Reduced row-echelon form; returns (R, rank, pivot columns)."""
    field = mat.field
    rows = [list(r) for r in mat.rows]
    nrows, ncols = len(rows), mat.ncols
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [e * inv for e in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Matrix(field, rows), len(pivots), pivots


def solve(mat: Matrix, b: Vector) -> Optional[Vector]:
    """One particular solution of M x = b (free variables zero), or None."""
    field = mat.field
    augmented = Matrix(field, [row + [bi] for row, bi in zip(mat.rows, b)])
    reduced, rank, pivots = rref(augmented)
    if mat.ncols in pivots:
        return None  # inconsistent
    x = [field.zero] * mat.ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced.rows[r][mat.ncols]
    return x


def matvec(mat: Matrix, x: Vector) -> Vector:
    field = mat.field
    out = []
    for row in mat.rows:
        acc = field.zero
        for a, xi in zip(row, x):
            if a and xi:
                acc = acc + a * xi
        out.append(acc)
    return out


def det(mat: Matrix) -> Element:
    """Determinant via Gaussian elimination (square matrices only)."""
    field = mat.field
    n = mat.nrows
    if n != mat.ncols:
        raise DimensionMismatch("determinant needs a square matrix")
    rows = [list(r) for r in mat.rows]
    result = field.one
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return field.zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            result = -result
        result = result * rows[c][c]
        inv = field.inv(rows[c][c])
        for i in range(c + 1, n):
            if rows[i][c]:
                factor = rows[i][c] * inv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[c])]
    return result


def _is_nonsingular(field: Field, rows: Sequence[Sequence[int]]) -> bool:
    """Whether the square matrix of canonical indices `rows` has nonzero
    determinant, by the elimination `det` does, without the determinant.

    Each step takes the first row with a nonzero leading entry as pivot,
    clears the leading column of the other rows and drops that column and
    the pivot row; a column with no nonzero entry left means singular.
    Multiplication runs through the log tables.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("nonsingularity test needs a square matrix")
    exp, log, neg, add = field._exp, field._log, field._neg_table, field._add_idx
    units = field.order - 1
    rows = list(rows)
    while rows:
        p = next((i for i, r in enumerate(rows) if r[0]), None)
        if p is None:
            return False
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
        rows = rest
    return True


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
    if any((ri - bi).value for ri, bi in zip(matvec(mat, x), b)):
        raise InternalConsistencyError("subfield solution failed its residual check")
