"""Generalized Reed-Solomon codes over GF(q^2) and their basic invariants.

A code is described by its locators (distinct field elements), its nonzero
column multipliers, its dimension k, and an `extended` flag adding the
coordinate at infinity (the leading message coefficient).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Sequence, Tuple

from .errors import (
    CombinatorialBudgetExceeded,
    DegreeTooHigh,
    DuplicateLocator,
    EnumerationBudgetExceeded,
    InputError,
    InternalConsistencyError,
)
from .field import Element, Field
from .linalg import Matrix, _is_nonsingular
from .poly import Poly

DEFAULT_CODEWORD_BUDGET = 10 ** 6
DEFAULT_MINOR_BUDGET = 10 ** 5
# below this message count is_mds also brute-forces the distance as a
# second, independent check
MDS_CROSSCHECK_LIMIT = 10 ** 4


@dataclass(frozen=True)
class CodeSpec:
    """One (extended) GRS code: locators, multipliers, dimension, flag."""

    field: Field
    locators: Tuple[Element, ...]
    multipliers: Tuple[Element, ...]
    k: int
    extended: bool = False

    def __post_init__(self):
        object.__setattr__(self, "locators", tuple(self.locators))
        object.__setattr__(self, "multipliers", tuple(self.multipliers))
        values = [a.value for a in self.locators]
        if len(set(values)) != len(values):
            raise DuplicateLocator("code locators must be distinct")
        if len(self.multipliers) != len(self.locators):
            raise ValueError("need one multiplier per locator")
        if any(not v for v in self.multipliers):
            raise ValueError("column multipliers must be nonzero")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"dimension k={self.k} out of range for n={self.n}")

    @property
    def n(self) -> int:
        return len(self.locators)

    @property
    def length(self) -> int:
        """Block length including the infinity coordinate, if any."""
        return self.n + 1 if self.extended else self.n

    def parameters(self) -> Tuple[int, int, int]:
        """(length, dimension, designed distance)."""
        return self.length, self.k, self.length - self.k + 1


def u_vector(locators: Sequence[Element]) -> Tuple[Element, ...]:
    """u_i = inverse of prod_{j != i} (alpha_i - alpha_j).

    The empty product for n = 1 is 1, so single-locator extended codes are
    handled uniformly.
    """
    values = [a.value for a in locators]
    if len(set(values)) != len(values):
        raise DuplicateLocator("locators must be distinct")
    field = locators[0].field
    out = []
    for i, ai in enumerate(locators):
        prod = field.one
        for j, aj in enumerate(locators):
            if j != i:
                prod = prod * (ai - aj)
        out.append(field.inv(prod))
    return tuple(out)


def generator_matrix(code: CodeSpec) -> Matrix:
    """k x n (or k x (n+1) extended, final column e_k) generator matrix."""
    f = code.field
    return Matrix(f, [[Element(f, v) for v in row] for row in _generator_rows(code)])


def _generator_rows(code: CodeSpec) -> List[List[int]]:
    """The generator matrix as canonical indices: row i holds v_j * a_j^i,
    then, for an extended code, the i-th entry of e_k."""
    f = code.field
    exp, log = f._exp, f._log
    units = f.order - 1
    rows = []
    for i in range(code.k):
        row = [
            exp[(log[v.value] + i * log[a.value]) % units] if a or i == 0 else 0
            for a, v in zip(code.locators, code.multipliers)
        ]
        if code.extended:
            row.append(1 if i == code.k - 1 else 0)
        rows.append(row)
    return rows


def encode(code: CodeSpec, message: Poly) -> List[Element]:
    """Evaluate a message polynomial of degree <= k-1 into a codeword."""
    if message.degree > code.k - 1:
        raise DegreeTooHigh(
            f"message degree {message.degree} exceeds k-1 = {code.k - 1}"
        )
    word = [v * message.eval(a) for a, v in zip(code.locators, code.multipliers)]
    if code.extended:
        word.append(message.coefficient(code.k - 1))
    return word


def hermitian_gram(code: CodeSpec) -> Matrix:
    """G conj(G)^T where conj is the entrywise Frobenius map."""
    f = code.field
    gen = generator_matrix(code)
    conj_rows = [[f.frobenius(e) for e in row] for row in gen.rows]
    out = []
    for ri in gen.rows:
        out.append(
            [
                _dot(f, ri, cj)
                for cj in conj_rows
            ]
        )
    return Matrix(f, out)


def _dot(f: Field, x: Sequence[Element], y: Sequence[Element]) -> Element:
    acc = f.zero
    for a, b in zip(x, y):
        if a and b:
            acc = acc + a * b
    return acc


def min_distance_bruteforce(
    code: CodeSpec, budget: int = DEFAULT_CODEWORD_BUDGET
) -> int:
    """Minimum weight over all nonzero codewords, by exhaustive enumeration.

    The budget bounds the full message count order**k, although only one
    message per projective point is encoded (see `_min_weight`).
    """
    f = code.field
    messages = f.order ** code.k
    if messages > budget:
        raise EnumerationBudgetExceeded(
            f"{messages} message polynomials exceed budget {budget}"
        )
    return _min_weight(f, _generator_rows(code))


def _min_weight(field: Field, rows: Sequence[Sequence[int]]) -> int:
    """Minimum weight of m G over nonzero messages m, for the k x N matrix G
    of canonical indices `rows` (0 when G has rank below k).

    Only normalised messages are encoded: those whose highest-index nonzero
    coefficient m_t is 1.  This is exact.  Every nonzero m equals m_t * m'
    for exactly one normalised m' (m' = m / m_t; m_t is fixed by m), and
    m G = m_t (m' G) has the same zero coordinates as m' G because m_t is a
    unit.  So the minimum over the (order**k - 1) nonzero messages is the
    minimum over the (order**k - 1) / (order - 1) normalised ones.

    The walk is depth-first.  A normalised message is reached from row t by
    adding unit multiples of lower rows in decreasing row order, so each is
    visited once, and only the codewords on the current path (at most k
    vectors of length N) are kept.  The unit multiples of rows 0..k-2 are
    tabulated once; row k-1 only ever enters with coefficient 1.
    """
    k = len(rows)
    length = len(rows[0])
    exp, log = field._exp, field._log
    units = field.order - 1
    multiples = [
        [
            [exp[(log[e] + t) % units] if e else 0 for e in row]
            for t in range(units)
        ]
        for row in rows[: k - 1]
    ]
    table = field._add_table
    if table is not None:
        def plus(x, y):
            return [table[a][b] for a, b in zip(x, y)]
    else:
        add = field._add_idx

        def plus(x, y):
            return list(map(add, x, y))

    best = length

    def walk(word, below):
        nonlocal best
        weight = length - word.count(0)
        if weight < best:
            best = weight
        for i in range(below):
            for multiple in multiples[i]:
                walk(plus(word, multiple), i)

    for top in range(k):
        walk(rows[top], top)
    return best


def is_mds(code: CodeSpec, minor_budget: int = DEFAULT_MINOR_BUDGET) -> bool:
    """True iff every k x k minor of the generator matrix is nonzero.

    When the message space is small enough the brute-force distance is also
    computed and must agree, as an independent check; a disagreement raises
    InternalConsistencyError.  Both checks run on canonical indices.
    """
    rows = _generator_rows(code)
    ncols = len(rows[0])
    count = math.comb(ncols, code.k)
    if count > minor_budget:
        raise CombinatorialBudgetExceeded(
            f"{count} minors exceed budget {minor_budget}"
        )
    f = code.field
    ok = all(
        _is_nonsingular(f, [[row[c] for c in cols] for row in rows])
        for cols in itertools.combinations(range(ncols), code.k)
    )
    if f.order ** code.k <= MDS_CROSSCHECK_LIMIT:
        dist = min_distance_bruteforce(code)
        if ok != (dist == code.length - code.k + 1):
            raise InternalConsistencyError(
                "minor test and brute-force distance disagree"
            )
    return ok


# ----- JSON schema -----


def code_to_dict(code: CodeSpec) -> Dict:
    f = code.field
    return {
        "q": f.q,
        "field": f.export_record(),
        "locators": [f.dlog(a) if a else -1 for a in code.locators],
        "multipliers": [f.dlog(v) for v in code.multipliers],
        "k": code.k,
        "extended": code.extended,
    }


def code_from_dict(data: Dict) -> CodeSpec:
    """The code of a `code_to_dict` record; a record that is not an object,
    lacks a key or holds a value of the wrong type raises InputError."""
    if not isinstance(data, dict):
        raise InputError("a code record must be a JSON object")
    for key, kind in (
        ("q", int), ("field", str), ("locators", list), ("multipliers", list),
        ("k", int), ("extended", bool),
    ):
        if key not in data:
            raise InputError(f"code record has no {key!r}")
        if type(data[key]) is not kind:  # not isinstance: true is no k
            raise InputError(
                f"code record {key!r} must be {kind.__name__}, "
                f"got {type(data[key]).__name__}"
            )
    f = Field.from_record(data["field"])
    if f.q != data["q"]:
        raise ValueError("field record does not match declared q")
    locators = tuple(f.from_dlog_input(t, allow_zero=True) for t in data["locators"])
    multipliers = tuple(f.from_dlog_input(t) for t in data["multipliers"])
    return CodeSpec(
        field=f,
        locators=locators,
        multipliers=multipliers,
        k=data["k"],
        extended=data["extended"],
    )
