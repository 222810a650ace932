"""Hermitian self-duality criteria, multiplier search, and existence scans.

Three independent routes decide self-duality:

* the direct route: the Hermitian Gram matrix of the generator rows is zero;
* the witness-polynomial route: for each message monomial there is an
  interpolant of low enough degree (plus a boundary coefficient condition in
  the extended case);
* the power-sum route: a structured linear system over GF(q^2) admits a
  solution vector with all coordinates in GF(q)*.

The power-sum route is constructive (it yields multipliers via norm lifting)
and, because the solution coset is enumerated exhaustively, its negative
answers are proofs of non-existence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, DuplicateLocator, InternalConsistencyError
from .field import Element, Field, make_field
from .grs import CodeSpec, hermitian_gram, u_vector
from .linalg import (
    DEFAULT_COSET_BUDGET,
    Matrix,
    _satisfies,
    _solve,
    check_subfield_solution,
    solve_split_nonzero,
)
from .poly import interpolate


@dataclass
class CriterionMatrix:
    """The power-sum system whose GF(q)* solvability decides self-duality.

    Exponents are kept as plain integers; they are reduced mod q^2-1 only
    when a nonzero locator is raised to them (0^0 evaluates to 1, so the
    all-ones row is correct even when a locator is zero).
    """

    matrix: Matrix
    rhs: List[Element]
    exponents: List[int]


@dataclass
class SpanConditionResult:
    """Outcome of the monomial span membership test."""

    holds: bool
    target_exponent: Optional[int] = None
    witness: Optional[List[Element]] = None


def _check_shape(code: CodeSpec) -> None:
    if code.extended:
        if code.n != 2 * code.k - 1:
            raise DimensionMismatch(
                f"extended self-dual shape needs n = 2k-1, got n={code.n}, k={code.k}"
            )
    else:
        if code.n != 2 * code.k:
            raise DimensionMismatch(
                f"self-dual shape needs n = 2k, got n={code.n}, k={code.k}"
            )


def criterion_direct(code: CodeSpec) -> bool:
    """Self-dual iff the Hermitian Gram matrix vanishes (dimension count
    upgrades self-orthogonality to self-duality for these shapes)."""
    _check_shape(code)
    return hermitian_gram(code).is_zero()


def criterion_lemma1(code: CodeSpec) -> bool:
    """Witness-polynomial criterion for plain codes with n = 2k.

    For each monomial message x^j the required witness, if it exists, is the
    unique interpolant through n points; additivity of the Frobenius map
    makes the monomial basis sufficient.
    """
    if code.extended:
        raise DimensionMismatch("plain-code criterion applied to an extended code")
    return _witness_criterion(code)


def criterion_lemma2(code: CodeSpec) -> bool:
    """Witness-polynomial criterion for extended codes with n = 2k-1.

    On top of the degree bound, the witness must have top coefficient 0 for
    monomials below x^(k-1) and -1 for x^(k-1) itself.
    """
    if not code.extended:
        raise DimensionMismatch("extended-code criterion applied to a plain code")
    return _witness_criterion(code)


def _witness_criterion(code: CodeSpec) -> bool:
    """The interpolation loop of `criterion_lemma1`/`criterion_lemma2`; an
    extended code also gets the top-coefficient test."""
    _check_shape(code)
    f = code.field
    u = u_vector(code.locators)
    for j in range(code.k):
        g = interpolate(f, [
            (a, f.norm(v) * f.pow(f.frobenius(a), j) / ui)
            for a, v, ui in zip(code.locators, code.multipliers, u)
        ])
        if g.degree > code.k - 1:
            return False
        if code.extended:
            required = f.minus_one if j == code.k - 1 else f.zero
            if g.coefficient(code.k - 1).value != required.value:
                return False
    return True


def _locator_power(field: Field, a: int, e: int) -> int:
    """a^e for the canonical index a, as a canonical index.  0^0 = 1; the
    exponent is reduced mod q^2-1 only for a nonzero locator."""
    if not a:
        return 1 if e == 0 else 0
    return field._exp[field._log[a] * e % (field.order - 1)]


def _grid_exponents(q: int, n: int, extended: bool) -> List[int]:
    """The exponents i + jq of the criterion rows, checking n's parity."""
    if extended:
        if n % 2 == 0:
            raise DimensionMismatch("extended criterion needs odd n")
        side = (n + 1) // 2
    else:
        if n % 2:
            raise DimensionMismatch("plain criterion needs even n")
        side = n // 2
    return [i + j * q for j in range(side) for i in range(side)]


def _check_distinct(locators: Sequence[Element]) -> None:
    values = [a.value for a in locators]
    if len(set(values)) != len(values):
        raise DuplicateLocator("locators must be distinct")


def build_criterion_matrix(
    field: Field, locators: Sequence[Element], extended: bool
) -> CriterionMatrix:
    """The exponent-grid system: rows alpha^(i+jq) over the half-size grid.

    Plain (n even): (n/2)^2 rows, zero right-hand side.  Extended (n odd):
    ((n+1)/2)^2 rows, right-hand side zero except -1 on the final row
    (exponent ((n-1)/2)(q+1)).
    """
    _check_distinct(locators)
    exponents = _grid_exponents(field.q, len(locators), extended)
    rows = [
        [Element(field, _locator_power(field, a.value, e)) for a in locators]
        for e in exponents
    ]
    rhs = [field.zero] * len(rows)
    if extended:
        rhs[-1] = field.minus_one
    return CriterionMatrix(Matrix(field, rows), rhs, exponents)


class PowerSumSystems:
    """The power-sum systems of the n-subsets of a locator pool, over GF(q).

    Row e of a system holds the locators' powers alpha^e, split into their
    {1, theta}-components.  Those components depend on the locator alone,
    so each locator's split column is computed once and a subset's system
    is a selection of columns.  The GF(q^2) criterion matrix is built only
    for a subset whose system has a solution, to re-check it.
    """

    def __init__(self, field: Field, n: int, extended: bool):
        self.field = field
        self.n = n
        self.extended = extended
        self.tables = field.subfield_tables
        self.exponents = _grid_exponents(field.q, n, extended)
        rhs = [0] * len(self.exponents)
        if extended:
            rhs[-1] = field.minus_one.value
        self.rhs = self.tables.split_vector(rhs)
        self._columns: Dict[int, List[int]] = {}

    def _column(self, a: Element) -> List[int]:
        column = self._columns.get(a.value)
        if column is None:
            column = self._columns[a.value] = self.tables.split_vector(
                _locator_power(self.field, a.value, e) for e in self.exponents
            )
        return column

    def find(
        self, locators: Sequence[Element], budget: int = DEFAULT_COSET_BUDGET
    ) -> Optional[CodeSpec]:
        """find_multipliers for one n-subset of the pool."""
        if len(locators) != self.n:
            raise DimensionMismatch(f"expected {self.n} locators, got {len(locators)}")
        _check_distinct(locators)
        rows = zip(*(self._column(a) for a in locators))
        x = solve_split_nonzero(self.tables, rows, self.rhs, self.n, budget)
        if x is None:
            return None
        field = self.field
        solution = [field.element(self.tables.values[c]) for c in x]
        crit = build_criterion_matrix(field, locators, self.extended)
        check_subfield_solution(crit.matrix, crit.rhs, solution)
        code = CodeSpec(
            field=field,
            locators=tuple(locators),
            multipliers=tuple(field.solve_norm(xi) for xi in solution),
            k=(self.n + 1) // 2 if self.extended else self.n // 2,
            extended=self.extended,
        )
        if not criterion_direct(code):
            raise InternalConsistencyError("norm lifting produced a non-self-dual code")
        return code


def find_multipliers(
    field: Field,
    locators: Sequence[Element],
    extended: bool = False,
    budget: int = DEFAULT_COSET_BUDGET,
) -> Optional[CodeSpec]:
    """Multipliers making the (E)GRS code on these locators self-dual.

    Solves the power-sum system for x in (GF(q)*)^n and lifts each x_i to a
    norm preimage v_i.  Returns None only after the whole solution coset has
    been exhausted, so None certifies non-existence for this locator vector.
    A found code is re-checked by the residual over GF(q^2) and by its Gram
    matrix; a failed re-check raises InternalConsistencyError.
    """
    return PowerSumSystems(field, len(locators), extended).find(locators, budget)


def _span_membership(
    field: Field,
    locators: Sequence[Element],
    span_exponents: Sequence[int],
    target_exponents: Sequence[int],
) -> SpanConditionResult:
    """Whether a target power vector lies in the span of the power vectors
    of `span_exponents`: the first target that does, with its coefficients
    as witness.  One elimination serves every target, and a witness is
    re-checked by its residual."""
    values = [a.value for a in locators]
    # one equation per locator position, one unknown per spanning vector
    rows = [[_locator_power(field, a, e) for e in span_exponents] for a in values]
    targets = [[_locator_power(field, a, te) for a in values] for te in target_exponents]
    for te, target, x in zip(target_exponents, targets, _solve(field, rows, targets)):
        if x is not None:
            if not _satisfies(field, rows, x, target):
                raise InternalConsistencyError("span witness failed its residual check")
            return SpanConditionResult(True, te, [Element(field, v) for v in x])
    return SpanConditionResult(False)


def span_condition_plain(field: Field, locators: Sequence[Element]) -> SpanConditionResult:
    """Membership of alpha^(n/2+q) or alpha^((n/2)q+1) in the span of the
    half-grid power vectors (n even)."""
    span_exponents = _grid_exponents(field.q, len(locators), False)
    half, q = len(locators) // 2, field.q
    return _span_membership(field, locators, span_exponents, [half + q, half * q + 1])


def span_condition_extended(field: Field, locators: Sequence[Element]) -> SpanConditionResult:
    """Membership of alpha^((n+1)/2) or alpha^(((n+1)/2)q) in the span of
    the grid power vectors without the last, alpha^(((n-1)/2)(q+1)) (n odd)."""
    span_exponents = _grid_exponents(field.q, len(locators), True)[:-1]
    side = (len(locators) + 1) // 2
    return _span_membership(field, locators, span_exponents, [side, side * field.q])


# ----- existence scans -----


@dataclass
class ScanEntry:
    locators: Tuple[Element, ...]
    exists: bool
    multipliers: Optional[Tuple[Element, ...]] = None

    @property
    def gram_checked(self) -> bool:
        """A found code has passed its Gram re-check: `PowerSumSystems.find`
        raises rather than return a code that fails it."""
        return self.exists


@dataclass
class ScanReport:
    """Result of an exhaustive existence sweep over locator subsets."""

    field: Field
    n: int
    k: int
    extended: bool
    pool_description: str
    entries: List[ScanEntry] = dc_field(default_factory=list)

    @property
    def totals(self) -> Dict[str, int]:
        exists = sum(1 for e in self.entries if e.exists)
        return {
            "tested": len(self.entries),
            "exists": exists,
            "none": len(self.entries) - exists,
        }

    def to_dict(self) -> Dict:
        f = self.field
        enc = lambda a: f.dlog(a) if a else -1
        return {
            "field": f.export_record(),
            "q": f.q,
            "n": self.n,
            "k": self.k,
            "extended": self.extended,
            "pool": self.pool_description,
            "entries": [
                {
                    "locators": [enc(a) for a in e.locators],
                    "exists": e.exists,
                    "multipliers": (
                        [f.dlog(v) for v in e.multipliers] if e.multipliers else None
                    ),
                    "gram_checked": e.gram_checked,
                }
                for e in self.entries
            ],
            "totals": self.totals,
        }


def existence_scan(
    field: Field,
    n: int,
    pool: Sequence[Element],
    extended: bool = False,
    budget: int = DEFAULT_COSET_BUDGET,
    pool_description: str = "",
    workers: int = 1,
) -> ScanReport:
    """Run find_multipliers over every n-subset of the pool.

    Subsets are canonicalized to ascending canonical index; the criteria are
    permutation-invariant, so this loses no generality.  The subsets share
    one PowerSumSystems, so each locator's split column is computed once.
    With workers > 1, chunks of subsets are searched in a process pool, one
    PowerSumSystems per chunk; the report is the same entry for entry.
    """
    ordered = sorted(pool, key=lambda a: a.value)
    k = (n + 1) // 2 if extended else n // 2
    report = ScanReport(
        field=field,
        n=n,
        k=k,
        extended=extended,
        pool_description=pool_description or f"{len(ordered)} elements",
    )
    subsets = itertools.combinations(ordered, n)
    if workers > 1:
        found = _search_in_processes(field, n, extended, budget, list(subsets), workers)
    else:
        found = _search(PowerSumSystems(field, n, extended), subsets, budget)
    for subset, multipliers in found:
        report.entries.append(ScanEntry(subset, multipliers is not None, multipliers))
    return report


def _search(
    systems: PowerSumSystems, subsets: Iterable[Tuple[Element, ...]], budget: int
) -> Iterator[Tuple[Tuple[Element, ...], Optional[Tuple[Element, ...]]]]:
    """(subset, multipliers or None) for each subset, in order."""
    for subset in subsets:
        code = systems.find(subset, budget)
        yield subset, (code.multipliers if code else None)


def _search_chunk(payload) -> List[Optional[List[int]]]:
    """Process-pool worker: multiplier canonical indices (or None) for a
    chunk of subsets given as canonical indices."""
    p, m, order, n, extended, budget, chunk = payload
    field = make_field(p, m, max_order=order)
    subsets = (tuple(field.element(v) for v in values) for values in chunk)
    return [
        None if multipliers is None else [v.value for v in multipliers]
        for _, multipliers in _search(PowerSumSystems(field, n, extended), subsets, budget)
    ]


def _search_in_processes(
    field: Field,
    n: int,
    extended: bool,
    budget: int,
    subsets: List[Tuple[Element, ...]],
    workers: int,
) -> Iterator[Tuple[Tuple[Element, ...], Optional[Tuple[Element, ...]]]]:
    """_search over a pool of worker processes, in the same order.  The
    workers are spawned, not forked, and rebuild the field from (p, m)."""
    import multiprocessing

    size = max(1, len(subsets) // (workers * 4))
    payloads = [
        (field.p, field.m, field.order, n, extended, budget,
         [tuple(a.value for a in s) for s in subsets[i : i + size]])
        for i in range(0, len(subsets), size)
    ]
    with multiprocessing.get_context("spawn").Pool(workers) as mp_pool:
        chunks = mp_pool.map(_search_chunk, payloads)
    results = itertools.chain.from_iterable(chunks)
    for subset, values in zip(subsets, results):
        yield subset, (None if values is None else tuple(field.element(v) for v in values))
