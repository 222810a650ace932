"""Self-duality criteria, multiplier search, span conditions, and scans."""

import itertools
import os
import random
import subprocess
import sys

import pytest

import hermgrs
from hermgrs import (
    CodeSpec,
    build_criterion_matrix,
    criterion_direct,
    criterion_lemma1,
    criterion_lemma2,
    existence_scan,
    find_multipliers,
    hermitian_gram,
    span_condition_extended,
    span_condition_plain,
)
from hermgrs.errors import DimensionMismatch, DuplicateLocator
from hermgrs.selfdual import ScanEntry, ScanReport

from util import (
    brute_force_multiplier_exists,
    get_field,
    matvec,
    oracle_subfield_solve,
    random_code,
    random_locators,
    rref,
    span_condition_oracle,
    span_system,
)


def test_criterion_direct_example_q3():
    f = get_field(3)
    locs = (f.zero, f.theta ** 2)
    good = CodeSpec(f, locs, (f.one, f.theta), 1)
    assert criterion_direct(good)
    assert criterion_lemma1(good)
    bad = CodeSpec(f, locs, (f.one, f.one), 1)
    assert not criterion_direct(bad)
    assert not criterion_lemma1(bad)


def test_criterion_extended_single_locator():
    f = get_field(3)
    # n=1, k=1: need v^(q+1) = -1
    v = f.solve_norm(f.minus_one)
    code = CodeSpec(f, (f.zero,), (v,), 1, extended=True)
    assert criterion_direct(code)
    assert criterion_lemma2(code)
    bad = CodeSpec(f, (f.zero,), (f.one,), 1, extended=True)
    assert not criterion_direct(bad)
    assert not criterion_lemma2(bad)


def test_criterion_shape_errors():
    f = get_field(3)
    wrong = CodeSpec(f, (f.zero, f.one, f.theta), (f.one,) * 3, 1)
    with pytest.raises(DimensionMismatch):
        criterion_direct(wrong)
    plain = CodeSpec(f, (f.zero, f.one), (f.one, f.theta), 1)
    with pytest.raises(DimensionMismatch):
        criterion_lemma2(plain)
    ext = CodeSpec(f, (f.zero,), (f.one,), 1, extended=True)
    with pytest.raises(DimensionMismatch):
        criterion_lemma1(ext)


def test_criteria_permutation_invariant():
    rng = random.Random(501)
    f = get_field(3)
    for _ in range(40):
        code = random_code(rng, f, 4)
        perm = list(range(4))
        rng.shuffle(perm)
        shuffled = CodeSpec(
            f,
            tuple(code.locators[i] for i in perm),
            tuple(code.multipliers[i] for i in perm),
            code.k,
        )
        assert criterion_direct(code) == criterion_direct(shuffled)


def test_criteria_agree_exhaustively_small():
    f = get_field(3)
    # plain n=2: every locator pair x every multiplier pair
    for locs in itertools.combinations(f.elements(), 2):
        for vals in itertools.product(range(1, 9), repeat=2):
            code = CodeSpec(f, locs, tuple(f.element(v) for v in vals), 1)
            assert criterion_direct(code) == criterion_lemma1(code)
    # extended n=1: every locator x every multiplier
    for loc in f.elements():
        for v in range(1, 9):
            code = CodeSpec(f, (loc,), (f.element(v),), 1, extended=True)
            assert criterion_direct(code) == criterion_lemma2(code)


def test_criteria_agree_random_larger():
    rng = random.Random(502)
    for _ in range(300):
        f = get_field(rng.choice((3, 4)))
        if rng.random() < 0.5:
            code = random_code(rng, f, 4)
            assert criterion_direct(code) == criterion_lemma1(code)
        else:
            code = random_code(rng, f, 3, extended=True)
            assert criterion_direct(code) == criterion_lemma2(code)


def test_build_criterion_matrix_shapes():
    f = get_field(3)
    crit = build_criterion_matrix(f, (f.zero, f.one), extended=False)
    assert crit.matrix.nrows == 1 and crit.exponents == [0]
    assert crit.matrix.rows[0] == [f.one, f.one]  # 0^0 = 1
    assert all(not e for e in crit.rhs)
    crit = build_criterion_matrix(f, (f.zero,), extended=True)
    assert crit.matrix.nrows == 1 and crit.exponents == [0]
    assert crit.rhs == [f.minus_one]


def test_build_criterion_matrix_extended_rhs_position():
    f = get_field(3)
    locs = (f.zero, f.one, f.theta)
    crit = build_criterion_matrix(f, locs, extended=True)
    q, h = f.q, 1
    assert crit.matrix.nrows == 4
    assert crit.exponents == [0, 1, q, q + 1]
    assert crit.exponents[-1] == h * (q + 1)
    assert [e.value for e in crit.rhs[:-1]] == [0, 0, 0]
    assert crit.rhs[-1] == f.minus_one


def test_build_criterion_matrix_full_rank_at_n_2q():
    rng = random.Random(503)
    for q in (3, 4):
        f = get_field(q)
        for _ in range(5):
            locs = random_locators(rng, f, 2 * q)
            crit = build_criterion_matrix(f, locs, extended=False)
            _, rank, _ = rref(crit.matrix)
            assert rank == 2 * q


def test_build_criterion_matrix_duplicate_and_parity():
    f = get_field(3)
    with pytest.raises(DuplicateLocator):
        build_criterion_matrix(f, (f.one, f.one), extended=False)
    with pytest.raises(DimensionMismatch):
        build_criterion_matrix(f, (f.one, f.theta), extended=True)
    with pytest.raises(DimensionMismatch):
        build_criterion_matrix(f, (f.one,), extended=False)


def test_find_multipliers_example_q3():
    f = get_field(3)
    code = find_multipliers(f, (f.zero, f.theta ** 2))
    assert code is not None
    assert code.multipliers == (f.one, f.theta)
    assert hermitian_gram(code).is_zero()
    # norms of the two multipliers are negatives of each other
    assert f.norm(code.multipliers[0]) == -f.norm(code.multipliers[1])


def test_find_multipliers_negative_cases_q3():
    f = get_field(3)
    units6 = tuple(f.from_dlog(t) for t in range(6))
    assert find_multipliers(f, units6) is None
    units5 = tuple(f.from_dlog(t) for t in range(5))
    assert find_multipliers(f, units5, extended=True) is None


def test_find_multipliers_matches_bruteforce():
    f = get_field(3)
    cases = [
        ((f.zero, f.one), False),
        ((f.zero, f.theta ** 2), False),
        ((f.one, f.theta), False),
        ((f.zero, f.one, f.theta, f.theta ** 2), False),
        ((f.zero, f.theta ** 2, f.theta ** 4, f.theta ** 6), False),
        ((f.zero,), True),
        ((f.theta,), True),
        ((f.zero, f.one, f.theta ** 4), True),
        ((f.zero, f.theta ** 2, f.theta ** 6), True),
    ]
    for locs, extended in cases:
        found = find_multipliers(f, locs, extended=extended)
        oracle = brute_force_multiplier_exists(f, locs, extended=extended)
        assert (found is not None) == oracle


def test_span_condition_plain_subgroup():
    # on the norm-one subgroup the power vectors repeat with period q+1,
    # so the span condition holds at every even n up to q+1
    for q in (3, 4, 5):
        f = get_field(q)
        pool = sorted(f.norm_one_subgroup(), key=lambda a: a.value)
        for n in range(2, q + 2, 2):
            res = span_condition_plain(f, tuple(pool[:n]))
            assert res.holds and res.target_exponent is not None


def test_span_condition_plain_negative():
    f = get_field(3)
    # locators {0, 1}: the target vector (0, 1) is not a multiple of (1, 1)
    res = span_condition_plain(f, (f.zero, f.one))
    assert not res.holds


def test_span_condition_extended_full_subfield():
    # locators = all of GF(q), q >= 5: alpha^q = alpha folds the grid onto
    # enough consecutive powers to reach the target
    for q in (5, 7):
        f = get_field(q)
        locs = tuple(f.subfield_elements())
        res = span_condition_extended(f, locs)
        assert res.holds


def test_span_condition_extended_negative():
    f = get_field(5)
    locs = tuple(f.subfield_elements()[:3])
    assert not span_condition_extended(f, locs).holds


def test_span_condition_parity_errors():
    f = get_field(3)
    with pytest.raises(DimensionMismatch):
        span_condition_plain(f, (f.one,))
    with pytest.raises(DimensionMismatch):
        span_condition_extended(f, (f.one, f.theta))


@pytest.mark.parametrize("q, max_n", [(2, 4), (3, 9), (4, 4)])
def test_span_condition_matches_element_oracle(q, max_n):
    """The integer span path against the Element-level `solve`, on every
    subset of GF(q^2) up to max_n locators: plain at even n, extended at odd
    n.  The pool holds zero, and n = 1 extended has an empty span, so only
    the zero vector lies in it."""
    f = get_field(q)
    pool = list(f.elements())
    seen = set()
    for n in range(1, max_n + 1):
        extended = n % 2 == 1
        condition = span_condition_extended if extended else span_condition_plain
        for subset in itertools.combinations(pool, n):
            result = condition(f, subset)
            holds, target_exponent, witness = span_condition_oracle(f, subset, extended)
            assert (result.holds, result.target_exponent) == (holds, target_exponent), subset
            if holds:
                assert [e.value for e in result.witness] == [e.value for e in witness]
                columns, targets = span_system(f, subset, extended)
                residual = matvec(columns, result.witness)
                assert residual == dict(targets)[target_exponent], subset
            seen.add((extended, holds))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_existence_scan_counts_q3():
    f = get_field(3)
    report = existence_scan(f, 2, list(f.elements()))
    totals = report.totals
    assert totals["tested"] == 36
    assert totals["exists"] > 0
    for entry in report.entries:
        if entry.exists:
            assert entry.gram_checked and entry.multipliers is not None
        else:
            assert entry.multipliers is None


def test_existence_scan_nonexistence_q3_n6():
    f = get_field(3)
    report = existence_scan(f, 6, list(f.units()))
    assert report.totals == {"tested": 28, "exists": 0, "none": 28}


def test_existence_scan_nonexistence_q3_n5_extended():
    f = get_field(3)
    report = existence_scan(f, 5, list(f.units()), extended=True)
    assert report.totals == {"tested": 56, "exists": 0, "none": 56}


def test_existence_scan_to_dict():
    f = get_field(3)
    report = existence_scan(f, 2, f.trace_zero_set(), pool_description="trace-zero")
    data = report.to_dict()
    assert data["q"] == 3 and data["n"] == 2 and data["pool"] == "trace-zero"
    assert data["totals"]["tested"] == 3
    assert len(data["entries"]) == 3


def _union_pool(f):
    merged = {x.value: x for x in f.subfield_elements()}
    merged.update({x.value: x for x in f.trace_zero_set()})
    return [merged[v] for v in sorted(merged)]


@pytest.mark.parametrize(
    "q, pool_name, n, extended",
    [
        (3, "all", 4, False),
        (3, "all", 3, True),
        (4, "subfield-union-trace-zero", 2, False),
        (4, "subfield-union-trace-zero", 4, False),
        (4, "subfield-union-trace-zero", 3, True),
    ],
)
def test_existence_scan_column_cache_matches_find_multipliers(q, pool_name, n, extended):
    """A scan shares one split column per locator across its subsets; the
    report must equal one built from a find_multipliers call per subset,
    and each verdict must match the Element-level oracle.  The pools hold
    zero, whose power column starts with 0^0 = 1.  (In characteristic 2 the
    trace-zero set is GF(q), so the q=4 union pool is GF(4).)"""
    f = get_field(q)
    pool = list(f.elements()) if pool_name == "all" else _union_pool(f)
    assert any(not a for a in pool)
    report = existence_scan(f, n, pool, extended=extended, pool_description=pool_name)
    k = (n + 1) // 2 if extended else n // 2
    expected = ScanReport(f, n, k, extended, pool_name)
    for subset in itertools.combinations(sorted(pool, key=lambda a: a.value), n):
        code = find_multipliers(f, subset, extended=extended)
        crit = build_criterion_matrix(f, subset, extended)
        x, _ = oracle_subfield_solve(crit.matrix, crit.rhs)
        assert (code is None) == (x is None)
        if code is None:
            expected.entries.append(ScanEntry(subset, False))
        else:
            assert [f.norm(v) for v in code.multipliers] == x
            expected.entries.append(ScanEntry(subset, True, code.multipliers))
    assert report.to_dict() == expected.to_dict()
    assert report.totals["exists"] > 0


CORRUPTION_SCRIPT = """
import sys
from hermgrs import field_for_q, find_multipliers, linalg, selfdual
from hermgrs.errors import InternalConsistencyError
from hermgrs.field import Field
from hermgrs.linalg import Matrix, check_subfield_solution

f = field_for_q(3)
raised = []

def expect_error(label, call):
    try:
        call()
    except InternalConsistencyError:
        raised.append(label)

kernel = linalg.solve_split_nonzero

def corrupted(tables, *args, **kwargs):
    x = kernel(tables, *args, **kwargs)
    if x is not None:
        x[0] = tables.neg[x[0]]  # still in GF(q)*, no longer a solution
    return x

linalg.solve_split_nonzero = selfdual.solve_split_nonzero = corrupted
expect_error("residual", lambda: check_subfield_solution(Matrix(f, [[f.one, f.one]]), [f.zero], [f.one, f.one]))
expect_error("residual-search", lambda: find_multipliers(f, (f.zero, f.theta ** 2)))
linalg.solve_split_nonzero = selfdual.solve_split_nonzero = kernel

solve = selfdual._solve

def corrupted_span(field, rows, targets):
    solutions = solve(field, rows, targets)
    for x in solutions:
        if x:
            x[0] = field._add_idx(x[0], 1)  # no longer a solution
    return solutions

selfdual._solve = corrupted_span
subgroup = sorted(f.norm_one_subgroup(), key=lambda a: a.value)
expect_error("span", lambda: selfdual.span_condition_plain(f, tuple(subgroup[:2])))
selfdual._solve = solve

solve_norm = Field.solve_norm
Field.solve_norm = lambda self, c: self.theta * solve_norm(self, c)
expect_error("gram", lambda: find_multipliers(f, (f.zero,), extended=True))
Field.solve_norm = solve_norm
assert find_multipliers(f, (f.zero,), extended=True) is not None
print(sys.flags.optimize, " ".join(raised))
"""


def test_consistency_checks_survive_optimize():
    """Under python -O, a corrupted kernel solution, a corrupted span
    witness and a wrong norm preimage still raise InternalConsistencyError."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hermgrs.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    result = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTION_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "residual", "residual-search", "span", "gram"]
