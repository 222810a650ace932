"""Linear algebra and subfield-solver tests."""

import random

import pytest

from hermgrs.errors import DimensionMismatch, EnumerationBudgetExceeded
from hermgrs.linalg import Matrix, _eliminate, _is_nonsingular, _solve

from util import (
    brute_force_subfield_solutions,
    det,
    get_field,
    matvec,
    null_space,
    oracle_subfield_solve,
    random_matrix,
    rref,
    solve,
    solve_subfield,
    split_columns,
    split_to_subfield,
    subfield_components,
    subfield_elements,
)


def _vandermonde(field, locators, nrows):
    return Matrix(
        field,
        [[field.pow(a, i) for a in locators] for i in range(nrows)],
    )


def test_rref_identity_and_zero():
    f = get_field(3)
    ident = Matrix(f, [[f.one, f.zero], [f.zero, f.one]])
    reduced, rank, pivots = rref(ident)
    assert reduced == ident and rank == 2 and pivots == [0, 1]
    zero = Matrix(f, [[f.zero, f.zero]])
    reduced, rank, pivots = rref(zero)
    assert rank == 0 and pivots == []


def test_rref_vandermonde_full_rank():
    f = get_field(3)
    locs = [f.zero, f.one, f.theta, f.theta ** 2]
    mat = _vandermonde(f, locs, 4)
    _, rank, _ = rref(mat)
    assert rank == 4


def test_rref_idempotent_random():
    rng = random.Random(201)
    for q in (3, 4, 5):
        f = get_field(q)
        for _ in range(20):
            mat = random_matrix(rng, f, rng.randrange(1, 5), rng.randrange(1, 5))
            reduced, rank, pivots = rref(mat)
            again, rank2, pivots2 = rref(reduced)
            assert again == reduced and rank2 == rank and pivots2 == pivots


def test_null_space_examples():
    f = get_field(3)
    ident = Matrix(f, [[f.one, f.zero], [f.zero, f.one]])
    assert null_space(ident) == []
    row = Matrix(f, [[f.one, f.one]])
    basis = null_space(row)
    assert len(basis) == 1
    assert all(not e for e in matvec(row, basis[0]))


def test_null_space_vandermonde_half_rows():
    f = get_field(3)
    locs = [f.zero, f.one, f.theta, f.theta ** 2]
    mat = _vandermonde(f, locs, 2)  # 2 x 4, full row rank
    basis = null_space(mat)
    assert len(basis) == 2
    for vec in basis:
        assert all(not e for e in matvec(mat, vec))


def test_null_space_dimension_theorem_random():
    rng = random.Random(202)
    for _ in range(30):
        f = get_field(rng.choice((3, 4, 5)))
        mat = random_matrix(rng, f, rng.randrange(1, 5), rng.randrange(1, 5))
        _, rank, _ = rref(mat)
        basis = null_space(mat)
        assert len(basis) == mat.ncols - rank
        for vec in basis:
            assert all(not e for e in matvec(mat, vec))


def test_solve_examples():
    f = get_field(3)
    mat = Matrix(f, [[f.one, f.one], [f.one, f.minus_one]])
    b = [f.theta, f.theta ** 5]
    x = solve(mat, b)
    assert x is not None
    assert all((r - bi).value == 0 for r, bi in zip(matvec(mat, x), b))
    # inconsistent system
    mat2 = Matrix(f, [[f.one, f.one], [f.one, f.one]])
    assert solve(mat2, [f.zero, f.one]) is None


def test_det_examples():
    f = get_field(3)
    a, b = f.theta, f.theta ** 2
    mat = Matrix(f, [[f.one, f.one], [a, b]])
    assert det(mat) == b - a
    singular = Matrix(f, [[a, a], [b, b]])
    assert not det(singular)


def test_det_multiplicative_random():
    rng = random.Random(203)
    f = get_field(4)
    for _ in range(20):
        m1 = random_matrix(rng, f, 3, 3)
        m2 = random_matrix(rng, f, 3, 3)
        prod = Matrix(
            f,
            [
                [
                    sum((m1.rows[i][t] * m2.rows[t][j] for t in range(3)), f.zero)
                    for j in range(3)
                ]
                for i in range(3)
            ],
        )
        assert det(prod) == det(m1) * det(m2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 243])
def test_is_nonsingular_matches_det(q):
    """The integer minor test against `det`, on random matrices and on
    singular ones (a row that is a multiple of another)."""
    rng = random.Random(204 + q)
    f = get_field(q)
    verdicts = set()
    for _ in range(40):
        size = rng.randrange(1, 6)
        mat = random_matrix(rng, f, size, size)
        if size > 1 and rng.random() < 0.4:
            c = f.element(rng.randrange(f.order))
            mat.rows[-1] = [c * e for e in mat.rows[0]]
        rows = [[e.value for e in row] for row in mat.rows]
        verdict = _is_nonsingular(f, rows)
        assert verdict == bool(det(mat)), rows
        verdicts.add(verdict)
    assert verdicts == {True, False}
    with pytest.raises(DimensionMismatch):
        _is_nonsingular(f, [[1, 1]])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 243])
def test_integer_elimination_matches_rref(q):
    """`_eliminate`'s rank and `_solve`'s solutions against the Element
    `rref` and `solve`, on random matrices, on singular ones (a row that is
    a multiple of another, a zero column) and with 0 columns, each with a
    consistent and a random right-hand side."""
    rng = random.Random(207 + q)
    f = get_field(q)
    seen = {"singular": 0, "inconsistent": 0, "free column": 0}
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(0, 6)
        mat = random_matrix(rng, f, nrows, ncols)
        if nrows > 1 and rng.random() < 0.4:
            c = f.element(rng.randrange(f.order))
            mat.rows[-1] = [c * e for e in mat.rows[0]]
        if ncols and rng.random() < 0.3:
            j = rng.randrange(ncols)
            for row in mat.rows:
                row[j] = f.zero
        rows = [[e.value for e in row] for row in mat.rows]
        _, rank, pivots = rref(mat)
        assert [col for col, _ in _eliminate(f, rows, ncols)[0]] == pivots
        consistent = matvec(mat, [f.element(rng.randrange(f.order)) for _ in range(ncols)])
        random_rhs = [f.element(rng.randrange(f.order)) for _ in range(nrows)]
        targets = [[e.value for e in b] for b in (consistent, random_rhs)]
        for b, x in zip((consistent, random_rhs), _solve(f, rows, targets)):
            expected = solve(mat, b)
            assert x == (None if expected is None else [e.value for e in expected])
            seen["inconsistent"] += x is None
        seen["singular"] += rank < min(nrows, ncols)
        seen["free column"] += rank < ncols
    assert all(seen.values()), seen


def test_subfield_components():
    for q in (3, 4, 5, 8):
        f = get_field(q)
        for x in f.elements():
            x0, x1 = subfield_components(x)
            assert f.in_subfield(x0) and f.in_subfield(x1)
            assert x0 + f.theta * x1 == x


def test_split_to_subfield_subfield_matrix():
    f = get_field(3)
    mat = Matrix(f, [[f.one, f.minus_one]])
    sub_mat, sub_b = split_to_subfield(mat, [f.zero])
    assert sub_mat.nrows == 2
    # the theta-component block of an all-subfield system is zero
    assert all(not e for e in sub_mat.rows[1])
    assert all(not e for e in sub_b)


def test_split_to_subfield_soundness_random():
    rng = random.Random(204)
    for _ in range(50):
        f = get_field(rng.choice((3, 4, 5)))
        n = rng.randrange(1, 4)
        mat = random_matrix(rng, f, rng.randrange(1, 4), n)
        x = [
            rng.choice(f.subfield_elements())
            for _ in range(n)
        ]
        b = matvec(mat, x)
        sub_mat, sub_b = split_to_subfield(mat, b)
        residual = matvec(sub_mat, x)
        assert all((r - bi).value == 0 for r, bi in zip(residual, sub_b))


def test_solve_in_subfield_nonzero_example():
    f = get_field(3)
    mat = Matrix(f, [[f.one, f.one]])
    sol = solve_subfield(mat, [f.zero])
    assert sol is not None
    # lexicographically smallest by canonical index: (1, 2)
    assert [x.value for x in sol] == [1, 2]


def test_solve_in_subfield_nonzero_none():
    f = get_field(3)
    ident = Matrix(f, [[f.one, f.zero], [f.zero, f.one]])
    assert solve_subfield(ident, [f.zero, f.zero]) is None


def test_solve_in_subfield_nonzero_budget():
    f = get_field(3)
    wide = Matrix(f, [[f.zero] * 20])
    with pytest.raises(EnumerationBudgetExceeded):
        solve_subfield(wide, [f.zero], budget=10 ** 6)


def test_solve_in_subfield_matches_bruteforce():
    rng = random.Random(205)
    cases = 0
    for _ in range(120):
        q = rng.choice((3, 4))
        f = get_field(q)
        n = rng.randrange(1, 4)
        mat = random_matrix(rng, f, rng.randrange(1, 4), n)
        b = [f.element(rng.randrange(f.order)) for _ in range(mat.nrows)]
        oracle = brute_force_subfield_solutions(mat, b)
        sol = solve_subfield(mat, b)
        if oracle:
            assert sol is not None
            best = min(tuple(x.value for x in s) for s in oracle)
            assert tuple(x.value for x in sol) == best
        else:
            assert sol is None
        cases += 1
    assert cases == 120


def _kernel_cases(rng, f):
    """Random systems of four kinds: random right-hand side (for larger q
    nearly always inconsistent), homogeneous, a planted solution in
    (GF(q)*)^n, and a single subfield row, whose coset has dimension n-1.
    Coset dimensions stay at most 1 for q > 9, so the oracle's q^d
    enumeration stays small."""
    q = f.q
    subfield = subfield_elements(f)
    for kind in ("random", "homogeneous", "planted", "subfield-row"):
        for _ in range(12):
            if kind == "subfield-row":
                n = rng.randrange(2, 4 if q <= 9 else 3)
                mat = Matrix(f, [[rng.choice(subfield[1:]) for _ in range(n)]])
            else:
                r = rng.randrange(1, 3)
                n = rng.randrange(1, 2 * r + (3 if q <= 9 else 2))
                mat = random_matrix(rng, f, r, n)
            if kind == "random":
                b = [f.element(rng.randrange(f.order)) for _ in range(mat.nrows)]
            elif kind == "homogeneous":
                b = [f.zero] * mat.nrows
            else:
                b = matvec(mat, [rng.choice(subfield[1:]) for _ in range(n)])
            yield kind, mat, b


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 243])
def test_kernel_matches_element_oracle(q):
    """The integer kernel against the Element-level solver it replaced."""
    f = get_field(q)
    tables = f.subfield_tables
    rng = random.Random(206 + q)
    seen = {"inconsistent": 0, "homogeneous": 0, "coset_dim>=1": 0, "lex_winner": 0}
    for kind, mat, b in _kernel_cases(rng, f):
        # the library's split agrees with the Element split
        rows, rhs = split_columns(mat, b)
        sub_mat, sub_b = split_to_subfield(mat, b)
        assert [[tables.values[c] for c in row] for row in rows] == [
            [e.value for e in row] for row in sub_mat.rows
        ]
        assert [tables.values[c] for c in rhs] == [e.value for e in sub_b]

        expected, dim = oracle_subfield_solve(mat, b)
        sol = solve_subfield(mat, b)
        if expected is None:
            assert sol is None
        else:
            assert sol is not None
            assert [x.value for x in sol] == [x.value for x in expected]
        seen["inconsistent"] += dim is None
        seen["homogeneous"] += kind == "homogeneous"
        seen["coset_dim>=1"] += dim is not None and dim >= 1
        if expected is not None and (q - 1) ** mat.ncols <= 512:
            solutions = brute_force_subfield_solutions(mat, b)
            assert min(tuple(x.value for x in s) for s in solutions) == tuple(
                x.value for x in sol
            )
            seen["lex_winner"] += len(solutions) > 1
    assert all(seen[name] for name in ("inconsistent", "homogeneous", "coset_dim>=1")), seen
    if 2 < q <= 9:  # GF(2)* has one element, so a solution is unique
        assert seen["lex_winner"], seen
