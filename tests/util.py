"""Shared helpers and independent brute-force oracles for the test suite.

`rref`, `solve`, `matvec` and `det` are the Element-level linear algebra the
library's integer elimination is compared against."""

import itertools
from functools import lru_cache

from hermgrs import CodeSpec, encode, field_for_q, hermitian_gram
from hermgrs.errors import DimensionMismatch
from hermgrs.linalg import (
    DEFAULT_COSET_BUDGET,
    Matrix,
    check_subfield_solution,
    solve_split_nonzero,
)
from hermgrs.poly import Poly


@lru_cache(maxsize=None)
def get_field(q):
    return field_for_q(q)


def brute_force_subfield_solutions(mat, b):
    """All x in (GF(q)*)^n with M x = b, by full enumeration."""
    field = mat.field
    nonzero_subfield = [x for x in field.subfield_elements() if x]
    out = []
    for x in itertools.product(nonzero_subfield, repeat=mat.ncols):
        residual = matvec(mat, list(x))
        if all((ri - bi).value == 0 for ri, bi in zip(residual, b)):
            out.append(list(x))
    return out


def min_distance_oracle(code):
    """Minimum weight over all nonzero codewords: every nonzero message
    polynomial, encoded with Element arithmetic."""
    f = code.field
    best = code.length
    for coeff_values in itertools.product(range(f.order), repeat=code.k):
        if not any(coeff_values):
            continue
        msg = Poly(f, [f.element(v) for v in coeff_values])
        weight = sum(1 for e in encode(code, msg) if e)
        if weight < best:
            best = weight
    return best


def min_weight_oracle(field, rows):
    """Minimum weight of m G over every nonzero message m, for G given as
    rows of canonical indices, with Element arithmetic (0 when some nonzero
    m gives the zero word)."""
    gen = [[field.element(v) for v in row] for row in rows]
    best = len(rows[0])
    for coeffs in itertools.product(list(field.elements()), repeat=len(gen)):
        if not any(coeffs):
            continue
        word = [field.zero] * len(rows[0])
        for c, row in zip(coeffs, gen):
            if c:
                word = [w + c * g for w, g in zip(word, row)]
        best = min(best, sum(1 for e in word if e))
    return best


def rref(mat):
    """Reduced row-echelon form with Element arithmetic; returns
    (R, rank, pivot columns)."""
    field = mat.field
    rows = [list(r) for r in mat.rows]
    nrows, ncols = len(rows), mat.ncols
    pivots = []
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


def solve(mat, b):
    """One particular solution of M x = b (free variables zero) by `rref`
    of the augmented matrix, or None."""
    field = mat.field
    augmented = Matrix(field, [row + [bi] for row, bi in zip(mat.rows, b)])
    reduced, rank, pivots = rref(augmented)
    if mat.ncols in pivots:
        return None  # inconsistent
    x = [field.zero] * mat.ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced.rows[r][mat.ncols]
    return x


def matvec(mat, x):
    """M x with Element arithmetic."""
    field = mat.field
    out = []
    for row in mat.rows:
        acc = field.zero
        for a, xi in zip(row, x):
            if a and xi:
                acc = acc + a * xi
        out.append(acc)
    return out


def det(mat):
    """Determinant by Gaussian elimination with Element arithmetic."""
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


def null_space(mat):
    """A basis of the right kernel of `mat`, one vector per free column."""
    field = mat.field
    reduced, rank, pivots = rref(mat)
    free = [c for c in range(mat.ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero] * mat.ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced.rows[r][fc]
        basis.append(vec)
    return basis


@lru_cache(maxsize=None)
def subfield_elements(field):
    """GF(q) as the fixed points of Frobenius, in ascending canonical index."""
    return [x for x in field.elements() if field.in_subfield(x)]


def subfield_components(x):
    """Write x = x0 + theta*x1 with x0, x1 in GF(q) (basis {1, theta})."""
    field = x.field
    theta = field.theta
    x1 = (x - field.frobenius(x)) / (theta - field.frobenius(theta))
    x0 = x - theta * x1
    return x0, x1


def split_to_subfield(mat, b):
    """Stack the {1, theta}-components of M x = b into an Element system
    over GF(q): the 2r x n matrix and its right-hand side."""
    rows0, rows1 = [], []
    b0, b1 = [], []
    for row, bi in zip(mat.rows, b):
        comps = [subfield_components(e) for e in row]
        rows0.append([c[0] for c in comps])
        rows1.append([c[1] for c in comps])
        bc = subfield_components(bi)
        b0.append(bc[0])
        b1.append(bc[1])
    return Matrix(mat.field, rows0 + rows1), b0 + b1


def split_columns(mat, b):
    """The split system of M x = b as `PowerSumSystems` builds it: each
    column and the right-hand side through `subfield_tables.split_vector`,
    giving 2r rows of compact GF(q) indices (x0-components, then x1)."""
    tables = mat.field.subfield_tables
    columns = [tables.split_vector(e.value for e in col) for col in zip(*mat.rows)]
    return [list(row) for row in zip(*columns)], tables.split_vector(e.value for e in b)


def solve_subfield(mat, b, budget=DEFAULT_COSET_BUDGET):
    """The library's subfield route on M x = b: split, `solve_split_nonzero`,
    then the re-check over GF(q^2).  The solution as Elements, or None."""
    field = mat.field
    rows, rhs = split_columns(mat, b)
    x = solve_split_nonzero(field.subfield_tables, rows, rhs, mat.ncols, budget)
    if x is None:
        return None
    solution = [field.element(field.subfield_tables.values[c]) for c in x]
    check_subfield_solution(mat, b, solution)
    return solution


def oracle_subfield_solve(mat, b):
    """The Element-level subfield solver, kept as the oracle of the integer
    kernel: split, `solve` and `null_space` (two eliminations), then the
    whole coset over GF(q) in ascending canonical order.

    Returns (lexicographically smallest solution in (GF(q)*)^n or None,
    coset dimension or None when the split system is inconsistent).
    """
    field = mat.field
    sub_mat, sub_b = split_to_subfield(mat, b)
    particular = solve(sub_mat, sub_b)
    if particular is None:
        return None, None
    basis = null_space(sub_mat)
    best = best_key = None
    for coeffs in itertools.product(subfield_elements(field), repeat=len(basis)):
        x = list(particular)
        for c, vec in zip(coeffs, basis):
            if c:
                x = [xi + c * vi for xi, vi in zip(x, vec)]
        if any(not xi for xi in x):
            continue
        key = tuple(xi.value for xi in x)
        if best_key is None or key < best_key:
            best, best_key = x, key
    return best, len(basis)


def span_system(field, locators, extended):
    """The span conditions' data with Element arithmetic: the matrix whose
    columns are the grid power vectors, and (exponent, power vector) for
    each target in the order they are tried."""
    q, n = field.q, len(locators)
    if extended:
        h = (n - 1) // 2
        span = [i + j * q for j in range(h) for i in range(h + 1)]
        span += [h * q + i for i in range(h)]
        targets = [h + 1, (h + 1) * q]
    else:
        half = n // 2
        span = [i + j * q for j in range(half) for i in range(half)]
        targets = [half + q, half * q + 1]

    def power(a, e):  # 0^0 = 1
        return field.from_dlog(field.dlog(a) * e) if a else (field.zero if e else field.one)

    columns = Matrix(field, [[power(a, e) for e in span] for a in locators])
    return columns, [(te, [power(a, te) for a in locators]) for te in targets]


def span_condition_oracle(field, locators, extended):
    """(holds, target exponent, witness) for the first target in the span,
    by `solve` on one target at a time."""
    columns, targets = span_system(field, locators, extended)
    for te, target in targets:
        x = solve(columns, target)
        if x is not None:
            return True, te, x
    return False, None, None


def brute_force_multiplier_exists(field, locators, extended=False):
    """Does any v in (GF(q^2)*)^n make the (E)GRS code Hermitian self-dual?

    Direct Gram-matrix enumeration, independent of the power-sum route.
    """
    n = len(locators)
    k = (n + 1) // 2 if extended else n // 2
    for values in itertools.product(range(1, field.order), repeat=n):
        code = CodeSpec(
            field=field,
            locators=tuple(locators),
            multipliers=tuple(field.element(v) for v in values),
            k=k,
            extended=extended,
        )
        if hermitian_gram(code).is_zero():
            return True
    return False


def random_element(rng, field):
    return field.element(rng.randrange(field.order))


def random_unit(rng, field):
    return field.element(rng.randrange(1, field.order))


def random_locators(rng, field, n):
    values = rng.sample(range(field.order), n)
    return tuple(field.element(v) for v in values)


def random_code(rng, field, n, extended=False):
    """A random (E)GRS code of self-dual shape with random multipliers."""
    k = (n + 1) // 2 if extended else n // 2
    return CodeSpec(
        field=field,
        locators=random_locators(rng, field, n),
        multipliers=tuple(random_unit(rng, field) for _ in range(n)),
        k=k,
        extended=extended,
    )


def random_matrix(rng, field, nrows, ncols):
    return Matrix(
        field,
        [[random_element(rng, field) for _ in range(ncols)] for _ in range(nrows)],
    )


def conjugate_coeffs(poly):
    """Apply Frobenius to every coefficient (an involution)."""
    f = poly.field
    return Poly(f, [f.frobenius(c) for c in poly.coeffs])


def compose_affine(poly, a, b):
    """Expand poly(a*x + b) by Horner over the linear argument."""
    f = poly.field
    linear = Poly(f, [b, a])
    acc = Poly.zero(f)
    for c in reversed(poly.coeffs):
        acc = acc * linear + Poly(f, [c])
    return acc


def beta_m_invalid(field, m):
    """The loop `family_Blm` used to run: does theta^m * a lie in V* for
    some a in V*, the nonzero trace-zero elements?"""
    vstar = field.trace_zero_set()[1:]
    values = {a.value for a in vstar}
    beta_m = field.from_dlog(m)
    return any((beta_m * a).value in values for a in vstar)
