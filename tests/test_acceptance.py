"""Acceptance suite: one check per release gate, each printing PASS or FAIL.

Every check re-derives its expected values from first principles (brute-force
oracles, closed-form counts) rather than trusting the library under test.
"""

import itertools
import random
import time

from hermgrs import (
    CodeSpec,
    construct_theorem1,
    construct_theorem2,
    construct_theorem3,
    criterion_direct,
    criterion_lemma1,
    criterion_lemma2,
    encode,
    existence_scan,
    family_B,
    family_Blm,
    family_S,
    find_multipliers,
    hermitian_gram,
    interpolate,
    is_mds,
    u_vector,
)
from hermgrs.cli import sweep_conditional_theorem
from hermgrs.poly import Poly

from util import (
    brute_force_multiplier_exists,
    brute_force_subfield_solutions,
    get_field,
    matvec,
    random_code,
    random_element,
    random_locators,
    random_matrix,
    solve_subfield,
    split_to_subfield,
)


def _report(capsys, number, label, ok, elapsed=None):
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    line = f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}{timing}"
    with capsys.disabled():  # the line must reach the real stdout
        print(line, flush=True)
    assert ok, f"acceptance check {number} ({label}) failed"


def _dlogs(field, elements):
    return {field.dlog(x) if x else -1 for x in elements}


def test_acceptance_1_family_sets_q3(capsys):
    start = time.perf_counter()
    f = get_field(3)
    ok = True
    ok &= _dlogs(f, f.trace_zero_set()) == {-1, 2, 6}
    ok &= _dlogs(f, f.subfield_elements()) == {-1, 0, 4}
    ok &= _dlogs(f, family_B(f, 1).elements) == {-1, 2, 6}
    ok &= _dlogs(f, family_B(f, 2).elements) == {1, 3, 4}
    ok &= _dlogs(f, family_B(f, 3).elements) == {0, 5, 7}
    ok &= _dlogs(f, family_Blm(f, 1, 1).elements) == {-1, 3, 7}
    ok &= _dlogs(f, family_Blm(f, 2, 1).elements) == {2, 4, 5}
    ok &= _dlogs(f, family_Blm(f, 3, 1).elements) == {0, 1, 6}
    ok &= _dlogs(f, family_S(f, 0, f.zero).elements) == {-1, 0, 4}
    ok &= _dlogs(f, family_S(f, 4, f.zero).elements) == {-1, 2, 6}
    elapsed = time.perf_counter() - start
    _report(capsys, 1, "q=3 family sets", ok and elapsed < 1.0, elapsed)


def _theorem1_parameter_grid(field):
    q = field.q
    es = [0]
    if q % 2:
        es.append((field.order - 1) // 2)
    else:
        es.extend([q - 1, 2 * (q - 1)])
    for e in es:
        shifts = [
            b for b in field.elements()
            if len(family_S(field, e, b).elements) == q
        ]
        for b in shifts[:2]:
            yield e, b


def test_acceptance_2_construction_soundness(capsys):
    start = time.perf_counter()
    built = 0
    ok = True
    for q in (3, 4, 5, 7, 8):
        f = get_field(q)
        codes = []
        for e, b in _theorem1_parameter_grid(f):
            for n in range(2, q + 1):
                codes.append(construct_theorem1(f, e, b, n, extended=bool(n % 2)))
        for l in range(1, q + 1):
            for n in range(2, q + 1):
                codes.append(construct_theorem2(f, l, n, extended=bool(n % 2)))
        for l in range(1, q + 1):
            for m in (1, 2, q):
                for n in range(2, q + 1):
                    codes.append(
                        construct_theorem3(f, l, m, n, extended=bool(n % 2))
                    )
        for code in codes:
            lemma = (
                criterion_lemma2(code) if code.extended else criterion_lemma1(code)
            )
            length, k, d = code.parameters()
            ok &= (
                criterion_direct(code)
                and lemma
                and is_mds(code)
                and length == 2 * k
                and d == k + 1
            )
            built += 1
    elapsed = time.perf_counter() - start
    _report(
        capsys,
        2,
        f"construction soundness ({built} codes)",
        ok and built >= 300 and elapsed < 30.0,
        elapsed,
    )


def test_acceptance_3_nonexistence_plain(capsys):
    start = time.perf_counter()
    f = get_field(3)
    report = existence_scan(f, 6, list(f.units()))
    ok = report.totals == {"tested": 28, "exists": 0, "none": 28}
    elapsed = time.perf_counter() - start
    _report(capsys, 3, "q=3 n=6 non-existence", ok and elapsed < 10.0, elapsed)

    start = time.perf_counter()
    f4 = get_field(4)
    stretch = existence_scan(f4, 8, list(f4.units()))
    ok = stretch.totals == {"tested": 6435, "exists": 0, "none": 6435}
    elapsed = time.perf_counter() - start
    _report(capsys, 3, "q=4 n=8 non-existence (stretch)", ok and elapsed < 600.0, elapsed)


def test_acceptance_4_nonexistence_extended(capsys):
    start = time.perf_counter()
    f = get_field(3)
    report = existence_scan(f, 5, list(f.units()), extended=True)
    ok = report.totals == {"tested": 56, "exists": 0, "none": 56}
    elapsed = time.perf_counter() - start
    _report(capsys, 4, "q=3 n=5 extended non-existence", ok and elapsed < 10.0, elapsed)


def test_acceptance_5_criterion_equivalence(capsys):
    start = time.perf_counter()
    f = get_field(3)
    disagreements = 0
    cases = 0

    # exhaustive: every locator pair x every multiplier pair (plain n=2)
    for locs in itertools.combinations(f.elements(), 2):
        for vals in itertools.product(range(1, 9), repeat=2):
            code = CodeSpec(f, locs, tuple(f.element(v) for v in vals), 1)
            disagreements += criterion_direct(code) != criterion_lemma1(code)
            cases += 1
        found = find_multipliers(f, locs)
        oracle = brute_force_multiplier_exists(f, locs)
        disagreements += (found is not None) != oracle
        cases += 1

    # exhaustive: every locator x every multiplier (extended n=1)
    for loc in f.elements():
        for v in range(1, 9):
            code = CodeSpec(f, (loc,), (f.element(v),), 1, extended=True)
            disagreements += criterion_direct(code) != criterion_lemma2(code)
            cases += 1
        found = find_multipliers(f, (loc,), extended=True)
        oracle = brute_force_multiplier_exists(f, (loc,), extended=True)
        disagreements += (found is not None) != oracle
        cases += 1

    # randomized: n = 4 plain and n = 3 extended
    rng = random.Random(701)
    for _ in range(1000):
        code = random_code(rng, f, 4)
        disagreements += criterion_direct(code) != criterion_lemma1(code)
        cases += 1
    for _ in range(1000):
        code = random_code(rng, f, 3, extended=True)
        disagreements += criterion_direct(code) != criterion_lemma2(code)
        cases += 1

    # matrix-route existence vs brute force on sampled larger locator sets
    for _ in range(5):
        locs = random_locators(rng, f, 3)
        found = find_multipliers(f, locs, extended=True)
        oracle = brute_force_multiplier_exists(f, locs, extended=True)
        disagreements += (found is not None) != oracle
        cases += 1

    elapsed = time.perf_counter() - start
    _report(
        capsys,
        5,
        f"criterion equivalence ({cases} cases)",
        disagreements == 0 and cases >= 2000,
        elapsed,
    )


def test_acceptance_6_subfield_solver_oracle(capsys):
    start = time.perf_counter()
    rng = random.Random(702)
    mismatches = 0
    cases = 0
    for _ in range(220):
        q = rng.choice((3, 4))
        f = get_field(q)
        n = rng.randrange(1, 5)
        mat = random_matrix(rng, f, rng.randrange(1, 5), n)
        b = [f.element(rng.randrange(f.order)) for _ in range(mat.nrows)]
        oracle = brute_force_subfield_solutions(mat, b)
        sol = solve_subfield(mat, b)
        if oracle:
            best = min(tuple(x.value for x in s) for s in oracle)
            if sol is None or tuple(x.value for x in sol) != best:
                mismatches += 1
        elif sol is not None:
            mismatches += 1
        cases += 1
    elapsed = time.perf_counter() - start
    _report(
        capsys,
        6,
        f"subfield solver vs oracle ({cases} systems)",
        mismatches == 0 and cases >= 200,
        elapsed,
    )


def test_acceptance_7_conditional_theorems(capsys):
    start = time.perf_counter()
    ok = True
    for q in (3, 5):
        f = get_field(q)
        for extended in (False, True):
            sweep = sweep_conditional_theorem(f, extended)
            ok &= sweep["violations"] == []
            positive_pool = "subfield" if extended else "subgroup"
            witnessed = [
                row for row in sweep["results"] if row["pool"] == positive_pool
            ]
            ok &= len(witnessed) > 0
            # on the positive-side pool every admissible subset admits a code
            ok &= all(
                row["exists"] == row["tested"] > 0 for row in witnessed
            )
    elapsed = time.perf_counter() - start
    _report(capsys, 7, "conditional theorems q=3,5", ok and elapsed < 300.0, elapsed)


def test_acceptance_8_property_suite(capsys):
    start = time.perf_counter()
    rng = random.Random(703)
    qs = (3, 4, 5, 7, 8, 9)
    cases = 0
    ok = True

    for q in qs:
        f = get_field(q)
        # field axioms
        for _ in range(500):
            a, b, c = (random_element(rng, f) for _ in range(3))
            ok &= a + b == b + a and a * b == b * a
            ok &= (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
            ok &= a * (b + c) == a * b + a * c
            ok &= (a + (-a)).value == 0
            if a:
                ok &= (a * f.inv(a)).value == 1
            cases += 1
        # Frobenius is an order-two field automorphism
        for _ in range(400):
            a, b = random_element(rng, f), random_element(rng, f)
            ok &= f.frobenius(a + b) == f.frobenius(a) + f.frobenius(b)
            ok &= f.frobenius(a * b) == f.frobenius(a) * f.frobenius(b)
            ok &= f.frobenius(f.frobenius(a)) == a
            cases += 1
        # discrete-log round-trip and norm fibre sizes over all units
        fibres = {}
        for x in f.units():
            ok &= f.from_dlog(f.dlog(x)) == x
            nx = f.norm(x)
            ok &= f.in_subfield(nx) and f.in_subfield(f.trace(x))
            fibres[nx.value] = fibres.get(nx.value, 0) + 1
            cases += 1
        ok &= all(c == q + 1 for c in fibres.values()) and len(fibres) == q - 1
        # interpolation round-trip
        for _ in range(150):
            n = rng.randrange(1, 5)
            xs = rng.sample(range(f.order), n)
            p = Poly(f, [random_element(rng, f) for _ in range(n)])
            pts = [(f.element(x), p.eval(f.element(x))) for x in xs]
            ok &= interpolate(f, pts) == p
            cases += 1
        # u-vector defining identity
        for _ in range(150):
            n = rng.randrange(2, 6)
            locs = random_locators(rng, f, n)
            u = u_vector(locs)
            for i, ai in enumerate(locs):
                prod = f.one
                for j, aj in enumerate(locs):
                    if j != i:
                        prod = prod * (ai - aj)
                ok &= (u[i] * prod).value == 1
            cases += 1
        # encoding is linear and the Gram form detects it
        for _ in range(100):
            n = rng.choice((2, 4))
            code = random_code(rng, f, n)
            m1 = Poly(f, [random_element(rng, f) for _ in range(code.k)])
            m2 = Poly(f, [random_element(rng, f) for _ in range(code.k)])
            w1, w2 = encode(code, m1), encode(code, m2)
            w12 = encode(code, m1 + m2)
            ok &= all((x + y) == z for x, y, z in zip(w1, w2, w12))
            cases += 1
        # self-duality is invariant under locator permutation
        for _ in range(100):
            code = random_code(rng, f, 4)
            perm = rng.sample(range(4), 4)
            shuffled = CodeSpec(
                f,
                tuple(code.locators[i] for i in perm),
                tuple(code.multipliers[i] for i in perm),
                code.k,
            )
            ok &= criterion_direct(code) == criterion_direct(shuffled)
            cases += 1
        # Gram form is Hermitian: B(x, y) = B(y, x)^q entrywise
        for _ in range(100):
            code = random_code(rng, f, rng.choice((2, 4)))
            gram = hermitian_gram(code)
            for i in range(gram.nrows):
                for j in range(gram.ncols):
                    ok &= gram.rows[i][j] == f.frobenius(gram.rows[j][i])
            cases += 1
        # scaling all multipliers by a norm-one factor preserves the verdict
        for _ in range(100):
            code = random_code(rng, f, 2)
            factor = f.from_dlog((q - 1) * rng.randrange(q + 1))
            scaled = CodeSpec(
                f,
                code.locators,
                tuple(factor * v for v in code.multipliers),
                code.k,
            )
            ok &= criterion_direct(code) == criterion_direct(scaled)
            cases += 1

    # split-system soundness across random subfield vectors
    for _ in range(600):
        q = rng.choice((3, 4, 5))
        f = get_field(q)
        n = rng.randrange(1, 4)
        mat = random_matrix(rng, f, rng.randrange(1, 4), n)
        x = [rng.choice(f.subfield_elements()) for _ in range(n)]
        b = matvec(mat, x)
        sub_mat, sub_b = split_to_subfield(mat, b)
        residual = matvec(sub_mat, x)
        ok &= all((r - bi).value == 0 for r, bi in zip(residual, sub_b))
        cases += 1

    elapsed = time.perf_counter() - start
    _report(
        capsys,
        8,
        f"property suite ({cases} cases)",
        ok and cases >= 10 ** 4,
        elapsed,
    )
