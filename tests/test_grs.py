"""GRS/EGRS code objects, u-vector identities, and invariants."""

import os
import random
import subprocess
import sys

import pytest

import hermgrs

from hermgrs import (
    CodeSpec,
    code_from_dict,
    code_to_dict,
    encode,
    generator_matrix,
    hermitian_gram,
    is_mds,
    min_distance_bruteforce,
    u_vector,
)
from hermgrs.constructions import construct_theorem2, family_B
from hermgrs.errors import (
    DegreeTooHigh,
    DuplicateLocator,
    EnumerationBudgetExceeded,
    InputError,
)
from hermgrs.field import Field
from hermgrs.grs import _min_weight
from hermgrs.poly import Poly

from util import (
    get_field,
    min_distance_oracle,
    min_weight_oracle,
    random_code,
    random_locators,
)


def test_u_vector_two_points():
    f = get_field(3)
    a, b = f.theta, f.theta ** 2
    u = u_vector([a, b])
    assert u[0] == f.inv(a - b)
    assert u[1] == f.inv(b - a)


def test_u_vector_example_q3():
    f = get_field(3)
    u = u_vector([f.zero, f.theta ** 2])
    assert u == (f.theta ** 2, f.theta ** 6)


def test_u_vector_single_locator():
    f = get_field(3)
    assert u_vector([f.theta]) == (f.one,)


def test_u_vector_duplicate():
    f = get_field(3)
    with pytest.raises(DuplicateLocator):
        u_vector([f.one, f.one])


def test_u_vector_defining_identity_random():
    # u_i * prod_{j != i}(a_i - a_j) = 1
    rng = random.Random(401)
    for q in (3, 4, 5, 7):
        f = get_field(q)
        for _ in range(15):
            n = rng.randrange(2, 6)
            locs = random_locators(rng, f, n)
            u = u_vector(locs)
            for i, ai in enumerate(locs):
                prod = f.one
                for j, aj in enumerate(locs):
                    if j != i:
                        prod = prod * (ai - aj)
                assert (u[i] * prod).value == 1


def test_u_vector_conjugation_on_coset_even_n():
    # on an n-subset of a_l*theta + V with n even, u_i^q = -u_i for odd q
    for q in (3, 5, 7):
        f = get_field(q)
        members = family_B(f, 1).elements
        u = u_vector(members[: (q - 1) if q % 2 else q])
        for ui in u:
            assert f.frobenius(ui) == -ui


def test_u_vector_subfield_on_coset_odd_n():
    # with n odd the same coset gives u_i in GF(q)*
    for q in (3, 5, 7):
        f = get_field(q)
        members = family_B(f, 2).elements
        u = u_vector(members[:3])
        for ui in u:
            assert f.in_subfield(ui) and ui


def test_codespec_validation():
    f = get_field(3)
    with pytest.raises(DuplicateLocator):
        CodeSpec(f, (f.one, f.one), (f.one, f.one), 1)
    with pytest.raises(ValueError):
        CodeSpec(f, (f.one, f.theta), (f.one, f.zero), 1)
    with pytest.raises(ValueError):
        CodeSpec(f, (f.one, f.theta), (f.one,), 1)
    with pytest.raises(ValueError):
        CodeSpec(f, (f.one, f.theta), (f.one, f.one), 3)


def test_parameters():
    f = get_field(3)
    plain = CodeSpec(f, (f.zero, f.one), (f.one, f.one), 1)
    assert plain.parameters() == (2, 1, 2)
    ext = CodeSpec(f, (f.zero, f.one, f.theta), (f.one, f.one, f.one), 2,
                   extended=True)
    assert ext.parameters() == (4, 2, 3)


def test_generator_matrix_shapes():
    f = get_field(3)
    plain = CodeSpec(f, (f.zero, f.one), (f.theta, f.one), 1)
    gen = generator_matrix(plain)
    assert (gen.nrows, gen.ncols) == (1, 2)
    assert gen.rows[0] == [f.theta, f.one]  # k=1 row is the multiplier vector
    ext = CodeSpec(f, (f.theta,), (f.theta ** 2,), 1, extended=True)
    gen = generator_matrix(ext)
    assert (gen.nrows, gen.ncols) == (1, 2)
    assert gen.rows[0] == [f.theta ** 2, f.one]


def test_encode():
    f = get_field(3)
    code = CodeSpec(f, (f.zero, f.one, f.theta), (f.one, f.one, f.one), 2,
                    extended=True)
    assert all(not e for e in encode(code, Poly.zero(f)))
    word = encode(code, Poly.monomial(f, 1))
    assert word == [f.zero, f.one, f.theta, f.one]  # top coeff lands at infinity
    with pytest.raises(DegreeTooHigh):
        encode(code, Poly.monomial(f, 2))


def test_encode_is_injective_random():
    rng = random.Random(402)
    for _ in range(30):
        f = get_field(rng.choice((3, 4)))
        code = random_code(rng, f, rng.choice((2, 4)))
        c1 = [rng.randrange(f.order) for _ in range(code.k)]
        c2 = [rng.randrange(f.order) for _ in range(code.k)]
        if c1 == c2:
            continue
        w1 = encode(code, Poly(f, [f.element(v) for v in c1]))
        w2 = encode(code, Poly(f, [f.element(v) for v in c2]))
        assert [e.value for e in w1] != [e.value for e in w2]


def test_hermitian_gram_k1():
    f = get_field(3)
    # 1*1^q + θ*θ^q = 1 + θ^4 = 1 + (-1) = 0
    code = CodeSpec(f, (f.zero, f.one), (f.one, f.theta), 1)
    assert hermitian_gram(code).is_zero()
    bad = CodeSpec(f, (f.zero, f.one), (f.one, f.one), 1)
    assert not hermitian_gram(bad).is_zero()


def test_min_distance_examples():
    f = get_field(3)
    code = CodeSpec(f, (f.zero, f.one), (f.one, f.theta), 1)
    assert min_distance_bruteforce(code) == 2
    code2 = construct_theorem2(f, 1, 3, extended=True)
    assert min_distance_bruteforce(code2) == 3
    with pytest.raises(EnumerationBudgetExceeded):
        min_distance_bruteforce(code, budget=1)


def test_grs_distance_is_mds_random():
    """Random plain and extended codes of every dimension whose message
    space has at most 7000 elements: the distance equals the Element-level
    oracle and length - k + 1, and is_mds holds."""
    rng = random.Random(403)
    for q in (2, 3, 4, 5, 7, 8):
        f = get_field(q)
        for _ in range(12):
            n = rng.randrange(1, min(6, f.order) + 1)
            code = CodeSpec(
                f,
                random_locators(rng, f, n),
                tuple(f.element(rng.randrange(1, f.order)) for _ in range(n)),
                rng.choice([k for k in range(1, n + 1) if f.order ** k <= 7000]),
                extended=rng.random() < 0.5,
            )
            distance = min_distance_bruteforce(code)
            assert distance == min_distance_oracle(code) == code.length - code.k + 1
            assert is_mds(code)


def _random_rows(rng, field, k, ncols, kind):
    """A k x ncols matrix of canonical indices: `random` (about a third of
    the entries zero), `deficient` (rank below k) or `repeated` (two equal
    columns, so not MDS when k >= 2)."""
    rows = [
        [rng.randrange(field.order) if rng.random() < 0.7 else 0
         for _ in range(ncols)]
        for _ in range(k)
    ]
    if kind == "deficient":
        c = field.element(rng.randrange(field.order))
        rows[-1] = [(c * field.element(v)).value for v in rows[0]]
    elif kind == "repeated":
        for row in rows:
            row[-1] = row[0]
    return rows


def test_min_weight_kernel_matches_oracle_integer_matrices():
    """Every CodeSpec is MDS, so only matrices like these catch a kernel
    that returns the designed distance n - k + 1 without enumerating."""
    rng = random.Random(406)
    seen = set()
    for q in (2, 3, 4, 5, 7, 8):
        f = get_field(q)
        for kind in ("random", "deficient", "repeated"):
            for _ in range(6):
                k = rng.randrange(1, 4)
                while f.order ** k > 2000:
                    k -= 1
                ncols = rng.randrange(max(2, k), 7)
                rows = _random_rows(rng, f, k, ncols, kind)
                weight = _min_weight(f, rows)
                assert weight == min_weight_oracle(f, rows), (q, rows)
                if k >= 2:
                    seen.add("zero" if weight == 0 else
                             "below" if weight < ncols - k + 1 else "mds")
    assert seen == {"zero", "below", "mds"}


def test_min_weight_kernel_without_add_table():
    """The digit-wise addition used above order 1024, on small fields
    whose table is removed, against the table-based result."""
    rng = random.Random(407)
    for p, m in ((3, 1), (2, 2), (5, 1)):
        plain = Field(p, m)
        plain._add_table = None
        tabled = get_field(p ** m)
        for kind in ("random", "deficient", "repeated"):
            for _ in range(5):
                k = rng.randrange(1, 4)
                rows = _random_rows(rng, tabled, k, rng.randrange(k, 7), kind)
                assert _min_weight(plain, rows) == _min_weight(tabled, rows)


def test_min_distance_add_table_boundary():
    """q=32 is the last field with an addition table, q=37 the first
    without; k=1 keeps the message space within the budget."""
    rng = random.Random(408)
    for q, has_table in ((32, True), (37, False)):
        f = get_field(q)
        assert (f._add_table is not None) == has_table
        for extended in (False, True):
            n = rng.randrange(2, 6)
            code = CodeSpec(
                f,
                random_locators(rng, f, n),
                tuple(f.element(rng.randrange(1, f.order)) for _ in range(n)),
                1,
                extended=extended,
            )
            assert min_distance_bruteforce(code) == min_distance_oracle(code)
            assert is_mds(code)


CROSSCHECK_SCRIPT = """
import sys
from hermgrs import field_for_q, grs, is_mds
from hermgrs.constructions import construct_theorem2
from hermgrs.errors import InternalConsistencyError

code = construct_theorem2(field_for_q(3), 1, 3, extended=True)
raised = []

def expect_error(label):
    try:
        is_mds(code)
    except InternalConsistencyError:
        raised.append(label)

kernel, minors = grs._min_weight, grs._is_nonsingular
grs._min_weight = lambda field, rows: kernel(field, rows) - 1
expect_error("distance")
grs._min_weight = kernel
grs._is_nonsingular = lambda field, rows: False
expect_error("minors")
grs._is_nonsingular = minors
if is_mds(code):
    raised.append("restored")
print(sys.flags.optimize, " ".join(raised))
"""


def test_is_mds_crosscheck_survives_optimize():
    """Under python -O, a distance kernel or a minor test that gives a
    wrong answer makes is_mds raise InternalConsistencyError."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hermgrs.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    result = subprocess.run(
        [sys.executable, "-O", "-c", CROSSCHECK_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "distance", "minors", "restored"]


def test_is_mds_extended():
    f = get_field(3)
    code = construct_theorem2(f, 1, 3, extended=True)
    assert is_mds(code)


def test_json_roundtrip():
    rng = random.Random(404)
    for _ in range(10):
        f = get_field(rng.choice((3, 4, 5)))
        extended = rng.random() < 0.5
        n = rng.choice((1, 3) if extended else (2, 4))
        code = random_code(rng, f, n, extended=extended)
        back = code_from_dict(code_to_dict(code))
        assert [a.value for a in back.locators] == [a.value for a in code.locators]
        assert [v.value for v in back.multipliers] == [
            v.value for v in code.multipliers
        ]
        assert back.k == code.k and back.extended == code.extended


def test_json_rejects_out_of_range_dlogs():
    """A log outside 0..q^2-2 (-1..q^2-2 for locators) is an input error,
    not reduced modulo q^2-1 to name another element."""
    f = get_field(3)
    good = code_to_dict(CodeSpec(f, (f.zero, f.one), (f.one, f.theta), 1))
    code_from_dict(good)
    for key, value in (("locators", [10, 14]), ("locators", [-2, 0]),
                       ("multipliers", [-7, 1]), ("multipliers", [-1, 1]),
                       ("multipliers", [8, 1]), ("multipliers", ["1", 1])):
        with pytest.raises(InputError):
            code_from_dict(dict(good, **{key: value}))


def test_json_rejects_mismatched_q():
    f = get_field(3)
    data = code_to_dict(CodeSpec(f, (f.zero, f.one), (f.one, f.theta), 1))
    data["q"] = 5
    with pytest.raises(ValueError):
        code_from_dict(data)
