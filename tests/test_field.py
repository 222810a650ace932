"""Field construction, arithmetic, and subfield-structure tests."""

import random

import pytest

from hermgrs.errors import (
    CompositeCharacteristic,
    DivisionByZero,
    FieldTooLarge,
    LogOfZero,
    NotInSubfield,
)
from hermgrs.field import field_for_q, make_field, split_prime_power

from util import get_field, subfield_elements

QS = (2, 3, 4, 5, 7, 8, 9)


def test_split_prime_power():
    assert split_prime_power(3) == (3, 1)
    assert split_prime_power(8) == (2, 3)
    assert split_prime_power(9) == (3, 2)
    with pytest.raises(CompositeCharacteristic):
        split_prime_power(6)
    with pytest.raises(CompositeCharacteristic):
        split_prime_power(1)


def test_modulus_q3():
    f = get_field(3)
    # GF(9) = GF(3)[x]/(x^2 + 2x + 2), ascending coefficients
    assert f.modulus == (2, 2, 1)
    assert f.order == 9
    assert f.q == 3


def test_modulus_known_small_fields():
    assert get_field(5).modulus == (2, 4, 1)
    assert get_field(7).modulus == (3, 6, 1)
    assert get_field(2).modulus == (1, 1, 1)


def test_theta_is_primitive():
    for q in QS:
        f = get_field(q)
        # independent order check by repeated multiplication
        x = f.one
        for t in range(1, f.order - 1):
            x = x * f.theta
            assert x.value != 1, f"theta has order < {f.order - 1} for q={q}"
        assert (x * f.theta).value == 1


def test_exp_table_is_a_bijection_on_units():
    for q in QS:
        f = get_field(q)
        seen = {f.from_dlog(t).value for t in range(f.order - 1)}
        assert seen == set(range(1, f.order))


def test_field_construction_errors():
    with pytest.raises(CompositeCharacteristic):
        make_field(4, 1)
    with pytest.raises(FieldTooLarge):
        make_field(2, 0)
    with pytest.raises(FieldTooLarge):
        make_field(257, 1, max_order=1 << 16)


def test_arithmetic_examples_q3():
    f = get_field(3)
    theta = f.theta
    assert (theta ** 3 * theta ** 5).value == 1
    assert f.inv(theta ** 2) == theta ** 6
    assert f.pow(theta, -2) == theta ** 6
    assert f.pow(f.zero, 0) == f.one
    assert (f.one + f.minus_one).value == 0
    with pytest.raises(DivisionByZero):
        f.inv(f.zero)
    with pytest.raises(DivisionByZero):
        f.pow(f.zero, -1)


def test_field_axioms_random():
    rng = random.Random(101)
    for q in QS:
        f = get_field(q)
        for _ in range(60):
            a = f.element(rng.randrange(f.order))
            b = f.element(rng.randrange(f.order))
            c = f.element(rng.randrange(f.order))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + f.zero == a
            assert a * f.one == a
            assert (a + (-a)).value == 0
            if a:
                assert (a * f.inv(a)).value == 1


def test_frobenius_is_an_order_two_automorphism():
    rng = random.Random(102)
    for q in QS:
        f = get_field(q)
        for _ in range(40):
            a = f.element(rng.randrange(f.order))
            b = f.element(rng.randrange(f.order))
            assert f.frobenius(a + b) == f.frobenius(a) + f.frobenius(b)
            assert f.frobenius(a * b) == f.frobenius(a) * f.frobenius(b)
            assert f.frobenius(f.frobenius(a)) == a
        # fixed field is exactly GF(q)
        fixed = [x for x in f.elements() if f.frobenius(x) == x]
        assert len(fixed) == q
        assert all(f.in_subfield(x) for x in fixed)


def test_frobenius_trace_norm_examples_q3():
    f = get_field(3)
    theta = f.theta
    assert f.frobenius(f.zero).value == 0
    assert f.frobenius(theta) == theta ** 3
    assert f.trace(theta ** 2).value == 0
    assert f.norm(theta) == theta ** 4
    assert f.norm(theta) == f.minus_one
    assert f.norm(f.one) == f.one


def test_trace_and_norm_land_in_subfield():
    for q in QS:
        f = get_field(q)
        for x in f.elements():
            assert f.in_subfield(f.trace(x))
            assert f.in_subfield(f.norm(x))


def test_norm_is_q_plus_one_to_one():
    for q in QS:
        f = get_field(q)
        counts = {}
        for x in f.units():
            counts.setdefault(f.norm(x).value, 0)
            counts[f.norm(x).value] += 1
        assert len(counts) == q - 1
        assert all(c == q + 1 for c in counts.values())


def test_dlog_roundtrip():
    f = get_field(3)
    assert f.dlog(f.one) == 0
    assert f.dlog(f.theta) == 1
    assert f.dlog(f.theta ** 6 * f.theta ** 5) == 3
    with pytest.raises(LogOfZero):
        f.dlog(f.zero)
    for q in QS:
        f = get_field(q)
        for x in f.units():
            assert f.from_dlog(f.dlog(x)) == x


def test_trace_zero_set_q3():
    f = get_field(3)
    v = f.trace_zero_set()
    assert v[0].value == 0
    assert v[1:] == [f.theta ** 2, f.theta ** 6]


def test_trace_zero_set_q4():
    f = get_field(4)
    v = f.trace_zero_set()
    # characteristic 2: GF(q) is exactly the trace-zero set
    assert {x.value for x in v} == {x.value for x in f.subfield_elements()}


def test_trace_zero_set_structure():
    for q in QS:
        f = get_field(q)
        v = f.trace_zero_set()
        assert len(v) == q
        assert all(f.trace(x).value == 0 for x in v)
        # V is an GF(q)-subspace: closed under subfield scaling and addition
        for x in v:
            for y in v:
                assert f.trace(x + y).value == 0
        for s in f.subfield_elements():
            assert f.trace(s * v[1]).value == 0


def test_norm_one_subgroup():
    for q in QS:
        f = get_field(q)
        sub = f.norm_one_subgroup()
        assert len(sub) == q + 1
        assert len({x.value for x in sub}) == q + 1
        assert all(f.norm(x) == f.one for x in sub)


def test_solve_norm():
    f = get_field(3)
    assert f.solve_norm(f.one) == f.one
    assert f.solve_norm(f.norm(f.theta)) == f.theta
    with pytest.raises(NotInSubfield):
        f.solve_norm(f.theta)  # not in GF(3)
    with pytest.raises(NotInSubfield):
        f.solve_norm(f.zero)
    for q in QS:
        f = get_field(q)
        for c in f.subfield_elements():
            if not c:
                continue
            xi = f.solve_norm(c)
            assert f.norm(xi) == c
            # deterministic: the smallest dlog preimage
            others = [x for x in f.units() if f.norm(x) == c]
            assert f.dlog(xi) == min(f.dlog(x) for x in others)


def test_subfield_elements_order_and_closure():
    for q in QS:
        f = get_field(q)
        sub = f.subfield_elements()
        assert len(sub) == q
        values = [x.value for x in sub]
        assert values == sorted(values)
        for x in sub:
            for y in sub:
                assert f.in_subfield(x + y)
                assert f.in_subfield(x * y)


@pytest.mark.parametrize("q", QS + (243,))
def test_subfield_elements_match_frobenius_fixed_points(q):
    """The subfield read from the GF(q) tables equals the fixed points of
    Frobenius, in the same ascending canonical order."""
    f = get_field(q)
    assert f.subfield_elements() == subfield_elements(f)


def test_export_record_roundtrip():
    for q in QS:
        f = get_field(q)
        g = type(f).from_record(f.export_record())
        assert g.modulus == f.modulus
        assert g.q == f.q
    with pytest.raises(ValueError):
        type(get_field(3)).from_record("3 1 1 1 1")


def test_format_element():
    f = get_field(3)
    assert repr(f.zero) == "0"
    assert repr(f.one) == "1"
    assert repr(f.theta) == "θ"
    assert repr(f.theta ** 5) == "θ^5"


def test_field_for_q_large_even_characteristic():
    f = field_for_q(16)
    assert f.q == 16 and f.order == 256
    assert f.p == 2 and f.m == 4
    x = f.theta
    assert f.trace(x + f.frobenius(x)).value == 0
