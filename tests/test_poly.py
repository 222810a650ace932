"""Polynomial arithmetic and interpolation tests."""

import random

import pytest

from hermgrs.errors import DuplicateAbscissa
from hermgrs.poly import NEG_INFINITY, Poly, interpolate

from util import compose_affine, conjugate_coeffs, get_field, random_element


def test_degree_and_normalization():
    f = get_field(3)
    assert Poly.zero(f).degree == NEG_INFINITY
    assert Poly(f, [f.zero, f.zero]).degree == NEG_INFINITY
    assert Poly(f, [f.one]).degree == 0
    assert Poly(f, [f.zero, f.theta, f.zero]).degree == 1
    assert Poly.monomial(f, 3).degree == 3


def test_coefficient_accessor():
    f = get_field(3)
    p = Poly(f, [f.one, f.theta])
    assert p.coefficient(0) == f.one
    assert p.coefficient(1) == f.theta
    assert p.coefficient(5).value == 0


def test_arithmetic_examples():
    f = get_field(3)
    x = Poly.monomial(f, 1)
    one = Poly(f, [f.one])
    p = (x + one) * (x - one)
    assert p == Poly(f, [f.minus_one, f.zero, f.one])  # x^2 - 1
    assert (p - p).degree == NEG_INFINITY
    assert p.scale(f.zero).degree == NEG_INFINITY


def test_eval_horner():
    f = get_field(3)
    p = Poly(f, [f.one, f.theta, f.theta ** 2])  # 1 + θx + θ^2 x^2
    for a in f.elements():
        expected = f.one + f.theta * a + f.theta ** 2 * a * a
        assert p.eval(a) == expected


def test_ring_axioms_random():
    rng = random.Random(301)
    for q in (3, 4, 5):
        f = get_field(q)
        for _ in range(20):
            ps = [
                Poly(f, [random_element(rng, f) for _ in range(rng.randrange(4))])
                for _ in range(3)
            ]
            a, b, c = ps
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            x = random_element(rng, f)
            assert (a * b).eval(x) == a.eval(x) * b.eval(x)
            assert (a + b).eval(x) == a.eval(x) + b.eval(x)


def test_conjugate_coeffs_involution_and_semilinearity():
    rng = random.Random(302)
    for q in (3, 4):
        f = get_field(q)
        for _ in range(20):
            p = Poly(f, [random_element(rng, f) for _ in range(3)])
            assert conjugate_coeffs(conjugate_coeffs(p)) == p
            # evaluating the conjugate at a^q conjugates the value
            a = random_element(rng, f)
            lhs = conjugate_coeffs(p).eval(f.frobenius(a))
            assert lhs == f.frobenius(p.eval(a))


def test_compose_affine():
    rng = random.Random(303)
    f = get_field(5)
    for _ in range(20):
        p = Poly(f, [random_element(rng, f) for _ in range(4)])
        a = random_element(rng, f)
        b = random_element(rng, f)
        comp = compose_affine(p, a, b)
        for x in (f.zero, f.one, f.theta, f.theta ** 7):
            assert comp.eval(x) == p.eval(a * x + b)


def test_interpolate_examples():
    f = get_field(3)
    pts = [(f.zero, f.one), (f.one, f.theta)]
    g = interpolate(f, pts)
    assert g.degree <= 1
    for x, y in pts:
        assert g.eval(x) == y
    with pytest.raises(DuplicateAbscissa):
        interpolate(f, [(f.one, f.one), (f.one, f.theta)])
    with pytest.raises(DuplicateAbscissa):
        interpolate(f, [])


def test_interpolate_zero_data():
    f = get_field(3)
    g = interpolate(f, [(f.zero, f.zero), (f.one, f.zero)])
    assert g.degree == NEG_INFINITY


def test_interpolate_roundtrip_random():
    rng = random.Random(304)
    for q in (3, 4, 5, 7):
        f = get_field(q)
        for _ in range(25):
            n = rng.randrange(1, min(6, f.order))
            xs = rng.sample(range(f.order), n)
            p = Poly(f, [random_element(rng, f) for _ in range(n)])
            pts = [(f.element(x), p.eval(f.element(x))) for x in xs]
            # uniqueness: degree < n through n points recovers p exactly
            assert interpolate(f, pts) == p
