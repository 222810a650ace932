"""Evaluation-set families and the closed-form multiplier constructions."""

import random

import pytest

from hermgrs import (
    construct_theorem1,
    construct_theorem2,
    construct_theorem3,
    criterion_direct,
    criterion_lemma1,
    criterion_lemma2,
    family_B,
    family_Blm,
    family_S,
    interpolate,
    is_mds,
    u_vector,
)
from hermgrs import constructions
from hermgrs.errors import (
    HypothesisViolated,
    InternalConsistencyError,
    InvalidBetaM,
    NotInFamily,
)
from hermgrs.poly import Poly

from util import (
    beta_m_invalid,
    compose_affine,
    conjugate_coeffs,
    get_field,
    random_element,
)

PRIME_POWERS_TO_16 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def _dlog_set(field, elements):
    return {field.dlog(x) if x else -1 for x in elements}


# ----- family 1: solution sets of alpha^q = theta^e * alpha + b -----


def test_family_S_subfield_and_trace_zero():
    for q in (3, 5, 7):
        f = get_field(q)
        # e = 0, b = 0: alpha^q = alpha, i.e. GF(q)
        fam = family_S(f, 0, f.zero)
        assert _dlog_set(f, fam.elements) == _dlog_set(f, f.subfield_elements())
        # theta^((q^2-1)/2) = -1: alpha^q = -alpha, i.e. the trace-zero set
        half = (f.order - 1) // 2
        fam = family_S(f, half, f.zero)
        assert _dlog_set(f, fam.elements) == _dlog_set(f, f.trace_zero_set())


def test_family_S_size_distribution():
    # for a = theta^e with (q-1) | e the map alpha -> alpha^q - a*alpha has a
    # kernel of size q, so exactly q shifts b give size q and the rest size 0
    for q in (3, 4):
        f = get_field(q)
        sizes = [len(family_S(f, q - 1, b).elements) for b in f.elements()]
        assert sizes.count(q) == q
        assert sizes.count(0) == f.order - q
        # otherwise the map is a bijection: every b has exactly one solution
        sizes = [len(family_S(f, 1, b).elements) for b in f.elements()]
        assert all(s == 1 for s in sizes)


# ----- families 2 and 3: cosets of the trace-zero subspace -----


def test_family_B_sets_q3():
    f = get_field(3)
    assert _dlog_set(f, family_B(f, 1).elements) == {-1, 2, 6}
    assert _dlog_set(f, family_B(f, 2).elements) == {1, 3, 4}
    assert _dlog_set(f, family_B(f, 3).elements) == {0, 5, 7}


def test_family_Blm_sets_q3():
    f = get_field(3)
    assert _dlog_set(f, family_Blm(f, 1, 1).elements) == {-1, 3, 7}
    assert _dlog_set(f, family_Blm(f, 2, 1).elements) == {2, 4, 5}
    assert _dlog_set(f, family_Blm(f, 3, 1).elements) == {0, 1, 6}


def test_family_B_partitions_the_field():
    for q in (3, 4, 5, 9):
        f = get_field(q)
        seen = []
        for l in range(1, q + 1):
            members = family_B(f, l).elements
            assert len(members) == q
            seen.extend(x.value for x in members)
        assert len(seen) == f.order
        assert set(seen) == set(range(f.order))


def test_family_Blm_partitions_the_field():
    for q in (3, 4, 5):
        f = get_field(q)
        for m in range(1, q + 1):
            seen = []
            for l in range(1, q + 1):
                members = family_Blm(f, l, m).elements
                assert len(members) == q
                seen.extend(x.value for x in members)
            assert set(seen) == set(range(f.order))


def test_family_index_range():
    f = get_field(3)
    with pytest.raises(NotInFamily):
        family_B(f, 0)
    with pytest.raises(NotInFamily):
        family_B(f, 4)
    with pytest.raises(NotInFamily):
        family_Blm(f, 5, 1)


def test_family_Blm_invalid_scale():
    # theta^(q+1) lies in GF(q)*, which drags the shifted coset back into V
    for q in (3, 4, 5):
        f = get_field(q)
        with pytest.raises(InvalidBetaM):
            family_Blm(f, 1, q + 1)


@pytest.mark.parametrize("q", PRIME_POWERS_TO_16)
def test_family_Blm_invalid_iff_q_plus_1_divides_m(q):
    """The O(1) test in family_Blm agrees with the loop over V* it replaced,
    for every m.  family_B's theta is the case m = 1, which never fires."""
    f = get_field(q)
    fired = 0
    for m in range(q * q - 1):
        invalid = beta_m_invalid(f, m)
        assert invalid == (m % (q + 1) == 0), m
        fired += invalid
        if invalid:
            with pytest.raises(InvalidBetaM):
                family_Blm(f, 1, m)
        else:
            assert len(family_Blm(f, 1, m).elements) == q
    assert fired == q - 1
    assert not beta_m_invalid(f, 1)


@pytest.mark.parametrize("q", PRIME_POWERS_TO_16)
def test_family_S_with_two_members_has_q_minus_1_dividing_e(q):
    """Every family_S(e, b) with at least two members has (q-1) | e, so
    theorem 1's divisibility hypotheses always hold.  The families of one e
    are the fibres of alpha -> alpha^q - theta^e*alpha over all b."""
    f = get_field(q)
    multi = 0
    for e in range(q * q - 1):
        a = f.from_dlog(e)
        fibres = {}
        for x in f.elements():
            fibres.setdefault((f.frobenius(x) - a * x).value, []).append(x.value)
        for members in fibres.values():
            if len(members) >= 2:
                assert e % (q - 1) == 0, (e, members)
                multi += 1
        b = f.frobenius(f.theta) - a * f.theta
        assert [x.value for x in family_S(f, e, b).elements] == fibres[b.value]
    assert multi > 0


# ----- constructions -----


def _assert_self_dual(code):
    assert criterion_direct(code)
    if code.extended:
        assert criterion_lemma2(code)
    else:
        assert criterion_lemma1(code)
    assert is_mds(code)
    length, k, d = code.parameters()
    assert length == 2 * k and d == k + 1


def test_construct_theorem1_plain_and_extended():
    for q in (3, 4, 5, 7, 8):
        f = get_field(q)
        for e in (0, (f.order - 1) // 2 if q % 2 else q - 1):
            fam = family_S(f, e, f.zero)
            if len(fam.elements) < 2:
                continue
            for n in range(2, min(q, len(fam.elements)) + 1):
                code = construct_theorem1(f, e, f.zero, n, extended=bool(n % 2))
                _assert_self_dual(code)


def test_construct_theorem1_nonzero_shift():
    for q in (3, 5):
        f = get_field(q)
        # find a shift b giving a full-size solution set
        b = next(
            x for x in f.units() if len(family_S(f, q - 1, x).elements) == q
        )
        code = construct_theorem1(f, q - 1, b, 2)
        _assert_self_dual(code)


def test_construct_theorem2_all_cosets():
    for q in (3, 4, 5, 7, 8):
        f = get_field(q)
        for l in range(1, q + 1):
            for n in range(2, q + 1):
                code = construct_theorem2(f, l, n, extended=bool(n % 2))
                _assert_self_dual(code)


def test_construct_theorem3_all_cosets_and_scales():
    for q in (3, 4, 5):
        f = get_field(q)
        for l in range(1, q + 1):
            for m in range(1, q + 1):
                for n in (2, 3):
                    code = construct_theorem3(f, l, m, n, extended=bool(n % 2))
                    _assert_self_dual(code)


def test_construct_q3_parameters():
    f = get_field(3)
    assert construct_theorem2(f, 1, 2).parameters() == (2, 1, 2)
    assert construct_theorem2(f, 1, 3, extended=True).parameters() == (4, 2, 3)
    assert construct_theorem3(f, 2, 1, 3, extended=True).parameters() == (4, 2, 3)


def test_construct_explicit_locators():
    f = get_field(5)
    members = family_B(f, 2).elements
    code = construct_theorem2(f, 2, 4, locators=members[1:5])
    _assert_self_dual(code)
    with pytest.raises(NotInFamily):
        construct_theorem2(f, 2, 2, locators=(f.theta, f.theta ** 2))


def test_construct_hypothesis_violations():
    f = get_field(3)
    with pytest.raises(HypothesisViolated):
        construct_theorem2(f, 1, 4)  # n > q
    with pytest.raises(HypothesisViolated):
        construct_theorem2(f, 1, 3)  # odd n needs extended=True
    with pytest.raises(HypothesisViolated):
        construct_theorem2(f, 1, 2, extended=True)  # even n cannot be extended
    f7 = get_field(7)
    with pytest.raises(HypothesisViolated):
        construct_theorem1(f7, 1, f7.zero, 2)  # solution set too small
    for n in (0, -1, -2):
        for extended in (False, True):
            with pytest.raises(HypothesisViolated):
                construct_theorem2(f, 1, n, extended=extended)


def test_construction_gram_recheck_raises(monkeypatch):
    """A construction that fails its Gram re-check is a library fault."""
    f = get_field(3)
    monkeypatch.setattr(constructions, "criterion_direct", lambda code: False)
    with pytest.raises(InternalConsistencyError):
        construct_theorem1(f, 0, f.zero, 2)
    with pytest.raises(InternalConsistencyError):
        construct_theorem2(f, 1, 2)
    with pytest.raises(InternalConsistencyError):
        construct_theorem3(f, 1, 1, 2)


def test_construct_theorem2_witness_polynomial_identity():
    """Independent structural check of the plain odd-q construction.

    With locators in a_l*theta + V, conjugation acts as the affine map
    x -> -x + a_l*(theta - theta^q), so the self-duality witness for any
    message f must be theta^((q+1)/2) * conj(f) composed with that map.
    """
    rng = random.Random(601)
    for q in (3, 5, 7):
        f = get_field(q)
        for l in (1, 2):
            n = q - 1
            code = construct_theorem2(f, l, n)
            a_l = f.trace_zero_set()[l - 1]
            shift = a_l * (f.theta - f.frobenius(f.theta))
            lam = f.theta ** ((q + 1) // 2)
            u = u_vector(code.locators)
            for _ in range(5):
                msg = Poly(f, [random_element(rng, f) for _ in range(code.k)])
                points = [
                    (a, f.norm(v) * f.frobenius(msg.eval(a)) / ui)
                    for a, v, ui in zip(code.locators, code.multipliers, u)
                ]
                witness = interpolate(f, points)
                expected = compose_affine(
                    conjugate_coeffs(msg), f.minus_one, shift
                ).scale(lam)
                assert witness == expected


def test_constructed_witness_degree_for_all_theorems():
    # generic witness route: for random messages the interpolant through the
    # twisted target values stays within degree k-1 (top coefficient
    # -conj(top of message) in the extended case)
    rng = random.Random(602)
    f = get_field(5)
    codes = [
        construct_theorem1(f, 0, f.zero, 4),
        construct_theorem1(f, 0, f.zero, 5, extended=True),
        construct_theorem2(f, 3, 4),
        construct_theorem2(f, 3, 5, extended=True),
        construct_theorem3(f, 2, 2, 4),
        construct_theorem3(f, 2, 2, 5, extended=True),
    ]
    for code in codes:
        u = u_vector(code.locators)
        for _ in range(5):
            msg = Poly(f, [random_element(rng, f) for _ in range(code.k)])
            points = [
                (a, f.norm(v) * f.frobenius(msg.eval(a)) / ui)
                for a, v, ui in zip(code.locators, code.multipliers, u)
            ]
            witness = interpolate(f, points)
            assert witness.degree <= code.k - 1
            if code.extended:
                top = witness.coefficient(code.k - 1)
                assert top == -f.frobenius(msg.coefficient(code.k - 1))
