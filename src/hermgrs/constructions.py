"""The three explicit evaluation-set families and their closed-form
multipliers.

Family 1: solution sets of alpha^q = a*alpha + b for a = theta^e.
Family 2: additive cosets a_l*theta + V of the trace-zero subspace V.
Family 3: scaled cosets a_l + theta^m * V.

Each construct_* function derives the multipliers from the discrete-log
identities satisfied by the u-vector on the family, then double-checks the
result against the direct Gram criterion before returning it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import (
    HypothesisViolated,
    InternalConsistencyError,
    InvalidBetaM,
    NotInFamily,
)
from .field import Element, Field
from .grs import CodeSpec, u_vector
from .selfdual import criterion_direct


@dataclass
class FamilyS:
    """All alpha with alpha^q = a*alpha + b, a = theta^e.  Size 0..q."""

    field: Field
    e: int
    b: Element
    elements: List[Element]


@dataclass
class FamilyB:
    """The coset a_l*theta + V (V = trace-zero subspace).  Size q."""

    field: Field
    l: int
    elements: List[Element]


@dataclass
class FamilyBlm:
    """The scaled coset a_l + theta^m * V.  Size q."""

    field: Field
    l: int
    m: int
    elements: List[Element]


def family_S(field: Field, e: int, b: Element) -> FamilyS:
    a = field.from_dlog(e)
    members = [
        x for x in field.elements()
        if (field.frobenius(x) - (a * x + b)).value == 0
    ]
    return FamilyS(field, e, b, members)


def family_B(field: Field, l: int) -> FamilyB:
    """The coset a_l*theta + V.

    The paper requires a*theta to lie outside V* for every a in V*, and
    that always holds.  Every a in V has a^q = -a, so
    (a*theta)^q = -a*theta^q, and a*theta (nonzero for a in V*) lies in V
    iff theta^q = theta.  The primitive theta of GF(q^2) is not in GF(q).
    In characteristic 2 this reads V = GF(q), and the argument is the same.
    """
    if not 1 <= l <= field.q:
        raise NotInFamily(f"coset index l={l} out of range 1..{field.q}")
    v = field.trace_zero_set()
    shift = v[l - 1] * field.theta
    return FamilyB(field, l, [shift + x for x in v])


def family_Blm(field: Field, l: int, m: int) -> FamilyBlm:
    """The scaled coset a_l + theta^m * V.

    The paper requires beta_m*a to lie outside V* for every a in V*, with
    beta_m = theta^m.  As for `family_B`, beta_m*a lies in V iff
    beta_m^q = beta_m, that is iff beta_m is in GF(q)*.  That holds iff
    theta^(m(q-1)) = 1, that is iff (q^2-1) | m(q-1), that is iff (q+1) | m.
    It does not depend on a, so the hypothesis fails for all of V* or for
    none of it.
    """
    if not 1 <= l <= field.q:
        raise NotInFamily(f"coset index l={l} out of range 1..{field.q}")
    if m % (field.q + 1) == 0:
        raise InvalidBetaM(
            f"beta_m=theta^{m} is invalid for q={field.q}: (q+1) | m puts "
            f"beta_m in GF(q)*, so beta_m*V* = V*"
        )
    v = field.trace_zero_set()
    beta_m = field.from_dlog(m)
    shift = v[l - 1]
    return FamilyBlm(field, l, m, [shift + beta_m * x for x in v])


def _pick_locators(
    members: Sequence[Element], n: int, locators: Optional[Sequence[Element]]
) -> Tuple[Element, ...]:
    member_values = {x.value for x in members}
    if locators is None:
        if n > len(members):
            raise HypothesisViolated(
                f"need {n} locators but the family has only {len(members)}"
            )
        return tuple(members[:n])
    chosen = tuple(locators)
    if len(chosen) != n:
        raise HypothesisViolated(f"expected {n} locators, got {len(chosen)}")
    if any(a.value not in member_values for a in chosen):
        raise NotInFamily("explicit locators must belong to the family")
    return chosen


def _shape(n: int, extended: bool) -> int:
    if n < 1:
        raise HypothesisViolated(f"need n >= 1, got n={n}")
    if extended:
        if n % 2 == 0:
            raise HypothesisViolated("extended construction needs odd n")
        return (n + 1) // 2
    if n % 2:
        raise HypothesisViolated("plain construction needs even n")
    return n // 2


def _theta_exponent_lift(field: Field, dlog_u: int, offset: int) -> int:
    """Solve c*(q+1) = dlog_u + offset (mod q^2-1) for the smallest c >= 0."""
    t = (dlog_u + offset) % (field.order - 1)
    if t % (field.q + 1):
        raise InternalConsistencyError(
            "u-vector exponent identity failed; locators are not in the family"
        )
    return t // (field.q + 1)


def construct_theorem1(
    field: Field,
    e: int,
    b: Element,
    n: int,
    extended: bool = False,
    locators: Optional[Sequence[Element]] = None,
) -> CodeSpec:
    """Self-dual (E)GRS code on locators from the alpha^q = a*alpha + b set.

    The paper's hypotheses (q-1) | e(n-1) (plain) and (q-1) | e(k-1)
    (extended) always hold once the locators are chosen.  Two distinct
    members of the family give (alpha_1 - alpha_2)^q = a(alpha_1 - alpha_2),
    so a = (alpha_1 - alpha_2)^(q-1) and (q-1) | e, as (q-1) | (q^2-1).
    The locators are n distinct family members (`_pick_locators`, then
    `u_vector`, which rejects repeats), so there are two of them whenever
    n >= 2.  The one case left, extended with n = 1, has k-1 = 0 = n-1.
    """
    q = field.q
    k = _shape(n, extended)
    if n > q:
        raise HypothesisViolated(f"need n <= q, got n={n}, q={q}")
    fam = family_S(field, e, b)
    locs = _pick_locators(fam.elements, n, locators)
    big_e = (e * (n - 1)) // (q - 1)
    u = u_vector(locs)
    if extended:
        s = (-((e * (k - 1)) // (q - 1))) % (q - 1)
        shift = s + ((q - 1) // 2 if q % 2 else 0)
    else:
        shift = 0
    multipliers = tuple(
        field.from_dlog(_theta_exponent_lift(field, field.dlog(ui), big_e) + shift)
        for ui in u
    )
    code = CodeSpec(field, locs, multipliers, k, extended)
    if not criterion_direct(code):
        raise InternalConsistencyError("theorem-1 construction failed the Gram check")
    return code


def construct_theorem2(
    field: Field,
    l: int,
    n: int,
    extended: bool = False,
    locators: Optional[Sequence[Element]] = None,
) -> CodeSpec:
    """Self-dual (E)GRS code on locators inside one coset a_l*theta + V."""
    q = field.q
    k = _shape(n, extended)
    if n > q:
        raise HypothesisViolated(f"need n <= q, got n={n}, q={q}")
    fam = family_B(field, l)
    locs = _pick_locators(fam.elements, n, locators)
    u = u_vector(locs)
    if extended:
        # n odd: u_i lies in GF(q)*
        offset = 0
        shift = k * (q - 1) // 2 if q % 2 else 0
    else:
        # n even: u_i^q = -u_i
        offset = -((q + 1) // 2) if q % 2 else 0
        shift = 1 if q % 2 else 0
    multipliers = tuple(
        field.from_dlog(_theta_exponent_lift(field, field.dlog(ui), offset) + shift)
        for ui in u
    )
    code = CodeSpec(field, locs, multipliers, k, extended)
    if not criterion_direct(code):
        raise InternalConsistencyError("theorem-2 construction failed the Gram check")
    return code


def construct_theorem3(
    field: Field,
    l: int,
    m: int,
    n: int,
    extended: bool = False,
    locators: Optional[Sequence[Element]] = None,
) -> CodeSpec:
    """Self-dual (E)GRS code on locators inside one coset a_l + theta^m*V."""
    q = field.q
    k = _shape(n, extended)
    if n > q:
        raise HypothesisViolated(f"need n <= q, got n={n}, q={q}")
    fam = family_Blm(field, l, m)
    locs = _pick_locators(fam.elements, n, locators)
    u = u_vector(locs)
    if extended:
        offset = m * (n - 1)
        s = (-(m * (k - 1))) % (q - 1)
        shift = s + (k * (q - 1) // 2 if q % 2 else 0)
    else:
        offset = m * (n - 1) - ((q + 1) // 2 if q % 2 else 0)
        shift = 1 if q % 2 else 0
    multipliers = tuple(
        field.from_dlog(_theta_exponent_lift(field, field.dlog(ui), offset) + shift)
        for ui in u
    )
    code = CodeSpec(field, locs, multipliers, k, extended)
    if not criterion_direct(code):
        raise InternalConsistencyError("theorem-3 construction failed the Gram check")
    return code
