"""Univariate polynomials over GF(q^2).

Coefficients are stored in ascending degree with no trailing zeros; the zero
polynomial has an empty coefficient list and degree -inf, so that a zero
witness passes any degree bound.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from .errors import DuplicateAbscissa
from .field import Element, Field

NEG_INFINITY = float("-inf")


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[Element] = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def monomial(cls, field: Field, degree: int, coeff: Element = None) -> "Poly":
        c = field.one if coeff is None else coeff
        return cls(field, [field.zero] * degree + [c])

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def coefficient(self, j: int) -> Element:
        return self.coeffs[j] if j < len(self.coeffs) else self.field.zero

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field is other.field
            and tuple(c.value for c in self.coeffs)
            == tuple(c.value for c in other.coeffs)
        )

    def __hash__(self) -> int:
        return hash((id(self.field), tuple(c.value for c in self.coeffs)))

    def __add__(self, other: "Poly") -> "Poly":
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(f, [self.coefficient(i) + other.coefficient(i) for i in range(n)])

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        f = self.field
        if not self or not other:
            return Poly.zero(f)
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return Poly(f, out)

    def scale(self, lam: Element) -> "Poly":
        return Poly(self.field, [lam * c for c in self.coeffs])

    def eval(self, x: Element) -> Element:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"({c!r})x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + ")"


def interpolate(field: Field, points: Sequence[Tuple[Element, Element]]) -> Poly:
    """The unique polynomial of degree < len(points) through all points."""
    if not points:
        raise DuplicateAbscissa("interpolation needs at least one point")
    seen = set()
    for x, _ in points:
        if x.value in seen:
            raise DuplicateAbscissa(f"repeated abscissa {x!r}")
        seen.add(x.value)
    result = Poly.zero(field)
    for i, (xi, yi) in enumerate(points):
        if not yi:
            continue
        basis = Poly(field, [field.one])
        denom = field.one
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = basis * Poly(field, [-xj, field.one])
            denom = denom * (xi - xj)
        result = result + basis.scale(yi / denom)
    return result
