"""Exact arithmetic in GF(q^2) and its subfield GF(q), q = p^m.

The quadratic extension GF(q^2) = GF(p)[x]/(modulus) is the only field object;
GF(q) lives inside it as the fixed field of the Frobenius map x -> x^q.

An element is identified by its canonical index: writing it as a polynomial
sum(c_i * theta^i) in the generator theta with c_i in GF(p), the index is
sum(c_i * p^i).  Zero has index 0 and theta has index p.  Multiplicative
structure is handled through discrete-log tables for theta, so every operation
is a couple of table lookups.

The modulus is chosen deterministically: the first monic irreducible
polynomial of degree 2m over GF(p) with a primitive root, scanning candidates
in the sign-twisted lexicographic order used for Conway polynomials (compare
(-1)^(deg-i) * a_i from the top coefficient down).  For GF(9) this yields
x^2 + 2x + 2, matching the usual table value.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .errors import (
    CompositeCharacteristic,
    DivisionByZero,
    FieldTooLarge,
    InputError,
    InternalConsistencyError,
    LogOfZero,
    NotInSubfield,
)

DEFAULT_MAX_ORDER = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> List[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def split_prime_power(q: int) -> Tuple[int, int]:
    """Return (p, m) with q = p^m, or raise if q is not a prime power."""
    factors = prime_factors(q)
    if len(factors) != 1:
        raise CompositeCharacteristic(f"{q} is not a prime power")
    p = factors[0]
    m = 0
    while q > 1:
        q //= p
        m += 1
    return p, m


class Element:
    """One element of GF(q^2), keyed by canonical index."""

    __slots__ = ("field", "value")

    def __init__(self, field: "Field", value: int):
        self.field = field
        self.value = value

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.value == other.value
            and self.field is other.field
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __add__(self, other: "Element") -> "Element":
        return self.field.add(self, other)

    def __sub__(self, other: "Element") -> "Element":
        return self.field.sub(self, other)

    def __neg__(self) -> "Element":
        return self.field.neg(self)

    def __mul__(self, other: "Element") -> "Element":
        return self.field.mul(self, other)

    def __truediv__(self, other: "Element") -> "Element":
        return self.field.mul(self, self.field.inv(other))

    def __pow__(self, n: int) -> "Element":
        return self.field.pow(self, n)

    def __repr__(self) -> str:
        return self.field.format_element(self)


class Field:
    """GF(q^2) together with its subfield GF(q), q = p^m."""

    def __init__(self, p: int, m: int, max_order: int = DEFAULT_MAX_ORDER):
        if not is_prime(p):
            raise CompositeCharacteristic(f"characteristic {p} is not prime")
        if m < 1:
            raise FieldTooLarge(f"extension degree m={m} must be >= 1")
        order = p ** (2 * m)
        if order > max_order:
            raise FieldTooLarge(
                f"GF({p}^{2 * m}) has order {order} > bound {max_order}"
            )
        self.p = p
        self.m = m
        self.q = p ** m
        self.order = order
        self.modulus, self._exp = _find_modulus_and_exp(p, 2 * m)
        self._log = [-1] * order
        for t, idx in enumerate(self._exp):
            self._log[idx] = t
        # Small fields get a full addition table; larger ones add digitwise.
        self._add_table = None
        if order <= 1024:
            self._add_table = [
                [self._add_idx_slow(a, b) for b in range(order)]
                for a in range(order)
            ]
        self._neg_table = [self._neg_idx_slow(a) for a in range(order)]

    # ----- index-level helpers -----

    def _add_idx_slow(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _neg_idx_slow(self, a: int) -> int:
        p = self.p
        out = 0
        mult = 1
        while a:
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def _add_idx(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add_idx_slow(a, b)

    # ----- element constructors -----

    @property
    def zero(self) -> Element:
        return Element(self, 0)

    @property
    def one(self) -> Element:
        return Element(self, 1)

    @property
    def theta(self) -> Element:
        return Element(self, self.p)

    @property
    def minus_one(self) -> Element:
        return Element(self, self._neg_table[1])

    def element(self, value: int) -> Element:
        if not 0 <= value < self.order:
            raise ValueError(f"canonical index {value} out of range")
        return Element(self, value)

    def from_dlog(self, t: int) -> Element:
        return Element(self, self._exp[t % (self.order - 1)])

    def from_dlog_input(self, t: int, allow_zero: bool = False) -> Element:
        """theta^t for a discrete log read from outside input, and zero for
        t = -1 if `allow_zero`.  Unlike `from_dlog` this does not reduce t
        modulo order - 1, so an out-of-range log cannot silently name
        another element: anything but an int in range raises InputError."""
        low, high = (-1 if allow_zero else 0), self.order - 2
        if isinstance(t, bool) or not isinstance(t, int) or not low <= t <= high:
            raise InputError(
                f"discrete log {t!r} outside {low}..{high} for GF({self.order})"
            )
        return Element(self, self._exp[t] if t >= 0 else 0)

    def elements(self) -> Iterator[Element]:
        for v in range(self.order):
            yield Element(self, v)

    def units(self) -> Iterator[Element]:
        for v in range(1, self.order):
            yield Element(self, v)

    # ----- arithmetic -----

    def add(self, x: Element, y: Element) -> Element:
        return Element(self, self._add_idx(x.value, y.value))

    def neg(self, x: Element) -> Element:
        return Element(self, self._neg_table[x.value])

    def sub(self, x: Element, y: Element) -> Element:
        return Element(self, self._add_idx(x.value, self._neg_table[y.value]))

    def mul(self, x: Element, y: Element) -> Element:
        if x.value == 0 or y.value == 0:
            return Element(self, 0)
        t = (self._log[x.value] + self._log[y.value]) % (self.order - 1)
        return Element(self, self._exp[t])

    def inv(self, x: Element) -> Element:
        if x.value == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        return Element(self, self._exp[-self._log[x.value] % (self.order - 1)])

    def pow(self, x: Element, n: int) -> Element:
        if x.value == 0:
            if n == 0:
                return self.one
            if n < 0:
                raise DivisionByZero("negative power of zero")
            return self.zero
        t = (self._log[x.value] * n) % (self.order - 1)
        return Element(self, self._exp[t])

    def frobenius(self, x: Element) -> Element:
        return self.pow(x, self.q)

    def trace(self, x: Element) -> Element:
        return self.add(x, self.frobenius(x))

    def norm(self, x: Element) -> Element:
        return self.pow(x, self.q + 1)

    def dlog(self, x: Element) -> int:
        if x.value == 0:
            raise LogOfZero("discrete log of zero is undefined")
        return self._log[x.value]

    def in_subfield(self, x: Element) -> bool:
        return self.frobenius(x).value == x.value

    # ----- subfield structure -----

    def subfield_elements(self) -> List[Element]:
        """GF(q) inside GF(q^2), in ascending canonical index order."""
        return [Element(self, v) for v in self.subfield_tables.values]

    def trace_zero_set(self) -> List[Element]:
        """The q zeros of the trace map: zero first, then ascending dlog."""
        rest = sorted(
            (x for x in self.units() if self.trace(x).value == 0),
            key=self.dlog,
        )
        return [self.zero] + rest

    def norm_one_subgroup(self) -> List[Element]:
        """The order-(q+1) subgroup generated by theta^(q-1)."""
        return [self.from_dlog((self.q - 1) * t) for t in range(self.q + 1)]

    def solve_norm(self, c: Element) -> Element:
        """A deterministic xi with xi^(q+1) = c, for c in GF(q)*."""
        if c.value == 0 or not self.in_subfield(c):
            raise NotInSubfield(f"{c!r} is not in GF({self.q})*")
        d = self.dlog(c)
        # c in GF(q)* forces (q+1) | dlog(c); d // (q+1) < q-1 is the
        # smallest exponent s with s*(q+1) = d  (mod q^2-1).
        if d % (self.q + 1):
            raise InternalConsistencyError(f"{c!r} in GF({self.q})* has no norm preimage")
        return self.from_dlog(d // (self.q + 1))

    @functools.cached_property
    def subfield_tables(self) -> "SubfieldTables":
        """Integer arithmetic over GF(q), built on first use and kept."""
        return SubfieldTables(self)

    # ----- presentation -----

    def format_element(self, x: Element) -> str:
        if x.value == 0:
            return "0"
        t = self._log[x.value]
        if t == 0:
            return "1"
        if t == 1:
            return "θ"
        return f"θ^{t}"

    def export_record(self) -> str:
        """Text record `p m c0 c1 ... c2m` (modulus, ascending degree)."""
        coeffs = " ".join(str(c) for c in self.modulus)
        return f"{self.p} {self.m} {coeffs}"

    @classmethod
    def from_record(cls, record: str, max_order: int = DEFAULT_MAX_ORDER) -> "Field":
        parts = record.split()
        if len(parts) < 2:
            raise InputError(f"field record {record!r} needs at least p and m")
        p, m = int(parts[0]), int(parts[1])
        field = cls(p, m, max_order=max_order)
        coeffs = tuple(int(c) for c in parts[2:])
        if coeffs and coeffs != field.modulus:
            raise ValueError(
                f"field record modulus {coeffs} does not match the "
                f"deterministic choice {field.modulus}"
            )
        return field

    def __repr__(self) -> str:
        return f"Field(GF({self.q}^2), modulus={list(self.modulus)})"


class SubfieldTables:
    """GF(q) arithmetic on compact indices, and the split of GF(q^2) into it.

    The compact index of a subfield element is its rank among the canonical
    indices of GF(q) in ascending order: 0 is zero, 1 is one, and comparing
    compact indices compares canonical ones.  `add[a][b]` and `mul[a][b]`
    are rows of q entries (bytes while q <= 256); `neg[a]`, `inv[a]` and
    `values[a]` (the canonical index) have one entry per element.  In all,
    O(q^2) small ints.
    """

    def __init__(self, field: Field):
        q, p = field.q, field.p
        exp, log = field._exp, field._log
        self.field = field
        self.q = q
        # GF(q)* is generated by g = theta^(q+1)
        units = [exp[(q + 1) * t] for t in range(q - 1)]
        self.values: List[int] = sorted([0] + units)
        self.compact: Dict[int, int] = {v: c for c, v in enumerate(self.values)}
        g_exp = [self.compact[v] for v in units]
        g_log = [0] * q
        for t, c in enumerate(g_exp):
            g_log[c] = t
        row = bytes if q <= 256 else tuple
        self.mul = [row([0] * q)] + [
            row([0] + [g_exp[(g_log[a] + g_log[b]) % (q - 1)] for b in range(1, q)])
            for a in range(1, q)
        ]
        self.inv = [0] + [g_exp[-g_log[a] % (q - 1)] for a in range(1, q)]
        self.neg = [self.compact[field._neg_table[v]] for v in self.values]
        # 1 + v changes only the constant digit of the canonical index
        one_plus = [
            self.compact[v - v % p + (v % p + 1) % p] for v in self.values
        ]
        # a + b = a * (1 + b/a)
        self.add = [row(range(q))]
        for a in range(1, q):
            times_a, over_a = self.mul[a], self.mul[self.inv[a]]
            self.add.append(row([times_a[one_plus[over_a[b]]] for b in range(q)]))
        theta = field.p
        theta_q = exp[q % (field.order - 1)]
        self._log_inv_den = -log[field._add_idx(theta, field._neg_table[theta_q])]

    def split(self, v: int) -> Tuple[int, int]:
        """Compact (x0, x1) with x = x0 + theta*x1, for x of canonical index v.

        x1 = (x - x^q) / (theta - theta^q) and x0 = x - theta*x1.
        """
        if v == 0:
            return 0, 0
        field = self.field
        exp, log, neg = field._exp, field._log, field._neg_table
        n = field.order - 1
        diff = field._add_idx(v, neg[exp[log[v] * self.q % n]])
        if diff == 0:
            return self.compact[v], 0
        x1 = exp[(log[diff] + self._log_inv_den) % n]
        x0 = field._add_idx(v, neg[exp[(log[x1] + 1) % n]])
        return self.compact[x0], self.compact[x1]

    def split_vector(self, values: Iterable[int]) -> List[int]:
        """The x0-components of the entries (canonical indices), then their
        x1-components."""
        comps = [self.split(v) for v in values]
        return [c[0] for c in comps] + [c[1] for c in comps]


def make_field(p: int, m: int, max_order: int = DEFAULT_MAX_ORDER) -> Field:
    """Build GF(q^2) for q = p^m with the deterministic modulus choice."""
    return Field(p, m, max_order=max_order)


def field_for_q(q: int, max_order: int = DEFAULT_MAX_ORDER) -> Field:
    """Build GF(q^2) from the subfield order q (a prime power)."""
    p, m = split_prime_power(q)
    return Field(p, m, max_order=max_order)


# ----- modulus search -----


def _poly_times_x_mod(coeffs: List[int], modulus: Sequence[int], p: int) -> List[int]:
    """Multiply a coefficient vector (len = deg(modulus)) by x, reduce."""
    d = len(coeffs)
    top = coeffs[-1]
    out = [0] + coeffs[:-1]
    if top:
        for i in range(d):
            out[i] = (out[i] - top * modulus[i]) % p
    return out


def _coeffs_to_index(coeffs: Sequence[int], p: int) -> int:
    idx = 0
    for c in reversed(coeffs):
        idx = idx * p + c
    return idx


def _find_modulus_and_exp(p: int, deg: int) -> Tuple[Tuple[int, ...], List[int]]:
    """First monic degree-`deg` polynomial, in Conway-style twisted-lex
    order, that is irreducible over GF(p) with a primitive root.

    Returns the modulus (ascending-degree coefficients, monic) and the
    antilog table exp[t] = canonical index of theta^t.
    """
    order = p ** deg
    n = order - 1
    # Twisted-lex scan: the value v_i at position i (top coefficient first)
    # encodes a_i = (-1)^(deg-i) * v_i mod p.
    for values in itertools.product(range(p), repeat=deg):
        coeffs = [0] * deg  # a_0..a_{deg-1}; leading coefficient is 1
        for pos, v in enumerate(values):
            i = deg - 1 - pos
            sign = -1 if (deg - i) % 2 else 1
            coeffs[i] = (sign * v) % p
        if coeffs[0] == 0:
            continue  # x divides the candidate
        # Walk theta^t by repeated multiplication by x.  The root is
        # primitive (and the candidate irreducible) exactly when the walk
        # first returns to 1 at step n.
        exp = [1]
        cur = [1] + [0] * (deg - 1)
        ok = True
        for t in range(1, n):
            cur = _poly_times_x_mod(cur, coeffs, p)
            idx = _coeffs_to_index(cur, p)
            if idx == 1:
                ok = False
                break
            exp.append(idx)
        if not ok:
            continue
        cur = _poly_times_x_mod(cur, coeffs, p)
        if _coeffs_to_index(cur, p) != 1:
            continue
        return tuple(coeffs + [1]), exp
    raise RuntimeError(f"no primitive polynomial of degree {deg} over GF({p})")
