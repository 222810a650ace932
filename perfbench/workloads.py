"""The hermgrs benchmark workloads.

A workload turns a seed into a stream of rounds.  A round is a fixed amount
of work made of tasks; a task calls the library once, and returns what the
library returned.  Its check, run outside the timed region, counts the items
whose output is wrong.  Its payload is the deterministic part of the output,
which the runner digests.

hermgrs is imported only inside `setup`, so a fresh process can time the
import as part of set-up.  Library functions are looked up on the package at
every call, so the tracer's wrappers, which it binds there too, are seen.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

import tracer


@dataclass
class Task:
    items: int
    run: Callable[[], Any]
    check: Callable[[Any], int]  # failed items, 0..items
    payload: Callable[[Any], Any]  # JSON-able deterministic output


def _library():
    """Import hermgrs and all its modules, as the CLI does; returns the package."""
    return tracer.package_modules()[0]


def _round_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def _values(elements) -> List[int]:
    return [a.value for a in elements]


def _recheck_exists(lib, field, locators, multipliers, k, extended) -> bool:
    """Rebuild a found code from its locators and multipliers and test it
    with the direct Gram criterion."""
    code = lib.CodeSpec(
        field=field, locators=tuple(locators), multipliers=tuple(multipliers),
        k=k, extended=extended,
    )
    return lib.criterion_direct(code)


class ScanWorkload:
    """existence_scan over a fresh seeded sub-pool of the units each round."""

    seeded = True

    def __init__(self, q: int, n: int, extended: bool, pool_size: int,
                 expect_none: bool, trace_rounds: int):
        self.q, self.n, self.extended = q, n, extended
        self.pool_size = pool_size
        self.expect_none = expect_none
        self.trace_rounds = trace_rounds
        self.k = (n + 1) // 2 if extended else n // 2

    def setup(self, seed: int) -> Dict:
        lib = _library()
        field = lib.field_for_q(self.q)
        units = sorted(field.units(), key=lambda a: a.value)
        return {"lib": lib, "field": field, "units": units, "seed": seed}

    def tasks(self, state: Dict, index: int) -> List[Task]:
        lib, field = state["lib"], state["field"]
        pool = _round_rng(state["seed"], index).sample(state["units"], self.pool_size)
        pool_values = set(_values(pool))
        items = math.comb(self.pool_size, self.n)

        def run():
            report = lib.existence_scan(field, self.n, pool, extended=self.extended)
            return report, report.to_dict()

        def check(result) -> int:
            report, payload = result
            subsets = {tuple(_values(e.locators)) for e in report.entries}
            if (
                payload["totals"]["tested"] != items
                or len(subsets) != items
                or any(len(s) != self.n or not pool_values.issuperset(s) for s in subsets)
            ):
                return items
            failed = 0
            for entry in report.entries:
                if not entry.exists:
                    continue
                if self.expect_none or not entry.multipliers or not _recheck_exists(
                    lib, field, entry.locators, entry.multipliers, self.k, self.extended
                ):
                    failed += 1
            return failed

        return [Task(items, run, check, payload=lambda result: result[1])]


# The sweep covers both small pools at every length, and the 13-element
# union pool at its shortest lengths and at its longest, which lies above
# the length bound of the conditional theorems (q+1 plain, q extended).
# The full sweep takes about 25 s; this cut takes about 0.5 s, so that a
# run holds many rounds.
SWEEP_CALLS = (
    (False, "subgroup", None),
    (False, "subfield", None),
    (False, "subfield-union-trace-zero", (2, 12)),
    (True, "subgroup", None),
    (True, "subfield", None),
    (True, "subfield-union-trace-zero", (1, 3, 13)),
)
# pools on which every subset admits multipliers
SWEEP_POSITIVE = {(False, "subgroup"), (True, "subfield")}
# Codes with more messages than this are not enumerated for their distance.
DISTANCE_CHECK_LIMIT = 10 ** 4


class SweepWorkload:
    """sweep_conditional_theorem at q=7; exhaustive, so every round is the
    same and the seed changes nothing."""

    seeded = False
    trace_rounds = 1

    def __init__(self, q: int):
        self.q = q

    def setup(self, seed: int) -> Dict:
        lib = _library()
        field = lib.field_for_q(self.q)
        subfield = field.subfield_elements()
        union = {a.value: a for a in subfield}
        union.update({a.value: a for a in field.trace_zero_set()})
        pools = {
            "subgroup": field.norm_one_subgroup(),
            "subfield": subfield,
            "subfield-union-trace-zero": [union[v] for v in sorted(union)],
        }
        return {"lib": lib, "field": field, "pools": pools}

    def tasks(self, state: Dict, index: int) -> List[Task]:
        return [
            self._task(state, index, extended, pool_name, lengths)
            for extended, pool_name, lengths in SWEEP_CALLS
        ]

    def _task(self, state, index, extended, pool_name, lengths) -> Task:
        lib, field = state["lib"], state["field"]
        pool = sorted(state["pools"][pool_name], key=lambda a: a.value)
        parity = 1 if extended else 0
        sizes = [
            n for n in (lengths or range(1, len(pool) + 1))
            if n % 2 == parity and 1 <= n <= len(pool)
        ]
        expected = {n: math.comb(len(pool), n) for n in sizes}
        items = sum(expected.values())
        positive = (extended, pool_name) in SWEEP_POSITIVE

        def run():
            kwargs = {"pools": [pool_name]}
            if lengths is not None:
                kwargs["lengths"] = list(lengths)
            return lib.cli.sweep_conditional_theorem(field, extended, **kwargs)

        def check(result) -> int:
            rows = {row["n"]: row for row in result["results"]}
            if sorted(rows) != sizes or result["violations"]:
                return items
            failed = 0
            for n, row in rows.items():
                if row["tested"] != expected[n] or (
                    positive and row["exists"] != row["tested"]
                ):
                    failed += expected[n]
            # The sweep reports counts only.  On the first round, search
            # every subset again, rebuild each code found and test it
            # directly, and require as many codes as the sweep counted.
            if index == 0 and not failed:
                for n in sizes:
                    k = (n + 1) // 2 if extended else n // 2
                    found = 0
                    for subset in itertools.combinations(pool, n):
                        code = lib.find_multipliers(field, subset, extended=extended)
                        if code is None:
                            continue
                        found += 1
                        if not _recheck_exists(
                            lib, field, subset, code.multipliers, k, extended
                        ):
                            failed += 1
                    if found != rows[n]["exists"]:
                        failed += expected[n]
            return failed

        return Task(items, run, check, payload=lambda result: result)


GATE2_QS = (3, 4, 5, 7, 8)


class ConstructWorkload:
    """Build codes from a seeded sample of the construction-soundness grid
    and verify each with the direct and lemma criteria and is_mds.

    Each round draws one grid entry for every (q, n) pair, so every round
    does the same mix of field sizes and lengths and only the theorem and
    its parameters vary with the seed.
    """

    seeded = True
    trace_rounds = 4

    def setup(self, seed: int) -> Dict:
        lib = _library()
        grid: Dict = {}
        fields = {}
        for q in GATE2_QS:
            field = fields[q] = lib.field_for_q(q)
            entries = []
            for e in self._theorem1_exponents(field):
                shifts = [
                    b for b in field.elements()
                    if len(lib.family_S(field, e, b).elements) == q
                ]
                entries += [(1, e, b) for b in shifts[:2]]
            entries += [(2, l) for l in range(1, q + 1)]
            entries += [(3, l, m) for l in range(1, q + 1) for m in (1, 2, q)]
            for n in range(2, q + 1):
                grid[(q, n)] = entries
        return {"lib": lib, "fields": fields, "grid": grid, "seed": seed}

    @staticmethod
    def _theorem1_exponents(field) -> List[int]:
        q = field.q
        if q % 2:
            return [0, (field.order - 1) // 2]
        return [0, q - 1, 2 * (q - 1)]

    def tasks(self, state: Dict, index: int) -> List[Task]:
        rng = _round_rng(state["seed"], index)
        return [
            self._task(state, q, n, rng.choice(entries))
            for (q, n), entries in sorted(state["grid"].items())
        ]

    def _task(self, state, q, n, entry) -> Task:
        lib, field = state["lib"], state["fields"][q]
        extended = bool(n % 2)

        def run():
            theorem, *params = entry
            construct = getattr(lib, f"construct_theorem{theorem}")
            code = construct(field, *params, n, extended=extended)
            lemma = lib.criterion_lemma2 if extended else lib.criterion_lemma1
            verification = {
                "gram_zero": lib.criterion_direct(code),
                "lemma_criterion": lemma(code),
                "mds": lib.is_mds(code),
            }
            return code, {
                "code": lib.code_to_dict(code),
                "parameters": list(code.parameters()),
                "verification": verification,
            }

        def check(result) -> int:
            code, payload = result
            length, k, _ = payload["parameters"]
            ok = (
                all(v is True for v in payload["verification"].values())
                and code.n == n
                and length == 2 * k
            )
            # parameters() gives the designed distance; where the message
            # space is small enough, measure the true one.
            if ok and field.order ** k <= DISTANCE_CHECK_LIMIT:
                ok = lib.min_distance_bruteforce(code) == k + 1
            return 0 if ok else 1

        return Task(1, run, check, payload=lambda result: result[1])


WORKLOADS = {
    # Homogeneous system: two eliminations per subset, coset dimension 0,
    # table-based addition.  Sub-pools of 10 of the 15 units.
    "scan-q4-plain": ScanWorkload(4, 8, False, pool_size=10, expect_none=True,
                                  trace_rounds=2),
    # Order 59049 is above the add-table limit, so additions walk base-3
    # digits; most systems stop at one inconsistent elimination.
    "scan-q243-ext": ScanWorkload(243, 7, True, pool_size=10, expect_none=False,
                                  trace_rounds=2),
    # Structured locators, span conditions, positive outcomes, coset dim 1.
    "sweep-q7": SweepWorkload(7),
    # Bypasses the power-sum route: Gram matrix, interpolation, minors and
    # brute-force distance.
    "construct-verify": ConstructWorkload(),
}
