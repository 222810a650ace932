"""Command-line interface: field inspection, construction, verification,
multiplier search, exhaustive scans, and the conditional-theorem sweeps.

Exit codes: 0 success / positive verdict, 1 negative verdict, 2 input error,
3 budget exceeded, 4 internal consistency failure (a library fault: a result
failed the re-check it carries as a proof).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import itertools
import json
import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .errors import BudgetError, HermgrsError, InputError, InternalConsistencyError
from .field import Element, Field, field_for_q, make_field
from .grs import (
    CodeSpec,
    code_from_dict,
    code_to_dict,
    hermitian_gram,
    is_mds,
)
from .constructions import (
    construct_theorem1,
    construct_theorem2,
    construct_theorem3,
    family_B,
    family_Blm,
    family_S,
)
from .linalg import DEFAULT_COSET_BUDGET
from .selfdual import (
    PowerSumSystems,
    ScanReport,
    criterion_direct,
    criterion_lemma1,
    criterion_lemma2,
    existence_scan,
    find_multipliers,
    span_condition_extended,
    span_condition_plain,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _parse_element(field: Field, token: str) -> Element:
    """`zero` or `-1` is the zero element; an integer t in 0..q^2-2 is theta^t."""
    token = token.strip()
    if token == "zero":
        return field.zero
    try:
        t = int(token)
    except ValueError:
        raise InputError(f"bad element token {token!r}; use 'zero' or a dlog int")
    return field.from_dlog_input(t, allow_zero=True)


def _parse_locators(field: Field, tokens: Sequence[str]) -> Tuple[Element, ...]:
    flat: List[str] = []
    for tok in tokens:
        flat.extend(t for t in tok.replace(",", " ").split() if t)
    return tuple(_parse_element(field, t) for t in flat)


def _pool_elements(field: Field, spec: str) -> Tuple[List[Element], str]:
    name = spec.strip().lower()
    if name == "all":
        return list(field.elements()), "all"
    if name == "all-nonzero":
        return list(field.units()), "all-nonzero"
    if name == "subfield":
        return field.subfield_elements(), "subfield"
    if name == "trace-zero":
        return field.trace_zero_set(), "trace-zero"
    if name == "subfield-union-trace-zero":
        merged = {x.value: x for x in field.subfield_elements()}
        merged.update({x.value: x for x in field.trace_zero_set()})
        return [merged[v] for v in sorted(merged)], "subfield-union-trace-zero"
    if name == "subgroup":
        return field.norm_one_subgroup(), "subgroup"
    if name.startswith("b:"):
        l = int(name.split(":")[1])
        return family_B(field, l).elements, f"b:{l}"
    if name.startswith("blm:"):
        _, l, m = name.split(":")
        return family_Blm(field, int(l), int(m)).elements, f"blm:{l}:{m}"
    if name.startswith("s:"):
        _, e, b = name.split(":")
        fam = family_S(field, int(e), _parse_element(field, b))
        return fam.elements, f"s:{e}:{b}"
    raise InputError(f"unknown pool {spec!r}")


def _metadata(command: str, params: Dict) -> Dict:
    return {
        "command": command,
        "parameters": params,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _print_json(data: Dict) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


# ----- field -----


def cmd_field(args: argparse.Namespace) -> int:
    field = make_field(args.p, args.m)
    v = field.trace_zero_set()
    info = {
        "record": field.export_record(),
        "p": field.p,
        "m": field.m,
        "q": field.q,
        "order": field.order,
        "modulus": list(field.modulus),
        "theta_order": field.order - 1,
        "trace_zero_set": [field.dlog(x) if x else -1 for x in v],
        "subfield": [field.dlog(x) if x else -1 for x in field.subfield_elements()],
    }
    if args.tables:
        info["norm"] = {
            field.format_element(x): field.format_element(field.norm(x))
            for x in field.elements()
        }
        info["trace"] = {
            field.format_element(x): field.format_element(field.trace(x))
            for x in field.elements()
        }
    if args.json:
        _print_json(info)
    else:
        print(f"GF({field.q}^2) = GF({field.p})[x]/({_modulus_str(field)})")
        print(f"record: {field.export_record()}")
        print("V = {" + ", ".join(field.format_element(x) for x in v) + "}")
        print(
            "GF(q) = {"
            + ", ".join(field.format_element(x) for x in field.subfield_elements())
            + "}"
        )
        if args.tables:
            for x in field.elements():
                print(
                    f"  {field.format_element(x):>6}: "
                    f"norm={field.format_element(field.norm(x)):>6} "
                    f"trace={field.format_element(field.trace(x)):>6}"
                )
    return EXIT_OK


def _modulus_str(field: Field) -> str:
    terms = []
    for i, c in enumerate(field.modulus):
        if c:
            terms.append(f"{c}*x^{i}" if i else str(c))
    return " + ".join(terms)


# ----- construct -----


def _verification_block(code: CodeSpec) -> Dict:
    lemma = criterion_lemma2(code) if code.extended else criterion_lemma1(code)
    return {
        "gram_zero": criterion_direct(code),
        "mds": is_mds(code),
        "lemma_criterion": lemma,
    }


def cmd_construct(args: argparse.Namespace) -> int:
    field = field_for_q(args.q)
    locators = (
        _parse_locators(field, args.locators) if args.locators else None
    )
    if args.theorem == 1:
        if args.e is None or args.b is None:
            raise InputError("theorem 1 needs --e and --b")
        code = construct_theorem1(
            field, args.e, _parse_element(field, args.b), args.n,
            extended=args.extended, locators=locators,
        )
    elif args.theorem == 2:
        if args.l is None:
            raise InputError("theorem 2 needs --l")
        code = construct_theorem2(
            field, args.l, args.n, extended=args.extended, locators=locators
        )
    else:
        if args.l is None or args.m is None:
            raise InputError("theorem 3 needs --l and --m")
        code = construct_theorem3(
            field, args.l, args.m, args.n, extended=args.extended, locators=locators
        )
    payload = {
        "code": code_to_dict(code),
        "parameters": list(code.parameters()),
        "verification": _verification_block(code),
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
    if args.json:
        _print_json(payload)
    else:
        n, k, d = code.parameters()
        print(f"[{n},{k},{d}] Hermitian self-dual code over GF({field.q}^2)")
        print("locators:    " + " ".join(map(repr, code.locators)))
        print("multipliers: " + " ".join(map(repr, code.multipliers)))
        print(f"verification: {payload['verification']}")
    return EXIT_OK


# ----- verify -----


def cmd_verify(args: argparse.Namespace) -> int:
    with open(args.codefile) as handle:
        data = json.load(handle)
    if isinstance(data, dict) and "code" in data:
        data = data["code"]
    code = code_from_dict(data)
    direct = criterion_direct(code)
    lemma = criterion_lemma2(code) if code.extended else criterion_lemma1(code)
    mds = is_mds(code)
    verdict = direct and lemma
    result = {
        "self_dual": verdict,
        "gram_zero": direct,
        "lemma_criterion": lemma,
        "mds": mds,
        "parameters": list(code.parameters()),
    }
    if not direct:
        result["gram"] = hermitian_gram(code).to_dlog_rows()
    if args.json:
        _print_json(result)
    else:
        print("self-dual" if verdict else "NOT self-dual")
        print(f"gram_zero={direct} lemma={lemma} mds={mds}")
    return EXIT_OK if verdict else EXIT_NEGATIVE


# ----- search -----


def cmd_search(args: argparse.Namespace) -> int:
    field = field_for_q(args.q)
    locators = _parse_locators(field, args.locators)
    code = find_multipliers(field, locators, extended=args.extended, budget=args.budget)
    if code is None:
        if args.json:
            _print_json({"exists": False})
        else:
            print("none")
        return EXIT_NEGATIVE
    if args.json:
        _print_json({"exists": True, "code": code_to_dict(code)})
    else:
        print("multipliers: " + " ".join(map(repr, code.multipliers)))
    return EXIT_OK


# ----- scan -----


def cmd_scan(args: argparse.Namespace) -> int:
    field = field_for_q(args.q)
    pool, description = _pool_elements(field, args.pool)
    report = existence_scan(
        field, args.n, pool, extended=args.extended, budget=args.budget,
        pool_description=description, workers=args.workers,
    )
    payload = report.to_dict()
    payload["metadata"] = _metadata(
        "scan",
        {
            "q": args.q,
            "n": args.n,
            "pool": description,
            "extended": args.extended,
        },
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
    if args.csv:
        _write_scan_csv(args.csv, report)
    totals = report.totals
    print(
        f"scan q={field.q} n={args.n} extended={args.extended} "
        f"pool={description}: tested={totals['tested']} "
        f"exists={totals['exists']} none={totals['none']}"
    )
    return EXIT_OK


def _write_scan_csv(path: str, report: ScanReport) -> None:
    f = report.field
    enc = lambda a: str(f.dlog(a)) if a else "-1"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["locators", "exists", "multipliers"])
        for entry in report.entries:
            writer.writerow(
                [
                    " ".join(enc(a) for a in entry.locators),
                    int(entry.exists),
                    " ".join(enc(v) for v in entry.multipliers)
                    if entry.multipliers
                    else "",
                ]
            )


# ----- conjecture -----

CONJECTURE_POOLS = ("subgroup", "subfield", "subfield-union-trace-zero")


def sweep_conditional_theorem(
    field: Field,
    extended: bool,
    pools: Sequence[str] = CONJECTURE_POOLS,
    lengths: Optional[Sequence[int]] = None,
    max_subsets: int = 20000,
    budget: int = DEFAULT_COSET_BUDGET,
) -> Dict:
    """Evaluate span-condition and existence over pool subsets.

    The conditional theorems say: span condition and existence together
    force n <= q+1 (plain) or n <= q (extended).  Every instance is
    recorded; any violation is a counterexample (expected: none).
    """
    q = field.q
    bound = q if extended else q + 1
    parity = 1 if extended else 0
    results = []
    violations = []
    for pool_name in pools:
        pool, description = _pool_elements(field, pool_name)
        ordered = sorted(pool, key=lambda a: a.value)
        sizes = lengths or range(1 if extended else 2, len(ordered) + 1)
        for n in sizes:
            if n % 2 != parity or n > len(ordered):
                continue
            if math.comb(len(ordered), n) > max_subsets:
                continue
            span_count = exists_count = both = 0
            tested = 0
            systems = PowerSumSystems(field, n, extended)
            for subset in itertools.combinations(ordered, n):
                span = (
                    span_condition_extended(field, subset)
                    if extended
                    else span_condition_plain(field, subset)
                )
                code = systems.find(subset, budget)
                exists = code is not None
                tested += 1
                span_count += span.holds
                exists_count += exists
                if span.holds and exists:
                    both += 1
                    if n > bound:
                        violations.append(
                            {
                                "pool": description,
                                "n": n,
                                "locators": [
                                    field.dlog(a) if a else -1 for a in subset
                                ],
                            }
                        )
            results.append(
                {
                    "pool": description,
                    "n": n,
                    "tested": tested,
                    "span_holds": span_count,
                    "exists": exists_count,
                    "span_and_exists": both,
                }
            )
    return {
        "q": q,
        "extended": extended,
        "bound": bound,
        "results": results,
        "violations": violations,
    }


def cmd_conjecture(args: argparse.Namespace) -> int:
    field = field_for_q(args.q)
    report = sweep_conditional_theorem(
        field,
        args.extended,
        lengths=[args.n] if args.n else None,
        max_subsets=args.max_subsets,
        budget=args.budget,
    )
    report["metadata"] = _metadata(
        "conjecture", {"q": args.q, "extended": args.extended, "n": args.n}
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    if args.json:
        _print_json(report)
    else:
        for row in report["results"]:
            print(
                f"pool={row['pool']:<28} n={row['n']:>2}: tested={row['tested']:>5} "
                f"span={row['span_holds']:>5} exists={row['exists']:>5} "
                f"both={row['span_and_exists']:>5}"
            )
        print(
            f"violations of 'span & exists => n <= {report['bound']}': "
            f"{len(report['violations'])}"
        )
    return EXIT_OK if not report["violations"] else EXIT_NEGATIVE


# ----- entry point -----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermgrs",
        description="Hermitian self-dual (extended) GRS codes over GF(q^2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="inspect GF(q^2) for q = p^m")
    p_field.add_argument("p", type=int)
    p_field.add_argument("m", type=int)
    p_field.add_argument("--tables", action="store_true")
    p_field.add_argument("--json", action="store_true")
    p_field.set_defaults(func=cmd_field)

    p_con = sub.add_parser("construct", help="build a self-dual code family member")
    p_con.add_argument("theorem", type=int, choices=(1, 2, 3))
    p_con.add_argument("--q", type=int, required=True)
    p_con.add_argument("--n", type=int, required=True)
    p_con.add_argument("--extended", action="store_true")
    p_con.add_argument("--e", type=int, help="family-1 exponent (a = theta^e)")
    p_con.add_argument("--b", help="family-1 shift ('zero' or dlog)")
    p_con.add_argument("--l", type=int, help="coset index")
    p_con.add_argument("--m", type=int, help="family-3 exponent (beta = theta^m)")
    p_con.add_argument("--locators", nargs="*", help="explicit locator subset")
    p_con.add_argument("--json", action="store_true")
    p_con.add_argument("--out")
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="verify a CodeSpec JSON file")
    p_ver.add_argument("codefile")
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_sea = sub.add_parser("search", help="find multipliers for explicit locators")
    p_sea.add_argument("--q", type=int, required=True)
    p_sea.add_argument("--locators", nargs="+", required=True)
    p_sea.add_argument("--extended", action="store_true")
    p_sea.add_argument("--budget", type=int, default=DEFAULT_COSET_BUDGET)
    p_sea.add_argument("--json", action="store_true")
    p_sea.set_defaults(func=cmd_search)

    p_scan = sub.add_parser("scan", help="exhaustive existence scan over subsets")
    p_scan.add_argument("--q", type=int, required=True)
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--pool", required=True)
    p_scan.add_argument("--extended", action="store_true")
    p_scan.add_argument("--budget", type=int, default=DEFAULT_COSET_BUDGET)
    p_scan.add_argument("--workers", type=int, default=1)
    p_scan.add_argument("--out")
    p_scan.add_argument("--csv")
    p_scan.set_defaults(func=cmd_scan)

    p_conj = sub.add_parser(
        "conjecture", help="sweep the conditional existence theorems"
    )
    p_conj.add_argument("--q", type=int, required=True)
    p_conj.add_argument("--n", type=int)
    p_conj.add_argument("--extended", action="store_true")
    p_conj.add_argument("--max-subsets", type=int, default=20000)
    p_conj.add_argument("--budget", type=int, default=DEFAULT_COSET_BUDGET)
    p_conj.add_argument("--out")
    p_conj.add_argument("--json", action="store_true")
    p_conj.set_defaults(func=cmd_conjecture)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (HermgrsError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
