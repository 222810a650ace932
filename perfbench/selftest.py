"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that
1. BENCHMARK.json names exactly the metrics run.py reports;
2. the tracer reports a missing public function as absent, keeps running,
   and puts back every binding it replaced;
3. two traced runs of each workload with the same seed give the same value
   for every deterministic counter: each *.calls and *_calls count,
   linalg.coset_vectors, linalg.coset_dim_max and selfdual.found_ratio;
4. run.py fails, printing no result, in a directory that holds only
   BENCHMARK.json and the benchmark's files.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7
DETERMINISTIC = {"linalg.coset_vectors", "linalg.coset_dim_max", "selfdual.found_ratio"}


def check_names(failures):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, reported in (("end_to_end", run.END_TO_END),
                          ("per_layer", run.per_layer_units())):
        if [(m["name"], m["unit"]) for m in spec[key]] != list(reported):
            failures.append(f"{key} metrics differ from what run.py reports")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        failures.append("workload names differ from workloads.WORKLOADS")


def snapshot(modules):
    held = []
    for mod in modules:
        held += [(mod, k, v) for k, v in vars(mod).items()]
        held += [
            (cls, k, v)
            for cls in vars(mod).values()
            if isinstance(cls, type) and cls.__module__ == mod.__name__
            for k, v in vars(cls).items()
        ]
    return held


def check_absent(failures):
    modules = tracer.package_modules()
    cli = next(m for m in modules if m.__name__ == "hermgrs.cli")
    removed = cli.sweep_conditional_theorem
    del cli.sweep_conditional_theorem
    try:
        before = snapshot(modules)
        with tracer.SpanTracer(modules) as spans:
            if "cli.sweep_conditional_theorem" not in spans.absent:
                failures.append("a missing function was not reported absent")
            field = modules[0].field_for_q(3)
            modules[0].find_multipliers(field, list(field.units())[:2])
        with tracer.CountTracer(modules) as counts:
            field.one + field.one
        if counts.counts["field.add_calls"] != 1:
            failures.append("count wrapper did not count one addition")
        after = snapshot(modules)
        if [(h, k, id(v)) for h, k, v in before] != [(h, k, id(v)) for h, k, v in after]:
            failures.append("the tracer left a wrapper installed")
        if spans.metrics()["selfdual.find_multipliers.calls"] != 1:
            failures.append("span wrapper did not record one find_multipliers call")
    finally:
        cli.sweep_conditional_theorem = removed


def traced_run(name, root=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=180, cwd=root,
    )


def check_determinism(failures):
    for name in workloads.WORKLOADS:
        results = []
        for _ in range(2):
            done = traced_run(name)
            if done.returncode != 0:
                failures.append(f"{name}: traced run failed:\n{done.stderr}")
                break
            results.append(json.loads(done.stdout.splitlines()[-1]))
        if len(results) < 2:
            continue
        for result in results:
            if not result["correct"] or result["failed"]:
                failures.append(f"{name}: traced run not correct")
        first, second = (r["metrics"] for r in results)
        differ = [
            f"{name}: {metric} = {entry['value']} then {second[metric]['value']}"
            for metric, entry in first.items()
            if (metric.endswith("calls") or metric in DETERMINISTIC)
            and entry["value"] != second[metric]["value"]
        ]
        failures += differ
        print(f"{name}: counters {'differ' if differ else 'repeat'}")


def check_bare_directory(failures):
    bare = run.RESULTS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    shutil.copy(run.DIGESTS, bare / "perfbench")
    try:
        done = traced_run("scan-q4-plain", root=bare)
        if done.returncode == 0 or done.stdout.strip():
            failures.append("run.py did not fail without the library sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures: list = []
    check_names(failures)
    check_absent(failures)
    check_bare_directory(failures)
    check_determinism(failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
