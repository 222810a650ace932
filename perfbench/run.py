"""hermgrs benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src.  Workloads are defined in workloads.py.

With --trace 0 the run reports the end-to-end metrics:

  items_per_s  items decided per second, the median over timed rounds of
               items / round time.  An item is a locator subset for scans
               and sweeps, and a code built and verified for
               construct-verify.  Rounds run until their summed time
               reaches --seconds; each round's output is checked, outside
               the timed region, before the next round starts.
  setup_s      median over several fresh processes of: import hermgrs (all
               modules, as the CLI does), build the field(s), generate the
               pool or parameter grid.
  peak_rss_mb  peak resident memory of this process, which runs one
               workload only.

Both times are scaled by the speed probe in speed.py, which runs around the
timed work, to seconds of a machine on which the probe takes
speed.REFERENCE_S; the unscaled medians are printed with them.

failed_frac (failed items / attempted) is printed too.  It is not a gated
metric because it is 0 when the library is correct; the result line carries
the same information as `attempted` and `failed`.

With --trace 1 the run reports per-layer metrics from a fixed number of
rounds, run three times in one process: untraced, with span wrappers (calls,
self times, coset and search counters), and with count-only wrappers (field
operations, Poly.eval, encode).  Call counts repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it print every metric by
name and unit, and a machine record.  The full result, with the spans of a
traced run, is written to perfbench/results/.

At seed CANONICAL_SEED the digest of each of the first rounds'
deterministic payload is compared with digests.json, which holds the
digests this benchmark was defined with; the sweep's payload does not
depend on the seed and is compared at every seed.  A mismatch fails that
round's items.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
DIGESTS = BENCH_DIR / "digests.json"
CANONICAL_SEED = 1
SETUP_RUNS = 7
SEGMENT_S = 0.2
END_TO_END = (("items_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

SETUP_CHILD = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import speed, workloads
workload = workloads.WORKLOADS[sys.argv[3]]
speed.probe()
before = speed.probe()
start = time.perf_counter()
workload.setup(int(sys.argv[4]))
elapsed = time.perf_counter() - start
print(repr(elapsed), repr(elapsed * 2 * speed.REFERENCE_S / (before + speed.probe())))
"""


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Rounds:
    """Runs rounds of one workload and keeps the tally of items and checks."""

    def __init__(self, workload, state, seed, expected_digests):
        self.workload = workload
        self.state = state
        self.seed = seed
        self.expected = expected_digests
        self.times = []  # seconds as measured
        self.scaled = []  # seconds at the probe's reference speed
        self.items = []
        self.failed = 0
        self.digests = []
        self.last_probe = None

    def run(self, index, span=None):
        """Run round `index`; returns its tasks and raw results, unchecked.

        The speed probe runs after each stretch of tasks that took
        SEGMENT_S or more and after the last task, and each stretch's time
        is scaled by the mean of the probes around it.  The probe after a
        round is the probe before the next one; only the untimed checks run
        between them.
        """
        tasks = self.workload.tasks(self.state, index)
        results = []
        raw = scaled = stretch = 0.0
        gc.collect()
        before = self.last_probe or speed.probe()
        for position, task in enumerate(tasks):
            start = time.perf_counter()
            try:
                if span is None:
                    results.append(task.run())
                else:
                    with span("bench.task"):
                        results.append(task.run())
            except Exception as exc:  # counts as failed items, run goes on
                results.append(exc)
            stretch += time.perf_counter() - start
            if stretch >= SEGMENT_S or position == len(tasks) - 1:
                after = speed.probe()
                raw += stretch
                scaled += stretch * 2 * speed.REFERENCE_S / (before + after)
                before, stretch = after, 0.0
        self.last_probe = before
        self.times.append(raw)
        self.scaled.append(scaled)
        self.items.append(sum(task.items for task in tasks))
        return tasks, results

    def check(self, index, tasks, results) -> None:
        """Check one round's outputs and compare its digest."""
        payloads = []
        failed = 0
        for task, result in zip(tasks, results):
            if isinstance(result, Exception):
                print(f"# round {index}: {type(result).__name__}: {result}",
                      file=sys.stderr)
                failed += task.items
                payloads.append({"error": type(result).__name__})
                continue
            try:
                failed += min(task.items, max(0, task.check(result)))
            except Exception as exc:
                print(f"# round {index}: check raised {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                failed += task.items
            payloads.append(task.payload(result))
        value = digest(payloads)
        self.digests.append(value)
        want = self._expected_digest(index)
        if want is not None and want != value:
            print(f"# round {index}: payload digest {value} != recorded {want}",
                  file=sys.stderr)
            failed = sum(task.items for task in tasks)
        self.failed += failed

    def _expected_digest(self, index):
        recorded = self.expected
        if not recorded:
            return None
        if not self.workload.seeded:
            return recorded[0]
        if self.seed == CANONICAL_SEED and index < len(recorded):
            return recorded[index]
        return None

    def rates(self, times=None):
        return [n / t for n, t in zip(self.items, times or self.scaled)]


def load_digests(name):
    return json.loads(DIGESTS.read_text()).get(name, [])


def setup_time(name, seed):
    """Set-up time of `name` in one fresh process, as measured and scaled
    to the probe's reference speed."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    elapsed, at_reference = done.stdout.split()[-2:]
    return float(elapsed), float(at_reference)


def git_sha():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record(args, items):
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": items,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_untraced(args, workload):
    tracer.package_modules()  # import (and byte-compile) outside any timing
    state = workload.setup(args.seed)
    rounds = Rounds(workload, state, args.seed, load_digests(args.workload))
    # The set-up processes are spread over the run, so that their median
    # does not hang on the speed of the host in one moment.
    setups = []
    index = 0
    while not rounds.times or sum(rounds.times) < args.seconds:
        rounds.check(index, *rounds.run(index))
        index += 1
        if len(setups) < SETUP_RUNS * sum(rounds.times) / args.seconds:
            setups.append(setup_time(args.workload, args.seed))
            rounds.last_probe = None
    while len(setups) < SETUP_RUNS:
        setups.append(setup_time(args.workload, args.seed))
    setups_measured = [measured for measured, _ in setups]
    setups = [scaled for _, scaled in setups]
    rates = rounds.rates()
    attempted = sum(rounds.items)
    values = {
        "items_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    q1, q3 = quartiles(rates)
    notes = [
        f"items_per_s: median of {len(rates)} rounds, quartiles {q1:.6g} {q3:.6g}; "
        f"unscaled median {statistics.median(rounds.rates(rounds.times)):.6g}",
        f"setup_s: median of {len(setups)} fresh processes, "
        f"min {min(setups):.6g} max {max(setups):.6g}; "
        f"unscaled median {statistics.median(setups_measured):.6g}",
        f"failed_frac = {rounds.failed / attempted!r} ratio "
        f"({rounds.failed} of {attempted} items)",
    ]
    extra = {"round_times_s": rounds.times, "round_scaled_s": rounds.scaled,
             "round_items": rounds.items, "setup_times_s": setups_measured,
             "setup_scaled_s": setups, "digests": rounds.digests}
    return rounds.failed == 0, attempted, rounds.failed, metrics, notes, extra


def run_traced(args, workload):
    modules = tracer.package_modules()
    count = workload.trace_rounds
    expected = load_digests(args.workload)

    plain = Rounds(workload, workload.setup(args.seed), args.seed, expected)
    outputs = [(i, *plain.run(i)) for i in range(count)]

    with tracer.SpanTracer(modules) as spans:
        traced = Rounds(workload, workload.setup(args.seed), args.seed, expected)
        traced_outputs = [(i, *traced.run(i, spans.span)) for i in range(count)]

    with tracer.CountTracer(modules) as counter:
        counted = Rounds(workload, workload.setup(args.seed), args.seed, expected)
        counted_outputs = [(i, *counted.run(i)) for i in range(count)]

    for rounds, done in ((plain, outputs), (traced, traced_outputs), (counted, counted_outputs)):
        for index, tasks, results in done:
            rounds.check(index, tasks, results)
    same = plain.digests == traced.digests == counted.digests
    if not same:
        print("# traced passes gave other payloads than the untraced pass",
              file=sys.stderr)

    values = spans.metrics()
    values.update(counter.metrics())
    untraced_rate = sum(plain.items) / sum(plain.scaled)
    traced_rate = sum(traced.items) / sum(traced.scaled)
    values["trace.overhead_frac"] = 1 - traced_rate / untraced_rate
    absent = sorted(set(spans.absent + counter.absent))
    metrics = {name: (values[name], unit) for name, unit in per_layer_units()}
    correct = same and plain.failed == traced.failed == counted.failed == 0
    notes = [f"traced {count} rounds, {sum(plain.items)} items, three passes",
             "absent: " + (", ".join(absent) if absent else "none")]
    extra = {"absent": absent, "digests": plain.digests, "spans": spans.spans}
    return correct, sum(plain.items), plain.failed, metrics, notes, extra


def per_layer_units():
    for name in tracer.span_metric_names():
        yield name, "count" if name.endswith(".calls") else "s"
    for name, _ in tracer.COUNTS:
        yield name, "count"
    yield from tracer.OBSERVED
    yield "trace.overhead_frac", "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=CANONICAL_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hermgrs" / "__init__.py").is_file():
        print(f"error: no hermgrs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hermgrs

    if Path(hermgrs.__file__).resolve().parent != (SRC / "hermgrs").resolve():
        print(f"error: imported hermgrs from {hermgrs.__file__}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    correct, attempted, failed, metrics, notes, extra = runner(args, workload)
    record = machine_record(args, attempted)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for note in notes:
        print(f"# {note}")
    print("# machine " + json.dumps(record, sort_keys=True))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(
        {"machine": record, "correct": correct, "attempted": attempted,
         "failed": failed, "metrics": {k: v for k, (v, _) in metrics.items()},
         **extra},
        sort_keys=True,
    ))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
