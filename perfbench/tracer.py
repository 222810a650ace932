"""Layer tracing for hermgrs, installed from outside the package.

A wrapper replaces a public function in the module that defines it and in
every hermgrs module that bound it by name; a method is replaced on its
class.  Two kinds of wrapper exist:

* span wrappers record (name, start, end, parent span) for each call, so a
  layer's self time is its span time minus the time of its child spans;
* count wrappers only count calls.  They go around the field operations and
  other functions called too often for a span each, in a separate pass, so
  that their cost does not distort the span times.

A name that the package no longer has is reported as absent and skipped, so
renames and removals in the library leave the benchmark running.  Importing
this module does not import hermgrs.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import pkgutil
import sys
import time
from typing import Dict, List, Sequence, Tuple

# (span name, candidate names); "Class.method" names a method.
SPANS: Sequence[Tuple[str, Tuple[str, ...]]] = (
    ("field.build", ("field_for_q", "make_field")),
    ("linalg.rref", ("rref",)),
    ("linalg.split_to_subfield", ("split_to_subfield",)),
    ("linalg.solve", ("solve",)),
    ("linalg.null_space", ("null_space",)),
    ("linalg.solve_in_subfield_nonzero", ("solve_in_subfield_nonzero",)),
    ("linalg.det", ("det",)),
    ("selfdual.build_criterion_matrix", ("build_criterion_matrix",)),
    ("selfdual.find_multipliers", ("find_multipliers",)),
    ("selfdual.span_condition", ("span_condition_plain", "span_condition_extended")),
    ("selfdual.criterion_direct", ("criterion_direct",)),
    ("selfdual.criterion_lemma", ("criterion_lemma1", "criterion_lemma2")),
    ("selfdual.existence_scan", ("existence_scan",)),
    ("selfdual.report_to_dict", ("ScanReport.to_dict",)),
    ("grs.hermitian_gram", ("hermitian_gram",)),
    ("grs.is_mds", ("is_mds",)),
    ("grs.min_distance_bruteforce", ("min_distance_bruteforce",)),
    ("poly.interpolate", ("interpolate",)),
    ("constructions.construct", ("construct_theorem1", "construct_theorem2", "construct_theorem3")),
    ("constructions.family", ("family_S", "family_B", "family_Blm")),
    ("cli.sweep_conditional_theorem", ("sweep_conditional_theorem",)),
)

# (metric name, candidate names) for the count-only pass.
COUNTS: Sequence[Tuple[str, Tuple[str, ...]]] = (
    ("field.mul_calls", ("Field.mul",)),
    ("field.add_calls", ("Field.add", "Field.sub", "Field.neg")),
    ("poly.eval_calls", ("Poly.eval",)),
    ("grs.encode.calls", ("encode",)),
)

# (metric name, unit) derived from call arguments and results in the span pass.
OBSERVED = (
    ("linalg.coset_vectors", "count"),
    ("linalg.coset_dim_max", "count"),
    ("selfdual.found_ratio", "ratio"),
)

# The field build is reported as one time, under the name later work cites.
RENAMED = {"field.build.self_s": "field.build_s"}


def span_metric_names() -> List[str]:
    names = []
    for span, _ in SPANS:
        names += [f"{span}.calls", RENAMED.get(f"{span}.self_s", f"{span}.self_s")]
    return names


def package_modules() -> list:
    """Import hermgrs and all its submodules; the package itself comes first."""
    import hermgrs

    for info in pkgutil.iter_modules(hermgrs.__path__, "hermgrs."):
        importlib.import_module(info.name)
    names = sorted(n for n in sys.modules if n.startswith("hermgrs."))
    return [hermgrs] + [sys.modules[n] for n in names]


def bindings(modules: list, name: str) -> list:
    """Every (holder, attribute) through which callers reach `name`.

    A function is found in the module whose name matches its __module__,
    then rebound wherever a hermgrs module holds the same object, under any
    alias.  A method is bound only on its class.  Empty when absent.
    """
    if "." in name:
        cls_name, method = name.split(".", 1)
        for mod in modules:
            cls = vars(mod).get(cls_name)
            if isinstance(cls, type) and cls.__module__ == mod.__name__:
                return [(cls, method)] if method in vars(cls) else []
        return []
    owner = None
    for mod in modules:
        obj = vars(mod).get(name)
        if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
            owner = obj
            break
    if owner is None:
        return []
    return [
        (mod, attr)
        for mod in modules
        for attr, value in list(vars(mod).items())
        if value is owner
    ]


class _Patches:
    """Installs wrappers and puts the original objects back on exit."""

    def __init__(self, modules: list):
        self.modules = modules
        self.absent: List[str] = []
        self._saved: list = []

    def wrap(self, metric: str, names: Sequence[str], make_wrapper) -> None:
        found = False
        for name in names:
            places = bindings(self.modules, name)
            if not places:
                continue
            found = True
            holder, attr = places[0]
            original = vars(holder)[attr]
            wrapper = make_wrapper(original)
            for holder, attr in places:
                self._saved.append((holder, attr, vars(holder)[attr]))
                setattr(holder, attr, wrapper)
        if not found:
            self.absent.append(metric)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()
        return False


class SpanTracer(_Patches):
    """Span wrappers around every target in SPANS, plus derived counters."""

    def __init__(self, modules: list):
        super().__init__(modules)
        # one [name, start, end, parent index] per call; parent -1 is the root
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.coset_vectors = 0
        self.coset_dim_max = 0
        self.found = 0
        self.searched = 0
        self.observers = {
            "linalg.null_space": self._observe_null_space,
            "selfdual.find_multipliers": self._observe_find,
        }

    def __enter__(self):
        for span, names in SPANS:
            self.wrap(span, names, functools.partial(self._span_wrapper, span))
        if "linalg.null_space" in self.absent:
            self.absent += ["linalg.coset_vectors", "linalg.coset_dim_max"]
        if "selfdual.find_multipliers" in self.absent:
            self.absent.append("selfdual.found_ratio")
        return self

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one task."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observe_null_space(self, args, basis) -> None:
        d = len(basis)
        self.coset_vectors += args[0].field.q ** d
        self.coset_dim_max = max(self.coset_dim_max, d)

    def _observe_find(self, args, code) -> None:
        self.searched += 1
        self.found += code is not None

    def metrics(self) -> Dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Dict[str, int] = collections.Counter()
        self_time: Dict[str, float] = collections.defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            calls[name] += 1
            self_time[name] += end - start - inner
        out: Dict[str, float] = {}
        for span, _ in SPANS:
            out[f"{span}.calls"] = calls[span]
            key = f"{span}.self_s"
            out[RENAMED.get(key, key)] = self_time[span]
        out["linalg.coset_vectors"] = self.coset_vectors
        out["linalg.coset_dim_max"] = self.coset_dim_max
        out["selfdual.found_ratio"] = self.found / self.searched if self.searched else 0.0
        return out


class CountTracer(_Patches):
    """Count-only wrappers around every target in COUNTS."""

    def __init__(self, modules: list):
        super().__init__(modules)
        self.counts: Dict[str, int] = {metric: 0 for metric, _ in COUNTS}

    def __enter__(self):
        for metric, names in COUNTS:
            self.wrap(metric, names, functools.partial(self._count_wrapper, metric))
        return self

    def _count_wrapper(self, metric: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self) -> Dict[str, float]:
        return dict(self.counts)
