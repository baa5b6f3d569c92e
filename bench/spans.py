"""Span recorder and the wrappers that time calls into each credal module.

Spans are kept in memory as (name, start, end, parent) while one operation
runs and are folded into per-name totals when it ends. A span's self time is
its duration minus the part of it covered by its child spans, so the self
times of all spans of an operation add up to the operation's wall time.

The wrappers live only in this benchmark: nothing under src/ is changed.
A module-level function is patched in every credal module that holds a
reference to it (credal.cli binds parse_document, contour, bracket_check and
others at import, so patching only the defining module would miss those
calls); methods are patched on their class.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from collections.abc import Mapping
from time import perf_counter_ns

# modules whose namespaces may hold a patched function
MODULES = ("cli", "document", "elicit", "evidence", "frames", "fuzzy", "possibility")


class Recorder:
    """Spans of the current operation plus totals folded from finished ones."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    def fold(self) -> int:
        """Add the finished operation's self times to the totals; return its wall ns."""
        covered = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        wall = 0
        for (name, start, end, parent), child in zip(self.spans, covered):
            self.self_ns[name] += end - start - child
            self.calls[name] += 1
            if parent < 0:
                wall += end - start
        self.spans.clear()
        return wall


def _len(value) -> int:
    return len(value) if isinstance(value, (Mapping, list, tuple)) else 0


# What each wrapped call adds to the work counters: (counter, f(args, result)).
def _focal_in(args, result):
    return _len(args[2]) if len(args) > 2 else 0


def _focal_scanned(args, result):
    return len(args[0]._weights) if hasattr(args[0], "_weights") else len(args[0].values)


def _cells(args, result):
    return len(result)


def _bracket_cells(args, result):
    return result.subsets_checked


def _lines(args, result):
    return args[0].count("\n") + 1


# (span name, owner module, attribute, optional class, optional counter)
TARGETS = (
    ("document", "document", "parse_document", None, ("document.lines", _lines)),
    ("frames", "frames", "subset", "Frame", None),
    ("frames", "frames", "parse_subset", None, None),
    ("evidence.construct", "evidence", "__init__", "MassFunction", ("evidence.focal_in", _focal_in)),
    ("evidence.scan", "evidence", "belief", "MassFunction", ("evidence.focal_scanned", _focal_scanned)),
    ("evidence.scan", "evidence", "plausibility", "MassFunction", ("evidence.focal_scanned", _focal_scanned)),
    ("evidence.scan", "evidence", "probability_of", "ProbabilityDistribution",
     ("evidence.focal_scanned", _focal_scanned)),
    ("evidence.table", "evidence", "belief_table", "MassFunction", ("evidence.table_cells", _cells)),
    ("evidence.table", "evidence", "plausibility_table", "MassFunction", ("evidence.table_cells", _cells)),
    ("evidence.summary", "evidence", "classify", "MassFunction", None),
    ("evidence.summary", "evidence", "expected_cardinality", "MassFunction", None),
    ("evidence.summary", "evidence", "triangle_point", "MassFunction", None),
    ("possibility.contour", "possibility", "contour", None, None),
    ("possibility.levelcut", "possibility", "level_cuts", "PossibilityDistribution", None),
    ("possibility.levelcut", "possibility", "as_mass", "PossibilityDistribution", None),
    ("fuzzy", "fuzzy", "from_breakpoints", "FuzzySet", None),
    ("fuzzy", "fuzzy", "possibilistic_condition", None, None),
    ("fuzzy", "fuzzy", "bayes_fuzzy_condition", None, None),
    ("elicit.bracket", "elicit", "bracket_check", None, ("elicit.bracket_cells", _bracket_cells)),
    ("elicit.closed_form", "elicit", "maxent_distribution", None, None),
    ("elicit.closed_form", "elicit", "minspec_mass", None, None),
)


def _timed(rec: Recorder, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(index)
        if counter is not None:
            rec.counts[counter[0]] += counter[1](args, result)
        return result

    return wrapper


class Instrumentation:
    """Context manager that installs the wrappers on entry and restores on exit."""

    def __init__(self, rec: Recorder) -> None:
        mods = [importlib.import_module(f"credal.{m}") for m in MODULES]
        mods.append(importlib.import_module("credal"))
        self._patches: list[tuple[object, str, object, object]] = []
        for name, owner, attr, cls_name, counter in TARGETS:
            home = importlib.import_module(f"credal.{owner}")
            if cls_name is None:
                fn = getattr(home, attr)
                wrapper = _timed(rec, name, fn, counter)
                for mod in mods:
                    if getattr(mod, attr, None) is fn:
                        self._patches.append((mod, attr, fn, wrapper))
                continue
            cls = getattr(home, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(_timed(rec, name, raw.__func__, counter))
            else:
                wrapper = _timed(rec, name, raw, counter)
            self._patches.append((cls, attr, raw, wrapper))
        # the click group's main(): argument parsing, dispatch, callbacks, rendering
        group = importlib.import_module("credal.cli").main
        self._patches.append((group, "main", None, _timed(rec, "cli", group.main, None)))
        error_base = importlib.import_module("credal.errors").CredalError

        def count_error(exc, *args):
            rec.errors[type(exc).__name__] += 1
            Exception.__init__(exc, *args)

        # CredalError inherits Exception.__init__; every subclass reaches this one
        self._patches.append((error_base, "__init__", None, count_error))

    def __enter__(self) -> Instrumentation:
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for target, attr, original, _ in reversed(self._patches):
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
