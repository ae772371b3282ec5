"""Spans around dqeval's public functions, installed from outside the package.

A traced function is replaced in its defining module and in every loaded
``dqeval`` module that imported it by name (``cli`` and ``harness`` hold their
own references to ``load_dataset``, ``take_records`` and ``build_report``). Dataclass construction is timed through ``__post_init__``.
Spans nest: a span's self time is its duration minus its child spans'.
Counts (cells, samples, points) are derived from call arguments and results.
A target that no longer exists is reported in ``absent`` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter


def _cells_read(args, kwargs, result) -> int:
    return result.n_records * len(result.columns)


def _cells_built(args, kwargs, result) -> int:
    return sum(len(v) for v in args[0].cells.values())


def _samples_built(args, kwargs, result) -> int:
    return sum(len(ch) for ch in args[0].samples)


def _points(args, kwargs, result) -> int:
    return len(args[0])


# (module, attribute path, span name, count name, count function)
TARGETS = (
    ("dqeval.cli", "main", "cli.main", None, None),
    ("dqeval.report", "read_descriptor", "report.read_descriptor", None, None),
    ("dqeval.report", "load_dataset", "report.load_dataset", "cells", _cells_read),
    ("dqeval.report", "build_report", "report.build_report", None, None),
    ("dqeval.report", "report_json", "report.report_json", None, None),
    ("dqeval.report", "render_report_markdown", "report.render_report_markdown", None, None),
    ("dqeval.report", "compare_results", "report.compare_results", None, None),
    ("dqeval.report", "render_comparison_markdown", "report.render_comparison_markdown", None, None),
    ("dqeval.datamodel", "Dataset.__post_init__", "datamodel.Dataset.build", "cells", _cells_built),
    ("dqeval.datamodel", "SignalBlock.__post_init__", "datamodel.SignalBlock.build", "samples", _samples_built),
    ("dqeval.datamodel", "take_records", "datamodel.take_records", None, None),
    ("dqeval.registry", "evaluate", "registry.evaluate", None, None),
    ("dqeval.measurement", "sample_entropy", "measurement.sample_entropy", "points", _points),
    ("dqeval.distribution", "mmd", "distribution.mmd", None, None),
    ("dqeval.distribution", "median_heuristic_bandwidth", "distribution.median_heuristic_bandwidth", None, None),
    ("dqeval.distribution", "energy_distance", "distribution.energy_distance", None, None),
    ("dqeval.distribution", "two_sample_test", "distribution.two_sample_test", None, None),
    ("dqeval.distribution", "divergence", "distribution.divergence", None, None),
    ("dqeval.distribution", "wasserstein_1d", "distribution.wasserstein_1d", None, None),
    ("dqeval.structure", "prevalence_of_duplicates", "structure.prevalence_of_duplicates", None, None),
    ("dqeval.structure", "littles_mcar_test", "structure.littles_mcar_test", None, None),
    ("dqeval.structure", "page_hinkley", "structure.page_hinkley", None, None),
    ("dqeval.correlation", "correlation", "correlation.correlation", None, None),
    ("dqeval.correlation", "cramers_v", "correlation.cramers_v", None, None),
    ("dqeval.harness", "run_harness", "harness.run_harness", None, None),
    ("dqeval.harness", "load_ptbxl", "harness.load_ptbxl", None, None),
    ("dqeval.harness", "apply_recipe", "harness.apply_recipe", None, None),
    ("dqeval.harness", "harness_rows", "harness.harness_rows", None, None),
    ("dqeval.selection", "select_all", "selection.select_all", None, None),
    ("dqeval.selection", "rationale_document", "selection.rationale_document", None, None),
)

# (module, attribute path, counter name, enclosing span): calls counted, not
# timed, and only inside the enclosing span. Column lookups run once per cell
# everywhere, so a wrapper on every one of them would cost more than the work
# it measures.
INNER_TARGETS = (
    ("dqeval.datamodel", "Dataset.spec", "datamodel.Dataset.spec", "datamodel.take_records"),
)


class _Stat:
    __slots__ = ("calls", "s", "self_s", "errors", "count")

    def __init__(self) -> None:
        self.calls = 0
        self.s = self.self_s = 0.0
        self.errors = self.count = 0


class Tracer:
    """``install()`` once, then trace the calls made between ``on()`` and ``off()``."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.count_names: dict[str, str] = {}
        self.spans: list[str] = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._child = [0.0]  # time covered by child spans, one slot per open span
        self._open: dict[str, int] = {}
        self._inner: dict[str, list[tuple[object, str, object, object]]] = {}

    def _wrap(self, fn, name: str, count):
        stats, child, open_ = self.stats, self._child, self._open
        stats.setdefault(name, _Stat())
        inner_patches = self._inner.setdefault(name, [])

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_[name] = open_.get(name, 0) + 1
            if open_[name] == 1:
                for owner, attr, _, wrapper in inner_patches:
                    setattr(owner, attr, wrapper)
            child.append(0.0)
            t0 = perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                dur = perf_counter() - t0
                inner = child.pop()
                child[-1] += dur
                open_[name] -= 1
                if open_[name] == 0:
                    for owner, attr, original, _ in inner_patches:
                        setattr(owner, attr, original)
                st = stats[name]
                st.calls += 1
                st.s += dur
                st.self_s += dur - inner
                if failed:
                    st.errors += 1
                else:
                    self._after(name, args, kwargs, result, dur, count)

        return span

    def _counter(self, fn, name: str):
        st = self.stats.setdefault(name, _Stat())

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return counted

    def _after(self, name, args, kwargs, result, dur, count) -> None:
        if count is not None:
            self.stats[name].count += count(args, kwargs, result)
        if name == "registry.evaluate":
            metric_id = args[0] if args else kwargs["metric_id"]
            st = self.stats.setdefault(f"registry.evaluate.{metric_id}", _Stat())
            st.calls += 1
            st.s += dur

    def install(self) -> None:
        """Find every target and build its wrapper; ``on()`` then applies them."""
        for module_name, path, name, within in INNER_TARGETS:
            found = self._find(module_name, path, name)
            if found is not None:
                owner, attr, original = found
                self._inner.setdefault(within, []).append((owner, attr, original, self._counter(original, name)))
                self.spans.append(name)
        for module_name, path, name, count_name, count in TARGETS:
            found = self._find(module_name, path, name)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = self._wrap(original, name, count)
            self.spans.append(name)
            if count_name:
                self.count_names[name] = count_name
            if isinstance(owner, type):
                self._patches.append((owner, attr, original, wrapper))
                continue
            for mod in [m for k, m in list(sys.modules.items()) if k == "dqeval" or k.startswith("dqeval.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def _find(self, module_name: str, path: str, name: str):
        """(owner, attribute, original) of a target, or None when it is gone."""
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.absent.append(name)
            return None
        return owner, attr, original

    def on(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def off(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def metrics(self, n_calls: int) -> dict[str, float]:
        """Per-operation means over ``n_calls`` traced operations."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls / n_calls
            out[f"{name}.s"] = st.s / n_calls
            out[f"{name}.self_s"] = st.self_s / n_calls
            out[f"{name}.errors"] = st.errors / n_calls
            if name in self.count_names:
                out[f"{name}.{self.count_names[name]}"] = st.count / n_calls
        built = self.stats.get("datamodel.Dataset.build")
        read = self.stats.get("report.load_dataset")
        if built is not None and read is not None:
            out["datamodel.cells_built_per_cell_read"] = built.count / read.count if read.count else 0.0
        return out
