"""Outside-in instrumentation of the trisurf layers.

``Clock`` time-stamps the boundaries of a pass and its operations.
``Tracer`` serves the traced run: it replaces a fixed set of public
functions with timing wrappers.
A wrapper is installed into every ``trisurf`` namespace that bound the
original function object (``build`` is bound in ``complex_core``,
``moves`` and ``enumeration``, for example), so calls made inside the
program are seen as well as the benchmark's own calls.  Each call is a
span: name, start, end, the enclosing span, and a small note taken from
its arguments or result.  Spans stay in memory until the run ends.

A layer's self time is its span's duration minus the time covered by its
direct child spans.  A traced name that does not exist, or that the
workload must call but never did, is reported as untraced; it never
stops the run.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# Layer entry points that become spans, by module of ``trisurf``.
TRACED = {
    "complex_core": ("build",),
    "canon": (
        "canonical_code", "canonical_faces", "isomorphism",
        "automorphisms", "vertex_orbits",
    ),
    "moves": ("all_splits", "cable_subgraph"),
    "enumeration": (
        "enumerate_exhaustive", "enumerate_exhaustive_range",
        "generate_by_splitting", "serialize_catalog", "parse_catalog",
    ),
    "moebius_pipeline": (
        "build_certificate", "check_pylonicity_destroyed",
        "check_no_pylonic_creation", "derive_irreducible_moebius",
        "verify_patch_confinement", "render_certificate",
        "render_members_report",
    ),
    "_parallel": ("pmap",),
}

# Spans each workload must produce; a missing one is reported as untraced.
REQUIRED = {
    "certificate": (
        "moebius_pipeline.build_certificate", "enumeration.enumerate_exhaustive",
        "enumeration.enumerate_exhaustive_range", "enumeration.generate_by_splitting",
        "complex_core.build", "canon.canonical_code", "canon.automorphisms",
        "moves.all_splits", "moves.cable_subgraph",
        "moebius_pipeline.check_pylonicity_destroyed",
        "moebius_pipeline.check_no_pylonic_creation",
        "moebius_pipeline.derive_irreducible_moebius",
        "moebius_pipeline.verify_patch_confinement", "_parallel.pmap",
    ),
    "closure": (
        "enumeration.generate_by_splitting", "moves.all_splits",
        "canon.canonical_code", "complex_core.build",
        "enumeration.serialize_catalog", "enumeration.parse_catalog",
    ),
    "kernel-large": (
        "complex_core.build", "moves.cable_subgraph", "canon.canonical_code",
        "canon.canonical_faces", "canon.isomorphism", "canon.automorphisms",
        "canon.vertex_orbits",
    ),
}

# The (surface, order) exhaustive runs and closure layers given their own
# metrics; other labels still appear in the span file.
EXHAUSTIVE_RUNS = (
    "projective-plane-6", "projective-plane-7", "projective-plane-8",
    "moebius-band-5", "moebius-band-6", "moebius-band-7",
)
CLOSURE_LAYERS = (
    *(f"sphere-{n}" for n in range(5, 9)),
    *(f"projective-plane-{n}" for n in range(7, 9)),
    *(f"moebius-band-{n}" for n in range(6, 9)),
)
PIPELINE_SELF = (
    "check_pylonicity_destroyed", "check_no_pylonic_creation",
    "derive_irreducible_moebius", "verify_patch_confinement",
)


def _note(name: str, args: tuple, result: Any) -> Any:
    """The per-span note the metrics need, or None."""
    if name == "canon.canonical_code":
        return result
    if name == "moves.all_splits":
        return (args[0].order, len(result))
    if name == "enumeration.enumerate_exhaustive":
        return (f"{result.kind}-{result.min_order}", len(result.entries))
    if name == "enumeration.enumerate_exhaustive_range":
        return str(result.kind)
    if name == "enumeration.generate_by_splitting":
        return (str(result.kind), len(result.entries), len(args[0]))
    if name == "enumeration.parse_catalog":
        return len(args[0].encode())
    return None


def trisurf_modules() -> list:
    return [
        module for name, module in sorted(sys.modules.items())
        if name == "trisurf" or name.startswith("trisurf.")
    ]


class Patch:
    """Rebinds one function in every trisurf namespace that holds it."""

    def __init__(self, module: str, attr: str, make: Callable[[Callable], Callable]):
        self.bindings: list[tuple[Any, str]] = []
        owner = sys.modules.get(f"trisurf.{module}")
        self.original = getattr(owner, attr, None)
        if not callable(self.original):
            self.original = None
            return
        wrapper = make(self.original)
        for namespace in trisurf_modules():
            for name, value in list(vars(namespace).items()):
                if value is self.original:
                    setattr(namespace, name, wrapper)
                    self.bindings.append((namespace, name))

    @property
    def installed(self) -> bool:
        return bool(self.bindings)

    def remove(self) -> None:
        for namespace, name in self.bindings:
            setattr(namespace, name, self.original)
        self.bindings = []


class Clock:
    """Time stamps that bound a pass and its operations.

    ``mark`` stamps a boundary of the benchmark's own.  Where an operation
    starts inside the program (``closure`` opens one at each
    ``moves.all_splits``), ``op_call`` names that function, and each of its
    calls is stamped on entry and its index kept in ``op_starts``.
    """

    def __init__(self, op_call: str | None = None) -> None:
        self.marks: list[float] = []
        self.op_starts: list[int] = []
        self.missing: list[str] = []
        self.patch: Patch | None = None
        if op_call:
            module, attr = op_call.split(".")
            patch = Patch(module, attr, self._opening)
            if patch.installed:
                self.patch = patch
            else:
                self.missing.append(f"{op_call} (operation mark not found)")

    def _opening(self, fn: Callable) -> Callable:
        marks, op_starts, clock = self.marks, self.op_starts, time.perf_counter

        def opening(*args, **kwargs):
            op_starts.append(len(marks))
            marks.append(clock())
            return fn(*args, **kwargs)

        return opening

    def mark(self) -> int:
        """Stamp a boundary of the benchmark's own; returns its index."""
        self.marks.append(time.perf_counter())
        return len(self.marks) - 1

    def remove(self) -> None:
        if self.patch:
            self.patch.remove()
            self.patch = None


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.notes: list[Any] = []
        self.stack = [-1]
        self.pmap_calls: list[tuple[int, list[float]]] = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_started = 0.0
        self.patches: list[Patch] = []
        self.untraced: list[str] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module, attrs in TRACED.items():
            for attr in attrs:
                name = f"{module}.{attr}"
                make = self._make_pmap if name == "_parallel.pmap" else self._make_span
                patch = Patch(module, attr, lambda fn, name=name, make=make: make(name, fn))
                if patch.installed:
                    self.patches.append(patch)
                else:
                    self.untraced.append(f"{name} (not found)")
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        for patch in self.patches:
            patch.remove()
        self.patches = []
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    def _make_span(self, name: str, fn: Callable) -> Callable:
        names, start, end = self.names, self.start, self.end
        parent, notes, stack = self.parent, self.notes, self.stack
        untraced = self.untraced
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            names.append(name)
            parent.append(stack[-1])
            notes.append(None)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            try:
                notes[i] = _note(name, args, result)
            except Exception as exc:  # a refactored signature must not stop the run
                untraced.append(f"{name} (note: {type(exc).__name__})")
            return result

        return traced

    def _make_pmap(self, name: str, fn: Callable) -> Callable:
        """A span for ``pmap`` that also times each task (``jobs=1`` only:
        a worker process could not run the local timing closure)."""
        span = self._make_span(name, fn)
        calls = self.pmap_calls
        clock = time.perf_counter

        def traced_pmap(task_fn, items, *args, **kwargs):
            times: list[float] = []

            def timed(item):
                t0 = clock()
                try:
                    return task_fn(item)
                finally:
                    times.append(clock() - t0)

            calls.append((len(items), times))
            return span(timed, items, *args, **kwargs)

        return traced_pmap

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        duration = [e - s for s, e in zip(self.start, self.end)]
        own = list(duration)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= duration[i]
        return own

    def check_required(self) -> None:
        called = set(self.names)
        for name in REQUIRED.get(self.workload, ()):
            if name not in called:
                self.untraced.append(f"{name} (never called)")

    def metrics(self) -> dict[str, tuple[float, str]]:
        names, notes, start, end, parent = (
            self.names, self.notes, self.start, self.end, self.parent,
        )
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, name in enumerate(names):
            calls[name] += 1
            self_s[name] += own[i]
        children: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(parent):
            if p >= 0:
                children[p].append(i)

        m: dict[str, tuple[float, str]] = {}

        # enumeration: exhaustive search per (surface, order)
        runs: dict[str, list[float]] = defaultdict(lambda: [0.0, 0, 0])
        for i, name in enumerate(names):
            if name == "enumeration.enumerate_exhaustive" and notes[i]:
                label, classes = notes[i]
                run = runs[label]
                run[0] += own[i]
                run[1] += sum(
                    1 for c in children[i] if names[c] == "complex_core.build"
                )
                run[2] += classes
        for label in EXHAUSTIVE_RUNS:
            s, leaves, classes = runs.get(label, (0.0, 0, 0))
            key = f"enumeration.exhaustive.{label}"
            m[f"{key}.self_s"] = (s, "s")
            m[f"{key}.leaves"] = (leaves, "count")
            m[f"{key}.classes"] = (classes, "count")
            m[f"{key}.classes_per_leaf"] = (classes / leaves if leaves else 0.0, "ratio")

        # canon and complex_core
        codes = [notes[i] for i, n in enumerate(names) if n == "canon.canonical_code"]
        n_codes = calls["canon.canonical_code"]
        m["canon.canonical_code.calls"] = (n_codes, "count")
        m["canon.canonical_code.self_s"] = (self_s["canon.canonical_code"], "s")
        m["canon.canonical_code.us_per_call"] = (
            1e6 * self_s["canon.canonical_code"] / n_codes if n_codes else 0.0, "us")
        m["canon.canonical_code.distinct_ratio"] = (
            len(set(c for c in codes if c is not None)) / n_codes if n_codes else 0.0,
            "ratio")
        n_build = calls["complex_core.build"]
        m["complex_core.build.calls"] = (n_build, "count")
        m["complex_core.build.self_s"] = (self_s["complex_core.build"], "s")
        m["complex_core.build.us_per_call"] = (
            1e6 * self_s["complex_core.build"] / n_build if n_build else 0.0, "us")
        m["canon.automorphisms.calls"] = (calls["canon.automorphisms"], "count")
        m["canon.automorphisms.self_s"] = (self_s["canon.automorphisms"], "s")
        m["canon.isomorphism.self_s"] = (self_s["canon.isomorphism"], "s")

        # moves
        split_children = sum(
            notes[i][1] for i, n in enumerate(names)
            if n == "moves.all_splits" and notes[i]
        )
        m["moves.all_splits.calls"] = (calls["moves.all_splits"], "count")
        m["moves.all_splits.self_s"] = (self_s["moves.all_splits"], "s")
        m["moves.all_splits.children"] = (split_children, "count")
        m["moves.cable_subgraph.calls"] = (calls["moves.cable_subgraph"], "count")
        m["moves.cable_subgraph.self_s"] = (self_s["moves.cable_subgraph"], "s")

        # enumeration: splitting closure per produced order.  One parent
        # expansion runs from its all_splits call to the next one (or to
        # the end of the closure), so it includes coding the children.
        layer_s: dict[str, float] = defaultdict(float)
        new_classes = children_seen = 0
        for i, name in enumerate(names):
            if name != "enumeration.generate_by_splitting" or not notes[i]:
                continue
            kind, size, n_seeds = notes[i]
            new_classes += size - n_seeds
            expansions = [
                c for c in children[i] if names[c] == "moves.all_splits" and notes[c]
            ]
            for k, c in enumerate(expansions):
                stop = start[expansions[k + 1]] if k + 1 < len(expansions) else end[i]
                layer_s[f"{kind}-{notes[c][0] + 1}"] += stop - start[c]
                children_seen += notes[c][1]
        for label in CLOSURE_LAYERS:
            m[f"enumeration.closure.{label}.s"] = (layer_s.get(label, 0.0), "s")
        m["enumeration.closure.new_per_child"] = (
            new_classes / children_seen if children_seen else 0.0, "ratio")

        # enumeration: catalog text format
        m["enumeration.serialize_catalog.self_s"] = (
            self_s["enumeration.serialize_catalog"], "s")
        m["enumeration.parse_catalog.self_s"] = (self_s["enumeration.parse_catalog"], "s")
        m["enumeration.parse_catalog.bytes"] = (sum(
            notes[i] for i, n in enumerate(names)
            if n == "enumeration.parse_catalog" and notes[i]
        ), "bytes")

        # moebius_pipeline
        ranges: dict[str, float] = defaultdict(float)
        for i, name in enumerate(names):
            if name == "enumeration.enumerate_exhaustive_range" and notes[i]:
                ranges[notes[i]] += end[i] - start[i]
        m["moebius_pipeline.census.s"] = (ranges["projective-plane"], "s")
        m["moebius_pipeline.cross_check.s"] = (ranges["moebius-band"], "s")
        for fn in PIPELINE_SELF:
            m[f"moebius_pipeline.{fn}.self_s"] = (self_s[f"moebius_pipeline.{fn}"], "s")
        m["moebius_pipeline.build_certificate.residual_s"] = (
            self_s["moebius_pipeline.build_certificate"], "s")

        # _parallel: the largest task of each call bounds what --jobs saves
        timed = [times for _, times in self.pmap_calls if times]
        total = sum(sum(times) for times in timed)
        m["parallel.pmap.tasks"] = (sum(n for n, _ in self.pmap_calls), "count")
        m["parallel.pmap.max_task_share"] = (
            sum(max(times) for times in timed) / total if total else 0.0, "ratio")

        # runtime and the tracer itself
        m["runtime.gc_s"] = (self.gc_s, "s")
        m["runtime.gc_collections"] = (self.gc_collections, "count")
        m["trace.spans"] = (len(names), "count")
        m["trace.untraced"] = (len(self.untraced), "count")
        return m

    def write(self, path: Path) -> None:
        """Write every span as one JSON document (times relative to the first)."""
        t0 = self.start[0] if self.start else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        doc = {
            "workload": self.workload,
            "names": table,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [index[n], round(s - t0, 7), round(e - t0, 7), p]
                for n, s, e, p in zip(self.names, self.start, self.end, self.parent)
            ],
            "untraced": self.untraced,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def span_cost_s(calls: int = 20000, repeat: int = 5) -> float:
    """The tracer's own cost per span: the median, over ``repeat``
    rounds of ``calls`` calls, of a traced no-op minus a bare one."""
    probe = Tracer("calibration")

    def noop(*args):
        return None

    traced = probe._make_span("calibration.noop", noop)
    clock = time.perf_counter

    def elapsed(fn: Callable) -> float:
        t0 = clock()
        for _ in range(calls):
            fn(1)
        return clock() - t0

    return statistics.median(
        (elapsed(traced) - elapsed(noop)) / calls for _ in range(repeat)
    )
