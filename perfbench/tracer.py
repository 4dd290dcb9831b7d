"""Spans around the calls into pseudolink's layers, for the traced run.

The tracer replaces public layer functions at the names the program calls
them by (module attributes and class methods), records one span per call
with its parent, and restores the originals on uninstall.  Nothing inside
the library changes.  A layer function that a later version of the
library renames or removes is reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# Span name -> places the program reaches the function by.  The first place
# is the definition; the others are names other modules imported it under.
TARGETS: dict[str, tuple[str, ...]] = {
    "notation.parse": ("pseudolink.notation:parse",),
    "diagram.build_diagram": ("pseudolink.diagram:build_diagram", "pseudolink.cli:build_diagram",
                              "pseudolink:build_diagram"),
    "polyhedra.build_polyhedral": ("pseudolink.polyhedra:build_polyhedral",),
    "diagram.PseudoDiagram.arcs": ("pseudolink.diagram:PseudoDiagram.arcs",),
    "diagram.PseudoDiagram.resolve": ("pseudolink.diagram:PseudoDiagram.resolve",),
    "diagram.PseudoDiagram.resolutions": ("pseudolink.diagram:PseudoDiagram.resolutions",),
    "invariants.coloring_system": ("pseudolink.invariants:coloring_system",),
    "invariants.determinant": ("pseudolink.invariants:determinant",),
    "invariants.pseudodeterminant": ("pseudolink.invariants:pseudodeterminant",),
    "invariants.coloring_numbers": ("pseudolink.invariants:coloring_numbers",),
    "invariants.is_colorable": ("pseudolink.invariants:is_colorable",),
    "invariants.is_strong_colorable": ("pseudolink.invariants:is_strong_colorable",),
    "invariants.find_colorings": ("pseudolink.invariants:find_colorings",),
    "invariants.kh_property": ("pseudolink.invariants:kh_property",),
    "linalg.minor_determinant": ("pseudolink.linalg:minor_determinant",
                                 "pseudolink.invariants:minor_determinant"),
    "linalg.abs_det": ("pseudolink.linalg:abs_det",),
    "linalg.abs_det_sparse": ("pseudolink.linalg:abs_det_sparse",),
    "linalg.smith_normal_form": ("pseudolink.linalg:smith_normal_form",),
    "linalg.solution_space_mod": ("pseudolink.linalg:solution_space_mod",
                                  "pseudolink.invariants:solution_space_mod"),
    "linalg.SolutionSpace.__iter__": ("pseudolink.linalg:SolutionSpace.__iter__",),
    "cli.main": ("pseudolink.cli:main",),
    "cli.build_parser": ("pseudolink.cli:build_parser",),
}

# Spans of one group nest (minor_determinant calls abs_det_sparse); only the
# outermost span of a group counts as one call of the group.
GROUPS = {
    "det": {"linalg.minor_determinant", "linalg.abs_det", "linalg.abs_det_sparse"},
    "smith": {"linalg.smith_normal_form", "linalg.solution_space_mod"},
}
_GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}

GENERATORS = {
    "diagram.PseudoDiagram.resolutions",
    "invariants.find_colorings",
    "linalg.SolutionSpace.__iter__",
}

# Per-layer metrics and their units; README.md says what each one counts.
LAYER_METRICS = {
    "linalg.det_ms": "ms",
    "linalg.det_calls": "count",
    "linalg.det_order": "count",
    "invariants.system_ms": "ms",
    "invariants.system_cells": "count",
    "diagram.resolutions": "count",
    "diagram.resolve_ms": "ms",
    "diagram.arcs_ms": "ms",
    "diagram.arcs": "count",
    "invariants.distinct_dets": "count",
    "invariants.useful_ratio": "ratio",
    "linalg.smith_ms": "ms",
    "linalg.smith_calls": "count",
    "linalg.solutions": "count",
    "cli.parser_ms": "ms",
    "cli.self_ms": "ms",
    "cli.out_bytes": "bytes",
    "notation.parse_ms": "ms",
    "diagram.build_ms": "ms",
    "diagram.crossings": "count",
    "polyhedra.build_ms": "ms",
    "invariants.self_ms": "ms",
    "trace.overhead_pct": "%",
}

# Which spans each metric reads; a metric whose spans are all absent is absent.
_METRIC_SPANS = {
    "linalg.det_ms": GROUPS["det"],
    "linalg.det_calls": GROUPS["det"],
    "linalg.det_order": {"linalg.abs_det_sparse"},
    "invariants.system_ms": {"invariants.coloring_system"},
    "invariants.system_cells": {"invariants.coloring_system"},
    "diagram.resolutions": {"diagram.PseudoDiagram.resolutions"},
    "diagram.resolve_ms": {"diagram.PseudoDiagram.resolve"},
    "diagram.arcs_ms": {"diagram.PseudoDiagram.arcs"},
    "diagram.arcs": {"diagram.PseudoDiagram.arcs"},
    "invariants.distinct_dets": {"invariants.pseudodeterminant"},
    "invariants.useful_ratio": {"invariants.pseudodeterminant", "diagram.PseudoDiagram.resolutions"},
    "linalg.smith_ms": GROUPS["smith"],
    "linalg.smith_calls": GROUPS["smith"],
    "linalg.solutions": {"linalg.SolutionSpace.__iter__"},
    "cli.parser_ms": {"cli.build_parser"},
    "cli.self_ms": {"cli.main"},
    "notation.parse_ms": {"notation.parse"},
    "diagram.build_ms": {"diagram.build_diagram"},
    "diagram.crossings": {"diagram.build_diagram"},
    "polyhedra.build_ms": {"polyhedra.build_polyhedral"},
    "invariants.self_ms": {n for n in TARGETS if n.startswith("invariants.")},
}

MAX_KEPT_SPANS = 50_000


def _resolve(place: str):
    """(owner object, attribute) for 'module:attr' or 'module:Class.attr'."""
    module_name, _, path = place.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(place)
    return owner, attr


class Tracer:
    """Span recorder; install() wraps the layer functions, uninstall() restores them."""

    def __init__(self):
        self.stack: list[list] = []  # [span id, name, start, child time]
        self.spans: list[tuple] = []  # (op, span id, parent id, name, start, end)
        self.total = defaultdict(float)  # outermost spans of each name, seconds
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.group_time = defaultdict(float)
        self.group_calls = Counter()
        self.counts = Counter()
        self.absent: list[str] = []
        self.op = 0
        self._next_id = 0
        self._depth = Counter()
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        self._depth[name] += 1
        group = _GROUP_OF.get(name)
        if group:
            self._depth["group:" + group] += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self.self_time[name] += duration - child
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.total[name] += duration
        group = _GROUP_OF.get(name)
        if group:
            key = "group:" + group
            self._depth[key] -= 1
            if self._depth[key] == 0:
                self.group_time[group] += duration
                self.group_calls[group] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((self.op, span_id, parent[0] if parent else None, name, start, end))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, original):
        tracer = self
        observe = _OBSERVERS.get(name)

        if name in GENERATORS:
            @functools.wraps(original)
            def traced_gen(*args, **kwargs):
                tracer.calls[name] += 1
                inner = original(*args, **kwargs)
                try:
                    while True:
                        frame = tracer._enter(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(frame)
                        tracer.counts[name + ":items"] += 1
                        yield item
                finally:
                    inner.close()
            return traced_gen

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            frame = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        self.absent = []
        for name, places in TARGETS.items():
            original = None
            for i, place in enumerate(places):
                try:
                    owner, attr = _resolve(place)
                except (ImportError, AttributeError):
                    if i == 0:
                        self.absent.append(name)
                        break
                    continue
                current = vars(owner)[attr]
                if original is None:
                    original = current
                if current is not original:
                    continue  # the alias no longer names the traced function
                self._patches.append((owner, attr, current))
                setattr(owner, attr, self._wrap(name, current))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- metrics -------------------------------------------------------------

    def absent_metrics(self) -> list[str]:
        gone = set(self.absent)
        return sorted(m for m, spans in _METRIC_SPANS.items() if spans <= gone)

    def layer_metrics(self, ops: int, overhead_pct: float) -> dict[str, float]:
        """Per-operation layer figures over `ops` traced operations."""
        per_op = 1.0 / max(ops, 1)
        ms = 1000.0 * per_op
        resolutions = self.counts["diagram.PseudoDiagram.resolutions:items"]
        det_sizes = self.calls["linalg.abs_det_sparse"]
        return {
            "linalg.det_ms": self.group_time["det"] * ms,
            "linalg.det_calls": self.group_calls["det"] * per_op,
            "linalg.det_order": self.counts["det_order"] / det_sizes if det_sizes else 0.0,
            "invariants.system_ms": self.total["invariants.coloring_system"] * ms,
            "invariants.system_cells": self.counts["system_cells"] * per_op,
            "diagram.resolutions": resolutions * per_op,
            "diagram.resolve_ms": self.total["diagram.PseudoDiagram.resolve"] * ms,
            "diagram.arcs_ms": self.total["diagram.PseudoDiagram.arcs"] * ms,
            "diagram.arcs": self.calls["diagram.PseudoDiagram.arcs"] * per_op,
            "invariants.distinct_dets": self.counts["distinct_dets"] * per_op,
            "invariants.useful_ratio": self.counts["distinct_dets"] / resolutions if resolutions else 0.0,
            "linalg.smith_ms": self.group_time["smith"] * ms,
            "linalg.smith_calls": self.group_calls["smith"] * per_op,
            "linalg.solutions": self.counts["linalg.SolutionSpace.__iter__:items"] * per_op,
            "cli.parser_ms": self.total["cli.build_parser"] * ms,
            "cli.self_ms": self.self_time["cli.main"] * ms,
            "cli.out_bytes": self.counts["cli.out_bytes"] * per_op,
            "notation.parse_ms": self.total["notation.parse"] * ms,
            "diagram.build_ms": self.self_time["diagram.build_diagram"] * ms,
            "diagram.crossings": self.counts["crossings"] * per_op,
            "polyhedra.build_ms": self.total["polyhedra.build_polyhedral"] * ms,
            "invariants.self_ms": sum(
                t for n, t in self.self_time.items() if n.startswith("invariants.")
            ) * ms,
            "trace.overhead_pct": overhead_pct,
        }


def _observe_det(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["det_order"] += args[1] if len(args) > 1 else kwargs.get("size", 0)


def _observe_system(tracer: Tracer, args, kwargs, result) -> None:
    try:
        rows = result.matrix.rows + result.strong_rows.rows
        tracer.counts["system_cells"] += rows * result.n_arcs
    except AttributeError:
        pass


def _observe_pseudodet(tracer: Tracer, args, kwargs, result) -> None:
    try:
        tracer.counts["distinct_dets"] += len({r.det for r in result.resolutions})
    except AttributeError:
        pass


def _observe_build(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["crossings"] += getattr(result, "crossing_count", 0)


_OBSERVERS = {
    "linalg.abs_det_sparse": _observe_det,
    "invariants.coloring_system": _observe_system,
    "invariants.pseudodeterminant": _observe_pseudodet,
    "diagram.build_diagram": _observe_build,
}
