"""Span tracer that wraps strucnet's public functions from outside.

`Tracer.install()` replaces each function named in TARGETS, in every
strucnet module namespace that binds it (so `strucnet.network.pat_mul` is
wrapped along with `strucnet.pattern.pat_mul`), and methods on their class.
Each call records a span (name, start, end, parent span, verdict id) in
memory; `summary()` turns spans into calls and self time per function.
A name that no longer exists is listed in `missing` instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

TARGETS = {
    "cli": ("main",),
    "network": (
        "load_network",
        "validate",
        "assemble",
        "analyze",
        "node_necessary_check",
        "extract_topology",
        "topology_necessary_check",
        "is_network_controllable",
        "AnalysisReport.to_dict",
    ),
    "pattern": (
        "PatternMatrix.from_tokens",
        "pat_mul",
        "pat_add",
        "block_diag",
        "hstack",
        "sample_realization",
    ),
    "graph": ("build_graph", "color_change", "weak_color_change"),
    "oracle": ("audit_network",),
}

PACKAGE = "strucnet"
NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# Work counts read from the return values of wrapped functions.
COUNTS = ("graph.vertices", "graph.edges", "graph.forcings", "oracle.trials", "oracle.trial_failures")


def _graph_size(counts, graph):
    counts["graph.vertices"] += graph.num_vertices
    counts["graph.edges"] += len(graph.edges_star) + len(graph.edges_any)


def _forcings(counts, coloring):
    counts["graph.forcings"] += len(coloring.forcing_sequence)


def _audit(counts, outcome):
    counts["oracle.trials"] += outcome.trials_run
    counts["oracle.trial_failures"] += outcome.failures


HOOKS = {
    "graph.build_graph": _graph_size,
    "graph.color_change": _forcings,
    "graph.weak_color_change": _forcings,
    "oracle.audit_network": _audit,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.verdict = -1
        self.counts: Counter = Counter()
        self.missing: list = []
        self.hook_errors: Counter = Counter()
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.verdict)
            if hook is not None:
                try:
                    hook(self.counts, result)
                except (AttributeError, TypeError):
                    self.hook_errors[name] += 1
            return result

        return traced

    def install(self) -> None:
        self.missing = []
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod_name, fns in TARGETS.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.missing += [f"{mod_name}.{fn}" for fn in fns]
                continue
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    self._install_method(name, module, *fn_name.split("."))
                    continue
                fn = getattr(module, fn_name, None)
                if not callable(fn):
                    self.missing.append(name)
                    continue
                traced = self._wrap(name, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, traced)
                            self._restore.append((m, attr, fn))

    def _install_method(self, name, module, cls_name, attr):
        cls = getattr(module, cls_name, None)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if isinstance(raw, (classmethod, staticmethod)):
            traced = type(raw)(self._wrap(name, raw.__func__))
        elif callable(raw):
            traced = self._wrap(name, raw)
        else:
            self.missing.append(name)
            return
        setattr(cls, attr, traced)
        self._restore.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Total calls and self time (ns) per wrapped name."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent, _verdict in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for index, (name, start, end, _parent, _verdict) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[index]
        return {name: (calls[name], self_ns[name]) for name in NAMES}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
