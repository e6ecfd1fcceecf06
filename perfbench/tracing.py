"""Spans around calls into cauchykit, installed from outside the library.

The tracer replaces each public function of the library's layer modules with
a wrapper that records a span (name, parent span, operation id, start, end).
A name bound with ``from ... import`` is replaced at every module that holds
it, so ``constitutive.decompose`` and ``acoustics.sa_split`` are traced too;
the span carries the name of the defining module.  Two third-party calls in
``acoustics`` are traced as layer steps of the pure-mode search: each
``minimize`` call is an ``acoustics.refine`` span and every ``cKDTree`` build
or query an ``acoustics.neighbour_search`` span.

Spans are kept in memory and reduced to per-name call counts and self times
(span duration minus the time covered by its child spans) when a traced pass
ends.  The module also parses ``python -X importtime`` output, which is how the
CLI layer is traced from outside its process.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("tensor_core", "decomp", "constitutive", "acoustics", "materials", "report")


class Tracer:
    """Collects spans while ``enabled``; wrappers cost one flag test otherwise."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [name, parent index or -1, op id, start, end]
        self._stack: list[int] = []
        self._op = 0
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, self._op, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a step the benchmark itself performs."""
        if not self.enabled:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def next_op(self) -> None:
        """Start a new operation: later root spans share a fresh op id."""
        self._op += 1

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        return traced

    # --------------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every public function of the layer modules at each binding."""
        import cauchykit

        modules = [sys.modules[f"cauchykit.{layer}"] for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in (cauchykit, *modules):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._replace(mod, attr, wrappers[obj])

        acoustics = sys.modules["cauchykit.acoustics"]
        self._replace(acoustics, "minimize", self.wrap("acoustics.refine", acoustics.minimize))
        self._replace(acoustics, "cKDTree", self._timed_tree(acoustics.cKDTree))

    def _timed_tree(self, tree_cls):
        tracer = self
        name = "acoustics.neighbour_search"

        class TimedTree:
            def __init__(self, *args, **kwargs):
                with tracer.span(name):
                    self._tree = tree_cls(*args, **kwargs)

            def __getattr__(self, attr):
                value = getattr(self._tree, attr)
                return tracer.wrap(name, value) if callable(value) else value

        return TimedTree

    def _replace(self, mod, attr: str, value) -> None:
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------ reduction

    def take(self) -> "PassProfile":
        """Reduce the recorded spans to a profile and clear them."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        profile = PassProfile(self.spans)
        self.spans = []
        return profile


class PassProfile:
    """Per-name counts and self times of one traced pass.

    ``within[(ancestor, name)]`` counts ``name`` spans that run inside an
    ``ancestor`` span, at any depth; ``edges[(parent, child)]`` counts direct
    parent-child pairs, which is the shape of the span tree.
    """

    def __init__(self, spans: list[list]):
        child_time = [0.0] * len(spans)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.within: Counter = Counter()
        self.edges: Counter = Counter()
        for i, (name, parent, _op, start, end) in enumerate(spans):
            self.calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
                self.edges[(spans[parent][0], name)] += 1
            seen = set()
            while parent >= 0:
                ancestor = spans[parent][0]
                if ancestor not in seen:
                    seen.add(ancestor)
                    self.within[(ancestor, name)] += 1
                parent = spans[parent][1]
        for i, (name, _parent, _op, start, end) in enumerate(spans):
            self.self_s[name] += (end - start) - child_time[i]


# ----------------------------------------------------------- importtime


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of the outermost modules of each family.

    ``python -X importtime`` prints one line per module after its import ends,
    indented by nesting depth, so a parent follows its children.  Reading the
    lines backwards visits parents first; a module counts for its family
    (``cauchykit``, ``scipy`` or ``click``) unless an enclosing module already
    did.
    """
    totals = dict.fromkeys(("cauchykit", "scipy", "click"), 0.0)
    open_families: list[tuple[int, str | None]] = []  # (depth, family counted)
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the column header
        raw = fields[2].rstrip()
        depth = (len(raw) - len(raw.lstrip(" "))) // 2
        name = raw.strip()
        while open_families and open_families[-1][0] >= depth:
            open_families.pop()
        family = name.split(".")[0]
        enclosing = {fam for _d, fam in open_families}
        if family in totals and family not in enclosing:
            totals[family] += int(fields[1]) * 1e-6
        open_families.append((depth, family))
    return totals
