"""Outside-in tracing: timing wrappers around the layers' entry points.

Nothing under ``src/`` knows about tracing.  :meth:`Tracer.install`
replaces chosen functions, at class level and only where a class
defines the method itself, with wrappers that time each call, and
:meth:`Tracer.uninstall` puts the originals back.  Class-level
wrapping keeps every identity check the simulator makes on its
policies (``hook.__func__ is InsertionPolicy.on_hit``,
``static_placement``, the default ``choose_victim``) answering the
same way traced and untraced: a policy that inherits a method sees
the base class's wrapper on both sides of the comparison.

Every wrapped call becomes a node of a call tree keyed by (parent,
name), which aggregates calls, inclusive and child time; a node's
self time is its inclusive time minus that of its wrapped children.
Per-access calls are only aggregated.  Coarse calls (``span=True``)
are also kept as full spans (name, start, end, parent span, unit id)
in memory, for :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

_perf = time.perf_counter


class Node:
    """Aggregate of every call of one wrapped name under one parent."""

    __slots__ = ("name", "layer", "metric", "calls", "total", "child", "kids")

    def __init__(self, name: str, layer: Optional[str], metric: str) -> None:
        self.name = name
        self.layer = layer
        self.metric = metric
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.kids: Dict[str, "Node"] = {}

    @property
    def self_s(self) -> float:
        return self.total - self.child


class Span(NamedTuple):
    span_id: int
    name: str
    unit: Optional[str]
    parent: Optional[int]
    start: float
    end: float


class Target(NamedTuple):
    """One function to wrap: ``owner.attr`` reports as ``metric``."""

    owner: Any
    attr: str
    #: ``<layer>.<stem>``; the layer prefix decides self-time attribution.
    metric: str
    span: bool = False
    #: Called with the wrapped call's return value (span targets only).
    observe: Optional[Callable[[Any], None]] = None


class Tracer:
    """Call-tree timer of one traced run."""

    def __init__(self) -> None:
        #: Frames: [node, child seconds, enclosing span id].
        self._stack: List[list] = []
        self.roots: Dict[str, Node] = {}
        self.spans: List[Span] = []
        self.current_unit: Optional[str] = None
        self._installed: List[tuple] = []
        #: Targets the program no longer defines (left unwrapped).
        self.missing: List[str] = []

    # ------------------------------------------------------------------
    # regions and units
    # ------------------------------------------------------------------
    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """Calls made inside go to the call tree ``name`` (``setup``, ``units``)."""
        root = self.roots.setdefault(name, Node(name, None, name))
        self._stack[:] = [[root, 0.0, None]]
        try:
            yield
        finally:
            self._stack.clear()

    @contextmanager
    def unit(self, unit_id: str) -> Iterator[None]:
        """One ``run_one`` cell or forecast; its self time is unattributed."""
        self.current_unit = unit_id
        try:
            with self._frame("unit", None, "unit", True):
                yield
        finally:
            self.current_unit = None

    @contextmanager
    def _frame(self, name, layer, metric, span):
        stack = self._stack
        parent = stack[-1]
        node = parent[0].kids.get(name)
        if node is None:
            node = parent[0].kids[name] = Node(name, layer, metric)
        span_id = len(self.spans) if span else parent[2]
        if span:
            self.spans.append(None)  # reserve the id; filled on exit
        frame = [node, 0.0, span_id]
        stack.append(frame)
        start = _perf()
        try:
            yield
        finally:
            end = _perf()
            dt = end - start
            stack.pop()
            parent[1] += dt
            node.calls += 1
            node.total += dt
            node.child += frame[1]
            if span:
                self.spans[span_id] = Span(
                    span_id, name, self.current_unit, parent[2], start, end
                )

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _aggregating(self, func, name, layer, metric):
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not stack:  # called outside every region: not timed
                return func(*args, **kwargs)
            parent = stack[-1]
            kids = parent[0].kids
            node = kids.get(name)
            if node is None:
                node = kids[name] = Node(name, layer, metric)
            frame = [node, 0.0, parent[2]]
            stack.append(frame)
            start = _perf()
            try:
                return func(*args, **kwargs)
            finally:
                dt = _perf() - start
                stack.pop()
                parent[1] += dt
                node.calls += 1
                node.total += dt
                node.child += frame[1]

        return wrapper

    def _spanning(self, func, name, layer, metric, observe):
        stack = self._stack
        frame = self._frame

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not stack:
                return func(*args, **kwargs)
            with frame(name, layer, metric, True):
                result = func(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def install(self, targets: List[Target]) -> None:
        """Wrap every target in place (undo with :meth:`uninstall`)."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        try:
            for target in targets:
                # A module is wrapped at the name its callers look up.
                owner, attr = target.owner, target.attr
                name = f"{owner.__name__}.{attr}"
                original = vars(owner).get(attr)
                if original is None:
                    # Renamed, or now inherited: wrapping the subclass
                    # would change its identity checks.  Its time falls
                    # to the caller; the coverage gate shows if it is
                    # lost to every named layer.
                    self.missing.append(name)
                    continue
                layer = target.metric.split(".", 1)[0]
                if target.span:
                    wrapper = self._spanning(
                        original, name, layer, target.metric, target.observe
                    )
                else:
                    wrapper = self._aggregating(
                        original, name, layer, target.metric
                    )
                setattr(owner, attr, wrapper)
                self._installed.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every wrapped function, last wrapped first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reading the trees
    # ------------------------------------------------------------------
    def walk(self, region: str) -> Iterator[tuple]:
        """``(node, parent, ancestor names)`` for every node of a region."""
        root = self.roots.get(region)
        if root is None:
            return
        todo = [(kid, root, (root.name,)) for kid in root.kids.values()]
        while todo:
            node, parent, ancestors = todo.pop()
            yield node, parent, ancestors
            below = ancestors + (node.name,)
            todo.extend((kid, node, below) for kid in node.kids.values())

    def dump(self) -> dict:
        """Spans and aggregated call trees as JSON-ready data."""
        base = min((s.start for s in self.spans if s), default=0.0)
        return {
            "spans": [
                {"id": s.span_id, "name": s.name, "unit": s.unit,
                 "parent": s.parent, "start_s": s.start - base,
                 "end_s": s.end - base}
                for s in self.spans if s
            ],
            "calls": [
                {"region": region, "name": node.name, "layer": node.layer,
                 "parent": parent.name, "calls": node.calls,
                 "total_s": node.total, "self_s": node.self_s}
                for region in self.roots
                for node, parent, _ in self.walk(region)
            ],
        }
