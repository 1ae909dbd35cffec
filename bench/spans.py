"""In-memory span recorder for the traced benchmark pass.

A span is ``[name, start, end, parent, op]``: the layer entry point that
ran, its ``perf_counter`` interval, the index of the span that caused it
(-1 for a root) and the id of the operation it belongs to (0 outside any
op).  Spans are recorded from ``bench/`` only — by wrapping a layer's
public entry point for the duration of one pass and restoring it after —
so the program itself carries no tracing code and every untraced number
is taken with the original functions in place.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (children are clipped to the parent and
overlapping children are merged before subtracting, so a child that
overruns its parent can never drive a self time negative).
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, OP = range(5)


class _OpenSpan:
    """Context manager for one live span (also what PROFILER.phase returns
    while the recorder stands in for the repo's phase profiler)."""

    __slots__ = ("recorder", "name", "new_op", "index")

    def __init__(self, recorder: "SpanRecorder", name: str,
                 new_op: bool) -> None:
        self.recorder = recorder
        self.name = name
        self.new_op = new_op

    def __enter__(self) -> "_OpenSpan":
        self.index = self.recorder.open(self.name, self.new_op)
        return self

    def __exit__(self, *exc) -> None:
        self.recorder.close(self.index)


class SpanRecorder:
    """Records nested spans on one thread and undoes its own patches."""

    def __init__(self) -> None:
        # One column per field: a hundred thousand per-span objects would
        # make the collector's work part of what is being measured.
        self._names: List[str] = []
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._parents: List[int] = []
        self._ops: List[int] = []
        self._stack: List[int] = []
        self._next_op = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, new_op: bool = False) -> int:
        stack = self._stack
        parent = stack[-1] if stack else -1
        op = self._ops[parent] if parent >= 0 else 0
        if new_op and op == 0:
            self._next_op += 1
            op = self._next_op
        index = len(self._names)
        stack.append(index)
        self._names.append(name)
        self._parents.append(parent)
        self._ops.append(op)
        self._ends.append(0.0)
        self._starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self._ends[index] = perf_counter()
        self._stack.pop()

    @property
    def spans(self) -> List[list]:
        """Recorded spans as ``[name, start, end, parent, op]`` rows."""
        return [list(row) for row in zip(self._names, self._starts,
                                         self._ends, self._parents,
                                         self._ops)]

    def span(self, name: str, new_op: bool = False) -> _OpenSpan:
        return _OpenSpan(self, name, new_op)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: Optional[str],
             new_op: bool = False, before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(*args, **kwargs)`` runs ahead of the span and
        ``after(result, *args, **kwargs)`` once it closed, both outside
        the timed interval; they collect counts from arguments and return
        values.  ``name=None`` records no span (hooks only).
        :meth:`restore` puts the original back.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            if name is None:
                return original(*args, **kwargs)
            index = recorder.open(name, new_op)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def adopt_profiler(self, profiler: Any) -> None:
        """Turn the repo's ``PROFILER`` phases into spans of this recorder.

        Call sites look ``PROFILER.phase`` up on the instance at call
        time, so shadowing the method with an instance attribute (and
        flipping ``enabled``) edits no program file; :meth:`restore`
        removes the shadow.
        """
        self._patches.append((profiler, "enabled", profiler.enabled))
        profiler.phase = self.span
        profiler.enabled = True
        self._patches.append((profiler, "phase", _DELETE))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _DELETE:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, op) in enumerate(zip(
                    self._names, self._starts, self._ends, self._parents,
                    self._ops)):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op}) + "\n")


_DELETE = object()


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: duration minus child-covered time."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        edge = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, edge), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                edge = c_end
        out.append((end - start) - covered)
    return out


def aggregate(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """``{name: {calls, total, self}}`` over a span list.

    ``total`` counts only outermost activations of a name, so a span
    that re-enters itself (``Simulator.run`` nests) is not double
    counted.
    """
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        name = span[NAME]
        row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["self"] += selfs[index]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            row["total"] += span[END] - span[START]
    return out


def durations(spans: Sequence[Sequence], name: str) -> List[float]:
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def under(spans: Sequence[Sequence], root_name: str) -> List[list]:
    """The trees rooted at spans called ``root_name``, re-indexed."""
    new_index: Dict[int, int] = {}
    out: List[list] = []
    for index, span in enumerate(spans):
        parent = span[PARENT]
        if parent in new_index or (parent < 0 and span[NAME] == root_name):
            new_index[index] = len(out)
            out.append([span[NAME], span[START], span[END],
                        new_index.get(parent, -1), span[OP]])
    return out
