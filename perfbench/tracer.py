"""Span recorder for the traced benchmark run.

Spans are recorded by the benchmark itself, around calls into the
program's public functions; nothing inside ``src/`` is instrumented.
:meth:`Tracer.wrap` swaps a module or class attribute for a timing
wrapper and :meth:`Tracer.restore` puts the original back, so untraced
passes run the program's own code objects untouched.

Spans live in memory and are written once, at exit, as Chrome
trace-event JSON (the format ``repro.obs.tracing`` emits), so Perfetto
or ``chrome://tracing`` loads them.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

LAYERS = (
    "runner", "netsim", "faults", "hw", "cost",
    "verify", "analysis", "matching", "core",
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "pass_no", "args")

    def __init__(self, id, parent, name, start, pass_no, args):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.pass_no = pass_no
        self.args = args

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.pass_no = 0
        self._stack: List[Span] = []
        self._patched: List[tuple] = []

    @contextmanager
    def span(self, name: str, **args: Any):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, time.perf_counter(),
                 self.pass_no, args)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Optional[Callable[[Span, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per
        call; ``on_result(span, result)`` may attach counts to it."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*a, **kw):
            with tracer.span(name) as s:
                result = original(*a, **kw)
            if on_result is not None:
                on_result(s, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------
    def select(self, name: str, pass_no: Optional[int] = None) -> List[Span]:
        return [
            s for s in self.spans
            if s.name == name and (pass_no is None or s.pass_no == pass_no)
        ]

    def total(self, name: str, pass_no: Optional[int] = None) -> float:
        return sum(s.dur for s in self.select(name, pass_no))

    def self_times(self, pass_no: Optional[int] = None) -> Dict[str, float]:
        """Per-layer self time: each span's duration minus the part its
        direct children cover (children never overlap: one thread)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.dur
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            if pass_no is None or s.pass_no == pass_no:
                out[s.layer] = out.get(s.layer, 0.0) + s.dur - child_time[s.id]
        return out

    def write_chrome(self, path: str, metadata: Dict[str, Any]) -> None:
        """Complete (``ph: "X"``) events, microseconds from the first
        span; ``args.parent`` names the causing span's id."""
        t0 = min((s.start for s in self.spans), default=0.0)
        pid = os.getpid()
        events = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"perfbench {metadata.get('workload', '')}"},
        }]
        for s in self.spans:
            events.append({
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "ts": round((s.start - t0) * 1e6, 3),
                "dur": round(s.dur * 1e6, 3),
                "args": dict(s.args, id=s.id, parent=s.parent, pass_no=s.pass_no),
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, fh)
