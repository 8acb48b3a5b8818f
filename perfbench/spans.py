"""In-memory span recorder for the traced run, and self-time arithmetic.

Spans are recorded by the benchmark around its own calls into thermofit's
public functions; nothing inside the program is instrumented.  They stay in
memory until :func:`write_jsonl` is called at the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: int
    parent: int | None
    op_id: int
    name: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans; a span without an explicit op id inherits its parent's."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, op_id: int | None = None, **attrs):
        parent = self._open[-1] if self._open else None
        if op_id is None:
            if parent is None:
                raise ValueError(f"root span {name!r} needs an op id")
            op_id = parent.op_id
        s = Span(len(self.spans), parent.span_id if parent else None, op_id, name, self._clock(), attrs=attrs)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = self._clock()
            self._open.pop()


def self_time(span: Span, spans: list[Span]) -> float:
    """The span's duration minus the part of its interval its child spans cover.

    Overlapping children are counted once, and the parts of a child that lie
    outside the parent's interval are not subtracted.
    """
    pieces = sorted(
        (max(c.start, span.start), min(c.end, span.end))
        for c in spans
        if c.parent == span.span_id
    )
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in pieces:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return span.duration - covered


def write_jsonl(spans: list[Span], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s)) + "\n")
