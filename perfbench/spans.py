"""In-memory spans recorded around calls into the program's layers.

A span is (id, name, parent, start, end) plus free-form attributes.  Times are
``time.perf_counter_ns`` readings, which on Linux come from the system-wide
monotonic clock, so spans written by different processes share one time axis.
Spans stay in memory until :meth:`Tracer.dump` writes them at the end.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter_ns(), "end": None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter_ns()
            self._open.pop()

    @contextmanager
    def wrapping(self, module, names, prefix: str):
        """Record a span ``prefix.name`` around every call of ``module.name`` while open.

        Patching the attribute where the caller looks it up times a call into
        another layer without touching that layer's code.
        """
        originals = {name: getattr(module, name) for name in names}

        def wrap(name, fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(f"{prefix}.{name}"):
                    return fn(*args, **kwargs)
            return traced

        for name, fn in originals.items():
            setattr(module, name, wrap(name, fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(module, name, fn)

    def adopt(self, spans: list[dict], parent: int | None, **attrs) -> None:
        """Append spans written by another process under the span ``parent``."""
        offset = len(self.spans)
        for s in spans:
            own_parent = parent if s["parent"] is None else s["parent"] + offset
            self.spans.append({**s, **attrs, "id": s["id"] + offset, "parent": own_parent})

    def durations(self, name: str, **attrs) -> list[float]:
        """Seconds of every closed span called ``name`` whose attributes match ``attrs``."""
        return [(s["end"] - s["start"]) / 1e9 for s in self.spans
                if s["name"] == name and s["end"] is not None
                and all(s.get(k) == v for k, v in attrs.items())]

    def self_seconds(self, span: dict) -> float:
        """Duration of ``span`` minus the time its child spans cover."""
        children = sum(s["end"] - s["start"] for s in self.spans
                       if s["parent"] == span["id"] and s["end"] is not None)
        return (span["end"] - span["start"] - children) / 1e9

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        totals: dict[str, float] = {}
        for s in self.spans:
            if s["end"] is not None:
                totals[s["name"]] = totals.get(s["name"], 0.0) + self.self_seconds(s)
        return totals

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)
