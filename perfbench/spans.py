"""In-memory spans recorded around calls into the package.

A Tracer replaces module or class attributes with wrappers that record
(name, start, end, parent, request) for every call, then puts the
originals back.  Nothing inside pbmkit is edited: a wrapped function is
seen by every caller that looks it up through the patched attribute,
e.g. replay() looks up decide and allocate in pbmkit.pep_sim.
"""
from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter


def nearest_rank(values, percent: int) -> float:
    """The value at the given percentile, by the nearest-rank method."""
    ordered = sorted(values)
    rank = -(-percent * len(ordered) // 100)  # ceil(percent * n / 100)
    return ordered[max(rank, 1) - 1]


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.spans: list = []  # (name, start, end, parent index or -1, request id)
        self.request = -1      # set by the workload; -1 marks set-up
        self._stack: list[int] = []
        self._patches: list = []
        self._summary = None

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap owner.attr in a span; after(args, result) runs outside it."""
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.request)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, durations and self times, in seconds."""
        if self._summary is None:
            child_time = [0.0] * len(self.spans)
            for name, start, end, parent, _ in self.spans:
                if parent >= 0:
                    child_time[parent] += end - start
            out: dict[str, dict] = {}
            for index, (name, start, end, _, _) in enumerate(self.spans):
                entry = out.setdefault(name, {"durations": [], "self": 0.0})
                entry["durations"].append(end - start)
                entry["self"] += end - start - child_time[index]
            self._summary = out
        return self._summary

    def calls(self, name: str) -> int:
        entry = self.summary().get(name)
        return len(entry["durations"]) if entry else 0

    def mean(self, name: str) -> float:
        entry = self.summary().get(name)
        return statistics.fmean(entry["durations"]) if entry else 0.0

    def total(self, name: str) -> float:
        entry = self.summary().get(name)
        return sum(entry["durations"]) if entry else 0.0

    def self_mean(self, name: str) -> float:
        entry = self.summary().get(name)
        return entry["self"] / len(entry["durations"]) if entry else 0.0

    def child_total(self, parent_name: str, names: set[str]) -> float:
        """Time spent in direct children called names of spans called parent_name."""
        spans = self.spans
        return sum(
            end - start
            for name, start, end, parent, _ in spans
            if parent >= 0 and name in names and spans[parent][0] == parent_name
        )

    def percentile(self, name: str, percent: int) -> float:
        entry = self.summary().get(name)
        return nearest_rank(entry["durations"], percent) if entry else 0.0

    def table(self) -> list[str]:
        """One line per span name: calls, total, self total, mean."""
        lines = []
        for name, entry in sorted(self.summary().items()):
            total = sum(entry["durations"])
            lines.append(
                f"  {name:34s} calls={len(entry['durations']):7d} total={total:9.4f}s"
                f" self={entry['self']:9.4f}s mean={total / len(entry['durations']) * 1e6:11.1f}us"
            )
        return lines

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps({
                    "name": name,
                    "start": round(start - self.origin, 9),
                    "end": round(end - self.origin, 9),
                    "parent": parent,
                    "request": request,
                }) + "\n")
