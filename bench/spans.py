"""Call timing and in-memory spans, recorded from the benchmark's side of
each call into `xfo`.

A `Recorder` runs every call the benchmark makes into the program and
keeps the call's duration under the call's name (`<module>.<call>`).
With `traced=True` it also keeps a span per call: id, parent id, name,
start and end (`perf_counter_ns`) and pass id. Spans stay in a list until
`write` dumps them once, at the end of the run.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

ROOT = "pass"  # root span of one pass; its self time is the benchmark's own


class Recorder:
    def __init__(self, traced: bool = False) -> None:
        self.traced = traced
        self.calls: dict[str, list[int]] = defaultdict(list)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._pass = None

    def begin(self, pass_id) -> None:
        """Start a new pass: per-call durations restart, spans accumulate."""
        self.calls = defaultdict(list)
        self._pass = pass_id

    def call(self, name: str, fn, *args, **kwargs):
        if not self.traced:
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.calls[name].append(perf_counter_ns() - t0)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the id so children get later ids
        self._stack.append(sid)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.calls[name].append(t1 - t0)
            self.spans[sid] = (sid, parent, name, t0, t1, self._pass)

    def total(self, name: str) -> int:
        return sum(self.calls.get(name, ()))

    def write(self, path) -> None:
        rows = [
            {"id": s, "parent": p, "name": n, "start_ns": a, "end_ns": b, "pass": k}
            for s, p, n, a, b, k in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def layer_self_ns(spans: list[tuple]) -> dict[object, dict[str, int]]:
    """pass id -> layer -> self time (ns). A span's self time is its
    duration minus its children's; its layer is the name's module part,
    and the root span's layer is `bench`."""
    child_ns: dict[int, int] = defaultdict(int)
    for sid, parent, _, t0, t1, _ in spans:
        if parent is not None:
            child_ns[parent] += t1 - t0
    out: dict[object, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for sid, _, name, t0, t1, pass_id in spans:
        layer = "bench" if name == ROOT else name.split(".", 1)[0]
        out[pass_id][layer] += (t1 - t0) - child_ns[sid]
    return out
