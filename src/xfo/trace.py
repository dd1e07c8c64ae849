"""Trace events and the versioned trace JSON interchange format.

The serialized form is fully deterministic: fixed field order, integer
ticks, no floating point anywhere. Two identical runs produce identical
bytes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import MalformedTraceError

TRACE_FORMAT_VERSION = 1

EVENT_KINDS = (
    "Link",
    "Unlink",
    "FrameActivate",
    "FrameDeactivate",
    "StepStart",
    "StepEnd",
    "RuleFired",
    "WorkflowStart",
    "WorkflowComplete",
    "WorkflowBroken",
    "Interrupt",
)


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    at: int
    kind: str
    payload: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TraceDoc:
    model: str
    scenario: str
    horizon: int
    version: int
    events: tuple[TraceEvent, ...]


def trace_to_json(model: str, scenario: str, horizon: int, events: list[TraceEvent]) -> str:
    doc = {
        "model": model,
        "scenario": scenario,
        "horizon": horizon,
        "version": TRACE_FORMAT_VERSION,
        "events": [
            {"seq": e.seq, "at": e.at, "kind": e.kind, "payload": e.payload}
            for e in events
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_trace(text: str) -> TraceDoc:
    """Parse and validate a trace document; raises MalformedTraceError."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedTraceError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedTraceError("trace document must be a JSON object")
    for key, typ in (("model", str), ("scenario", str), ("horizon", int), ("version", int)):
        if not isinstance(raw.get(key), typ):
            raise MalformedTraceError(f"missing or invalid header field '{key}'")
    if raw["version"] != TRACE_FORMAT_VERSION:
        raise MalformedTraceError(f"unsupported trace format version {raw['version']}")
    if not isinstance(raw.get("events"), list):
        raise MalformedTraceError("missing or invalid 'events' list")
    events = []
    last_seq, last_at = -1, 0
    for i, e in enumerate(raw["events"]):
        if not isinstance(e, dict):
            raise MalformedTraceError(f"event {i} is not an object")
        seq, at, kind = e.get("seq"), e.get("at"), e.get("kind")
        if not isinstance(seq, int) or not isinstance(at, int) or kind not in EVENT_KINDS:
            raise MalformedTraceError(f"event {i} has invalid seq/at/kind")
        if seq <= last_seq:
            raise MalformedTraceError(f"event {i}: seq not strictly increasing")
        if at < last_at:
            raise MalformedTraceError(f"event {i}: tick decreases")
        payload = e.get("payload")
        if not isinstance(payload, dict):
            raise MalformedTraceError(f"event {i} has no payload object")
        events.append(TraceEvent(seq, at, kind, payload))
        last_seq, last_at = seq, at
    return TraceDoc(raw["model"], raw["scenario"], raw["horizon"], raw["version"], tuple(events))


def replay_spans(events) -> dict[tuple[str, str, str], list[tuple[int, int | None]]]:
    """Rebuild link spans from Link/Unlink events only.

    Returns (from, relation, to) -> list of [start, end) spans; end is None
    while the link is still active at the end of the trace.
    """
    spans: dict[tuple[str, str, str], list[tuple[int, int | None]]] = {}
    for e in events:
        if e.kind not in ("Link", "Unlink"):
            continue
        p = e.payload
        try:
            triple = (p["from"], p["relation"], p["to"])
        except KeyError as exc:
            raise MalformedTraceError(f"event seq {e.seq}: payload missing {exc}") from exc
        row = spans.setdefault(triple, [])
        if e.kind == "Link":
            if row and row[-1][1] is None:
                raise MalformedTraceError(f"event seq {e.seq}: duplicate Link for {triple}")
            row.append((e.at, None))
        else:
            if not row or row[-1][1] is not None:
                raise MalformedTraceError(f"event seq {e.seq}: Unlink without active Link for {triple}")
            row[-1] = (row[-1][0], e.at)
    return spans
