"""Trace events, the versioned trace JSON interchange format, and the
link store (``SpanStore``) that a run writes and a trace replays to.
``parse_trace`` is the one check of a trace document: it refuses a bad
header, a bad event and a bad Link/Unlink structure, and returns a
``TraceDoc`` that carries the store it replayed once.

The serialized form is fully deterministic: fixed field order, integer
ticks, no floating point anywhere. Two identical runs produce identical
bytes. Those bytes are exactly ``json.dumps(doc, indent=2) + "\n"``:
2-space indent, ASCII-only (``\\uXXXX`` escapes), keys in the order
model, scenario, horizon, version, events and, per event, seq, at, kind,
payload. ``trace_parts`` writes them with the C string encoder, each
distinct string encoded once per document. A ``FrozenPayload``, which
the engine builds once for all the events that carry it (a link
triple's Link and Unlink events, a run step's StepStart and StepEnd, a
rule's RuleFired), is encoded once per document, found by identity: it
cannot change, and holds only str keys and str, exact int or None
values. A plain dict payload is laid out per event. The bytes are still
those of ``json.dumps(indent=2)``, whose indenting pure-Python encoder
is kept only as the tests' reference.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from operator import itemgetter
from typing import NamedTuple

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
_KIND_SET = frozenset(EVENT_KINDS)


class TraceEvent(NamedTuple):
    seq: int
    at: int
    kind: str
    payload: dict


class FrozenPayload(dict):
    """A payload that cannot change, so the writer may encode it once for
    every event that carries it. Its keys are exact str and its values
    exact str, exact int or None; anything else raises TypeError when it
    is built. Copies and pickles are built afresh from ``dict(self)``."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a FrozenPayload cannot be changed")

    __setitem__ = __delitem__ = clear = pop = popitem = setdefault = update = __ior__ = _refuse

    def __new__(cls, *args, **kwargs):
        self = dict.__new__(cls)
        dict.update(self, *args, **kwargs)
        for k, v in self.items():  # exact types: no bool, no subclass
            if type(k) is not str or not (v is None or type(v) in (str, int)):
                raise TypeError(f"FrozenPayload item {k!r}: {v!r} is not str: str, int or None")
        return self

    def __init__(self, *args, **kwargs):  # filled by __new__, once
        pass

    def __reduce__(self):
        return FrozenPayload, (dict(self),)


Triple = tuple[str, str, str]
_start = itemgetter(0)


class SpanStore(dict):
    """The link store: each (from, relation, to) triple ever linked -> its
    ``(start, end)`` rows, start-sorted and disjoint, only the last open
    (end None). Spans are half-open: a row holds tick t when ``start <=
    t`` and its end is None or greater than t. ``of`` indexes the triples
    by entity, either side, in first-link order (no order depends on
    string hashing). ``==`` compares rows only. Its two writers,
    ``World.edit`` and ``replay_spans``, read a triple's row once, check
    it, and write it in place: a Link appends ``(at, None)``, an Unlink
    sets the last row's end. Only a triple's first Link calls ``open``."""

    def __init__(self) -> None:
        self._of: dict[str, dict[Triple, None]] = {}

    def open(self, triple: Triple, at: int) -> None:
        """Add ``triple``, which has no row yet, with one open row from ``at``."""
        self[triple] = [(at, None)]
        for e in (triple[0], triple[2]):
            self._of.setdefault(e, {})[triple] = None

    def active(self, triple: Triple) -> tuple[int, None] | None:
        """``triple``'s open row, if any."""
        row = self.get(triple)
        return row[-1] if row and row[-1][1] is None else None

    def at(self, triple: Triple, tick: int) -> tuple[int, int | None] | None:
        """``triple``'s row that holds ``tick``, if any."""
        row = self.get(triple)
        if row:  # the last row starting at or before tick; row[-1] if none does
            start, end = held = row[bisect_right(row, tick, key=_start) - 1]
            if start <= tick and (end is None or end > tick):
                return held
        return None

    def of(self, entity: str) -> Iterable[Triple]:
        return self._of.get(entity, {}).keys()


class TraceDoc(NamedTuple):
    """A parsed trace. ``spans`` is its link store, ``replay_spans(events)``,
    equal to the writing run's ``World.spans``. A doc and its payloads must
    not be mutated after parsing; the store would not follow."""

    model: str
    scenario: str
    horizon: int
    version: int
    events: tuple[TraceEvent, ...]
    spans: SpanStore


# One JSON value with no indentation: the C encoder, ensure_ascii on.
_encode = json.JSONEncoder().encode


def _key(k) -> str:
    """The JSON of object key ``k``, which must be a string: JSON has no
    other key, and json.dumps would write ``1`` as ``"1"``, which reads
    back as a different key."""
    if not isinstance(k, str):
        raise TypeError(f"trace object key {k!r} is not a string")
    return _encode(k)


def _value(v, indent: str) -> str:
    """``v`` as ``json.dumps(indent=2)`` lays it out at nesting ``indent``;
    an object key that is not a string raises TypeError."""
    if type(v) is str:
        return _encode(v)
    if type(v) is int:  # an int's JSON is its repr; bool and int subclasses are not
        return f"{v}"
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = indent + "  "
        items = ",".join([f"\n{inner}{_key(k)}: {_value(x, inner)}" for k, x in v.items()])
        return f"{{{items}\n{indent}}}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = indent + "  "
        items = ",".join([f"\n{inner}{_value(x, inner)}" for x in v])
        return f"[{items}\n{indent}]"
    return _encode(v)


class _Encoded(dict):
    """str -> its JSON, filled on first use; any other key raises TypeError,
    as ``_key`` does."""

    def __missing__(self, s: str) -> str:
        j = self[s] = _key(s)
        return j


def _payload(payload: dict, enc: _Encoded) -> str:
    """A non-empty payload dict as an event's ``"payload"`` value."""
    items = ",".join([f'\n        {enc[k]}: {enc[x] if type(x) is str else _value(x, "        ")}'
                      for k, x in payload.items()])
    return f"{{{items}\n      }}"


def trace_parts(model: str, scenario: str, horizon: int, events: Iterable[TraceEvent]) -> Iterator[str]:
    """The trace document in pieces: a header, one piece per event, a
    footer. Joined they are ``trace_to_json``; ``xfo run --trace`` writes
    them one by one.

    An int ``seq`` or ``at``, a str kind and a non-empty payload dict
    are laid out here; any other value goes through ``_value``. A payload
    key that is not a string, at any depth, raises TypeError. Each distinct
    string, and each ``FrozenPayload`` object (kept with its ``id``, so the
    id is not reused), is encoded once per call, since a trace repeats the
    same few entities and edits thousands of times."""
    yield (f'{{\n  "model": {_value(model, "  ")},\n  "scenario": {_value(scenario, "  ")},\n'
           f'  "horizon": {_value(horizon, "  ")},\n  "version": {TRACE_FORMAT_VERSION},\n  "events": [')
    enc = _Encoded()
    done: dict[int, tuple[FrozenPayload, str]] = {}
    sep = "\n"
    for seq, at, kind, payload in events:
        if type(payload) is FrozenPayload and payload:
            memo = done.get(id(payload))
            if memo is None:
                memo = done[id(payload)] = (payload, _payload(payload, enc))
            payload = memo[1]
        elif type(payload) is dict and payload:
            payload = _payload(payload, enc)
        else:
            payload = _value(payload, "      ")
        yield (f'{sep}    {{\n      "seq": {seq if type(seq) is int else _value(seq, "      ")},\n'
               f'      "at": {at if type(at) is int else _value(at, "      ")},\n'
               f'      "kind": {enc[kind] if type(kind) is str else _value(kind, "      ")},\n'
               f'      "payload": {payload}\n    }}')
        sep = ",\n"
    yield "]\n}\n" if sep == "\n" else "\n  ]\n}\n"


def trace_to_json(model: str, scenario: str, horizon: int, events: Iterable[TraceEvent]) -> str:
    return "".join(trace_parts(model, scenario, horizon, events))


def parse_trace(text: str) -> TraceDoc:
    """Parse and check a trace document: its header, each event, and the
    Link/Unlink structure ``replay_spans`` checks as it builds the doc's
    link store. Raises MalformedTraceError."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedTraceError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:  # the message differs between Python versions
        raise MalformedTraceError("not valid JSON: nested too deeply") from exc
    if not isinstance(raw, dict):
        raise MalformedTraceError("trace document must be a JSON object")
    for key, typ in (("model", str), ("scenario", str), ("horizon", int), ("version", int)):
        if type(raw.get(key)) is not typ:
            raise MalformedTraceError(f"missing or invalid header field '{key}'")
    if raw["horizon"] < 1:
        raise MalformedTraceError(f"horizon {raw['horizon']} is below 1")
    if raw["version"] != TRACE_FORMAT_VERSION:
        raise MalformedTraceError(f"unsupported trace format version {raw['version']}")
    if not isinstance(raw.get("events"), list):
        raise MalformedTraceError("missing or invalid 'events' list")
    events: list[TraceEvent] = []
    append, kinds, is_a, new = events.append, _KIND_SET, isinstance, tuple.__new__
    horizon, last_seq, last_at = raw["horizon"], -1, 0
    for i, e in enumerate(raw["events"]):
        if not is_a(e, dict):
            raise MalformedTraceError(f"event {i} is not an object")
        seq, at, kind, payload = e.get("seq"), e.get("at"), e.get("kind"), e.get("payload")
        # a JSON kind may be a list or object: test str before hashing it
        if not (type(seq) is int and type(at) is int and is_a(kind, str) and kind in kinds):
            raise MalformedTraceError(f"event {i} has invalid seq/at/kind")
        if seq <= last_seq:
            raise MalformedTraceError(f"event {i}: seq not strictly increasing")
        if at < last_at:
            raise MalformedTraceError(f"event {i}: tick decreases")
        if at > horizon:
            raise MalformedTraceError(f"event {i}: tick {at} is past the horizon {horizon}")
        if not is_a(payload, dict):
            raise MalformedTraceError(f"event {i} has no payload object")
        append(new(TraceEvent, (seq, at, kind, payload)))
        last_seq, last_at = seq, at
    return TraceDoc(raw["model"], raw["scenario"], raw["horizon"], raw["version"], tuple(events),
                    replay_spans(events))


def replay_spans(events) -> SpanStore:
    """Rebuild the link store from Link/Unlink events only, refusing a
    payload without string ``from``, ``relation`` and ``to``, a second Link
    of an active triple and an Unlink of an inactive one."""
    spans = SpanStore()
    get = spans.get
    for e in events:
        kind = e.kind
        if kind != "Link" and kind != "Unlink":
            continue
        p = e.payload
        try:
            triple = (p["from"], p["relation"], p["to"])
            row = get(triple)
        except (KeyError, TypeError):  # a field is missing, or a list or an object
            row = None
        if row is None:  # a triple seen for the first time
            for field in ("from", "relation", "to"):
                if type(p.get(field)) is not str:
                    raise MalformedTraceError(f"event seq {e.seq}: payload '{field}' is missing or not a string")
            if kind == "Link":
                spans.open(triple, e.at)
                continue
        if kind == "Link":
            if row[-1][1] is None:
                raise MalformedTraceError(f"event seq {e.seq}: duplicate Link for {' '.join(triple)}")
            row.append((e.at, None))
        elif row and row[-1][1] is None:
            row[-1] = (row[-1][0], e.at)
        else:
            raise MalformedTraceError(f"event seq {e.seq}: Unlink without active Link for {' '.join(triple)}")
    return spans
