"""Differential tests for the text layers: the trace writer, the trace
reader and the DSL tokenizer, each against the plain implementation it
replaced, and the parser's statement and clause patterns against its
cursor. The references below are that code, kept verbatim apart from
names and three rules the reader has gained since: a JSON bool is not an
integer, a horizon is at least 1, and no event is past the horizon.
Every optimised path must give the same bytes, the same objects and the
same error messages."""
from __future__ import annotations

import copy
import hashlib
import json
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xfo import cli, dsl, trace
from xfo.dsl import Diagnostic, _tokenize_line, parse_model, parse_scenario
from xfo.dynamics import (
    ACTION_KEYWORDS,
    ActivateDirective,
    ApplyDirective,
    DeactivateDirective,
    RunSpec,
    Wildcard,
)
from xfo.errors import MalformedTraceError
from xfo.ontology import SourceSpan
from xfo.trace import (
    EVENT_KINDS,
    TRACE_FORMAT_VERSION,
    FrozenPayload,
    TraceDoc,
    TraceEvent,
    parse_trace,
    trace_to_json,
)

from helpers import (
    DATA_DIR,
    MODELS_DIR,
    SHIPPED_RUNS,
    SHIPPED_TRACE_SHA256,
    commented,
    generated_inputs,
    model_text,
    run_scenario,
)


# ----------------------------------------------------------------------
# references


def reference_to_json(model, scenario, horizon, events) -> str:
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


def reference_parse(text: str) -> TraceDoc:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedTraceError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedTraceError("trace document must be a JSON object")
    for key, typ in (("model", str), ("scenario", str), ("horizon", int), ("version", int)):
        if not isinstance(raw.get(key), typ) or isinstance(raw.get(key), bool):
            raise MalformedTraceError(f"missing or invalid header field '{key}'")
    if raw["horizon"] < 1:
        raise MalformedTraceError(f"horizon {raw['horizon']} is below 1")
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
        if (not isinstance(seq, int) or not isinstance(at, int) or isinstance(seq, bool)
                or isinstance(at, bool) or kind not in EVENT_KINDS):
            raise MalformedTraceError(f"event {i} has invalid seq/at/kind")
        if seq <= last_seq:
            raise MalformedTraceError(f"event {i}: seq not strictly increasing")
        if at < last_at:
            raise MalformedTraceError(f"event {i}: tick decreases")
        if at > raw["horizon"]:
            raise MalformedTraceError(f"event {i}: tick {at} is past the horizon {raw['horizon']}")
        payload = e.get("payload")
        if not isinstance(payload, dict):
            raise MalformedTraceError(f"event {i} has no payload object")
        events.append(TraceEvent(seq, at, kind, payload))
        last_seq, last_at = seq, at
    return TraceDoc(raw["model"], raw["scenario"], raw["horizon"], raw["version"], tuple(events))


_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t]+)"
    r"|(?P<comment>#.*)"
    r"|(?P<wildcard>any:[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<punct>[(){},=])"
)


def reference_tokenize(text: str, file: str, diags: list) -> list[list[tuple]]:
    lines = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = []
        pos = 0
        while pos < len(raw):
            m = _REFERENCE_TOKEN_RE.match(raw, pos)
            if m is None:
                diags.append(Diagnostic(
                    "error", "E_PARSE", f"unexpected character {raw[pos]!r}",
                    SourceSpan(file, line_no, pos + 1),
                ))
                pos += 1
                continue
            kind = m.lastgroup
            if kind == "comment":
                break
            if kind != "ws":
                toks.append((kind, m.group(), line_no, m.start() + 1))
            pos = m.end()
        lines.append(toks)
    return lines


def outcome(read, text):
    """A reader's TraceDoc, or the message of its MalformedTraceError."""
    try:
        return read(text)
    except MalformedTraceError as exc:
        return f"MalformedTraceError: {exc}"


# ----------------------------------------------------------------------
# strategies

# quotes, backslashes, control characters, non-ASCII and astral text
TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t\r", "é ü", "日本", "😀", ""])
BIG_INT = st.integers() | st.integers(min_value=2**63 - 2, max_value=2**70) | st.integers(max_value=-(2**63))
LEAF = st.none() | st.booleans() | BIG_INT | TEXT | st.floats(allow_nan=False)
VALUE = st.recursive(
    LEAF,
    lambda inner: st.dictionaries(TEXT, inner, max_size=3) | st.lists(inner, max_size=3),
    max_leaves=8,
)
PAYLOAD = st.dictionaries(TEXT, VALUE, max_size=4)  # empty payloads included
# a few keys and values, escapes and non-ASCII among them, that recur
# across the events of one document, as entity names do in a trace
SHARED = st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é ü", "日本", "😀", "", "from", "lamp1"])
# values that are == to each other, or hash alike, but whose JSON differs:
# a memo keyed by value alone would write one where the other is due
COLLIDING = st.sampled_from([1, True, 1.0, 0.0, -0.0, 0, False, None, {"from": 1}, {"from": True}])
SHARED_PAYLOAD = st.dictionaries(SHARED, SHARED | COLLIDING, max_size=4)
KIND = st.sampled_from(EVENT_KINDS)


@st.composite
def valid_events(draw):
    """A horizon and events parse_trace accepts under it: seq strictly
    increasing, at not decreasing and at most the horizon."""
    horizon = draw(st.integers(1, 2**64))
    n = draw(st.integers(0, 5))
    seqs = sorted(draw(st.sets(BIG_INT.filter(lambda s: s >= 0), min_size=n, max_size=n)))
    ats = sorted(draw(st.lists(st.integers(0, horizon), min_size=n, max_size=n)))
    return horizon, [TraceEvent(s, a, draw(KIND), draw(PAYLOAD)) for s, a in zip(seqs, ats)]


# ----------------------------------------------------------------------
# writer


# what a FrozenPayload may hold: str keys; str, exact int and None values
FROZEN = st.dictionaries(SHARED | TEXT, SHARED | TEXT | BIG_INT | st.none(), max_size=4).map(FrozenPayload)


@st.composite
def events_sharing_payloads(draw):
    """Events whose payloads are plain dicts, or FrozenPayloads drawn from
    a small pool: one frozen object carried by several events, and equal
    frozen payloads that are distinct objects, in one document."""
    pool = draw(st.lists(FROZEN, min_size=1, max_size=3))
    pool += [FrozenPayload(p) for p in pool]  # equal, not the same object
    payload = PAYLOAD | SHARED_PAYLOAD | st.sampled_from(pool)
    event = st.builds(TraceEvent, BIG_INT | st.booleans(), BIG_INT, KIND | TEXT | SHARED, payload)
    return draw(st.lists(event, max_size=6))


EVENTS = events_sharing_payloads()


# one document that repeats payloads which are == but are written apart
_COLLISIONS = [TraceEvent(i, 0, "Link", {"from": v}) for i, v in enumerate(
    [1, True, 1.0, 0.0, -0.0, 0, False, None, 1, True, -0.0, 0.0, {"a": 1}, {"a": True}, {"a": 1}])]
# one frozen payload carried thrice, an equal copy of it, and frozen and
# plain payloads whose values are == but whose JSON differs
_LAMP = FrozenPayload({"from": "lamp1", "relation": "Has_Quality", "to": "red"})
_SHARED = [TraceEvent(i, 0, "Link", p) for i, p in enumerate([
    _LAMP, {"from": 1}, _LAMP, FrozenPayload(_LAMP), FrozenPayload({"from": 1}), {"from": True},
    {"from": 1.0}, _LAMP, FrozenPayload({"from": 0}), {"from": False}, {"from": -0.0}])]


@settings(max_examples=200, deadline=None)
@given(model=TEXT, scenario=TEXT, horizon=BIG_INT, events=EVENTS, more=EVENTS)
@example(model="m", scenario="s", horizon=1, events=_COLLISIONS, more=_COLLISIONS[::-1])
@example(model="m", scenario="s", horizon=1, events=_SHARED, more=_SHARED[::-1])
def test_writer_matches_reference(model, scenario, horizon, events, more):
    """Two documents written in a row: the writer's string and payload
    memos are per call, so the second is laid out as if it were the first."""
    for evs in (events, more):
        assert trace_to_json(model, scenario, horizon, evs) == reference_to_json(model, scenario, horizon, evs)


def test_writer_lays_out_a_plain_dict_as_it_is_at_each_event():
    """Only a FrozenPayload is encoded once: a plain dict may change
    between two events that carry it, here while the writer streams."""
    values = ["a", 1, "a", True, 1]
    payload = {}

    def stream():
        for i, v in enumerate(values):
            payload["from"] = v
            yield TraceEvent(i, 0, "Link", payload)

    expected = [TraceEvent(i, 0, "Link", {"from": v}) for i, v in enumerate(values)]
    assert trace_to_json("m", "s", 1, stream()) == reference_to_json("m", "s", 1, expected)


def test_writer_encodes_each_frozen_payload_once(monkeypatch):
    """On the shipped traffic run: one layout per distinct FrozenPayload,
    and one per event that carries a plain dict."""
    world, _, scen = run_scenario("traffic.xfo", "traffic_desk.xws")
    laid_out = []
    real = trace._payload
    monkeypatch.setattr(trace, "_payload", lambda payload, enc: laid_out.append(payload) or real(payload, enc))
    text = trace_to_json(world.model_name, scen.name, scen.horizon, world.trace)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == SHIPPED_TRACE_SHA256["traffic_desk.xws"]
    frozen = {id(e.payload) for e in world.trace if type(e.payload) is FrozenPayload}
    plain = [e for e in world.trace if type(e.payload) is dict]
    assert len(laid_out) == len(frozen) + len(plain) < len(world.trace)
    assert len({id(p) for p in laid_out if type(p) is FrozenPayload}) == len(frozen)


@pytest.mark.parametrize("model,scenario", SHIPPED_RUNS, ids=[s for _, s in SHIPPED_RUNS])
def test_shipped_traces_are_byte_identical(model, scenario, tmp_path, capsys):
    world, _, scen = run_scenario(model, scenario)
    args = (world.model_name, scen.name, scen.horizon, world.trace)
    text = trace_to_json(*args)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == SHIPPED_TRACE_SHA256[scenario]
    assert text == reference_to_json(*args)
    assert parse_trace(text) == reference_parse(text)
    assert parse_trace(text).events == tuple(world.trace)
    # `xfo run --trace` streams the same parts to the file
    out = tmp_path / "trace.json"
    assert cli.main(["run", str(MODELS_DIR / model), str(MODELS_DIR / scenario), "--trace", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == text.encode("ascii")


def test_empty_trace_is_byte_identical():
    assert trace_to_json("m", "s", 0, []) == reference_to_json("m", "s", 0, []) == (
        '{\n  "model": "m",\n  "scenario": "s",\n  "horizon": 0,\n  "version": 1,\n  "events": []\n}\n'
    )


@pytest.mark.parametrize("payloads", [
    [{1: "a"}],
    [{"binding": {"x": "a", 2: "b"}}],
    [{1: "a"}, {True: "b"}],  # True == 1 once wrote the JSON cached for 1
    [{"from": "a"}, {True: "b"}],
    [{"from": "a", "to": 1}, {"from": "a", "to": 1}, {"from": "a", 1: "b"}],  # after a memoised payload
])
def test_writer_refuses_keys_that_are_not_strings(payloads):
    """In every document written: the payload memo keeps no payload that
    raised, and it lives for one document."""
    events = [TraceEvent(i, 0, "Link", p) for i, p in enumerate(payloads)]
    for _ in range(2):
        with pytest.raises(TypeError, match="is not a string"):
            trace_to_json("m", "s", 1, events)


# ----------------------------------------------------------------------
# reader

DELETE = object()
# values of every JSON type, including `true` where an int is due
MUTANT = st.sampled_from([DELETE, True, False, None, -1, 0, 1.5, "Link", "Bogus", [], ["Link"], {}, {"a": 1}])
FIELD = st.sampled_from(["seq", "at", "kind", "payload", None])  # None: the whole event


@settings(max_examples=200, deadline=None)
@given(drawn=valid_events(), data=st.data())
def test_reader_matches_reference(drawn, data):
    horizon, events = drawn
    raw = json.loads(reference_to_json("m", "s", horizon, events))
    if events and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(events) - 1))
        field, value = data.draw(FIELD), data.draw(MUTANT | st.just(horizon + 1))  # a tick past the horizon
        if field is None:
            raw["events"][i] = {} if value is DELETE else value
        elif value is DELETE:
            del raw["events"][i][field]
        else:
            raw["events"][i][field] = value
        if i > 0 and isinstance(raw["events"][i], dict) and data.draw(st.booleans()):  # a tick that goes backwards
            raw["events"][i]["at"] = raw["events"][i - 1]["at"] - 1
    elif data.draw(st.booleans()):
        key = data.draw(st.sampled_from(["model", "scenario", "horizon", "version", "events"]))
        value = data.draw(MUTANT | st.just(TRACE_FORMAT_VERSION + 1))
        if value is DELETE:
            del raw[key]
        else:
            raw[key] = value
    text = json.dumps(raw)
    assert outcome(parse_trace, text) == outcome(reference_parse, text)


@pytest.mark.parametrize("text", [
    "not json", "[]", "{}",
    '{"model": "m", "scenario": "s", "horizon": 1, "version": 1, "events": [{"seq": true, "at": 0,'
    ' "kind": "Link", "payload": {}}]}',
    '{"model": "m", "scenario": "s", "horizon": 1, "version": 1, "events": [{"seq": 0, "at": 0,'
    ' "kind": ["Link"], "payload": {}}]}',
])
def test_reader_matches_reference_on_edge_documents(text):
    assert outcome(parse_trace, text) == outcome(reference_parse, text)


@pytest.mark.parametrize("field,value", [
    ("seq", True), ("at", True), ("version", True), ("horizon", True), ("horizon", 0), ("horizon", -5),
])
def test_reader_refuses_bools_and_a_horizon_below_1(field, value):
    """`true` is no integer and a trace spans at least one tick; the
    timeline of such a document used to be an SVG with width="-30"."""
    raw = {"model": "m", "scenario": "s", "horizon": 1, "version": TRACE_FORMAT_VERSION, "events": [
        {"seq": 0, "at": 0, "kind": "Link", "payload": {"from": "a", "relation": "Has_Quality", "to": "red"}}]}
    (raw if field in raw else raw["events"][0])[field] = value
    text = json.dumps(raw)
    with pytest.raises(MalformedTraceError):
        parse_trace(text)
    assert outcome(parse_trace, text) == outcome(reference_parse, text)


# ----------------------------------------------------------------------
# frozen payloads

MUTATORS = [
    ("__setitem__", ("from", "b")), ("__delitem__", ("from",)), ("clear", ()), ("pop", ("from",)),
    ("popitem", ()), ("setdefault", ("x", "y")), ("update", ({"x": "y"},)), ("__ior__", ({"x": "y"},)),
]


@pytest.mark.parametrize("name,args", MUTATORS, ids=[name for name, _ in MUTATORS])
def test_frozen_payload_refuses_every_mutator(name, args):
    p = FrozenPayload({"from": "a", "run": 1})
    with pytest.raises(TypeError, match="cannot be changed"):
        getattr(p, name)(*args)
    assert p == {"from": "a", "run": 1}


def test_frozen_payload_refuses_mutation_by_operator_and_keyword():
    p = FrozenPayload(run=1)
    with pytest.raises(TypeError, match="cannot be changed"):
        p.update(run=2)
    p.__init__({"run": 2})  # a second __init__ changes nothing
    with pytest.raises(AttributeError):
        p.note = "x"  # no __dict__
    with pytest.raises(TypeError, match="cannot be changed"):
        p["run"] = 2
    with pytest.raises(TypeError, match="cannot be changed"):
        del p["run"]
    with pytest.raises(TypeError, match="cannot be changed"):
        p |= {"run": 2}
    assert p == {"run": 1} and type(p) is FrozenPayload


@pytest.mark.parametrize("items", [
    {1: "a"}, {True: "a"}, {None: "a"},
    {"a": True}, {"a": False}, {"a": 1.0}, {"a": -0.0}, {"a": [1]}, {"a": ("b",)}, {"a": {"b": "c"}},
], ids=repr)
def test_frozen_payload_refuses_keys_and_values_that_are_not_atoms(items):
    """A key that is not a str, and a value whose JSON could differ from an
    equal value's (bool, float) or that could change (list, dict)."""
    with pytest.raises(TypeError, match="is not str"):
        FrozenPayload(items)


def test_frozen_payload_survives_deepcopy_and_pickle():
    p = FrozenPayload({"from": "a", "run": 2**70, "last": None, "é": "日本"})
    copies = [copy.copy(p), copy.deepcopy(p)]
    copies += [pickle.loads(pickle.dumps(p, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for q in copies:
        assert type(q) is FrozenPayload and list(q.items()) == list(p.items())
    shared = copy.deepcopy([p, p])  # one object stays one object
    assert shared[0] is shared[1] and shared[0] is not p


def _shared_by(event: TraceEvent):
    """What an event's payload is shared across: its link triple, its run
    step or its rule; None for any other event."""
    p = event.payload
    if event.kind in ("Link", "Unlink"):
        return p["from"], p["relation"], p["to"]
    if event.kind in ("StepStart", "StepEnd"):
        return p["run"], p["step"]
    return (p["rule"],) if event.kind == "RuleFired" else None


@pytest.mark.parametrize("model,scenario", SHIPPED_RUNS, ids=[s for _, s in SHIPPED_RUNS])
def test_engine_shares_one_frozen_payload_per_triple_step_and_rule(model, scenario):
    world, _, _ = run_scenario(model, scenario)
    first: dict = {}
    for e in world.trace:
        key = _shared_by(e)
        assert (type(e.payload) is FrozenPayload) is (key is not None), e
        if key is not None:
            assert first.setdefault(key, e.payload) is e.payload, e
    triples = {k: p for k, p in first.items() if len(k) == 3}
    assert triples == world._payloads and all(world._payloads[k] is p for k, p in triples.items())


def test_events_are_immutable():
    ev = TraceEvent(0, 0, "Link", {})
    with pytest.raises(AttributeError):
        ev.at = 1
    assert TraceEvent._field_defaults == {}  # no payload shared between events


# ----------------------------------------------------------------------
# tokenizer

SOURCE = st.text(alphabet=st.sampled_from(list("any:ab_Z09 \t#(){},=\n\r-@é\x0c \"\x85\x1c\ufeff")), max_size=60)


def token_kind(tok: str) -> str:
    if tok.isidentifier():
        return "name"
    if tok.isdigit():
        return "int"
    return "wildcard" if ":" in tok else "punct"


def tokenize_lines(text: str, file: str, diags: list) -> list:
    """Every line of ``text`` through the parser's tokenizer: the cursors
    of the lines that hold a token."""
    lines = (_tokenize_line(raw, file, n, diags) for n, raw in enumerate(text.splitlines(), start=1))
    return [line for line in lines if line is not None]


def expand(lines) -> list[tuple]:
    """``tokenize_lines``'s cursors as the reference's (kind, text, line, col)
    tuples: one column from the tokenizer, or from the cursor's span when
    the tokenizer left it to be computed."""
    out = []
    for line in lines:
        for i, tok in enumerate(line.tokens):
            span = line.span_at(i)
            assert (span.file, span.line, span.length) == ("f.xfo", line.line_no, len(tok))
            out.append((token_kind(tok), tok, line.line_no, span.column))
    return out


def tokens_and_diags(tokenize, text):
    diags: list = []
    lines = tokenize(text, "f.xfo", diags)
    return (expand(lines) if tokenize is tokenize_lines else [t for line in lines for t in line]), diags


@settings(max_examples=500, deadline=None)
@given(text=SOURCE)
def test_tokenizer_matches_reference(text):
    assert tokens_and_diags(tokenize_lines, text) == tokens_and_diags(reference_tokenize, text)


@pytest.mark.parametrize("name", sorted(p.name for p in MODELS_DIR.iterdir() if p.suffix in (".xfo", ".xws")))
def test_tokenizer_matches_reference_on_shipped_files(name):
    text = model_text(name)
    assert tokens_and_diags(tokenize_lines, text) == tokens_and_diags(reference_tokenize, text)


@pytest.mark.parametrize("name", ["catalog.xfo", "traffic.xfo", "traffic.xws", "school.xfo", "school.xws"])
def test_tokenizer_matches_reference_on_generated_inputs(name):
    text = generated_inputs()[name]
    assert tokens_and_diags(tokenize_lines, text) == tokens_and_diags(reference_tokenize, text)


# ----------------------------------------------------------------------
# statement pattern and cursor

# names, keywords among them: a keyword is a name wherever a name is due
WORD = st.sampled_from(["A", "b_1", "_x", "Z9", "any", "is_a", "instance_of", "from", "to",
                        "universal", "particular", "relation", "relate", "init", "model"])
SIMPLE_FORMS = [
    ("universal", None, "is_a", None),
    ("particular", None, "instance_of", None),
    ("relation", None, "from", None, "to", None),
    ("relate", None, None, None),
    ("init", None, None, None),
    ("model", None),
]
OTHER_LINE = st.sampled_from([
    "", "\t", "# a comment", "model m", "scenario s", "horizon 5", "rule r", "run W(a, 1) at 2",
    "transitional T {", "  link a K b", "  unlink a K b", "}", "} junk", "frame F {", "  slot x",
    "workflow W(x) {", "mechanism M {", "  step s {", "  step s placeholder {", "    duration 1",
    "    effect link a K b", "  loop 2 {", "  if exists a K b {", "  } else {",
    "rule r {", "  when exists any:U K b", "  then apply T",
])
BREAK = st.sampled_from(["\n", "\r\n", "\r", "\x1c", "\x85"])


def spelled(draw, words: list, other) -> str:
    """``words`` as drawn, or with a word missing, a word too many (drawn
    from ``other``), a word that is not a name, or a bad character (a form
    feed or a vertical tab breaks the line) inside a word; blanks and tabs
    between, before and after them."""
    how = draw(st.sampled_from(["as drawn", "missing", "extra", "not a name", "bad"]))
    if how == "missing":
        del words[draw(st.integers(0, len(words) - 1))]
    elif how == "extra":
        words.insert(draw(st.integers(0, len(words))), draw(other))
    elif how == "not a name":
        words[draw(st.integers(0, len(words) - 1))] = draw(other)
    elif how == "bad":
        i = draw(st.integers(0, len(words) - 1))
        at = draw(st.integers(0, len(words[i])))
        bad = st.sampled_from(["@", "-", ":", "\x0c", "\x0b", "\xa0", "\xe9", "\ufeff"])
        words[i] = words[i][:at] + draw(bad) + words[i][at:]
    blanks = st.text(alphabet=" \t", min_size=1, max_size=3)
    line = "".join(w + draw(blanks) for w in words[:-1]) + words[-1] if words else ""
    return draw(st.text(alphabet=" \t", max_size=2)) + line + draw(st.text(alphabet=" \t", max_size=2))


@st.composite
def simple_line(draw) -> str:
    """A simple statement, spelled as ``spelled`` does."""
    words = [w or draw(WORD) for w in draw(st.sampled_from(SIMPLE_FORMS))]
    return spelled(draw, words, WORD | st.sampled_from(["7", "9lives", "{", "any:U", "="]))


@st.composite
def source(draw) -> str:
    lines = draw(st.lists(simple_line() | OTHER_LINE, max_size=12))
    return "".join(line + draw(BREAK) for line in lines)


def parsed(parse, text: str) -> tuple:
    result = parse(text, "f")
    return [(repr(s), s.span) for s in result.document.statements], result.diagnostics


@settings(max_examples=400, deadline=None)
@given(text=source())
@example(text="universal is_a is_a is_a\nrelation from from from to to\ninit init init init\n")
@example(text="transitional T {\n  universal A is_a B\n}\nworkflow W {\n  step s {\n    relate A K B\n  }\n}\n")
@example(text="universal A is_a B\x1cparticular a\tinstance_of A \t\x85relate A K\n")
def test_statement_pattern_matches_the_cursor(text):
    for parse in (parse_model, parse_scenario):
        assert parsed(parse, text) == parsed(parse, commented(text))


# the words a clause form's operand is drawn from; a fixed word stands as itself
REF = WORD | st.sampled_from(["any:U", "any:b_1", "any:any"])
CLAUSE_FORMS = [
    ("link", WORD, WORD, WORD),
    ("unlink", WORD, WORD, WORD),
    ("slot", WORD),
    ("agent", WORD),
    ("duration", WORD | st.sampled_from(["0", "7", "007"])),
    ("require", st.sampled_from(["exists", "not_exists"]), REF, WORD, REF),
    ("effect", st.sampled_from(["link", "unlink"]), WORD, WORD, WORD),
    ("when", st.sampled_from(["exists", "not_exists"]), REF, WORD, REF),
    ("then", "apply_transitional", WORD),
]
# a block's opening lines and the lines that close them
BLOCKS = [
    (["transitional T {"], []),
    (["frame F {"], []),
    (["mechanism M(a, d) {", "  step s {"], ["  }", "}"]),
    (["workflow W {", "  loop 2 {", "    step s placeholder {"], ["    }", "  }", "}"]),
    (["rule R {"], []),
]
CLOSE = st.sampled_from(["}", "  }", "\t}\t ", "} junk", "} }", "}}", "} else {", "} # c", "  # c"])


@st.composite
def clause_line(draw) -> str:
    """A clause of any block (so often one its block does not read),
    spelled as ``spelled`` does, or with a wrong keyword."""
    words = [w if isinstance(w, str) else draw(w) for w in draw(st.sampled_from(CLAUSE_FORMS))]
    if draw(st.booleans()) and draw(st.booleans()):
        words[0] = draw(st.sampled_from(["lnk", "agnt", "slots", "Link", "universal", "step", "}"]))
    return spelled(draw, words, REF | st.sampled_from(["7", "9lives", "{", "}", "=", "exists"]))


@st.composite
def block(draw) -> str:
    """A block of drawn clauses and other lines, closed by a drawn closing
    line (or left open) and then by the lines that close its opener."""
    opening, closing = draw(st.sampled_from(BLOCKS))
    lines = draw(st.lists(clause_line() | clause_line() | OTHER_LINE, max_size=8))
    close = draw(CLOSE | st.just("}") | st.just(""))
    return "\n".join([*opening, *lines, close, *closing])


@st.composite
def block_source(draw) -> str:
    lines = draw(st.lists(block() | simple_line() | OTHER_LINE, max_size=6))
    return "".join(line + draw(BREAK) for line in lines)


@settings(max_examples=400, deadline=None)
@given(text=block_source())
@example(text="mechanism M {\n  step s {\n    agent a\n    agent b\n    duration 1\n    duration x\n  }\n}\n")
@example(text="rule R {\n  when exists any:U K b\n  when not_exists a K any:9\n}\nrule S {\n}\n")
@example(text="workflow W {\n  if exists a K b {\n    step s {\n    }\n  } else {\n  }\n} }\n}\n")
@example(text="transitional T {\n\tlink a K b\t\n  unlink a K b c\n  link a K 7\n  }\n")
def test_clause_pattern_matches_the_cursor(text):
    """Blocks of well-formed and malformed clause lines, with a wrong
    keyword, a word too many or too few, a repeated ``agent``,
    wildcards, digits, tabs and odd whitespace: the same statements,
    spans and diagnostics as their commented copy, read on the cursor."""
    for parse in (parse_model, parse_scenario):
        assert parsed(parse, text) == parsed(parse, commented(text))


# an action's operands: names, ints with leading zeros and slots that
# repeat, and now and then a word that is none of these
PAD = st.text(alphabet=" \t", max_size=2)
TICK = st.sampled_from(["0", "7", "007", "12"])
ARG = WORD | TICK | st.sampled_from(["any:U", "9lives", "="])
PAIR = st.builds(lambda slot, before, after, value: slot + before + "=" + after + value,
                 st.sampled_from(["a", "b", "role"]), PAD, PAD, WORD) | st.sampled_from(["a b", "=b", "a=", "a=7"])
OTHER_WORD = WORD | st.sampled_from(["7", "007", "(", ")", ",", "=", "at", "any:U", "a=b"])


@st.composite
def in_parens(draw, item) -> str:
    """Comma-separated ``item``s in parens, maybe none, with blanks and
    tabs, maybe none, around each paren and comma; now and then with a
    comma too many or a paren missing."""
    text = "(" + draw(PAD)
    for i, part in enumerate(draw(st.lists(item, max_size=3))):
        text += (draw(PAD) + "," + draw(PAD) if i else "") + part
    text += draw(PAD) + ")"
    how = draw(st.sampled_from(["as drawn"] * 3 + ["comma", "no close", "no open"]))
    if how == "comma":
        return text[:-1] + ",)"
    return text[:-1] if how == "no close" else text[1:] if how == "no open" else text


@st.composite
def action_operand(draw, cls) -> list:
    """The words after ``cls``'s keyword: its target, then a run's
    arguments (or none) or a frame's binding, in parens next to the target
    or apart from it."""
    target = draw(WORD)
    if cls is ApplyDirective or (cls is RunSpec and draw(st.booleans())):
        return [target]
    parens = draw(in_parens(ARG if cls is RunSpec else PAIR))
    return [target + parens] if draw(st.booleans()) else [target, parens]


@st.composite
def scenario_line(draw) -> str:
    """A scenario statement but ``init``, spelled as ``spelled`` does; an
    action now and then with ``at`` missing or with no blank before it or
    after it."""
    cls = draw(st.sampled_from([*ACTION_KEYWORDS, None]))
    if cls is None:
        form = draw(st.sampled_from([["interrupt", TICK, "at", TICK], ["horizon", TICK],
                                     ["scenario", WORD], ["rule", WORD]]))
        words = [w if isinstance(w, str) else draw(w) for w in form]
    else:
        words = [ACTION_KEYWORDS[cls][0], *draw(action_operand(cls)), "at", draw(TICK)]
        how = draw(st.sampled_from(["as drawn"] * 4 + ["no at", "glued before", "glued after"]))
        if how == "no at":
            del words[-2]
        elif how == "glued before":
            words[-3:-1] = [words[-3] + words[-2]]
        elif how == "glued after":
            words[-2:] = [words[-2] + words[-1]]
    return spelled(draw, words, OTHER_WORD)


@st.composite
def then_line(draw) -> str:
    """A rule's ``then``, spelled as ``spelled`` does, now and then with
    another action's keyword or a scenario keyword."""
    cls = draw(st.sampled_from(list(ACTION_KEYWORDS)))
    words = ["then", ACTION_KEYWORDS[cls][1], *draw(action_operand(cls))]
    if draw(st.booleans()) and draw(st.booleans()):
        words[1] = draw(st.sampled_from([word for pair in ACTION_KEYWORDS.values() for word in pair]))
    return spelled(draw, words, OTHER_WORD)


@st.composite
def action_source(draw) -> str:
    """Scenario lines, and rules with no ``then``, one or two."""
    rule = st.builds(lambda thens, close: "\n".join(["rule R {", "  when exists a K b", *thens, close]),
                     st.lists(then_line(), max_size=2), CLOSE | st.just("}"))
    lines = draw(st.lists(scenario_line() | scenario_line() | rule | OTHER_LINE, max_size=8))
    return "".join(line + draw(BREAK) for line in lines)


@settings(max_examples=400, deadline=None)
@given(text=action_source())
@example(text="activate F( b = x ,a=y ,a = z )at 007\nrun W ( ) at 1\nrun W(a,) at 2\nrun W\t(7, x)\tat 3\n"
              "deactivate F at 4\ninterrupt 007 at 0\nhorizon 007\napply T at007\n")
@example(text="rule R {\n  when exists a K b\n  then activate_frame F(a=b)\n  then start_workflow W (1, x)\n}\n"
              "rule S {\n  when exists a K b\n  then apply_transitional T at 3\n  then run W\n}\n")
def test_action_pattern_matches_the_cursor(text):
    """Scenario lines and a rule's ``then``, with odd blanks and tabs
    around parens, commas and '=', empty parens, ticks with leading
    zeros, repeated slots, ``at`` missing or glued, and words missing,
    extra or wrong: the same statements, spans and diagnostics as their
    commented copy, read on the cursor."""
    for parse in (parse_model, parse_scenario):
        assert parsed(parse, text) == parsed(parse, commented(text))


CHECKED_FILES = sorted(MODELS_DIR.glob("*.xfo")) + sorted(DATA_DIR.glob("*.xfo"))


@pytest.mark.parametrize("path", CHECKED_FILES, ids=[p.name for p in CHECKED_FILES])
def test_check_prints_the_same_from_the_pattern_and_from_the_cursor(path, tmp_path, monkeypatch, capsys):
    """``xfo check --warn-tier2`` on each shipped model and each tests/data
    model, and on its commented copy of the same name: the same exit
    status and the same output."""
    (tmp_path / path.name).write_bytes(commented(path.read_bytes().decode("utf-8")).encode("utf-8"))
    printed = []
    for where in (path.parent, tmp_path):
        monkeypatch.chdir(where)
        printed.append((cli.main(["check", "--warn-tier2", path.name]), capsys.readouterr()))
    assert printed[0] == printed[1]


STEP_CLAUSES = "'agent', 'duration', 'require' or 'effect'"
RULE_ACTIONS = "'start_workflow', 'apply_transitional', 'activate_frame' or 'deactivate_frame'"


# a token follows each wrong keyword, so a span on the token after it shows
@pytest.mark.parametrize("text,expected", [
    ("transitional T {\n  universal A is_a B\n}\n",
     [("expected 'link' or 'unlink', got 'universal'", 2, 3, 9)]),
    ("mechanism M {\n  step s {\n    relate A K B\n  }\n}\n",
     [(f"expected {STEP_CLAUSES}, got 'relate'", 3, 5, 6)]),
    ("frame F {\n  slot a\n  sloth a\n}\n", [("expected 'slot' or 'link', got 'sloth'", 3, 3, 5)]),
    ("transitional T {\n  lnk a K b\n}\n", [("expected 'link' or 'unlink', got 'lnk'", 2, 3, 3)]),
    ("workflow W {\n  stp s {\n  }\n}\n", [("expected 'step', 'loop' or 'if', got 'stp'", 2, 3, 3)]),
    ("workflow W {\n  step s {\n    agnt a\n  }\n}\n", [(f"expected {STEP_CLAUSES}, got 'agnt'", 3, 5, 4)]),
    ("workflow W {\n  step s {\n    effect lnk a K b\n  }\n}\n",
     [("expected 'link' or 'unlink', got 'lnk'", 3, 12, 3)]),
    ("workflow W {\n  step s {\n    require exist a K b\n  }\n}\n",
     [("expected 'exists' or 'not_exists', got 'exist'", 3, 13, 5)]),
    ("rule R {\n  when exists a K b\n  whn exists a K b\n  then apply_transitional T\n}\n",
     [("expected 'when' or 'then', got 'whn'", 3, 3, 3)]),
    # the one 'then' was wrong, so the rule has none
    ("rule R {\n  when exists a K b\n  then apply T\n}\n",
     [(f"expected {RULE_ACTIONS}, got 'apply'", 3, 8, 5), ("rule 'R' has no 'then' clause", 1, 1, 4)]),
    ("rule R {\n  when exists a K b\n  then apply_transitional T\n  then apply_transitional U\n}\n",
     [("rule 'R' has more than one 'then'", 4, 3, 4)]),
])
def test_simple_statement_inside_a_block_is_a_clause_error(text, expected):
    """A wrong clause keyword is reported at itself, naming its block's
    keywords in order; each case gives every diagnostic it produces."""
    diags = parse_model(text, "m.xfo").diagnostics
    assert [(d.message, *d.span[1:]) for d in diags] == expected


def count_cursors(monkeypatch) -> list:
    """The line number of each ``_Toks`` cursor the parser builds from
    here on."""
    built = []
    init = dsl._Toks.__init__

    def counting(self, *args):
        built.append(args[2])  # its line number
        init(self, *args)

    monkeypatch.setattr(dsl._Toks, "__init__", counting)
    return built


def is_simple(line: str) -> bool:
    """Whether ``line`` is a simple model statement in names, blanks and
    tabs."""
    words = line.split() if re.fullmatch(r"[A-Za-z0-9_ \t]*", line) else []
    forms = [form for form in SIMPLE_FORMS if form[0] != "init"]
    return all(w.isidentifier() for w in words) and any(
        len(words) == len(form) and all(slot in (None, word) for slot, word in zip(form, words))
        for form in forms)


def test_simple_statements_build_no_cursor(monkeypatch):
    built = count_cursors(monkeypatch)
    model = "".join(f"universal U{i} is_a B_Object\n\tparticular p{i}\tinstance_of U{i} \n"
                    f"relation k{i} from B_Object to B_Quality\nrelate U{i} k{i} U{i}\n" for i in range(50))
    assert len(parse_model(model).document.statements) == 200
    assert len(parse_scenario("init a K b\n" * 50).document.statements) == 50
    assert built == []


# each block's well-formed one-line clauses: a fixed word, or None for a
# name, REF_WORD for a name or a wildcard, PREDICATE_WORD for exists or
# not_exists, DURATION_WORD for a name or a number
REF_WORD, PREDICATE_WORD, DURATION_WORD = "<ref>", "<predicate>", "<duration>"
BLOCK_CLAUSES = {
    "transitional": [("link", None, None, None), ("unlink", None, None, None)],
    "frame": [("slot", None), ("link", None, None, None)],
    "step": [("agent", None), ("duration", DURATION_WORD),
             ("require", PREDICATE_WORD, REF_WORD, None, REF_WORD),
             ("effect", "link", None, None, None), ("effect", "unlink", None, None, None)],
    "rule": [("when", PREDICATE_WORD, REF_WORD, None, REF_WORD)],
    "body": [],
}
OPENS = {"transitional": "transitional", "frame": "frame", "rule": "rule", "step": "step",
         "workflow": "body", "mechanism": "body", "loop": "body", "if": "body"}


def fits(word: str, slot) -> bool:
    if slot == REF_WORD:
        return word.isidentifier() or (word.startswith("any:") and word[4:].isidentifier())
    if slot == PREDICATE_WORD:
        return word in ("exists", "not_exists")
    if slot == DURATION_WORD:
        return word.isidentifier() or word.isdigit()
    return word.isidentifier() if slot is None else word == slot


# a rule's well-formed ``then``, in a model that parses without a
# diagnostic: an action keyword, its target, and a run's arguments or a
# frame's binding in parens
THEN_LINE = re.compile(r"[ \t]*then[ \t]+(start_workflow[ \t]+\w+([ \t]*\([\w, \t]*\))?|apply_transitional[ \t]+\w+"
                       r"|(de)?activate_frame[ \t]+\w+[ \t]*\([\w=, \t]*\))[ \t]*", re.ASCII)


def lines_needing_a_cursor(text: str) -> list:
    """The numbers of the lines of ``text``, a model that parses without
    a diagnostic, that hold a word and are neither a simple statement, nor
    a clause its block reads in one line (a step's first ``agent`` or
    ``duration`` only), nor a lone '}', each in names, wildcards, numbers,
    blanks and tabs, nor a rule's first ``then``."""
    needs, blocks, seen = [], [], []
    for n, line in enumerate(text.splitlines(), start=1):
        words = line.split("#")[0].split()
        if not words:
            continue
        plain = re.fullmatch(r"[A-Za-z0-9_: \t}]*", line) is not None
        if plain and words == ["}"]:
            blocks.pop(), seen.pop()
            continue
        if plain and blocks:
            forms = BLOCK_CLAUSES[blocks[-1]]
            if any(len(words) == len(form) and all(map(fits, words, form)) for form in forms) and not (
                    words[0] in ("agent", "duration") and words[0] in seen[-1]):
                seen[-1].add(words[0])
                continue
        elif plain and is_simple(line):
            continue
        if blocks and blocks[-1] == "rule" and THEN_LINE.fullmatch(line) and "then" not in seen[-1]:
            seen[-1].add("then")
            continue
        needs.append(n)
        if words[0] == "}":  # '} else {'
            blocks.pop(), seen.pop()
            words = words[1:]
        if words[-1] == "{":
            blocks.append(OPENS[words[0] if words[0] != "else" else "if"])
            seen.append(set())
    return needs


def test_shipped_model_builds_one_cursor_per_line_that_needs_one(monkeypatch):
    built = count_cursors(monkeypatch)
    for name in ("traffic.xfo", "school.xfo", "celadon.xfo"):
        text = model_text(name)
        needs = lines_needing_a_cursor(text)
        built.clear()
        assert parse_model(text, name).ok
        assert built == needs and len(needs) < len(text.splitlines()) / 3, name


def test_well_formed_clause_lines_build_no_cursor(monkeypatch):
    built = count_cursors(monkeypatch)
    text = ("transitional T {\n  unlink a K b\n\tlink a\tK b \n}\n"
            "frame F {\n  slot x\n  slot y\n  link x K y\n}\n"
            "mechanism M(d) {\n  step s {\n    agent a\n    duration d\n    require exists any:U K b\n"
            "    require not_exists a K any:V\n    effect unlink a K b\n    effect link a K c\n  }\n"
            "  step t {\n    duration 007\n  }\n}\n"
            "rule R {\n  when exists a K b\n  when not_exists any:U K b\n  then apply_transitional T\n}\n"
            "rule S {\n  when exists a K b\n  then start_workflow M( 007 ,x)\n}\n"
            "rule U {\n  when exists a K b\n\tthen activate_frame F (y = b,x=a)\t\n}\n"
            "rule V {\n  when exists a K b\n  then deactivate_frame F()\n}\n")
    res = parse_model(text)
    assert res.ok and len(res.document.statements) == 7
    # the lines that open a block
    assert built == [1, 5, 10, 11, 19, 23, 28, 32, 36]
    (t, f, m, r, *actions) = res.document.statements
    assert [a.action for a in actions] == [
        RunSpec("M", (7, "x")), ActivateDirective("F", (("x", "a"), ("y", "b"))), DeactivateDirective("F", ())]
    step = m.body.items[0].step
    assert (len(t.links), len(t.unlinks), f.slots, len(f.templates)) == (1, 1, ("x", "y"), 1)
    assert (step.agent_ref, step.duration, len(step.preconditions), len(step.links), len(step.unlinks)) == (
        "a", "d", 2, 1, 1)
    assert m.body.items[1].step.duration == 7 and step.preconditions[0].from_ref == Wildcard("U")
    assert [p.exists for p in r.guard] == [True, False]


def test_well_formed_scenario_lines_and_thens_build_no_cursor(monkeypatch):
    """Each shipped scenario and each generated one is read with no cursor,
    a statement a line; in the generated models, a rule's ``then`` builds
    none either."""
    built = count_cursors(monkeypatch)
    generated = generated_inputs()
    scenarios = {p.name: p.read_text(encoding="utf-8") for p in sorted(MODELS_DIR.glob("*.xws"))}
    scenarios.update((name, text) for name, text in generated.items() if name.endswith(".xws"))
    for name, text in scenarios.items():
        res = parse_scenario(text, name)
        assert res.ok and len(res.document.statements) == sum(
            1 for line in text.splitlines() if line.split("#")[0].strip()), name
    assert built == []
    for name in ("school.xfo", "traffic.xfo"):
        text = generated[name]
        built.clear()
        assert parse_model(text, name).ok
        assert built == lines_needing_a_cursor(text), name
    assert "  then start_workflow" in generated["school.xfo"]
