"""Timeline and snapshot SVG rendering, and a differential test of the
renderers, which read the doc's span index, against the replaying
renderers they replaced."""
from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xfo import trace
from xfo.errors import MalformedTraceError, TickOutOfRangeError, UnknownEntityError
from xfo.render import _LABEL_W, _PX_PER_TICK, _RIGHT, _ROW_GAP, _ROW_H, _TOP, _axis, _color, _esc
from xfo.render import render_snapshot, render_timeline
from xfo.trace import TraceDoc, TraceEvent, parse_trace, replay_spans, trace_to_json

from helpers import run_scenario


def _traffic_text() -> str:
    world, _, scen = run_scenario("traffic.xfo", "traffic_desk.xws")
    return trace_to_json(world.model_name, scen.name, scen.horizon, world.trace)


def _traffic_doc():
    return parse_trace(_traffic_text())


def test_timeline_bands():
    doc = _traffic_doc()
    svg = render_timeline(doc)
    assert svg.startswith("<?xml")
    # six lamp bands, sorted
    for lamp in ("lampA_green", "lampA_red", "lampA_yellow",
                 "lampB_green", "lampB_red", "lampB_yellow"):
        assert f">{lamp}</text>" in svg
    # light A's green band spans ticks [0,2): x=150, width=2*40
    assert '<rect x="150" y="34" width="80" height="26" fill="#2e8b57"' in svg
    assert "lampA_green: green [0,2)" in svg
    # part-of links do not create bands
    assert ">lightA</text>" not in svg


def test_timeline_deterministic_bytes():
    a = render_timeline(_traffic_doc())
    b = render_timeline(_traffic_doc())
    assert a == b


def test_timeline_entity_filter():
    doc = _traffic_doc()
    svg = render_timeline(doc, entities=["lampA_green"])
    assert ">lampA_green</text>" in svg and "lampB_green" not in svg
    with pytest.raises(UnknownEntityError) as exc:
        render_timeline(doc, entities=["lampA_green", "nonesuch"])
    assert "nonesuch" in str(exc.value)


def test_timeline_empty_trace():
    doc = parse_trace(trace_to_json("m", "s", 8, ()))
    svg = render_timeline(doc)
    assert "<rect" not in svg  # axes only
    assert svg.count("<line") >= 2


def test_snapshot_colors():
    doc = _traffic_doc()
    svg1 = render_snapshot(doc, 1)
    # light A shows green at tick 1; the other lamps are dark gray
    assert 'fill="#2e8b57"' in svg1
    assert svg1.count('fill="#777777"') == 4  # two dark lamps per light
    svg2 = render_snapshot(doc, 2)
    assert 'fill="#e6c200"' in svg2  # yellow phase at tick 2
    assert ">lightA</text>" in svg1 and ">lightB</text>" in svg1
    # deterministic
    assert render_snapshot(_traffic_doc(), 1) == svg1


def test_snapshot_tick_range():
    doc = _traffic_doc()
    with pytest.raises(TickOutOfRangeError):
        render_snapshot(doc, 13)
    with pytest.raises(TickOutOfRangeError):
        render_snapshot(doc, -1)


def test_snapshot_ungrouped_entities():
    world, _, scen = run_scenario("celadon.xfo", "celadon_run.xws")
    doc = parse_trace(trace_to_json(world.model_name, scen.name, scen.horizon, world.trace))
    svg = render_snapshot(doc, 3)
    assert "(ungrouped)" in svg and ">clay1</text>" in svg


def test_parse_trace_rejects_malformed():
    good = trace_to_json("m", "s", 3, [])
    with pytest.raises(MalformedTraceError):
        parse_trace(good[: len(good) // 2])  # truncated JSON
    with pytest.raises(MalformedTraceError):
        parse_trace('{"model": "m"}')
    with pytest.raises(MalformedTraceError):
        parse_trace(good.replace('"version": 1', '"version": 99'))
    with pytest.raises(MalformedTraceError):
        parse_trace('{"model": "m", "scenario": "s", "horizon": 3, "version": 1, '
                    '"events": [{"seq": 0, "at": 0, "kind": "Nope", "payload": {}}]}')
    with pytest.raises(MalformedTraceError):
        parse_trace('{"model": "m", "scenario": "s", "horizon": 3, "version": 1, '
                    '"events": [{"seq": 1, "at": 1, "kind": "Link", "payload": {}}, '
                    '{"seq": 1, "at": 0, "kind": "Link", "payload": {}}]}')


# ----------------------------------------------------------------------
# reference: the renderers that replayed the whole trace on every call,
# kept verbatim apart from names and one fixed rule: a snapshot reads
# container membership at its own tick. The SVG layout helpers are shared.


def _reference_quality_spans(spans, horizon: int):
    rows: dict[str, list[tuple[int, int, str]]] = {}
    for (frm, kind, to), ranges in spans.items():
        if kind != "Has_Quality":
            continue
        for start, end in ranges:
            stop = horizon if end is None else min(end, horizon)
            if stop <= start:
                continue
            rows.setdefault(frm, []).append((start, stop, to))
    for row in rows.values():
        row.sort()
    return rows


def reference_timeline(doc: TraceDoc, entities: list[str] | None = None) -> str:
    rows = _reference_quality_spans(replay_spans(doc.events), doc.horizon)
    if entities is None:
        names = sorted(rows)
    else:
        unknown = sorted(set(entities) - set(rows))
        if unknown:
            raise UnknownEntityError(
                f"no Has_Quality history for entit{'y' if len(unknown) == 1 else 'ies'}: "
                + ", ".join(unknown)
            )
        names = list(entities)
    width = _LABEL_W + doc.horizon * _PX_PER_TICK + _RIGHT
    axis_y = _TOP + len(names) * (_ROW_H + _ROW_GAP) + 8
    height = axis_y + 30
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{_LABEL_W}" y="20" font-size="13" font-family="sans-serif">'
        f"{_esc(doc.scenario)}: quality timeline</text>",
    ]
    for i, name in enumerate(names):
        y = _TOP + i * (_ROW_H + _ROW_GAP)
        out.append(
            f'<text x="{_LABEL_W - 8}" y="{y + 17}" font-size="12" text-anchor="end" '
            f'font-family="sans-serif">{_esc(name)}</text>'
        )
        for start, stop, quality in rows.get(name, ()):
            x = _LABEL_W + start * _PX_PER_TICK
            w = (stop - start) * _PX_PER_TICK
            out.append(
                f'<rect x="{x}" y="{y}" width="{w}" height="{_ROW_H}" '
                f'fill="{_color(quality)}" stroke="#333333">'
                f"<title>{_esc(name)}: {_esc(quality)} [{start},{stop})</title></rect>"
            )
    _axis(out, width, axis_y, doc.horizon)
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _reference_containers(spans, at: int):
    groups: dict[str, list[str]] = {}
    grouped: set[str] = set()
    for (frm, kind, to), ranges in spans.items():
        if kind != "Continuant_Part_Of":
            continue
        if not any(start <= at and (end is None or end > at) for start, end in ranges):
            continue  # membership is read at the snapshot's tick
        groups.setdefault(to, [])
        if frm not in groups[to]:
            groups[to].append(frm)
        grouped.add(frm)
    for members in groups.values():
        members.sort()
    return groups, grouped


def reference_snapshot(doc: TraceDoc, at: int) -> str:
    if not 0 <= at <= doc.horizon:
        raise TickOutOfRangeError(f"tick {at} outside [0, {doc.horizon}]")
    spans = replay_spans(doc.events)
    rows = _reference_quality_spans(spans, doc.horizon)
    groups, grouped = _reference_containers(spans, at)
    loose = sorted(set(rows) - grouped)
    panels = [(name, groups[name]) for name in sorted(groups)]
    if loose:
        panels.append(("(ungrouped)", loose))

    def quality_at(entity: str) -> str | None:
        for start, stop, quality in rows.get(entity, ()):
            if start <= at < stop:
                return quality
        return None

    r, gap, row_h = 16, 70, 78
    max_members = max((len(m) for _, m in panels), default=0)
    width = _LABEL_W + max(max_members * gap, gap) + _RIGHT
    height = _TOP + max(len(panels), 1) * row_h + 10
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{_LABEL_W}" y="20" font-size="13" font-family="sans-serif">'
        f"{_esc(doc.scenario)}: state at tick {at}</text>",
    ]
    for i, (container, members) in enumerate(panels):
        y = _TOP + i * row_h + row_h // 2
        out.append(
            f'<text x="{_LABEL_W - 8}" y="{y + 5}" font-size="12" text-anchor="end" '
            f'font-family="sans-serif">{_esc(container)}</text>'
        )
        for j, member in enumerate(members):
            cx = _LABEL_W + gap // 2 + j * gap
            quality = quality_at(member)
            fill = _color(quality) if quality is not None else "#eeeeee"
            out.append(
                f'<circle cx="{cx}" cy="{y}" r="{r}" fill="{fill}" stroke="#333333">'
                f"<title>{_esc(member)}: {_esc(quality or 'none')}</title></circle>"
            )
            out.append(
                f'<text x="{cx}" y="{y + r + 14}" font-size="10" text-anchor="middle" '
                f'font-family="sans-serif">{_esc(member)}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# differential tests

_LAMPS = ("a1", "a2", "b1", "b2", "u1", "u2")
_QUALITIES = ("green", "red", "dark", "plum")
_CONTAINERS = ("L1", "L2", "L3")
# a1 and a2 sit in L1, b1 in L2 and L3, b2 in L2; u1 and u2 are in none.
_TRIPLES = (
    [(lamp, "Has_Quality", q) for lamp in _LAMPS for q in _QUALITIES]
    + [("a1", "Continuant_Part_Of", "L1"), ("a2", "Continuant_Part_Of", "L1"),
       ("b1", "Continuant_Part_Of", "L2"), ("b1", "Continuant_Part_Of", "L3"),
       ("b2", "Continuant_Part_Of", "L2")]
)


def _events(horizon: int, steps) -> list[TraceEvent]:
    """Link or Unlink, whichever is legal, for each (tick step, triple), at
    non-decreasing ticks that may pass the horizon (``parse_trace`` refuses
    those, so the test builds their doc directly); a StepStart now and
    then, which the span index ignores."""
    events, active, at = [], set(), 0
    for dt, triple, noise in steps:
        at = min(at + dt, horizon + 1)
        if noise:
            events.append(TraceEvent(len(events), at, "StepStart", {"run": "r", "step": "s"}))
        frm, kind, to = triple
        events.append(TraceEvent(len(events), at, "Unlink" if triple in active else "Link",
                                 {"from": frm, "relation": kind, "to": to}))
        active ^= {triple}
    return events


_steps = st.lists(st.tuples(st.sampled_from((0, 0, 1, 2)), st.sampled_from(_TRIPLES), st.booleans()),
                  max_size=40)
_HQ = "Has_Quality"
# every case the index must keep: containers and ungrouped lamps, two
# overlapping qualities on a1, a zero-length span on a2, spans open at the
# end, a span that starts at the horizon (u2) and one past it (b2); b1
# leaves L3 at tick 2, which then has no member, and a2 joins L1 at tick 3
_EVERY_CASE = [
    (0, ("a1", "Continuant_Part_Of", "L1"), False), (0, ("b1", "Continuant_Part_Of", "L2"), False),
    (0, ("b1", "Continuant_Part_Of", "L3"), True), (0, ("a1", _HQ, "red"), False),
    (1, ("a1", _HQ, "green"), False), (0, ("a2", _HQ, "dark"), False), (0, ("a2", _HQ, "dark"), False),
    (0, ("u1", _HQ, "plum"), False), (1, ("a1", _HQ, "red"), False), (0, ("b1", _HQ, "green"), False),
    (0, ("b1", "Continuant_Part_Of", "L3"), False), (1, ("a2", "Continuant_Part_Of", "L1"), False),
    (1, ("u2", _HQ, "dark"), False), (1, ("b2", _HQ, "red"), False),
]


@settings(max_examples=200, deadline=None)
@given(horizon=st.integers(1, 6), steps=_steps,
       entities=st.lists(st.sampled_from(_LAMPS), min_size=1, max_size=5))
@example(horizon=4, steps=_EVERY_CASE, entities=["a1", "u1", "a1"])
def test_renderers_match_the_replaying_reference(horizon, steps, entities):
    events = _events(horizon, steps)
    text = trace_to_json("m", "s", horizon, events)
    if events and events[-1].at > horizon:  # no document holds such a trace
        with pytest.raises(MalformedTraceError, match="is past the horizon"):
            parse_trace(text)
        doc = TraceDoc("m", "s", horizon, 1, tuple(events), replay_spans(events))
    else:
        doc = parse_trace(text)
    assert render_timeline(doc) == reference_timeline(doc)
    first_named = list(dict.fromkeys(entities))
    try:
        want = reference_timeline(doc, first_named)
    except UnknownEntityError as exc:
        with pytest.raises(UnknownEntityError, match=re.escape(str(exc))):
            render_timeline(doc, entities)
    else:
        assert render_timeline(doc, entities) == want
    for at in range(horizon + 1):
        assert render_snapshot(doc, at) == reference_snapshot(doc, at), at


@pytest.mark.parametrize("model,scenario", [
    ("traffic.xfo", "traffic_desk.xws"), ("celadon.xfo", "celadon_run.xws"),
])
def test_every_tick_of_shipped_traces_matches_the_reference(model, scenario):
    world, _, scen = run_scenario(model, scenario)
    doc = parse_trace(trace_to_json(world.model_name, scen.name, scen.horizon, world.trace))
    assert render_timeline(doc) == reference_timeline(doc)
    for at in range(doc.horizon + 1):
        assert render_snapshot(doc, at) == reference_snapshot(doc, at), at


def test_a_doc_replays_its_events_once(monkeypatch):
    """Parsing replays the events once; rendering reads the doc's store."""
    text = _traffic_text()
    calls = []

    def counting_replay(events):
        calls.append(len(events))
        return replay_spans(events)

    monkeypatch.setattr(trace, "replay_spans", counting_replay)
    doc = parse_trace(text)
    assert calls == [len(doc.events)]
    index = doc.spans
    with pytest.raises(TickOutOfRangeError):
        render_snapshot(doc, doc.horizon + 1)
    render_timeline(doc)
    for at in range(doc.horizon + 1):
        render_snapshot(doc, at)
    assert doc.horizon + 1 == 13 and len(calls) == 1
    assert doc.spans is index and index == replay_spans(doc.events)
    assert doc == parse_trace(text) and len(calls) == 2


def _part_of_doc(horizon: int) -> TraceDoc:
    """Lamp ``a`` is red from tick 0 and joins container L9 at tick 3."""
    events = [
        TraceEvent(0, 0, "Link", {"from": "a", "relation": "Has_Quality", "to": "red"}),
        TraceEvent(1, 3, "Link", {"from": "a", "relation": "Continuant_Part_Of", "to": "L9"}),
    ]
    return TraceDoc("m", "s", horizon, 1, tuple(events), replay_spans(events))


def test_snapshot_reads_membership_at_its_tick():
    """A lamp was once drawn in every container it was ever part of,
    whatever the tick: here in an L9 panel at tick 0."""
    doc = _part_of_doc(2)
    with pytest.raises(MalformedTraceError, match="event 1: tick 3 is past the horizon 2"):
        parse_trace(trace_to_json("m", "s", 2, doc.events))
    for at in range(3):
        svg = render_snapshot(doc, at)
        assert ">L9</text>" not in svg and ">(ungrouped)</text>" in svg and ">a</text>" in svg
    doc = parse_trace(trace_to_json("m", "s", 3, _part_of_doc(3).events))
    assert ">L9</text>" not in render_snapshot(doc, 2)
    svg = render_snapshot(doc, 3)  # the horizon tick: membership is not clipped
    assert ">L9</text>" in svg and "(ungrouped)" not in svg and "<title>a: none</title>" in svg
    for at in range(4):
        assert render_snapshot(doc, at) == reference_snapshot(doc, at), at
