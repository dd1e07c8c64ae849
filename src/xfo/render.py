"""Static SVG rendering of traces: quality timelines and lamp snapshots.

Output is deterministic byte-for-byte: integer coordinates only, fixed
color table, entities in sorted order. Both renderers read the link
store ``parse_trace`` replayed into the doc (``TraceDoc.spans``, a
``trace.SpanStore``) and replay nothing themselves. Colours are clipped to the
horizon, which ends an open span or a later one; membership is not.
"""
from __future__ import annotations

from .errors import MalformedTraceError, TickOutOfRangeError
from .trace import TraceDoc

COLOR_TABLE = {
    "green": "#2e8b57",
    "yellow": "#e6c200",
    "red": "#c0392b",
    "dark": "#777777",
}
FALLBACK_COLOR = "#bbbbbb"

_LABEL_W = 150
_ROW_H = 26
_ROW_GAP = 10
_TOP = 34
_PX_PER_TICK = 40
_RIGHT = 20


def _color(quality: str) -> str:
    return COLOR_TABLE.get(quality, FALLBACK_COLOR)


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Escaped(dict):
    """text -> ``_esc(text)``, filled on first use."""

    def __missing__(self, text: str) -> str:
        e = self[text] = _esc(text)
        return e


def _clip(end: int | None, horizon: int) -> int:
    """A span's end as drawn: the horizon ends an open span or a later one."""
    return horizon if end is None else min(end, horizon)


def _svg(width: int, height: int, title: str, body: list[str]) -> str:
    """One SVG document: the XML declaration, the svg element of the given
    size, the title line, then ``body``'s lines."""
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{_LABEL_W}" y="20" font-size="13" font-family="sans-serif">{_esc(title)}</text>',
        *body,
        "</svg>",
    ]) + "\n"


def _quality_spans(spans, horizon: int):
    """entity -> list of (start, end, quality) from the Has_Quality links
    in a link store, clipped to the horizon."""
    rows: dict[str, list[tuple[int, int, str]]] = {}
    for (frm, kind, to), ranges in spans.items():
        if kind != "Has_Quality":
            continue
        for start, end in ranges:
            stop = _clip(end, horizon)
            if stop <= start:
                continue
            rows.setdefault(frm, []).append((start, stop, to))
    for row in rows.values():
        row.sort()
    return rows


def _axis(out: list[str], width: int, y: int, horizon: int) -> None:
    out.append(f'<line x1="{_LABEL_W}" y1="{y}" x2="{width - _RIGHT}" y2="{y}" stroke="#333333"/>')
    step = 1 if horizon <= 30 else 5
    for t in range(0, horizon + 1, step):
        x = _LABEL_W + t * _PX_PER_TICK
        out.append(f'<line x1="{x}" y1="{y}" x2="{x}" y2="{y + 5}" stroke="#333333"/>')
        out.append(f'<text x="{x}" y="{y + 18}" font-size="11" text-anchor="middle">{t}</text>')


def render_timeline(doc: TraceDoc, entities: list[str] | None = None) -> str:
    """One band per entity showing its Has_Quality spans over [0, horizon];
    ``entities`` draws the named ones, each once, in the order first named."""
    rows = _quality_spans(doc.spans, doc.horizon)
    if entities is None:
        names = sorted(rows)
    else:
        names = list(dict.fromkeys(entities))
        unknown = sorted(set(names) - set(rows))
        if unknown:
            raise MalformedTraceError(
                f"no Has_Quality history for entit{'y' if len(unknown) == 1 else 'ies'}: "
                + ", ".join(unknown)
            )
    width = _LABEL_W + doc.horizon * _PX_PER_TICK + _RIGHT
    axis_y = _TOP + len(names) * (_ROW_H + _ROW_GAP) + 8
    out = []
    esc = _Escaped()  # each distinct name and quality escaped once
    for i, name in enumerate(names):
        y = _TOP + i * (_ROW_H + _ROW_GAP)
        out.append(
            f'<text x="{_LABEL_W - 8}" y="{y + 17}" font-size="12" text-anchor="end" '
            f'font-family="sans-serif">{esc[name]}</text>'
        )
        for start, stop, quality in rows.get(name, ()):
            x = _LABEL_W + start * _PX_PER_TICK
            w = (stop - start) * _PX_PER_TICK
            out.append(
                f'<rect x="{x}" y="{y}" width="{w}" height="{_ROW_H}" '
                f'fill="{_color(quality)}" stroke="#333333">'
                f"<title>{esc[name]}: {esc[quality]} [{start},{stop})</title></rect>"
            )
    _axis(out, width, axis_y, doc.horizon)
    return _svg(width, axis_y + 30, f"{doc.scenario}: quality timeline", out)


def _containers(spans, at: int):
    """container -> sorted members at tick ``at``, and the set of all
    those members, from the Continuant_Part_Of links in a link store: an
    entity is a member while a row of its link holds ``at``."""
    groups: dict[str, list[str]] = {}
    for t in spans:
        if t[1] == "Continuant_Part_Of" and spans.at(t, at) is not None:
            groups.setdefault(t[2], []).append(t[0])
    for members in groups.values():
        members.sort()
    return groups, {m for members in groups.values() for m in members}


def _qualities_at(spans, horizon: int, at: int) -> dict[str, str | None]:
    """entity -> the quality its Has_Quality links show at tick ``at``, or
    None, for each entity that has a Has_Quality span left once spans are
    clipped to ``[start, min(end, horizon))``, as the timeline draws them.

    At the horizon tick no span is active. Where several are, the least
    ``(start, stop, quality)`` wins."""
    best: dict[str, tuple[int, int, str] | None] = {}
    for t, ranges in spans.items():
        frm, kind, to = t
        if kind != "Has_Quality":
            continue
        span = spans.at(t, at) if at < horizon else None
        if span is not None:
            row, shown = (span[0], _clip(span[1], horizon), to), best.get(frm)
            if shown is None or row < shown:
                best[frm] = row
        elif frm not in best and any(start < _clip(end, horizon) for start, end in ranges):
            best[frm] = None
    return {entity: None if row is None else row[2] for entity, row in best.items()}


def render_snapshot(doc: TraceDoc, at: int) -> str:
    """Lamp states at one tick: one row per container with a member at
    that tick, a filled circle per member colored by its active
    Has_Quality link."""
    if not 0 <= at <= doc.horizon:
        raise TickOutOfRangeError(f"tick {at} outside [0, {doc.horizon}]")
    shown = _qualities_at(doc.spans, doc.horizon, at)
    groups, grouped = _containers(doc.spans, at)
    loose = sorted(set(shown) - grouped)
    panels = [(name, groups[name]) for name in sorted(groups)]
    if loose:
        panels.append(("(ungrouped)", loose))
    r, gap, row_h = 16, 70, 78
    max_members = max((len(m) for _, m in panels), default=0)
    width = _LABEL_W + max(max_members * gap, gap) + _RIGHT
    out = []
    for i, (container, members) in enumerate(panels):
        y = _TOP + i * row_h + row_h // 2
        out.append(
            f'<text x="{_LABEL_W - 8}" y="{y + 5}" font-size="12" text-anchor="end" '
            f'font-family="sans-serif">{_esc(container)}</text>'
        )
        for j, member in enumerate(members):
            cx = _LABEL_W + gap // 2 + j * gap
            quality = shown.get(member)
            fill = _color(quality) if quality is not None else "#eeeeee"
            out.append(
                f'<circle cx="{cx}" cy="{y}" r="{r}" fill="{fill}" stroke="#333333">'
                f"<title>{_esc(member)}: {_esc(quality or 'none')}</title></circle>"
            )
            out.append(
                f'<text x="{cx}" y="{y + r + 14}" font-size="10" text-anchor="middle" '
                f'font-family="sans-serif">{_esc(member)}</text>'
            )
    height = _TOP + max(len(panels), 1) * row_h + 10
    return _svg(width, height, f"{doc.scenario}: state at tick {at}", out)
