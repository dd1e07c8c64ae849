"""Independent oracles for the benchmark workloads.

None of this imports `xfo`. Each oracle reads the generator's spec and
re-derives, from the documented semantics alone, what the engine must
produce:

* traffic: a plain event heap over (tick, schedule seq). A run's start is
  an action; its zero-length `turn_on` step ends in a new action at the
  same tick, queued behind every action already due then. Each step end
  queues the next one `duration` ticks later. Actions at ticks past the
  horizon never apply. A step's edits record every unlink, then every
  link, in template order.
* lamp colour: cycle arithmetic, exact for any tick up to the horizon.
* school: the rule for role k fires exactly at each vacancy tick of role
  k (the guard turns true there and nowhere else), in rule order within
  a tick; each fire starts one hiring run that completes 4 ticks later.
* catalog: planted counts, plus TIC sizes from the generator's own tree.
"""
from __future__ import annotations

import heapq
import json

from gen import HQ, PART, Light

B_TAXONOMY_SIZE = 14  # shipped B-layer entities
RESERVED_UNIVERSALS = 1  # `Transitional`, defined by every World
HIRE_TICKS = 4  # board_train 1 + interview 2 + return 1


def traffic_events(spec: dict) -> list[tuple]:
    """Expected (tick, kind, from, relation, to) Link/Unlink sequence."""
    horizon = spec["horizon"]
    events = [(0, "Link", f, k, t) for f, k, t in spec["init"]]
    heap: list = []
    seq = 0

    def push(tick: int, action: tuple) -> None:
        nonlocal seq
        heapq.heappush(heap, (tick, seq, action))
        seq += 1

    for light in spec["lights"]:
        push(light.start, ("start", light, None))
    while heap and heap[0][0] <= horizon:
        tick, _, (what, lt, phase) = heapq.heappop(heap)
        if what == "start":
            push(tick, ("end", lt, -1))
            continue
        if phase == -1:
            events += [(tick, "Unlink", lt.green, HQ, "dark"), (tick, "Link", lt.green, HQ, "green")]
            push(tick + lt.dg, ("end", lt, 0))
            continue
        off, off_c, on, on_c, nxt = (
            (lt.green, "green", lt.yellow, "yellow", lt.dy),
            (lt.yellow, "yellow", lt.red, "red", lt.dr),
            (lt.red, "red", lt.green, "green", lt.dg),
        )[phase]
        events += [
            (tick, "Unlink", off, HQ, off_c),
            (tick, "Unlink", on, HQ, "dark"),
            (tick, "Link", off, HQ, "dark"),
            (tick, "Link", on, HQ, on_c),
        ]
        push(tick + nxt, ("end", lt, (phase + 1) % 3))
    return events


def lamp_colours(light: Light, at: int) -> dict[str, str]:
    """Colour each lamp of one light shows at tick `at` (at <= horizon)."""
    state = dict.fromkeys(light.lamps, "dark")
    if at >= light.start:
        phase = (at - light.start) % (light.dg + light.dy + light.dr)
        if phase < light.dg:
            state[light.green] = "green"
        elif phase < light.dg + light.dy:
            state[light.yellow] = "yellow"
        else:
            state[light.red] = "red"
    return state


def school_fires(spec: dict) -> list[tuple[int, str]]:
    """Expected (tick, rule) RuleFired sequence."""
    return [(tick, f"vacancy{k:03d}") for tick, k in sorted(spec["vacancies"])]


def catalog_expect(spec: dict) -> dict:
    """Counts the catalog pipeline must report, derived from the spec."""
    parent = spec["parent"]
    n_out: dict[str, int] = {}
    n_in: dict[str, int] = {}
    for f, _, t in spec["declarations"]:
        n_out[f] = n_out.get(f, 0) + 1
        n_in[t] = n_in.get(t, 0) + 1
    entries = 0
    for u in spec["independent"]:
        a = u
        while a is not None:
            entries += n_out.get(a, 0) + n_in.get(a, 0)
            a = parent.get(a)
    return {
        "warnings": spec["warnings"],
        "errors": spec["errors"],
        "gaps": spec["gaps"],
        "statements": spec["statements"],
        "entities": B_TAXONOMY_SIZE + RESERVED_UNIVERSALS + len(parent)
        + len(spec["particulars"]) + spec["transitionals_ok"],
        "explained": len(spec["independent"]),
        "tic_entries": entries,
    }


def json_spans(text: str) -> dict[tuple, list[list]]:
    """Link spans rebuilt from trace JSON text with only the json module:
    (from, relation, to) -> [[start, end or None], ...]."""
    spans: dict[tuple, list[list]] = {}
    for e in json.loads(text)["events"]:
        if e["kind"] not in ("Link", "Unlink"):
            continue
        p = e["payload"]
        row = spans.setdefault((p["from"], p["relation"], p["to"]), [])
        if e["kind"] == "Link":
            row.append([e["at"], None])
        else:
            row[-1][1] = e["at"]
    return spans


def active(spans: dict, triple: tuple, at: int) -> bool:
    return any(s <= at and (e is None or e > at) for s, e in spans.get(triple, ()))
