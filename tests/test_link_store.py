"""The indexed link store against naive scans of the trace.

The naive functions below are the reference: they read only the trace's
Link and Unlink events, the declaration list and parent chains, never the
store they check.
"""
from __future__ import annotations

import copy
from contextlib import suppress

import pytest
from hypothesis import example, given, settings, strategies as st

from xfo.dynamics import StatePredicate, Wildcard
from xfo.errors import (
    DuplicateActiveLinkError,
    InvalidLinkError,
    LinkEditError,
    NoActiveLinkError,
    TickOrderError,
    Tier2UncoveredError,
    XfoError,
)
from xfo.ontology import Layer
from xfo.relations import World
from xfo.microworld import load_scenario
from xfo.trace import FrozenPayload, SpanStore, parse_trace, replay_spans, trace_parts, trace_to_json

from helpers import SHIPPED_RUNS, link_events, load_shipped_scenario, load_world, run_scenario

# ----------------------------------------------------------------------
# naive reference


def naive_is_descendant(reg, a, b):
    return b in reg.parent_chain(a)


def naive_links(world):
    """Every link as [from, kind, to, start, end], in the order the trace
    links them, rebuilt from its Link and Unlink events alone."""
    links = []
    for e in world.trace:
        if e.kind not in ("Link", "Unlink"):
            continue
        t = [e.payload["from"], e.payload["relation"], e.payload["to"]]
        if e.kind == "Link":
            links.append([*t, e.at, None])
        else:
            next(l for l in reversed(links) if l[:3] == t and l[4] is None)[4] = e.at
    return links


def naive_active_at(link, at):
    return link[3] <= at and (link[4] is None or link[4] > at)


def naive_active_link(world, from_p, kind, to_p):
    """(from, kind, to, start, None) of the triple's open link, or None."""
    for l in naive_links(world):
        if l[4] is None and l[:3] == [from_p, kind, to_p]:
            return tuple(l)
    return None


def naive_of(world, e):
    """The triples ``e`` is linked on either side, in first-link order."""
    return list(dict.fromkeys(tuple(l[:3]) for l in naive_links(world) if e in (l[0], l[2])))


def naive_state_of(world, e, at):
    found = []
    for l in naive_links(world):
        if not naive_active_at(l, at):
            continue
        from_p, kind, to_p = l[:3]
        if from_p == e:
            found.append(("out", kind, to_p))
        if to_p == e:
            found.append(("in", kind, from_p))
    return sorted(found, key=lambda s: (s[1], s[2], s[0]))


def naive_holds(world, pred, at):
    def side(ref, name):
        if isinstance(ref, Wildcard):
            return naive_is_descendant(world.registry, name, ref.utype)
        return ref == name

    found = any(
        l[1] == pred.kind and naive_active_at(l, at)
        and side(pred.from_ref, l[0]) and side(pred.to_ref, l[2])
        for l in naive_links(world)
    )
    return found if pred.exists else not found


def naive_b_ancestor(reg, e):
    return next(n for n in reg.parent_chain(e) if reg.lookup(n).layer is Layer.B)


def naive_failing_tier(world, from_p, kind, to_p):
    """0 when the link is valid, else the tier that rejects it."""
    reg, k = world.registry, world.kind(kind)
    if not (naive_is_descendant(reg, naive_b_ancestor(reg, from_p), k.domain_b)
            and naive_is_descendant(reg, naive_b_ancestor(reg, to_p), k.range_b)):
        return 1
    covered = any(
        d.kind == kind
        and naive_is_descendant(reg, from_p, d.from_u)
        and naive_is_descendant(reg, to_p, d.to_u)
        for d in world.declarations
    )
    return 0 if covered else 2


def naive_reason(world, from_p, kind, to_p):
    """The reason an invalid link's verdict gives: the first bound a B
    ancestor misses, else the universals no declaration covers."""
    reg, k = world.registry, world.kind(kind)
    for e, side, bound in ((from_p, "domain", k.domain_b), (to_p, "range", k.range_b)):
        b = naive_b_ancestor(reg, e)
        if not naive_is_descendant(reg, b, bound):
            return f"{side}: B ancestor of '{e}' is '{b}', which does not descend from '{bound}'"
    f_u, t_u = reg.parent_chain(from_p)[1], reg.parent_chain(to_p)[1]
    return f"no declaration covers '{from_p}' {kind} '{to_p}' (universals '{f_u}' / '{t_u}')"


def naive_batch_refusal(world, unlinks, links, at):
    """(error type, refused triple, message) for the first check a
    ``World.edit`` batch fails, in the documented order, or None when it
    passes."""
    seen = []
    for t in unlinks + links:
        if t in seen:
            return LinkEditError, t, f"link '{t[0]}' {t[1]} '{t[2]}' is edited twice in one batch"
        seen.append(t)
    for t in unlinks:
        active = naive_active_link(world, *t)
        if active is None or active[3] > at:
            return NoActiveLinkError, t, f"no active link '{t[0]}' {t[1]} '{t[2]}' at tick {at}"
    if world.trace and at < world.trace[-1].at:
        return TickOrderError, None, f"tick {at} is before the last recorded tick {world.trace[-1].at}"
    for t in links:
        tier = naive_failing_tier(world, *t)
        if naive_active_link(world, *t) is not None:
            return DuplicateActiveLinkError, t, f"link '{t[0]}' {t[1]} '{t[2]}' is already active"
        if tier == 1 or (tier == 2 and world.tier2_strict):
            error = InvalidLinkError if tier == 1 else Tier2UncoveredError
            return error, t, f"invalid link: {naive_reason(world, *t)}"
    return None


# ----------------------------------------------------------------------
# a universal tree three levels deep under B, with covered and uncovered
# pairs


UNIVERSALS = (
    ("Device", "B_Object"), ("Lamp", "Device"), ("Beacon", "Device"),
    ("FogLamp", "Lamp"),
    ("Color", "B_Quality"), ("Warm", "Color"), ("Cool", "Color"), ("Amber", "Warm"),
)
PARTICULARS = (
    ("lamp1", "Lamp"), ("lamp2", "Lamp"), ("fog1", "FogLamp"), ("beacon1", "Beacon"),
    ("red", "Warm"), ("amber", "Amber"), ("blue", "Cool"), ("grey", "Color"),
)


def universal_world(tier2_strict: bool) -> World:
    w = World(tier2_strict=tier2_strict)
    for name, parent in UNIVERSALS:
        w.registry.define_universal(name, parent)
    return w


def tree_world(tier2_strict: bool = False) -> World:
    w = universal_world(tier2_strict)
    reg = w.registry
    for name, u in PARTICULARS:
        reg.instantiate_particular(name, u)
    w.declare_u_relation("Lamp", "Has_Quality", "Warm")
    w.declare_u_relation("FogLamp", "Has_Quality", "Color")
    w.declare_u_relation("Device", "Continuant_Part_Of", "Device")
    return w


DEVICES = ("lamp1", "lamp2", "fog1", "beacon1")
COLORS = ("red", "amber", "blue", "grey")
TRIPLES = (
    [(d, "Has_Quality", c) for d in DEVICES for c in COLORS]
    + [(a, "Continuant_Part_Of", b) for a in DEVICES for b in DEVICES]
    + [("red", "Has_Quality", "lamp1")]  # tier-1 invalid: range is not a quality
)
PREDICATES = [
    StatePredicate(exists, f, k, t)
    for exists in (True, False)
    for f, k, t in (
        ("lamp1", "Has_Quality", "red"),
        ("fog1", "Has_Quality", Wildcard("Color")),
        ("lamp2", "Has_Quality", Wildcard("Warm")),
        (Wildcard("Lamp"), "Has_Quality", "amber"),
        (Wildcard("Device"), "Has_Quality", Wildcard("Warm")),
        (Wildcard("FogLamp"), "Has_Quality", Wildcard("Cool")),
        (Wildcard("Device"), "Continuant_Part_Of", Wildcard("Lamp")),
        ("beacon1", "Continuant_Part_Of", Wildcard("Device")),
        (Wildcard("Lamp"), "Continuant_Part_Of", "lamp1"),
        ("lamp1", "Continuant_Part_Of", Wildcard("Beacon")),
    )
]


ENTITIES = DEVICES + COLORS


def _store_snapshot(world):
    """What a refused edit must leave as it was: the trace (each event's
    seq its position, and every Link and Unlink event of a triple carrying
    the triple's one payload, a FrozenPayload of the triple built at its
    first Link), the warnings, the rows and entity index of the store and
    the payloads."""
    assert [e.seq for e in world.trace] == list(range(len(world.trace)))
    payloads = world._payloads
    assert payloads.keys() == world.spans.keys()
    for t, p in payloads.items():
        assert type(p) is FrozenPayload and p == {"from": t[0], "relation": t[1], "to": t[2]}, t
    for e in world.trace:
        if e.kind in ("Link", "Unlink"):
            assert e.payload is payloads[e.payload["from"], e.payload["relation"], e.payload["to"]]
    spans = {t: list(row) for t, row in world.spans.items()}
    of = {e: list(world.spans.of(e)) for e in ENTITIES}
    return list(world.trace), list(world.warnings), spans, of, dict(payloads)


def _check_current(world):
    for t in TRIPLES:
        assert world.active_link(*t) == naive_active_link(world, *t)
        res, tier = world.validate_link(*t), naive_failing_tier(world, *t)
        assert (res.valid, res.tier) == (not tier, tier), t
    # the store World.edit wrote is the one replay_spans rebuilds
    replayed = replay_spans(world.trace)
    assert type(replayed) is type(world.spans) and world.spans == replayed
    for e in ENTITIES:
        assert list(world.spans.of(e)) == list(replayed.of(e)) == naive_of(world, e), e


def _check_history(world, last_tick):
    reg = world.registry
    for at in range(last_tick + 2):
        for e in ENTITIES:
            got = [(s.direction, s.kind, s.counterpart) for s in world.state_of(e, at).links]
            assert got == naive_state_of(world, e, at), (e, at)
        for e in DEVICES:
            tic = world.tic_of(e, at)
            assert [(x.direction, x.kind, x.counterpart) for x in tic.entries] == naive_state_of(world, e, at)
        for pred in PREDICATES:
            assert pred.holds(world, at) == naive_holds(world, pred, at), (pred.render(), at)
    for a in reg.entities():
        for b in reg.entities():
            assert reg.is_descendant(a.name, b.name) == naive_is_descendant(reg, a.name, b.name)


def _history(pool):
    op = st.sampled_from(("link", "unlink"))
    triples = [TRIPLES[i] for i in pool]
    triple = st.sampled_from(triples)
    step = st.integers(min_value=-2, max_value=3)  # tick step; negative goes backwards
    # one World.edit of 2-4 edits: distinct triples (fewer if the pool is
    # smaller), or any, which may name one triple twice
    ops = st.lists(op, min_size=2, max_size=4)
    batch = (st.tuples(ops, st.permutations(triples)).map(lambda p: list(zip(*p)))
             | st.lists(st.tuples(op, triple), min_size=2, max_size=4))
    return st.lists(st.tuples(op, triple, step) | st.tuples(st.just("batch"), batch, step), max_size=40)


# A few triples per history, so most histories relink a triple several
# times and past-tick reads have to find a span before the last.
HISTORIES = st.lists(
    st.integers(min_value=0, max_value=len(TRIPLES) - 1), min_size=1, max_size=5, unique=True
).flatmap(_history)


def _edit_batch(w, edits, at) -> bool:
    """Apply ``edits`` as one ``World.edit`` and check it against the naive
    refusal, message text included; True when it is accepted. A refused
    batch changes nothing; an accepted one leaves what its edits leave one
    at a time, unlinks first."""
    unlinks = [t for op, t in edits if op == "unlink"]
    links = [t for op, t in edits if op == "link"]
    expected = naive_batch_refusal(w, unlinks, links, at)
    before = _store_snapshot(w)
    ref = copy.deepcopy(w)
    try:
        w.edit(unlinks, links, at)
    except XfoError as exc:
        assert (type(exc), getattr(exc, "triple", None), str(exc)) == expected, (edits, at, exc)
        assert _store_snapshot(w) == before
        return False
    assert expected is None, (edits, at)
    # one warning per written link that no declaration covers
    uncovered = sum(naive_failing_tier(w, *t) == 2 for t in links)
    assert len(w.warnings) == len(ref.warnings) + uncovered
    for t in unlinks:
        ref.edit([t], (), at)
    for t in links:
        ref.edit((), [t], at)
    assert (_store_snapshot(w), w.trace) == (_store_snapshot(ref), ref.trace)
    return True


# a batch whose unlink passes and whose link is refused after it: the
# unlink's row must be left open
@example([("link", TRIPLES[0], 0), ("link", TRIPLES[1], 0),
          ("batch", [("unlink", TRIPLES[0]), ("link", TRIPLES[1])], 1),
          ("batch", [("unlink", TRIPLES[0]), ("link", TRIPLES[-1])], 1)], False)
@given(HISTORIES, st.booleans())
@settings(max_examples=80, deadline=None)
def test_indexed_store_matches_naive_scans(ops, tier2_strict):
    w = tree_world(tier2_strict)
    tick = 2
    for op, triple, step in ops:
        at = tick + step
        if op == "batch":  # ``triple`` holds the batch's (op, triple) edits
            tick = at if _edit_batch(w, triple, at) else tick
            _check_current(w)
            continue
        before = _store_snapshot(w)
        backwards = bool(w.trace) and at < w.trace[-1].at
        active = naive_active_link(w, *triple)
        if op == "link":
            expected = (TickOrderError if backwards else
                        DuplicateActiveLinkError if active is not None else
                        InvalidLinkError if naive_failing_tier(w, *triple) == 1 else None)
            if expected is None and tier2_strict and naive_failing_tier(w, *triple) == 2:
                expected = Tier2UncoveredError
        else:
            expected = (NoActiveLinkError if active is None or active[3] > at else
                        TickOrderError if backwards else None)
        try:
            w.edit((), [triple], at) if op == "link" else w.edit([triple], (), at)
        except XfoError as exc:
            assert type(exc) is expected, (op, triple, at, exc)
            assert _store_snapshot(w) == before
        else:
            assert expected is None, (op, triple, at)
            tick = at
        _check_current(w)
    _check_history(w, tick)
    # the trace the store wrote always parses: ticks never decrease
    parse_trace(trace_to_json("m", "s", tick + 1, w.trace))


@pytest.mark.parametrize("model,scenario", SHIPPED_RUNS, ids=[s for _, s in SHIPPED_RUNS])
def test_a_shipped_run_stores_what_its_trace_file_replays(model, scenario, tmp_path):
    """The store ``World.edit`` wrote and the one ``parse_trace`` builds
    from the written trace file: the same rows, the same entity index."""
    world, _, scen = run_scenario(model, scenario)
    path = tmp_path / "run.trace.json"
    with path.open("w", encoding="utf-8") as f:
        f.writelines(trace_parts(world.model_name, scen.name, scen.horizon, world.trace))
    doc = parse_trace(path.read_text(encoding="utf-8"))
    spans = doc.spans
    assert type(spans) is type(world.spans) and spans == world.spans == replay_spans(doc.events) and spans
    particulars = [e.name for e in world.registry.entities() if e.layer is Layer.P]
    assert {p: list(spans.of(p)) for p in particulars} == {p: list(world.spans.of(p)) for p in particulars}


# ----------------------------------------------------------------------
# reads of the store: one per edited triple


class _CountingStore(SpanStore):
    """A SpanStore that counts the reads of its rows."""

    def __init__(self) -> None:
        super().__init__()
        self.reads = 0

    def get(self, triple, default=None):
        self.reads += 1
        return super().get(triple, default)

    def __getitem__(self, triple):
        self.reads += 1
        return super().__getitem__(triple)

    def __contains__(self, triple):
        self.reads += 1
        return super().__contains__(triple)


def _count_validations(monkeypatch) -> list:
    calls = []
    validate = World.validate_link
    monkeypatch.setattr(World, "validate_link", lambda self, *t: calls.append(t) or validate(self, *t))
    return calls


@pytest.mark.parametrize("n_unlinks,n_relinks,n_new", [(1, 0, 0), (0, 0, 1), (0, 1, 0), (2, 1, 1), (3, 0, 2)])
def test_an_edit_reads_each_triple_once(n_unlinks, n_relinks, n_new, monkeypatch):
    """An edit of u unlinks and l links, a link of a triple linked before
    or of a new one, reads the store u + l times and validates l links."""
    w = tree_world()
    w.spans = _CountingStore()
    active, ended, new = TRIPLES[:3], TRIPLES[4:6], TRIPLES[8:10]
    w.edit((), [*active, *ended], 1)
    w.edit(ended, (), 2)
    unlinks, links = active[:n_unlinks], [*ended[:n_relinks], *new[:n_new]]
    reads, calls = w.spans.reads, _count_validations(monkeypatch)
    w.edit(unlinks, links, 3)
    assert w.spans.reads - reads == len(unlinks) + len(links)
    assert calls == links
    assert w.spans == replay_spans(w.trace)


@pytest.mark.parametrize("model,scenario", SHIPPED_RUNS, ids=[s for _, s in SHIPPED_RUNS])
def test_a_shipped_run_reads_the_store_once_per_link_event(model, scenario, monkeypatch):
    """Over a shipped run, each accepted edit of u unlinks and l links
    reads the store u + l times and validates l links, so the store is
    read once per Link or Unlink event written."""
    world = load_world(model)
    world.spans = _CountingStore()
    scen = load_shipped_scenario(world, scenario)
    reads, calls, edit = [], _count_validations(monkeypatch), World.edit

    def counted(self, unlinks, links, at):
        before, validated = self.spans.reads, len(calls)
        edit(self, unlinks, links, at)
        reads.append(self.spans.reads - before)  # an accepted edit's reads
        assert (reads[-1], len(calls) - validated) == (len(unlinks) + len(links), len(links))

    monkeypatch.setattr(World, "edit", counted)
    load_scenario(world, scen).run_until(scen.horizon)
    assert reads and sum(reads) == len(link_events(world.trace))


# ----------------------------------------------------------------------
# ticks that go backwards, or past the horizon


def test_relink_before_last_tick_is_rejected():
    """Relinking at a tick before the last unlink used to record a
    second span overlapping the first and a trace that fails parse_trace."""
    w = tree_world()
    w.edit((), [("lamp1", "Has_Quality", "red")], 5)
    w.edit([("lamp1", "Has_Quality", "red")], (), 7)
    before = _store_snapshot(w)
    with pytest.raises(TickOrderError) as exc:
        w.edit((), [("lamp1", "Has_Quality", "red")], 3)
    assert isinstance(exc.value, XfoError) and exc.value.code == "E_TICK_ORDER"
    assert _store_snapshot(w) == before
    assert [(s.kind, s.counterpart) for s in w.state_of("lamp1", 6).links] == [("Has_Quality", "red")]
    parse_trace(trace_to_json("m", "s", 10, w.trace))


def test_backwards_unlink_and_warning_are_rejected_untouched():
    w = tree_world()
    w.edit((), [("lamp1", "Has_Quality", "red")], 2)
    w.edit((), [("lamp2", "Has_Quality", "red")], 4)
    before = _store_snapshot(w)
    with pytest.raises(TickOrderError):
        w.edit([("lamp1", "Has_Quality", "red")], (), 3)
    # uncovered in warn mode: the tick check comes before the warning
    with pytest.raises(TickOrderError):
        w.edit((), [("beacon1", "Has_Quality", "blue")], 1)
    assert _store_snapshot(w) == before
    # an unlink before the link's own start is still "no active link"
    with pytest.raises(NoActiveLinkError):
        w.edit([("lamp2", "Has_Quality", "red")], (), 3)
    w.edit([("lamp1", "Has_Quality", "red")], (), 4)  # same tick as the last event


def test_a_loaded_world_refuses_writes_past_its_horizon():
    """An edit or event after ``run_until(horizon)`` dated past the horizon
    used to be accepted, and the trace then failed parse_trace."""
    world, _, scen = run_scenario("traffic.xfo", "traffic_desk.xws")
    active = next(t for t, row in world.spans.items() if row[-1][1] is None)
    before = _store_snapshot(world)
    with pytest.raises(TickOrderError, match="tick 13 is past the horizon 12"):
        world.edit([active], (), scen.horizon + 1)
    with pytest.raises(TickOrderError, match="tick 13 is past the horizon 12"):
        world.record("Interrupt", scen.horizon + 1, {"run": 0})
    assert _store_snapshot(world) == before
    world.edit([active], (), scen.horizon)  # the horizon's own tick is still open
    parse_trace(trace_to_json(world.model_name, scen.name, scen.horizon, world.trace))


# ----------------------------------------------------------------------
# the verdict memo against the uncached verdict

MEMO_KINDS = ("Has_Quality", "Continuant_Part_Of", "Lit_By", "Mounted_On")
MEMO_TRIPLES = [
    (f, k, t) for f in ("lamp1", "fog1", "beacon1") for k in MEMO_KINDS
    for t in ("lamp1", "fog1", "beacon1", "red", "amber", "blue")
] + [("red", "Has_Quality", "lamp1")]
_DEVICE_U, _COLOR_U = ("Device", "Lamp", "FogLamp", "Beacon"), ("Color", "Warm", "Cool", "Amber")
MEMO_DECLARATIONS = (
    [(d, k, c) for d in _DEVICE_U for k in ("Has_Quality", "Lit_By") for c in _COLOR_U]
    + [(d, k, e) for d in _DEVICE_U for k in ("Continuant_Part_Of", "Mounted_On") for e in _DEVICE_U]
    + [("Warm", "Has_Quality", "Lamp")]  # tier-1 mismatch
)
# Histories start with four of the six particulars. Each op may be refused
# (an unknown name or kind, a duplicate, a tier-1 mismatch); a link's
# refusal is checked, the others' only suppressed.
MEMO_HISTORIES = st.lists(
    st.tuples(st.just("declare"), st.sampled_from(MEMO_DECLARATIONS))
    | st.tuples(st.just("kind"), st.sampled_from([
        ("Lit_By", "B_Object", "B_Quality"), ("Mounted_On", "B_Object", "B_Object"),
        ("Lit_By", "B_Object", "B_Object")]))
    | st.tuples(st.just("particular"), st.sampled_from([("fog1", "FogLamp"), ("amber", "Amber")]))
    | st.tuples(st.just("link"), st.sampled_from(MEMO_TRIPLES)),
    max_size=40,
)


def _outcome(tier, triple):
    """The failing tier (0 when valid), or the type of the error raised."""
    try:
        return tier(*triple)
    except XfoError as exc:
        return type(exc)


@given(MEMO_HISTORIES, st.booleans())
@settings(max_examples=100, deadline=None)
def test_verdict_memo_matches_uncached_verdicts(ops, tier2_strict):
    """Declarations, kinds, particulars and links between verdicts: after
    every op, each triple's verdict equals the uncached one, and a second
    read of every verdict computes nothing."""
    w = universal_world(tier2_strict)
    for name, u in (("lamp1", "Lamp"), ("beacon1", "Beacon"), ("red", "Warm"), ("blue", "Cool")):
        w.registry.instantiate_particular(name, u)

    def tier(*t):
        res = w.validate_link(*t)
        return 0 if res.valid else res.tier

    def naive(*t):  # as validate_link: an unknown name raises before any tier
        w.kind(t[1])
        w.registry.lookup(t[0]), w.registry.lookup(t[2])
        return naive_failing_tier(w, *t)

    for at, (op, arg) in enumerate(ops):
        if op == "link":
            verdict = _outcome(naive, arg)
            expected = (DuplicateActiveLinkError if naive_active_link(w, *arg) is not None else
                        InvalidLinkError if verdict == 1 else
                        Tier2UncoveredError if verdict == 2 and tier2_strict else
                        None if verdict in (0, 2) else verdict)
            try:
                w.edit((), [arg], at)
            except XfoError as exc:
                assert type(exc) is expected, (arg, exc)
            else:
                assert expected is None, arg
        else:
            write = {"declare": w.declare_u_relation, "kind": w.declare_relation_kind,
                     "particular": w.registry.instantiate_particular}[op]
            with suppress(XfoError):
                write(*arg)
        for t in MEMO_TRIPLES:
            assert _outcome(tier, t) == _outcome(naive, t), (op, arg, t)
        computed = w.verdicts_computed
        for t in MEMO_TRIPLES:
            _outcome(tier, t)
        assert w.verdicts_computed == computed


def test_a_new_cover_admits_a_link_refused_for_tier_2():
    """The refused verdict is memoised; the covering declaration clears it."""
    w = tree_world(tier2_strict=True)
    t = ("beacon1", "Has_Quality", "blue")
    with pytest.raises(Tier2UncoveredError):
        w.edit((), [t], 1)
    w.declare_u_relation("Device", "Has_Quality", "Cool")
    w.edit((), [t], 2)
    assert w.active_link(*t).start == 2
    assert w.verdicts_computed == 2
