"""Relation kinds, two-tier validation, links, state and TICs."""
from __future__ import annotations

import pytest

from xfo.errors import (
    BadBoundError,
    DuplicateActiveLinkError,
    DuplicateNameError,
    InvalidLinkError,
    InvalidNameError,
    NoActiveLinkError,
    NotIndependentContinuantError,
    SignatureMismatchError,
    Tier2UncoveredError,
    UnknownEntityError,
    UnknownKindError,
    XfoError,
)
from xfo.ontology import Layer, SourceSpan
from xfo.relations import BUILTIN_KINDS, RelationDeclaration, RelationKind, TicEntry, World

from helpers import SHIPPED_RUNS, load_world, run_scenario


@pytest.fixture
def pottery_world():
    w = World()
    reg = w.registry
    reg.define_universal("Pottery", "B_Object")
    reg.define_universal("Firing", "B_Process")
    reg.define_universal("BiscuitFiring", "Firing")
    reg.define_universal("Driving", "B_Process")
    reg.define_universal("Color", "B_Quality")
    reg.instantiate_particular("pot1", "Pottery")
    reg.instantiate_particular("firing7", "BiscuitFiring")
    reg.instantiate_particular("drive1", "Driving")
    reg.instantiate_particular("green", "Color")
    return w


def test_builtin_signatures():
    sigs = {(k.name, k.domain_b, k.range_b) for k in BUILTIN_KINDS}
    assert sigs == {
        ("Participates_In", "B_IndependentContinuant", "B_Occurrent"),
        ("Continuant_Part_Of", "B_Continuant", "B_Continuant"),
        ("Has_Quality", "B_IndependentContinuant", "B_Quality"),
        ("Has_Role", "B_IndependentContinuant", "B_Role"),
    }
    assert all(k.builtin for k in BUILTIN_KINDS)


def test_declare_relation_kind(pottery_world):
    w = pottery_world
    k = w.declare_relation_kind("Employed_By", "B_Object", "B_ObjectAggregate")
    assert not k.builtin
    # the kind reifies as a U entity under B_RelationalQuality
    e = w.registry.lookup("Employed_By")
    assert e.layer is Layer.U and e.parent == "B_RelationalQuality"
    with pytest.raises(DuplicateNameError):
        w.declare_relation_kind("Has_Quality", "B_Object", "B_Quality")
    with pytest.raises(BadBoundError):
        w.declare_relation_kind("Bad", "Pottery", "B_Quality")  # U-layer bound
    with pytest.raises(BadBoundError):
        w.declare_relation_kind("Bad2", "B_Object", "Nope")
    with pytest.raises(DuplicateNameError):
        w.declare_relation_kind("Pottery", "B_Object", "B_Object")  # entity collision


@pytest.mark.parametrize("name", ["9x", "has space", ""])
def test_declare_relation_kind_refuses_an_invalid_name(pottery_world, name):
    """The DSL's name token never gives such a name; only the Python API
    can, and the kind's own check refuses it before anything is reified."""
    w = pottery_world
    with pytest.raises(InvalidNameError) as info:
        w.declare_relation_kind(name, "B_Object", "B_Quality")
    assert str(info.value) == f"invalid relation kind name '{name}'"
    assert name not in w.kinds and name not in w.registry


def test_declare_u_relation(pottery_world):
    w = pottery_world
    w.declare_u_relation("Pottery", "Participates_In", "BiscuitFiring")
    w.declare_u_relation("Pottery", "Participates_In", "Firing")  # supertype range
    with pytest.raises(SignatureMismatchError) as exc:
        w.declare_u_relation("Color", "Participates_In", "Firing")
    assert "B_Quality" in str(exc.value)  # names the offending B ancestor
    with pytest.raises(SignatureMismatchError):
        w.declare_u_relation("pot1", "Participates_In", "Firing")  # P participant
    with pytest.raises(UnknownKindError):
        w.declare_u_relation("Pottery", "Nope", "Firing")
    with pytest.raises(UnknownEntityError):
        w.declare_u_relation("Missing", "Participates_In", "Firing")


def test_declare_u_relation_deduplicates(pottery_world):
    w = pottery_world
    w.declare_u_relation("Pottery", "Participates_In", "Firing")
    w.declare_u_relation("Pottery", "Participates_In", "Firing")
    assert len(w.declarations) == 1


def test_declare_and_declare_kind_store_the_object_itself(pottery_world):
    w = pottery_world
    span = SourceSpan("m.xfo", 4, 1, 8)
    k = RelationKind("Fired_In", "B_Object", "B_Occurrent", span=span)
    assert w.declare_kind(k) is k and w.kinds["Fired_In"] is k
    d = RelationDeclaration("Pottery", "Fired_In", "Firing", span=span)
    assert w.declare(d) is d and w.declarations == [d] and w.declarations[0] is d
    # an equal declaration adds nothing: the first one stays
    again = RelationDeclaration("Pottery", "Fired_In", "Firing")
    assert w.declare(again) is again and w.declarations[0] is d and len(w.declarations) == 1
    # the span stays out of equality, hashing and repr
    assert d == again and hash(d) == hash(again)
    assert repr(d) == "RelationDeclaration(from_u='Pottery', kind='Fired_In', to_u='Firing')"
    assert repr(k) == "RelationKind(name='Fired_In', domain_b='B_Object', range_b='B_Occurrent', builtin=False)"
    assert k == RelationKind("Fired_In", "B_Object", "B_Occurrent")


def test_declare_refuses_what_declare_u_relation_refuses(pottery_world):
    w = pottery_world
    for args in [("Color", "Participates_In", "Firing"), ("pot1", "Participates_In", "Firing"),
                 ("Pottery", "Nope", "Firing"), ("Missing", "Participates_In", "Firing")]:
        errors = []
        for call in (lambda: w.declare(RelationDeclaration(*args)), lambda: w.declare_u_relation(*args)):
            with pytest.raises(XfoError) as info:
                call()
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1], args
    assert w.declarations == []


def test_validate_link_two_tiers(pottery_world):
    w = pottery_world
    w.declare_u_relation("Pottery", "Participates_In", "Firing")
    # covered: firing7's universal descends from Firing
    assert w.validate_link("pot1", "Participates_In", "firing7").valid
    # tier-2 rejection: no Pottery/Driving declaration
    res = w.validate_link("pot1", "Participates_In", "drive1")
    assert not res.valid and res.tier == 2
    # tier-1 rejection: a quality cannot participate
    res = w.validate_link("green", "Participates_In", "firing7")
    assert not res.valid and res.tier == 1
    # non-P participant is invalid, not an exception
    assert not w.validate_link("Pottery", "Participates_In", "firing7").valid
    with pytest.raises(UnknownEntityError):
        w.validate_link("ghost", "Participates_In", "firing7")
    with pytest.raises(UnknownKindError):
        w.validate_link("pot1", "Ghost_Kind", "firing7")


def test_link_unlink_lifecycle(pottery_world):
    w = pottery_world
    w.declare_u_relation("Pottery", "Participates_In", "Firing")
    t = ("pot1", "Participates_In", "firing7")
    assert w.edit((), [t], 0) is None
    assert w.active_link(*t) == (*t, 0, None) and w.spans.active(t) == (0, None)
    with pytest.raises(DuplicateActiveLinkError):
        w.edit((), [t], 1)
    w.edit([t], (), 2)
    assert w.active_link(*t) is None and w.spans[t] == [(0, 2)]  # span [0, 2)
    assert [w.spans.at(t, at) for at in range(3)] == [(0, 2), (0, 2), None]
    # relinking later opens a second span
    w.edit((), [t], 5)
    assert w.spans[t] == [(0, 2), (5, None)] and w.active_link(*t).start == 5
    with pytest.raises(NoActiveLinkError):
        w.edit([("pot1", "Participates_In", "firing7")], (), 4)  # before start
    with pytest.raises(NoActiveLinkError):
        w.edit([("green", "Participates_In", "firing7")], (), 5)  # never linked
    with pytest.raises(InvalidLinkError):
        w.edit((), [("pot1", "Participates_In", "drive1")], 5)


def test_link_events_recorded(pottery_world):
    w = pottery_world
    w.declare_u_relation("Pottery", "Participates_In", "Firing")
    w.edit((), [("pot1", "Participates_In", "firing7")], 0)
    w.edit([("pot1", "Participates_In", "firing7")], (), 3)
    kinds = [(e.kind, e.at) for e in w.trace]
    assert kinds == [("Link", 0), ("Unlink", 3)]
    assert w.trace[0].payload == {"from": "pot1", "relation": "Participates_In", "to": "firing7"}


def test_tier2_warn_mode(pottery_world):
    w = pottery_world
    w.tier2_strict = False
    w.edit((), [("pot1", "Participates_In", "drive1")], 0)  # uncovered, allowed
    assert len(w.warnings) == 1 and "no declaration covers" in w.warnings[0]
    # tier-1 failures still raise in warn mode
    with pytest.raises(InvalidLinkError):
        w.edit((), [("green", "Participates_In", "firing7")], 0)
    w.tier2_strict = True
    with pytest.raises(Tier2UncoveredError):
        w.edit((), [("pot1", "Participates_In", "firing7")], 1)


def test_state_of(pottery_world):
    w = pottery_world
    w.declare_u_relation("Pottery", "Participates_In", "Firing")
    w.declare_u_relation("Pottery", "Has_Quality", "Color")
    w.edit((), [("pot1", "Participates_In", "firing7")], 1)
    w.edit((), [("pot1", "Has_Quality", "green")], 2)
    w.edit([("pot1", "Participates_In", "firing7")], (), 4)
    assert w.state_of("pot1", 0).links == ()
    got = [(s.direction, s.kind, s.counterpart) for s in w.state_of("pot1", 2).links]
    assert got == [("out", "Has_Quality", "green"), ("out", "Participates_In", "firing7")]
    got = [(s.direction, s.kind, s.counterpart) for s in w.state_of("pot1", 4).links]
    assert got == [("out", "Has_Quality", "green")]
    # counterpart sees the in-direction
    got = [(s.direction, s.kind, s.counterpart) for s in w.state_of("firing7", 2).links]
    assert got == [("in", "Participates_In", "pot1")]
    with pytest.raises(UnknownEntityError):
        w.state_of("ghost", 0)


def test_temporal_coherence(pottery_world):
    w = pottery_world
    w.declare_u_relation("Pottery", "Participates_In", "Firing")
    w.edit((), [("pot1", "Participates_In", "firing7")], 0)
    w.edit([("pot1", "Participates_In", "firing7")], (), 3)
    w.edit((), [("pot1", "Participates_In", "firing7")], 5)
    t = ("pot1", "Participates_In", "firing7")
    assert w.spans == {t: [(0, 3), (5, None)]}
    assert w.links == [(*t, 0, 3), (*t, 5, None)]
    for at in range(8):
        expected = (0, 3) if at < 3 else (5, None) if at >= 5 else None
        assert w.spans.at(t, at) == expected


def test_tic_of_universal(pottery_world):
    w = pottery_world
    w.declare_u_relation("Pottery", "Participates_In", "Firing")
    tic = w.tic_of("Pottery")
    assert [(e.direction, e.kind, e.counterpart) for e in tic.entries] == [
        ("out", "Participates_In", "Firing")
    ]
    # inherited by U children through the lineage walk
    w.registry.define_universal("CeladonWare", "Pottery")
    tic = w.tic_of("CeladonWare")
    assert tic.entries[0].counterpart == "Firing" and tic.entries[0].via == "Pottery"
    with pytest.raises(NotIndependentContinuantError):
        w.tic_of("BiscuitFiring")  # occurrent


def test_tic_of_particular(pottery_world):
    w = pottery_world
    w.declare_u_relation("Pottery", "Participates_In", "Firing")
    w.edit((), [("pot1", "Participates_In", "firing7")], 1)
    tic = w.tic_of("pot1", 1)
    assert [(e.direction, e.kind, e.counterpart) for e in tic.entries] == [
        ("out", "Participates_In", "firing7")
    ]
    with pytest.raises(XfoError):
        w.tic_of("pot1")  # a tick is required for particulars


@pytest.mark.parametrize("model,scenario", SHIPPED_RUNS)
def test_state_of_and_tic_of_share_one_row_record_and_one_order(model, scenario):
    """A particular's TIC at a tick holds exactly its state's rows, link
    rows with no ``via``; those rows and the U view's are in one order."""
    world, _sim, scen = run_scenario(model, scenario)
    reg = world.registry
    key = lambda e: (e.kind, e.counterpart, e.direction)
    for ent in reg.entities():
        if not reg.is_descendant(ent.name, "B_IndependentContinuant"):
            continue
        if ent.layer is not Layer.P:
            entries = world.tic_of(ent.name).entries
            assert list(entries) == sorted(entries, key=key)
            continue
        for at in range(scen.horizon + 1):
            links = world.state_of(ent.name, at).links
            assert world.tic_of(ent.name, at).entries == links
            assert all(type(r) is TicEntry and r.via is None for r in links)
            assert list(links) == sorted(links, key=key)


def test_tic_in_direction_from_scenario():
    world, _sim, _scen = run_scenario("traffic.xfo", "traffic_desk.xws", until=3)
    tic = world.tic_of("lightA", 3)
    part_of = [(e.direction, e.counterpart) for e in tic.entries if e.kind == "Continuant_Part_Of"]
    assert part_of == [("in", "lampA_green"), ("in", "lampA_red"), ("in", "lampA_yellow")]


def test_substitutability_across_continuant_subtypes():
    """Part-of accepts every Continuant subtype pair without special cases."""
    w = World()
    reg = w.registry
    continuants = [n for n, _ in (
        ("B_Continuant", 0), ("B_IndependentContinuant", 0), ("B_MaterialEntity", 0),
        ("B_Object", 0), ("B_ObjectAggregate", 0), ("X_Substance", 0),
        ("B_DependentContinuant", 0), ("B_Quality", 0), ("B_RelationalQuality", 0),
        ("B_Role", 0),
    )]
    for b in continuants:
        reg.define_universal(f"U_{b}", b)
        reg.instantiate_particular(f"p_{b}", f"U_{b}")
    for dom in continuants:
        for ran in continuants:
            w.declare_u_relation(f"U_{dom}", "Continuant_Part_Of", f"U_{ran}")
            assert w.validate_link(f"p_{dom}", "Continuant_Part_Of", f"p_{ran}").valid
    # occurrents are rejected by the same code path
    reg.define_universal("U_Proc", "B_Process")
    reg.instantiate_particular("p_proc", "U_Proc")
    with pytest.raises(SignatureMismatchError):
        w.declare_u_relation("U_Proc", "Continuant_Part_Of", "U_B_Object")
    res = w.validate_link("p_proc", "Continuant_Part_Of", "p_B_Object")
    assert not res.valid and res.tier == 1


def test_declaration_inheritance_property(pottery_world):
    """Declarations cover all descendant particulars (tier-2 inheritance)."""
    w = pottery_world
    w.declare_u_relation("Pottery", "Participates_In", "Firing")
    w.registry.define_universal("GlostFiring", "Firing")
    w.registry.define_universal("StonewarePottery", "Pottery")
    w.registry.instantiate_particular("pot9", "StonewarePottery")
    w.registry.instantiate_particular("glost3", "GlostFiring")
    assert w.validate_link("pot9", "Participates_In", "glost3").valid


def test_shipped_models_load_clean():
    for model in ("traffic.xfo", "school.xfo", "celadon.xfo"):
        load_world(model)


def test_tier1_admits_undeclared_but_well_typed_pairs():
    """Pottery Participates_In Driving is a legal declaration (tier 1);
    only undeclared particular links are rejected, at tier 2."""
    w = load_world("celadon.xfo")
    w.declare_u_relation("Pottery", "Participates_In", "Driving")
    assert w.validate_link("pot1", "Participates_In", "drive1").valid


def test_stored_declarations_and_links_stay_sound():
    """Re-checking everything a loaded-and-run world stored never fails."""
    for model, scen in (("traffic.xfo", "traffic_desk.xws"),
                        ("school.xfo", "school_hire.xws"),
                        ("celadon.xfo", "celadon_run.xws")):
        world, _, _ = run_scenario(model, scen)
        for d in list(world.declarations):
            world.declare_u_relation(d.from_u, d.kind, d.to_u)  # still tier-1 valid
        for l in world.links:
            assert world.validate_link(l.from_p, l.kind, l.to_p).valid
