"""The U view of ``World.tic_of`` against a scan of every declaration.

``naive_tic_of`` is the reference: it walks the parent chain and reads
the whole declaration list, exactly as ``tic_of`` did before declarations
were indexed by universal.
"""
from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from xfo.errors import SignatureMismatchError
from xfo.relations import TicEntry, World


def naive_tic_of(world, e):
    lineage = world.registry.parent_chain(e)
    entries = []
    for d in world.declarations:
        if d.from_u in lineage:
            entries.append(TicEntry("out", d.kind, d.to_u, via=d.from_u))
        if d.to_u in lineage:
            entries.append(TicEntry("in", d.kind, d.from_u, via=d.to_u))
    entries.sort(key=lambda t: (t.kind, t.counterpart, t.direction))
    return tuple(entries)


# Near relates any two entities, so most drawn declarations pass tier 1;
# the built-in kinds refuse some, which must leave the index unchanged.
KINDS = ("Near", "Continuant_Part_Of", "Has_Quality", "Participates_In")
B_PARENTS = ("B_Object", "B_ObjectAggregate", "B_Quality", "B_Role", "B_Process")
# B-layer Independent Continuants: their U view reads no declaration
B_ICS = ("B_IndependentContinuant", "B_Object")


@st.composite
def models(draw):
    """(parent of each universal U<i>, declarations as (from i, kind, to i))."""
    n = draw(st.integers(min_value=1, max_value=6))
    parents = [draw(st.sampled_from(B_PARENTS + tuple(f"U{j}" for j in range(i))))
               for i in range(n)]
    u = st.integers(min_value=0, max_value=n - 1)
    return parents, draw(st.lists(st.tuples(u, st.sampled_from(KINDS), u), max_size=25))


@given(models())
@settings(max_examples=150, deadline=None)
# U2 is_a U1 is_a U0; U3 a quality. U1, U0 and U2 declare Near U3 in that
# order (a tie on kind and counterpart); U0 declares itself; U1 Near U3 is
# declared again; each declaration after the first follows tic_of calls.
@example((["B_Object", "U0", "U1", "B_Quality"],
          [(1, "Near", 3), (0, "Near", 3), (2, "Near", 3), (0, "Near", 0),
           (1, "Near", 3), (3, "Near", 2), (2, "Has_Quality", 3)]))
def test_tic_of_matches_the_declaration_scan(model):
    parents, decls = model
    w = World()
    w.declare_relation_kind("Near", "B_Entity", "B_Entity")
    names = [f"U{i}" for i in range(len(parents))]
    for name, parent in zip(names, parents):
        w.registry.define_universal(name, parent)
    ics = [e for e in names + list(B_ICS)
           if "B_IndependentContinuant" in w.registry.parent_chain(e)]
    for f, kind, t in decls:
        try:
            w.declare_u_relation(names[f], kind, names[t])
        except SignatureMismatchError:
            pass
        for e in ics:
            assert w.tic_of(e).entries == naive_tic_of(w, e), e


def test_tied_entries_keep_declaration_order():
    """Entries equal in kind, counterpart and direction are listed in
    declaration order, not in lineage order."""
    w = World()
    reg = w.registry
    for name, parent in (("Device", "B_Object"), ("Lamp", "Device"), ("FogLamp", "Lamp"),
                         ("Color", "B_Quality")):
        reg.define_universal(name, parent)
    for u in ("Lamp", "FogLamp", "Device", "Lamp"):
        w.declare_u_relation(u, "Has_Quality", "Color")
    w.declare_u_relation("Device", "Continuant_Part_Of", "Device")
    assert [(t.direction, t.kind, t.counterpart, t.via) for t in w.tic_of("FogLamp").entries] == [
        ("in", "Continuant_Part_Of", "Device", "Device"),
        ("out", "Continuant_Part_Of", "Device", "Device"),
        ("out", "Has_Quality", "Color", "Lamp"),
        ("out", "Has_Quality", "Color", "FogLamp"),
        ("out", "Has_Quality", "Color", "Device"),
    ]
