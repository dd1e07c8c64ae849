"""Entity registry: bootstrap taxonomy, definitions, descent queries."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from xfo.errors import (
    BadParentError,
    DuplicateNameError,
    InvalidNameError,
    UnknownEntityError,
    UnknownParentError,
    XfoError,
)
from xfo.ontology import B_TAXONOMY, EntityDef, Layer, Registry, SourceSpan, bootstrap_b_taxonomy


def test_bootstrap_exact_tree():
    reg = bootstrap_b_taxonomy()
    assert len(reg) == 14
    got = {e.name: e.parent for e in reg.entities()}
    assert got == dict(B_TAXONOMY)
    assert all(e.layer is Layer.B for e in reg.entities())


def test_bootstrap_known_parents():
    reg = bootstrap_b_taxonomy()
    assert reg.lookup("B_Object").parent == "B_MaterialEntity"
    assert reg.lookup("B_Entity").parent is None
    assert reg.lookup("X_Substance").parent == "B_MaterialEntity"
    assert reg.lookup("X_Transitional").parent == "B_Occurrent"
    assert reg.lookup("B_RelationalQuality").parent == "B_Quality"


def test_bootstrap_idempotent():
    a = {(e.name, e.layer, e.parent) for e in bootstrap_b_taxonomy().entities()}
    b = {(e.name, e.layer, e.parent) for e in bootstrap_b_taxonomy().entities()}
    assert a == b


def test_define_universal():
    reg = bootstrap_b_taxonomy()
    pid = reg.define_universal("Pottery", "B_Object")
    assert pid == "Pottery"
    assert reg.lookup("Pottery").layer is Layer.U
    reg.define_universal("Firing", "B_Process")
    reg.define_universal("BiscuitFiring", "Firing")  # U under U
    assert reg.lookup("BiscuitFiring").parent == "Firing"


def test_define_universal_errors():
    reg = bootstrap_b_taxonomy()
    reg.define_universal("Pottery", "B_Object")
    with pytest.raises(DuplicateNameError):
        reg.define_universal("Pottery", "B_Object")
    with pytest.raises(BadParentError):
        reg.define_universal("X", "Nope")
    reg.instantiate_particular("pot1", "Pottery")
    with pytest.raises(BadParentError):
        reg.define_universal("Y", "pot1")  # P parent
    with pytest.raises(InvalidNameError):
        reg.define_universal("", "B_Object")
    with pytest.raises(InvalidNameError):
        reg.define_universal("has space", "B_Object")


def test_instantiate_particular():
    reg = bootstrap_b_taxonomy()
    reg.define_universal("TrafficLight", "B_Object")
    lid = reg.instantiate_particular("lightA", "TrafficLight")
    e = reg.lookup(lid)
    assert e.layer is Layer.P and e.parent == "TrafficLight"
    with pytest.raises(BadParentError):
        reg.instantiate_particular("x", "B_Object")  # B is not instantiable
    with pytest.raises(BadParentError):
        reg.instantiate_particular("y", "lightA")  # P is not instantiable
    with pytest.raises(DuplicateNameError):
        reg.instantiate_particular("lightA", "TrafficLight")


def pottery_registry() -> Registry:
    reg = bootstrap_b_taxonomy()
    reg.define_universal("Pottery", "B_Object")
    reg.instantiate_particular("pot1", "Pottery")
    return reg


# (layer, name, parent, error, message): each refusal of a definition,
# with the error class and message define_universal and
# instantiate_particular raise for it; the parent is checked before the name
REFUSALS = [
    (Layer.U, "9x", "B_Object", InvalidNameError, "invalid entity name '9x'"),
    (Layer.P, "has space", "Pottery", InvalidNameError, "invalid entity name 'has space'"),
    (Layer.U, "Pottery", "B_Object", DuplicateNameError, "entity name 'Pottery' already defined"),
    (Layer.P, "pot1", "Pottery", DuplicateNameError, "entity name 'pot1' already defined"),
    (Layer.P, "Pottery", "Pottery", DuplicateNameError, "entity name 'Pottery' already defined"),
    (Layer.U, "X", "Nope", UnknownParentError, "unknown parent 'Nope' for universal 'X'"),
    (Layer.U, "9x", "Nope", UnknownParentError, "unknown parent 'Nope' for universal '9x'"),
    (Layer.P, "x", "Nope", UnknownParentError, "unknown universal 'Nope' for particular 'x'"),
    (Layer.U, "Y", "pot1", BadParentError, "universal 'Y' cannot descend from particular 'pot1'"),
    (Layer.P, "p", "B_Object", BadParentError,
     "particular 'p' must instantiate a universal, not B-layer 'B_Object'"),
    (Layer.P, "p", "pot1", BadParentError,
     "particular 'p' must instantiate a universal, not P-layer 'pot1'"),
]


@pytest.mark.parametrize("layer,name,parent,error,message", REFUSALS)
def test_add_refuses_what_the_define_calls_refuse(layer, name, parent, error, message):
    define = "define_universal" if layer is Layer.U else "instantiate_particular"
    calls = {
        "add": lambda reg: reg.add(EntityDef(name, layer, parent)),
        define: lambda reg: getattr(reg, define)(name, parent),
    }
    for how, call in calls.items():
        reg = pottery_registry()
        before = reg.entities()
        with pytest.raises(error) as info:
            call(reg)
        assert (type(info.value), str(info.value)) == (error, message), how
        assert reg.entities() == before and all(a is b for a, b in zip(reg.entities(), before))


def test_add_stores_the_definition_itself():
    reg = pottery_registry()
    span = SourceSpan("m.xfo", 7, 3, 9)
    u = EntityDef("Vase", Layer.U, "Pottery", span=span)
    p = EntityDef("vase1", Layer.P, "Vase", span=span)
    assert reg.add(u) == "Vase" and reg.add(p) == "vase1"
    assert reg.lookup("Vase") is u and reg.lookup("vase1") is p
    assert reg.lookup("vase1").span is span
    assert reg.parent_chain("vase1") == ["vase1", "Vase", "Pottery", "B_Object",
                                         "B_MaterialEntity", "B_IndependentContinuant",
                                         "B_Continuant", "B_Entity"]


def test_add_refuses_a_b_layer_definition():
    reg = bootstrap_b_taxonomy()
    with pytest.raises(XfoError, match="B-layer entity 'B_Extra' cannot be defined"):
        reg.add(EntityDef("B_Extra", Layer.B, "B_Entity"))
    assert "B_Extra" not in reg and len(reg) == len(B_TAXONOMY)


def test_source_span_contract():
    span = SourceSpan("m.xfo", 3, 5, 9)
    assert str(span) == "m.xfo:3:5"
    assert repr(span) == "SourceSpan(file='m.xfo', line=3, column=5, length=9)"
    same = SourceSpan(file="m.xfo", line=3, column=5, length=9)
    assert span == same and hash(span) == hash(same)
    assert span != SourceSpan("m.xfo", 3, 5) and SourceSpan("m.xfo", 3, 5).length == 1
    # as its docstring says: a span equals a plain tuple of its values
    assert span == ("m.xfo", 3, 5, 9)
    for attr in ("file", "line", "column", "length"):
        with pytest.raises(AttributeError):
            setattr(span, attr, 1)
    with pytest.raises(AttributeError):
        span.other = 1
    assert span == same


def test_a_span_stays_out_of_definition_equality_hash_and_repr():
    spanned = EntityDef("Vase", Layer.U, "Pottery", span=SourceSpan("m.xfo", 7, 3, 9))
    plain = EntityDef("Vase", Layer.U, "Pottery")
    assert spanned == plain and hash(spanned) == hash(plain)
    assert repr(spanned) == repr(plain) == (
        "EntityDef(name='Vase', layer=<Layer.U: 'U'>, parent='Pottery')")


def test_is_descendant():
    reg = bootstrap_b_taxonomy()
    reg.define_universal("Firing", "B_Process")
    reg.define_universal("BiscuitFiring", "Firing")
    assert reg.is_descendant("BiscuitFiring", "B_Process")
    assert reg.is_descendant("BiscuitFiring", "B_Entity")
    assert not reg.is_descendant("B_Entity", "B_Object")
    assert reg.is_descendant("B_Object", "B_Object")  # reflexive
    with pytest.raises(UnknownEntityError):
        reg.is_descendant("Nope", "B_Entity")
    with pytest.raises(UnknownEntityError):
        reg.is_descendant("B_Entity", "Nope")


def test_b_ancestor():
    reg = bootstrap_b_taxonomy()
    reg.define_universal("Lamp", "B_Object")
    reg.instantiate_particular("lampA_green", "Lamp")
    reg.define_universal("Color", "B_Quality")
    reg.instantiate_particular("green", "Color")
    assert reg.b_ancestor("lampA_green") == "B_Object"
    assert reg.b_ancestor("green") == "B_Quality"
    assert reg.b_ancestor("B_Quality") == "B_Quality"  # B is its own ancestor
    with pytest.raises(UnknownEntityError):
        reg.b_ancestor("Nope")


def test_name_bijection():
    reg = bootstrap_b_taxonomy()
    reg.define_universal("Pottery", "B_Object")
    reg.instantiate_particular("pot1", "Pottery")
    for e in reg.entities():
        assert reg.lookup(e.name) is e


def test_parent_chain():
    reg = bootstrap_b_taxonomy()
    reg.define_universal("Pottery", "B_Object")
    reg.instantiate_particular("pot1", "Pottery")
    assert reg.parent_chain("pot1") == [
        "pot1", "Pottery", "B_Object", "B_MaterialEntity",
        "B_IndependentContinuant", "B_Continuant", "B_Entity",
    ]
    assert reg.parent_chain("B_Entity") == ["B_Entity"]


def _check_registry_invariants(reg: Registry):
    size = len(reg)
    order = {Layer.P: 0, Layer.U: 1, Layer.B: 2}
    for e in reg.entities():
        chain = reg.parent_chain(e.name)
        assert len(chain) <= size
        assert chain[-1] == "B_Entity"
        layers = [reg.lookup(n).layer for n in chain]
        ranks = [order[l] for l in layers]
        assert ranks == sorted(ranks), f"layer sequence broken along {chain}"
        assert sum(1 for l in layers if l is Layer.P) <= 1  # P never nests
        # the cached lineage agrees with a fresh parent-chain walk
        assert reg.ancestors(e.name) == frozenset(chain)
        assert reg.b_ancestor(e.name) == next(n for n, l in zip(chain, layers) if l is Layer.B)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_random_definitions_keep_invariants(data):
    reg = bootstrap_b_taxonomy()
    universals = [name for name, _ in B_TAXONOMY]
    instantiable: list[str] = []
    n = data.draw(st.integers(min_value=1, max_value=40))
    for i in range(n):
        if instantiable and data.draw(st.booleans()):
            parent = data.draw(st.sampled_from(instantiable))
            reg.instantiate_particular(f"p{i}", parent)
        else:
            parent = data.draw(st.sampled_from(universals))
            reg.define_universal(f"u{i}", parent)
            universals.append(f"u{i}")
            instantiable.append(f"u{i}")
        if data.draw(st.booleans()):
            # fill the lineage caches part-way through the definitions
            reg.is_descendant(data.draw(st.sampled_from(universals)), "B_Entity")
    _check_registry_invariants(reg)
    for e in reg.entities():
        assert reg.lookup(e.name) is e
