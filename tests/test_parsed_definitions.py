"""One object per definition: the entity registry, the kind table and the
declaration list hold the very objects the parser built for each
``universal``, ``particular``, ``relation`` and ``relate`` line, and the
world's transitional, frame, workflow and rule tables the objects it built
for each block, spans included; loading builds no second copy of any of
them."""
from __future__ import annotations

import pytest

from xfo import loader
from xfo.dsl import parse_model
from xfo.dynamics import Frame, Rule, Transitional, Workflow
from xfo.ontology import B_TAXONOMY, EntityDef
from xfo.relations import RelationDeclaration, RelationKind

from helpers import MODELS_DIR, generated_inputs, model_text

SHIPPED = sorted(p.name for p in MODELS_DIR.iterdir() if p.suffix == ".xfo")
# each block definition type and the world's table of it
BLOCKS = {Transitional: "transitionals", Frame: "frames", Workflow: "workflows", Rule: "rules"}


def model(name: str) -> str:
    """A shipped model, or a small one from the benchmark's catalog
    generator: thousands of simple lines, planted tier-2 warnings and
    refused transitionals."""
    return generated_inputs()[name] if name == "catalog.xfo" else model_text(name)


def parse_and_build(name: str):
    result = parse_model(model(name), name)
    assert result.ok
    world, diags = loader.build_world(result.document, tier2_strict=False)
    return result.document.statements, world, diags


@pytest.mark.parametrize("name", [*SHIPPED, "catalog.xfo"])
def test_the_kernel_holds_the_parsed_definitions(name):
    stmts, world, diags = parse_and_build(name)
    refused = {d.span.line for d in diags if d.severity == "error"}
    simple = [s for s in stmts if isinstance(s, (EntityDef, RelationKind, RelationDeclaration))]
    assert simple and not refused & {s.span.line for s in simple}
    for s in simple:
        if isinstance(s, EntityDef):
            assert world.registry.get(s.name) is s, s
        elif isinstance(s, RelationKind):
            assert world.kinds[s.name] is s, s
    # every relate line, in order, and no declaration from anywhere else
    relates = [s for s in simple if isinstance(s, RelationDeclaration)]
    assert len(world.declarations) == len(relates)
    assert all(d is s for d, s in zip(world.declarations, relates))


@pytest.mark.parametrize("name", [*SHIPPED, "catalog.xfo"])
def test_the_world_holds_the_parsed_block_definitions(name):
    stmts, world, diags = parse_and_build(name)
    refused = {d.span.line for d in diags if d.severity == "error"}
    blocks = [s for s in stmts if isinstance(s, tuple(BLOCKS)) and s.span.line not in refused]
    assert blocks
    for s in blocks:
        assert getattr(world, BLOCKS[type(s)])[s.name] is s, s
        assert s.span is not None
    # and no entry from anywhere else
    assert sum(len(getattr(world, table)) for table in BLOCKS.values()) == len(blocks)


@pytest.mark.parametrize("name", [*SHIPPED, "catalog.xfo"])
def test_parse_and_build_construct_each_definition_once(name, monkeypatch):
    built = dict.fromkeys([EntityDef, RelationDeclaration, *BLOCKS], 0)
    for cls in built:  # NamedTuple records: every construction calls __new__
        def counting(_cls, *args, _new=cls.__new__, **kwargs):
            built[_cls] += 1
            return _new(_cls, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", counting)
    stmts, world, _ = parse_and_build(name)
    entity_lines = sum(isinstance(s, EntityDef) for s in stmts)
    kind_lines = sum(isinstance(s, RelationKind) for s in stmts)
    # the kernel defines one entity per kind and per transitional, and the
    # Transitional universal those instantiate; nothing else is rebuilt
    assert built[EntityDef] == len(world.registry) == (
        len(B_TAXONOMY) + 1 + entity_lines + kind_lines + len(world.transitionals))
    assert built[RelationDeclaration] == sum(isinstance(s, RelationDeclaration) for s in stmts)
    for cls in BLOCKS:  # the parser's, accepted or refused, and no copy
        assert built[cls] == sum(isinstance(s, cls) for s in stmts), cls
