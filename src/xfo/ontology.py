"""Entity registry: the shipped B-layer taxonomy plus user-defined
Universals and Particulars, arranged in a single Is_A / Instance_Of tree.

Layering rules: B entities are shipped and fixed; U entities descend from
B or U entities; P entities instantiate exactly one U entity. Every parent
chain terminates at B_Entity.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import (
    BadParentError,
    DuplicateNameError,
    InvalidNameError,
    UnknownEntityError,
    UnknownParentError,
    XfoError,
)

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Entity ids are the (unique) entity names: stable and human readable.
EntityId = str


class Layer(str, Enum):
    B = "B"
    U = "U"
    P = "P"


class SourceSpan(NamedTuple):
    """Where a statement or diagnostic was written: a record, as README
    "Library" defines it. Nothing in the package orders spans."""

    file: str
    line: int
    column: int
    length: int = 1

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


def _span_field():
    """Where a definition was written in a source file, if it was; excluded
    from equality so that parsed and hand-built definitions compare equal."""
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EntityDef:
    name: str
    layer: Layer
    parent: EntityId | None
    span: SourceSpan | None = _span_field()


# The shipped upper taxonomy, in definition order. The X_ prefix marks
# kernel extensions; they behave as B-layer types everywhere.
B_TAXONOMY: tuple[tuple[str, str | None], ...] = (
    ("B_Entity", None),
    ("B_Continuant", "B_Entity"),
    ("B_IndependentContinuant", "B_Continuant"),
    ("B_MaterialEntity", "B_IndependentContinuant"),
    ("B_Object", "B_MaterialEntity"),
    ("B_ObjectAggregate", "B_MaterialEntity"),
    ("X_Substance", "B_MaterialEntity"),
    ("B_DependentContinuant", "B_Continuant"),
    ("B_Quality", "B_DependentContinuant"),
    ("B_RelationalQuality", "B_Quality"),
    ("B_Role", "B_DependentContinuant"),
    ("B_Occurrent", "B_Entity"),
    ("B_Process", "B_Occurrent"),
    ("X_Transitional", "B_Occurrent"),
)


class Registry:
    """Name-keyed entity store.

    Single-writer while a model loads; treated as immutable afterwards, so
    reads are safe from any thread (the lazily filled lineage caches only
    ever gain entries whose values are fixed by the definitions).
    """

    def __init__(self) -> None:
        self._defs: dict[str, EntityDef] = {}
        self._ancestors: dict[EntityId, frozenset[EntityId]] = {}
        self._b_ancestor: dict[EntityId, EntityId] = {}

    def __len__(self) -> int:
        return len(self._defs)

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def entities(self) -> list[EntityDef]:
        """All definitions in insertion order."""
        return list(self._defs.values())

    def get(self, name: str) -> EntityDef | None:
        return self._defs.get(name)

    def lookup(self, name: str) -> EntityDef:
        e = self._defs.get(name)
        if e is None:
            raise UnknownEntityError(f"unknown entity '{name}'")
        return e

    def add(self, e: EntityDef) -> EntityId:
        """Store definition ``e`` itself, span included: a U entity under a
        B or U parent, or a P entity instantiating a U entity. The one
        validator of defined entities: it checks the layer and the parent,
        then the name."""
        name, parent = e.name, e.parent
        p = self._defs.get(parent)
        if e.layer is Layer.U:
            if p is None:
                raise UnknownParentError(f"unknown parent '{parent}' for universal '{name}'")
            if p.layer is Layer.P:
                raise BadParentError(f"universal '{name}' cannot descend from particular '{parent}'")
        elif e.layer is Layer.P:
            if p is None:
                raise UnknownParentError(f"unknown universal '{parent}' for particular '{name}'")
            if p.layer is not Layer.U:
                raise BadParentError(
                    f"particular '{name}' must instantiate a universal, "
                    f"not {p.layer.value}-layer '{parent}'"
                )
        else:
            raise XfoError(f"B-layer entity '{name}' cannot be defined; the B taxonomy is shipped")
        if not NAME_RE.match(name):
            raise InvalidNameError(f"invalid entity name '{name}'")
        if name in self._defs:
            raise DuplicateNameError(f"entity name '{name}' already defined")
        self._defs[name] = e
        return name

    def define_universal(self, name: str, parent: EntityId) -> EntityId:
        """Define a U entity under a B or U parent."""
        return self.add(EntityDef(name, Layer.U, parent))

    def instantiate_particular(self, name: str, universal: EntityId) -> EntityId:
        """Define a P entity as an instance of a U entity."""
        return self.add(EntityDef(name, Layer.P, universal))

    def ancestors(self, e: EntityId) -> frozenset[EntityId]:
        """e plus every entity reachable from it by parent hops.

        Cached on first use; exact because a definition is never changed
        or removed once added.
        """
        anc = self._ancestors.get(e)
        if anc is None:
            self._fill_lineage(e)
            anc = self._ancestors[e]
        return anc

    def _fill_lineage(self, e: EntityId) -> None:
        """Cache ancestors and B ancestor for e and its uncached parents."""
        pending = []
        cur: EntityId | None = self.lookup(e).name
        while cur is not None and cur not in self._ancestors:
            pending.append(cur)
            cur = self._defs[cur].parent
        for name in reversed(pending):
            d = self._defs[name]
            if d.parent is None:
                self._ancestors[name] = frozenset((name,))
            else:
                self._ancestors[name] = self._ancestors[d.parent] | {name}
            self._b_ancestor[name] = name if d.layer is Layer.B else self._b_ancestor[d.parent]

    def is_descendant(self, a: EntityId, b: EntityId) -> bool:
        """True iff b is reachable from a by zero or more parent hops."""
        self.lookup(b)
        return b in self.ancestors(a)

    def b_ancestor(self, e: EntityId) -> EntityId:
        """Nearest ancestor (or self) whose layer is B."""
        b = self._b_ancestor.get(e)
        if b is None:
            self._fill_lineage(e)
            b = self._b_ancestor[e]
        return b

    def parent_chain(self, e: EntityId) -> list[EntityId]:
        """Names from e up to and including B_Entity."""
        chain = [self.lookup(e).name]
        while (p := self._defs[chain[-1]].parent) is not None:
            chain.append(p)
        return chain


def bootstrap_b_taxonomy() -> Registry:
    """Fresh registry holding exactly the shipped B taxonomy."""
    reg = Registry()
    for name, parent in B_TAXONOMY:
        reg._defs[name] = EntityDef(name, Layer.B, parent)
    return reg
