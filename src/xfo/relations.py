"""Relation kinds, U-level declarations, P-level links and the two-tier
validation scheme.

Tier 1 checks B-level signatures: a declaration (fromU, kind, toU) is
admissible when the B ancestors of both sides descend from the kind's
domain and range bounds. Tier 2 checks declaration cover: a particular
link is admissible only when some stored declaration spans both
participants' universals. Tier 1 alone would accept links the model never
sanctioned, which is exactly what tier 2 exists to reject. A world keeps
its links' history in one ``trace.SpanStore``, the type a trace replays to.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from operator import attrgetter
from typing import NamedTuple

from .errors import (
    BadBoundError,
    DuplicateActiveLinkError,
    DuplicateNameError,
    InvalidLinkError,
    InvalidNameError,
    LinkEditError,
    NoActiveLinkError,
    NotIndependentContinuantError,
    SignatureMismatchError,
    Tier2UncoveredError,
    TickOrderError,
    UnknownKindError,
    XfoError,
)
from .ontology import NAME_RE, EntityId, Layer, SourceSpan, _spanned, bootstrap_b_taxonomy
from .trace import FrozenPayload, SpanStore, TraceEvent, Triple


@_spanned
class RelationKind(NamedTuple):
    name: str
    domain_b: EntityId
    range_b: EntityId
    builtin: bool = False
    span: SourceSpan | None = None


BUILTIN_KINDS: tuple[RelationKind, ...] = (
    RelationKind("Participates_In", "B_IndependentContinuant", "B_Occurrent", builtin=True),
    RelationKind("Continuant_Part_Of", "B_Continuant", "B_Continuant", builtin=True),
    RelationKind("Has_Quality", "B_IndependentContinuant", "B_Quality", builtin=True),
    RelationKind("Has_Role", "B_IndependentContinuant", "B_Role", builtin=True),
)


@_spanned
class RelationDeclaration(NamedTuple):
    from_u: EntityId
    kind: str
    to_u: EntityId
    span: SourceSpan | None = None


class LinkInstance(NamedTuple):
    """A link store row with its triple, as ``World.links`` lists it."""

    from_p: EntityId
    kind: str
    to_p: EntityId
    start: int
    end: int | None = None

    def triple(self) -> Triple:
        return (self.from_p, self.kind, self.to_p)


class ValidationResult(NamedTuple):
    valid: bool
    tier: int = 0  # failing tier when invalid (1 or 2)
    reason: str = ""

    def __bool__(self) -> bool:
        return self.valid


VALID = ValidationResult(True)

# A TraceEvent built without the NamedTuple's Python-level __new__.
_event = tuple.__new__


def _repeated(edits: Sequence):
    """The first link template or triple that occurs twice in ``edits``,
    if any: one batch edits each link at most once."""
    seen = set()
    for t in edits:
        if t in seen:
            return t
        seen.add(t)
    return None


class TicEntry(NamedTuple):
    direction: str  # "out" | "in"
    kind: str
    counterpart: EntityId
    via: EntityId | None = None  # U view: the U entity the declaration was made on


# The one order of State.links and TIC.entries.
_ROW_ORDER = attrgetter("kind", "counterpart", "direction")


class State(NamedTuple):
    """Links active on one entity at one tick, in ``_ROW_ORDER``."""

    entity: EntityId
    at: int
    links: tuple[TicEntry, ...]


class TIC(NamedTuple):
    """An Independent Continuant bundled with its relationships."""

    core: EntityId
    at: int | None
    entries: tuple[TicEntry, ...]


class World:
    """Registry plus relation kinds, declarations and the link history.
    The registry starts as the shipped B taxonomy.

    Mutated only by a single loader/scheduler thread; quiescent worlds are
    safe for concurrent readers. ``tier2_strict=False`` downgrades tier-2
    link failures to entries in ``warnings``.

    ``edit`` is the only writer of the link store ``spans``. It reads each
    edited triple's row once, to check it and to write it in place, writes
    a batch whole or not at all, and keeps these invariants:

    * ``spans`` equals ``trace.replay_spans(trace)`` row for row, ``of``
      order included.
    * ``_payloads`` maps each triple ever linked to the one FrozenPayload
      that every Link and Unlink event of it carries.
    * Each event's ``seq`` is its position in ``trace``. ``edit`` appends
      its own Link and Unlink events, after one tick check for the whole
      batch; ``record`` appends every other event, and ``unrecord``
      removes only the newest event.
    * Ticks never go backwards or past ``horizon``, which a Simulation
      sets to its scenario's: an edit or event dated out of those bounds
      raises TickOrderError and changes nothing.

    Declarations are kept as a list, in declaration order, and
    ``declare`` is their only writer. It keeps two indexes beside the
    list:

    * ``_covers`` maps kind -> from_u -> {to_u}; tier-2 cover intersects
      it with the participants' cached ancestor sets.
    * ``_decls_of`` maps each universal to the positions in
      ``declarations`` of the declarations it appears in, on either side,
      in ascending order; the U view of ``tic_of`` reads it, so a
      declaration added after a ``tic_of`` call is seen by the next one.

    ``validate_link`` keeps one verdict per triple in ``_verdicts``. Only a
    new cover can change a verdict: an entity's ancestors, its layer and a
    kind's bounds never change once defined, and an unknown id or kind
    raises and stores nothing. So ``declare`` is the one code that clears
    the memo, when it adds a cover. ``verdicts_computed`` counts the
    misses.
    """

    def __init__(self, *, tier2_strict: bool = True) -> None:
        self.registry = bootstrap_b_taxonomy()
        self.tier2_strict = tier2_strict
        self.kinds: dict[str, RelationKind] = {k.name: k for k in BUILTIN_KINDS}
        self.declarations: list[RelationDeclaration] = []
        self._covers: dict[str, dict[EntityId, set[EntityId]]] = {}
        self._decls_of: dict[EntityId, list[int]] = {}
        self._verdicts: dict[Triple, ValidationResult] = {}
        self.verdicts_computed = 0
        self.spans = SpanStore()
        self._payloads: dict[Triple, FrozenPayload] = {}  # each triple's Link and Unlink payload
        self.trace: list[TraceEvent] = []
        self.warnings: list[str] = []
        self.model_name = "model"
        self.scenario_name: str | None = None  # the scenario a Simulation loaded; a world takes one
        self.horizon: int | None = None  # that scenario's horizon: no write is dated later
        # definition tables filled by the dynamics layer
        self.transitionals: dict[str, object] = {}
        self.frames: dict[str, object] = {}
        self.workflows: dict[str, object] = {}
        self.rules: dict[str, object] = {}
        # workflow -> {parameter: "entity" | "count"}, written by define_workflow
        self.param_kinds: dict[str, dict[str, str]] = {}
        # frame -> the slots its templates use, written by define_frame
        self.used_slots: dict[str, tuple[str, ...]] = {}
        # (frame, binding pairs sorted by slot) -> (triple, start) of each link it created
        self.frame_activations: dict[tuple, list[tuple[Triple, int]]] = {}
        # Named transitionals register as P instances of this universal.
        self.registry.define_universal("Transitional", "X_Transitional")

    @property
    def links(self) -> list[LinkInstance]:
        """A copy of every row of ``spans`` with its triple, triple by triple."""
        return [LinkInstance(*t, *r) for t, row in self.spans.items() for r in row]

    # ------------------------------------------------------------------
    # trace plumbing

    def _require_tick(self, at: int) -> None:
        trace = self.trace
        if trace and at < trace[-1].at:
            raise TickOrderError(f"tick {at} is before the last recorded tick {trace[-1].at}")
        if self.horizon is not None and at > self.horizon:
            raise TickOrderError(f"tick {at} is past the horizon {self.horizon}")

    def record(self, kind: str, at: int, payload: dict) -> TraceEvent:
        self._require_tick(at)
        ev = _event(TraceEvent, (len(self.trace), at, kind, payload))
        self.trace.append(ev)
        return ev

    def unrecord(self, ev: TraceEvent) -> None:
        """Undo ``record``: remove ``ev`` if it is still the newest event."""
        if self.trace and self.trace[-1] is ev:
            self.trace.pop()

    # ------------------------------------------------------------------
    # kinds and declarations

    def kind(self, name: str) -> RelationKind:
        k = self.kinds.get(name)
        if k is None:
            raise UnknownKindError(f"unknown relation kind '{name}'")
        return k

    def declare_relation_kind(self, name: str, domain_b: EntityId, range_b: EntityId) -> RelationKind:
        """Register an ad hoc kind; see ``declare_kind``."""
        return self.declare_kind(RelationKind(name, domain_b, range_b))

    def declare_kind(self, k: RelationKind) -> RelationKind:
        """Register ad hoc kind ``k`` itself, span included; reifies it as a
        U entity under B_RelationalQuality (built-ins are not reified)."""
        name = k.name
        if not NAME_RE.match(name):
            raise InvalidNameError(f"invalid relation kind name '{name}'")
        if name in self.kinds:
            raise DuplicateNameError(f"relation kind '{name}' already defined")
        for bound, side in ((k.domain_b, "domain"), (k.range_b, "range")):
            e = self.registry.get(bound)
            if e is None:
                raise BadBoundError(f"unknown {side} bound '{bound}' for kind '{name}'")
            if e.layer is not Layer.B:
                raise BadBoundError(
                    f"{side} bound '{bound}' of kind '{name}' is {e.layer.value}-layer; bounds must be B-layer"
                )
        self.registry.define_universal(name, "B_RelationalQuality")
        self.kinds[name] = k
        return k

    def _tier1(self, kind: RelationKind, from_e: EntityId, to_e: EntityId) -> ValidationResult:
        reg = self.registry
        from_b = reg.b_ancestor(from_e)
        to_b = reg.b_ancestor(to_e)
        if not reg.is_descendant(from_b, kind.domain_b):
            return ValidationResult(
                False, 1,
                f"domain: B ancestor of '{from_e}' is '{from_b}', "
                f"which does not descend from '{kind.domain_b}'",
            )
        if not reg.is_descendant(to_b, kind.range_b):
            return ValidationResult(
                False, 1,
                f"range: B ancestor of '{to_e}' is '{to_b}', "
                f"which does not descend from '{kind.range_b}'",
            )
        return VALID

    def declare_u_relation(self, from_u: EntityId, kind: str, to_u: EntityId) -> RelationDeclaration:
        """Store a U-level relation declaration; see ``declare``."""
        return self.declare(RelationDeclaration(from_u, kind, to_u))

    def declare(self, d: RelationDeclaration) -> RelationDeclaration:
        """Store declaration ``d`` itself, span included, after the tier-1
        check; a declaration equal to a stored one adds nothing."""
        from_u, kind, to_u = d.from_u, d.kind, d.to_u
        k = self.kind(kind)
        for name in (from_u, to_u):
            if self.registry.lookup(name).layer is not Layer.U:
                raise SignatureMismatchError(
                    f"declaration participant '{name}' is not a U-layer entity"
                )
        res = self._tier1(k, from_u, to_u)
        if not res:
            raise SignatureMismatchError(f"'{from_u}' {kind} '{to_u}': {res.reason}")
        tos = self._covers.setdefault(kind, {}).setdefault(from_u, set())
        if to_u not in tos:
            tos.add(to_u)
            for u in {from_u, to_u}:
                self._decls_of.setdefault(u, []).append(len(self.declarations))
            self.declarations.append(d)
            self._verdicts.clear()  # a tier-2 failure may now be covered
        return d

    # ------------------------------------------------------------------
    # particular-level links

    def validate_link(self, from_p: EntityId, kind: str, to_p: EntityId) -> ValidationResult:
        """Two-tier check for a particular-level link; never raises for an
        Invalid verdict, only for unknown ids or kinds. Memoised per triple
        (see the class docstring)."""
        triple = (from_p, kind, to_p)
        res = self._verdicts.get(triple)
        if res is None:
            res = self._verdicts[triple] = self._verdict(from_p, kind, to_p)
            self.verdicts_computed += 1
        return res

    def _verdict(self, from_p: EntityId, kind: str, to_p: EntityId) -> ValidationResult:
        k = self.kind(kind)
        reg = self.registry
        for name in (from_p, to_p):
            if reg.lookup(name).layer is not Layer.P:
                return ValidationResult(
                    False, 1, f"'{name}' is not a P-layer entity; links relate particulars"
                )
        res = self._tier1(k, from_p, to_p)
        if not res:
            return res
        by_from = self._covers.get(kind, {})
        to_ancestors = reg.ancestors(to_p)
        for u in reg.ancestors(from_p):
            tos = by_from.get(u)
            if tos and not tos.isdisjoint(to_ancestors):
                return VALID
        return ValidationResult(
            False, 2,
            f"no declaration covers '{from_p}' {kind} '{to_p}' "
            f"(universals '{reg.lookup(from_p).parent}' / '{reg.lookup(to_p).parent}')",
        )

    def admit(self, res: ValidationResult) -> bool:
        """The admission rule for a link with verdict ``res``: True when it
        is valid, or fails only tier 2 in a world that is not tier-2
        strict. Pure: whoever writes an admitted failure warns of it."""
        return res.valid or (res.tier == 2 and not self.tier2_strict)

    def active_link(self, from_p: EntityId, kind: str, to_p: EntityId) -> LinkInstance | None:
        row = self.spans.active((from_p, kind, to_p))
        return None if row is None else LinkInstance(from_p, kind, to_p, row[0])

    def triples_at(
        self, at: int, kind: str, from_p: EntityId | None = None, to_p: EntityId | None = None
    ) -> Iterator[Triple]:
        """Triples of ``kind`` active at tick ``at``; a side given as None
        matches any entity. With one side given it scans that entity's
        triples, with none every triple in ``spans``."""
        spans = self.spans
        if from_p is not None and to_p is not None:
            candidates = ((from_p, kind, to_p),)
        else:
            e = from_p if to_p is None else to_p
            candidates = spans if e is None else spans.of(e)
        for t in candidates:
            if (
                t[1] == kind
                and (from_p is None or t[0] == from_p)
                and (to_p is None or t[2] == to_p)
                and spans.at(t, at) is not None
            ):
                yield t

    def check_link(self, from_p: EntityId, kind: str, to_p: EntityId) -> tuple[ValidationResult, list | None]:
        """Raise unless a new (from, kind, to) link may start now, checking
        for a duplicate first; return its verdict and the triple's row, read
        once (None if never linked). Writes no tier-2 warning."""
        triple = (from_p, kind, to_p)
        row = self.spans.get(triple)
        if row is not None and row[-1][1] is None:
            raise DuplicateActiveLinkError(f"link '{from_p}' {kind} '{to_p}' is already active", triple)
        res = self.validate_link(from_p, kind, to_p)
        if not (res.valid or self.admit(res)):
            error = Tier2UncoveredError if res.tier == 2 else InvalidLinkError
            raise error(f"invalid link: {res.reason}", result=res, triple=triple)
        return res, row

    def edit(self, unlinks: Sequence[Triple], links: Sequence[Triple], at: int) -> None:
        """The one writer of link history: end ``unlinks``, then start
        ``links``, at tick ``at``. Before any write it refuses, in order, a
        triple named twice, an unlink not active at ``at``, a tick
        ``_require_tick`` refuses and a link ``check_link`` refuses. Each
        triple's row is read once and written in place; each link is
        validated once, and an uncovered one adds a ``tier-2:`` warning.
        Each edit appends its Unlink or Link event, with no further tick check."""
        if len({*unlinks, *links}) < len(unlinks) + len(links):
            t = _repeated([*unlinks, *links])
            raise LinkEditError(f"link '{t[0]}' {t[1]} '{t[2]}' is edited twice in one batch", t)
        get, ended = self.spans.get, []
        for t in unlinks:
            row = get(t)
            if row is None or row[-1][1] is not None or row[-1][0] > at:
                raise NoActiveLinkError(f"no active link '{t[0]}' {t[1]} '{t[2]}' at tick {at}", t)
            ended.append(row)
        self._require_tick(at)
        started = [self.check_link(*t) for t in links]
        trace, payloads = self.trace, self._payloads
        for t, row in zip(unlinks, ended):
            row[-1] = (row[-1][0], at)
            trace.append(_event(TraceEvent, (len(trace), at, "Unlink", payloads[t])))
        for t, (res, row) in zip(links, started):
            if not res.valid:
                self.warnings.append(f"tier-2: {res.reason}")
            if row is None:  # first link of this triple
                payload = payloads[t] = FrozenPayload({"from": t[0], "relation": t[1], "to": t[2]})
                self.spans.open(t, at)
            else:
                payload = payloads[t]
                row.append((at, None))
            trace.append(_event(TraceEvent, (len(trace), at, "Link", payload)))

    # ------------------------------------------------------------------
    # state and TICs

    def state_of(self, e: EntityId, at: int) -> State:
        self.registry.lookup(e)
        found, spans = [], self.spans
        for triple in spans.of(e):
            if spans.at(triple, at) is None:
                continue
            from_p, kind, to_p = triple
            if from_p == e:
                found.append(TicEntry("out", kind, to_p))
            if to_p == e:
                found.append(TicEntry("in", kind, from_p))
        found.sort(key=_ROW_ORDER)
        return State(e, at, tuple(found))

    def tic_of(self, e: EntityId, at: int | None = None) -> TIC:
        """U view: own plus inherited declarations. P view: active links
        (requires ``at``)."""
        ent = self.registry.lookup(e)
        b = self.registry.b_ancestor(e)
        if not self.registry.is_descendant(b, "B_IndependentContinuant"):
            raise NotIndependentContinuantError(
                f"'{e}' is not an Independent Continuant (B ancestor {b})"
            )
        if ent.layer is Layer.P:
            if at is None:
                raise XfoError(f"tic_of('{e}'): a tick is required for particulars")
            return TIC(e, at, self.state_of(e, at).links)
        lineage = self.registry.ancestors(e)
        # each position once (a declaration between two lineage members is
        # indexed under both), in declaration order, so the stable sort
        # below breaks ties by declaration order
        found = sorted({i for u in lineage for i in self._decls_of.get(u, ())})
        entries = []
        for d in map(self.declarations.__getitem__, found):
            if d.from_u in lineage:
                entries.append(TicEntry("out", d.kind, d.to_u, via=d.from_u))
            if d.to_u in lineage:
                entries.append(TicEntry("in", d.kind, d.from_u, via=d.to_u))
        entries.sort(key=_ROW_ORDER)
        return TIC(e, None, tuple(entries))
