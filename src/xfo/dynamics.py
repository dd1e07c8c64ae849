"""Transitionals, Frames, Workflows/Mechanisms, actions and rules.

Link edits are atomic: each batch is one ``World.edit``, checked in full
before it writes, so a failed batch leaves the link history untouched. Strict
edits carry implicit preconditions (an unlink needs its link active, a new
link needs validity and absence); placeholder steps skip an inactive
unlink or an active link instead of failing, but still need valid links.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import (
    AlreadyActiveError,
    DuplicateActiveLinkError,
    DuplicateNameError,
    IncompleteBindingError,
    InvalidLinkError,
    InvalidTemplateError,
    LinkEditError,
    MissingAgentError,
    NoActiveLinkError,
    NotActiveError,
    PreconditionFailedError,
    ResolveError,
    UnboundedLoopError,
    UnknownActionError,
    UnknownEntityError,
    UnknownSlotError,
    XfoError,
)
from .ontology import Layer, SourceSpan, _spanned
from .relations import Triple, World, _repeated
from .trace import TraceEvent

# A ref inside a template or predicate is a concrete entity name or, inside
# a workflow body, a formal parameter bound at instantiation.
Ref = str
# How deep loop and if blocks may nest, parsed or defined: the parser, the
# completeness check and a run's cursor recurse at least once a level
MAX_BLOCK_DEPTH = 100


class Wildcard(NamedTuple):
    """Predicate-side wildcard: any particular of the given universal."""

    utype: str

    def __str__(self) -> str:
        return f"any:{self.utype}"


PredRef = str | Wildcard


class LinkTemplate(NamedTuple):
    from_ref: Ref
    kind: str
    to_ref: Ref

    def resolve(self, binding: dict | None) -> tuple[str, str, str]:
        return (_resolve(self.from_ref, binding), self.kind, _resolve(self.to_ref, binding))

    def __str__(self) -> str:
        return f"{self.from_ref} {self.kind} {self.to_ref}"


class StatePredicate(NamedTuple):
    """Exists / NotExists over a link triple; sides may be wildcards."""

    exists: bool
    from_ref: PredRef
    kind: str
    to_ref: PredRef

    def render(self, binding: dict | None = None) -> str:
        """DSL text of the predicate, with parameters resolved through
        ``binding`` when one is given."""
        word = "exists" if self.exists else "not_exists"
        from_ref, to_ref = (
            r if isinstance(r, Wildcard) else _resolve(r, binding) for r in (self.from_ref, self.to_ref)
        )
        return f"{word} {from_ref} {self.kind} {to_ref}"

    def holds(self, world: World, at: int, binding: dict | None = None) -> bool:
        from_ref, to_ref = self.from_ref, self.to_ref
        from_p = None if isinstance(from_ref, Wildcard) else _resolve(from_ref, binding)
        to_p = None if isinstance(to_ref, Wildcard) else _resolve(to_ref, binding)
        is_descendant = world.registry.is_descendant
        for f, _, t in world.triples_at(at, self.kind, from_p, to_p):
            if (from_p is not None or is_descendant(f, from_ref.utype)) and (
                to_p is not None or is_descendant(t, to_ref.utype)
            ):
                return self.exists
        return not self.exists


def _resolve(ref: Ref, binding: dict | None) -> str:
    return binding.get(ref, ref) if binding else ref


# ----------------------------------------------------------------------
# transitionals


@_spanned
class Transitional(NamedTuple):
    name: str
    unlinks: tuple[LinkTemplate, ...]
    links: tuple[LinkTemplate, ...]
    span: SourceSpan | None = None


def _check_edits(world: World, templates: tuple, params: frozenset[str], label: str) -> list[str]:
    """Check one unlink/link batch: none edited twice, and each template
    whose refs are all concrete valid (a param ref defers to bind time, an
    unknown concrete ref is an error). Returns the tier-2 warnings of the
    uncovered but admitted templates: the definition adds them to
    ``world.warnings`` once it is stored, so a refused one leaves none."""
    t = _repeated(templates)
    if t is not None:
        raise InvalidTemplateError(f"{label}: template '{t}' appears more than once")
    warnings = []
    for t in templates:
        world.kind(t.kind)
        refs = [r for r in (t.from_ref, t.to_ref) if r not in params]
        for r in refs:
            if r not in world.registry:
                raise InvalidTemplateError(f"{label}: unknown entity '{r}' in template '{t}'")
        if len(refs) < 2:
            continue
        res = world.validate_link(t.from_ref, t.kind, t.to_ref)
        if not world.admit(res):
            raise InvalidTemplateError(f"{label}: invalid template '{t}': {res.reason}")
        if not res:
            warnings.append(f"tier-2: {label}: {res.reason}")
    return warnings


def define_transitional(world: World, tr: Transitional) -> Transitional:
    """Register transitional ``tr`` itself, span included; also registers
    its name as a P entity under the Transitional universal."""
    name = tr.name
    if name in world.transitionals:
        raise DuplicateNameError(f"transitional '{name}' already defined")
    warnings = _check_edits(world, tr.unlinks + tr.links, frozenset(), f"transitional '{name}'")
    world.registry.instantiate_particular(name, "Transitional")
    world.transitionals[name] = tr
    world.warnings += warnings
    return tr


# One unlink/link batch resolved to triples: (unlinks, links).
Batch = tuple[tuple[Triple, ...], tuple[Triple, ...]]


def resolve_edits(unlinks: tuple[LinkTemplate, ...], links: tuple[LinkTemplate, ...],
                  binding: dict | None = None) -> Batch:
    """Resolve an unlink/link batch against ``binding``. Raises
    PreconditionFailedError when the binding collapses two edits onto one
    triple."""
    un = tuple([t.resolve(binding) for t in unlinks])
    ln = tuple([t.resolve(binding) for t in links])
    t = _repeated(un + ln)
    if t is not None:
        raise PreconditionFailedError(f"binding collapses two edits onto {' '.join(t)}")
    return un, ln


def apply_batch(world: World, batch: Batch, at: int, *, lenient: bool = False) -> None:
    """Apply a resolved batch atomically at one tick: one ``World.edit``.

    A refused edit raises PreconditionFailedError naming the failed
    predicate and leaves the world unchanged. Lenient mode first drops
    inactive unlinks and active links, reading the world at this call.
    """
    un, ln = batch
    if lenient:
        un = [t for t in un if world.spans.active(t) is not None]
        ln = [t for t in ln if world.spans.active(t) is None]
    try:
        world.edit(un, ln, at)
    except NoActiveLinkError as exc:
        t = " ".join(exc.triple)
        raise PreconditionFailedError(f"unlink target not active: {t}", predicate=f"exists {t}") from exc
    except DuplicateActiveLinkError as exc:
        t = " ".join(exc.triple)
        raise PreconditionFailedError(f"link target already active: {t}", predicate=f"not_exists {t}") from exc
    except InvalidLinkError as exc:
        t, reason = " ".join(exc.triple), exc.result.reason
        raise PreconditionFailedError(f"link target invalid: {t}: {reason}", predicate=reason) from exc


def apply_transitional(world: World, t: Transitional, at: int) -> list[TraceEvent]:
    before = len(world.trace)
    apply_batch(world, resolve_edits(t.unlinks, t.links), at)
    return world.trace[before:]


# ----------------------------------------------------------------------
# frames


@_spanned
class Frame(NamedTuple):
    name: str
    slots: tuple[str, ...]
    templates: tuple[LinkTemplate, ...]  # refs are slot names
    span: SourceSpan | None = None


def define_frame(world: World, f: Frame) -> Frame:
    """Register frame ``f`` itself, span included. The slots its templates
    use, in first use order, are kept in ``world.used_slots[f.name]`` for
    ``check_frame_binding``."""
    name, slots = f.name, f.slots
    if name in world.frames:
        raise DuplicateNameError(f"frame '{name}' already defined")
    dup = _repeated(slots)
    if dup is not None:
        raise DuplicateNameError(f"frame '{name}' declares slot '{dup}' twice")
    used = {}
    for t in f.templates:
        world.kind(t.kind)
        for r in (t.from_ref, t.to_ref):
            if r not in slots:
                raise UnknownSlotError(
                    f"frame '{name}': template '{t}' references undeclared slot '{r}'"
                )
            used[r] = None
    world.frames[name] = f
    world.used_slots[name] = tuple(used)
    return f


def check_frame_binding(world: World, name: str, binding: tuple[tuple[str, str], ...]) -> Frame:
    """The frame ``name``, after checking that ``binding``, its
    ``(slot, entity)`` pairs, names each slot once and only its declared
    slots, binds every slot its templates use, and binds each to a known
    entity. The one check of a frame binding, wherever it is written: a
    scenario, a rule or a direct activation."""
    slots = [slot for slot, _ in binding]
    dup = _repeated(slots)
    if dup is not None:
        raise DuplicateNameError(f"frame '{name}': binding names slot '{dup}' twice")
    f = world.frames.get(name)
    if f is None:
        raise UnknownActionError(f"unknown frame '{name}'")
    for slot, value in binding:
        if slot not in f.slots:
            raise UnknownSlotError(f"frame '{name}': binding names undeclared slot '{slot}'")
        if value not in world.registry:
            raise UnknownEntityError(f"frame '{name}': unknown entity '{value}' for slot '{slot}'")
    missing = [s for s in world.used_slots[name] if s not in slots]
    if missing:
        raise IncompleteBindingError(
            f"frame '{name}': binding missing slot(s) {', '.join(missing)}"
        )
    return f


def activate_frame(world: World, frame: str, binding: Iterable[tuple[str, str]], at: int) -> list[TraceEvent]:
    """Create every link of ``frame`` under ``binding``, its ``(slot,
    entity)`` pairs in any order, at one tick, atomically. The activation
    is keyed by ``(frame, pairs sorted by slot)``."""
    binding = tuple(sorted(binding))
    f = check_frame_binding(world, frame, binding)
    key = (frame, binding)
    if key in world.frame_activations:
        raise AlreadyActiveError(f"frame '{frame}' already active for this binding")
    values = dict(binding)  # slot order, as the payload is written
    triples = [t.resolve(values) for t in f.templates]
    t = _repeated(triples)
    if t is not None:
        raise InvalidLinkError(f"frame '{frame}': binding collapses two templates onto {' '.join(t)}")
    before = len(world.trace)
    ev = world.record("FrameActivate", at, {"frame": frame, "binding": values})
    try:
        world.edit((), triples, at)
    except LinkEditError as exc:  # a link is already active or invalid
        world.unrecord(ev)
        raise InvalidLinkError(f"frame '{frame}': {exc}") from exc
    world.frame_activations[key] = [(t, at) for t in triples]
    return world.trace[before:]


def deactivate_frame(world: World, frame: str, binding: Iterable[tuple[str, str]], at: int) -> list[TraceEvent]:
    """Unlink exactly the links of ``frame``'s activation under ``binding``,
    its ``(slot, entity)`` pairs in any order, at one tick, atomically."""
    binding = tuple(sorted(binding))
    key = (frame, binding)
    created = world.frame_activations.get(key)
    if created is None:
        raise NotActiveError(f"frame '{frame}' is not active for this binding")
    gone = [t for t, start in created if world.spans.active(t) != (start, None)]
    if gone:
        raise NotActiveError(f"frame '{frame}' activation is no longer atomic; missing link(s): "
                             + ", ".join(" ".join(t) for t in gone))
    before = len(world.trace)
    world.record("FrameDeactivate", at, {"frame": frame, "binding": dict(binding)})
    world.edit([t for t, _ in created], (), at)
    del world.frame_activations[key]
    return world.trace[before:]


# ----------------------------------------------------------------------
# workflows


class WorkflowStep(NamedTuple):
    name: str
    agent_ref: Ref | None
    duration: int | str  # literal ticks or a parameter name
    preconditions: tuple[StatePredicate, ...] = ()
    unlinks: tuple[LinkTemplate, ...] = ()
    links: tuple[LinkTemplate, ...] = ()
    placeholder: bool = False


class Seq(NamedTuple):
    items: tuple = ()


class Loop(NamedTuple):
    """Bounded loop: a finite count, a stop predicate, or the scenario
    horizon (until_end)."""

    body: Seq
    count: int | None = None
    guard: StatePredicate | None = None
    until_end: bool = False


class Cond(NamedTuple):
    guard: StatePredicate
    then_body: Seq
    else_body: Seq | None = None


Node = WorkflowStep | Seq | Loop | Cond


@_spanned
class Workflow(NamedTuple):
    name: str
    params: tuple[str, ...]
    body: Seq
    requires_agent: bool  # True: Workflow (external factor); False: Mechanism
    span: SourceSpan | None = None


def walk_nodes(node: Node):
    """Every node of a workflow tree, each before its children, in source
    order. Raises InvalidTemplateError at the first node inside more than
    ``MAX_BLOCK_DEPTH`` blocks: loops, ifs and Seqs directly in a Seq."""
    todo = [(node, 0)]
    while todo:
        node, depth = todo.pop()
        if depth > MAX_BLOCK_DEPTH:
            raise InvalidTemplateError(f"loop and if blocks nest more than {MAX_BLOCK_DEPTH} deep")
        yield node
        if isinstance(node, Seq):
            todo += [(item, depth + isinstance(item, Seq)) for item in reversed(node.items)]
        elif isinstance(node, Loop):
            todo.append((node.body, depth + 1))
        elif isinstance(node, Cond):
            todo += [(body, depth + 1) for body in (node.else_body, node.then_body) if body is not None]


def walk_steps(node: Node):
    return (n for n in walk_nodes(node) if isinstance(n, WorkflowStep))


def bind_args(world: World, wf: Workflow, args: tuple) -> dict:
    """The binding of ``wf``'s parameters to ``args``: one argument per
    parameter, of the kind ``define_workflow`` kept for it in
    ``world.param_kinds``. The one check of a run's arguments, wherever
    they are written: a scenario ``run`` or a rule's ``start_workflow``."""
    if len(args) != len(wf.params):
        raise UnknownActionError(
            f"workflow '{wf.name}' takes {len(wf.params)} argument(s), got {len(args)}"
        )
    kinds = world.param_kinds[wf.name]
    binding = {}
    for param, value in zip(wf.params, args):
        want = kinds.get(param)
        if isinstance(value, int):
            if want == "entity":
                raise ResolveError(f"parameter '{param}' needs an entity, got {value}")
            if want == "count" and value < 0:
                raise ResolveError(f"parameter '{param}' needs a duration of at least 0, got {value}")
        else:
            if want == "count":
                raise ResolveError(f"parameter '{param}' needs a number, got '{value}'")
            if value not in world.registry:
                raise UnknownEntityError(f"unknown entity '{value}' for parameter '{param}'")
        binding[param] = value
    return binding


def define_workflow(world: World, wf: Workflow) -> Workflow:
    """Register workflow or mechanism ``wf`` itself, span included.

    One walk over the body checks each node in source order and types
    each parameter from every place it is written: an agent, an effect
    ref or either side of a predicate (a step's ``require``, a ``loop
    until`` or ``if`` guard) makes it an entity, a duration a number.
    The kinds are kept in ``world.param_kinds[wf.name]`` for
    ``bind_args``."""
    name = wf.name
    if name in world.workflows:
        raise DuplicateNameError(f"workflow '{name}' already defined")
    dup = _repeated(wf.params)
    if dup is not None:
        raise DuplicateNameError(f"workflow '{name}' declares parameter '{dup}' twice")
    label = f"workflow '{name}'"
    pset = frozenset(wf.params)
    kinds: dict[str, str] = {}

    def note(refs, kind: str) -> None:
        for r in refs:
            if r in pset and kinds.setdefault(r, kind) != kind:
                raise InvalidTemplateError(
                    f"{label}: parameter '{r}' used both as an entity and as a number"
                )

    def check_guard(pred: StatePredicate) -> None:
        _check_predicate(world, pred, label, params=pset)
        note((pred.from_ref, pred.to_ref), "entity")

    seen_steps: set[str] = set()
    warnings: list[str] = []
    for n in walk_nodes(wf.body):
        if isinstance(n, Loop) and n.count is None and n.guard is None and not n.until_end:
            raise UnboundedLoopError(f"workflow '{name}' contains a loop with no count and no guard")
        if isinstance(n, (Loop, Cond)) and n.guard is not None:
            check_guard(n.guard)
        if not isinstance(n, WorkflowStep):
            continue
        step = n
        if step.name in seen_steps:
            raise DuplicateNameError(f"{label}: step '{step.name}' defined twice")
        seen_steps.add(step.name)
        if wf.requires_agent and step.agent_ref is None:
            raise MissingAgentError(
                f"{label}: step '{step.name}' has no agent but the workflow requires one"
            )
        if step.agent_ref is not None and step.agent_ref not in pset and step.agent_ref not in world.registry:
            raise UnknownEntityError(
                f"{label}: step '{step.name}' agent '{step.agent_ref}' is unknown"
            )
        note((step.agent_ref,), "entity")
        if isinstance(step.duration, int):
            if step.duration < 0:
                raise InvalidTemplateError(f"{label}: step '{step.name}' has negative duration")
        elif step.duration not in pset:
            raise InvalidTemplateError(
                f"{label}: step '{step.name}' duration '{step.duration}' is not a parameter"
            )
        note((step.duration,), "count")
        edits = step.unlinks + step.links
        warnings += _check_edits(world, edits, pset, f"{label} step '{step.name}'")
        note((r for t in edits for r in (t.from_ref, t.to_ref)), "entity")
        for pred in step.preconditions:
            check_guard(pred)
    world.param_kinds[name] = kinds
    world.workflows[name] = wf
    world.warnings += warnings
    return wf


# ----------------------------------------------------------------------
# completeness checking


class Gap(NamedTuple):
    step: str
    predicate: str
    path: str


class CompletenessReport(NamedTuple):
    complete: bool
    gaps: tuple[Gap, ...]
    placeholders: tuple[str, ...]


Fact = tuple[str, str, str]


def _surely_holds(pred: StatePredicate, must: frozenset[Fact], may: frozenset[Fact]) -> bool:
    """Whether ``pred`` holds in every fact set between ``must`` and
    ``may``. A wildcard side is untyped: it never proves ``exists`` (no
    triple of names equals it) and could be any token for ``not_exists``."""
    if pred.exists:
        return (pred.from_ref, pred.kind, pred.to_ref) in must
    sides = (pred.from_ref, pred.to_ref)
    return not any(
        kind == pred.kind and all(isinstance(r, Wildcard) or r == n for r, n in zip(sides, (f, t)))
        for f, kind, t in may
    )


def check_completeness(workflow: Workflow, initial) -> CompletenessReport:
    """Whether ``workflow`` can break when run alone from the concrete
    ``exists`` facts in ``initial``, taken as the whole state. "Complete"
    promises it never breaks: no precondition or strict edit fails.

    A forward pass keeps one (``must``, ``may``) pair of fact sets per
    program point, both the initial facts at the start. ``exists p``
    needs a ``must`` fact, ``not_exists p`` no ``may`` fact that could
    match; a strict unlink needs its fact in ``must``, a strict link its
    fact out of ``may``. Edits apply to both sets, placeholder or not.
    An ``if`` joins its branches, ``must`` by intersection and ``may`` by
    union. A loop starts each iteration from the join of the previous
    one's start and end, up to its count or until the join stops
    changing (at most twice the distinct facts). So the work is linear.

    A gap is reported once per step and predicate (a step's name fixes
    its place in the body), in the order met, under its ``/then``,
    ``/else`` and ``/iterK`` path, K the first iteration showing it.

    Two assumptions are stated, not checked. Wildcards are untyped: an
    ``any:T`` side never proves ``exists`` and could match every token
    for ``not_exists``. Parameters are distinct entities that no
    concrete name in the body names.
    """
    found: dict[tuple[str, str], Gap] = {}

    def run(node: Node, must: frozenset[Fact], may: frozenset[Fact], path: str):
        if isinstance(node, WorkflowStep):
            gone, new = node.unlinks, node.links
            failed = [p.render() for p in node.preconditions if not _surely_holds(p, must, may)]
            if not node.placeholder:
                failed += [f"exists {t}" for t in gone if t not in must]
                failed += [f"not_exists {t}" for t in new if t in may]
            for text in failed:
                found.setdefault((node.name, text), Gap(node.name, text, path))
            return must.difference(gone).union(new), may.difference(gone).union(new)
        if isinstance(node, Seq):
            for item in node.items:
                must, may = run(item, must, may, path)
            return must, may
        if isinstance(node, Cond):
            must1, may1 = run(node.then_body, must, may, path + "/then")
            if node.else_body is not None:
                must, may = run(node.else_body, must, may, path + "/else")
            return must1 & must, may1 | may
        k, end = 0, (must, may)
        while node.count is None or k < node.count:
            k += 1
            end = run(node.body, must, may, f"{path}/iter{k}")
            joined = (must & end[0], may | end[1])
            if joined == (must, may):
                break
            must, may = joined
        # a counted loop leaves after its last iteration, an unbounded one after any
        return end if node.count is not None else (must, may)

    facts = frozenset((p.from_ref, p.kind, p.to_ref) for p in initial if p.exists
                      and not isinstance(p.from_ref, Wildcard) and not isinstance(p.to_ref, Wildcard))
    # walk_steps refuses a body nested past MAX_BLOCK_DEPTH before run recurses
    placeholders = tuple(s.name for s in walk_steps(workflow.body) if s.placeholder)
    run(workflow.body, facts, facts, "")
    return CompletenessReport(not found, tuple(found.values()), placeholders)


# ----------------------------------------------------------------------
# actions: what a rule's ``then`` names, and a scenario line at a tick


def _render(action) -> str:
    """The action in rule syntax, e.g. ``start_workflow w(a, 2)``."""
    return f"{ACTION_KEYWORDS[type(action)][1]} {action.operand()}"


@_spanned
class RunSpec(NamedTuple):
    target: str  # workflow name
    args: tuple = ()  # entity names and ints, positionally matching the params
    at: int | None = None
    span: SourceSpan | None = None

    render = _render

    def operand(self) -> str:
        return f"{self.target}({', '.join(map(str, self.args))})"


@_spanned
class ApplyDirective(NamedTuple):
    target: str  # transitional name
    at: int | None = None
    span: SourceSpan | None = None

    render = _render

    def operand(self) -> str:
        return self.target


@_spanned
class _FrameAction(NamedTuple):
    target: str  # frame name
    binding: tuple = ()  # sorted (slot, value) pairs
    at: int | None = None
    span: SourceSpan | None = None

    render = _render

    def operand(self) -> str:
        return f"{self.target}({', '.join(f'{k}={v}' for k, v in self.binding)})"


class ActivateDirective(_FrameAction):
    """Create the frame's links under ``binding``."""

    __slots__ = ()


class DeactivateDirective(_FrameAction):
    """Remove the links of the frame's activation under ``binding``."""

    __slots__ = ()


# An action starts a workflow, applies a transitional, or activates or
# deactivates a frame. A scenario directive gives its tick in ``at``; a
# rule's action has ``at`` None and runs when it fires.
Action = RunSpec | ApplyDirective | ActivateDirective | DeactivateDirective

# Each action's keyword in a scenario and in a rule's ``then``.
ACTION_KEYWORDS = {
    RunSpec: ("run", "start_workflow"),
    ApplyDirective: ("apply", "apply_transitional"),
    ActivateDirective: ("activate", "activate_frame"),
    DeactivateDirective: ("deactivate", "deactivate_frame"),
}


def check_action(world: World, action: Action) -> None:
    """Raise unless ``action`` names a defined workflow, transitional or
    frame and its arguments or binding fit it. The one check of an
    action, wherever it is written: a rule's ``then`` or a scenario line."""
    if isinstance(action, RunSpec):
        wf = world.workflows.get(action.target)
        if wf is None:
            raise UnknownActionError(f"unknown workflow '{action.target}'")
        bind_args(world, wf, action.args)
    elif isinstance(action, ApplyDirective):
        if action.target not in world.transitionals:
            raise UnknownActionError(f"unknown transitional '{action.target}'")
    elif isinstance(action, _FrameAction):
        check_frame_binding(world, action.target, action.binding)
    else:
        raise UnknownActionError(f"unknown action {action!r}")


def apply_action(world: World, action: Action, at: int) -> None:
    """Apply a transitional, or activate or deactivate a frame, at tick
    ``at``; each is atomic. Starting a workflow is the simulation's."""
    if isinstance(action, ApplyDirective):
        apply_transitional(world, world.transitionals[action.target], at)
    elif isinstance(action, ActivateDirective):
        activate_frame(world, action.target, action.binding, at)
    else:
        deactivate_frame(world, action.target, action.binding, at)


# ----------------------------------------------------------------------
# rules


@_spanned
class Rule(NamedTuple):
    """Edge-triggered condition-action pair: fires when the guard
    conjunction turns from false to true, at most once per rules phase.
    A tick has one rules phase unless a ``run_until`` call raises during
    it; the next call runs that tick's rules phase again (see
    ``microworld``)."""

    name: str
    guard: tuple[StatePredicate, ...]
    action: Action
    span: SourceSpan | None = None


def _check_predicate(world: World, p: StatePredicate, label: str, params: frozenset = frozenset()) -> None:
    world.kind(p.kind)
    for r in (p.from_ref, p.to_ref):
        if isinstance(r, Wildcard):
            ent = world.registry.get(r.utype)
            if ent is None or ent.layer is not Layer.U:
                raise UnknownEntityError(f"{label}: wildcard type '{r.utype}' is not a universal")
        elif r not in params and r not in world.registry:
            raise UnknownEntityError(f"{label}: unknown entity '{r}' in predicate '{p.render()}'")


def define_rule(world: World, rule: Rule) -> Rule:
    """Register rule ``rule`` itself, span included."""
    name, action = rule.name, rule.action
    if name in world.rules:
        raise DuplicateNameError(f"rule '{name}' already defined")
    for p in rule.guard:
        _check_predicate(world, p, f"rule '{name}'")
    try:
        check_action(world, action)
        if action.at is not None:
            raise ResolveError(f"action '{action.render()}' has a tick; it runs when the rule fires")
    except XfoError as exc:
        raise exc.within(f"rule '{name}'")
    world.rules[name] = rule
    return rule
