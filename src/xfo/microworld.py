"""Deterministic discrete-event execution of scenarios.

Logical integer ticks replace wall-clock time; asynchrony between runs is
modeled as a reproducible interleaving. Within one tick, queued actions
drain in the order they were queued, then the stale enabled rules
evaluate once each in definition order, then any actions the rules
queued for the same tick drain. Two executions of one scenario therefore
produce byte-identical traces.

``now`` advances past a tick only once the tick completes. A
``run_until`` call that raises (a directive or a rule's action failed)
leaves ``now`` at the failing tick, without the entry that failed in the
queue. The next call drains the rest of that tick's queue and runs its
rules phase again. So a rule fires at most once per rules phase, and at
most once per tick only across calls that do not raise.

A rule is stale until its first evaluation, and again once a Link or
Unlink event under one of its guard's keys is recorded after its last
evaluation began; the simulation reads those events from ``World.trace``,
each once. A guard predicate's key is (kind, "to", entity) when its ``to``
side is concrete, else (kind, "from", entity) when its ``from`` side is,
else (kind,); an event on triple (f, kind, t) is under the keys (kind,),
(kind, "from", f) and (kind, "to", t). The rules phase evaluates the stale
rules only, in definition order; a later rule that an action makes stale
is evaluated in the same phase, the acting rule and earlier ones at the
next tick. Time advances to the next tick that has a queued action or a
stale rule; the ticks in between are skipped. This cannot change the
trace: a predicate with a concrete side reads only the triples of its kind
with that entity on that side (``World.triples_at``), one with two
wildcards only triples of its kind, and a wildcard's type test reads
entity types, which do not change during a run. Active links change only
through ``World.edit``, which records a Link or Unlink event for each
change, so a rule that is not stale would re-evaluate to its previous
value and fire no edge.

Each queue entry is (tick, order queued, callable). The drain calls it
with the tick and queues it again at the tick it returns: a run's
resumption returns its next, a directive's apply or an interrupt None.
A run's life is one generator (``WorkflowRun.life``): sent the tick it
resumes at, it yields the next, first its start, then each step's end.
A step occupies [start, start + duration): its preconditions are checked
at its start, a failure marks the run Broken, and its effects apply at
its end. A recursive generator walks the workflow's control tree, reading
each loop and if guard at the tick control reaches it. Interrupting a run
cancels its actions at strictly later ticks, so a step ending exactly at
the interrupt tick still applies. No entry refers to the simulation, so
a finished one leaves no reference cycle.

A scenario directive and a rule's action are the same dynamics action
types: the directive carries its tick, the rule's action runs at the tick
the rule fires. ``dynamics.check_action`` checks both at load and
``dynamics.apply_action`` applies both, except that starting a workflow
queues a run here. A rule whose action fails leaves no RuleFired event.
"""
from __future__ import annotations

import heapq
from collections.abc import Callable, Generator, Iterator
from enum import Enum
from functools import partial
from itertools import count
from typing import NamedTuple

from .dynamics import (
    ACTION_KEYWORDS,
    Batch,
    LinkTemplate,
    Rule,
    RunSpec,
    WorkflowStep,
    Workflow,
    Cond,
    Loop,
    Seq,
    StatePredicate,
    Wildcard,
    apply_action,
    apply_batch,
    bind_args,
    check_action,
    resolve_edits,
)
from .errors import (
    InvalidInitialLinkError,
    LinkEditError,
    NotInterruptibleError,
    PreconditionFailedError,
    ResolveError,
    SimulationError,
    TickOrderError,
    XfoError,
)
from .ontology import SourceSpan, _spanned
from .relations import World
from .trace import FrozenPayload

# Ceiling on a run's cursor moves within one tick; a run that exceeds it is
# livelocked model content, not a schedulable program.
SPIN_LIMIT = 10_000


class RunStatus(str, Enum):
    PENDING = "Pending"
    RUNNING = "Running"
    COMPLETED = "Completed"
    INTERRUPTED = "Interrupted"
    BROKEN = "Broken"


TERMINAL = (RunStatus.COMPLETED, RunStatus.INTERRUPTED, RunStatus.BROKEN)


@_spanned
class InterruptDirective(NamedTuple):
    run: int
    at: int
    span: SourceSpan | None = None


class Scenario(NamedTuple):
    """A closed microworld: initial links, scheduled runs and directives,
    enabled rules, and a mandatory horizon."""

    name: str
    horizon: int
    init: tuple[LinkTemplate, ...]
    schedule: tuple  # actions with a tick, and interrupts, in source order
    rules: tuple[str, ...] = ()

    def run_specs(self) -> list[RunSpec]:
        return [item for item in self.schedule if isinstance(item, RunSpec)]


class WorkflowRun:
    """One execution of a workflow within a scenario; see ``life``.

    ``binding`` is fixed when ``bind_args`` builds it and never mutated, so
    each step's unlink and link templates are resolved against it once per
    run, at the step's first end, and the resolved batch is kept under the
    step's name (unique within a workflow). A batch that fails to resolve
    is never kept. So is the one payload of a step's StepStart and StepEnd
    events, built at its first start."""

    def __init__(self, run_id: int, workflow: Workflow, binding: dict):
        self.id = run_id
        self.workflow = workflow
        self.binding = binding
        self.status = RunStatus.PENDING
        self.last_completed_step: str | None = None
        self.cancelled_after: int | None = None
        self._tick = 0  # the tick the run last resumed at
        self._moves = 0  # cursor moves at _tick
        self._batches: dict[str, Batch] = {}
        self._payloads: dict[str, FrozenPayload] = {}

    def batch(self, step: WorkflowStep) -> Batch:
        """``step``'s edits resolved against the binding; see the class."""
        batch = self._batches.get(step.name)
        if batch is None:
            batch = self._batches[step.name] = resolve_edits(step.unlinks, step.links, self.binding)
        return batch

    def payload(self, step: WorkflowStep) -> FrozenPayload:
        """``step``'s StepStart and StepEnd payload; see the class."""
        if step.name not in self._payloads:
            self._payloads[step.name] = FrozenPayload(run=self.id, workflow=self.workflow.name, step=step.name)
        return self._payloads[step.name]

    def life(self, world: World, at: int, horizon: int) -> Generator[int, int, None]:
        """The run from its start at ``at`` until a precondition or edit
        breaks, an interrupt cancels or its last step ends."""
        tick = self._tick = yield at
        if self.status is not RunStatus.PENDING:  # interrupted before it started
            return
        self.status = RunStatus.RUNNING
        world.record("WorkflowStart", tick, {"run": self.id, "workflow": self.workflow.name})
        for step in self._walk(self.workflow.body, world, horizon):
            for pred in step.preconditions:
                if not pred.holds(world, tick, self.binding):
                    self._break(world, step.name, tick, pred.render(self.binding))
                    return
            world.record("StepStart", tick, self.payload(step))
            # a duration is a number or a parameter bind_args bound to one
            tick = yield tick + (step.duration if isinstance(step.duration, int) else self.binding[step.duration])
            if tick != self._tick:
                self._tick, self._moves = tick, 0
            if self.status is RunStatus.INTERRUPTED and self.cancelled_after != tick:
                return  # cancelled before the step's end
            try:
                apply_batch(world, self.batch(step), tick, lenient=step.placeholder)
            except PreconditionFailedError as exc:
                self._break(world, step.name, tick, exc.predicate or str(exc))
                return
            world.record("StepEnd", tick, self.payload(step))
            self.last_completed_step = step.name
            if self.status is RunStatus.INTERRUPTED:
                return  # the step ended at the interrupt tick
        self.status = RunStatus.COMPLETED
        world.record(
            "WorkflowComplete", tick,
            {"run": self.id, "workflow": self.workflow.name, "last": self.last_completed_step},
        )

    def _walk(self, seq: Seq, world: World, horizon: int) -> Iterator[WorkflowStep]:
        """The steps of ``seq`` in control order: one cursor move per item
        visited, one per loop test and one on leaving ``seq``."""
        for item in seq.items:
            self._move()
            if isinstance(item, WorkflowStep):
                yield item
            elif isinstance(item, Seq):
                yield from self._walk(item, world, horizon)
            elif isinstance(item, Cond):
                body = item.then_body if item.guard.holds(world, self._tick, self.binding) else item.else_body
                if body is not None:
                    yield from self._walk(body, world, horizon)
            elif isinstance(item, Loop):
                for done in count():
                    self._move()
                    if item.count is not None:
                        again = done < item.count
                    elif item.guard is not None:
                        again = not item.guard.holds(world, self._tick, self.binding)
                    else:  # until_end: rescheduled while the horizon allows
                        again = self._tick <= horizon
                    if not again:
                        break
                    yield from self._walk(item.body, world, horizon)
        self._move()

    def _move(self) -> None:
        # count every move, not only steps begun: a loop whose iterations
        # begin no step livelocks as surely as a zero-duration one
        self._moves += 1
        if self._moves > SPIN_LIMIT:
            raise SimulationError(
                f"run {self.id} ('{self.workflow.name}') made {SPIN_LIMIT} cursor moves "
                f"at tick {self._tick}; loop livelock"
            )

    def _break(self, world: World, step_name: str, tick: int, predicate: str) -> None:
        self.status = RunStatus.BROKEN
        world.record(
            "WorkflowBroken", tick,
            {"run": self.id, "workflow": self.workflow.name, "step": step_name, "predicate": predicate},
        )


def check_scenario(world: World, sc: Scenario) -> Iterator[tuple[str, int, XfoError]]:
    """Every reason ``sc`` cannot be loaded on ``world``, in scenario order.

    Yields (field, index, error): the Scenario field at fault ("horizon",
    "rules", "init" or "schedule"), the offending entry's index in it, and
    the error loading raises for it. A world already past tick 0, or one
    a Simulation has loaded, is the "horizon" field's fault, since a
    scenario's time starts at 0 and a world takes one scenario. Writes
    nothing to the world.
    """
    label = f"scenario '{sc.name}'"
    if sc.horizon <= 0:
        yield "horizon", 0, ResolveError(f"{label}: horizon must be positive")
    try:
        world._require_tick(0)
    except TickOrderError as exc:
        yield "horizon", 0, InvalidInitialLinkError(f"{label}: initial state: {exc}")
    else:
        if world.scenario_name is not None:
            yield "horizon", 0, InvalidInitialLinkError(
                f"{label}: initial state: the world has already loaded scenario '{world.scenario_name}'")
    for i, name in enumerate(sc.rules):
        if name not in world.rules:
            yield "rules", i, ResolveError(f"{label}: unknown rule '{name}'")
    seen: set[tuple] = set()
    for i, t in enumerate(sc.init):
        triple = (t.from_ref, t.kind, t.to_ref)
        try:
            if triple in seen:
                raise LinkEditError(f"link '{t.from_ref}' {t.kind} '{t.to_ref}' is given more than once", triple)
            world.check_link(*triple)
            seen.add(triple)
        except XfoError as exc:
            yield "init", i, InvalidInitialLinkError(f"initial link '{t}': {exc}")
    n_runs = len(sc.run_specs())
    for i, item in enumerate(sc.schedule):
        if item.at is None:
            yield "schedule", i, ResolveError(f"{label}: {item!r} has no tick")
        elif item.at < 0:
            yield "schedule", i, ResolveError(f"{label}: tick {item.at} is before tick 0")
        elif item.at > sc.horizon > 0:  # a horizon below 1 is reported once, above
            yield "schedule", i, ResolveError(f"{label}: tick {item.at} is past the horizon {sc.horizon}")
        try:
            if not isinstance(item, InterruptDirective):
                check_action(world, item)
            elif not 0 <= item.run < n_runs:
                raise ResolveError(f"no run with ordinal {item.run}")
        except XfoError as exc:
            yield "schedule", i, exc.within(label)


class Simulation:
    """Executes one scenario over one world. Single-threaded by contract."""

    def __init__(self, world: World, scenario: Scenario):
        # Check everything before writing anything: a refused scenario
        # leaves the world untouched.
        error = next(check_scenario(world, scenario), None)
        if error is not None:
            raise error[2]
        self.world = world
        self.scenario = scenario
        self.runs: list[WorkflowRun] = []
        self.queue: list[tuple[int, int, Callable[[int], int | None]]] = []  # a heap; see the module docstring
        self._order = count()
        self.now = 0  # next unprocessed tick
        self.ticks_visited = 0
        self.guards_evaluated = 0
        # Enabled rules in definition order, and the positions in it of the
        # rules with a guard predicate under each staleness key (see the
        # module docstring); every rule starts stale.
        self._rules = [rule for name, rule in world.rules.items() if name in scenario.rules]
        self._readers: dict[tuple, list[int]] = {}
        for i, rule in enumerate(self._rules):
            for p in rule.guard:
                self._readers.setdefault(_stale_key(p), []).append(i)
        self._stale_rules = set(range(len(self._rules)))
        self._rule_prev: dict[str, bool] = dict.fromkeys(scenario.rules, False)
        self._fired = {r.name: FrozenPayload(rule=r.name, action=r.action.render()) for r in self._rules}
        world.edit((), [(t.from_ref, t.kind, t.to_ref) for t in scenario.init], 0)
        world.scenario_name = scenario.name
        self._read = len(world.trace)  # position of the first event _stale has not read
        for item in scenario.schedule:
            if isinstance(item, RunSpec):
                self._queue_run(item, item.at)
            elif isinstance(item, InterruptDirective):
                self._push(item.at, partial(_interrupt, world, self.runs, item.run))
            else:
                self._push(item.at, partial(_apply, world, item))

    # ------------------------------------------------------------------
    # public operations

    def run_until(self, t: int) -> None:
        """Advance to the end of tick t; callers read ``world.trace``.

        Repeated calls with increasing t extend the same trace; a second
        call with a smaller t is a no-op.
        """
        if t > self.scenario.horizon:
            raise XfoError(f"run_until({t}): beyond scenario horizon {self.scenario.horizon}")
        while self.now <= t:
            tick = self.now
            self.ticks_visited += 1
            self._drain(tick)
            self._rules_phase(tick)
            self._drain(tick)
            if self._stale():
                self.now = tick + 1
            else:
                self.now = min(self.queue[0][0], t + 1) if self.queue else t + 1

    def interrupt(self, run_id: int, at: int):
        """Schedule an external interrupt of a run at tick `at`."""
        if not 0 <= run_id < len(self.runs):
            raise XfoError(f"no run with ordinal {run_id}")
        run = self.runs[run_id]
        if run.status in TERMINAL:
            raise NotInterruptibleError(f"run {run_id} is already {run.status.value}")
        if at < self.now:
            raise NotInterruptibleError(f"tick {at} has already been processed")
        if at > self.scenario.horizon:
            raise NotInterruptibleError(f"tick {at} is past the horizon {self.scenario.horizon}")
        self._push(at, partial(_interrupt, self.world, self.runs, run_id))

    def summary(self) -> list[tuple[int, str, str, str | None]]:
        """(id, workflow, status, lastCompletedStep) per run, in id order."""
        return [
            (r.id, r.workflow.name, r.status.value, r.last_completed_step)
            for r in self.runs
        ]

    # ------------------------------------------------------------------
    # internals

    def _push(self, tick: int, act: Callable[[int], int | None]) -> None:
        heapq.heappush(self.queue, (tick, next(self._order), act))

    def _drain(self, tick: int) -> None:
        queue = self.queue
        while queue and queue[0][0] == tick:
            act = heapq.heappop(queue)[2]
            if (again := act(tick)) is not None:
                self._push(again, act)

    def _queue_run(self, spec: RunSpec, at: int) -> None:
        wf = self.world.workflows[spec.target]
        run = WorkflowRun(len(self.runs), wf, bind_args(self.world, wf, spec.args))
        self.runs.append(run)
        life = run.life(self.world, at, self.scenario.horizon)
        self._push(next(life), partial(_resume, life))

    def _stale(self) -> set[int]:
        """The stale rules' positions, after marking stale the readers of
        the keys of each Link or Unlink event recorded since the last call."""
        trace, readers = self.world.trace, self._readers
        if readers and self._read < len(trace):  # no reader: no event can make a rule stale
            stale = self._stale_rules
            for ev in trace[self._read:]:
                if ev.kind == "Link" or ev.kind == "Unlink":
                    p = ev.payload
                    kind = p["relation"]
                    for key in ((kind,), (kind, "from", p["from"]), (kind, "to", p["to"])):
                        stale.update(readers.get(key, ()))
            self._read = len(trace)
        return self._stale_rules

    def _rules_phase(self, tick: int) -> None:
        """Evaluate the stale rules in definition order; see the module docstring."""
        stale = self._stale()
        todo = sorted(stale)  # a heap of the stale positions not yet evaluated
        while todo:
            i = heapq.heappop(todo)
            rule = self._rules[i]
            self.guards_evaluated += 1
            holds = all(p.holds(self.world, tick) for p in rule.guard)
            fires = holds and not self._rule_prev[rule.name]
            if fires:
                self._fire(rule, tick)
            # both after the action, so a run resumed after it failed
            # re-evaluates
            self._rule_prev[rule.name] = holds
            stale.discard(i)
            if fires:  # the later rules its edits made stale join this phase
                todo = [j for j in self._stale() if j > i]
                heapq.heapify(todo)

    def _fire(self, rule: Rule, tick: int) -> None:
        """Record RuleFired and take the action; a failed action leaves no record."""
        world, action = self.world, rule.action
        fired = world.record("RuleFired", tick, self._fired[rule.name])
        try:
            if isinstance(action, RunSpec):
                self._queue_run(action, tick)
            else:
                apply_action(world, action, tick)
        except XfoError as exc:
            world.unrecord(fired)
            raise SimulationError(f"rule '{rule.name}' action failed at {tick}: {exc}") from exc


def _resume(life: Generator[int, int, None], tick: int) -> int | None:
    """Send ``tick`` to a run's life: the tick it next resumes at, or None."""
    try:
        return life.send(tick)
    except StopIteration:
        return None


def _apply(world: World, action, tick: int) -> None:
    try:
        apply_action(world, action, tick)
    except XfoError as exc:
        word = ACTION_KEYWORDS[type(action)][0]
        raise SimulationError(f"{word} '{action.target}' at {tick}: {exc}") from exc


def _interrupt(world: World, runs: list[WorkflowRun], run_id: int, tick: int) -> None:
    run = runs[run_id]
    if run.status in TERMINAL:
        raise SimulationError(f"interrupt: run {run.id} is already {run.status.value}")
    run.status = RunStatus.INTERRUPTED
    run.cancelled_after = tick
    world.record("Interrupt", tick, {"run": run.id, "workflow": run.workflow.name, "last": run.last_completed_step})


def _stale_key(p: StatePredicate) -> tuple:
    """The staleness key of guard predicate ``p``; see the module docstring."""
    if not isinstance(p.to_ref, Wildcard):
        return (p.kind, "to", p.to_ref)
    if not isinstance(p.from_ref, Wildcard):
        return (p.kind, "from", p.from_ref)
    return (p.kind,)


def load_scenario(world: World, scenario: Scenario) -> Simulation:
    """Apply the scenario's initial links at tick 0 and enqueue its runs
    and directives; returns the ready-to-run simulation."""
    return Simulation(world, scenario)
