"""A reference interpreter for xfo scenarios, written from the documents
alone: GRAMMAR.md's "Semantics in one paragraph", the ``microworld``
module docstring and the ``dynamics`` docstrings. It imports no xfo
module, so it shares no code with the engine, and the tests run both on
the same inputs and compare what they give (differential testing:
McKeeman, "Differential testing for software", 1998).

It reads parsed documents: each statement's class name tells its type
apart, and its fields are read by name. The model must have loaded
without error and the scenario been accepted: no load-time check is
repeated here, and every write is at ``now``, which no event is later
than. It is as plain as the documents, and as slow:

* the world is a dict of active triples, each with the tick it started,
  and the trace a list of event dicts;
* the queue is a sorted list of (tick, order queued, entry);
* ``run_until`` visits every tick from ``now`` to its stop. Each tick
  drains the queue, evaluates every enabled rule in definition order,
  then drains again. ``now`` advances only once a tick completes, so a
  call that raises leaves ``now`` at the failing tick, and the next call
  drains the rest of that tick's queue and evaluates every rule again.

A call the engine refuses, and an action that fails when it runs, raise
``Refused``. A link is checked as tier 2 checks it (two particulars
covered by a declaration); tier 1 holds for every such pair, since a
particular's B ancestor is that of each universal above it.
"""
from __future__ import annotations

import json
from bisect import insort

SPIN_LIMIT = 10_000  # cursor moves a run may make at one tick
TERMINAL = ("Completed", "Interrupted", "Broken")
RULE_WORDS = {"RunSpec": "start_workflow", "ApplyDirective": "apply_transitional",
              "ActivateDirective": "activate_frame", "DeactivateDirective": "deactivate_frame"}


class Refused(Exception):
    """A refused call, or an action that failed when it ran."""


class _Ended(Exception):
    """A run stops before its last step: broken, or cancelled by an interrupt."""


def _kind(x) -> str:
    return type(x).__name__


def _triple(template, binding: dict) -> tuple[str, str, str]:
    return (binding.get(template.from_ref, template.from_ref), template.kind,
            binding.get(template.to_ref, template.to_ref))


def _name(statements, header: str, default: str) -> str:
    """The name of the first ``header`` statement: a document's name."""
    return next((s.name for s in statements if _kind(s) == header), default)


class Run:
    def __init__(self, run_id: int, workflow, binding: dict):
        self.id, self.workflow, self.binding = run_id, workflow, binding
        self.status, self.last, self.cancelled_at = "Pending", None, None
        self.moves, self.moved_at = 0, None


class Reference:
    """One scenario run over one model, both given as statement lists."""

    def __init__(self, model, scenario):
        self.model_name = _name(model, "ModelHeader", "model")
        self.name = _name(scenario, "ScenarioHeader", "scenario")
        self.parent: dict[str, str] = {}
        self.particulars: set[str] = set()
        self.covers: set[tuple[str, str, str]] = set()
        self.transitionals, self.frames, self.workflows, self.rules = {}, {}, {}, {}
        for s in model:
            kind = _kind(s)
            if kind == "EntityDef":
                self.parent[s.name] = s.parent
                if s.layer == "P":
                    self.particulars.add(s.name)
            elif kind == "RelationDeclaration":
                self.covers.add((s.from_u, s.kind, s.to_u))
            elif kind == "Transitional":  # its name is a particular of Transitional
                self.transitionals[s.name] = s
                self.parent[s.name] = "Transitional"
                self.particulars.add(s.name)
            elif kind == "Frame":
                self.frames[s.name] = s
            elif kind == "Workflow":
                self.workflows[s.name] = s
            elif kind == "Rule":
                self.rules[s.name] = s
        init, enabled, schedule = [], set(), []
        for s in scenario:
            kind = _kind(s)
            if kind == "HorizonStmt":
                self.horizon = s.value
            elif kind == "InitStmt":
                init.append(_triple(s.template, {}))
            elif kind == "RuleRefStmt":
                enabled.add(s.name)
            elif kind != "ScenarioHeader":
                schedule.append(s)
        self.active: dict[tuple[str, str, str], int] = {}  # triple -> tick it started
        self.events: list[dict] = []
        self.queue: list[tuple] = []
        self.order = 0
        self.now = 0
        self.runs: list[Run] = []
        self.frames_on: dict[tuple, list] = {}  # (frame, sorted pairs) -> (triple, start) per link
        self.enabled = [r for name, r in self.rules.items() if name in enabled]
        self.prev = {r.name: False for r in self.enabled}
        self._edit((), init, 0)
        for item in schedule:
            if _kind(item) == "RunSpec":
                self._start(item, item.at)
            elif _kind(item) == "InterruptDirective":
                self._push(item.at, lambda run=item.run: self._interrupt(run))
            else:
                self._push(item.at, lambda action=item: self._act(action))

    # ------------------------------------------------------------------
    # the calls a test makes

    def run_until(self, t: int) -> None:
        if t > self.horizon:
            raise Refused(f"run_until({t}) is past the horizon {self.horizon}")
        while self.now <= t:
            self._drain()
            self._rules_phase()
            self._drain()
            self.now += 1

    def interrupt(self, run_id: int, at: int) -> None:
        if not 0 <= run_id < len(self.runs):
            raise Refused(f"no run {run_id}")
        if self.runs[run_id].status in TERMINAL:
            raise Refused(f"run {run_id} is already {self.runs[run_id].status}")
        if not self.now <= at <= self.horizon:
            raise Refused(f"tick {at} is processed or past the horizon")
        self._push(at, lambda: self._interrupt(run_id))

    def apply_transitional(self, name: str, at: int) -> None:
        """Apply a transitional at ``at`` from outside the simulation."""
        tr = self.transitionals[name]
        self._edit([_triple(u, {}) for u in tr.unlinks], [_triple(k, {}) for k in tr.links], at)

    def summary(self) -> list[tuple]:
        return [(r.id, r.workflow.name, r.status, r.last) for r in self.runs]

    def trace_json(self) -> str:
        doc = {"model": self.model_name, "scenario": self.name, "horizon": self.horizon,
               "version": 1, "events": self.events}
        return json.dumps(doc, indent=2) + "\n"

    # ------------------------------------------------------------------
    # the world: links, validity, predicates

    def _record(self, kind: str, at: int, payload: dict) -> None:
        self.events.append({"seq": len(self.events), "at": at, "kind": kind, "payload": payload})

    def _ancestors(self, entity: str) -> list[str]:
        out = []
        while entity is not None:
            out.append(entity)
            entity = self.parent.get(entity)
        return out

    def _invalid(self, f: str, kind: str, t: str) -> str | None:
        """Why link ``f kind t`` may not be made, or None if it may."""
        for e in (f, t):
            if e not in self.particulars:
                return f"'{e}' is not a P-layer entity; links relate particulars"
        if any((u, kind, v) in self.covers for u in self._ancestors(f) for v in self._ancestors(t)):
            return None
        return (f"no declaration covers '{f}' {kind} '{t}' "
                f"(universals '{self.parent[f]}' / '{self.parent[t]}')")

    def _edit(self, unlinks, links, at: int) -> None:
        """End ``unlinks``, then start ``links``, at ``at``: all or nothing.
        A refusal names the predicate that failed."""
        for t in unlinks:
            if t not in self.active:
                raise Refused(f"exists {' '.join(t)}")
        for t in links:
            if t in self.active:
                raise Refused(f"not_exists {' '.join(t)}")
            why = self._invalid(*t)
            if why is not None:
                raise Refused(why)
        for t in unlinks:
            del self.active[t]
            self._record("Unlink", at, {"from": t[0], "relation": t[1], "to": t[2]})
        for t in links:
            self.active[t] = at
            self._record("Link", at, {"from": t[0], "relation": t[1], "to": t[2]})

    def _side(self, ref, binding: dict) -> str:
        return f"any:{ref.utype}" if _kind(ref) == "Wildcard" else binding.get(ref, ref)

    def _render(self, p, binding: dict) -> str:
        word = "exists" if p.exists else "not_exists"
        return f"{word} {self._side(p.from_ref, binding)} {p.kind} {self._side(p.to_ref, binding)}"

    def _holds(self, p, binding: dict) -> bool:
        def fits(ref, entity) -> bool:
            if _kind(ref) == "Wildcard":
                return ref.utype in self._ancestors(entity)
            return binding.get(ref, ref) == entity

        found = any(k == p.kind and fits(p.from_ref, f) and fits(p.to_ref, t) for f, k, t in self.active)
        return found == p.exists

    # ------------------------------------------------------------------
    # actions: a scenario directive, or a rule's action at the tick it fires

    def _act(self, action) -> None:
        kind = _kind(action)
        if kind == "ApplyDirective":
            self.apply_transitional(action.target, self.now)
        elif kind == "ActivateDirective":
            self._activate(action.target, action.binding)
        else:
            self._deactivate(action.target, action.binding)

    def _activate(self, frame: str, binding) -> None:
        key = (frame, tuple(sorted(binding)))
        if key in self.frames_on:
            raise Refused(f"frame '{frame}' is already active for this binding")
        values = dict(key[1])
        triples = [_triple(t, values) for t in self.frames[frame].templates]
        if len(set(triples)) < len(triples):
            raise Refused(f"frame '{frame}': the binding collapses two templates")
        self._record("FrameActivate", self.now, {"frame": frame, "binding": values})
        try:
            self._edit((), triples, self.now)
        except Refused:
            self.events.pop()
            raise
        self.frames_on[key] = [(t, self.now) for t in triples]

    def _deactivate(self, frame: str, binding) -> None:
        key = (frame, tuple(sorted(binding)))
        made = self.frames_on.get(key)
        if made is None:
            raise Refused(f"frame '{frame}' is not active for this binding")
        if any(self.active.get(t) != start for t, start in made):
            raise Refused(f"frame '{frame}' activation is no longer atomic")
        self._record("FrameDeactivate", self.now, {"frame": frame, "binding": dict(key[1])})
        self._edit([t for t, _ in made], (), self.now)
        del self.frames_on[key]

    def _interrupt(self, run_id: int) -> None:
        run = self.runs[run_id]
        if run.status in TERMINAL:
            raise Refused(f"interrupt: run {run_id} is already {run.status}")
        run.status, run.cancelled_at = "Interrupted", self.now
        self._record("Interrupt", self.now, {"run": run.id, "workflow": run.workflow.name, "last": run.last})

    # ------------------------------------------------------------------
    # the queue and the rules

    def _push(self, tick: int, entry) -> None:
        insort(self.queue, (tick, self.order, entry))
        self.order += 1

    def _drain(self) -> None:
        while self.queue and self.queue[0][0] == self.now:
            entry = self.queue.pop(0)[2]
            again = entry()
            if again is not None:
                self._push(again, entry)

    def _rules_phase(self) -> None:
        for rule in self.enabled:
            holds = all(self._holds(p, {}) for p in rule.guard)
            if holds and not self.prev[rule.name]:
                self._fire(rule)
            self.prev[rule.name] = holds

    def _fire(self, rule) -> None:
        action = rule.action
        kind = _kind(action)
        if kind == "RunSpec":
            operand = f"{action.target}({', '.join(map(str, action.args))})"
        elif kind == "ApplyDirective":
            operand = action.target
        else:
            operand = f"{action.target}({', '.join(f'{k}={v}' for k, v in action.binding)})"
        self._record("RuleFired", self.now, {"rule": rule.name, "action": f"{RULE_WORDS[kind]} {operand}"})
        try:
            if kind == "RunSpec":
                self._start(action, self.now)
            else:
                self._act(action)
        except Refused:
            self.events.pop()  # a failed action leaves no RuleFired
            raise

    # ------------------------------------------------------------------
    # workflow runs

    def _start(self, spec, at: int) -> None:
        wf = self.workflows[spec.target]
        run = Run(len(self.runs), wf, dict(zip(wf.params, spec.args)))
        self.runs.append(run)
        life = self._life(run)
        self._push(at, lambda: next(life, None))

    def _life(self, run: Run):
        """The run: each ``yield`` gives the tick a step ends at, and the
        run goes on when the queue reaches that tick."""
        if run.status != "Pending":  # interrupted before it started
            return
        run.status = "Running"
        self._record("WorkflowStart", self.now, {"run": run.id, "workflow": run.workflow.name})
        try:
            yield from self._walk(run, run.workflow.body)
        except _Ended:
            return
        run.status = "Completed"
        self._record("WorkflowComplete", self.now,
                     {"run": run.id, "workflow": run.workflow.name, "last": run.last})

    def _move(self, run: Run) -> None:
        """One cursor move: per item visited, per loop test, per block left."""
        if run.moved_at != self.now:
            run.moves, run.moved_at = 0, self.now
        run.moves += 1
        if run.moves > SPIN_LIMIT:
            raise Refused(f"run {run.id} made {SPIN_LIMIT} cursor moves at tick {self.now}")

    def _walk(self, run: Run, seq):
        for item in seq.items:
            self._move(run)
            kind = _kind(item)
            if kind == "WorkflowStep":
                yield from self._step(run, item)
            elif kind == "Seq":
                yield from self._walk(run, item)
            elif kind == "Cond":  # the guard is read when control reaches it
                body = item.then_body if self._holds(item.guard, run.binding) else item.else_body
                if body is not None:
                    yield from self._walk(run, body)
            else:  # a loop: its test is read before each iteration
                done = 0
                while True:
                    self._move(run)
                    if item.count is not None:
                        again = done < item.count
                    elif item.guard is not None:
                        again = not self._holds(item.guard, run.binding)
                    else:  # until end
                        again = self.now <= self.horizon
                    if not again:
                        break
                    yield from self._walk(run, item.body)
                    done += 1
        self._move(run)

    def _break(self, run: Run, step: str, predicate: str):
        run.status = "Broken"
        self._record("WorkflowBroken", self.now, {"run": run.id, "workflow": run.workflow.name,
                                                  "step": step, "predicate": predicate})
        raise _Ended

    def _step(self, run: Run, step):
        """A step occupies [start, start + duration): its preconditions are
        read at its start, its effects apply at its end."""
        for p in step.preconditions:
            if not self._holds(p, run.binding):
                self._break(run, step.name, self._render(p, run.binding))
        payload = {"run": run.id, "workflow": run.workflow.name, "step": step.name}
        self._record("StepStart", self.now, payload)
        duration = step.duration if isinstance(step.duration, int) else run.binding[step.duration]
        yield self.now + duration
        if run.status == "Interrupted" and run.cancelled_at != self.now:
            raise _Ended  # cancelled: the interrupt came at an earlier tick
        unlinks = [_triple(t, run.binding) for t in step.unlinks]
        links = [_triple(t, run.binding) for t in step.links]
        edits = unlinks + links
        for i, t in enumerate(edits):
            if t in edits[:i]:
                self._break(run, step.name, f"binding collapses two edits onto {' '.join(t)}")
        if step.placeholder:  # lenient: skip an inactive unlink or an active link
            unlinks = [t for t in unlinks if t in self.active]
            links = [t for t in links if t not in self.active]
        try:
            self._edit(unlinks, links, self.now)
        except Refused as exc:
            self._break(run, step.name, str(exc))
        self._record("StepEnd", self.now, payload)
        run.last = step.name
        if run.status == "Interrupted":  # the step ended at the interrupt tick
            raise _Ended
