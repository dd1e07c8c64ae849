"""The engine against the reference interpreter in ``reference.py``.

``Simulation`` skips idle ticks and re-evaluates a rule only after a Link
or Unlink event under one of its guard's keys: (kind, "to", entity) for a
predicate whose ``to`` side is concrete, else (kind, "from", entity) when
its ``from`` side is, else (kind,). ``reference.Reference`` shares no code
with it: it visits every tick up to the stop and evaluates every enabled
rule at each one, as GRAMMAR.md and the ``microworld`` docstring describe
the scheduler. Both run the same parsed documents and the same calls, and
must give the same trace JSON, run summary, and refused-or-not and ``now``
after each call; the reference's messages are its own. The inputs are
models and scenarios drawn by ``worlds``, the hand-written cases here and
in ``test_reference.py``, and the shipped runs, straight through and one
tick at a time. The deterministic counters at the end read the engine
alone.
"""
from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from xfo import loader
from xfo.dsl import parse_model, parse_scenario
from xfo.dynamics import Rule, RunSpec, apply_transitional
from xfo.errors import SimulationError, XfoError
from xfo.microworld import Simulation
from xfo.trace import trace_to_json

from helpers import MODELS_DIR, SHIPPED_RUNS, SHIPPED_TRACE_SHA256, load_shipped_scenario, load_world
from reference import Reference, Refused

# ----------------------------------------------------------------------
# the engine and the reference on one input


class _TickLog(Simulation):
    """A ``Simulation`` that lists the ticks of its rules phases."""

    def __init__(self, world, scenario):
        super().__init__(world, scenario)
        self.ticks: list[int] = []

    def _rules_phase(self, tick: int) -> None:
        self.ticks.append(tick)
        super()._rules_phase(tick)


def _documents(model_text: str, scenario_text: str):
    """The parsed model and scenario documents, each checked to parse."""
    mres = parse_model(model_text, "m.xfo")
    assert mres.ok, [d.render() for d in mres.diagnostics]
    sres = parse_scenario(scenario_text, "s.xws")
    assert sres.ok, [d.render() for d in sres.diagnostics]
    return mres.document, sres.document


def _simulation(engine, model_text: str, scenario_text: str, extra=()) -> Simulation:
    """An ``engine`` simulation of the scenario over a fresh world, with
    the definitions in ``extra`` loaded after the model's."""
    mdoc, sdoc = _documents(model_text, scenario_text)
    world, diags = loader.build_world(mdoc._replace(statements=mdoc.statements + tuple(extra)))
    assert not diags, [d.render() for d in diags]
    scenario, sdiags = loader.build_scenario(sdoc, world)
    assert scenario is not None and not sdiags, [d.render() for d in sdiags]
    return engine(world, scenario)


def _reference(model_text: str, scenario_text: str, extra=()) -> Reference:
    mdoc, sdoc = _documents(model_text, scenario_text)
    return Reference(mdoc.statements + tuple(extra), sdoc.statements)


def _outcome(call, *args, refusal=XfoError) -> bool:
    """Whether ``call(*args)`` is refused."""
    try:
        call(*args)
    except refusal:
        return True
    return False


def _observe(sim: Simulation, ops) -> dict:
    """Run ``ops`` on engine simulation ``sim`` and return everything
    observable: each call's refused-or-not and ``now`` after it, the trace
    JSON and the summary. An "apply" op writes to the world directly, at
    ``now``, outside the simulation."""
    world, scenario = sim.world, sim.scenario
    calls = []
    for op in ops:
        if op[0] == "run_until":
            calls.append((op, _outcome(sim.run_until, op[1]), sim.now))
        elif op[0] == "apply":
            calls.append((op, _outcome(apply_transitional, world, world.transitionals[op[1]], sim.now), sim.now))
        else:
            _, run, delta = op
            calls.append((op, _outcome(sim.interrupt, run, sim.now + delta), sim.now))
        # events removed after a failed action leave no gap
        assert [e.seq for e in world.trace] == list(range(len(world.trace)))
    return {
        "calls": calls,
        "trace": trace_to_json(world.model_name, scenario.name, scenario.horizon, world.trace),
        "summary": sim.summary(),
    }


def _observe_reference(ref: Reference, ops) -> dict:
    """``_observe`` of the same ``ops`` on the reference."""
    calls = []
    for op in ops:
        if op[0] == "run_until":
            calls.append((op, _outcome(ref.run_until, op[1], refusal=Refused), ref.now))
        elif op[0] == "apply":
            calls.append((op, _outcome(ref.apply_transitional, op[1], ref.now, refusal=Refused), ref.now))
        else:
            _, run, delta = op
            calls.append((op, _outcome(ref.interrupt, run, ref.now + delta, refusal=Refused), ref.now))
    return {"calls": calls, "trace": ref.trace_json(), "summary": ref.summary()}


def run_both(model_text: str, scenario_text: str, ops, engine=Simulation, extra=()):
    """The engine's observation of ``ops`` on a fresh ``engine`` simulation,
    after checking that the reference observes the same; and the simulation."""
    sim = _simulation(engine, model_text, scenario_text, extra)
    got = _observe(sim, ops)
    assert got == _observe_reference(_reference(model_text, scenario_text, extra), ops)
    return got, sim


# ----------------------------------------------------------------------
# generated models and scenarios, as DSL text

ENTITIES = ("p0", "p1", "g0")
# wildcards first and twice: guards over a whole kind see most writes to it
REFS = ("any:Thing", "any:Gadget", "any:Thing") + ENTITIES


@st.composite
def worlds(draw):
    kinds = [f"K{i}" for i in range(draw(st.integers(2, 3)))]
    triple = st.tuples(st.sampled_from(ENTITIES), st.sampled_from(kinds), st.sampled_from(ENTITIES))
    pred = st.builds(
        lambda word, f, k, t: f"{word} {f} {k} {t}",
        st.sampled_from(("exists", "not_exists")), st.sampled_from(REFS), st.sampled_from(kinds),
        st.sampled_from(REFS),
    )
    lines = [
        "model Gen",
        "universal Thing is_a B_Object",
        "universal Gadget is_a Thing",
        "particular p0 instance_of Thing",
        "particular p1 instance_of Thing",
        "particular g0 instance_of Gadget",
    ]
    for k in kinds:
        lines += [f"relation {k} from B_Object to B_Object", f"relate Thing {k} Thing"]

    transitionals = [f"T{i}" for i in range(draw(st.integers(1, 2)))]
    for name in transitionals:
        edits = draw(st.lists(triple, min_size=1, max_size=3, unique=True))
        n_unlinks = draw(st.integers(0, len(edits) - 1))
        lines.append(f"transitional {name} {{")
        lines += [f"  unlink {' '.join(t)}" for t in edits[:n_unlinks]]
        lines += [f"  link {' '.join(t)}" for t in edits[n_unlinks:]]
        lines.append("}")

    frames = [f"F{i}" for i in range(draw(st.integers(1, 2)))]
    for name in frames:
        lines += [f"frame {name} {{", "  slot x", "  slot y", f"  link x {draw(st.sampled_from(kinds))} y"]
        if draw(st.booleans()):
            lines.append(f"  link y {draw(st.sampled_from(kinds))} x")
        lines.append("}")

    steps = [0]

    def step(indent: str, min_duration: int = 0) -> list[str]:
        steps[0] += 1
        head = f"{indent}step s{steps[0]}" + (" placeholder" if draw(st.booleans()) else "")
        out = [head + " {", f"{indent}  duration {draw(st.integers(min_duration, 3))}"]
        if draw(st.integers(0, 3)) == 2:
            out.append(f"{indent}  require {draw(pred)}")
        for t in draw(st.lists(triple, max_size=2, unique=True)):
            out.append(f"{indent}  effect {draw(st.sampled_from(('link', 'unlink')))} {' '.join(t)}")
        return out + [f"{indent}}}"]

    def body(indent: str, depth: int) -> list[str]:
        out = []
        for _ in range(draw(st.integers(1, 3))):
            node = draw(st.sampled_from(("step",) * 3 + (("loop", "until", "end", "if") if depth < 2 else ())))
            inner = indent + "  "
            if node == "step":
                out += step(indent)
            elif node == "loop":
                out += [f"{indent}loop {draw(st.integers(0, 2))} {{"] + body(inner, depth + 1) + [f"{indent}}}"]
            elif node in ("until", "end"):
                # a guarded loop needs a step of positive duration in every
                # iteration, or its guard is re-read at one tick forever
                head = f"until {draw(pred)}" if node == "until" else "until end"
                out += [f"{indent}loop {head} {{"] + step(inner, 1) + body(inner, depth + 1) + [f"{indent}}}"]
            else:
                out += [f"{indent}if {draw(pred)} {{"] + body(inner, depth + 1)
                if draw(st.booleans()):
                    out += [f"{indent}}} else {{"] + body(inner, depth + 1)
                out.append(f"{indent}}}")
        return out

    workflows = [f"W{i}" for i in range(draw(st.integers(1, 2)))]
    for name in workflows:
        lines += [f"mechanism {name} {{"] + body("  ", 0) + ["}"]

    def binding() -> str:
        x, y = draw(st.permutations(ENTITIES))[:2]
        return f"x={x}, y={y}"

    rules = [f"R{i}" for i in range(draw(st.integers(1, 4)))]
    for name in rules:
        action = draw(st.sampled_from(
            ("apply_transitional", "activate_frame", "deactivate_frame") + ("start_workflow",) * 3
        ))
        if action == "apply_transitional":
            then = f"apply_transitional {draw(st.sampled_from(transitionals))}"
        elif action == "start_workflow":
            then = f"start_workflow {draw(st.sampled_from(workflows))}()"
        else:
            then = f"{action} {draw(st.sampled_from(frames))}({binding()})"
        whens = [f"  when {p}" for p in draw(st.lists(pred, min_size=1, max_size=2))]
        lines += [f"rule {name} {{"] + whens + [f"  then {then}", "}"]

    horizon = draw(st.integers(1, 25))
    at = st.integers(0, horizon)
    sc = ["scenario gen", f"horizon {horizon}"]
    sc += [f"init {' '.join(t)}" for t in draw(st.lists(triple, max_size=3, unique=True))]
    sc += [f"rule {r}" for r in draw(st.lists(st.sampled_from(rules), min_size=1, max_size=len(rules), unique=True))]
    n_runs = 0
    activated = []  # (frame and binding, tick): most deactivations undo one
    for kind in draw(st.lists(st.sampled_from(("run", "activate", "deactivate", "apply", "interrupt")), min_size=1, max_size=8)):
        if kind == "run":
            sc.append(f"run {draw(st.sampled_from(workflows))}() at {draw(at)}")
            n_runs += 1
        elif kind == "apply":
            sc.append(f"apply {draw(st.sampled_from(transitionals))} at {draw(at)}")
        elif kind == "interrupt":
            if n_runs:
                sc.append(f"interrupt {draw(st.integers(0, n_runs - 1))} at {draw(at)}")
        elif kind == "activate":
            activated.append((f"{draw(st.sampled_from(frames))}({binding()})", draw(at)))
            sc.append(f"activate {activated[-1][0]} at {activated[-1][1]}")
        elif activated and draw(st.integers(0, 3)):
            frame, start = draw(st.sampled_from(activated))
            sc.append(f"deactivate {frame} at {draw(st.integers(start, horizon))}")
        else:
            sc.append(f"deactivate {draw(st.sampled_from(frames))}({binding()}) at {draw(at)}")

    stops = sorted(draw(st.lists(st.integers(0, horizon), min_size=1, max_size=4, unique=True)))
    if draw(st.booleans()):
        stops.append(horizon)
    ops = []
    for stop in stops:
        if n_runs and draw(st.integers(0, 3)) == 2:
            ops.append(("interrupt", draw(st.integers(0, n_runs - 1)), draw(st.integers(-1, 3))))
        if draw(st.integers(0, 3)) == 2:
            ops.append(("apply", draw(st.sampled_from(transitionals))))
        ops.append(("run_until", stop))
    if draw(st.integers(0, 9)) == 5:
        ops.append(("run_until", horizon + 1))  # refused: past the horizon
    return "\n".join(lines) + "\n", "\n".join(sc) + "\n", ops


@settings(max_examples=300, deadline=None)
@given(worlds())
def test_time_advance_matches_tick_by_tick_engine(case):
    run_both(*case)


SMALL = """model Small
universal Thing is_a B_Object
particular a instance_of Thing
particular b instance_of Thing
relation K0 from B_Object to B_Object
relation K1 from B_Object to B_Object
relate Thing K0 Thing
relate Thing K1 Thing
transitional link_k0 {
  link a K0 b
}
transitional unlink_k0 {
  unlink a K0 b
}
transitional link_k1 {
  link a K1 b
}
transitional link_k0_ba {
  link b K0 a
}
transitional link_k0_aa {
  link a K0 a
}
mechanism idle {
  step s {
    duration 0
  }
}
mechanism write_k1 {
  step s {
    duration 0
    effect link a K1 b
  }
}
"""

# (rules, scenario lines, expected RuleFired (tick, rule), expected rules
# phase ticks and guards_evaluated); nothing is queued at the tick after
# the one where a rule's guard changes, so the engine must visit it for
# the rule's dirtiness alone
RULE_CASES = {
    "later rule's action": (
        "rule first {\n  when exists a K1 b\n  then start_workflow idle()\n}\n"
        "rule second {\n  when exists a K0 b\n  then apply_transitional link_k1\n}\n",
        ["apply link_k0 at 2"],
        [(2, "second"), (3, "first")],
        ([0, 2, 3], 4),
    ),
    "second drain": (
        "rule first {\n  when exists a K1 b\n  then start_workflow idle()\n}\n"
        "rule second {\n  when exists a K0 b\n  then start_workflow write_k1()\n}\n",
        ["apply link_k0 at 2"],
        [(2, "second"), (3, "first")],
        ([0, 2, 3], 4),
    ),
    "own action": (
        "rule undo {\n  when exists a K0 b\n  then apply_transitional unlink_k0\n}\n",
        ["apply link_k0 at 2", "apply link_k0 at 6"],
        [(2, "undo"), (6, "undo")],
        ([0, 2, 3, 6, 7], 5),
    ),
    # the link at 2 is of the guard's kind, but to another entity
    "other entity": (
        "rule watch {\n  when exists any:Thing K0 b\n  then start_workflow idle()\n}\n",
        ["apply link_k0_ba at 2", "apply link_k0 at 5"],
        [(5, "watch")],
        ([0, 2, 5], 2),
    ),
    # re-read at 2 and 6 (K0), not at 4 (K1)
    "both sides wildcards": (
        "rule any {\n  when exists any:Thing K0 any:Thing\n  then start_workflow idle()\n}\n",
        ["apply link_k0_ba at 2", "apply link_k1 at 4", "apply link_k0 at 6"],
        [(2, "any")],
        ([0, 2, 4, 6], 3),
    ),
    # re-read at 4 and 6 (a K0 b), not at 2 (b K0 a)
    "both sides concrete": (
        "rule vacant {\n  when not_exists a K0 b\n  then start_workflow idle()\n}\n",
        ["apply link_k0_ba at 2", "apply link_k0 at 4", "apply unlink_k0 at 6"],
        [(0, "vacant"), (6, "vacant")],
        ([0, 2, 4, 6], 3),
    ),
    # re-read at 4 (a K0 a), not at 2 (a K0 b)
    "same entity on both sides": (
        "rule loop {\n  when exists a K0 a\n  then start_workflow idle()\n}\n",
        ["apply link_k0 at 2", "apply link_k0_aa at 4"],
        [(4, "loop")],
        ([0, 2, 4], 2),
    ),
}


@pytest.mark.parametrize("case", sorted(RULE_CASES))
def test_rule_dirtied_within_a_tick_is_evaluated_at_the_next(case):
    rules, directives, fired, visits = RULE_CASES[case]
    names = [line.split()[1] for line in rules.splitlines() if line.startswith("rule ")]
    scenario = "\n".join(["scenario s", "horizon 9"] + [f"rule {n}" for n in names] + directives) + "\n"
    got, sim = run_both(SMALL + rules, scenario, [("run_until", 9)], engine=_TickLog)
    events = json.loads(got["trace"])["events"]
    assert [(e["at"], e["payload"]["rule"]) for e in events if e["kind"] == "RuleFired"] == fired
    assert (sim.ticks, sim.guards_evaluated) == visits


def _school(k: int, vacancies) -> tuple[str, str]:
    """A school-shaped model and scenario: ``k`` staffed roles, each with a
    vacancy rule whose action hires its teacher back, and a vacancy (the
    teacher leaving) at each (tick, role) of ``vacancies``."""
    model = ["model Schools", "universal Person is_a B_Object", "universal Role is_a B_Role",
             "relate Person Has_Role Role"]
    scenario = ["scenario vacancies", "horizon 40"]
    for r in range(k):
        model += [
            f"particular role{r} instance_of Role",
            f"particular teacher{r} instance_of Person",
            f"transitional leave{r} {{", f"  unlink teacher{r} Has_Role role{r}", "}",
            f"transitional hire{r} {{", f"  link teacher{r} Has_Role role{r}", "}",
            f"rule vacancy{r} {{", f"  when not_exists any:Person Has_Role role{r}",
            f"  then apply_transitional hire{r}", "}",
        ]
        scenario += [f"init teacher{r} Has_Role role{r}", f"rule vacancy{r}"]
    scenario += [f"apply leave{r} at {t}" for t, r in vacancies]
    return "\n".join(model) + "\n", "\n".join(scenario) + "\n"


def test_a_link_edit_re_reads_only_the_rules_naming_its_role():
    # each vacancy's rule is read at its tick, fires and hires, and is read
    # once more at the next tick for its own edit; the other rules, of the
    # same kind, stay clean, so only the first evaluations grow with k
    vacancies = [(10, 0), (20, 1), (30, 0)]
    extra = []
    for k in (5, 40):
        model, scenario = _school(k, vacancies)
        _, sim = run_both(model, scenario, [("run_until", 40)])
        extra.append(sim.guards_evaluated - k)
    assert extra == [2 * len(vacancies)] * 2


def test_failed_rule_action_leaves_no_rule_fired():
    # the rule fires at tick 0 and unlinks a link that is not active; each
    # retry of the tick fails the same way and records nothing
    rules = "rule undo {\n  when not_exists a K0 b\n  then apply_transitional unlink_k0\n}\n"
    ops = [("run_until", 3)] * 3
    got, sim = run_both(SMALL + rules, "scenario s\nhorizon 9\nrule undo\n", ops)
    assert [(refused, now) for _, refused, now in got["calls"]] == [(True, 0)] * 3
    assert json.loads(got["trace"])["events"] == []
    error = "^rule 'undo' action failed at 0: unlink target not active: a K0 b$"
    with pytest.raises(SimulationError, match=error):
        sim.run_until(3)


def test_rule_with_no_guard_fires_at_tick_zero():
    # the DSL needs a 'when'; the API takes an empty conjunction, which holds
    got, _ = run_both(SMALL, "scenario s\nhorizon 3\nrule always\n", [("run_until", 3)],
                    extra=[Rule("always", (), RunSpec("idle"))])
    first = json.loads(got["trace"])["events"][0]
    assert (first["at"], first["kind"]) == (0, "RuleFired")


@pytest.mark.parametrize("model,scenario", SHIPPED_RUNS)
def test_shipped_scenarios_match_tick_by_tick_engine(model, scenario):
    # run straight through, and stepped one tick at a time
    texts = [(MODELS_DIR / name).read_text(encoding="utf-8") for name in (model, scenario)]
    horizon = load_shipped_scenario(load_world(model), scenario).horizon
    for stops in ([horizon], range(horizon + 1)):
        got, _ = run_both(*texts, [("run_until", stop) for stop in stops])
        assert not any(refused for _, refused, _ in got["calls"])
        assert hashlib.sha256(got["trace"].encode("utf-8")).hexdigest() == SHIPPED_TRACE_SHA256[scenario]


# ----------------------------------------------------------------------
# deterministic counters


@pytest.mark.parametrize("horizon", [10, 100_000])
def test_school_hire_counters_do_not_grow_with_the_horizon(horizon):
    world = load_world("school.xfo")
    text = (MODELS_DIR / "school_hire.xws").read_text(encoding="utf-8")
    assert "horizon 10\n" in text
    sres = parse_scenario(text.replace("horizon 10\n", f"horizon {horizon}\n"), "school_hire.xws")
    sc, diags = loader.build_scenario(sres.document, world)
    assert sc is not None and not diags
    sim = _TickLog(world, sc)
    sim.run_until(horizon)
    # ticks 0, 4 and 8 hold directives; 4 also fires the vacancy rule,
    # whose workflow's steps end at 5, 7 and 8
    assert sim.ticks == [0, 4, 5, 7, 8]
    assert sim.ticks_visited == 5
    # the vacancy rule reads only Has_Role links to teacher_role, which the
    # frame directives at 0, 4 and 8 change, each before the rules phase
    # of its tick
    assert sim.guards_evaluated == 3
    assert len(world.trace) == 32
    assert sim.summary() == [(0, "hireReplacement", "Completed", "return_with_hire")]
    assert sim.now == horizon + 1


def test_traffic_desk_counters():
    """42 Link events over 18 distinct triples: each triple's verdict is
    computed once, 12 of them for the scenario's initial links."""
    world = load_world("traffic.xfo")
    sc = load_shipped_scenario(world, "traffic_desk.xws")
    assert world.verdicts_computed == 12
    sim = Simulation(world, sc)
    sim.run_until(sc.horizon)
    assert (sim.ticks_visited, sim.guards_evaluated) == (12, 0)
    assert sum(e.kind == "Link" for e in world.trace) == 42
    assert world.verdicts_computed == 18


def test_counters_accumulate_across_calls():
    world = load_world("school.xfo")
    sc = load_shipped_scenario(world, "school_hire.xws")
    sim = Simulation(world, sc)
    assert sim.run_until(3) is None
    assert (sim.ticks_visited, sim.now) == (1, 4)
    sim.run_until(sc.horizon)
    assert (sim.ticks_visited, sim.now) == (5, sc.horizon + 1)
