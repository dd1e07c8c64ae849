"""Scheduler semantics: determinism, interrupts, broken runs, rules."""
from __future__ import annotations

import os
import subprocess
import sys

import pytest

from xfo import loader, microworld
from xfo.dsl import parse_model, parse_scenario
from xfo.errors import (
    InvalidInitialLinkError,
    NotInterruptibleError,
    PreconditionFailedError,
    ResolveError,
    SimulationError,
    UnknownActionError,
    XfoError,
)
from xfo.microworld import RunStatus, Scenario, load_scenario
from xfo.relations import World
from xfo.trace import trace_to_json

from helpers import (
    MODELS_DIR,
    hq_quality,
    link_events,
    load_shipped_scenario,
    load_world,
    model_text,
    run_scenario,
)
import traffic_oracle


def _world_and_scenario(model_text: str, scenario_text: str):
    mres = parse_model(model_text, "m.xfo")
    assert mres.ok, [d.render() for d in mres.diagnostics]
    world, diags = loader.build_world(mres.document)
    assert not diags, [d.render() for d in diags]
    sres = parse_scenario(scenario_text, "s.xws")
    assert sres.ok, [d.render() for d in sres.diagnostics]
    scenario, sdiags = loader.build_scenario(sres.document, world)
    assert scenario is not None, [d.render() for d in sdiags]
    return world, scenario


def test_desk_scenario_phases():
    world, sim, _ = run_scenario("traffic.xfo", "traffic_desk.xws")
    for at in range(13):
        for light in (traffic_oracle.LIGHT_A, traffic_oracle.LIGHT_B):
            expected = traffic_oracle.expected_quality(light, at)
            for lamp, color in expected.items():
                assert hq_quality(world, lamp, at) == color, (lamp, at)
    assert all(r.status is RunStatus.RUNNING for r in sim.runs)


def test_desk_scenario_matches_oracle_events():
    world, _, _ = run_scenario("traffic.xfo", "traffic_desk.xws")
    assert link_events(world.trace) == traffic_oracle.expected_events()


@pytest.mark.parametrize("model,scenario", [("traffic.xfo", "traffic_desk.xws"), ("school.xfo", "school_hire.xws")])
def test_each_written_link_is_validated_once(model, scenario, monkeypatch):
    """``World.edit`` validates each link it writes once, and no caller
    validates it again before: one call per Link event, in event order."""
    world = load_world(model)
    sim = load_scenario(world, load_shipped_scenario(world, scenario))
    calls = []
    validate = World.validate_link
    monkeypatch.setattr(World, "validate_link", lambda self, *t: calls.append(t) or validate(self, *t))
    before = len(world.trace)
    sim.run_until(sim.scenario.horizon)
    written = [(f, k, t) for at, kind, f, k, t in link_events(world.trace[before:]) if kind == "Link"]
    assert written and calls == written


def test_run_until_zero():
    world, sim, _ = run_scenario("traffic.xfo", "traffic_desk.xws", until=0)
    assert world.trace and all(e.at == 0 for e in world.trace)
    assert hq_quality(world, "lampA_green", 0) == "green"
    assert sim.runs[1].status is RunStatus.PENDING  # light B starts at 1


def test_monotone_extension():
    world1, sim1, scen = run_scenario("traffic.xfo", "traffic_desk.xws", until=5)
    sim1.run_until(12)
    world2, _, _ = run_scenario("traffic.xfo", "traffic_desk.xws", until=12)
    text1 = trace_to_json("Traffic", scen.name, scen.horizon, world1.trace)
    text2 = trace_to_json("Traffic", scen.name, scen.horizon, world2.trace)
    assert text1 == text2
    # re-running with a smaller t is a no-op
    n = len(world1.trace)
    sim1.run_until(3)
    assert len(world1.trace) == n


def test_determinism_byte_identical():
    texts = []
    for _ in range(2):
        world, _, scen = run_scenario("traffic.xfo", "traffic_desk.xws")
        texts.append(trace_to_json(world.model_name, scen.name, scen.horizon, world.trace))
    assert texts[0] == texts[1]


def test_run_until_past_horizon():
    world = load_world("traffic.xfo")
    scen = load_shipped_scenario(world, "traffic_desk.xws")
    sim = load_scenario(world, scen)
    with pytest.raises(XfoError):
        sim.run_until(13)


def test_disjoint_runs_project_identically():
    """Removing light B leaves light A's event subsequence unchanged."""
    full_world, _, _ = run_scenario("traffic.xfo", "traffic_desk.xws")
    world = load_world("traffic.xfo")
    scen = load_shipped_scenario(world, "traffic_desk.xws")
    solo = Scenario(scen.name, scen.horizon, scen.init,
                    tuple(scen.run_specs()[:1]), scen.rules)
    load_scenario(world, solo).run_until(12)

    def project(events):
        return [e for e in events if e[2].startswith("lampA")]

    assert project(link_events(world.trace)) == project(link_events(full_world.trace))


CELADON_STATE_TICKS = {
    0: "raw", 1: "raw", 2: "prepared", 3: "prepared", 4: "shaped",
    5: "dried", 6: "dried", 7: "dried", 8: "biscuit_fired", 9: "glazed",
    10: "glazed", 11: "glazed", 12: "glazed", 13: "glazed",
}


def test_celadon_run_completes():
    world, sim, _ = run_scenario("celadon.xfo", "celadon_run.xws")
    assert sim.summary() == [(0, "celadonProduction", "Completed", "inspect_ware")]
    for at, quality in CELADON_STATE_TICKS.items():
        if at < 14:
            assert hq_quality(world, "clay1", at) == quality, at
    assert hq_quality(world, "clay1", 14) == "glost_fired"
    kinds = [e.kind for e in world.trace]
    assert "WorkflowComplete" in kinds and "WorkflowBroken" not in kinds


def test_celadon_interrupt_mid_step():
    world, sim, _ = run_scenario("celadon.xfo", "celadon_interrupt.xws")
    run = sim.runs[0]
    assert run.status is RunStatus.INTERRUPTED
    assert run.last_completed_step == "dry_vessel"
    # effects of the interrupted firing never applied
    for at in range(6, 15):
        assert hq_quality(world, "clay1", at) == "dried"
    ivs = [e for e in world.trace if e.kind == "Interrupt"]
    assert len(ivs) == 1 and ivs[0].at == 6
    assert ivs[0].payload == {"run": 0, "workflow": "celadonProduction", "last": "dry_vessel"}
    # nothing after the interrupt tick for that run
    assert not [e for e in world.trace
                if e.at > 6 and e.payload.get("run") == 0]


@pytest.mark.parametrize("scenario,at", [("celadon_broken.xws", 10), ("celadon_interrupt.xws", 6)])
def test_a_stop_iteration_inside_a_directive_or_an_interrupt_propagates(scenario, at, monkeypatch):
    """A run's queue entry is its life's ``send``, whose StopIteration ends
    the run. One raised inside a directive's or an interrupt's call (an
    ``apply`` at 10, an ``interrupt`` at 6) is not taken for a run's end:
    it propagates out of ``run_until`` at its tick."""
    world = load_world("celadon.xfo")
    sim = load_scenario(world, load_shipped_scenario(world, scenario))

    def stop(*args):
        raise StopIteration

    record = world.record
    monkeypatch.setattr(microworld, "apply_action", stop)
    monkeypatch.setattr(world, "record", lambda kind, *a: stop() if kind == "Interrupt" else record(kind, *a))
    with pytest.raises(StopIteration):
        sim.run_until(sim.scenario.horizon)
    assert sim.now == at


def test_celadon_broken_names_predicate():
    world, sim, _ = run_scenario("celadon.xfo", "celadon_broken.xws")
    assert sim.summary() == [(0, "celadonProduction", "Broken", "cool_down")]
    broken = [e for e in world.trace if e.kind == "WorkflowBroken"]
    assert len(broken) == 1
    assert broken[0].at == 11
    assert broken[0].payload["step"] == "glost_firing"
    assert broken[0].payload["predicate"] == "exists clay1 Has_Quality glazed"
    # the spoil transitional rewound the state
    assert hq_quality(world, "clay1", 12) == "biscuit_fired"


MINI_MODEL = """
model Mini
universal Thing is_a B_Object
universal Mark is_a B_Quality
particular a instance_of Thing
particular b instance_of Thing
particular q instance_of Mark
particular r instance_of Mark
relate Thing Has_Quality Mark

mechanism flip(x) {
  step go {
    duration 1
    effect unlink x Has_Quality q
    effect link x Has_Quality r
  }
}

mechanism wait_then_flip(x, d) {
  step hold {
    duration d
  }
  step go2 {
    duration 1
    effect unlink x Has_Quality q
    effect link x Has_Quality r
  }
}
"""


def test_conflicting_edits_break_later_run():
    world, scenario = _world_and_scenario(MINI_MODEL, """
scenario clash
horizon 4
init a Has_Quality q
run flip(a) at 0
run wait_then_flip(a, 0) at 0
""")
    sim = load_scenario(world, scenario)
    sim.run_until(4)
    assert sim.runs[0].status is RunStatus.COMPLETED
    assert sim.runs[1].status is RunStatus.BROKEN
    broken = [e for e in world.trace if e.kind == "WorkflowBroken"]
    assert broken[0].payload["predicate"] == "exists a Has_Quality q"


def test_interrupt_at_step_boundary():
    """A step ending exactly at the interrupt tick applies; later ones do
    not."""
    world, scenario = _world_and_scenario(MINI_MODEL, """
scenario boundary
horizon 4
init a Has_Quality q
run wait_then_flip(a, 2) at 0
interrupt 0 at 2
""")
    sim = load_scenario(world, scenario)
    sim.run_until(4)
    run = sim.runs[0]
    assert run.status is RunStatus.INTERRUPTED
    # hold ends exactly at tick 2: it completes; go2 never runs
    assert run.last_completed_step == "hold"
    assert hq_quality(world, "a", 4) == "q"


def test_interrupt_pending_run():
    world, scenario = _world_and_scenario(MINI_MODEL, """
scenario pend
horizon 4
init a Has_Quality q
run flip(a) at 3
interrupt 0 at 1
""")
    sim = load_scenario(world, scenario)
    sim.run_until(4)
    assert sim.runs[0].status is RunStatus.INTERRUPTED
    assert not [e for e in world.trace if e.kind == "WorkflowStart"]


def test_interrupt_api_guards():
    world, sim, _ = run_scenario("celadon.xfo", "celadon_run.xws")
    with pytest.raises(NotInterruptibleError):
        sim.interrupt(0, 20)  # already Completed
    world2, scenario2 = _world_and_scenario(MINI_MODEL, """
scenario ok
horizon 4
init a Has_Quality q
run flip(a) at 3
""")
    sim2 = load_scenario(world2, scenario2)
    sim2.run_until(1)
    with pytest.raises(NotInterruptibleError):
        sim2.interrupt(0, 0)  # past tick
    with pytest.raises(NotInterruptibleError, match=r"^tick 5 is past the horizon 4$"):
        sim2.interrupt(0, 5)  # never reached, as a scenario line refuses it
    for run_id in (1, -1):
        with pytest.raises(XfoError, match=rf"^no run with ordinal {run_id}$"):
            sim2.interrupt(run_id, 3)
    sim2.interrupt(0, 3)
    sim2.run_until(4)
    assert sim2.runs[0].status is RunStatus.INTERRUPTED


def test_rule_edge_trigger_school():
    world, sim, _ = run_scenario("school.xfo", "school_hire.xws")
    fired = [e for e in world.trace if e.kind == "RuleFired"]
    assert len(fired) == 1 and fired[0].at == 4
    assert sim.summary() == [(0, "hireReplacement", "Completed", "return_with_hire")]
    starts = [e for e in world.trace if e.kind == "WorkflowStart"]
    assert starts[0].at == 4


def test_rule_fires_at_tick_zero_when_guard_initially_true():
    world, scenario = _world_and_scenario(MINI_MODEL + """
rule seed {
  when not_exists a Has_Quality r
  then start_workflow flip(a)
}
""", """
scenario auto
horizon 3
init a Has_Quality q
rule seed
""")
    sim = load_scenario(world, scenario)
    sim.run_until(3)
    fired = [e for e in world.trace if e.kind == "RuleFired"]
    assert len(fired) == 1 and fired[0].at == 0
    assert sim.runs[0].status is RunStatus.COMPLETED


def test_rule_never_fires_when_guard_false():
    world, scenario = _world_and_scenario(MINI_MODEL + """
rule never {
  when exists b Has_Quality q
  then start_workflow flip(a)
}
""", """
scenario quiet
horizon 3
init a Has_Quality q
rule never
""")
    sim = load_scenario(world, scenario)
    sim.run_until(3)
    assert not [e for e in world.trace if e.kind == "RuleFired"]
    assert sim.runs == []


def test_rules_fire_in_definition_order():
    world, scenario = _world_and_scenario(MINI_MODEL + """
transitional note_b {
  link b Has_Quality q
}
transitional note_a {
  link b Has_Quality r
}
rule z_rule {
  when exists a Has_Quality q
  then apply_transitional note_b
}
rule a_rule {
  when exists a Has_Quality q
  then apply_transitional note_a
}
""", """
scenario order
horizon 2
init a Has_Quality q
rule a_rule
rule z_rule
""")
    sim = load_scenario(world, scenario)
    sim.run_until(2)
    fired = [e.payload["rule"] for e in world.trace if e.kind == "RuleFired"]
    # model definition order, not enable order or name order
    assert fired == ["z_rule", "a_rule"]
    assert [e.at for e in world.trace if e.kind == "RuleFired"] == [0, 0]


def test_placeholder_never_broken_by_its_own_body():
    """Placeholders assert their postconditions leniently: an unlink with
    no active target and an already-active link are skipped, not errors."""
    world, scenario = _world_and_scenario("""
model PH
universal Thing is_a B_Object
universal Mark is_a B_Quality
particular a instance_of Thing
particular q instance_of Mark
particular r instance_of Mark
relate Thing Has_Quality Mark
mechanism assumed {
  step guess placeholder {
    duration 1
    effect unlink a Has_Quality r
    effect link a Has_Quality q
  }
  step after {
    duration 1
    require exists a Has_Quality q
  }
}
""", """
scenario ph
horizon 3
init a Has_Quality q
run assumed() at 0
""")
    sim = load_scenario(world, scenario)
    sim.run_until(3)
    # r was never linked and q already was; a strict step would break here
    assert sim.runs[0].status is RunStatus.COMPLETED
    assert not [e for e in world.trace if e.kind == "WorkflowBroken"]
    assert hq_quality(world, "a", 2) == "q"


FRAME_MODEL = """
model Frames
universal Person is_a B_Object
universal Org is_a B_ObjectAggregate
universal Badge is_a B_Role
universal Interest is_a B_Quality
particular pat instance_of Person
particular acme instance_of Org
particular member instance_of Badge
particular eager instance_of Interest
relation Member_Of from B_Object to B_ObjectAggregate
relate Person Member_Of Org
relate Person Has_Role Badge
relate Person Has_Quality Interest
frame Membership {
  slot person
  slot org
  slot badge
  link person Member_Of org
  link person Has_Role badge
}
transitional seed_marker {
  link pat Has_Quality eager
}
"""


ENROLL_RULE = """
rule enroll {
  when exists pat Has_Quality eager
  then activate_frame Membership(person=pat, org=acme, badge=member)
}
"""


def test_rule_action_activates_frame():
    world, scenario = _world_and_scenario(FRAME_MODEL + ENROLL_RULE, """
scenario enroll
horizon 4
rule enroll
apply seed_marker at 1
""")
    load_scenario(world, scenario).run_until(4)
    fired = [e for e in world.trace if e.kind == "RuleFired"]
    assert len(fired) == 1 and fired[0].at == 1
    acts = [e for e in world.trace if e.kind == "FrameActivate"]
    assert len(acts) == 1 and acts[0].at == 1
    assert acts[0].payload["binding"] == {"badge": "member", "org": "acme", "person": "pat"}
    assert world.active_link("pat", "Has_Role", "member") is not None


def test_defined_rule_is_inert_until_enabled():
    world, scenario = _world_and_scenario(FRAME_MODEL + ENROLL_RULE, """
scenario quiet
horizon 4
apply seed_marker at 1
""")
    load_scenario(world, scenario).run_until(4)
    assert not [e for e in world.trace if e.kind == "RuleFired"]
    assert world.active_link("pat", "Has_Role", "member") is None


def test_rule_action_deactivates_frame():
    world, scenario = _world_and_scenario(FRAME_MODEL + """
rule expel {
  when exists pat Member_Of acme
  then deactivate_frame Membership(person=pat, org=acme, badge=member)
}
""", """
scenario expel
horizon 4
rule expel
activate Membership(person=pat, org=acme, badge=member) at 1
""")
    load_scenario(world, scenario).run_until(4)
    # the activation itself makes the guard true; the rule tears it down
    deact = [e for e in world.trace if e.kind == "FrameDeactivate"]
    assert len(deact) == 1 and deact[0].at == 1
    assert world.active_link("pat", "Has_Role", "member") is None
    spans = [(l.start, l.end) for l in world.links]
    assert spans == [(1, 1), (1, 1)]  # activated and retracted within one tick


def test_zero_duration_loop_livelock_detected():
    # a loop of n iterations of one zero-duration step makes 3n + 3 cursor
    # moves at tick 0, so 3332 iterations are the most that complete
    livelock = "run 0 ('spin') made 10000 cursor moves at tick 0; loop livelock"
    for head, error in (("until end", livelock), ("3332", None), ("3333", livelock)):
        world, scenario = _world_and_scenario(f"""
model Spin
universal Thing is_a B_Object
particular a instance_of Thing
mechanism spin {{
  loop {head} {{
    step s {{
      duration 0
    }}
  }}
}}
""", """
scenario spin
horizon 2
run spin() at 0
""")
        sim = load_scenario(world, scenario)
        if error is None:
            sim.run_until(2)
            assert sim.summary() == [(0, "spin", "Completed", "s")]
            continue
        with pytest.raises(SimulationError) as info:
            sim.run_until(2)
        assert str(info.value) == error, head


SPIN_MODEL = """
model Spin
universal Thing is_a B_Object
particular a instance_of Thing
particular b instance_of Thing
relation K from B_Object to B_Object
relate Thing K Thing
mechanism spin {
  loop until exists a K b {
    if exists b K a {
      step s {
        duration 1
      }
    }
  }
}
"""

SPIN_CHILD = f"""
from xfo import loader
from xfo.dsl import parse_model, parse_scenario
from xfo.microworld import Simulation
world, _ = loader.build_world(parse_model({SPIN_MODEL!r}).document)
doc = parse_scenario("scenario s\\nhorizon 5\\nrun spin() at 1\\n").document
sim = Simulation(world, loader.build_scenario(doc, world)[0])
try:
    sim.run_until(3)
except Exception as exc:
    print(type(exc).__name__, exc, sim.summary())
"""


def test_loop_whose_iterations_begin_no_step_is_refused():
    # Each iteration takes no step, so nothing can change the loop's guard.
    # Run in a child process: an engine that does not count these cursor
    # moves loops forever, and the timeout fails the test instead.
    env = dict(os.environ, PYTHONPATH=str(MODELS_DIR.parents[1]))
    proc = subprocess.run([sys.executable, "-c", SPIN_CHILD], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.stdout == (
        "SimulationError run 0 ('spin') made 10000 cursor moves at tick 1; loop livelock "
        "[(0, 'spin', 'Running', None)]\n"
    ), proc.stderr


COLLAPSE_MODEL = """
model Collapse
universal Thing is_a B_Object
universal Shade is_a B_Quality
particular a instance_of Thing
particular b instance_of Thing
particular c instance_of Thing
relation K from B_Object to B_Object
relate Thing K Thing
relate Thing Has_Quality Shade
mechanism link_twice(x, y) {
  step s {
    duration 1
    effect link x K c
    effect link y K c
  }
}
mechanism unlink_twice(x, y) {
  step s {
    duration 1
    effect unlink x K b
    effect unlink y K b
  }
}
mechanism assume(x) {
  step s placeholder {
    duration 1
    effect unlink a K b
    effect link a Has_Quality x
  }
}
"""


@pytest.mark.parametrize("run, predicate", [
    ("link_twice(a, a)", "binding collapses two edits onto a K c"),
    ("unlink_twice(a, a)", "binding collapses two edits onto a K b"),
    # a placeholder asserts that its links are absent, not that they are valid
    ("assume(c)", "range: B ancestor of 'c' is 'B_Object', which does not descend from 'B_Quality'"),
])
def test_refused_step_edits_break_the_run_and_write_nothing(run, predicate):
    world, scenario = _world_and_scenario(COLLAPSE_MODEL, f"scenario s\nhorizon 5\ninit a K b\nrun {run} at 0\n")
    sim = load_scenario(world, scenario)
    sim.run_until(3)
    assert sim.summary()[0][2] == "Broken"
    assert [(e.at, e.kind) for e in world.trace] == [
        (0, "Link"), (0, "WorkflowStart"), (0, "StepStart"), (1, "WorkflowBroken")]
    assert world.trace[-1].payload["predicate"] == predicate
    assert world.active_link("a", "K", "b") is not None
    assert world.active_link("a", "K", "c") is None


def test_load_rejects_bad_scenarios():
    world = load_world("traffic.xfo")
    with pytest.raises(ResolveError):
        load_scenario(world, Scenario("s", 0, (), ()))  # zero horizon
    from xfo.dynamics import LinkTemplate
    with pytest.raises(InvalidInitialLinkError):
        load_scenario(world, Scenario("s", 5, (LinkTemplate("lampA_green", "Has_Quality", "lampA_red"),), ()))
    from xfo.microworld import RunSpec
    with pytest.raises(UnknownActionError):
        load_scenario(world, Scenario("s", 5, (), (RunSpec("ghost", (), 0),)))
    with pytest.raises(ResolveError):  # tick 9 is past the horizon, a fault found before the arity
        load_scenario(world, Scenario("s", 5, (), (RunSpec("trafficCycle", (), 9),)))


def test_scenario_naming_an_undefined_rule_or_transitional_is_refused_at_its_line():
    world = load_world("traffic.xfo")
    doc = parse_scenario("scenario s\nhorizon 5\nrule nope\napply ghost at 1\n", "s.xws").document
    scenario, diags = loader.build_scenario(doc, world)
    assert scenario is None
    assert [(d.code, d.message, d.span.line) for d in diags] == [
        ("E_RESOLVE", "scenario 's': unknown rule 'nope'", 3),
        ("E_UNKNOWN_ACTION", "scenario 's': unknown transitional 'ghost'", 4),
    ]
    assert not world.trace


def test_rule_whose_action_is_not_an_action_is_refused():
    """Only the Python API can give a rule a scenario's interrupt as its
    action."""
    from xfo.dynamics import Rule, define_rule
    from xfo.microworld import InterruptDirective
    world = load_world("traffic.xfo")
    with pytest.raises(UnknownActionError, match=r"^rule 'r': unknown action InterruptDirective\(run=0, at=None\)$"):
        define_rule(world, Rule("r", (), InterruptDirective(0, None)))
    assert "r" not in world.rules


def test_counted_loop_and_cond_execution():
    world, scenario = _world_and_scenario("""
model Loops
universal Thing is_a B_Object
universal Mark is_a B_Quality
particular a instance_of Thing
particular q instance_of Mark
particular r instance_of Mark
relate Thing Has_Quality Mark
mechanism pulse {
  loop 2 {
    step on {
      duration 1
      effect link a Has_Quality q
    }
    step off {
      duration 1
      effect unlink a Has_Quality q
    }
  }
  if not_exists a Has_Quality q {
    step mark {
      duration 0
      effect link a Has_Quality r
    }
  }
}
""", """
scenario pulse
horizon 6
run pulse() at 0
""")
    sim = load_scenario(world, scenario)
    sim.run_until(6)
    assert sim.runs[0].status is RunStatus.COMPLETED
    spans = [(l.to_p, l.start, l.end) for l in world.links if l.kind == "Has_Quality"]
    assert spans == [("q", 1, 2), ("q", 3, 4), ("r", 4, None)]


def test_second_scenario_on_a_run_world_is_refused_untouched():
    """Initial links are dated tick 0, which a world that has already run
    is past; loading them used to add a second active link and a trace
    that goes back to tick 0."""
    world, _, scen = run_scenario("celadon.xfo", "celadon_run.xws")
    before = (len(world.links), len(world.trace))
    with pytest.raises(InvalidInitialLinkError, match="before the last recorded tick"):
        load_scenario(world, scen)
    assert (len(world.links), len(world.trace)) == before
    # the same schedule without initial links is refused too, not broken mid-run
    with pytest.raises(InvalidInitialLinkError, match="before the last recorded tick"):
        load_scenario(world, scen._replace(init=()))
    assert (len(world.links), len(world.trace)) == before
    # and reported as a diagnostic, also when the horizon is missing
    text = "".join(l for l in model_text("celadon_run.xws").splitlines(keepends=True)
                   if not l.startswith(("init", "horizon")))
    scenario, diags = loader.build_scenario(parse_scenario(text).document, world)
    assert scenario is None
    assert sorted(d.code for d in diags) == ["E_INVALID_INIT_LINK", "E_NO_HORIZON"]
    assert (len(world.links), len(world.trace)) == before
    # a world run only to tick 0 is not past it, but has loaded its one
    # scenario: a second one used to start its runs again at tick 0
    world, _, scen = run_scenario("traffic.xfo", "traffic_desk.xws", until=0)
    before = (list(world.trace), world.links, list(world.warnings))
    assert world.trace and world.trace[-1].at == 0
    for second in (scen, scen._replace(init=())):
        with pytest.raises(InvalidInitialLinkError, match="already loaded scenario 'traffic_desk'"):
            load_scenario(world, second)
        assert (list(world.trace), world.links, list(world.warnings)) == before
    scenario, diags = loader.build_scenario(parse_scenario(model_text("traffic_desk.xws")).document, world)
    assert scenario is None and "already loaded scenario 'traffic_desk'" in diags[0].message
    assert (list(world.trace), world.links, list(world.warnings)) == before


def test_initial_link_given_twice_is_reported_as_repeated():
    """Nothing is active before a scenario loads, so a repeated init line
    is named as repeated, not as already active, at its second line."""
    world = load_world("traffic.xfo")
    text = "scenario s\nhorizon 3\n" + "init lampA_green Has_Quality dark\n" * 2
    scenario, diags = loader.build_scenario(parse_scenario(text, "s.xws").document, world)
    assert scenario is None
    assert [(d.code, d.span.line) for d in diags] == [("E_INVALID_INIT_LINK", 4)]
    assert diags[0].message.endswith(
        "link 'lampA_green' Has_Quality 'dark' is given more than once")
    assert not world.links and not world.trace


def test_refused_scenario_leaves_the_world_untouched():
    """Defect 2: a scenario is checked in full before anything is written,
    so a refusal leaves no link, event, warning or frame activation."""
    from xfo.dynamics import LinkTemplate
    from xfo.microworld import RunSpec
    world = load_world("traffic.xfo")
    init = LinkTemplate("lampA_green", "Has_Quality", "dark")
    lamps = ("lampA_green", "lampA_yellow", "lampA_red")
    for scen, error in (
        (Scenario("s", 5, (init,), (RunSpec("ghost", (), 0),)), UnknownActionError),
        (Scenario("s", 5, (init, init), ()), InvalidInitialLinkError),
        # a negative duration would queue a step's end before its start
        (Scenario("s", 5, (init,), (RunSpec("trafficCycle", lamps + (2, -1, 3), 0),)), ResolveError),
        # a directive without a tick; only a rule's action has none
        (Scenario("s", 5, (init,), (RunSpec("trafficCycle", lamps + (2, 1, 3)),)), ResolveError),
        # a tick before 0 would run after tick 0, moving time backwards
        (Scenario("s", 5, (init,), (RunSpec("trafficCycle", lamps + (2, 1, 3), -1),)), ResolveError),
    ):
        before = (list(world.links), list(world.trace), list(world.warnings),
                  dict(world.frame_activations))
        with pytest.raises(error):
            load_scenario(world, scen)
        after = (world.links, world.trace, world.warnings, world.frame_activations)
        assert after == before
    load_scenario(world, Scenario("s", 5, (init,), ()))  # the world is still usable
    assert len(world.links) == 1


# ----------------------------------------------------------------------
# each run resolves a step's edits once


def test_each_run_resolves_each_step_once(monkeypatch):
    """A run's binding never changes, so each step's templates are resolved
    once per run, not once per step executed."""
    from xfo.dynamics import LinkTemplate, walk_steps
    world = load_world("traffic.xfo")
    sim = load_scenario(world, load_shipped_scenario(world, "traffic_desk.xws"))
    calls = []
    resolve = LinkTemplate.resolve
    monkeypatch.setattr(LinkTemplate, "resolve", lambda self, binding: calls.append(binding) or resolve(self, binding))
    sim.run_until(sim.scenario.horizon)
    ends = [(e.payload["run"], e.payload["step"]) for e in world.trace if e.kind == "StepEnd"]
    steps = {s.name: s for s in walk_steps(world.workflows["trafficCycle"].body)}
    templates = [len(steps[name].unlinks + steps[name].links) for _, name in dict.fromkeys(ends)]
    assert len(calls) == sum(templates)
    assert len(ends) > len(set(ends))  # steps ran more than once, and resolved once


def test_a_binding_that_collapses_two_edits_breaks_every_run():
    """A batch that fails to resolve is never kept: each run re-resolves it
    and breaks with the same predicate."""
    world, scenario = _world_and_scenario(
        COLLAPSE_MODEL, "scenario s\nhorizon 5\ninit a K b\nrun link_twice(a, a) at 0\nrun link_twice(b, b) at 2\n")
    sim = load_scenario(world, scenario)
    sim.run_until(5)
    assert [status for _, _, status, _ in sim.summary()] == ["Broken", "Broken"]
    assert [e.payload["predicate"] for e in world.trace if e.kind == "WorkflowBroken"] == [
        "binding collapses two edits onto a K c", "binding collapses two edits onto b K c"]
    step = sim.runs[0].workflow.body.items[0]
    for _ in range(2):
        with pytest.raises(PreconditionFailedError, match="binding collapses two edits onto a K c"):
            sim.runs[0].batch(step)


PLACEHOLDER_LOOPS = COLLAPSE_MODEL + """
particular dim instance_of Shade
mechanism drop_later {
  loop 2 {
    step guess placeholder {
      duration 1
      effect unlink a K b
      effect link a Has_Quality dim
    }
    step clear {
      duration 1
      effect unlink a Has_Quality dim
    }
  }
}
mechanism unlink_later {
  loop 2 {
    step guess placeholder {
      duration 1
      effect unlink a K b
      effect link a Has_Quality dim
    }
    step clear {
      duration 1
      effect unlink a Has_Quality dim
      effect link a K b
    }
  }
}
"""
_DIM = ("a", "Has_Quality", "dim")


@pytest.mark.parametrize("run, init, edits", [
    # the first pass unlinks a K b; the second finds it inactive and drops it
    ("drop_later", "init a K b\n", [(1, "Unlink", "a", "K", "b"), (1, "Link", *_DIM), (2, "Unlink", *_DIM),
                                     (3, "Link", *_DIM), (4, "Unlink", *_DIM)]),
    # the first pass drops the inactive unlink; the second unlinks it
    ("unlink_later", "", [(1, "Link", *_DIM), (2, "Unlink", *_DIM), (2, "Link", "a", "K", "b"),
                          (3, "Unlink", "a", "K", "b"), (3, "Link", *_DIM), (4, "Unlink", *_DIM),
                          (4, "Link", "a", "K", "b")]),
], ids=["drop_later", "unlink_later"])
def test_a_placeholder_step_reads_the_world_on_every_pass(run, init, edits):
    """A run keeps a step's resolved batch, never the batch the lenient
    filter left: the filter reads the world at each pass."""
    world, scenario = _world_and_scenario(PLACEHOLDER_LOOPS, f"scenario s\nhorizon 6\n{init}run {run}() at 0\n")
    sim = load_scenario(world, scenario)
    sim.run_until(6)
    assert sim.summary()[0][2] == "Completed"
    assert [e for e in link_events(world.trace) if e[0] > 0] == edits
