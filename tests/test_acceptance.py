"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""
from __future__ import annotations

import dataclasses
import random

import pytest

from xfo.dynamics import Seq, StatePredicate, Step, Wildcard, check_completeness
from xfo.errors import SignatureMismatchError
from xfo.microworld import RunSpec, RunStatus, Scenario, load_scenario
from xfo.ontology import B_TAXONOMY, Layer, bootstrap_b_taxonomy
from xfo.relations import BUILTIN_KINDS, World
from xfo.render import render_snapshot, render_timeline
from xfo.trace import parse_trace, replay_spans, trace_to_json
from xfo.dsl import parse_model, parse_scenario

from helpers import (
    GOLDEN_DIR,
    SHIPPED_MODELS,
    SHIPPED_RUNS,
    hq_quality,
    link_events,
    load_shipped_scenario,
    load_world,
    model_text,
    run_scenario,
)
from printer import print_model, print_scenario
import traffic_oracle


def _ancestors(name: str) -> set[str]:
    """Independent ancestor walk over the published taxonomy table."""
    parents = dict(B_TAXONOMY)
    out = set()
    while name is not None:
        out.add(name)
        name = parents[name]
    return out


# ----------------------------------------------------------------------


def test_criterion_1_taxonomy():
    reg = bootstrap_b_taxonomy()
    assert len(reg) == 14
    assert {e.name: e.parent for e in reg.entities()} == dict(B_TAXONOMY)
    assert all(e.layer is Layer.B for e in reg.entities())

    rng = random.Random(20260810)
    universals = [name for name, _ in B_TAXONOMY]
    cases = 0
    for i in range(1200):
        if universals[14:] and rng.random() < 0.4:
            reg.instantiate_particular(f"p{i}", rng.choice(universals[14:]))
        else:
            reg.define_universal(f"u{i}", rng.choice(universals))
            universals.append(f"u{i}")
        cases += 1
    assert cases >= 1000
    order = {Layer.P: 0, Layer.U: 1, Layer.B: 2}
    size = len(reg)
    for e in reg.entities():
        chain = reg.parent_chain(e.name)
        assert len(chain) <= size and chain[-1] == "B_Entity"
        ranks = [order[reg.lookup(n).layer] for n in chain]
        assert ranks == sorted(ranks), f"layer monotonicity broken along {chain}"
    print(f"\nPASS criterion 1: taxonomy (14 shipped types; {cases} randomized definitions)")


def test_criterion_2_validation():
    # tier-1 accept/reject for all four built-ins over every B-type pair,
    # against an independent ancestor table
    w = World()
    b_types = [name for name, _ in B_TAXONOMY]
    for b in b_types:
        w.registry.define_universal(f"U{b}", b)
    checked = 0
    for kind in BUILTIN_KINDS:
        for dom in b_types:
            for ran in b_types:
                expected = kind.domain_b in _ancestors(dom) and kind.range_b in _ancestors(ran)
                try:
                    w.declare_u_relation(f"U{dom}", kind.name, f"U{ran}")
                    ok = True
                except SignatureMismatchError:
                    ok = False
                assert ok == expected, (kind.name, dom, ran)
                checked += 1
    assert checked == 4 * 14 * 14

    # the pottery examples, on the shipped celadon model
    cw = load_world("celadon.xfo")
    cw.declare_u_relation("Pottery", "Participates_In", "BiscuitFiring")
    cw.declare_u_relation("Pottery", "Participates_In", "Firing")
    assert cw.validate_link("pot1", "Participates_In", "firing7").valid
    res = cw.validate_link("pot1", "Participates_In", "drive1")
    assert not res.valid and res.tier == 2

    # part-of across every Continuant subtype (the ancestor-walk check)
    continuants = [b for b in b_types if "B_Continuant" in _ancestors(b)]
    assert len(continuants) == 10
    pw = World()
    for b in b_types:
        pw.registry.define_universal(f"U{b}", b)
        pw.registry.instantiate_particular(f"p{b}", f"U{b}")
    for dom in continuants:
        for ran in continuants:
            pw.declare_u_relation(f"U{dom}", "Continuant_Part_Of", f"U{ran}")
            assert pw.validate_link(f"p{dom}", "Continuant_Part_Of", f"p{ran}").valid
    for bad in (b for b in b_types if b not in continuants):
        with pytest.raises(SignatureMismatchError):
            pw.declare_u_relation(f"U{bad}", "Continuant_Part_Of", "UB_Object")
    print(f"\nPASS criterion 2: validation ({checked} signature cases; "
          f"{len(continuants)}^2 part-of pairs; Driving rejected at tier 2)")


def test_criterion_3_traffic_oracle():
    world, sim, scen = run_scenario("traffic.xfo", "traffic_desk.xws")
    # event-for-event against the committed hand-written oracle
    got = link_events(world.trace)
    assert got == traffic_oracle.expected_events()

    # lamp exclusivity at every tick, per light at most one non-dark lamp
    lights = {
        "lightA": ["lampA_green", "lampA_yellow", "lampA_red"],
        "lightB": ["lampB_green", "lampB_yellow", "lampB_red"],
    }
    for at in range(scen.horizon + 1):
        for light, lamps in lights.items():
            lit = 0
            for lamp in lamps:
                quality = hq_quality(world, lamp, at)
                assert quality is not None, f"{lamp} has no quality at {at}"
                lit += quality != "dark"
            assert lit <= 1, f"{light} shows {lit} colors at {at}"

    # two consecutive runs produce byte-identical trace files
    texts = []
    for _ in range(2):
        w2, _, s2 = run_scenario("traffic.xfo", "traffic_desk.xws")
        texts.append(trace_to_json(w2.model_name, s2.name, s2.horizon, w2.trace))
    assert texts[0] == texts[1]
    print(f"\nPASS criterion 3: traffic oracle ({len(got)} link events match; "
          "exclusivity holds; traces byte-identical)")


def test_criterion_4_frame_suite():
    world, sim, _ = run_scenario("school.xfo", "school_hire.xws")
    frame = world.frames["Employment"]
    assert len(frame.slots) == 7

    # atomic activation: FrameActivate plus six links at one tick
    activates = [e for e in world.trace if e.kind == "FrameActivate"]
    assert [e.at for e in activates] == [0, 8]
    for ev in activates:
        links_at = [e for e in world.trace if e.kind == "Link" and e.at == ev.at]
        assert len(links_at) == 6

    # deactivation closes exactly the activation's spans
    teacher1_links = [l for l in world.links if l.from_p == "teacher1"]
    assert len(teacher1_links) == 6
    assert all((l.start, l.end) == (0, 4) for l in teacher1_links)

    # the vacancy rule fires exactly once across hire/resign/hire, even
    # though the vacancy persists over ticks 4..7 (edge triggering)
    fired = [e for e in world.trace if e.kind == "RuleFired"]
    assert len(fired) == 1 and fired[0].at == 4
    assert fired[0].payload["rule"] == "teacher_vacancy"
    vacancy = StatePredicate(False, Wildcard("Person"), "Has_Role", "teacher_role")
    true_ticks = [t for t in range(11) if vacancy.holds(world, t)]
    assert true_ticks == [4, 5, 6, 7]

    # and it started the replacement workflow, which completed
    starts = [e for e in world.trace if e.kind == "WorkflowStart"]
    assert starts[0].at == 4 and starts[0].payload["workflow"] == "hireReplacement"
    assert sim.summary() == [(0, "hireReplacement", "Completed", "return_with_hire")]
    print("\nPASS criterion 4: frame suite (atomic activation, exact spans, "
          "edge-triggered vacancy rule fired once)")


RAW_FACT = StatePredicate(True, "clay1", "Has_Quality", "raw")

# first step whose requirements depend on each edit-bearing step's effects
FIRST_DEPENDENT = {
    "prepare_clay": "shape_vessel",
    "shape_vessel": "dry_vessel",
    "dry_vessel": "biscuit_firing",
    "biscuit_firing": "apply_glaze",
    "apply_glaze": "cool_down",
    "glost_firing": "inspect_ware",
}


def _without_edits(workflow, step_name):
    items = []
    for node in workflow.body.items:
        assert isinstance(node, Step)
        if node.step.name == step_name:
            node = Step(node.step._replace(unlinks=(), links=()))
        items.append(node)
    return dataclasses.replace(workflow, body=Seq(tuple(items)))


def test_criterion_5_workflow_suite():
    w = load_world("celadon.xfo")
    celadon = w.workflows["celadonProduction"]
    report = check_completeness(celadon, [RAW_FACT])
    assert report.complete and report.placeholders == ("dry_vessel",)

    steps = [n.step for n in celadon.body.items]
    edit_steps = [s.name for s in steps if s.unlinks or s.links]
    assert set(edit_steps) == set(FIRST_DEPENDENT)
    for name in edit_steps:
        crippled = _without_edits(celadon, name)
        bad = check_completeness(crippled, [RAW_FACT])
        assert not bad.complete, f"deleting {name} postconditions went unnoticed"
        assert bad.gaps[0].step == FIRST_DEPENDENT[name], (name, bad.gaps[0])

    # straight-line soundness: Complete => execution never breaks
    sound_runs = []
    world1, sim1, _ = run_scenario("celadon.xfo", "celadon_run.xws")
    assert sim1.runs[0].status is RunStatus.COMPLETED
    assert not [e for e in world1.trace if e.kind == "WorkflowBroken"]
    sound_runs.append("celadonProduction")

    school = load_world("school.xfo")
    hire = school.workflows["hireReplacement"]
    assert check_completeness(hire, []).complete
    sim2 = load_scenario(school, Scenario(
        "hire_only", 5, (), (RunSpec("hireReplacement", ("superintendent1",), 0),)))
    sim2.run_until(5)
    assert sim2.runs[0].status is RunStatus.COMPLETED
    assert not [e for e in school.trace if e.kind == "WorkflowBroken"]
    sound_runs.append("hireReplacement")
    print(f"\nPASS criterion 5: workflow suite (complete; {len(edit_steps)} deletion "
          f"gaps located; soundness on {', '.join(sound_runs)})")


def test_criterion_6_interrupt_and_broken():
    world, sim, _ = run_scenario("celadon.xfo", "celadon_interrupt.xws")
    run = sim.runs[0]
    assert run.status is RunStatus.INTERRUPTED
    assert run.last_completed_step == "dry_vessel"
    # exactly the prior steps' postconditions are in state_of: the net
    # effect of prepare/shape/dry is the single 'dried' quality
    state = world.state_of("clay1", 6)
    assert [(s.kind, s.counterpart) for s in state.links] == [("Has_Quality", "dried")]

    world2, sim2, _ = run_scenario("celadon.xfo", "celadon_broken.xws")
    assert sim2.runs[0].status is RunStatus.BROKEN
    broken = [e for e in world2.trace if e.kind == "WorkflowBroken"]
    assert len(broken) == 1
    assert broken[0].payload["step"] == "glost_firing"
    assert broken[0].payload["predicate"] == "exists clay1 Has_Quality glazed"
    print("\nPASS criterion 6: interrupt/broken (prior postconditions only; "
          "failing predicate named in trace)")


def test_criterion_7_roundtrips():
    # parse -> print -> parse equality for every shipped file
    for name in SHIPPED_MODELS:
        first = parse_model(model_text(name), name)
        assert first.ok
        again = parse_model(print_model(first.document), name)
        assert again.ok and again.document == first.document
    for _, name in SHIPPED_RUNS:
        first = parse_scenario(model_text(name), name)
        assert first.ok
        again = parse_scenario(print_scenario(first.document), name)
        assert again.ok and again.document == first.document

    # trace replay reconstructs state_of at every tick of every scenario
    states_checked = 0
    for model, scen_name in SHIPPED_RUNS:
        world, _, scen = run_scenario(model, scen_name)
        spans = replay_spans(world.trace)
        particulars = [e.name for e in world.registry.entities() if e.layer is Layer.P]
        for at in range(scen.horizon + 1):
            expected: dict[str, set] = {p: set() for p in particulars}
            for (frm, kind, to), ranges in spans.items():
                for start, end in ranges:
                    if start <= at and (end is None or end > at):
                        expected[frm].add(("out", kind, to))
                        expected[to].add(("in", kind, frm))
            for p in particulars:
                got = {(s.direction, s.kind, s.counterpart)
                       for s in world.state_of(p, at).links}
                assert got == expected[p], (scen_name, p, at)
                states_checked += 1

    # renders are byte-stable across fresh runs
    svgs = []
    for _ in range(2):
        world, _, scen = run_scenario("traffic.xfo", "traffic_desk.xws")
        doc = parse_trace(trace_to_json(world.model_name, scen.name, scen.horizon, world.trace))
        svgs.append((render_timeline(doc), render_snapshot(doc, 1)))
    assert svgs[0] == svgs[1]
    print(f"\nPASS criterion 7: round-trips (8 files; {states_checked} state "
          "reconstructions; SVGs byte-stable)")


def test_criterion_8_cli_goldens(tmp_path, monkeypatch, capsys):
    from test_cli import GOLDEN_ROWS, copy_row_dirs, run_row

    copy_row_dirs(tmp_path)
    compared = 0
    for row in GOLDEN_ROWS:
        for golden, content in run_row(row, tmp_path, monkeypatch, capsys):
            assert content == (GOLDEN_DIR / golden).read_text(encoding="utf-8"), golden
            compared += 1
    print(f"\nPASS criterion 8: CLI goldens ({compared} outputs match)")
