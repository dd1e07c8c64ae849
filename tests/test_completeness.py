"""The completeness checker: one may/must state per program point.

``check_completeness`` calls a mechanism complete only if a run of it
alone, from the given facts, never breaks. Each probe below runs a
mechanism that breaks, and the checker must report a gap at the step
that breaks: after a loop whose exits differ, and at an untyped
wildcard. The differential tests draw lamp mechanisms from ``helpers``
and run each one alone in a scenario whose initial links are the
checker's facts.
"""
from __future__ import annotations

from hypothesis import example, given, settings

from xfo import dynamics, loader
from xfo.dsl import parse_model, parse_scenario
from xfo.dynamics import (
    Cond,
    Gap,
    LinkTemplate,
    Loop,
    RunSpec,
    Seq,
    StatePredicate,
    Step,
    Workflow,
    WorkflowStep,
    check_completeness,
    define_workflow,
)
from xfo.microworld import RunStatus, Scenario, load_scenario

from helpers import LAMP_MODEL, lamp_bodies, lamp_facts, lamp_world

GREEN = ("lamp", "Has_Quality", "green")
DARK = ("lamp", "Has_Quality", "dark")


def _facts(init) -> list[StatePredicate]:
    return [StatePredicate(True, *t) for t in init]


def _checked_and_run(model: str, mechanism: str, init: tuple[str, ...]):
    """The report for ``mechanism`` of ``model`` from the facts ``init``,
    and the run of it alone from those links: (report, status, broken
    steps)."""
    mres = parse_model(model + mechanism, "m.xfo")
    assert mres.ok, [d.render() for d in mres.diagnostics]
    world, diags = loader.build_world(mres.document)
    assert not diags, [d.render() for d in diags]
    scenario = "scenario alone\nhorizon 20\n" + "".join(f"init {t}\n" for t in init) + "run m() at 0\n"
    scen, sdiags = loader.build_scenario(parse_scenario(scenario, "s.xws").document, world)
    assert scen is not None, [d.render() for d in sdiags]
    report = check_completeness(world.workflows["m"], [StatePredicate(True, *t.split()) for t in init])
    sim = load_scenario(world, scen)
    sim.run_until(scen.horizon)
    broken = [e.payload["step"] for e in world.trace if e.kind == "WorkflowBroken"]
    return report, sim.runs[0].status, broken


def _step_text(name: str, *clauses: str) -> str:
    return f"  step {name} {{\n    duration 1\n" + "".join(f"    {c}\n" for c in clauses) + "  }\n"


def _node(name: str, pre=(), unlinks=(), links=()) -> Step:
    templates = (tuple(LinkTemplate(*t) for t in ts) for ts in (unlinks, links))
    return Step(WorkflowStep(name, None, 1, tuple(pre), *templates, False))


def test_a_loop_exit_joins_may_by_union():
    """``dark`` is linked on one exit of the loop only: it may hold after
    it, so ``q``'s strict link of it is a gap, and the run breaks there."""
    mechanism = (
        "mechanism m {\n  loop 1 {\n  if exists lamp Has_Quality green {\n"
        + _step_text("p", "effect link lamp Has_Quality dark")
        + "  }\n  }\n" + _step_text("q", "effect link lamp Has_Quality dark") + "}\n"
    )
    report, status, broken = _checked_and_run(LAMP_MODEL, mechanism, ("lamp Has_Quality green",))
    assert report.gaps == (Gap("q", "not_exists lamp Has_Quality dark", ""),)
    assert status is RunStatus.BROKEN and broken == ["q"]


TEACHERS = """model teachers
universal Person is_a B_Object
universal Teacher is_a Person
universal Post is_a B_Role
particular bob instance_of Person
particular post instance_of Post
relate Person Has_Role Post
"""


def test_an_untyped_wildcard_never_proves_exists():
    """``bob`` is a Person but not a Teacher: the fact ``bob Has_Role
    post`` does not prove ``exists any:Teacher Has_Role post``."""
    mechanism = "mechanism m {\n" + _step_text("s", "require exists any:Teacher Has_Role post") + "}\n"
    report, status, broken = _checked_and_run(TEACHERS, mechanism, ("bob Has_Role post",))
    assert report.gaps == (Gap("s", "exists any:Teacher Has_Role post", ""),)
    assert status is RunStatus.BROKEN and broken == ["s"]


def test_an_untyped_wildcard_could_match_any_token_for_not_exists():
    mechanism = "mechanism m {\n" + _step_text("s", "require not_exists any:Teacher Has_Role post") + "}\n"
    report, _, _ = _checked_and_run(TEACHERS, mechanism, ("bob Has_Role post",))
    assert report.gaps == (Gap("s", "not_exists any:Teacher Has_Role post", ""),)
    report, status, _ = _checked_and_run(TEACHERS, mechanism, ())
    assert report.complete and status is RunStatus.COMPLETED


def test_a_loop_0_body_never_runs_so_it_has_no_gap():
    mechanism = "mechanism m {\n  loop 0 {\n" + _step_text("s", "effect unlink lamp Has_Quality green") + "  }\n}\n"
    report, status, broken = _checked_and_run(LAMP_MODEL, mechanism, ())
    assert report.complete and report.gaps == ()
    assert status is RunStatus.COMPLETED and broken == []


def test_each_gap_is_reported_once_at_the_first_iteration_that_shows_it():
    """``eat`` consumes ``green`` and nothing restores it: the gap shows
    from the second iteration on, behind either branch of the ``if``, and
    is reported once, under the step's own path."""
    body = Seq((Loop(Seq((
        Cond(StatePredicate(True, *DARK), Seq((_node("a"),))),
        _node("eat", unlinks=(GREEN,)),
    )), count=3),))
    report = check_completeness(Workflow("w", (), body, False), _facts((GREEN,)))
    assert report.gaps == (Gap("eat", "exists lamp Has_Quality green", "/iter2"),)


def test_the_work_grows_linearly_with_sequential_ifs(monkeypatch):
    """n ``if``s in sequence, each with a checked step in both branches:
    one predicate check per step, not one per path."""
    calls = []
    holds = dynamics._surely_holds
    monkeypatch.setattr(dynamics, "_surely_holds", lambda *a: calls.append(1) or holds(*a))
    need = (StatePredicate(True, *GREEN),)
    counts = []
    for n in (10, 20, 40):
        body = Seq(tuple(Cond(StatePredicate(True, *DARK), Seq((_node(f"a{i}", need),)), Seq((_node(f"b{i}", need),)))
                         for i in range(n)))
        calls.clear()
        assert check_completeness(Workflow("w", (), body, False), _facts((GREEN,))).complete
        counts.append(len(calls))
    assert counts == [20, 40, 80]


def _run_alone(body: Seq, init: tuple[LinkTemplate, ...]):
    """``body`` as mechanism ``m`` of a fresh lamp world, run alone from
    the links ``init``: (workflow, status, broken steps)."""
    world = lamp_world()
    wf = define_workflow(world, Workflow("m", (), body, False))
    sim = load_scenario(world, Scenario("alone", 40, init, (RunSpec("m", (), 0),)))
    sim.run_until(40)
    broken = [e.payload["step"] for e in world.trace if e.kind == "WorkflowBroken"]
    return wf, sim.runs[0].status, broken


LOOP_EXIT = Seq((
    Loop(Seq((Cond(StatePredicate(True, *GREEN), Seq((_node("s0", links=(DARK,)),))),)), count=1),
    _node("s1", links=(DARK,)),
))


@given(lamp_bodies(), lamp_facts())
@example(LOOP_EXIT, (LinkTemplate(*GREEN),))
@settings(max_examples=300, deadline=None)
def test_a_run_alone_breaks_only_at_a_step_with_a_gap(body, init):
    """So a mechanism the checker calls complete never breaks."""
    wf, _, broken = _run_alone(body, init)
    assert set(broken) <= {g.step for g in check_completeness(wf, _facts(init)).gaps}


@given(lamp_bodies(wildcards=False, straight=True), lamp_facts())
@settings(max_examples=200, deadline=None)
def test_a_straight_line_body_breaks_exactly_at_the_first_gap(body, init):
    """With no branch, loop or wildcard the abstract state is exact."""
    wf, status, broken = _run_alone(body, init)
    report = check_completeness(wf, _facts(init))
    if report.complete:
        assert status is RunStatus.COMPLETED and broken == []
    else:
        assert status is RunStatus.BROKEN and broken == [report.gaps[0].step]
