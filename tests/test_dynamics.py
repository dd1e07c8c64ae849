"""Transitionals, frames, workflows, completeness, rules."""
from __future__ import annotations

import pytest

from xfo.dynamics import (
    ActivateDirective,
    ApplyDirective,
    Cond,
    Frame,
    LinkTemplate,
    Loop,
    MAX_BLOCK_DEPTH,
    Rule,
    RunSpec,
    Seq,
    StatePredicate,
    Transitional,
    Wildcard,
    Workflow,
    WorkflowStep,
    activate_frame,
    apply_transitional,
    bind_args,
    check_completeness,
    deactivate_frame,
    define_frame,
    define_rule,
    define_transitional,
    define_workflow,
)
from xfo.errors import (
    AlreadyActiveError,
    DuplicateNameError,
    IncompleteBindingError,
    InvalidLinkError,
    InvalidTemplateError,
    MissingAgentError,
    NotActiveError,
    PreconditionFailedError,
    ResolveError,
    UnboundedLoopError,
    UnknownActionError,
    UnknownEntityError,
    UnknownSlotError,
)
from xfo.microworld import Scenario, load_scenario
from xfo.ontology import Layer
from xfo.relations import World

from helpers import load_world

T = LinkTemplate
P = StatePredicate


@pytest.fixture
def lamp_world():
    w = World()
    reg = w.registry
    reg.define_universal("Lamp", "B_Object")
    reg.define_universal("Color", "B_Quality")
    for lamp in ("lampA_green", "lampA_yellow"):
        reg.instantiate_particular(lamp, "Lamp")
    for color in ("green", "yellow", "dark"):
        reg.instantiate_particular(color, "Color")
    w.declare_u_relation("Lamp", "Has_Quality", "Color")
    w.edit((), [("lampA_green", "Has_Quality", "green")], 0)
    w.edit((), [("lampA_yellow", "Has_Quality", "dark")], 0)
    return w


def _snapshot(world):
    return [(l.from_p, l.kind, l.to_p, l.start, l.end) for l in world.links]


def test_define_transitional(lamp_world):
    w = lamp_world
    t = Transitional(
        "greenToYellow_A",
        (T("lampA_green", "Has_Quality", "green"), T("lampA_yellow", "Has_Quality", "dark")),
        (T("lampA_green", "Has_Quality", "dark"), T("lampA_yellow", "Has_Quality", "yellow")),
    )
    assert define_transitional(w, t) is t and w.transitionals["greenToYellow_A"] is t
    # registered as a P entity under the Transitional universal
    e = w.registry.lookup("greenToYellow_A")
    assert e.layer is Layer.P and w.registry.b_ancestor("greenToYellow_A") == "X_Transitional"
    with pytest.raises(DuplicateNameError):
        define_transitional(w, Transitional("greenToYellow_A", (), ()))


def test_define_transitional_template_errors(lamp_world):
    w = lamp_world
    with pytest.raises(InvalidTemplateError):
        # a quality cannot be the domain of Has_Quality (tier-1)
        define_transitional(w, Transitional("bad", (), (T("green", "Has_Quality", "lampA_green"),)))
    with pytest.raises(InvalidTemplateError):
        define_transitional(w, Transitional("bad2", (), (T("ghost", "Has_Quality", "green"),)))
    with pytest.raises(InvalidTemplateError):
        # duplicated template across the two lists
        define_transitional(w, Transitional(
            "bad3",
            (T("lampA_green", "Has_Quality", "green"),),
            (T("lampA_green", "Has_Quality", "green"),),
        ))


def test_apply_transitional(lamp_world):
    w = lamp_world
    t = define_transitional(w, Transitional(
        "flip",
        (T("lampA_green", "Has_Quality", "green"), T("lampA_yellow", "Has_Quality", "dark")),
        (T("lampA_green", "Has_Quality", "dark"), T("lampA_yellow", "Has_Quality", "yellow")),
    ))
    events = apply_transitional(w, t, 2)
    assert [(e.kind, e.at) for e in events] == [
        ("Unlink", 2), ("Unlink", 2), ("Link", 2), ("Link", 2)
    ]
    got = [s.counterpart for s in w.state_of("lampA_green", 2).links]
    assert got == ["dark"]
    # second application fails: green is no longer linked
    before = _snapshot(w)
    with pytest.raises(PreconditionFailedError) as exc:
        apply_transitional(w, t, 3)
    assert exc.value.predicate == "exists lampA_green Has_Quality green"
    assert _snapshot(w) == before  # all-or-nothing


def test_apply_noop_transitional(lamp_world):
    w = lamp_world
    t = define_transitional(w, Transitional("noop", (), ()))
    before = _snapshot(w)
    assert apply_transitional(w, t, 1) == []
    assert _snapshot(w) == before


def test_transitional_atomicity_on_link_conflict(lamp_world):
    w = lamp_world
    t = define_transitional(w, Transitional(
        "t1",
        (T("lampA_yellow", "Has_Quality", "dark"),),
        (T("lampA_yellow", "Has_Quality", "green"),),
    ))
    w.edit((), [("lampA_yellow", "Has_Quality", "green")], 1)  # occupy the link target
    before = _snapshot(w)
    with pytest.raises(PreconditionFailedError) as exc:
        apply_transitional(w, t, 2)  # link target already active
    assert exc.value.predicate == "not_exists lampA_yellow Has_Quality green"
    assert _snapshot(w) == before  # the unlink half must not have applied


@pytest.fixture
def school_world():
    return load_world("school.xfo")


# (slot, entity) pairs, not in slot order: the frame operations sort them
EMPLOYMENT_BINDING = (
    ("role", "teacher_role"),
    ("organization", "norfolk_schools"),
    ("person", "teacher1"),
    ("compensation", "teacher_salary"),
    ("duration", "one_year_term"),
    ("rights", "classroom_rights"),
    ("responsibilities", "teaching_duties"),
)


def test_define_frame_errors(school_world):
    w = school_world
    with pytest.raises(DuplicateNameError):
        define_frame(w, Frame("Employment", ("a",), ()))
    with pytest.raises(DuplicateNameError):
        define_frame(w, Frame("F1", ("a", "b", "a"), ()))
    with pytest.raises(UnknownSlotError):
        define_frame(w, Frame("F2", ("a", "b"), (T("a", "Has_Quality", "salary"),)))
    f = Frame("PureRecord", ("a", "b"), ())  # zero templates is fine
    assert define_frame(w, f) is f and w.frames["PureRecord"] is f


def test_activate_frame_atomic(school_world):
    w = school_world
    events = activate_frame(w, "Employment", EMPLOYMENT_BINDING, 3)
    assert events == w.trace  # its FrameActivate event, then its Link events
    assert [e.kind for e in events] == ["FrameActivate"] + ["Link"] * 6
    assert list(events[0].payload["binding"].items()) == sorted(EMPLOYMENT_BINDING)
    created = w.frame_activations["Employment", tuple(sorted(EMPLOYMENT_BINDING))]
    assert [t for t, _ in created] == list(w.spans) and len(created) == 6
    assert all(start == 3 for _, start in created)  # one shared tick
    with pytest.raises(AlreadyActiveError):
        activate_frame(w, "Employment", dict(EMPLOYMENT_BINDING).items(), 4)


def test_activate_frame_incomplete_binding(school_world):
    w = school_world
    binding = [(slot, value) for slot, value in EMPLOYMENT_BINDING if slot != "person"]
    with pytest.raises(IncompleteBindingError):
        activate_frame(w, "Employment", binding, 0)
    with pytest.raises(UnknownSlotError):
        activate_frame(w, "Employment", EMPLOYMENT_BINDING + (("salary", "teacher_salary"),), 0)


def test_activate_frame_atomic_failure(school_world):
    w = school_world
    # pre-occupy one of the six links: activation must change nothing
    w.edit((), [("teacher1", "Has_Role", "teacher_role")], 0)
    before = _snapshot(w)
    with pytest.raises(InvalidLinkError):
        activate_frame(w, "Employment", EMPLOYMENT_BINDING, 1)
    assert _snapshot(w) == before
    assert [e.kind for e in w.trace] == ["Link"]  # only the pre-existing link


def test_activate_frame_refuses_a_slot_named_twice(school_world):
    """A binding that names a slot twice is refused before anything is
    written, not read as its last value."""
    w = school_world
    before = (_snapshot(w), list(w.trace), dict(w.frame_activations))
    binding = EMPLOYMENT_BINDING + (("person", "teacher2"),)
    with pytest.raises(DuplicateNameError, match="frame 'Employment': binding names slot 'person' twice"):
        activate_frame(w, "Employment", binding, 0)
    assert (_snapshot(w), w.trace, w.frame_activations) == before


def test_activate_frame_refuses_a_binding_that_collapses_two_templates():
    """Templates ``a K c`` and ``b K c`` with ``a`` and ``b`` bound to one
    entity would make one link twice: refused before anything is written."""
    w = World(tier2_strict=False)
    w.registry.define_universal("Lamp", "B_Object")
    w.registry.define_universal("Color", "B_Quality")
    for name, universal in (("lamp", "Lamp"), ("lamp2", "Lamp"), ("red", "Color")):
        w.registry.instantiate_particular(name, universal)
    define_frame(w, Frame("Pair", ("a", "b", "c"), (T("a", "Has_Quality", "c"), T("b", "Has_Quality", "c"))))
    activate_frame(w, "Pair", (("a", "lamp2"), ("b", "lamp"), ("c", "red")), 0)  # no declaration covers it
    before = (_snapshot(w), list(w.trace), list(w.warnings), dict(w.frame_activations))
    assert len(before[1]) == 3 and len(before[2]) == 2
    with pytest.raises(InvalidLinkError, match="frame 'Pair': binding collapses two templates onto lamp Has_Quality red"):
        activate_frame(w, "Pair", (("a", "lamp"), ("b", "lamp"), ("c", "red")), 1)
    assert (_snapshot(w), w.trace, w.warnings, w.frame_activations) == before


def test_activate_frame_warns_once_per_uncovered_link():
    w = World(tier2_strict=False)
    w.registry.define_universal("Lamp", "B_Object")
    w.registry.define_universal("Color", "B_Quality")
    w.registry.instantiate_particular("lamp", "Lamp")
    w.registry.instantiate_particular("red", "Color")
    define_frame(w, Frame("Lit", ("x", "c"), (T("x", "Has_Quality", "c"),)))  # no declaration covers it
    activate_frame(w, "Lit", (("x", "lamp"), ("c", "red")), 0)
    assert len(w.links) == 1
    assert len(w.warnings) == 1 and w.warnings[0].startswith("tier-2: no declaration covers")
    # so do a parameterised workflow step and a scenario's initial link
    w.registry.instantiate_particular("lamp2", "Lamp")
    w.registry.instantiate_particular("blue", "Color")
    define_workflow(w, Workflow("paint", ("x",), Seq((_step("paint", links=[T("x", "Has_Quality", "blue")]),)), False))
    assert len(w.warnings) == 1  # a template with a parameter is checked when it is bound
    sim = load_scenario(w, Scenario("s", 3, (T("lamp2", "Has_Quality", "red"),), (RunSpec("paint", ("lamp",), 0),)))
    assert len(w.links) == 2 and len(w.warnings) == 2
    sim.run_until(3)
    assert [(l.from_p, l.to_p) for l in w.links] == [("lamp", "red"), ("lamp2", "red"), ("lamp", "blue")]
    assert len(w.warnings) == 3 and all(m.startswith("tier-2: no declaration covers") for m in w.warnings)


def _uncovered_world():
    """A world that admits uncovered links: no declaration covers a lamp's
    colour, and a colour is no lamp's quality bearer (tier 1 refuses it)."""
    w = World(tier2_strict=False)
    w.registry.define_universal("Lamp", "B_Object")
    w.registry.define_universal("Color", "B_Quality")
    w.registry.instantiate_particular("lamp", "Lamp")
    w.registry.instantiate_particular("red", "Color")
    return w


UNCOVERED = T("lamp", "Has_Quality", "red")
TIER1_INVALID = T("red", "Has_Quality", "lamp")


@pytest.mark.parametrize("define,error", [
    # a transitional whose second template is invalid
    (lambda w: define_transitional(w, Transitional("t", (), (UNCOVERED, TIER1_INVALID))), InvalidTemplateError),
    # a transitional whose name is already an entity
    (lambda w: define_transitional(w, Transitional("lamp", (), (UNCOVERED,))), DuplicateNameError),
    # a workflow whose second step fails
    (lambda w: define_workflow(w, Workflow("w", (), Seq((
        _step("s1", links=[UNCOVERED]), _step("s2", agent="ghost"))), False)), UnknownEntityError),
], ids=["transitional-invalid-template", "transitional-name-taken", "workflow-second-step"])
def test_a_refused_definition_leaves_no_tier2_warning(define, error):
    w = _uncovered_world()
    with pytest.raises(error):
        define(w)
    assert w.warnings == []
    # the uncovered template alone is admitted, and warned of once stored
    define_transitional(w, Transitional("ok", (), (UNCOVERED,)))
    assert len(w.warnings) == 1 and w.warnings[0].startswith("tier-2: transitional 'ok': no declaration covers")


def test_frame_roundtrip_exact_spans(school_world):
    w = school_world
    activate_frame(w, "Employment", EMPLOYMENT_BINDING, 1)
    events = deactivate_frame(w, "Employment", EMPLOYMENT_BINDING, 5)
    assert [e.kind for e in events] == ["FrameDeactivate"] + ["Unlink"] * 6
    spans = {(l.from_p, l.kind, l.to_p, l.start, l.end) for l in w.links}
    assert all(s[3] == 1 and s[4] == 5 for s in spans)
    assert len(spans) == 6
    with pytest.raises(NotActiveError, match="frame 'Employment' is not active for this binding"):
        deactivate_frame(w, "Employment", EMPLOYMENT_BINDING, 6)  # double deactivation


def test_deactivate_frame_after_manual_unlink(school_world):
    w = school_world
    activate_frame(w, "Employment", EMPLOYMENT_BINDING, 1)
    w.edit([("teacher1", "Has_Quality", "teacher_salary")], (), 2)
    with pytest.raises(NotActiveError) as exc:
        deactivate_frame(w, "Employment", EMPLOYMENT_BINDING, 3)
    assert "teacher_salary" in str(exc.value)  # missing links are listed
    # relinked later, the link is another one: still missing
    w.edit((), [("teacher1", "Has_Quality", "teacher_salary")], 2)
    with pytest.raises(NotActiveError, match="missing link.*: teacher1 Has_Quality teacher_salary$"):
        deactivate_frame(w, "Employment", EMPLOYMENT_BINDING, 3)


def test_deactivate_by_binding(school_world):
    w = school_world
    activate_frame(w, "Employment", EMPLOYMENT_BINDING, 1)
    deactivate_frame(w, "Employment", tuple(reversed(EMPLOYMENT_BINDING)), 4)
    assert all(l.end == 4 for l in w.links)


def _step(name, duration=1, pre=(), unlinks=(), links=(), agent=None, placeholder=False):
    return WorkflowStep(name, agent, duration, tuple(pre), tuple(unlinks), tuple(links), placeholder)


def test_define_workflow_errors(lamp_world):
    w = lamp_world
    with pytest.raises(UnboundedLoopError):
        define_workflow(w, Workflow("w1", (), Seq((Loop(Seq((_step("s"),))),)), False))
    with pytest.raises(MissingAgentError):
        define_workflow(w, Workflow("w2", (), Seq((_step("s"),)), True))  # agent required
    ok = Workflow("ok", (), Seq((_step("s", agent="lampA_green"),)), True)
    assert define_workflow(w, ok) is ok and w.workflows["ok"] is ok
    with pytest.raises(DuplicateNameError):
        define_workflow(w, Workflow("ok", (), Seq(()), False))
    with pytest.raises(DuplicateNameError):
        define_workflow(w, Workflow("w3", (), Seq((_step("s"), _step("s"))), False))
    with pytest.raises(UnknownEntityError):
        define_workflow(w, Workflow("w4", (), Seq((_step("s", agent="ghost"),)), True))
    with pytest.raises(DuplicateNameError, match="workflow 'w5' declares parameter 'x' twice"):
        define_workflow(w, Workflow("w5", ("x", "y", "x"), Seq((_step("s"),)), False))


def test_define_workflow_refuses_a_negative_duration(lamp_world):
    """The DSL reads a duration as digits; only the Python API can give a
    negative one, and define_workflow refuses it before registering."""
    w = lamp_world
    with pytest.raises(InvalidTemplateError) as info:
        define_workflow(w, Workflow("w", (), Seq((_step("s"), Loop(Seq((_step("t", duration=-1),)), count=2))), False))
    assert str(info.value) == "workflow 'w': step 't' has negative duration"
    assert "w" not in w.workflows and "w" not in w.param_kinds
    define_workflow(w, Workflow("w", (), Seq((_step("t", duration=0),)), False))


NESTERS = {
    "loop": lambda body: Loop(body, count=1),
    "if": lambda body: Cond(P(True, "lampA_green", "Has_Quality", "green"), body),
    "seq": lambda body: body,  # a Seq directly in a Seq, which no DSL text gives
}


@pytest.mark.parametrize("block", sorted(NESTERS))
def test_define_workflow_refuses_blocks_nested_past_max_block_depth(lamp_world, block):
    """A body built in Python nests blocks at most as deep as a parsed one;
    a deeper one is refused before any walk recurses."""
    def nested(depth):
        body = Seq((_step("s"),))
        for _ in range(depth):
            body = Seq((NESTERS[block](body),))
        return body

    w = lamp_world
    for depth in (MAX_BLOCK_DEPTH + 1, 1000):
        with pytest.raises(InvalidTemplateError) as info:
            define_workflow(w, Workflow("deep", (), nested(depth), False))
        assert str(info.value) == "loop and if blocks nest more than 100 deep"
    assert "deep" not in w.workflows
    define_workflow(w, Workflow("w", (), nested(MAX_BLOCK_DEPTH), False))
    sim = load_scenario(w, Scenario("s", 3, (), (RunSpec("w", (), 0),)))
    sim.run_until(3)
    assert sim.summary() == [(0, "w", "Completed", "s")]


def test_check_completeness_refuses_an_undefined_body_nested_past_max_block_depth():
    """A workflow never passed to ``define_workflow`` is refused before the
    checker recurses into it."""
    body = Seq((_step("s"),))
    for _ in range(1000):
        body = Seq((Loop(body, 1),))
    with pytest.raises(InvalidTemplateError, match="loop and if blocks nest more than 100 deep"):
        check_completeness(Workflow("w", (), body, False), ())


def test_define_workflow_param_conflict(lamp_world):
    w = lamp_world
    step = _step("s", duration="x", links=(T("x", "Has_Quality", "green"),))
    with pytest.raises(InvalidTemplateError):
        define_workflow(w, Workflow("w", ("x",), Seq((step,)), False))


# Each place a workflow body can write parameter x, and the kind it makes x.
PARAM_PLACES = [
    ("agent", Seq((_step("s", agent="x"),)), "entity"),
    ("duration", Seq((_step("s", duration="x"),)), "count"),
    ("effect unlink", Seq((_step("s", unlinks=(T("x", "Has_Quality", "green"),)),)), "entity"),
    ("effect link", Seq((_step("s", links=(T("lampA_green", "Has_Quality", "x"),)),)), "entity"),
    ("require", Seq((_step("s", pre=(P(True, "x", "Has_Quality", "green"),)),)), "entity"),
    ("loop until", Seq((Loop(Seq((_step("s"),)), guard=P(False, "x", "Has_Quality", "green")),)), "entity"),
    ("if", Seq((Cond(P(True, "lampA_green", "Has_Quality", "x"), Seq((_step("s"),))),)), "entity"),
]


@pytest.mark.parametrize("place,body,kind", PARAM_PLACES, ids=[p[0] for p in PARAM_PLACES])
def test_every_place_a_parameter_is_written_types_it(lamp_world, place, body, kind):
    """A parameter's kind comes from wherever it is written, guards
    included; bind_args refuses exactly the arguments of the other kind."""
    w = lamp_world
    wf = define_workflow(w, Workflow("w", ("x",), body, False))
    assert w.param_kinds["w"] == {"x": kind}
    for arg, fits in ((2, kind == "count"), ("lampA_yellow", kind == "entity")):
        if fits:
            assert bind_args(w, wf, (arg,)) == {"x": arg}
        else:
            with pytest.raises(ResolveError, match=f"parameter 'x' needs {'a number' if kind == 'count' else 'an entity'}"):
                bind_args(w, wf, (arg,))


def test_a_workflow_body_is_walked_once_to_define_and_never_to_bind(lamp_world, monkeypatch):
    """define_workflow checks and types a body in one walk; bind_args,
    at load and at each run, reads the kinds it kept."""
    from xfo import dynamics
    w = lamp_world
    bodies = [
        Seq((Loop(Seq((_step("s", duration="d", pre=(P(True, "x", "Has_Quality", "green"),)),)), count=2),
             Cond(P(True, "x", "Has_Quality", "dark"), Seq((_step("t"),))))),
        Seq((_step("u", links=(T("x", "Has_Quality", "yellow"),)),)),
    ]
    walked = []
    walk = dynamics.walk_nodes
    monkeypatch.setattr(dynamics, "walk_nodes", lambda node: walked.append(node) or walk(node))

    def walks(body):
        return sum(node is body for node in walked)

    for i, body in enumerate(bodies):
        define_workflow(w, Workflow(f"w{i}", ("x", "d"), body, False))
        assert walks(body) == 1
    walked.clear()
    for i in range(2):
        bind_args(w, w.workflows[f"w{i}"], ("lampA_green", 2))
    sim = load_scenario(w, Scenario("s", 3, (), (RunSpec("w0", ("lampA_green", 2), 0),
                                                 RunSpec("w1", ("lampA_yellow", 1), 0))))
    assert len(sim.runs) == 2
    assert [walks(body) for body in bodies] == [0, 0]


def test_define_workflow_rejects_duplicate_step_edits(lamp_world):
    w = lamp_world
    dup = _step("s", links=(T("lampA_green", "Has_Quality", "yellow"),
                            T("lampA_green", "Has_Quality", "yellow")))
    with pytest.raises(InvalidTemplateError):
        define_workflow(w, Workflow("w", (), Seq((dup,)), False))
    both = _step("s2", unlinks=(T("lampA_green", "Has_Quality", "green"),),
                 links=(T("lampA_green", "Has_Quality", "green"),))
    with pytest.raises(InvalidTemplateError):
        define_workflow(w, Workflow("w2", (), Seq((both,)), False))


def test_define_workflow_checks_guard_refs(lamp_world):
    w = lamp_world
    bad_pre = _step("s", pre=(P(True, "ghost", "Has_Quality", "green"),))
    with pytest.raises(UnknownEntityError):
        define_workflow(w, Workflow("w", (), Seq((bad_pre,)), False))
    bad_loop = Loop(Seq((_step("s"),)), guard=P(True, "lampA_green", "Has_Quality", "ghost"))
    with pytest.raises(UnknownEntityError):
        define_workflow(w, Workflow("w2", (), Seq((bad_loop,)), False))
    # parameters are legal predicate refs
    ok = _step("s", pre=(P(True, "x", "Has_Quality", "green"),))
    define_workflow(w, Workflow("w3", ("x",), Seq((ok,)), False))


def test_bounded_loop_forms(lamp_world):
    w = lamp_world
    guard = P(True, "lampA_green", "Has_Quality", "dark")
    define_workflow(w, Workflow("counted", (), Seq((Loop(Seq((_step("a"),)), count=3),)), False))
    define_workflow(w, Workflow("guarded", (), Seq((Loop(Seq((_step("b"),)), guard=guard),)), False))
    define_workflow(w, Workflow("horizon", (), Seq((Loop(Seq((_step("c"),)), until_end=True),)), False))


CELADON_FACT = P(True, "clay1", "Has_Quality", "raw")


def test_completeness_celadon():
    w = load_world("celadon.xfo")
    report = check_completeness(w.workflows["celadonProduction"], [CELADON_FACT])
    assert report.complete, report.gaps
    assert report.placeholders == ("dry_vessel",)


def test_completeness_missing_initial_fact():
    w = load_world("celadon.xfo")
    report = check_completeness(w.workflows["celadonProduction"], [])
    assert not report.complete
    assert report.gaps[0].step == "prepare_clay"
    assert report.gaps[0].predicate == "exists clay1 Has_Quality raw"


def test_completeness_empty_workflow(lamp_world):
    wf = define_workflow(lamp_world, Workflow("empty", (), Seq(()), False))
    report = check_completeness(wf, [])
    assert report.complete and report.placeholders == ()


def test_completeness_explores_both_branches(lamp_world):
    w = lamp_world
    guard = P(True, "lampA_green", "Has_Quality", "green")
    then_step = _step("on_green", unlinks=(T("lampA_green", "Has_Quality", "green"),))
    else_step = _step("on_other", unlinks=(T("lampA_green", "Has_Quality", "green"),))
    wf = define_workflow(
        w, Workflow("branchy", (), Seq((Cond(guard, Seq((then_step,)), Seq((else_step,))),)), False)
    )
    report = check_completeness(wf, [])
    # both branches lack the fact; both paths are reported
    steps = {g.step for g in report.gaps}
    assert steps == {"on_green", "on_other"}
    paths = {g.path for g in report.gaps}
    assert paths == {"/then", "/else"}


def test_completeness_loop_fixpoint(lamp_world):
    w = lamp_world
    # swap green <-> dark and back: stable across iterations
    body = Seq((
        _step("to_dark",
              unlinks=(T("lampA_green", "Has_Quality", "green"),),
              links=(T("lampA_green", "Has_Quality", "dark"),)),
        _step("to_green",
              unlinks=(T("lampA_green", "Has_Quality", "dark"),),
              links=(T("lampA_green", "Has_Quality", "green"),)),
    ))
    wf = define_workflow(w, Workflow("cycle", (), Seq((Loop(body, until_end=True),)), False))
    report = check_completeness(wf, [P(True, "lampA_green", "Has_Quality", "green")])
    assert report.complete, report.gaps
    # a loop body that consumes its fact without restoring it gaps on iter2
    body2 = Seq((_step("eat", unlinks=(T("lampA_green", "Has_Quality", "green"),)),))
    wf2 = define_workflow(w, Workflow("eater", (), Seq((Loop(body2, count=2),)), False))
    report2 = check_completeness(wf2, [P(True, "lampA_green", "Has_Quality", "green")])
    assert not report2.complete
    assert report2.gaps[0].path.endswith("/iter2")


def test_completeness_placeholder_asserts(lamp_world):
    w = lamp_world
    ph = _step("assumed", links=(T("lampA_green", "Has_Quality", "yellow"),), placeholder=True)
    after = _step("uses", pre=(P(True, "lampA_green", "Has_Quality", "yellow"),))
    wf = define_workflow(w, Workflow("ph", (), Seq((ph, after)), False))
    report = check_completeness(wf, [])
    assert report.complete
    assert report.placeholders == ("assumed",)


def test_define_rule_validation(school_world):
    w = school_world
    guard = (P(False, Wildcard("Person"), "Has_Role", "teacher_role"),)
    with pytest.raises(DuplicateNameError):
        define_rule(w, Rule("teacher_vacancy", guard, ApplyDirective("x")))
    with pytest.raises(UnknownActionError):
        define_rule(w, Rule("r1", guard, RunSpec("ghost")))
    with pytest.raises(UnknownActionError):
        # arity mismatch against hireReplacement(recruiter)
        define_rule(w, Rule("r2", guard, RunSpec("hireReplacement", ())))
    with pytest.raises(UnknownEntityError):
        define_rule(w, Rule("r3", (P(True, "ghost", "Has_Role", "teacher_role"),),
                            RunSpec("hireReplacement", ("superintendent1",))))
    with pytest.raises(UnknownEntityError):
        # wildcard type must be a universal
        define_rule(w, Rule("r4", (P(False, Wildcard("B_Object"), "Has_Role", "teacher_role"),),
                            RunSpec("hireReplacement", ("superintendent1",))))
    with pytest.raises(UnknownSlotError):
        define_rule(w, Rule("r6", guard, ActivateDirective("Employment",
                                                           (("salary", "teacher_salary"),))))
    with pytest.raises(UnknownEntityError):
        define_rule(w, Rule("r7", guard, RunSpec("hireReplacement", ("ghost",))))
    with pytest.raises(ResolveError):
        # a rule's action runs at the tick the rule fires; it has no tick of its own
        define_rule(w, Rule("r8", guard, RunSpec("hireReplacement", ("superintendent1",), 7)))
    r = Rule("r5", guard, RunSpec("hireReplacement", ("superintendent1",)))
    assert define_rule(w, r) is r and w.rules["r5"] is r
    assert r.action.render() == "start_workflow hireReplacement(superintendent1)"


def test_a_fault_prefixed_with_where_it_was_written_keeps_its_class_and_attributes():
    exc = InvalidLinkError("bad link", result="verdict", triple=("a", "Has_Quality", "b"))
    assert exc.within("rule 'r'") is exc
    assert (type(exc), str(exc), exc.result, exc.triple) == (
        InvalidLinkError, "rule 'r': bad link", "verdict", ("a", "Has_Quality", "b"))


def test_predicate_wildcard_evaluation(school_world):
    w = school_world
    pred = P(True, Wildcard("Person"), "Has_Role", "teacher_role")
    assert not pred.holds(w, 0)
    w.edit((), [("teacher1", "Has_Role", "teacher_role")], 0)
    assert pred.holds(w, 0)
    # a different role does not satisfy the concrete to-side
    assert not P(True, Wildcard("Person"), "Has_Role", "superintendent_role").holds(w, 0)
