"""Parser, diagnostics, pretty-printer round-trips."""
from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from xfo import loader
from xfo.dsl import (
    MAX_BLOCK_DEPTH,
    InitStmt,
    ModelHeader,
    parse_model,
    parse_scenario,
)
from xfo.dynamics import Cond, Frame, Loop, Rule, RunSpec, Step, Transitional, Wildcard, Workflow, check_completeness
from xfo.ontology import EntityDef, Layer
from xfo.relations import RelationDeclaration, RelationKind

from helpers import SHIPPED_MODELS, SHIPPED_RUNS, model_text
from printer import print_model, print_scenario


def test_parse_basic_statements():
    res = parse_model(
        "model M\n"
        "universal Pottery is_a B_Object\n"
        "particular pot1 instance_of Pottery\n"
        "relation Employed_By from B_Object to B_ObjectAggregate\n"
        "relate Pottery Has_Quality Pottery\n"
    )
    assert res.ok
    kinds = [type(s) for s in res.document.statements]
    assert kinds == [ModelHeader, EntityDef, EntityDef, RelationKind, RelationDeclaration]
    assert res.document.name == "M"
    u = res.document.statements[1]
    assert (u.name, u.parent) == ("Pottery", "B_Object")
    assert u.span.line == 2 and u.span.column == 1


def test_parse_comments_and_blanks():
    res = parse_model("# heading\n\nmodel M   # trailing\n\n# done\n")
    assert res.ok and len(res.document.statements) == 1


def test_parse_block_statements():
    res = parse_model(
        "transitional t {\n"
        "  unlink a K b\n"
        "  link a K c\n"
        "}\n"
        "frame F {\n"
        "  slot x\n"
        "  slot y\n"
        "  link x K y\n"
        "}\n"
    )
    assert res.ok
    t, f = res.document.statements
    assert isinstance(t, Transitional)
    assert [str(x) for x in t.unlinks] == ["a K b"]
    assert [str(x) for x in t.links] == ["a K c"]
    assert isinstance(f, Frame) and f.slots == ("x", "y")


def test_parse_workflow_forms():
    res = parse_model(
        "workflow w(p, d) {\n"
        "  step s1 {\n"
        "    agent p\n"
        "    duration d\n"
        "    require exists p K q\n"
        "    effect link p K q\n"
        "  }\n"
        "  loop 3 {\n"
        "    step s2 {\n"
        "      agent p\n"
        "      duration 1\n"
        "    }\n"
        "  }\n"
        "  loop until end {\n"
        "    step s3 {\n"
        "      agent p\n"
        "      duration 0\n"
        "    }\n"
        "  }\n"
        "  loop until not_exists any:T K q {\n"
        "    step s4 {\n"
        "      agent p\n"
        "      duration 1\n"
        "    }\n"
        "  }\n"
        "  if exists p K q {\n"
        "    step s5 {\n"
        "      agent p\n"
        "      duration 1\n"
        "    }\n"
        "  } else {\n"
        "    step s6 placeholder {\n"
        "      agent p\n"
        "      duration 1\n"
        "    }\n"
        "  }\n"
        "}\n"
    )
    assert res.ok, [d.render() for d in res.diagnostics]
    wf = res.document.statements[0]
    assert isinstance(wf, Workflow) and wf.requires_agent and wf.params == ("p", "d")
    items = wf.body.items
    assert isinstance(items[0], Step) and items[0].step.duration == "d"
    assert isinstance(items[1], Loop) and items[1].count == 3
    assert isinstance(items[2], Loop) and items[2].until_end
    loop4 = items[3]
    assert isinstance(loop4, Loop) and loop4.guard is not None
    assert loop4.guard.from_ref == Wildcard("T") and not loop4.guard.exists
    cond = items[4]
    assert isinstance(cond, Cond) and cond.else_body is not None
    assert cond.else_body.items[0].step.placeholder


def test_parse_mechanism_and_rule():
    res = parse_model(
        "mechanism m {\n"
        "  step s {\n"
        "    duration 1\n"
        "  }\n"
        "}\n"
        "rule r {\n"
        "  when not_exists any:Person Has_Role teacher\n"
        "  when exists boss Has_Role chief\n"
        "  then start_workflow hire(boss)\n"
        "}\n"
    )
    assert res.ok
    m, r = res.document.statements
    assert isinstance(m, Workflow) and not m.requires_agent
    assert isinstance(r, Rule) and len(r.guard) == 2
    assert r.action == RunSpec("hire", ("boss",))


# Uses every scenario statement and directive kind.
EVERY_DIRECTIVE = (
    "scenario s\n"
    "horizon 12\n"
    "init a K b\n"
    "run w(a, 2) at 0\n"
    "run nullary() at 1\n"
    "rule r\n"
    "activate F(x=a, y=b) at 2\n"
    "deactivate F(x=a, y=b) at 3\n"
    "apply t at 4\n"
    "interrupt 0 at 5\n"
)


def test_parse_scenario_statements():
    res = parse_scenario(EVERY_DIRECTIVE)
    assert res.ok, [d.render() for d in res.diagnostics]
    stmts = res.document.statements
    assert res.document.name == "s"
    run = stmts[3]
    assert run == RunSpec("w", ("a", 2), 0) and run.span.line == 4
    assert stmts[4].args == ()
    assert isinstance(stmts[2], InitStmt)
    assert stmts[6].binding == (("x", "a"), ("y", "b"))
    assert stmts[9].run == 0 and stmts[9].at == 5


def test_parse_collects_all_errors():
    res = parse_model(
        "universal A is_a\n"      # missing parent
        "junk line here\n"        # unknown statement
        "universal B is_a B_Object extra\n"  # trailing token
        "particular ok instance_of B\n"
    )
    assert not res.ok
    assert len([d for d in res.diagnostics if d.severity == "error"]) == 3
    # the good statement still parsed
    assert [type(s) for s in res.document.statements] == [EntityDef]
    lines = [d.span.line for d in res.diagnostics]
    assert lines == [1, 2, 3]
    # text after a body's closing '}': workflow, loop, else
    step = "    step s {\n      duration 1\n    }\n"
    for text, line in (
        ("workflow w {\n" + step + "} junk\n", 5),
        ("workflow w {\n  loop 2 {\n" + step + "  } junk\n}\n", 6),
        ("workflow w {\n  if exists a K b {\n" + step + "  } else {\n" + step + "  } junk\n}\n", 10),
    ):
        res = parse_model(text + "universal Good is_a B_Object\n")
        assert [(d.code, d.span.line) for d in res.diagnostics] == [("E_PARSE", line)], text
        assert [type(s) for s in res.document.statements] == [Workflow, EntityDef]
    # text after an 'if' body with no 'else' is not taken for a missing 'else'
    res = parse_model(
        "workflow w {\n  if exists a K b {\n" + step + "  } junk\n"
        + step.replace("step s", "step t") + "}\nuniversal Good2 is_a B_Object\n"
    )
    assert [(d.code, d.span.line) for d in res.diagnostics] == [("E_PARSE", 6)]
    wf, good = res.document.statements
    assert [type(n).__name__ for n in wf.body.items] == ["Cond", "Step"]
    assert good.name == "Good2"


def test_parse_error_recovery_skips_block():
    res = parse_model(
        "workflow broken( {\n"
        "  step s {\n"
        "    duration 1\n"
        "  }\n"
        "}\n"
        "universal Good is_a B_Object\n"
    )
    assert not res.ok
    assert [type(s) for s in res.document.statements] == [EntityDef]


def test_parse_clause_error_recovers_within_block():
    res = parse_model(
        "transitional t {\n"
        "  link a K b\n"
        "  bogus clause\n"
        "  link a K c\n"
        "}\n"
        "universal Good is_a B_Object\n"
    )
    errors = [d for d in res.diagnostics if d.severity == "error"]
    assert len(errors) == 1 and errors[0].span.line == 3
    t, good = res.document.statements
    assert [str(x) for x in t.links] == ["a K b", "a K c"]  # both clauses kept
    assert isinstance(good, EntityDef)


def test_parse_nested_step_header_error_recovers():
    res = parse_model(
        "workflow w {\n"
        "  step bad header {\n"
        "    duration 1\n"
        "  }\n"
        "  step ok {\n"
        "    agent a\n"
        "    duration 2\n"
        "  }\n"
        "}\n"
        "universal Good is_a B_Object\n"
    )
    errors = [d for d in res.diagnostics if d.severity == "error"]
    assert len(errors) == 1 and errors[0].span.line == 2
    wf, good = res.document.statements
    assert [n.step.name for n in wf.body.items] == ["ok"]
    assert isinstance(good, EntityDef)


def test_parse_bad_character():
    res = parse_model("universal A is_a B_Object ;\n")
    assert not res.ok
    assert res.diagnostics[0].code == "E_PARSE"
    assert res.diagnostics[0].span.column == 27


def test_parse_unterminated_block():
    res = parse_model("transitional t {\n  link a K b\n")
    assert not res.ok


def test_missing_horizon_diagnostic():
    res = parse_scenario("scenario s\ninit a K b\n")
    assert res.ok  # syntactically fine
    from xfo.relations import World

    scenario, diags = loader.build_scenario(res.document, World())
    assert scenario is None
    assert any(d.code == "E_NO_HORIZON" for d in diags)


def test_zero_horizon_is_reported_once_at_its_line():
    """A horizon of 0 used to get "scenario has no horizon" besides its
    own diagnostic. It gets only that one, and no tick is past it."""
    from xfo.relations import World

    res = parse_scenario("scenario s\nhorizon 0\ninterrupt 0 at 2\n", "x.xws")
    assert res.ok
    scenario, diags = loader.build_scenario(res.document, World())
    assert scenario is None
    assert [(d.code, d.span.line, d.message) for d in diags] == [
        ("E_RESOLVE", 2, "scenario 's': horizon must be positive"),
        ("E_RESOLVE", 3, "scenario 's': no run with ordinal 0"),
    ]


def test_a_second_model_header_is_refused_at_its_line():
    """The first header names the model, in the document and in the world
    alike; a second one is an error, as a second horizon is."""
    res = parse_model("model A\nuniversal U is_a B_Object\nmodel B\n", "m.xfo")
    assert res.ok and res.document.name == "A"
    world, diags = loader.build_world(res.document)
    assert world.model_name == "A"
    assert [(d.code, d.span.line, d.message) for d in diags] == [
        ("E_PARSE", 3, "model given more than once")]


def test_a_second_scenario_header_is_refused_at_its_line():
    from xfo.relations import World

    res = parse_scenario("scenario S\nhorizon 3\nscenario T\n", "s.xws")
    assert res.ok and res.document.name == "S"
    scenario, diags = loader.build_scenario(res.document, World())
    assert scenario is None
    assert [(d.code, d.span.line, d.message) for d in diags] == [
        ("E_PARSE", 3, "scenario given more than once")]


def test_unknown_parent_diagnostic():
    res = parse_model("universal X is_a Y\n")
    assert res.ok
    world, diags = loader.build_world(res.document)
    assert [d.code for d in diags] == ["E_UNKNOWN_PARENT"]
    assert diags[0].span.line == 1


def test_loader_flags_run_arity_and_argument_kinds():
    model = parse_model(
        "universal Thing is_a B_Object\n"
        "particular a instance_of Thing\n"
        "mechanism m(x, d) {\n"
        "  step s {\n"
        "    duration d\n"
        "    effect link x Has_Quality a\n"
        "  }\n"
        "}\n"
    )
    assert model.ok
    world, diags = loader.build_world(model.document)
    assert not diags
    for bad_run, code in (("run m(a) at 0", "E_UNKNOWN_ACTION"),          # arity
                          ("run m(a, a) at 0", "E_RESOLVE"),              # duration needs a number
                          ("run m(2, 1) at 0", "E_RESOLVE"),              # ref needs an entity
                          ("run m(ghost, 1) at 0", "E_UNKNOWN_ENTITY")):  # unknown entity
        res = parse_scenario(f"scenario s\nhorizon 3\n{bad_run}\n")
        assert res.ok
        scenario, sdiags = loader.build_scenario(res.document, world)
        assert scenario is None
        assert [d.code for d in sdiags] == [code], bad_run


def test_loader_reports_what_loading_would_refuse_at_its_line():
    model = parse_model(
        "universal Thing is_a B_Object\n"
        "universal Mark is_a B_Quality\n"
        "particular a instance_of Thing\n"
        "particular q instance_of Mark\n"
        "relate Thing Has_Quality Mark\n"
        "frame Marked {\n"
        "  slot x\n"
        "  slot m\n"
        "  link x Has_Quality m\n"
        "}\n"
        "mechanism m {\n"
        "  step s {\n"
        "    duration 1\n"
        "  }\n"
        "}\n"
    )
    assert model.ok
    world, diags = loader.build_world(model.document)
    assert not diags
    for line, code in (("activate Marked(x=ghost, m=q) at 1", "E_UNKNOWN_ENTITY"),
                       ("deactivate Marked(x=a, m=ghost) at 1", "E_UNKNOWN_ENTITY"),
                       ("activate Marked(y=a, m=q) at 1", "E_UNKNOWN_SLOT"),     # undeclared slot
                       ("deactivate Marked(x=a) at 1", "E_INCOMPLETE_BINDING"),  # used slot m unbound
                       ("init a Has_Quality q", "E_INVALID_INIT_LINK"),          # given twice
                       ("run m() at 9", "E_RESOLVE"),                            # past the horizon
                       ("interrupt 1 at 1", "E_RESOLVE")):                       # no run 1
        res = parse_scenario(f"scenario s\nhorizon 3\ninit a Has_Quality q\nrun m() at 0\n{line}\n", "x.xws")
        assert res.ok
        scenario, sdiags = loader.build_scenario(res.document, world)
        assert scenario is None, line
        assert [(d.code, d.span.line) for d in sdiags] == [(code, 5)], line
    assert not world.links and not world.trace and not world.warnings


def test_loader_reports_every_statement_error():
    res = parse_model(
        "universal Pottery is_a B_Object\n"
        "universal Pottery is_a B_Object\n"
        "relate Pottery Has_Quality Ghost\n"
        "relation Bad from Pottery to B_Quality\n"
    )
    assert res.ok
    _world, diags = loader.build_world(res.document)
    assert [d.code for d in diags] == ["E_DUP_NAME", "E_UNKNOWN_ENTITY", "E_BAD_BOUND"]


def test_workflow_naming_a_parameter_twice_is_refused_at_its_line():
    res = parse_model("model m\nmechanism w(x, x) {\n  step s {\n    duration 0\n  }\n}\n")
    assert res.ok
    world, diags = loader.build_world(res.document)
    assert [(d.code, d.span.line, d.message) for d in diags] == [
        ("E_DUP_NAME", 2, "workflow 'w' declares parameter 'x' twice")]
    assert "w" not in world.workflows


def test_a_steps_second_agent_or_duration_is_refused_at_that_keyword():
    """As a second header is: the step keeps its first agent and duration."""
    res = parse_model(
        "model m\nmechanism w(a) {\n  step s {\n    agent a\n    duration 1\n"
        "    duration 5\n    agent b\n  }\n}\n", "m.xfo")
    assert [(d.code, d.message, *tuple(d.span)[1:]) for d in res.diagnostics] == [
        ("E_PARSE", "step 's' has more than one 'duration'", 6, 5, 8),
        ("E_PARSE", "step 's' has more than one 'agent'", 7, 5, 5),
    ]
    (wf,) = [s for s in res.document.statements if isinstance(s, Workflow)]
    step = wf.body.items[0].step
    assert (step.agent_ref, step.duration) == ("a", 1)


@pytest.mark.parametrize("clauses,missing", [
    ("  then apply_transitional T\n", ["when"]),
    ("  when exists a K b\n", ["then"]),
    ("", ["when", "then"]),
], ids=["no-when", "no-then", "neither"])
def test_a_rule_missing_a_clause_keeps_the_statements_after_it(clauses, missing):
    """The rule is reported at its line and left out; parsing goes on after
    its '}', so every later statement is read and a later error reported."""
    res = parse_model(
        "rule R {\n" + clauses + "}\n"
        "universal Foo is_a B_Object\n"
        "transitional T {\n  link a K b\n}\n"
        "universal Bad is_a\n"
        "universal Bar is_a B_Object\n", "m.xfo")
    n = clauses.count("\n")
    assert [(d.message, *tuple(d.span)[1:]) for d in res.diagnostics] == [
        *((f"rule 'R' has no '{kw}' clause", 1, 1, 4) for kw in missing),
        ("unexpected end of line", n + 7, 15, 4),
    ]
    assert [(type(s), s.name) for s in res.document.statements] == [
        (EntityDef, "Foo"), (Transitional, "T"), (EntityDef, "Bar")]


def test_a_then_with_a_trailing_token_still_counts():
    """The action was read before the stray token was reported, so the
    rule keeps it and a later 'then' is its second."""
    res = parse_model(
        "rule R {\n  when exists a K b\n  then apply_transitional T extra\n"
        "  then apply_transitional U\n}\n", "m.xfo")
    assert [(d.message, *tuple(d.span)[1:]) for d in res.diagnostics] == [
        ("unexpected trailing 'extra'", 3, 29, 5),
        ("rule 'R' has more than one 'then'", 4, 3, 4),
    ]
    (rule,) = res.document.statements
    assert isinstance(rule, Rule) and rule.action.target == "T"


@pytest.mark.parametrize("else_line,message,column,steps", [
    ("} else", "unexpected end of line", 5, ("t",)),
    ("} else junk", "expected '{', got 'junk'", 10, ("t",)),
    ("} else { junk", "unexpected trailing 'junk'", 12, ()),
    ("} else junk {", "expected '{', got 'junk'", 10, ()),
])
def test_a_bad_else_line_fails_as_one_clause(else_line, message, column, steps):
    """The then body is read when the else line fails: it is reported once
    and skipped with any block it opens, and parsing resumes in the
    enclosing block, so the statements after the workflow are kept."""
    close = "  }\n" if "{" in else_line else ""
    res = parse_model(
        "workflow w {\n  if exists a K b {\n    step s {\n      duration 1\n    }\n"
        f"  {else_line}\n    step t {{\n      duration 1\n    }}\n{close}}}\n"
        "universal Foo is_a B_Object\n"
        "transitional T {\n  link a K b\n}\n"
        "universal Bar is_a B_Object\n", "m.xfo")
    assert [(d.message, *tuple(d.span)[1:]) for d in res.diagnostics] == [(message, 6, column, 4)]
    assert [(type(s), s.name) for s in res.document.statements] == [
        (Workflow, "w"), (EntityDef, "Foo"), (Transitional, "T"), (EntityDef, "Bar")]
    cond, *rest = res.document.statements[0].body.items
    assert isinstance(cond, Cond) and cond.else_body is None
    assert [n.step.name for n in cond.then_body.items] == ["s"]
    assert tuple(n.step.name for n in rest) == steps


_STEP = "    step {} {{\n      duration 1\n    }}\n"


@pytest.mark.parametrize("text,message,span,steps", [
    # an 'else' after a loop body: the else body is skipped with it
    ("workflow w {\n  loop 2 {\n" + _STEP.format("s") + "  } else {\n" + _STEP.format("t") + "  }\n}\n",
     "unexpected trailing 'else'", (6, 5, 4), ["loop"]),
    # text after a step's '}': the block it opens is skipped, the next step read
    ("workflow w {\n    step s {\n      duration 1\n    } x {\n      duration 2\n    }\n" + _STEP.format("t") + "}\n",
     "unexpected trailing 'x'", (4, 7, 1), ["s", "t"]),
    # text after a workflow's '}': the lines of the block it opens are not statements
    ("workflow w {\n" + _STEP.format("s") + "} junk {\n  universal Bar is_a B_Object\n}\n",
     "unexpected trailing 'junk'", (5, 3, 4), ["s"]),
    # a second '}' after a step's: it closes the workflow, the next lines are statements
    ("workflow w {\n  step s {\n    duration 1\n  } }\n",
     "unexpected trailing '}'", (4, 5, 1), ["s"]),
], ids=["loop", "step", "workflow", "second brace"])
def test_text_after_a_closing_brace_skips_the_block_it_opens(text, message, span, steps):
    """Text after a block's '}' is one error at that text. The block it
    opens is skipped whole: its lines are not read as clauses or
    statements, and its '}' does not end the enclosing body."""
    res = parse_model(text + "universal Foo is_a B_Object\n", "m.xfo")
    assert [(d.message, *tuple(d.span)[1:]) for d in res.diagnostics] == [(message, *span)]
    assert [(type(s), s.name) for s in res.document.statements] == [(Workflow, "w"), (EntityDef, "Foo")]
    items = res.document.statements[0].body.items
    assert [n.step.name if isinstance(n, Step) else "loop" for n in items] == steps
    if isinstance(items[0], Loop):
        assert [n.step.name for n in items[0].body.items] == ["s"]


def test_a_workflow_parameter_that_is_not_a_name_is_reported_at_it():
    res = parse_model("workflow W(a, 3) {\n  step s {\n    duration 1\n  }\n}\n", "m.xfo")
    assert [(d.code, d.message, *tuple(d.span)[1:]) for d in res.diagnostics] == [
        ("E_PARSE", "expected a parameter name, got '3'", 1, 15, 1)]


def _nested_model(depth: int, opener: str) -> str:
    """A workflow body of ``depth`` nested ``opener`` blocks around one step,
    and a universal after the workflow."""
    lines = ["model Deep", "universal Lamp is_a B_Object", "universal Color is_a B_Quality",
             "particular lamp instance_of Lamp", "particular red instance_of Color",
             "relate Lamp Has_Quality Color", "workflow w {"]
    lines += [f"{opener} {{"] * depth + ["step s {", "agent lamp", "}"] + ["}"] * depth
    return "\n".join([*lines, "}", "universal After is_a B_Object"]) + "\n"


@pytest.mark.parametrize("opener", ["loop 2", "if exists lamp Has_Quality red"], ids=["loop", "if"])
@pytest.mark.parametrize("depth", [MAX_BLOCK_DEPTH, MAX_BLOCK_DEPTH + 1, 5000])
def test_blocks_nest_at_most_max_block_depth(depth, opener):
    """Loop and if blocks nest 100 deep. One opened deeper is one E_PARSE at
    its line, the block it opens is skipped, and parsing goes on: the
    parser never throws."""
    assert MAX_BLOCK_DEPTH == 100
    res = parse_model(_nested_model(depth, opener))
    *_, wf, after = res.document.statements
    assert after == EntityDef("After", Layer.U, "B_Object")
    levels, body = 0, wf.body
    while body.items and not isinstance(body.items[0], Step):
        block = body.items[0]
        body = block.body if isinstance(block, Loop) else block.then_body
        levels += 1
    assert levels == min(depth, MAX_BLOCK_DEPTH)
    if depth > MAX_BLOCK_DEPTH:
        assert body.items == ()
        assert [(d.code, d.message, d.span.line, d.span.column) for d in res.diagnostics] == [
            ("E_PARSE", "loop and if blocks nest more than 100 deep", 8 + MAX_BLOCK_DEPTH, 1)]
        return
    assert res.diagnostics == () and [n.step.name for n in body.items] == ["s"]
    world, diags = loader.build_world(res.document)
    assert diags == [] and world.workflows["w"] == wf
    assert check_completeness(wf, ()).complete


def test_roundtrip_shipped_files():
    for name in SHIPPED_MODELS:
        first = parse_model(model_text(name), name)
        assert first.ok
        # the loader defines what was parsed, unchanged
        world, _ = loader.build_world(first.document)
        tables = {Transitional: world.transitionals, Frame: world.frames,
                  Workflow: world.workflows, Rule: world.rules}
        defs = [s for s in first.document.statements if type(s) in tables]
        assert defs
        for d in defs:
            assert tables[type(d)][d.name] == d
        printed = print_model(first.document)
        second = parse_model(printed, name)
        assert second.ok
        assert second.document == first.document
        # printing is a fixpoint
        assert print_model(second.document) == printed
    for _, name in SHIPPED_RUNS:
        first = parse_scenario(model_text(name), name)
        assert first.ok
        printed = print_scenario(first.document)
        second = parse_scenario(printed, name)
        assert second.ok
        assert second.document == first.document
    first = parse_scenario(EVERY_DIRECTIVE)
    printed = print_scenario(first.document)
    assert printed == EVERY_DIRECTIVE
    second = parse_scenario(printed)
    assert second.ok and second.document == first.document


def test_rule_action_and_scenario_line_parse_to_one_action():
    for word, rule_word, operand in (
        ("run", "start_workflow", "w(a, 2)"),
        ("apply", "apply_transitional", "t"),
        ("activate", "activate_frame", "F(x=a, y=b)"),
        ("deactivate", "deactivate_frame", "F(x=a, y=b)"),
    ):
        model = f"rule r {{\n  when exists a K b\n  then {rule_word} {operand}\n}}\n"
        scenario = f"{word} {operand} at 3\n"
        rule_doc, scenario_doc = parse_model(model).document, parse_scenario(scenario).document
        (rule,), (line,) = rule_doc.statements, scenario_doc.statements
        assert rule.action == dataclasses.replace(line, at=None) and line.at == 3
        assert print_model(rule_doc) == model and print_scenario(scenario_doc) == scenario


@given(st.text(max_size=300))
@settings(max_examples=150, deadline=None)
def test_parse_totality_model(text):
    res = parse_model(text)
    assert res.document is not None
    for d in res.diagnostics:
        assert d.span.line >= 1 and d.span.column >= 1


@given(st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=600), max_size=200))
@settings(max_examples=150, deadline=None)
def test_parse_totality_scenario(text):
    res = parse_scenario(text)
    assert res.document is not None
