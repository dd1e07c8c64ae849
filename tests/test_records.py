"""The record rule: a value record is a NamedTuple unless it needs a
dataclass feature, which is a mutable field or a ``cached_property``. A
definition record's last field is its ``span``, which ``_spanned`` leaves
out of ``==``, ``hash`` and ``repr``. README "Library" states the rule.
Each record keeps the fields, defaults and repr it had as a frozen
dataclass."""
from __future__ import annotations

import dataclasses
import functools
import importlib
import pkgutil

import pytest

import xfo
from xfo.dsl import (
    Diagnostic,
    HorizonStmt,
    InitStmt,
    ModelDocument,
    ModelHeader,
    ParseResult,
    RuleRefStmt,
    ScenarioDocument,
    ScenarioHeader,
)
from xfo.dynamics import (
    ActivateDirective,
    ApplyDirective,
    CompletenessReport,
    Cond,
    DeactivateDirective,
    Frame,
    Gap,
    LinkTemplate,
    Loop,
    Rule,
    RunSpec,
    Seq,
    StatePredicate,
    Step,
    Transitional,
    Wildcard,
    Workflow,
    WorkflowStep,
    _FrameAction,
)
from xfo.microworld import InterruptDirective, Scenario
from xfo.ontology import EntityDef, Layer, SourceSpan
from xfo.relations import TIC, LinkInstance, RelationDeclaration, RelationKind, State, TicEntry, ValidationResult


def _xfo_classes():
    for info in pkgutil.iter_modules(xfo.__path__):
        module = importlib.import_module(f"xfo.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield obj


def _needs_dataclass(cls) -> bool:
    return not cls.__dataclass_params__.frozen or any(
        isinstance(v, functools.cached_property) for v in vars(cls).values()
    )


def test_a_dataclass_needs_a_dataclass_feature():
    """A frozen dataclass that caches nothing is a plain value record, so
    it should be a NamedTuple."""
    kept = [cls for cls in _xfo_classes() if dataclasses.is_dataclass(cls)]
    assert kept, "the walk found no dataclass in xfo"
    assert [cls.__qualname__ for cls in kept if not _needs_dataclass(cls)] == []


def test_the_dataclass_is_exactly_tracedoc():
    """``TraceDoc.spans`` is a ``cached_property``; every other record is
    a NamedTuple, whose class costs no ``exec`` of generated methods at
    import."""
    kept = sorted(cls.__qualname__ for cls in _xfo_classes() if dataclasses.is_dataclass(cls))
    assert kept == ["TraceDoc"]


SPAN = SourceSpan("m.xfo", 3, 5)
TPL = LinkTemplate("lamp", "Has_Quality", "red")
PRED = StatePredicate(False, Wildcard("Lamp"), "Has_Quality", "red")
WS = WorkflowStep("s", "ann", 1)
WS_TEXT = ("WorkflowStep(name='s', agent_ref='ann', duration=1, preconditions=(), unlinks=(), links=(), "
           "placeholder=False)")
PRED_TEXT = "StatePredicate(exists=False, from_ref=Wildcard(utype='Lamp'), kind='Has_Quality', to_ref='red')"
TPL_TEXT = "LinkTemplate(from_ref='lamp', kind='Has_Quality', to_ref='red')"
SPAN_TEXT = "SourceSpan(file='m.xfo', line=3, column=5, length=1)"

# (record class, _fields, _field_defaults, a sample, the sample's repr as
# the frozen dataclass printed it)
RECORDS = [
    (Diagnostic, ("severity", "code", "message", "span"), {},
     Diagnostic("error", "E_PARSE", "unexpected end of line", SPAN),
     f"Diagnostic(severity='error', code='E_PARSE', message='unexpected end of line', span={SPAN_TEXT})"),
    (ModelDocument, ("statements",), {},
     ModelDocument((ModelHeader("M", span=SPAN),)),
     "ModelDocument(statements=(ModelHeader(name='M'),))"),
    (ScenarioDocument, ("statements",), {},
     ScenarioDocument((ScenarioHeader("S", span=SPAN),)),
     "ScenarioDocument(statements=(ScenarioHeader(name='S'),))"),
    (ParseResult, ("document", "diagnostics"), {},
     ParseResult(ModelDocument(()), ()),
     "ParseResult(document=ModelDocument(statements=()), diagnostics=())"),
    (Wildcard, ("utype",), {}, Wildcard("Lamp"), "Wildcard(utype='Lamp')"),
    (LinkTemplate, ("from_ref", "kind", "to_ref"), {}, TPL, TPL_TEXT),
    (StatePredicate, ("exists", "from_ref", "kind", "to_ref"), {}, PRED, PRED_TEXT),
    (WorkflowStep, ("name", "agent_ref", "duration", "preconditions", "unlinks", "links", "placeholder"),
     {"preconditions": (), "unlinks": (), "links": (), "placeholder": False}, WS, WS_TEXT),
    (Step, ("step",), {}, Step(WS), f"Step(step={WS_TEXT})"),
    (Seq, ("items",), {"items": ()}, Seq((Step(WS),)), f"Seq(items=(Step(step={WS_TEXT}),))"),
    (Loop, ("body", "count", "guard", "until_end"), {"count": None, "guard": None, "until_end": False},
     Loop(Seq(), 2), "Loop(body=Seq(items=()), count=2, guard=None, until_end=False)"),
    (Cond, ("guard", "then_body", "else_body"), {"else_body": None},
     Cond(PRED, Seq()), f"Cond(guard={PRED_TEXT}, then_body=Seq(items=()), else_body=None)"),
    (Gap, ("step", "predicate", "path"), {},
     Gap("s", "exists lamp Has_Quality red", "/iter1"),
     "Gap(step='s', predicate='exists lamp Has_Quality red', path='/iter1')"),
    (CompletenessReport, ("complete", "gaps", "placeholders"), {},
     CompletenessReport(False, (Gap("s", "not_exists a K b", ""),), ("p",)),
     "CompletenessReport(complete=False, gaps=(Gap(step='s', predicate='not_exists a K b', path=''),), "
     "placeholders=('p',))"),
    (Scenario, ("name", "horizon", "init", "schedule", "rules"), {"rules": ()},
     Scenario("s", 5, (TPL,), (RunSpec("w", ("a", 2), 0, span=SPAN),), ("r",)),
     f"Scenario(name='s', horizon=5, init=({TPL_TEXT},), schedule=(RunSpec(target='w', args=('a', 2), at=0),), "
     "rules=('r',))"),
    (LinkInstance, ("from_p", "kind", "to_p", "start", "end"), {"end": None},
     LinkInstance("lamp", "Has_Quality", "red", 0, 4),
     "LinkInstance(from_p='lamp', kind='Has_Quality', to_p='red', start=0, end=4)"),
    (ValidationResult, ("valid", "tier", "reason"), {"tier": 0, "reason": ""},
     ValidationResult(False, 2, "no declaration covers it"),
     "ValidationResult(valid=False, tier=2, reason='no declaration covers it')"),
    (State, ("entity", "at", "links"), {},
     State("lamp", 3, (TicEntry("in", "Continuant_Part_Of", "L1"),)),
     "State(entity='lamp', at=3, links=(TicEntry(direction='in', kind='Continuant_Part_Of', counterpart='L1', "
     "via=None),))"),
    (TicEntry, ("direction", "kind", "counterpart", "via"), {"via": None},
     TicEntry("out", "Has_Role", "teacher", via="Person"),
     "TicEntry(direction='out', kind='Has_Role', counterpart='teacher', via='Person')"),
    (TIC, ("core", "at", "entries"), {},
     TIC("lamp", None, (TicEntry("in", "Has_Quality", "lamp"),)),
     "TIC(core='lamp', at=None, entries=(TicEntry(direction='in', kind='Has_Quality', counterpart='lamp', "
     "via=None),))"),
]
SPAN_DEFAULT = {"span": None}
# the definition records: each sample has a span, which its repr leaves out
SPANNED = [
    (EntityDef, ("name", "layer", "parent", "span"), SPAN_DEFAULT,
     EntityDef("Lamp", Layer.U, "B_Object", span=SPAN),
     "EntityDef(name='Lamp', layer=<Layer.U: 'U'>, parent='B_Object')"),
    (RelationKind, ("name", "domain_b", "range_b", "builtin", "span"), {"builtin": False, **SPAN_DEFAULT},
     RelationKind("Lights", "B_Object", "B_Quality", span=SPAN),
     "RelationKind(name='Lights', domain_b='B_Object', range_b='B_Quality', builtin=False)"),
    (RelationDeclaration, ("from_u", "kind", "to_u", "span"), SPAN_DEFAULT,
     RelationDeclaration("Lamp", "Has_Quality", "Colour", span=SPAN),
     "RelationDeclaration(from_u='Lamp', kind='Has_Quality', to_u='Colour')"),
    (Transitional, ("name", "unlinks", "links", "span"), SPAN_DEFAULT,
     Transitional("t", (TPL,), (), span=SPAN),
     f"Transitional(name='t', unlinks=({TPL_TEXT},), links=())"),
    (Frame, ("name", "slots", "templates", "span"), SPAN_DEFAULT,
     Frame("F", ("x", "y"), (LinkTemplate("x", "Has_Quality", "y"),), span=SPAN),
     "Frame(name='F', slots=('x', 'y'), templates=(LinkTemplate(from_ref='x', kind='Has_Quality', to_ref='y'),))"),
    (Workflow, ("name", "params", "body", "requires_agent", "span"), SPAN_DEFAULT,
     Workflow("w", ("a",), Seq((Step(WS),)), True, span=SPAN),
     f"Workflow(name='w', params=('a',), body=Seq(items=(Step(step={WS_TEXT}),)), requires_agent=True)"),
    (RunSpec, ("target", "args", "at", "span"), {"args": (), "at": None, **SPAN_DEFAULT},
     RunSpec("w", ("a", 2), 0, span=SPAN),
     "RunSpec(target='w', args=('a', 2), at=0)"),
    (ApplyDirective, ("target", "at", "span"), {"at": None, **SPAN_DEFAULT},
     ApplyDirective("t", 3, span=SPAN),
     "ApplyDirective(target='t', at=3)"),
    (_FrameAction, ("target", "binding", "at", "span"), {"binding": (), "at": None, **SPAN_DEFAULT},
     _FrameAction("F", (("x", "a"),), 3, span=SPAN),
     "_FrameAction(target='F', binding=(('x', 'a'),), at=3)"),
    (Rule, ("name", "guard", "action", "span"), SPAN_DEFAULT,
     Rule("r", (PRED,), RunSpec("w", ("a",)), span=SPAN),
     f"Rule(name='r', guard=({PRED_TEXT},), action=RunSpec(target='w', args=('a',), at=None))"),
    (InterruptDirective, ("run", "at", "span"), SPAN_DEFAULT,
     InterruptDirective(0, 5, span=SPAN),
     "InterruptDirective(run=0, at=5)"),
    (ModelHeader, ("name", "span"), SPAN_DEFAULT, ModelHeader("M", span=SPAN), "ModelHeader(name='M')"),
    (ScenarioHeader, ("name", "span"), SPAN_DEFAULT, ScenarioHeader("S", span=SPAN), "ScenarioHeader(name='S')"),
    (HorizonStmt, ("value", "span"), SPAN_DEFAULT, HorizonStmt(14, span=SPAN), "HorizonStmt(value=14)"),
    (InitStmt, ("template", "span"), SPAN_DEFAULT, InitStmt(TPL, span=SPAN), f"InitStmt(template={TPL_TEXT})"),
    (RuleRefStmt, ("name", "span"), SPAN_DEFAULT, RuleRefStmt("r", span=SPAN), "RuleRefStmt(name='r')"),
]
RECORDS += SPANNED


@pytest.mark.parametrize("cls,fields,defaults,sample,text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_a_record_keeps_its_fields_defaults_and_repr(cls, fields, defaults, sample, text):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert repr(sample) == text
    with pytest.raises(AttributeError):
        setattr(sample, fields[0], sample[0])


def test_a_record_equals_a_plain_tuple_of_its_values():
    """As README "Library" says; nothing in the package compares a record
    with a plain tuple or with a record of another type."""
    assert TPL == ("lamp", "Has_Quality", "red") and hash(TPL) == hash(("lamp", "Has_Quality", "red"))
    # a verdict keeps its truth value, which a non-empty tuple would not have
    assert not ValidationResult(False) and ValidationResult(True)


@pytest.mark.parametrize("sample", [r[3] for r in SPANNED], ids=[r[0].__name__ for r in SPANNED])
def test_a_definition_leaves_its_span_out_of_eq_and_hash(sample):
    assert sample.span == SPAN
    assert hash(sample) == hash(tuple(sample)[:-1])
    moved = sample._replace(span=SourceSpan("other.xfo", 9, 9))
    assert sample == moved and not sample != moved and type(moved) is type(sample)


def test_a_definition_equals_only_a_record_of_its_own_class():
    fields = ("F", (("x", "a"),), 3)
    activate, deactivate = ActivateDirective(*fields), DeactivateDirective(*fields)
    assert activate != deactivate and not activate == deactivate
    assert repr(deactivate) == "DeactivateDirective(target='F', binding=(('x', 'a'),), at=3)"
    assert activate != (*fields, None) and ModelHeader("M") != ScenarioHeader("M")
