"""The record rule: a value record is a NamedTuple unless it needs a
dataclass feature, which is a field left out of ``==``, ``hash`` and
``repr`` (a definition's ``span``), a mutable field, or a
``cached_property``. README "Library" states the rule. Each record keeps
the fields, defaults and repr it had as a frozen dataclass."""
from __future__ import annotations

import dataclasses
import functools
import importlib
import pkgutil

import pytest

import xfo
from xfo.dsl import Diagnostic, ModelDocument, ModelHeader, ParseResult, ScenarioDocument, ScenarioHeader
from xfo.dynamics import (
    CompletenessReport,
    Cond,
    Gap,
    LinkTemplate,
    Loop,
    RunSpec,
    Seq,
    StatePredicate,
    Step,
    Wildcard,
    WorkflowStep,
)
from xfo.microworld import Scenario
from xfo.ontology import SourceSpan
from xfo.relations import TIC, State, TicEntry, ValidationResult


def _xfo_classes():
    for info in pkgutil.iter_modules(xfo.__path__):
        module = importlib.import_module(f"xfo.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield obj


def _needs_dataclass(cls) -> bool:
    return (
        not cls.__dataclass_params__.frozen
        or any(not f.compare for f in dataclasses.fields(cls))
        or any(isinstance(v, functools.cached_property) for v in vars(cls).values())
    )


def test_a_dataclass_needs_a_dataclass_feature():
    """A frozen dataclass whose every field takes part in ``==`` and that
    caches nothing is a plain value record, so it should be a NamedTuple."""
    kept = [cls for cls in _xfo_classes() if dataclasses.is_dataclass(cls)]
    assert kept, "the walk found no dataclass in xfo"
    assert [cls.__qualname__ for cls in kept if not _needs_dataclass(cls)] == []


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
