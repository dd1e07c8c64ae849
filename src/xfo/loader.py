"""Load parsed documents into kernel structures, collecting diagnostics.

Loading is single-pass and top-to-bottom; forward references are errors.
A failed statement is skipped and loading continues so authors see every
problem at once.
"""
from __future__ import annotations

import sys
from pathlib import Path

from . import dsl
from .dsl import (
    Diagnostic,
    HorizonStmt,
    InitStmt,
    ModelDocument,
    ModelHeader,
    RuleRefStmt,
    ScenarioDocument,
    ScenarioHeader,
    SourceSpan,
)
from .dynamics import (
    Frame,
    Rule,
    Transitional,
    Workflow,
    define_frame,
    define_rule,
    define_transitional,
    define_workflow,
)
from .errors import XfoError
from .microworld import Scenario, check_scenario
from .ontology import EntityDef
from .relations import RelationDeclaration, RelationKind, World


def _diag(diags: list, code: str, message: str, span: SourceSpan | None) -> None:
    diags.append(Diagnostic("error", code, message, span or SourceSpan("<unknown>", 1, 1)))


def _drain_warnings(world: World, diags: list, span: SourceSpan | None) -> None:
    for msg in world.warnings:
        diags.append(Diagnostic(
            "warning", "W_TIER2_UNCOVERED", msg,
            span or SourceSpan("<unknown>", 1, 1),
        ))
    world.warnings.clear()


def _once(first, stmt, what: str, diags: list):
    """``stmt`` if it is the first of its kind (``first`` is None), else
    ``first``; a second one is an E_PARSE at ``stmt``."""
    if first is None:
        return stmt
    _diag(diags, "E_PARSE", f"{what} given more than once", stmt.span)
    return first


def build_world(doc: ModelDocument, *, tier2_strict: bool = True) -> tuple[World, list[Diagnostic]]:
    """Load a model document into a fresh World."""
    world = World(tier2_strict=tier2_strict)
    world.model_name = doc.name
    diags: list[Diagnostic] = []
    header: ModelHeader | None = None
    for stmt in doc.statements:
        if isinstance(stmt, ModelHeader):  # doc.name is the first one's
            header = _once(header, stmt, "model", diags)
            continue
        try:
            _load_stmt(world, stmt)
        except XfoError as exc:
            _diag(diags, exc.code, str(exc), stmt.span)
        _drain_warnings(world, diags, stmt.span)
    return world, diags


def _load_stmt(world: World, stmt) -> None:
    """Define one parsed definition; the kernel does every check and
    stores the definition itself."""
    if isinstance(stmt, EntityDef):
        world.registry.add(stmt)
    elif isinstance(stmt, RelationKind):
        world.declare_kind(stmt)
    elif isinstance(stmt, RelationDeclaration):
        world.declare(stmt)
    elif isinstance(stmt, Transitional):
        define_transitional(world, stmt)
    elif isinstance(stmt, Frame):
        define_frame(world, stmt)
    elif isinstance(stmt, Workflow):
        define_workflow(world, stmt)
    elif isinstance(stmt, Rule):
        define_rule(world, stmt)


def build_scenario(doc: ScenarioDocument, world: World) -> tuple[Scenario | None, list[Diagnostic]]:
    """Resolve a scenario document against a loaded world: every error
    ``check_scenario`` finds becomes a diagnostic at its statement."""
    diags: list[Diagnostic] = []
    horizon: HorizonStmt | None = None
    header: ScenarioHeader | None = None
    # the statements behind each Scenario field, in field order
    source: dict[str, list] = {"rules": [], "init": [], "schedule": []}
    for stmt in doc.statements:
        if isinstance(stmt, HorizonStmt):
            # check_scenario refuses a horizon below 1, at this line
            horizon = _once(horizon, stmt, "horizon", diags)
        elif isinstance(stmt, ScenarioHeader):  # doc.name is the first one's
            header = _once(header, stmt, "scenario", diags)
        elif isinstance(stmt, RuleRefStmt):
            source["rules"].append(stmt)
        elif isinstance(stmt, InitStmt):
            source["init"].append(stmt)
        else:
            source["schedule"].append(stmt)
    scenario = Scenario(
        doc.name,
        # without a horizon, still resolve every statement; no tick is past it
        horizon.value if horizon is not None else sys.maxsize,
        tuple(s.template for s in source["init"]),
        tuple(source["schedule"]),
        tuple(s.name for s in source["rules"]),
    )
    source["horizon"] = [horizon]  # also stands for the scenario as a whole
    for field, i, exc in check_scenario(world, scenario):
        stmt = source[field][i]
        _diag(diags, exc.code, str(exc), stmt.span if stmt else _first_span(doc))
    diags.sort(key=lambda d: d.span.line)  # source order
    if horizon is None:
        _diag(diags, "E_NO_HORIZON", "scenario has no horizon", _first_span(doc))
    if any(d.severity == "error" for d in diags):
        return None, diags
    return scenario, diags


def _first_span(doc) -> SourceSpan:
    for s in doc.statements:
        if s.span is not None:
            return s.span
    return SourceSpan("<scenario>", 1, 1)


def _parse_file(parse, path: str | Path) -> dsl.ParseResult:
    """``parse`` of a UTF-8 file's text, a leading BOM ignored. A file that
    is not UTF-8 has no document and one E_PARSE at its first bad byte."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object is the file after its BOM
        lines = (exc.object[:exc.start].decode("utf-8") + "x").splitlines()  # x: the bad byte
        message = f"file is not UTF-8 text: byte 0x{exc.object[exc.start]:02x}: {exc.reason}"
        span = SourceSpan(path.name, len(lines), len(lines[-1]))
        return dsl.ParseResult(None, (Diagnostic("error", "E_PARSE", message, span),))
    return parse(text, file=path.name)


def load_model_path(path: str | Path, *, tier2_strict: bool = True):
    """Parse (``_parse_file``) and load a model file: (world | None, diagnostics)."""
    result = _parse_file(dsl.parse_model, path)
    diags = list(result.diagnostics)
    if not result.ok:
        return None, diags
    world, load_diags = build_world(result.document, tier2_strict=tier2_strict)
    diags.extend(load_diags)
    if any(d.severity == "error" for d in diags):
        return None, diags
    return world, diags


def load_scenario_path(path: str | Path, world: World):
    """Parse (``_parse_file``) and resolve a scenario file: (scenario | None, diagnostics)."""
    result = _parse_file(dsl.parse_scenario, path)
    diags = list(result.diagnostics)
    if not result.ok:
        return None, diags
    scenario, sc_diags = build_scenario(result.document, world)
    diags.extend(sc_diags)
    return scenario, diags
