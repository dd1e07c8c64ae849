"""Pretty-printer for parsed documents: a test oracle for the parser. The
round-trip tests check that parse -> print -> parse gives an equal
document; the package has no formatter of its own."""
from __future__ import annotations

from xfo.dsl import (
    HorizonStmt,
    InitStmt,
    ModelDocument,
    ModelHeader,
    RuleRefStmt,
    ScenarioDocument,
    ScenarioHeader,
)
from xfo.dynamics import ACTION_KEYWORDS, Cond, Frame, Loop, Rule, Seq, Step, Transitional, Workflow
from xfo.microworld import InterruptDirective
from xfo.ontology import EntityDef, Layer
from xfo.relations import RelationDeclaration, RelationKind


def _fmt_node(node, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(node, Step):
        s = node.step
        head = f"{pad}step {s.name}" + (" placeholder" if s.placeholder else "") + " {"
        out.append(head)
        inner = "  " * (indent + 1)
        if s.agent_ref is not None:
            out.append(f"{inner}agent {s.agent_ref}")
        out.append(f"{inner}duration {s.duration}")
        for pred in s.preconditions:
            out.append(f"{inner}require {pred.render()}")
        for t in s.unlinks:
            out.append(f"{inner}effect unlink {t}")
        for t in s.links:
            out.append(f"{inner}effect link {t}")
        out.append(f"{pad}}}")
    elif isinstance(node, Loop):
        if node.count is not None:
            head = f"{pad}loop {node.count} {{"
        elif node.until_end:
            head = f"{pad}loop until end {{"
        elif node.guard is not None:
            head = f"{pad}loop until {node.guard.render()} {{"
        else:
            head = f"{pad}loop {{"
        out.append(head)
        for item in node.body.items:
            _fmt_node(item, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(node, Cond):
        out.append(f"{pad}if {node.guard.render()} {{")
        for item in node.then_body.items:
            _fmt_node(item, indent + 1, out)
        if node.else_body is not None:
            out.append(f"{pad}}} else {{")
            for item in node.else_body.items:
                _fmt_node(item, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(node, Seq):
        for item in node.items:
            _fmt_node(item, indent, out)


def print_model(doc: ModelDocument) -> str:
    out: list[str] = []
    for s in doc.statements:
        if isinstance(s, ModelHeader):
            out.append(f"model {s.name}")
        elif isinstance(s, EntityDef):
            if s.layer is Layer.U:
                out.append(f"universal {s.name} is_a {s.parent}")
            else:
                out.append(f"particular {s.name} instance_of {s.parent}")
        elif isinstance(s, RelationKind):
            out.append(f"relation {s.name} from {s.domain_b} to {s.range_b}")
        elif isinstance(s, RelationDeclaration):
            out.append(f"relate {s.from_u} {s.kind} {s.to_u}")
        elif isinstance(s, Transitional):
            out.append(f"transitional {s.name} {{")
            for t in s.unlinks:
                out.append(f"  unlink {t}")
            for t in s.links:
                out.append(f"  link {t}")
            out.append("}")
        elif isinstance(s, Frame):
            out.append(f"frame {s.name} {{")
            for slot in s.slots:
                out.append(f"  slot {slot}")
            for t in s.templates:
                out.append(f"  link {t}")
            out.append("}")
        elif isinstance(s, Workflow):
            kw = "workflow" if s.requires_agent else "mechanism"
            params = f"({', '.join(s.params)})" if s.params else ""
            out.append(f"{kw} {s.name}{params} {{")
            for item in s.body.items:
                _fmt_node(item, 1, out)
            out.append("}")
        elif isinstance(s, Rule):
            out.append(f"rule {s.name} {{")
            for pred in s.guard:
                out.append(f"  when {pred.render()}")
            out.append(f"  then {s.action.render()}")
            out.append("}")
    return "\n".join(out) + "\n"


def print_scenario(doc: ScenarioDocument) -> str:
    out: list[str] = []
    for s in doc.statements:
        if isinstance(s, ScenarioHeader):
            out.append(f"scenario {s.name}")
        elif isinstance(s, HorizonStmt):
            out.append(f"horizon {s.value}")
        elif isinstance(s, InitStmt):
            out.append(f"init {s.template}")
        elif isinstance(s, RuleRefStmt):
            out.append(f"rule {s.name}")
        elif isinstance(s, InterruptDirective):
            out.append(f"interrupt {s.run} at {s.at}")
        elif type(s) in ACTION_KEYWORDS:
            out.append(f"{ACTION_KEYWORDS[type(s)][0]} {s.operand()} at {s.at}")
    return "\n".join(out) + "\n"
