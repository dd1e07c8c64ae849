"""The parser against a fixture recorded from the per-token parser it
replaced (one ``re.Match`` and one ``Token`` per token): seeded mutants of
the shipped model and scenario files, each with the statement reprs,
statement spans and diagnostics that parser gave. The fixture holds the
files it mutated, so it does not move when a shipped file is edited. It
was written again once when a wrong clause keyword came to be reported at
itself: only those diagnostics' spans, and the wording of a wrong step
clause or rule action, changed. Its statement reprs lost ``doc=None`` when
``EntityDef`` lost its unused ``doc`` field, and the ``Step(step=...)``
around each ``WorkflowStep`` when a step became a workflow tree node
itself; nothing else changed.

Write the fixture again (only with a parser known to be right) with:
    PYTHONPATH=src python tests/test_parse_fixture.py
"""
from __future__ import annotations

import json
import random
from pathlib import Path

from xfo.dsl import parse_model, parse_scenario

FIXTURE = Path(__file__).parent / "data" / "parse_mutants.json"
MUTANTS = 500
# characters and short strings an edit inserts: every token class, the
# characters that force the slow path, and line breaks of several kinds
INSERTS = list("aZ_09 \t\n\r\x0c\x1c\x85\u2028 #(){},=:-$@\"\xe9\ufeff") + [
    "any:", "any:x", "} else {", "\r\n", "loop 2 {", "# c", "}"]


def mutate(rng: random.Random, text: str, sources: list[str]) -> list:
    """One to three edits ``[pos, deleted, inserted]``, each at a position
    in the text the edits before it left: a character insert, a delete of
    up to 12 characters, or a splice of up to 80 characters of a shipped
    file in place of up to 20."""
    ops = []
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(text))
        how = rng.choice(("insert", "delete", "splice"))
        if how == "insert":
            op = [pos, 0, rng.choice(INSERTS)]
        elif how == "delete":
            op = [pos, rng.randint(1, 12), ""]
        else:
            src = rng.choice(sources)
            a = rng.randint(0, len(src))
            op = [pos, rng.randint(0, 20), src[a:a + rng.randint(1, 80)]]
        text = apply(text, [op])
        ops.append(op)
    return ops


def apply(text: str, ops: list) -> str:
    for pos, deleted, inserted in ops:
        text = text[:pos] + inserted + text[pos + deleted:]
    return text


def outcome(name: str, text: str) -> dict:
    parse = parse_model if name.endswith(".xfo") else parse_scenario
    result = parse(text, name)
    stmts, diags = result.document.statements, result.diagnostics
    return {
        "files": sorted({x.span.file for x in (*stmts, *diags)}),
        "statements": [[repr(s), *tuple(s.span)[1:]] for s in stmts],
        "diagnostics": [[d.severity, d.code, d.message, *tuple(d.span)[1:]] for d in diags],
    }


def record() -> None:
    from helpers import MODELS_DIR

    bases = {p.name: p.read_text(encoding="utf-8")
             for p in sorted(MODELS_DIR.iterdir()) if p.suffix in (".xfo", ".xws")}
    rng = random.Random("parse-mutants")
    names = sorted(bases)
    mutants = [{"base": n, "ops": []} for n in names]
    for _ in range(MUTANTS):
        name = rng.choice(names)
        mutants.append({"base": name, "ops": mutate(rng, bases[name], list(bases.values()))})
    reprs: dict[str, int] = {}  # each statement repr stored once
    for m in mutants:
        out = outcome(m["base"], apply(bases[m["base"]], m["ops"]))
        for s in out["statements"]:
            s[0] = reprs.setdefault(s[0], len(reprs))
        m.update(out)
    rows = ",\n".join(json.dumps(m) for m in mutants)  # one mutant a line
    FIXTURE.write_text(
        f'{{"bases": {json.dumps(bases)},\n"reprs": {json.dumps(list(reprs))},\n"mutants": [\n{rows}\n]}}\n',
        encoding="ascii")


def test_parser_reproduces_the_recorded_mutants():
    fixture = json.loads(FIXTURE.read_text(encoding="ascii"))
    assert len(fixture["mutants"]) == MUTANTS + len(fixture["bases"])
    for i, m in enumerate(fixture["mutants"]):
        expected = {
            "files": m["files"],
            "statements": [[fixture["reprs"][k], *span] for k, *span in m["statements"]],
            "diagnostics": m["diagnostics"],
        }
        text = apply(fixture["bases"][m["base"]], m["ops"])
        assert outcome(m["base"], text) == expected, (i, m["base"], text)


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    record()
