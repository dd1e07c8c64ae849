"""Textual front end: model (.xfo) and scenario (.xws) files.

Line-oriented statements; `{ ... }` blocks; `#` comments to end of line.
The grammar is versioned and documented in GRAMMAR.md. Parsing is total:
any input yields a (possibly partial) document plus diagnostics, and the
parser never throws. Model definitions parse straight to the kernel's
definition types (EntityDef, RelationKind, RelationDeclaration,
Transitional, Frame, Workflow, Rule) and scenario schedule lines to its
action and InterruptDirective types; each carries a source span kept out
of equality, so a parsed statement equals one built by hand. The kernel
stores each parsed definition of all seven types itself, span included.
A rule's ``then`` and a scenario line name the same four actions under
two keywords (``dynamics.ACTION_KEYWORDS``, e.g. ``start_workflow`` and
``run``) and parse to the same type; the scenario line adds its tick.

A line at statement level is first tried against its dispatch's one
compiled statement pattern, which reads a whole simple statement
(``universal``, ``particular``, ``relation``, ``relate`` in a model,
``init`` in a scenario) written in names, blanks and tabs only; the
statement is built from the match groups. Any other line, and every line
inside a block, is tokenized only when the parser reaches it, into a
cursor (``_Toks``) over its tokens as plain strings; a token's kind
follows from its text. A simple statement the pattern does not match (a
comment, an error) goes through the same form on the cursor, so both
paths give the same statement, span and diagnostic.

A line of name, digit and punctuation characters, blanks and tabs is
split by one ``findall``, and its token columns are computed only when a
diagnostic needs one (a statement's span needs only the width of the
leading blanks). A line with any other character (a comment, a wildcard,
a bad character) is scanned match by match, and its columns are kept.
The tokenizer's diagnostics are kept apart from the parser's and come
first, in line order.
"""
from __future__ import annotations

import re
import string
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .dynamics import (
    ACTION_KEYWORDS,
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
    Step,
    Transitional,
    Wildcard,
    Workflow,
    WorkflowStep,
)
from .microworld import InterruptDirective
from .ontology import EntityDef, Layer, SourceSpan, _span_field
from .relations import RelationDeclaration, RelationKind

GRAMMAR_VERSION = "1.0"

# A wildcard, name, int or punctuation token, a comment, or any other
# non-blank character (one E_PARSE each)
_WORD_RE = re.compile(r"any:[A-Za-z_]\w*|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[(){},=]|#.*|[^ \t]", re.ASCII)
_TOKEN_CHARS = frozenset(string.ascii_letters + string.digits + "_(){},=")
# a line without these is tokens, blanks and tabs only: one findall splits it
_other_char = re.compile(r"[^A-Za-z0-9_(){},= \t]").search


class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    code: str
    message: str
    span: SourceSpan

    def render(self) -> str:
        return f"{self.span}: {self.severity}: [{self.code}] {self.message}"


# ----------------------------------------------------------------------
# statements


@dataclass(frozen=True)
class ModelHeader:
    name: str
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class ScenarioHeader:
    name: str
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class HorizonStmt:
    value: int
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class InitStmt:
    template: LinkTemplate
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class RuleRefStmt:
    name: str
    span: SourceSpan | None = _span_field()


class ModelDocument(NamedTuple):
    statements: tuple

    @property
    def name(self) -> str:
        for s in self.statements:
            if isinstance(s, ModelHeader):
                return s.name
        return "model"


class ScenarioDocument(NamedTuple):
    statements: tuple

    @property
    def name(self) -> str:
        for s in self.statements:
            if isinstance(s, ScenarioHeader):
                return s.name
        return "scenario"


class ParseResult(NamedTuple):
    document: ModelDocument | ScenarioDocument
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)


# ----------------------------------------------------------------------
# tokenizer


def _tokenize_line(raw: str, file: str, line_no: int, diags: list[Diagnostic]) -> _Toks | None:
    """Line ``raw`` as a cursor over its tokens, or None if it holds none.
    Each bad character is reported to ``diags``."""
    if _other_char(raw) is None:
        toks, cols = _WORD_RE.findall(raw), None
    else:
        toks, cols = [], []
        for m in _WORD_RE.finditer(raw):
            tok = m.group()
            if tok[0] == "#":
                break
            if len(tok) == 1 and tok not in _TOKEN_CHARS:
                diags.append(Diagnostic(
                    "error", "E_PARSE", f"unexpected character {tok!r}",
                    SourceSpan(file, line_no, m.start() + 1),
                ))
            else:
                toks.append(tok)
                cols.append(m.start() + 1)
    return _Toks(toks, file, line_no, raw, cols) if toks else None


class _ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(message)
        self.message = message
        self.span = span


def _brace_depth(tokens: list[str]) -> int:
    return tokens.count("{") - tokens.count("}")


class _Toks:
    """Cursor over one line's tokens, which are plain strings: a name is an
    identifier, an int all digits, a wildcard holds ':', and any other
    token is one punctuation character. ``cols`` (1-based token columns)
    is filled only when an error needs a span past the first token."""

    __slots__ = ("tokens", "file", "line_no", "raw", "cols", "pos")

    def __init__(self, tokens: list[str], file: str, line_no: int, raw: str, cols: list[int] | None):
        self.tokens = tokens
        self.file = file
        self.line_no = line_no
        self.raw = raw
        self.cols = cols
        self.pos = 0

    def span_at(self, i: int | None = None) -> SourceSpan:
        """Span of token ``i``; by default the next token, else the last."""
        if i is None:
            i = min(self.pos, len(self.tokens) - 1)
        if self.cols is None:
            if i == 0:
                col = len(self.raw) - len(self.raw.lstrip(" \t")) + 1
                return SourceSpan(self.file, self.line_no, col, len(self.tokens[0]))
            self.cols = [m.start() + 1 for m in _WORD_RE.finditer(self.raw)]
        return SourceSpan(self.file, self.line_no, self.cols[i], len(self.tokens[i]))

    def taken_span(self) -> SourceSpan:
        return self.span_at(self.pos - 1)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        try:
            tok = self.tokens[self.pos]
        except IndexError:
            raise _ParseError("unexpected end of line", self.span_at()) from None
        self.pos += 1
        return tok

    def name(self, what: str = "a name") -> str:
        tok = self.take()
        if not tok.isidentifier():
            raise _ParseError(f"expected {what}, got {tok!r}", self.taken_span())
        return tok

    def integer(self, what: str = "a number") -> int:
        tok = self.take()
        if not tok.isdigit():
            raise _ParseError(f"expected {what}, got {tok!r}", self.taken_span())
        return int(tok)

    def ref(self) -> str | Wildcard:
        tok = self.take()
        if tok.isidentifier():
            return tok
        if ":" in tok:
            return Wildcard(tok.split(":", 1)[1])
        raise _ParseError(f"expected an entity ref, got {tok!r}", self.taken_span())

    def keyword(self, word: str) -> None:
        """Take the next token, which must be ``word``: a keyword or a
        punctuation mark."""
        tok = self.take()
        if tok != word:
            raise _ParseError(f"expected '{word}', got {tok!r}", self.taken_span())

    def keyword_in(self, table: dict):
        """What ``table`` maps the next token to, taken as one of its keys;
        any other token is reported at itself, naming the keys in order."""
        tok = self.take()
        try:
            return table[tok]
        except KeyError:
            *rest, last = map(repr, table)
            message = f"expected {', '.join(rest)} or {last}, got {tok!r}"
            raise _ParseError(message, self.taken_span()) from None

    def done(self) -> None:
        if self.pos < len(self.tokens):
            raise _ParseError(f"unexpected trailing {self.tokens[self.pos]!r}", self.span_at())


# ----------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str, file: str):
        self.file = file
        self.lexical: list[Diagnostic] = []  # the tokenizer's, in line order
        self.diags: list[Diagnostic] = []
        # (line number, text); statement level and _next_line share it
        self.lines = enumerate(text.splitlines(), start=1)
        self.reread: _Toks | None = None  # a closing line _end puts back

    def result(self, document) -> ParseResult:
        return ParseResult(document, (*self.lexical, *self.diags))

    # line stream -------------------------------------------------------

    def _next_line(self) -> _Toks | None:
        if self.reread is not None:
            line, self.reread = self.reread, None
            return line
        for line_no, raw in self.lines:
            line = _tokenize_line(raw, self.file, line_no, self.lexical)
            if line is not None:
                return line
        return None

    def _error(self, exc: _ParseError) -> None:
        self.diags.append(Diagnostic("error", "E_PARSE", exc.message, exc.span))

    def _skip_block(self, depth: int) -> None:
        """Recover after an error inside a block: consume to the matching
        closing brace."""
        while depth > 0:
            line = self._next_line()
            if line is None:
                return
            depth += _brace_depth(line.tokens)

    def _recover_line(self, exc: _ParseError, tokens: list[str]) -> None:
        """Record a clause-level error and skip the block, if any, that
        the braces in ``tokens``, the failing line's, open."""
        self._error(exc)
        depth = _brace_depth(tokens)
        if depth > 0:
            self._skip_block(depth)

    def _open_brace(self, line: _Toks) -> None:
        line.keyword("{")
        line.done()

    def _block(self, what: str, span, clauses: dict, once=(), required=()) -> _Toks:
        """Parse the lines of a block up to its closing '}'. Each line's
        keyword is read through ``clauses``, and the parser it maps to reads
        the rest of the line; a failing line is reported and skipped.
        A keyword counts as read once its parser returns, even if a trailing
        token is then reported: a second read of one in ``once`` is an error
        at that keyword, and at the '}' each one in ``required`` never read
        is an error at ``span``. Returns the closing line, positioned after
        the '}'; pass it to ``_end``."""
        counted = set()
        while True:
            line = self._next_line()
            if line is None:
                raise _ParseError(f"unterminated {what}", span)
            if line.peek() == "}":
                line.take()
                for kw in required:
                    if kw not in counted:
                        self._error(_ParseError(f"{what} has no '{kw}' clause", span))
                return line
            try:
                read = line.keyword_in(clauses)
                kw = line.tokens[line.pos - 1]
                if kw in once and kw in counted:
                    raise _ParseError(f"{what} has more than one '{kw}'", line.taken_span())
                read(line)
                counted.add(kw)
                line.done()
            except _ParseError as exc:
                self._recover_line(exc, line.tokens)

    def _end(self, close: _Toks) -> None:
        """Report anything after a block's closing '}', and skip the block
        that text opens, if any. The closed block is complete, so the error
        is recorded here rather than raised into the enclosing recovery,
        which would drop that block. A second '}' is reported too, and
        then closes the enclosing block: the line is that block's next."""
        try:
            close.done()
        except _ParseError as exc:
            self._recover_line(exc, close.tokens[close.pos:])
            if close.peek() == "}":
                self.reread = close

    # shared pieces -----------------------------------------------------

    def _template(self, line: _Toks) -> LinkTemplate:
        frm = line.name("an entity")
        kind = line.name("a relation kind")
        to = line.name("an entity")
        return LinkTemplate(frm, kind, to)

    def _edits(self, unlinks: list, links: list) -> dict:
        """The clause table of an edit: 'link' or 'unlink' and a template,
        kept in ``links`` or ``unlinks``."""
        return {
            "link": lambda line: links.append(self._template(line)),
            "unlink": lambda line: unlinks.append(self._template(line)),
        }

    def _predicate(self, line: _Toks) -> StatePredicate:
        exists = line.keyword_in(_PREDICATES)
        frm = line.ref()
        kind = line.name("a relation kind")
        to = line.ref()
        return StatePredicate(exists, frm, kind, to)


_PREDICATES = {"exists": True, "not_exists": False}


def _paren_list(line: _Toks, item) -> tuple:
    """Parenthesized comma-separated items, each read by ``item(line)``
    (``_arg``, ``_slot_value`` or a name); the parens may be empty."""
    items = []
    line.keyword("(")
    if line.peek() == ")":
        line.take()
        return ()
    while True:
        items.append(item(line))
        tok = line.take()
        if tok == ")":
            return tuple(items)
        if tok != ",":
            raise _ParseError(f"expected ',' or ')', got {tok!r}", line.taken_span())


def _arg(line: _Toks, what: str = "an argument") -> str | int:
    tok = line.take()
    if tok.isidentifier():
        return tok
    if tok.isdigit():
        return int(tok)
    raise _ParseError(f"expected {what}, got {tok!r}", line.taken_span())


def _slot_value(line: _Toks) -> tuple[str, str]:
    slot = line.name("a slot name")
    line.keyword("=")
    return slot, line.name("an entity")


# a name in a statement pattern: the tokenizer's name class, as one group
_NAME = "([A-Za-z_][A-Za-z0-9_]*)"
# A SourceSpan built without the NamedTuple's Python-level __new__.
_span = tuple.__new__


def _p_simple(p: _Parser, line: _Toks, span, words: list, build):
    """A simple statement on the cursor: each of ``words`` is a name (its
    description) or a fixed keyword, as ``_Grammar`` splits a form."""
    names = []
    for what, word in words:
        if what:
            names.append(line.name(what))
        else:
            line.keyword(word)
    line.done()
    return build(*names, span=span)


class _Grammar:
    """The statements of one file type. ``simple`` maps each one-line
    form, ``keyword <description of a name> word ...``, to the function
    that builds its statement from the names and a span; ``handlers`` maps
    every other keyword to its parser. The forms make one pattern, with
    one group per form (told apart by ``lastindex``, the group that closes
    last) around its name groups. A line the pattern does not match is
    read on the cursor by ``_p_simple``."""

    __slots__ = ("match", "forms", "handlers")

    def __init__(self, simple: dict, handlers: dict):
        self.forms, self.handlers = {}, dict(handlers)
        branches, group = [], 1
        for form, build in simple.items():
            (_, keyword), *words = re.findall(r"<([^>]+)>|(\S+)", form)
            n = sum(1 for what, _ in words if what)
            parts = [keyword, *(_NAME if what else word for what, word in words)]
            branches.append("(" + r"[ \t]+".join(parts) + ")")
            self.forms[group] = (build, tuple(range(group + 1, group + 1 + n)), len(keyword))
            self.handlers[keyword] = partial(_p_simple, words=words, build=build)
            group += 1 + n
        self.match = re.compile(r"[ \t]*(?:" + "|".join(branches) + r")[ \t]*", re.ASCII).fullmatch


def _parse_statements(parser: _Parser, grammar: _Grammar) -> list:
    stmts = []
    file, match, forms, dispatch = parser.file, grammar.match, grammar.forms, grammar.handlers
    for line_no, raw in parser.lines:
        m = match(raw)
        if m is not None:
            g = m.lastindex
            build, names, width = forms[g]
            span = _span(SourceSpan, (file, line_no, m.start(g) + 1, width))
            stmts.append(build(*m.group(*names), span=span))
            continue
        line = _tokenize_line(raw, file, line_no, parser.lexical)
        if line is None:
            continue
        span = line.span_at()
        try:
            kw_tok = line.take()
            if not kw_tok.isidentifier():
                raise _ParseError(f"expected a statement keyword, got {kw_tok!r}", span)
            handler = dispatch.get(kw_tok)
            if handler is None:
                raise _ParseError(f"unknown statement '{kw_tok}'", span)
            stmt = handler(parser, line, span)
            if stmt is not None:
                stmts.append(stmt)
        except _ParseError as exc:
            parser._recover_line(exc, line.tokens)
        parser.reread = None  # a second '}' after a statement's own closes no later block
    return stmts


# model statements ------------------------------------------------------


def _p_transitional(p: _Parser, line: _Toks, span) -> Transitional:
    name = line.name("a transitional name")
    p._open_brace(line)
    unlinks, links = [], []
    p._end(p._block(f"transitional '{name}'", span, p._edits(unlinks, links)))
    return Transitional(name, tuple(unlinks), tuple(links), span=span)


def _p_frame(p: _Parser, line: _Toks, span) -> Frame:
    name = line.name("a frame name")
    p._open_brace(line)
    slots, templates = [], []
    clauses = {
        "slot": lambda body: slots.append(body.name("a slot name")),
        "link": lambda body: templates.append(p._template(body)),
    }
    p._end(p._block(f"frame '{name}'", span, clauses))
    return Frame(name, tuple(slots), tuple(templates), span=span)


def _p_workflow(p: _Parser, line: _Toks, span, requires_agent=True) -> Workflow:
    name = line.name("a workflow name")
    params = _paren_list(line, lambda toks: toks.name("a parameter name")) if line.peek() == "(" else ()
    p._open_brace(line)
    body, close = _parse_body(p, name, span)
    p._end(close)
    return Workflow(name, params, body, requires_agent, span=span)


def _parse_body(p: _Parser, owner: str, span, depth: int = 0) -> tuple[Seq, _Toks]:
    """Parse workflow body nodes until the matching '}'. Returns the Seq
    and the close line (positioned after '}') for else-continuations.
    ``depth`` counts the loop and if blocks around it; one opened past
    ``MAX_BLOCK_DEPTH`` is an error, and its block is skipped."""
    nodes = []

    def nested(line: _Toks, parse) -> None:
        if depth == MAX_BLOCK_DEPTH:
            raise _ParseError(f"loop and if blocks nest more than {MAX_BLOCK_DEPTH} deep", line.taken_span())
        nodes.append(parse(p, line, owner, span, depth + 1))

    clauses = {
        "step": lambda line: nodes.append(Step(_parse_step(p, line, owner))),
        "loop": lambda line: nested(line, _parse_loop),
        "if": lambda line: nested(line, _parse_cond),
    }
    close = p._block(f"block in '{owner}'", span, clauses)
    return Seq(tuple(nodes)), close


def _parse_step(p: _Parser, line: _Toks, owner: str) -> WorkflowStep:
    name = line.name("a step name")
    placeholder = False
    if line.peek() == "placeholder":
        line.take()
        placeholder = True
    brace = line.pos
    p._open_brace(line)
    agent, duration = [], []
    pre: list[StatePredicate] = []
    unlinks: list[LinkTemplate] = []
    links: list[LinkTemplate] = []
    edits = p._edits(unlinks, links)
    clauses = {
        "agent": lambda body: agent.append(body.name("an entity")),
        "duration": lambda body: duration.append(_arg(body, "a duration")),
        "require": lambda body: pre.append(p._predicate(body)),
        "effect": lambda body: body.keyword_in(edits)(body),
    }
    try:
        close = p._block(f"step '{name}'", None, clauses, once=("agent", "duration"))
    except _ParseError as exc:  # unterminated: its span is the step's '{'
        exc.span = line.span_at(brace)
        raise
    p._end(close)
    return WorkflowStep(name, agent[0] if agent else None, duration[0] if duration else 0,
                        tuple(pre), tuple(unlinks), tuple(links), placeholder)


def _parse_loop(p: _Parser, line: _Toks, owner: str, span, depth: int) -> Loop:
    count = None
    guard = None
    until_end = False
    nxt = line.peek()
    if nxt is not None and nxt.isdigit():
        count = int(line.take())
    elif nxt == "until":
        line.take()
        if line.peek() == "end":
            line.take()
            until_end = True
        else:
            guard = p._predicate(line)
    p._open_brace(line)
    body, close = _parse_body(p, owner, span, depth)
    p._end(close)
    return Loop(body, count, guard, until_end)


def _parse_cond(p: _Parser, line: _Toks, owner: str, span, depth: int) -> Cond:
    guard = p._predicate(line)
    p._open_brace(line)
    then_body, close = _parse_body(p, owner, span, depth)
    else_body = None
    if close.peek() == "else":
        close.take()
        try:
            p._open_brace(close)
        except _ParseError as exc:
            # the then body is read: the else line fails as a clause of the
            # enclosing block, past the '}' that closed that body
            p._recover_line(exc, close.tokens[1:])
            return Cond(guard, then_body, None)
        else_body, close = _parse_body(p, owner, span, depth)
    p._end(close)
    return Cond(guard, then_body, else_body)


def _p_rule(p: _Parser, line: _Toks, span) -> Rule | None:
    name = line.name("a rule name")
    p._open_brace(line)
    when: list[StatePredicate] = []
    then: list = []
    clauses = {
        "when": lambda body: when.append(p._predicate(body)),
        "then": lambda body: then.append(_action(body)),
    }
    p._end(p._block(f"rule '{name}'", span, clauses, once=("then",), required=("when", "then")))
    return Rule(name, tuple(when), then[0], span=span) if when and then else None


def _action(line: _Toks):
    """A rule's action: its keyword and what follows it."""
    cls = line.keyword_in(_RULE_ACTIONS)
    return cls(*_action_operand(line, cls))


def _action_operand(line: _Toks, cls) -> tuple:
    """What follows an action's keyword, in a rule and in a scenario alike:
    the target, then the run arguments or the frame binding (sorted by
    slot)."""
    if cls is ApplyDirective:
        return (line.name("a transitional"),)
    if cls is RunSpec:
        target = line.name("a workflow")
        return target, _paren_list(line, _arg) if line.peek() == "(" else ()
    target = line.name("a frame")
    return target, tuple(sorted(_paren_list(line, _slot_value)))


_RULE_ACTIONS = {rule_word: cls for cls, (_, rule_word) in ACTION_KEYWORDS.items()}


_MODEL = _Grammar(
    {
        "universal <a universal name> is_a <a parent entity>":
            lambda name, parent, span: EntityDef(name, Layer.U, parent, span=span),
        "particular <a particular name> instance_of <a universal>":
            lambda name, universal, span: EntityDef(name, Layer.P, universal, span=span),
        "relation <a relation kind name> from <a B entity> to <a B entity>": RelationKind,
        "relate <a universal> <a relation kind> <a universal>": RelationDeclaration,
    },
    {
        "model": partial(_p_simple, words=[("a model name", "")], build=ModelHeader),
        "transitional": _p_transitional,
        "frame": _p_frame,
        "workflow": _p_workflow,
        "mechanism": partial(_p_workflow, requires_agent=False),
        "rule": _p_rule,
    },
)


# scenario statements ---------------------------------------------------


def _p_horizon(p: _Parser, line: _Toks, span) -> HorizonStmt:
    value = line.integer("a horizon tick")
    line.done()
    return HorizonStmt(value, span=span)


def _at_clause(line: _Toks) -> int:
    line.keyword("at")
    at = line.integer("a tick")
    line.done()
    return at


def _p_action(p: _Parser, line: _Toks, span, cls):
    return cls(*_action_operand(line, cls), _at_clause(line), span=span)


def _p_interrupt(p: _Parser, line: _Toks, span) -> InterruptDirective:
    run = line.integer("a run ordinal")
    return InterruptDirective(run, _at_clause(line), span=span)


_SCENARIO = _Grammar(
    {
        "init <an entity> <a relation kind> <an entity>":
            lambda frm, kind, to, span: InitStmt(LinkTemplate(frm, kind, to), span=span),
    },
    {
        "scenario": partial(_p_simple, words=[("a scenario name", "")], build=ScenarioHeader),
        "horizon": _p_horizon,
        "rule": partial(_p_simple, words=[("a rule name", "")], build=RuleRefStmt),
        "interrupt": _p_interrupt,
        **{word: partial(_p_action, cls=cls) for cls, (word, _) in ACTION_KEYWORDS.items()},
    },
)


def parse_model(text: str, file: str = "<model>") -> ParseResult:
    p = _Parser(text, file)
    return p.result(ModelDocument(tuple(_parse_statements(p, _MODEL))))


def parse_scenario(text: str, file: str = "<scenario>") -> ParseResult:
    p = _Parser(text, file)
    return p.result(ScenarioDocument(tuple(_parse_statements(p, _SCENARIO))))
