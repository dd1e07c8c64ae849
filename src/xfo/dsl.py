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
Every check of a frame action's binding reads the slots the frame's
templates use, which ``dynamics.define_frame`` derives once.

A line at statement level is first tried against its dispatch's one
compiled statement pattern, which reads a whole one-line statement
(``model``, ``universal``, ``particular``, ``relation``, ``relate`` in
a model; every scenario statement: ``scenario``, ``horizon``, ``rule``,
``init``, ``run``, ``apply``, ``activate``, ``deactivate`` and
``interrupt``) written in names, ints, parens, commas, ``=``, blanks and
tabs; the statement is built from the match groups. A line inside a
block is first tried against its block's one compiled clause pattern,
which reads a well-formed one-line clause (``link``/``unlink`` in a
transitional, ``slot``/``link`` in a frame, ``agent``, ``duration``,
``require`` and ``effect link|unlink`` in a step, ``when`` and ``then``
in a rule) and a line holding only the ``}`` that closes the block. Any
other line (one that opens a block, a comment, an error, trailing text,
a step's second ``agent`` or a rule's second ``then``, a ``)at`` with no
blank) is tokenized only when the parser reaches it, into a cursor
(``_Toks``) over its tokens as plain strings; a token's kind follows
from its text. Each statement and clause form is declared once, and
both its pattern and its reading on the cursor come from that
declaration, so both paths give the same statement, span and
diagnostic. An action's operands are declared once (``_ACTION_OPERANDS``)
for its rule keyword and its scenario keyword.

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
from functools import partial
from typing import NamedTuple

from .dynamics import (
    ACTION_KEYWORDS,
    ActivateDirective,
    ApplyDirective,
    Cond,
    DeactivateDirective,
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
from .ontology import EntityDef, Layer, SourceSpan, _spanned
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


@_spanned
class ModelHeader(NamedTuple):
    name: str
    span: SourceSpan | None = None


@_spanned
class ScenarioHeader(NamedTuple):
    name: str
    span: SourceSpan | None = None


@_spanned
class HorizonStmt(NamedTuple):
    value: int
    span: SourceSpan | None = None


@_spanned
class InitStmt(NamedTuple):
    template: LinkTemplate
    span: SourceSpan | None = None


@_spanned
class RuleRefStmt(NamedTuple):
    name: str
    span: SourceSpan | None = None


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
        # (line number, text); statement level, _block and _next_line share it
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

    def _block(self, what: str, span, clauses: _Clauses, context=None) -> tuple[dict, _Toks | None]:
        """Parse the lines of a block up to its closing '}' into the lists
        ``clauses`` keeps its clauses in, by name. A line the block's
        pattern matches, a well-formed one-line clause or a lone '}', is
        read from the match. Every other line is tokenized: its keyword is
        read through ``clauses.table`` and the rest of it on the cursor,
        and a failing line is reported and skipped. A keyword counts as
        read once its clause is read, even if a trailing token is then
        reported: a second read of one in ``clauses.once`` goes to the
        cursor, which reports it at that keyword, and at the '}' each one
        in ``clauses.required`` never read is an error at ``span``.
        Returns the lists and the closing line, positioned after the '}',
        or None for a lone '}'; pass the line to ``_end``."""
        got = {name: [] for name in clauses.lists}
        counted = set()
        match, forms, once = clauses.match, clauses.forms, clauses.once
        while True:
            line, self.reread = self.reread, None
            if line is None:
                for line_no, raw in self.lines:
                    m = match(raw)
                    if m is not None:
                        g = m.lastindex
                        form = forms[g]
                        if form is None:  # a lone '}': the block ends, line stays None
                            break
                        kw, name, n, clause = form
                        if kw not in once or kw not in counted:
                            got[name].append(clause(*m.groups()[g:g + n]))
                            counted.add(kw)
                            continue
                    line = _tokenize_line(raw, self.file, line_no, self.lexical)
                    if line is not None:
                        break
                else:
                    raise _ParseError(f"unterminated {what}", span)
                if line is None:
                    break
            if line.peek() == "}":
                line.take()
                break
            try:
                entry = line.keyword_in(clauses.table)
                kw = line.tokens[line.pos - 1]
                if kw in once and kw in counted:
                    raise _ParseError(f"{what} has more than one '{kw}'", line.taken_span())
                while type(entry) is dict:  # forms that share this keyword: the next one
                    entry = line.keyword_in(entry)
                name, words, build = entry
                got[name].append(build(*_read(line, words)) if words else build(self, line, context))
                counted.add(kw)
                line.done()
            except _ParseError as exc:
                self._recover_line(exc, line.tokens)
        for kw in clauses.required:
            if kw not in counted:
                self._error(_ParseError(f"{what} has no '{kw}' clause", span))
        return got, line

    def _end(self, close: _Toks | None) -> None:
        """Report anything after a block's closing '}', and skip the block
        that text opens, if any. The closed block is complete, so the error
        is recorded here rather than raised into the enclosing recovery,
        which would drop that block. A second '}' is reported too, and
        then closes the enclosing block: the line is that block's next."""
        if close is None:
            return
        try:
            close.done()
        except _ParseError as exc:
            self._recover_line(exc, close.tokens[close.pos:])
            if close.peek() == "}":
                self.reread = close


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


# ----------------------------------------------------------------------
# forms: one declaration gives a line's pattern and its reading on the cursor

# the tokenizer's name class
_IDENT = "[A-Za-z_][A-Za-z0-9_]*"
# A SourceSpan built without the NamedTuple's Python-level __new__.
_span = tuple.__new__
_PREDICATES = {"exists": True, "not_exists": False}
# the names and ints in the matched text of an operand in parens
_names_and_ints = re.compile("[A-Za-z0-9_]+").findall


def _in_parens(item: str) -> str:
    """A pattern for comma-separated ``item``s in parens, maybe none, with
    one group around the text inside the parens."""
    return rf"\(([ \t]*(?:{item}[ \t]*(?:,[ \t]*{item}[ \t]*)*)?)\)"


def _arguments(text: str | None) -> tuple:
    return () if text is None else tuple(int(w) if w.isdigit() else w for w in _names_and_ints(text))


def _binding(text: str) -> tuple:
    words = _names_and_ints(text)
    return tuple(sorted(zip(words[::2], words[1::2])))


# An operand of a form: (its pattern, one group; its reading on the cursor,
# given its description; its value from the group's text, or None for the
# text itself). An operand is a name unless its description is a key here.
# An operand in parens may follow the word before it with no blank: its
# pattern starts with the blanks and tabs before it, maybe none.
_NAME = (f"({_IDENT})", _Toks.name, None)
_INT = ("([0-9]+)", _Toks.integer, int)
_OPERANDS = {
    "an entity ref": (f"(any:{_IDENT}|{_IDENT})", lambda line, what: line.ref(),
                      lambda tok: Wildcard(tok[4:]) if tok.startswith("any:") else tok),
    "a duration": (f"([0-9]+|{_IDENT})", _arg, lambda tok: int(tok) if tok.isdigit() else tok),
    "exists or not_exists": ("(exists|not_exists)", lambda line, what: line.keyword_in(_PREDICATES),
                             _PREDICATES.__getitem__),
    **dict.fromkeys(("a tick", "a horizon tick", "a run ordinal"), _INT),
    "arguments": (r"[ \t]*(?:" + _in_parens(f"(?:[0-9]+|{_IDENT})") + ")?",
                  lambda line, what: _paren_list(line, _arg) if line.peek() == "(" else (), _arguments),
    "a binding": (r"[ \t]*" + _in_parens(_IDENT + r"[ \t]*=[ \t]*" + _IDENT),
                  lambda line, what: tuple(sorted(_paren_list(line, _slot_value))), _binding),
}
_TEMPLATE = "<an entity> <a relation kind> <an entity>"
_PREDICATE = "<exists or not_exists> <an entity ref> <a relation kind> <an entity ref>"


def _words(form: str) -> list:
    """The words of ``form``: ``(operand, description)`` for each
    ``<description>``, ``(None, word)`` for each fixed word."""
    return [(_OPERANDS.get(what, _NAME), what) if what else (None, word)
            for what, word in re.findall(r"<([^>]+)>|(\S+)", form)]


def _pattern(words: list) -> str:
    """``words`` as one group around one group per operand, with blanks
    and tabs between them (an operand in parens brings its own)."""
    parts = [op[0] if op else word for op, word in words]
    return "(" + parts[0] + "".join(p if p.startswith(r"[ \t]*") else r"[ \t]+" + p for p in parts[1:]) + ")"


def _full(branches: list):
    """The fullmatch of one of ``branches``, blanks and tabs around it."""
    return re.compile(r"[ \t]*(?:" + "|".join(branches) + r")[ \t]*", re.ASCII).fullmatch


def _read(line: _Toks, words: list) -> list:
    """The values of the operands in ``words``, read on the cursor; each
    fixed word must stand where it is."""
    values = []
    for op, word in words:
        if op is None:
            line.keyword(word)
        else:
            values.append(op[1](line, word))
    return values


def _one(value):
    """A clause that is its one operand's value."""
    return value


_PREDICATE_WORDS = _words(_PREDICATE)


def _predicate(line: _Toks) -> StatePredicate:
    """A loop's or if's guard, read as a step's ``require`` is."""
    return StatePredicate(*_read(line, _PREDICATE_WORDS))


def _p_simple(p: _Parser, line: _Toks, span, words: list, build):
    """A simple statement on the cursor: ``words`` are its form's words
    after the keyword."""
    values = _read(line, words)
    line.done()
    return build(*values, span=span)


class _Grammar:
    """The statements of one file type. ``simple`` maps each one-line
    form, ``keyword <operand> word ...``, to the function that builds its
    statement from its operands' values and a span; ``handlers`` maps
    every other keyword to its parser. The forms make one pattern, with
    one group per form (told apart by ``lastindex``, the group that closes
    last) around its operand groups. A line the pattern does not match is
    read on the cursor by ``_p_simple``."""

    __slots__ = ("match", "forms", "handlers")

    def __init__(self, simple: dict, handlers: dict):
        self.forms, self.handlers = {}, dict(handlers)
        branches, group = [], 1
        for form, build in simple.items():
            words = _words(form)
            from_text = [op[2] for op, _ in words if op]
            branches.append(_pattern(words))
            keyword = words[0][1]
            self.forms[group] = (_from_texts(from_text, build), len(from_text), len(keyword))
            self.handlers[keyword] = partial(_p_simple, words=words[1:], build=build)
            group += 1 + len(from_text)
        self.match = _full(branches)


class _Clauses:
    """The clauses of one kind of block, as ``_Grammar`` holds a file's
    statements. ``forms`` maps each form, ``keyword [keyword] <operand>
    ...``, to the name of the list that keeps its clauses and to
    ``build``, which makes a clause from its operands' values. A form of
    one keyword alone (one that opens a block) has no pattern:
    ``build(parser, line, context)`` reads the rest of its line on the
    cursor. The other forms and a lone '}' make the block's one pattern,
    one group per form around its operand groups, told apart by
    ``lastindex``. ``table`` gives the cursor each clause keyword's
    ``(list name, other words, build)`` or, where forms share the
    keyword (``effect``, ``then``), a table of their next keywords. A
    keyword in ``once`` may be read once in a block, and each in
    ``required`` must be."""

    __slots__ = ("match", "forms", "table", "lists", "once", "required")

    def __init__(self, forms: dict, once=(), required=()):
        self.forms, self.table, self.once, self.required = {}, {}, once, required
        self.lists = tuple(dict.fromkeys(name for name, _ in forms.values()))
        branches, group = [], 1
        for form, (name, build) in forms.items():
            words = _words(form)
            keywords = 1
            while keywords < len(words) and words[keywords][0] is None:
                keywords += 1
            *path, last = [word for _, word in words[:keywords]]
            table = self.table
            for word in path:
                table = table.setdefault(word, {})
            table[last] = (name, words[keywords:], build)
            from_text = [op[2] for op, _ in words if op]
            if from_text:
                branches.append(_pattern(words))
                self.forms[group] = (words[0][1], name, len(from_text), _from_texts(from_text, build))
                group += 1 + len(from_text)
        branches.append(r"(\})")
        self.forms[group] = None
        self.match = _full(branches)


def _from_texts(from_text: list, build):
    """The function from a match's operand texts (and a statement's span)
    to its clause or statement: ``build`` of each text through its
    function in ``from_text`` (None: the text itself)."""
    if any(from_text):
        return lambda *texts, **span: build(*[t if f is None else f(t) for f, t in zip(from_text, texts)], **span)
    return build


def _parse_statements(parser: _Parser, grammar: _Grammar) -> list:
    stmts = []
    file, match, forms, dispatch = parser.file, grammar.match, grammar.forms, grammar.handlers
    for line_no, raw in parser.lines:
        m = match(raw)
        if m is not None:
            g = m.lastindex
            build, n, width = forms[g]
            span = _span(SourceSpan, (file, line_no, m.start(g) + 1, width))
            stmts.append(build(*m.groups()[g:g + n], span=span))
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
    got, close = p._block(f"transitional '{name}'", span, _TRANSITIONAL)
    p._end(close)
    return Transitional(name, tuple(got["unlinks"]), tuple(got["links"]), span=span)


def _p_frame(p: _Parser, line: _Toks, span) -> Frame:
    name = line.name("a frame name")
    p._open_brace(line)
    got, close = p._block(f"frame '{name}'", span, _FRAME)
    p._end(close)
    return Frame(name, tuple(got["slots"]), tuple(got["templates"]), span=span)


def _p_workflow(p: _Parser, line: _Toks, span, requires_agent=True) -> Workflow:
    name = line.name("a workflow name")
    params = _paren_list(line, lambda toks: toks.name("a parameter name")) if line.peek() == "(" else ()
    p._open_brace(line)
    body, close = _parse_body(p, name, span)
    p._end(close)
    return Workflow(name, params, body, requires_agent, span=span)


def _parse_body(p: _Parser, owner: str, span, depth: int = 0) -> tuple[Seq, _Toks | None]:
    """Parse workflow body nodes until the matching '}'. Returns the Seq
    and the close line (positioned after '}', None for a lone '}') for
    else-continuations. ``depth`` counts the loop and if blocks around
    it; one opened past ``MAX_BLOCK_DEPTH`` is an error, and its block is
    skipped."""
    got, close = p._block(f"block in '{owner}'", span, _BODY, (owner, span, depth))
    return Seq(tuple(got["nodes"])), close


def _step_node(p: _Parser, line: _Toks, context) -> Step:
    return Step(_parse_step(p, line, context[0]))


def _nested(parse, p: _Parser, line: _Toks, context):
    owner, span, depth = context
    if depth == MAX_BLOCK_DEPTH:
        raise _ParseError(f"loop and if blocks nest more than {MAX_BLOCK_DEPTH} deep", line.taken_span())
    return parse(p, line, owner, span, depth + 1)


def _parse_step(p: _Parser, line: _Toks, owner: str) -> WorkflowStep:
    name = line.name("a step name")
    placeholder = False
    if line.peek() == "placeholder":
        line.take()
        placeholder = True
    brace = line.pos
    p._open_brace(line)
    try:
        got, close = p._block(f"step '{name}'", None, _STEP)
    except _ParseError as exc:  # unterminated: its span is the step's '{'
        exc.span = line.span_at(brace)
        raise
    p._end(close)
    agent, duration = got["agent"], got["duration"]
    return WorkflowStep(name, agent[0] if agent else None, duration[0] if duration else 0,
                        tuple(got["pre"]), tuple(got["unlinks"]), tuple(got["links"]), placeholder)


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
            guard = _predicate(line)
    p._open_brace(line)
    body, close = _parse_body(p, owner, span, depth)
    p._end(close)
    return Loop(body, count, guard, until_end)


def _parse_cond(p: _Parser, line: _Toks, owner: str, span, depth: int) -> Cond:
    guard = _predicate(line)
    p._open_brace(line)
    then_body, close = _parse_body(p, owner, span, depth)
    else_body = None
    if close is not None and close.peek() == "else":
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
    got, close = p._block(f"rule '{name}'", span, _RULE)
    p._end(close)
    when, then = got["when"], got["then"]
    return Rule(name, tuple(when), then[0], span=span) if when and then else None


# What follows each action's keyword, in a rule's ``then`` and on a
# scenario line alike; the scenario line adds ``at <a tick>``.
_ACTION_OPERANDS = {
    RunSpec: "<a workflow> <arguments>",
    ApplyDirective: "<a transitional>",
    ActivateDirective: "<a frame> <a binding>",
    DeactivateDirective: "<a frame> <a binding>",
}

_TRANSITIONAL = _Clauses({
    f"link {_TEMPLATE}": ("links", LinkTemplate),
    f"unlink {_TEMPLATE}": ("unlinks", LinkTemplate),
})
_FRAME = _Clauses({
    "slot <a slot name>": ("slots", _one),
    f"link {_TEMPLATE}": ("templates", LinkTemplate),
})
_STEP = _Clauses({
    "agent <an entity>": ("agent", _one),
    "duration <a duration>": ("duration", _one),
    f"require {_PREDICATE}": ("pre", StatePredicate),
    f"effect link {_TEMPLATE}": ("links", LinkTemplate),
    f"effect unlink {_TEMPLATE}": ("unlinks", LinkTemplate),
}, once=("agent", "duration"))
_RULE = _Clauses({
    f"when {_PREDICATE}": ("when", StatePredicate),
    **{f"then {word} {_ACTION_OPERANDS[cls]}": ("then", cls) for cls, (_, word) in ACTION_KEYWORDS.items()},
}, once=("then",), required=("when", "then"))
_BODY = _Clauses({
    "step": ("nodes", _step_node),
    "loop": ("nodes", partial(_nested, _parse_loop)),
    "if": ("nodes", partial(_nested, _parse_cond)),
})

_MODEL = _Grammar(
    {
        "universal <a universal name> is_a <a parent entity>":
            lambda name, parent, span: EntityDef(name, Layer.U, parent, span=span),
        "particular <a particular name> instance_of <a universal>":
            lambda name, universal, span: EntityDef(name, Layer.P, universal, span=span),
        "relation <a relation kind name> from <a B entity> to <a B entity>": RelationKind,
        "relate <a universal> <a relation kind> <a universal>": RelationDeclaration,
        "model <a model name>": ModelHeader,
    },
    {
        "transitional": _p_transitional,
        "frame": _p_frame,
        "workflow": _p_workflow,
        "mechanism": partial(_p_workflow, requires_agent=False),
        "rule": _p_rule,
    },
)


# scenario statements ---------------------------------------------------

_SCENARIO = _Grammar({
    "init <an entity> <a relation kind> <an entity>":
        lambda frm, kind, to, span: InitStmt(LinkTemplate(frm, kind, to), span=span),
    **{f"{word} {_ACTION_OPERANDS[cls]} at <a tick>": cls for cls, (word, _) in ACTION_KEYWORDS.items()},
    "interrupt <a run ordinal> at <a tick>": InterruptDirective,
    "rule <a rule name>": RuleRefStmt,
    "scenario <a scenario name>": ScenarioHeader,
    "horizon <a horizon tick>": HorizonStmt,
}, {})


def parse_model(text: str, file: str = "<model>") -> ParseResult:
    p = _Parser(text, file)
    return p.result(ModelDocument(tuple(_parse_statements(p, _MODEL))))


def parse_scenario(text: str, file: str = "<scenario>") -> ParseResult:
    p = _Parser(text, file)
    return p.result(ScenarioDocument(tuple(_parse_statements(p, _SCENARIO))))
