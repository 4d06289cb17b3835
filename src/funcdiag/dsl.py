"""Parsers for the schema definition format and the mutation script format.

Schema files (`.fd`) declare named sets, their attribute and link
functions, and diagram constraints over composition chains. Mutation
scripts (`.fdm`) are straight-line sequences of inserts, updates, and
deletes with symbolic row handles and optional accept/reject expectations.

Both parsers are all-or-nothing: they either return a fully validated
result or every diagnostic found, each pointing at a source position.

A schema is read in one pass that checks only its syntax. The sets, their
functions and the constraints it declares are then judged by
model.judge_schema, the one judge Schema(...) runs too, which tags each
issue with the declaration it belongs to; parse_schema reports it at that
declaration's token, and a constraint's issue at the part of the
constraint it names.

A script is read by two paths. The fast path takes one line at a time: a
line that holds one whole common statement (`insert`, `update` or
`delete`, with an optional `expect` and a trailing comment) is taken in
one match of one compiled pattern, and a line of blanks or a comment is
skipped. Both paths call the same rule functions (`_kind_problem`,
`_duplicates`): the token parser reports what they find, the fast path
refuses the line. At the first line the fast path cannot take, for any
reason, it stops: the token parser reads the rest of the script from the
handles bound so far, whose HandleRefs name the sets their inserts bind.
Only the token parser writes diagnostics, so a script with an error gets
exactly the diagnostics it would get if the token parser had read all of it.

Schemas, and what the fast path leaves of a script, go through one lexer.
No token, string or comment spans a line: `//` starts a line comment and a
string ends at the end of its line. So the lexer splits the source on
newlines and reads each line in one pass of one compiled pattern, which
skips blanks and comments. A token is its source text and nothing more;
beside the token list run one list of lines and one of columns, filled as
the tokens are read, and a lexical error is reported where it is met.
Keywords and punctuation are compared as text; identifiers, integers,
strings and handles are told apart by their first character when the
parser reads them, and a string's escapes are resolved then. Identifiers
are case-sensitive and do not start with a decimal digit, `null` is a
keyword literal, and strings are double-quoted with backslash escapes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Union

from .model import (
    ConstraintKind,
    FunctionDef,
    IssueCode,
    RawChain,
    RawConstraint,
    ScalarType,
    Schema,
    Side,
    Where,
    judge_schema,
)
from .store import INT_MAX, INT_MIN, RowId


@dataclass(frozen=True)
class Diagnostic:
    """An error at a source position; every diagnostic is an error."""

    line: int
    column: int
    code: IssueCode
    message: str

    def render(self) -> str:
        return f"{self.line}:{self.column}: error [{self.code.value}] {self.message}"


class Action(Enum):
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


class Expectation(Enum):
    ACCEPT = "accept"
    REJECT = "reject"


# The script records are slotted and not frozen: a frozen dataclass sets
# each field through object.__setattr__, which made building the records a
# quarter of parsing a script. Nothing changes a record once built, so they
# hash by value; equality holds only between two records of one class.
# A parsed script shares what repeats, which halves the memory it holds:
# each handle name has one HandleRef, and set and function names are the
# schema's own str objects.


@dataclass(slots=True, unsafe_hash=True)
class HandleRef:
    """A symbolic reference to a row bound earlier in the same script.

    parse_script makes one per handle name, whose `set_name` is the set
    its insert names, and every statement of the script that names the
    handle holds it, so treat it as immutable: a change would reach every
    one of them. `set_name` takes no part in equality, hash or repr.
    """

    name: str
    set_name: str | None = field(default=None, compare=False, repr=False)


BindingValue = Union[int, str, HandleRef, RowId, None]


@dataclass(slots=True, unsafe_hash=True)
class Binding:
    """One `function = value` of a statement. A parsed binding's `function`
    is the schema's FunctionDef.name and a handle `value` is the script's
    one HandleRef for it: shared, so treat the binding as immutable."""

    function: str
    value: BindingValue


@dataclass(slots=True, unsafe_hash=True)
class Mutation:
    """One parsed script statement, in source order.

    A parsed insert's `set_name` is the schema's own name, and an update's
    or delete's `row_ref` is the script's one HandleRef for its handle.
    Mutations share these sub-objects with each other and with the
    schema, so treat every parsed record as immutable.
    """

    action: Action
    set_name: str | None = None
    row_ref: HandleRef | RowId | None = None
    bindings: tuple[Binding, ...] = ()
    handle: str | None = None
    expectation: Expectation | None = None
    line: int = field(default=0, compare=False)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = {
    "schema",
    "set",
    "name",
    "text",
    "integer",
    "constraint",
    "commutative",
    "anticommutative",
    "on",
    "left",
    "right",
    "identity",
    "message",
    "insert",
    "update",
    "delete",
    "as",
    "expect",
    "accept",
    "reject",
    "null",
}

_PUNCT = {"{", "}", "(", ")", ";", ":", ",", "=", "?", ".", "->"}

# One match per token of one line: blanks and `//` comments are a skipped
# prefix, and group 1 holds the token's text. Group 1 also matches the
# empty string at the end of the line, so a prefix that reaches the end
# never gives back what it skipped to let a token match inside a comment.
# A character no token starts with matches outside group 1, which is then
# None: a lexical error. No two token alternatives match at the same
# place, so their order is only a speed choice; `[^\W\d]` is a word
# character other than a decimal digit.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r]+|//.*)*"
    r"(?:("
    r"[{}();:,=?.]"
    r"|[^\W\d]\w*"
    r"|@\w+"
    r'|"(?:[^"\\]|\\.)*(?:"|\\)?'
    r"|-?\d+"
    r"|->"
    r"|\Z"
    r")|.)"
)
_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t"}


def _lex(
    source: str, first: int = 0
) -> tuple[list[str], list[int], list[int], list[Diagnostic]]:
    """Split `source`, from its line `first + 1` on, into token texts ending
    with the EOF token "".

    Returns the tokens, the line and the column of each token, and the
    lexical diagnostics in source order.
    """
    tokens: list[str] = []
    lines: list[int] = []
    columns: list[int] = []
    diagnostics: list[Diagnostic] = []
    source_lines = source.split("\n")
    for n, text in enumerate(source_lines[first:], first + 1):
        for m in _TOKEN_RE.finditer(text):
            tok = m[1]
            if tok:
                column = m.start(1) + 1
                if tok[0] == '"' and _unterminated(tok):
                    message = "unterminated string literal"
                    diagnostics.append(Diagnostic(n, column, IssueCode.SYNTAX, message))
                tokens.append(tok)
                lines.append(n)
                columns.append(column)
            elif tok is None:
                char = text[m.end() - 1]
                message = (
                    "'@' must be followed by a handle name"
                    if char == "@"
                    else f"unexpected character {char!r}"
                )
                diagnostics.append(Diagnostic(n, m.end(), IssueCode.SYNTAX, message))
    tokens.append("")
    lines.append(len(source_lines))
    columns.append(len(source_lines[-1]) + 1)
    return tokens, lines, columns, diagnostics


def _unterminated(tok: str) -> bool:
    """Whether string token `tok` runs to the end of its line unclosed: a
    final quote closes it only after an even run of backslashes."""
    if len(tok) < 2 or tok[-1] != '"':
        return True
    if tok[-2] != "\\":
        return False
    body = tok[1:-1]
    return (len(body) - len(body.rstrip("\\"))) % 2 == 1


def _string_value(tok: str) -> str:
    return _unescape(tok[1:] if _unterminated(tok) else tok[1:-1])


def _unescape(text: str) -> str:
    if "\\" in text:
        text = _ESCAPE_RE.sub(lambda e: _ESCAPES.get(e[1], e[1]), text)
    return text


def _kind(tok: str) -> str:
    """The class of a token, read from its first character: "EOF",
    "STRING", "HANDLE", "INT" or "IDENT", or the token itself for a
    keyword or punctuation."""
    if not tok:
        return "EOF"
    first = tok[0]
    if first == '"':
        return "STRING"
    if first == "@":
        return "HANDLE"
    if tok in _KEYWORDS or tok in _PUNCT:
        return tok
    if first == "-" or first.isdecimal():
        return "INT"
    return "IDENT"


# ---------------------------------------------------------------------------
# Raw constraint declarations (token indexes kept for semantic diagnostics)
# ---------------------------------------------------------------------------


@dataclass
class _RawConstraintDecl:
    id: str
    pos: int
    kind: ConstraintKind
    domain: str
    domain_pos: int
    # each side's chain, beside the token index of each of its names
    chains: dict[Side, tuple[RawChain, list[int]]] = field(default_factory=dict)
    message: int | None = None


class _Parser:
    """Shared token-stream plumbing with statement-level recovery.

    `tok` is the current token's text and `i` its index; tokens are named
    by index, and a diagnostic reads its line and column from `lines` and
    `columns` at that index.
    """

    def __init__(self, source: str, first: int = 0):
        self.tokens, self.lines, self.columns, self.diagnostics = _lex(source, first)
        self.i = 0
        self.tok = self.tokens[0]

    def advance(self) -> int:
        """Step past the current token, never past EOF; return its index."""
        i = self.i
        if self.tok:
            self.i = i + 1
            self.tok = self.tokens[i + 1]
        return i

    def accept(self, text: str) -> bool:
        """Step past the current token if it is keyword or punctuation `text`."""
        if self.tok != text:
            return False
        self.i += 1
        self.tok = self.tokens[self.i]
        return True

    def expect(self, text: str) -> bool:
        """Accept keyword or punctuation `text`, or report it missing."""
        if self.accept(text):
            return True
        self.error(f"expected '{text}', found {_describe(self.tok)}")
        return False

    def expect_kind(self, kind: str, what: str) -> int | None:
        """Accept a token of class `kind` and return its index."""
        if _kind(self.tok) == kind:
            return self.advance()
        self.error(f"expected {what}, found {_describe(self.tok)}")
        return None

    def error(
        self, message: str, i: int | None = None, code: IssueCode = IssueCode.SYNTAX
    ) -> None:
        i = self.i if i is None else i
        self.diagnostics.append(
            Diagnostic(self.lines[i], self.columns[i], code, message)
        )

    def skip_to(self, *texts: str) -> None:
        while self.tok and self.tok not in texts:
            self.advance()

    def skip_past(self, *texts: str) -> None:
        self.skip_to(*texts)
        self.advance()


def _describe(tok: str) -> str:
    """A token as a diagnostic names it: by its value, or as end of input."""
    kind = _kind(tok)
    if kind == "EOF":
        return "end of input"
    if kind == "STRING":
        return repr(_string_value(tok))
    if kind == "HANDLE":
        return repr(tok[1:])
    return repr(tok)


# ---------------------------------------------------------------------------
# Schema parsing
# ---------------------------------------------------------------------------


class _SchemaParser(_Parser):
    """Reads a schema's syntax; model.judge_schema judges what it declares.

    `declared` holds each set read, with its functions, in judge_schema's
    form, and `constraints` each constraint declaration; `at` maps the
    Where of each set, function and link target and each constraint id to
    its token's index.
    """

    def __init__(self, source: str):
        super().__init__(source)
        self.declared: list[tuple[str, list[tuple[FunctionDef, bool]]]] = []
        self.constraints: list[_RawConstraintDecl] = []
        self.at: dict[Where, int] = {}

    def parse(self) -> str | None:
        """Read the whole schema; return its name."""
        schema_name: str | None = None
        if self.accept("schema"):
            name = self.expect_kind("IDENT", "schema name")
            if name is not None:
                schema_name = self.tokens[name]
            self.expect(";")
        else:
            self.error("no schema declared", code=IssueCode.NO_SCHEMA)
        while self.tok:
            if self.tok == "set":
                self._set_decl()
            elif self.tok == "constraint":
                decl = self._constraint_decl()
                if decl is not None:
                    self.at[(1, len(self.constraints))] = decl.pos
                    self.constraints.append(decl)
            else:
                self.error(f"expected 'set' or 'constraint', found {_describe(self.tok)}")
                self.advance()
                self.skip_to("set", "constraint")
        return schema_name

    def _set_decl(self) -> None:
        self.advance()
        pos = self.expect_kind("IDENT", "set name")
        if pos is None or not self.expect("{"):
            self.skip_past("}")
            return
        set_name = self.tokens[pos]
        i = len(self.declared)
        self.at[(0, i)] = pos
        members: list[tuple[FunctionDef, bool]] = []
        self.declared.append((set_name, members))
        while self.tok and self.tok != "}":
            self._member(set_name, (0, i, len(members)), members)
        self.expect("}")

    def _member(
        self, set_name: str, where: Where, members: list[tuple[FunctionDef, bool]]
    ) -> None:
        """Read a function of `set_name` into `members`, beside whether it is
        declared the set's name, and its Where (and its target's) into `at`."""
        is_name = self.accept("name")
        name = self.expect_kind("IDENT", "function name")
        if name is None:
            self.skip_past(";")
            return
        codomain: str | ScalarType
        if self.accept(":"):
            if self.accept("text"):
                codomain = ScalarType.TEXT
            elif self.accept("integer"):
                codomain = ScalarType.INTEGER
            else:
                self.error(f"expected 'text' or 'integer', found {_describe(self.tok)}")
                self.skip_past(";")
                return
        elif self.accept("->"):
            target = self.expect_kind("IDENT", "target set name")
            if target is None:
                self.skip_past(";")
                return
            codomain = self.tokens[target]
            self.at[(*where, 1)] = target
        else:
            self.error(f"expected ':' or '->', found {_describe(self.tok)}")
            self.skip_past(";")
            return
        nullable = self.accept("?")
        if not self.expect(";"):
            self.skip_past(";")
        self.at[where] = name
        members.append((FunctionDef(self.tokens[name], set_name, codomain, nullable), is_name))

    def _constraint_decl(self) -> _RawConstraintDecl | None:
        self.advance()
        name = self.expect_kind("IDENT", "constraint name")
        if name is None:
            self.skip_past("}")
            return None
        if self.accept("commutative"):
            kind = ConstraintKind.COMMUTATIVE
        elif self.accept("anticommutative"):
            kind = ConstraintKind.ANTI_COMMUTATIVE
        else:
            self.error(
                "expected 'commutative' or 'anticommutative',"
                f" found {_describe(self.tok)}"
            )
            self.skip_past("}")
            return None
        if not self.expect("on"):
            self.skip_past("}")
            return None
        domain = self.expect_kind("IDENT", "domain set name")
        if domain is None or not self.expect("{"):
            self.skip_past("}")
            return None
        decl = _RawConstraintDecl(
            self.tokens[name], name, kind, self.tokens[domain], domain
        )
        while self.tok and self.tok != "}":
            if self.tok in ("left", "right"):
                side = Side(self.tok)
                side_pos = self.advance()
                if not self.expect("="):
                    self.skip_past(";")
                    continue
                chain = self._chain()
                if chain is None:
                    continue
                if side in decl.chains:
                    self.error(f"duplicate '{side.value}' chain", side_pos)
                else:
                    decl.chains[side] = chain
            elif self.tok == "message":
                message_pos = self.advance()
                if not self.expect("="):
                    self.skip_past(";")
                    continue
                text = self.expect_kind("STRING", "string literal")
                if text is None:
                    self.skip_past(";")
                    continue
                if decl.message is not None:
                    self.error("duplicate 'message'", message_pos)
                else:
                    decl.message = text
                self.expect(";")
            else:
                self.error(
                    "expected 'left', 'right' or 'message',"
                    f" found {_describe(self.tok)}"
                )
                self.skip_past(";")
        self.expect("}")
        for side in Side:
            if side not in decl.chains:
                self.error(
                    f"constraint {decl.id!r} declares no {side.value} chain", decl.pos
                )
                return None
        return decl

    def _chain(self) -> tuple[RawChain, list[int]] | None:
        """A chain and the token index of each of its names."""
        if self.accept("identity"):
            self.expect(";")
            return RawChain(identity=True), []
        positions: list[int] = []
        while True:
            what = "function name" if positions else "function name or 'identity'"
            name = self.expect_kind("IDENT", what)
            if name is None:
                self.skip_past(";")
                return None
            positions.append(name)
            if not self.accept("."):
                break
        self.expect(";")
        return RawChain(tuple(self.tokens[i] for i in positions)), positions


def parse_schema(source: str) -> tuple[Schema | None, list[Diagnostic]]:
    """Parse and validate a schema file.

    Returns (schema, []) on success, with every constraint resolved and
    admitted by validate_diagram, or (None, diagnostics) listing every
    problem.
    """
    parser = _SchemaParser(source)
    schema_name = parser.parse()
    raws = []
    for decl in parser.constraints:
        message = None if decl.message is None else _string_value(parser.tokens[decl.message])
        left, right = (decl.chains[side][0] for side in (Side.LEFT, Side.RIGHT))
        raws.append(RawConstraint(decl.id, decl.kind, decl.domain, left, right, message))
    schema, issues = judge_schema(schema_name or "", parser.declared, raws)
    for where, issue in issues:
        tok = parser.at.get(where)
        if tok is None:  # the rest of a constraint
            decl = parser.constraints[where[1]]
            tok = decl.pos
            if issue.code is IssueCode.UNKNOWN_SET:
                tok = decl.domain_pos
            elif issue.code is IssueCode.BAD_MESSAGE_TEMPLATE:
                tok = decl.message
            elif issue.side is not None and issue.position is not None:
                tok = decl.chains[issue.side][1][issue.position - 1]
        parser.error(issue.message, tok, issue.code)
    if parser.diagnostics:
        return None, sorted(parser.diagnostics, key=lambda d: (d.line, d.column, d.code.value))
    return schema, []


# ---------------------------------------------------------------------------
# Script parsing
# ---------------------------------------------------------------------------


class _ScriptParser(_Parser):
    """The token parser: reads a script from its line `first + 1` on, with
    `refs`, the script's one HandleRef per handle name, holding each handle
    the lines before it bind."""

    def __init__(
        self, source: str, schema: Schema, first: int = 0, refs: dict[str, HandleRef] | None = None
    ):
        super().__init__(source, first)
        self.schema = schema
        self.refs: dict[str, HandleRef] = {} if refs is None else refs

    def parse(self) -> list[Mutation]:
        mutations: list[Mutation] = []
        while self.tok:
            if self.tok == "insert":
                m = self._insert()
            elif self.tok == "update":
                m = self._update()
            elif self.tok == "delete":
                m = self._delete()
            else:
                self.error(
                    "expected 'insert', 'update' or 'delete',"
                    f" found {_describe(self.tok)}"
                )
                self.skip_past(";")
                continue
            if m is not None:
                mutations.append(m)
        return mutations

    def _insert(self) -> Mutation | None:
        start = self.advance()
        set_pos = self.expect_kind("IDENT", "set name")
        if set_pos is None or not self.expect("("):
            self.skip_past(";")
            return None
        set_def = self.schema.set_def(self.tokens[set_pos])
        known_set = None if set_def is None else set_def.name  # the schema's own str
        set_name = known_set or self.tokens[set_pos]
        if known_set is None:
            self.error(f"unknown set {set_name!r}", set_pos, IssueCode.UNKNOWN_SET)
        bindings = [] if self.tok == ")" else self._bindings(known_set)
        if bindings is None or not self.expect(")"):
            self.skip_past(";")
            return None
        handle: str | None = None
        if self.accept("as"):
            handle_pos = self.expect_kind("IDENT", "handle name")
            if handle_pos is None:
                self.skip_past(";")
                return None
            name = self.tokens[handle_pos]
            if name in self.refs:
                self.error(
                    f"handle {name!r} is already bound",
                    handle_pos,
                    IssueCode.DUPLICATE_HANDLE,
                )
            else:
                handle = name
                self.refs[handle] = HandleRef(handle, set_name)
        return self._finish(start, Action.INSERT, set_name, None, bindings, handle)

    def _update(self) -> Mutation | None:
        start = self.advance()
        target = self.expect_kind("HANDLE", "row handle")
        if target is None or not self.expect("set"):
            self.skip_past(";")
            return None
        ref = self._ref(target)
        bindings = self._bindings(ref.set_name)
        if bindings is None:
            self.skip_past(";")
            return None
        return self._finish(start, Action.UPDATE, None, ref, bindings, None)

    def _delete(self) -> Mutation | None:
        start = self.advance()
        target = self.expect_kind("HANDLE", "row handle")
        if target is None:
            self.skip_past(";")
            return None
        return self._finish(start, Action.DELETE, None, self._ref(target), [], None)

    def _finish(
        self,
        start: int,
        action: Action,
        set_name: str | None,
        row_ref: HandleRef | None,
        bindings: list[Binding],
        handle: str | None,
    ) -> Mutation:
        """Read the `expect` and `;` that end the statement at `start`; build it."""
        expectation = None
        if self.accept("expect"):
            expectation = _EXPECTATIONS.get(self.tok)
            if expectation is None:
                self.error(f"expected 'accept' or 'reject', found {_describe(self.tok)}")
            else:
                self.advance()
        self.expect(";")
        for name in _duplicates(bindings):
            self.error(f"duplicate binding for {name!r}", start)
        line = self.lines[start]
        return Mutation(
            action, set_name, row_ref, tuple(bindings), handle, expectation, line
        )

    def _bindings(self, set_name: str | None) -> list[Binding] | None:
        """The comma-separated bindings, or None after a syntax error."""
        bindings = []
        while True:
            binding = self._binding(set_name)
            if binding is None:
                return None
            bindings.append(binding)
            if not self.accept(","):
                return bindings

    def _binding(self, set_name: str | None) -> Binding | None:
        fn_pos = self.expect_kind("IDENT", "function name")
        if fn_pos is None or not self.expect("="):
            return None
        fn_name = self.tokens[fn_pos]
        fn = self.schema.function(set_name, fn_name) if set_name else None
        if set_name is not None and fn is None:
            self.error(
                f"no function {fn_name!r} on set {set_name!r}",
                fn_pos,
                IssueCode.UNKNOWN_FUNCTION,
            )
        value_pos = self.i
        value = self._literal()
        if value is _NO_VALUE:
            return None
        problem = None if fn is None else _kind_problem(fn, value)
        if problem is not None:
            self.error(problem, value_pos, IssueCode.TYPE_MISMATCH)
        return Binding(fn_name if fn is None else fn.name, value)

    def _literal(self) -> BindingValue:
        tok = self.tok
        kind = _kind(tok)
        if kind == "STRING":
            self.advance()
            return _string_value(tok)
        if kind == "HANDLE":
            return self._ref(self.advance())
        if kind == "null":
            self.advance()
            return None
        if kind == "INT":
            pos = self.advance()
            value = _int_value(tok)
            if value is not None:
                return value
            self.error(
                "integer literal outside the signed 64-bit range [-2^63, 2^63 - 1]",
                pos,
            )
            return _NO_VALUE
        self.error(f"expected literal, handle or 'null', found {_describe(tok)}")
        return _NO_VALUE

    def _ref(self, pos: int) -> HandleRef:
        """The script's one HandleRef for the handle at `pos`; for a handle
        no earlier insert binds, report it and return one that names no set."""
        name = self.tokens[pos][1:]
        ref = self.refs.get(name)
        if ref is None:
            message = f"handle {name!r} is not bound by any earlier insert"
            self.error(message, pos, IssueCode.UNBOUND_HANDLE)
            ref = HandleRef(name)
        return ref


def _kind_problem(fn: FunctionDef, value: BindingValue) -> str | None:
    """Why function `fn` cannot take `value`, or None if it can. A handle
    that names no set is no kind problem: it is reported as unbound."""
    if value is None:
        return None
    if isinstance(value, HandleRef):
        handle_set = value.set_name
        if handle_set == fn.codomain or (handle_set is None and fn.is_link):
            return None
        if not fn.is_link:
            return f"attribute {fn.name!r} cannot take a row handle"
        return (
            f"link {fn.name!r} targets {fn.codomain!r} but handle"
            f" {value.name!r} holds a row of {handle_set!r}"
        )
    literal_kind = _TEXT if isinstance(value, str) else _INTEGER
    if fn.codomain is literal_kind:
        return None
    if fn.is_link:
        return f"link {fn.name!r} takes a row handle or null, not a literal"
    held = "text" if fn.codomain is _TEXT else "integers"
    return f"attribute {fn.name!r} holds {held}"


def _duplicates(bindings: list[Binding]) -> list[str]:
    """The function of each binding that repeats an earlier one's."""
    seen: set[str] = set()
    repeated = []
    for binding in bindings:
        if binding.function in seen:
            repeated.append(binding.function)
        seen.add(binding.function)
    return repeated


class _NoValue:
    pass


_NO_VALUE = _NoValue()

# Read once: reading an Enum member from its class is slow.
_TEXT, _INTEGER = ScalarType.TEXT, ScalarType.INTEGER
_INSERT, _UPDATE, _DELETE = Action.INSERT, Action.UPDATE, Action.DELETE


def _int_value(tok: str) -> int | None:
    """The value of integer token `tok`, or None outside the 64-bit range."""
    # Measure before converting: int() refuses very long strings.
    digits = tok.lstrip("-").lstrip("0") or "0"
    if len(digits) > len(str(INT_MAX)):
        return None
    value = -int(digits) if tok[0] == "-" else int(digits)
    return value if INT_MIN <= value <= INT_MAX else None


# ---------------------------------------------------------------------------
# Script fast path
# ---------------------------------------------------------------------------

# `_B` is the lexer's blanks. A keyword, name, handle or integer must end at
# `\b`, so no match splits a token of the lexer in two ("as hexpect" is not
# "as h expect"). A binding's literal is a closed string, a handle, an
# integer or null.
_B = r"[ \t\r]*"
_NAME = r"[^\W\d]\w*\b"
_STRING = r'"(?:[^"\\]|\\.)*"'
_BINDING = rf"{_NAME}{_B}={_B}(?:{_STRING}|@\w+\b|-?\d+\b|null\b)"
_BINDING_RE = re.compile(
    rf"({_NAME}){_B}={_B}(?:({_STRING})|@(\w+)\b|(-?\d+)\b|null\b)"
)
_BINDINGS = rf"({_BINDING}(?:{_B},{_B}{_BINDING})*)"
_END = rf"(?:{_B}expect\b{_B}(accept|reject)\b)?{_B};{_B}(?://.*)?"
_INSERT_RE = re.compile(
    rf"{_B}insert\b{_B}({_NAME}){_B}\({_B}{_BINDINGS}?{_B}\)"
    rf"(?:{_B}as\b{_B}({_NAME}))?{_END}"
)
_UPDATE_RE = re.compile(rf"{_B}update\b{_B}@(\w+)\b{_B}set\b{_B}{_BINDINGS}{_END}")
_DELETE_RE = re.compile(rf"{_B}delete\b{_B}@(\w+)\b{_END}")
_STATEMENT_RES = {"insert": _INSERT_RE, "update": _UPDATE_RE, "delete": _DELETE_RE}
_BLANK_RE = re.compile(rf"{_B}(?://.*)?")
_EXPECTATIONS = {None: None, "accept": Expectation.ACCEPT, "reject": Expectation.REJECT}


def _parse_fast(
    source_lines: list[str], schema: Schema
) -> tuple[list[Mutation], dict[str, HandleRef], int]:
    """Take the script's lines in order while each holds one whole common
    statement, or only blanks and a comment.

    Returns the mutations taken, one HandleRef per handle they bind, and
    the index of the first line not taken. A line is not taken when no
    pattern matches it whole or when the token parser would report
    anything on it, so the token parser started at that line reads the
    script as if from its start. Set and function names are the schema's
    own str objects, not copies made by the match.
    """
    function_table = schema.function_table
    set_names = {s.name: s.name for s in schema.sets}
    refs: dict[str, HandleRef] = {}
    mutations: list[Mutation] = []
    for n, text in enumerate(source_lines):
        pattern = _STATEMENT_RES.get(text.lstrip(" \t\r")[:6])
        m = pattern.fullmatch(text) if pattern is not None else None
        if m is None:
            if _BLANK_RE.fullmatch(text):
                continue
            return mutations, refs, n
        if pattern is _INSERT_RE:
            set_name, body, handle, expect = m.groups()
            set_name = set_names.get(set_name)
            if handle in refs or handle in _KEYWORDS:
                return mutations, refs, n
            action, row_ref, fns = _INSERT, None, function_table(set_name)
        else:
            # an update's groups are (handle, bindings, expect), a delete's
            # (handle, expect)
            ref, *rest, expect = m.groups()
            action = _UPDATE if rest else _DELETE
            set_name, body, handle = None, rest[0] if rest else None, None
            row_ref = refs.get(ref)
            fns = function_table(row_ref.set_name) if row_ref is not None else None
        if not fns:
            return mutations, refs, n
        bindings = () if body is None else _fast_bindings(body, fns, refs)
        if bindings is None:
            return mutations, refs, n
        if handle is not None:
            refs[handle] = HandleRef(handle, set_name)
        expectation = _EXPECTATIONS[expect]
        mutations.append(
            Mutation(action, set_name, row_ref, bindings, handle, expectation, n + 1)
        )
    return mutations, refs, len(source_lines)


def _fast_bindings(
    text: str, functions: Mapping[str, FunctionDef], refs: dict[str, HandleRef]
) -> tuple[Binding, ...] | None:
    """The bindings that `text` lists, of `functions` of one set, or None
    if the token parser would report one of them. `refs` holds the
    HandleRef of each handle bound so far."""
    bindings = []
    for name, string, ref, integer in _BINDING_RE.findall(text):
        fn = functions.get(name)
        if fn is None:
            return None
        if string:
            value: BindingValue = _unescape(string[1:-1])
        elif ref:
            value = refs.get(ref)
            if value is None:
                return None
        elif integer:
            value = _int_value(integer)
            if value is None:
                return None
        else:
            value = None
        if _kind_problem(fn, value) is not None:
            return None
        bindings.append(Binding(fn.name, value))
    return None if _duplicates(bindings) else tuple(bindings)


def parse_script(
    source: str, schema: Schema
) -> tuple[list[Mutation] | None, list[Diagnostic]]:
    """Parse a mutation script against a validated schema.

    Handles resolve forward-only: a handle must be bound by an earlier
    insert in the same script before it can be referenced.
    """
    source_lines = source.split("\n")
    mutations, refs, first = _parse_fast(source_lines, schema)
    if first == len(source_lines):
        return mutations, []
    parser = _ScriptParser(source, schema, first, refs)
    mutations += parser.parse()
    diagnostics = parser.diagnostics
    if diagnostics:
        return None, sorted(diagnostics, key=lambda d: (d.line, d.column, d.code.value))
    return mutations, []
