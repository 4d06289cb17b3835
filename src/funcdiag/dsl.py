"""Parsers for the schema definition format and the mutation script format.

Schema files (`.fd`) declare named sets, their attribute and link
functions, and diagram constraints over composition chains. Mutation
scripts (`.fdm`) are straight-line sequences of inserts, updates, and
deletes with symbolic row handles and optional accept/reject expectations.

Both parsers are all-or-nothing: they either return a fully validated
result or every diagnostic found, each pointing at a source position.
They share one lexer: one compiled pattern with a named alternative per
token class, read by a single `finditer` loop. Identifiers are
case-sensitive and do not start with a decimal digit, `null` is a keyword
literal, `//` starts a line comment, and strings are double-quoted with
backslash escapes and end at the end of their line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Union

from .model import (
    ConstraintClass,
    ConstraintKind,
    DiagramConstraint,
    FunctionDef,
    IssueCode,
    RawChain,
    RawConstraint,
    ScalarType,
    Schema,
    SetDef,
    Side,
    classify_constraint,
    message_template_problem,
    refusal_issue,
    validate_diagram,
)
from .store import RowId


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    line: int
    column: int
    code: IssueCode
    message: str

    def render(self) -> str:
        return f"{self.line}:{self.column}: {self.severity.value} [{self.code.value}] {self.message}"


class Action(Enum):
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


class Expectation(Enum):
    ACCEPT = "accept"
    REJECT = "reject"


@dataclass(frozen=True)
class HandleRef:
    """A symbolic reference to a row bound earlier in the same script."""

    name: str


BindingValue = Union[int, str, HandleRef, RowId, None]


@dataclass(frozen=True)
class Binding:
    function: str
    value: BindingValue


@dataclass(frozen=True)
class Mutation:
    """One parsed script statement, in source order."""

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

_PUNCT = {
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    ";": "SEMI",
    ":": "COLON",
    ",": "COMMA",
    "=": "EQUALS",
    "?": "QUESTION",
    ".": "DOT",
}


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int


# The first alternative that matches wins, so "-5" is an INT before "->"
# is tried. `[^\W\d]` is a word character other than a decimal digit.
_TOKEN_RE = re.compile(
    "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in [
            ("NEWLINE", r"\n"),
            ("BLANK", r"[ \t\r]+"),
            ("COMMENT", r"//[^\n]*"),
            ("WORD", r"[^\W\d]\w*"),
            ("INT", r"-?\d+"),
            ("HANDLE", r"@\w+"),
            ("AT", r"@"),
            ("STRING", r'"(?:[^"\\\n]|\\.)*(?:(?P<CLOSE>")|\\?)'),
            ("ARROW", r"->"),
            ("PUNCT", r"[{}();:,=?.]"),
            ("OTHER", r"."),
        ]
    )
)
_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t"}


def _lex(source: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    line, line_start = 1, 0

    def error(message: str, column: int) -> None:
        diagnostics.append(
            Diagnostic(Severity.ERROR, line, column, IssueCode.SYNTAX, message)
        )

    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
            continue
        if kind == "BLANK" or kind == "COMMENT":
            continue
        text = m.group()
        column = m.start() - line_start + 1
        if kind == "WORD":
            kind = text if text in _KEYWORDS else "IDENT"
        elif kind == "PUNCT":
            kind = _PUNCT[text]
        elif kind == "HANDLE":
            text = text[1:]
        elif kind == "STRING":
            if m["CLOSE"]:
                text = text[1:-1]
            else:
                text = text[1:]
                error("unterminated string literal", column)
            if "\\" in text:
                text = _ESCAPE_RE.sub(lambda e: _ESCAPES.get(e[1], e[1]), text)
        elif kind == "AT":
            error("'@' must be followed by a handle name", column)
            continue
        elif kind == "OTHER":
            error(f"unexpected character {text!r}", column)
            continue
        tokens.append(Token(kind, text, line, column))
    tokens.append(Token("EOF", "", line, len(source) - line_start + 1))
    return tokens, diagnostics


# ---------------------------------------------------------------------------
# Raw declarations (token positions preserved for semantic diagnostics)
# ---------------------------------------------------------------------------


@dataclass
class _RawMember:
    name: str
    pos: Token
    is_name: bool = False
    scalar: ScalarType | None = None
    target: str | None = None
    target_pos: Token | None = None
    nullable: bool = False

    @property
    def is_link(self) -> bool:
        return self.target is not None


@dataclass
class _RawSet:
    name: str
    pos: Token
    members: list[_RawMember] = field(default_factory=list)


@dataclass
class _RawChainDecl:
    identity: bool
    names: list[str]
    positions: list[Token]
    pos: Token


@dataclass
class _RawConstraintDecl:
    id: str
    pos: Token
    kind: ConstraintKind
    domain: str
    domain_pos: Token
    left: _RawChainDecl | None = None
    right: _RawChainDecl | None = None
    message: Token | None = None


class _Parser:
    """Shared token-stream plumbing with statement-level recovery."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def match(self, *kinds: str) -> bool:
        return self.current.kind in kinds

    def accept(self, kind: str) -> Token | None:
        if self.current.kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str, what: str) -> Token | None:
        tok = self.accept(kind)
        if tok is None:
            self.error(f"expected {what}, found {_describe(self.current)}")
        return tok

    def error(self, message: str, tok: Token | None = None) -> None:
        tok = tok or self.current
        self.diagnostics.append(
            Diagnostic(Severity.ERROR, tok.line, tok.column, IssueCode.SYNTAX, message)
        )

    def skip_to(self, *kinds: str) -> None:
        while not self.match("EOF", *kinds):
            self.advance()

    def skip_past(self, *kinds: str) -> None:
        self.skip_to(*kinds)
        if not self.match("EOF"):
            self.advance()


def _describe(tok: Token) -> str:
    if tok.kind == "EOF":
        return "end of input"
    return repr(tok.value)


# ---------------------------------------------------------------------------
# Schema parsing
# ---------------------------------------------------------------------------


class _SchemaParser(_Parser):
    def parse(self) -> tuple[str | None, list[_RawSet], list[_RawConstraintDecl]]:
        schema_name: str | None = None
        if self.accept("schema"):
            tok = self.expect("IDENT", "schema name")
            if tok is not None:
                schema_name = tok.value
            self.expect("SEMI", "';'")
        else:
            self.diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    self.current.line,
                    self.current.column,
                    IssueCode.NO_SCHEMA,
                    "no schema declared",
                )
            )
        sets: list[_RawSet] = []
        constraints: list[_RawConstraintDecl] = []
        while not self.match("EOF"):
            if self.match("set"):
                decl = self._set_decl()
                if decl is not None:
                    sets.append(decl)
            elif self.match("constraint"):
                decl = self._constraint_decl()
                if decl is not None:
                    constraints.append(decl)
            else:
                self.error(
                    f"expected 'set' or 'constraint', found {_describe(self.current)}"
                )
                self.advance()
                self.skip_to("set", "constraint")
        return schema_name, sets, constraints

    def _set_decl(self) -> _RawSet | None:
        self.advance()
        name_tok = self.expect("IDENT", "set name")
        if name_tok is None or self.expect("LBRACE", "'{'") is None:
            self.skip_past("RBRACE")
            return None
        decl = _RawSet(name_tok.value, name_tok)
        while not self.match("RBRACE", "EOF"):
            member = self._member()
            if member is not None:
                decl.members.append(member)
        self.expect("RBRACE", "'}'")
        return decl

    def _member(self) -> _RawMember | None:
        is_name = self.accept("name") is not None
        name_tok = self.expect("IDENT", "function name")
        if name_tok is None:
            self.skip_past("SEMI")
            return None
        member = _RawMember(name_tok.value, name_tok, is_name=is_name)
        if self.accept("COLON"):
            if self.match("text"):
                member.scalar = ScalarType.TEXT
                self.advance()
            elif self.match("integer"):
                member.scalar = ScalarType.INTEGER
                self.advance()
            else:
                self.error(
                    f"expected 'text' or 'integer', found {_describe(self.current)}"
                )
                self.skip_past("SEMI")
                return None
        elif self.accept("ARROW"):
            target_tok = self.expect("IDENT", "target set name")
            if target_tok is None:
                self.skip_past("SEMI")
                return None
            member.target = target_tok.value
            member.target_pos = target_tok
        else:
            self.error(f"expected ':' or '->', found {_describe(self.current)}")
            self.skip_past("SEMI")
            return None
        if self.accept("QUESTION"):
            member.nullable = True
        if self.expect("SEMI", "';'") is None:
            self.skip_past("SEMI")
        return member

    def _constraint_decl(self) -> _RawConstraintDecl | None:
        self.advance()
        id_tok = self.expect("IDENT", "constraint name")
        if id_tok is None:
            self.skip_past("RBRACE")
            return None
        if self.match("commutative"):
            kind = ConstraintKind.COMMUTATIVE
            self.advance()
        elif self.match("anticommutative"):
            kind = ConstraintKind.ANTI_COMMUTATIVE
            self.advance()
        else:
            self.error(
                "expected 'commutative' or 'anticommutative',"
                f" found {_describe(self.current)}"
            )
            self.skip_past("RBRACE")
            return None
        if self.expect("on", "'on'") is None:
            self.skip_past("RBRACE")
            return None
        domain_tok = self.expect("IDENT", "domain set name")
        if domain_tok is None or self.expect("LBRACE", "'{'") is None:
            self.skip_past("RBRACE")
            return None
        decl = _RawConstraintDecl(
            id_tok.value, id_tok, kind, domain_tok.value, domain_tok
        )
        while not self.match("RBRACE", "EOF"):
            if self.match("left", "right"):
                side_tok = self.advance()
                if self.expect("EQUALS", "'='") is None:
                    self.skip_past("SEMI")
                    continue
                chain = self._chain()
                if chain is None:
                    continue
                previous = decl.left if side_tok.kind == "left" else decl.right
                if previous is not None:
                    self.error(f"duplicate '{side_tok.kind}' chain", side_tok)
                elif side_tok.kind == "left":
                    decl.left = chain
                else:
                    decl.right = chain
            elif self.match("message"):
                msg_tok = self.advance()
                if self.expect("EQUALS", "'='") is None:
                    self.skip_past("SEMI")
                    continue
                text = self.expect("STRING", "string literal")
                if text is None:
                    self.skip_past("SEMI")
                    continue
                if decl.message is not None:
                    self.error("duplicate 'message'", msg_tok)
                else:
                    decl.message = text
                self.expect("SEMI", "';'")
            else:
                self.error(
                    "expected 'left', 'right' or 'message',"
                    f" found {_describe(self.current)}"
                )
                self.skip_past("SEMI")
        self.expect("RBRACE", "'}'")
        if decl.left is None:
            self.error(f"constraint {decl.id!r} declares no left chain", decl.pos)
            return None
        if decl.right is None:
            self.error(f"constraint {decl.id!r} declares no right chain", decl.pos)
            return None
        return decl

    def _chain(self) -> _RawChainDecl | None:
        start = self.current
        if self.accept("identity"):
            self.expect("SEMI", "';'")
            return _RawChainDecl(True, [], [], start)
        names: list[str] = []
        positions: list[Token] = []
        tok = self.expect("IDENT", "function name or 'identity'")
        if tok is None:
            self.skip_past("SEMI")
            return None
        names.append(tok.value)
        positions.append(tok)
        while self.accept("DOT"):
            tok = self.expect("IDENT", "function name")
            if tok is None:
                self.skip_past("SEMI")
                return None
            names.append(tok.value)
            positions.append(tok)
        self.expect("SEMI", "';'")
        return _RawChainDecl(False, names, positions, start)


def parse_schema(source: str) -> tuple[Schema | None, list[Diagnostic]]:
    """Parse and validate a schema file.

    Returns (schema, []) on success, with every constraint admitted and
    classified GENERAL, or (None, diagnostics) listing every problem.
    """
    tokens, diagnostics = _lex(source)
    parser = _SchemaParser(tokens)
    schema_name, raw_sets, raw_constraints = parser.parse()
    diagnostics.extend(parser.diagnostics)

    def diag(code: IssueCode, message: str, tok: Token) -> None:
        diagnostics.append(
            Diagnostic(Severity.ERROR, tok.line, tok.column, code, message)
        )

    sets: list[SetDef] = []
    functions: list[FunctionDef] = []
    seen_sets: dict[str, Token] = {}
    for raw in raw_sets:
        if raw.name in seen_sets:
            diag(IssueCode.DUPLICATE_SET, f"duplicate set {raw.name!r}", raw.pos)
            continue
        seen_sets[raw.name] = raw.pos
        seen_members: dict[str, Token] = {}
        name_attr: str | None = None
        for member in raw.members:
            if member.name in seen_members:
                diag(
                    IssueCode.DUPLICATE_FUNCTION,
                    f"duplicate function {member.name!r} on set {raw.name!r}",
                    member.pos,
                )
                continue
            seen_members[member.name] = member.pos
            if member.is_name:
                if member.is_link:
                    diag(
                        IssueCode.BAD_NAME_ATTRIBUTE,
                        f"name designation on {member.name!r} requires an attribute,"
                        " not a link",
                        member.pos,
                    )
                elif name_attr is not None:
                    diag(
                        IssueCode.DUPLICATE_NAME_ATTRIBUTE,
                        f"set {raw.name!r} already designates {name_attr!r} as its name",
                        member.pos,
                    )
                else:
                    name_attr = member.name
            codomain: str | ScalarType = (
                member.target if member.is_link else member.scalar  # type: ignore[assignment]
            )
            functions.append(
                FunctionDef(member.name, raw.name, codomain, member.nullable)
            )
        if name_attr is None:
            diag(
                IssueCode.MISSING_NAME_ATTRIBUTE,
                f"set {raw.name!r} designates no name attribute",
                raw.pos,
            )
            name_attr = ""
        sets.append(SetDef(raw.name, name_attr))

    set_names = {s.name for s in sets}
    for raw in raw_sets:
        for member in raw.members:
            if member.is_link and member.target not in set_names:
                diag(
                    IssueCode.UNKNOWN_SET,
                    f"link {member.name!r} targets unknown set {member.target!r}",
                    member.target_pos or member.pos,
                )

    functions = [
        fn for fn in functions if not (fn.is_link and fn.codomain not in set_names)
    ]
    schema = Schema(schema_name or "", tuple(sets), tuple(functions))

    constraints: list[DiagramConstraint] = []
    seen_constraints: dict[str, Token] = {}
    for raw_c in raw_constraints:
        if raw_c.id in seen_constraints:
            diag(
                IssueCode.DUPLICATE_CONSTRAINT,
                f"duplicate constraint {raw_c.id!r}",
                raw_c.pos,
            )
            continue
        seen_constraints[raw_c.id] = raw_c.pos
        message = None
        if raw_c.message is not None:
            message = raw_c.message.value
            problem = message_template_problem(message)
            if problem is not None:
                diag(IssueCode.BAD_MESSAGE_TEMPLATE, problem, raw_c.message)
        assert raw_c.left is not None and raw_c.right is not None
        raw_constraint = RawConstraint(
            raw_c.id,
            raw_c.kind,
            raw_c.domain,
            RawChain(tuple(raw_c.left.names), raw_c.left.identity),
            RawChain(tuple(raw_c.right.names), raw_c.right.identity),
            message,
        )
        resolved, issues = validate_diagram(schema, raw_constraint)
        for issue in issues:
            tok = raw_c.pos
            if issue.code is IssueCode.UNKNOWN_SET:
                tok = raw_c.domain_pos
            elif issue.side is not None and issue.position is not None:
                chain_decl = raw_c.left if issue.side is Side.LEFT else raw_c.right
                if chain_decl is not None and chain_decl.positions:
                    tok = chain_decl.positions[issue.position - 1]
            diag(issue.code, issue.message, tok)
        if resolved is None:
            continue
        cls = classify_constraint(resolved)
        if cls is not ConstraintClass.GENERAL:
            issue = refusal_issue(resolved, cls)
            diag(issue.code, issue.message, raw_c.pos)
            continue
        constraints.append(resolved)

    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    if errors:
        return None, sorted(diagnostics, key=lambda d: (d.line, d.column, d.code.value))
    return schema.with_constraints(tuple(constraints)), []


# ---------------------------------------------------------------------------
# Script parsing
# ---------------------------------------------------------------------------


class _ScriptParser(_Parser):
    def __init__(self, tokens: list[Token], schema: Schema):
        super().__init__(tokens)
        self.schema = schema
        self.handles: dict[str, str] = {}

    def parse(self) -> list[Mutation]:
        mutations: list[Mutation] = []
        while not self.match("EOF"):
            if self.match("insert"):
                m = self._insert()
            elif self.match("update"):
                m = self._update()
            elif self.match("delete"):
                m = self._delete()
            else:
                self.error(
                    "expected 'insert', 'update' or 'delete',"
                    f" found {_describe(self.current)}"
                )
                self.skip_past("SEMI")
                continue
            if m is not None:
                mutations.append(m)
        return mutations

    def _insert(self) -> Mutation | None:
        start = self.advance()
        set_tok = self.expect("IDENT", "set name")
        if set_tok is None or self.expect("LPAREN", "'('") is None:
            self.skip_past("SEMI")
            return None
        set_known = self.schema.has_set(set_tok.value)
        if not set_known:
            self.error_code(
                IssueCode.UNKNOWN_SET, f"unknown set {set_tok.value!r}", set_tok
            )
        bindings: list[Binding] = []
        if not self.match("RPAREN"):
            while True:
                binding = self._binding(set_tok.value if set_known else None)
                if binding is None:
                    self.skip_past("SEMI")
                    return None
                bindings.append(binding)
                if not self.accept("COMMA"):
                    break
        if self.expect("RPAREN", "')'") is None:
            self.skip_past("SEMI")
            return None
        handle: str | None = None
        if self.accept("as"):
            handle_tok = self.expect("IDENT", "handle name")
            if handle_tok is None:
                self.skip_past("SEMI")
                return None
            if handle_tok.value in self.handles:
                self.error_code(
                    IssueCode.DUPLICATE_HANDLE,
                    f"handle {handle_tok.value!r} is already bound",
                    handle_tok,
                )
            else:
                handle = handle_tok.value
                self.handles[handle] = set_tok.value
        expectation = self._expectation()
        self.expect("SEMI", "';'")
        self._check_duplicate_bindings(bindings, start)
        return Mutation(
            Action.INSERT,
            set_name=set_tok.value,
            bindings=tuple(bindings),
            handle=handle,
            expectation=expectation,
            line=start.line,
        )

    def _update(self) -> Mutation | None:
        start = self.advance()
        target = self.expect("HANDLE", "row handle")
        if target is None or self.expect("set", "'set'") is None:
            self.skip_past("SEMI")
            return None
        target_set = self._resolve_handle(target)
        bindings: list[Binding] = []
        while True:
            binding = self._binding(target_set)
            if binding is None:
                self.skip_past("SEMI")
                return None
            bindings.append(binding)
            if not self.accept("COMMA"):
                break
        expectation = self._expectation()
        self.expect("SEMI", "';'")
        self._check_duplicate_bindings(bindings, start)
        return Mutation(
            Action.UPDATE,
            row_ref=HandleRef(target.value),
            bindings=tuple(bindings),
            expectation=expectation,
            line=start.line,
        )

    def _delete(self) -> Mutation | None:
        start = self.advance()
        target = self.expect("HANDLE", "row handle")
        if target is None:
            self.skip_past("SEMI")
            return None
        self._resolve_handle(target)
        expectation = self._expectation()
        self.expect("SEMI", "';'")
        return Mutation(
            Action.DELETE,
            row_ref=HandleRef(target.value),
            expectation=expectation,
            line=start.line,
        )

    def _binding(self, set_name: str | None) -> Binding | None:
        fn_tok = self.expect("IDENT", "function name")
        if fn_tok is None or self.expect("EQUALS", "'='") is None:
            return None
        fn = self.schema.function(set_name, fn_tok.value) if set_name else None
        if set_name is not None and fn is None:
            self.error_code(
                IssueCode.UNKNOWN_FUNCTION,
                f"no function {fn_tok.value!r} on set {set_name!r}",
                fn_tok,
            )
        value_tok = self.current
        value = self._literal()
        if value is _NO_VALUE:
            return None
        if fn is not None:
            self._check_value_kind(fn, value, value_tok)
        return Binding(fn_tok.value, value)

    def _literal(self) -> BindingValue:
        if self.accept("null"):
            return None
        tok = self.current
        if tok.kind == "STRING":
            self.advance()
            return tok.value
        if tok.kind == "INT":
            self.advance()
            # Measure before converting: int() refuses very long strings.
            digits = tok.value.lstrip("-").lstrip("0") or "0"
            if len(digits) <= len(str(_INT_MAX)):
                value = -int(digits) if tok.value.startswith("-") else int(digits)
                if _INT_MIN <= value <= _INT_MAX:
                    return value
            self.error(
                "integer literal outside the signed 64-bit range [-2^63, 2^63 - 1]",
                tok,
            )
            return _NO_VALUE
        if tok.kind == "HANDLE":
            self.advance()
            self._resolve_handle(tok)
            return HandleRef(tok.value)
        self.error(
            f"expected literal, handle or 'null', found {_describe(self.current)}"
        )
        return _NO_VALUE

    def _expectation(self) -> Expectation | None:
        if not self.accept("expect"):
            return None
        if self.accept("accept"):
            return Expectation.ACCEPT
        if self.accept("reject"):
            return Expectation.REJECT
        self.error(f"expected 'accept' or 'reject', found {_describe(self.current)}")
        return None

    def _resolve_handle(self, tok: Token) -> str | None:
        set_name = self.handles.get(tok.value)
        if set_name is None:
            self.error_code(
                IssueCode.UNBOUND_HANDLE,
                f"handle {tok.value!r} is not bound by any earlier insert",
                tok,
            )
        return set_name

    def _check_value_kind(
        self, fn: FunctionDef, value: BindingValue, tok: Token
    ) -> None:
        if value is None:
            return
        if isinstance(value, HandleRef):
            if not fn.is_link:
                self.error_code(
                    IssueCode.TYPE_MISMATCH,
                    f"attribute {fn.name!r} cannot take a row handle",
                    tok,
                )
                return
            handle_set = self.handles.get(value.name)
            if handle_set is not None and handle_set != fn.codomain:
                self.error_code(
                    IssueCode.TYPE_MISMATCH,
                    f"link {fn.name!r} targets {fn.codomain!r} but handle"
                    f" {value.name!r} holds a row of {handle_set!r}",
                    tok,
                )
            return
        if fn.is_link:
            self.error_code(
                IssueCode.TYPE_MISMATCH,
                f"link {fn.name!r} takes a row handle or null, not a literal",
                tok,
            )
            return
        if fn.codomain is ScalarType.TEXT and not isinstance(value, str):
            self.error_code(
                IssueCode.TYPE_MISMATCH,
                f"attribute {fn.name!r} holds text",
                tok,
            )
        elif fn.codomain is ScalarType.INTEGER and not isinstance(value, int):
            self.error_code(
                IssueCode.TYPE_MISMATCH,
                f"attribute {fn.name!r} holds integers",
                tok,
            )

    def _check_duplicate_bindings(self, bindings: list[Binding], tok: Token) -> None:
        seen: set[str] = set()
        for binding in bindings:
            if binding.function in seen:
                self.error(f"duplicate binding for {binding.function!r}", tok)
            seen.add(binding.function)

    def error_code(self, code: IssueCode, message: str, tok: Token) -> None:
        self.diagnostics.append(
            Diagnostic(Severity.ERROR, tok.line, tok.column, code, message)
        )


class _NoValue:
    pass


_NO_VALUE = _NoValue()

# Integer values are SQLite's: signed 64-bit.
_INT_MIN, _INT_MAX = -(2**63), 2**63 - 1


def parse_script(
    source: str, schema: Schema
) -> tuple[list[Mutation] | None, list[Diagnostic]]:
    """Parse a mutation script against a validated schema.

    Handles resolve forward-only: a handle must be bound by an earlier
    insert in the same script before it can be referenced.
    """
    tokens, diagnostics = _lex(source)
    parser = _ScriptParser(tokens, schema)
    mutations = parser.parse()
    diagnostics.extend(parser.diagnostics)
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    if errors:
        return None, sorted(diagnostics, key=lambda d: (d.line, d.column, d.code.value))
    return mutations, []


# ---------------------------------------------------------------------------
# Canonical printers (round-trip support)
# ---------------------------------------------------------------------------


def format_schema(schema: Schema) -> str:
    """Print a schema in canonical DSL form; parsing it back is identity."""
    lines = [f"schema {schema.name} ;", ""]
    for s in schema.sets:
        lines.append(f"set {s.name} {{")
        for fn in schema.functions_of(s.name):
            marker = "name " if fn.name == s.name_attribute else ""
            suffix = " ?" if fn.nullable else ""
            if fn.is_link:
                lines.append(f"    {marker}{fn.name} -> {fn.codomain}{suffix} ;")
            else:
                assert isinstance(fn.codomain, ScalarType)
                lines.append(f"    {marker}{fn.name} : {fn.codomain.value}{suffix} ;")
        lines.append("}")
        lines.append("")
    for c in schema.constraints:
        kind = (
            "commutative" if c.kind is ConstraintKind.COMMUTATIVE else "anticommutative"
        )
        lines.append(f"constraint {c.id} {kind} on {c.domain_set} {{")
        lines.append(f"    left = {c.left.render()} ;")
        lines.append(f"    right = {c.right.render()} ;")
        if c.message is not None:
            lines.append(f"    message = {_quote(c.message)} ;")
        lines.append("}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def format_script(mutations: list[Mutation]) -> str:
    """Print mutations in canonical script form; parsing the printout of a
    parsed script gives the same mutations back.

    Scripts name rows only through handles, so a mutation whose row or
    value is a concrete `RowId` raises ValueError.
    """
    lines = []
    for m in mutations:
        lines.append(_format_mutation(m))
    return "\n".join(lines) + ("\n" if lines else "")


def _format_mutation(m: Mutation) -> str:
    suffix = ""
    if m.expectation is not None:
        suffix = f" expect {m.expectation.value}"
    bindings = ", ".join(f"{b.function} = {_render_value(b.value)}" for b in m.bindings)
    if m.action is Action.INSERT:
        as_clause = f" as {m.handle}" if m.handle else ""
        return f"insert {m.set_name} ({bindings}){as_clause}{suffix} ;"
    if m.action is Action.UPDATE:
        return f"update {_render_value(m.row_ref)} set {bindings}{suffix} ;"
    return f"delete {_render_value(m.row_ref)}{suffix} ;"


def _render_value(value: BindingValue) -> str:
    if value is None:
        return "null"
    if isinstance(value, HandleRef):
        return f"@{value.name}"
    if isinstance(value, RowId):
        raise ValueError(f"row {value!r} has no handle; scripts name rows by handle")
    if isinstance(value, str):
        return _quote(value)
    return str(value)


def _quote(text: str) -> str:
    escaped = (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
    )
    return f'"{escaped}"'
