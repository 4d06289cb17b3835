"""Schema and constraint model.

A schema is a collection of named sets and the functions defined on them.
A function maps every element of its domain set either to an element of
another set (a link function, realized as a foreign key) or to a scalar
value (an attribute function). Rows of a set are identified by a surrogate
integer, and every set designates one attribute as its display name.

A diagram constraint pairs two composition chains that start on a common
domain set and end in a common codomain, and demands that the composed
values be equal for every row (commutative) or differ for every row
(anti-commutative). Chains are stored outermost-first: the entry at index
0 is applied last, the entry at index n-1 is the function defined on the
common domain and applied first.

Admission is judged here alone. validate_diagram judges a declared
constraint: it refuses, among others, a chain compared against the
identity of its domain (a local constraint) and a pair of single functions
(a homogeneous binary function product, HBFP), so neither ever takes the
DiagramConstraint shape. judge_name judges each name against those before
it. parse_schema reports both judges' issues at their tokens; Schema(...)
runs both and raises ValueError, so it refuses what parse_schema refuses.

A constraint owns its violation message: `template` is the one text
that the engine formats and that both emitted dialects embed, and
format_message is the only code that fills its MESSAGE_FIELDS.
"""

from __future__ import annotations

import copy
import string
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping


class ScalarType(Enum):
    """Value domains available to attribute functions."""

    TEXT = "text"
    INTEGER = "integer"


class ConstraintKind(Enum):
    COMMUTATIVE = "commutative"
    ANTI_COMMUTATIVE = "anti-commutative"


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def other(self) -> "Side":
        return _RIGHT if self is _LEFT else _LEFT


_LEFT, _RIGHT = Side.LEFT, Side.RIGHT  # read once: reading an Enum member from its class is slow
# The most tables SQLite joins in one SELECT (https://www.sqlite.org/limits.html).
_SQLITE_MAX_JOIN = 64


class IssueCode(Enum):
    """Closed enumeration of diagnostic codes shared by model and DSL."""

    SYNTAX = "syntax"
    NO_SCHEMA = "no-schema"
    DUPLICATE_SET = "duplicate-set"
    DUPLICATE_FUNCTION = "duplicate-function"
    DUPLICATE_CONSTRAINT = "duplicate-constraint"
    MISSING_NAME_ATTRIBUTE = "missing-name-attribute"
    DUPLICATE_NAME_ATTRIBUTE = "duplicate-name-attribute"
    BAD_NAME_ATTRIBUTE = "bad-name-attribute"
    UNKNOWN_SET = "unknown-set"
    UNKNOWN_FUNCTION = "unknown-function"
    BROKEN_COMPOSITION = "broken-composition"
    CODOMAIN_MISMATCH = "codomain-mismatch"
    DEGENERATE_IDENTITY = "degenerate-identity"
    REFUSED_HBFP = "refused-hbfp"
    REFUSED_LOCAL = "refused-local"
    JOIN_LIMIT = "join-limit"
    UNBOUND_HANDLE = "unbound-handle"
    DUPLICATE_HANDLE = "duplicate-handle"
    TYPE_MISMATCH = "type-mismatch"
    BAD_MESSAGE_TEMPLATE = "bad-message-template"
    RESERVED_NAME = "reserved-name"


@dataclass(frozen=True)
class Issue:
    """A model-level validation finding.

    Carries no source position; the DSL layer maps `side`/`position` back
    to the offending token when the constraint came from parsed text.
    `position` is 1-based and indexes a chain entry, outermost first.
    """

    code: IssueCode
    message: str
    side: Side | None = None
    position: int | None = None


@dataclass(frozen=True)
class SetDef:
    """A named fundamental set with its designated display attribute."""

    name: str
    name_attribute: str


@dataclass(frozen=True)
class FunctionDef:
    """A function defined on `domain`.

    `codomain` is a set name for link functions and a ScalarType for
    attribute functions. (domain, name) pairs are unique within a schema;
    bare names may repeat across sets.
    """

    name: str
    domain: str
    codomain: str | ScalarType
    nullable: bool = False
    # Stored once: the store reads it for every value it writes.
    is_link: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "is_link", isinstance(self.codomain, str))

    @property
    def is_attribute(self) -> bool:
        return not self.is_link


@dataclass(frozen=True)
class ChainSpec:
    """An ordered composition of at least one function, outermost first.

    `functions[0]` is applied last and determines the codomain;
    `functions[-1]` is defined on the common domain and applied first.
    `inward` holds their names in the order a walk applies them,
    innermost first.
    """

    functions: tuple[FunctionDef, ...]
    # Stored once: every chain walk reads it.
    inward: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.functions:
            raise ValueError("a chain needs at least one function")
        object.__setattr__(self, "inward", tuple(f.name for f in reversed(self.functions)))
        # Rendered once: every violation message may name both chains.
        object.__setattr__(self, "_rendered", " . ".join(f.name for f in self.functions))

    @property
    def length(self) -> int:
        return len(self.functions)

    @property
    def domain_set(self) -> str:
        return self.functions[-1].domain

    @property
    def codomain(self) -> str | ScalarType:
        return self.functions[0].codomain

    @property
    def innermost(self) -> FunctionDef:
        return self.functions[-1]

    def render(self) -> str:
        return self._rendered


@dataclass(frozen=True)
class DiagramConstraint:
    """A resolved two-chain diagram constraint.

    Both sides are compositions, and at least one composes two or more
    functions; validate_diagram builds nothing else, and a Schema admits
    nothing else. Built once each: `template`, the declared message or a
    default naming both chains, and `occurrences`, one per chain position,
    left side first and each side in position order.
    """

    id: str
    kind: ConstraintKind
    left: ChainSpec
    right: ChainSpec
    message: str | None = None
    template: str = field(init=False, compare=False, repr=False)
    occurrences: tuple[Occurrence, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        verb = "must equal" if self.kind is ConstraintKind.COMMUTATIVE else "must never equal"
        default = (
            f"value of {self.left.render()} {verb} value of {self.right.render()}"
            " (left={left}, right={right})"
        )
        object.__setattr__(self, "template", self.message or default)
        object.__setattr__(self, "occurrences", tuple(
            Occurrence(self, side, position)
            for side in (_LEFT, _RIGHT)
            for position in range(1, self.chain(side).length + 1)
        ))

    @property
    def domain_set(self) -> str:
        return self.left.domain_set

    def chain(self, side: Side) -> ChainSpec:
        return self.left if side is _LEFT else self.right

    def render(self) -> str:
        op = "=" if self.kind is ConstraintKind.COMMUTATIVE else "/="
        return f"{self.left.render()} {op} {self.right.render()} on {self.domain_set}"

    def format_message(self, left: object, right: object, witness: object) -> str:
        """The message of a violation at `witness`, where the chains read
        `left` and `right`: the template with every MESSAGE_FIELDS name
        filled in, each value as render_value writes it."""
        return self.template.format(
            left=render_value(left),
            right=render_value(right),
            left_chain=self.left.render(),
            right_chain=self.right.render(),
            witness=render_value(witness),
            constraint=self.id,
        )


@dataclass(frozen=True)
class Occurrence:
    """One chain position of one constraint, keyed by (set, function), with
    the plan of the check that writing it fires. The plan is derived from
    (side, position) here alone, once per constraint; the engine and both
    code generators read it. `head` takes the written value to the chain's
    codomain, innermost first; `reverse` walks the link columns back from
    the written row to the domain set, outermost first (empty at the
    innermost position, which domain-row checks cover); `other` is the
    chain the head is compared with.
    """

    constraint: DiagramConstraint
    side: Side
    position: int
    set_name: str = field(init=False, compare=False, repr=False)
    function_name: str = field(init=False, compare=False, repr=False)
    other: ChainSpec = field(init=False, compare=False, repr=False)
    head: tuple[FunctionDef, ...] = field(init=False, compare=False, repr=False)
    reverse: tuple[FunctionDef, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        functions = self.constraint.chain(self.side).functions
        fn = functions[self.position - 1]
        object.__setattr__(self, "set_name", fn.domain)
        object.__setattr__(self, "function_name", fn.name)
        object.__setattr__(self, "other", self.constraint.chain(self.side.other))
        object.__setattr__(self, "head", functions[: self.position - 1][::-1])
        object.__setattr__(self, "reverse", functions[self.position :])


MESSAGE_FIELDS = frozenset(
    ("left", "right", "left_chain", "right_chain", "witness", "constraint")
)
"""Replacement fields a violation message template may use."""


def render_value(value: object) -> str:
    """A chain value or witness row as messages and reports write it:
    null as `null`, anything else with str (a row id reads `SET#x`)."""
    return "null" if value is None else str(value)


def message_template_problem(template: str) -> str | None:
    """Why `template` cannot format a violation message, or None if it can.

    Every replacement field must be one of MESSAGE_FIELDS written bare,
    as `{left}`: no attribute or index access, conversion or format spec,
    so formatting the message can never fail.
    """
    try:
        parsed = list(string.Formatter().parse(template))
    except ValueError as exc:
        return f"malformed message template: {exc}"
    allowed = ", ".join(f"{{{name}}}" for name in sorted(MESSAGE_FIELDS))
    for _, name, spec, conversion in parsed:
        if name is not None and (name not in MESSAGE_FIELDS or spec or conversion):
            field = name + (f"!{conversion}" if conversion else "") + (
                f":{spec}" if spec else ""
            )
            return f"message template field {{{field}}} is not one of {allowed}"
    return None


# SQLite compares names with ASCII letters folded to one case, and so do
# case-insensitive file systems, so two sets, two functions of one set or
# two constraints named alike but for ASCII case would collide as tables,
# columns, trigger names or emitted files. Other letters are not folded.
_FOLD_ASCII = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def judge_name(
    seen: dict[str, str], what: str, name: str, where: str = ""
) -> tuple[str | None, list[Issue]]:
    """Judge naming a "set", "function" or "constraint" `name` after the
    names in `seen`, which maps each ASCII-folded name to its first spelling.

    Returns the name in `seen` that `name` equals but for ASCII case
    (`name` itself if it repeats exactly), or None after adding `name` to
    `seen`, and the issues: that twin, reported alone if it is `name`, and
    a function named `x` or `X`, the key column of every emitted table.
    """
    folded = name.translate(_FOLD_ASCII)
    earlier = seen.get(folded)
    issues: list[Issue] = []
    if earlier is None:
        seen[folded] = name
    else:
        code = IssueCode(f"duplicate-{what}")
        if earlier == name:
            return earlier, [Issue(code, f"duplicate {what} {name!r}{where}")]
        message = f"{what} {name!r} differs from {what} {earlier!r}{where} only in case"
        issues.append(Issue(code, message))
    if what == "function" and name in ("x", "X"):
        message = f"function name {name!r} is reserved: generated code names"
        issues.append(Issue(IssueCode.RESERVED_NAME, message + " every row's key column x"))
    return earlier, issues


@dataclass(frozen=True)
class Schema:
    """An immutable, validated schema plus its admitted constraints.

    Construction raises ValueError on what parse_schema refuses: a name
    judge_name refuses among the sets, the functions of one set or the
    constraint ids; a function on or a link to an unknown set; a set whose
    name attribute is missing or a link; and a constraint whose names
    validate_diagram does not resolve, in this schema, to the constraint
    itself (so its functions are the schema's own and its template can
    always format). The lookup tables, including the per-(set,
    function) chain occurrences, are built once here. with_constraints
    judges only the constraints it is given and shares the rest, and
    parse_schema, which judges each name and constraint as it reads it,
    builds its Schema through _judged without judging them again.
    """

    name: str
    sets: tuple[SetDef, ...]
    functions: tuple[FunctionDef, ...]
    constraints: tuple[DiagramConstraint, ...] = ()
    _sets_by_name: dict = field(init=False, repr=False, compare=False)
    _fns_by_set: dict = field(init=False, repr=False, compare=False)
    _links_into: dict = field(init=False, repr=False, compare=False)
    _constraints_on: dict = field(init=False, repr=False, compare=False)
    # (set, function) -> the constraints' own occurrences at it, one per
    # chain position; shared by every caller, do not mutate
    occurrences: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _refuse_names("set", (("", s.name) for s in self.sets))
        _refuse_names("function", ((f" on set {fn.domain!r}", fn.name) for fn in self.functions))
        self._index_functions()
        self._refuse_structure()
        self._refuse_constraints()
        self._index_constraints()

    @classmethod
    def _judged(cls, name: str, sets, functions, constraints=()) -> "Schema":
        """A Schema whose names and constraints the caller has judged with
        judge_name and validate_diagram, as parse_schema does while it
        reads them, built without judging them again."""
        schema = object.__new__(cls)
        schema.__dict__.update(name=name, sets=sets, functions=functions, constraints=constraints)
        schema._index_functions()
        schema._index_constraints()
        return schema

    def _index_functions(self) -> None:
        by_name = {s.name: s for s in self.sets}
        by_set: dict[str, dict[str, FunctionDef]] = {s.name: {} for s in self.sets}
        links_into: dict[str, list[FunctionDef]] = {s.name: [] for s in self.sets}
        for fn in self.functions:
            by_set.setdefault(fn.domain, {})[fn.name] = fn
            if fn.is_link:
                links_into.setdefault(fn.codomain, []).append(fn)
        object.__setattr__(self, "_sets_by_name", by_name)
        object.__setattr__(self, "_fns_by_set", by_set)
        object.__setattr__(self, "_links_into", _tuples(links_into))

    def _refuse_structure(self) -> None:
        """Raise ValueError, with parse_schema's issues, at the first
        function on an unknown set (which schema text cannot declare), link
        to an unknown set, or set whose name attribute is missing or a link."""
        sets = self._sets_by_name
        for fn in self.functions:
            if fn.domain not in sets:
                message = f"function {fn.name!r} is on unknown set {fn.domain!r}"
                _refuse([Issue(IssueCode.UNKNOWN_SET, message)])
            if fn.is_link and fn.codomain not in sets:
                message = f"link {fn.name!r} targets unknown set {fn.codomain!r}"
                _refuse([Issue(IssueCode.UNKNOWN_SET, message)])
        for s in self.sets:
            fn = self._fns_by_set[s.name].get(s.name_attribute)
            if fn is None or fn.is_link:
                # a link designated as the name leaves none, and the parser
                # reports the set's issue first
                message = f"set {s.name!r} designates no name attribute"
                issues = [Issue(IssueCode.MISSING_NAME_ATTRIBUTE, message)]
                if fn is not None:
                    message = f"name designation on {fn.name!r} requires an attribute, not a link"
                    issues.append(Issue(IssueCode.BAD_NAME_ATTRIBUTE, message))
                _refuse(issues)

    def _refuse_constraints(self) -> None:
        _refuse_names("constraint", (("", c.id) for c in self.constraints))
        for c in self.constraints:
            left, right = (RawChain(chain.inward[::-1]) for chain in (c.left, c.right))
            raw = RawConstraint(c.id, c.kind, c.domain_set, left, right, c.message)
            resolved, issues = validate_diagram(self, raw)
            if resolved != c:
                why = "; ".join(issue.message for issue in issues)
                why = why or "holds a function unlike the schema's own"
                raise ValueError(f"constraint {c.id!r}: {why}")

    def _index_constraints(self) -> None:
        constraints_on: dict[str, list[DiagramConstraint]] = {}
        occurrences: dict[tuple[str, str], list[Occurrence]] = {}
        for c in self.constraints:
            constraints_on.setdefault(c.domain_set, []).append(c)
            for occ in c.occurrences:
                occurrences.setdefault((occ.set_name, occ.function_name), []).append(occ)
        object.__setattr__(self, "_constraints_on", _tuples(constraints_on))
        object.__setattr__(self, "occurrences", _tuples(occurrences))

    def set_def(self, name: str) -> SetDef | None:
        return self._sets_by_name.get(name)

    def function(self, set_name: str, fn_name: str) -> FunctionDef | None:
        return self._fns_by_set.get(set_name, {}).get(fn_name)

    def functions_of(self, set_name: str) -> tuple[FunctionDef, ...]:
        return tuple(self._fns_by_set.get(set_name, {}).values())

    def function_table(self, set_name: str) -> Mapping[str, FunctionDef]:
        """The functions on `set_name` by name, in declaration order; empty
        for an unknown set. Shared by every caller, do not mutate."""
        return self._fns_by_set.get(set_name, {})

    def links_into(self, set_name: str) -> tuple[FunctionDef, ...]:
        """Link functions whose codomain is `set_name` (for delete RESTRICT)."""
        return self._links_into.get(set_name, ())

    def constraint(self, constraint_id: str) -> DiagramConstraint | None:
        for c in self.constraints:
            if c.id == constraint_id:
                return c
        return None

    def constraints_on(self, domain_set: str) -> tuple[DiagramConstraint, ...]:
        return self._constraints_on.get(domain_set, ())

    def with_constraints(self, constraints: tuple[DiagramConstraint, ...]) -> "Schema":
        """This schema with `constraints` in place of its own. They are
        judged as Schema(...) judges them; the sets and functions, judged
        when this schema was built, are not, and their lookup tables are
        shared."""
        schema = copy.copy(self)
        object.__setattr__(schema, "constraints", constraints)
        schema._refuse_constraints()
        schema._index_constraints()
        return schema


def _refuse_names(what: str, named: Iterable[tuple[str, str]]) -> None:
    """Raise ValueError at the first name judge_name refuses among `named`,
    (where, name) pairs whose names are judged against those alike `where`."""
    seen: dict[str, dict[str, str]] = {}
    for where, name in named:
        _refuse(judge_name(seen.setdefault(where, {}), what, name, where)[1])


def _refuse(issues: list[Issue]) -> None:
    """Raise ValueError with the messages of `issues`, if there are any."""
    if issues:
        raise ValueError("; ".join(issue.message for issue in issues))


def _tuples(table: dict) -> dict:
    return {key: tuple(values) for key, values in table.items()}


@dataclass(frozen=True)
class RawChain:
    """An unresolved chain as written: function names outermost-first, or
    the identity of the constraint's domain set."""

    names: tuple[str, ...] = ()
    identity: bool = False


@dataclass(frozen=True)
class RawConstraint:
    """An unresolved constraint as written: names only, plus the domain set."""

    id: str
    kind: ConstraintKind
    domain_set: str
    left: RawChain
    right: RawChain
    message: str | None = None


def resolve_chain(
    schema: Schema, domain_set: str, raw: RawChain, side: Side
) -> tuple[ChainSpec | None, list[Issue]]:
    """Resolve chain entry names by walking domains inward-out.

    The innermost name must be a function on `domain_set`; each preceding
    name must be a function on the codomain of the entry it wraps. Name
    lookup is per-set: when a name is missing on the expected set but
    exists elsewhere in the schema, that is a composition break rather
    than an unknown name. All entries except the outermost must be link
    functions. Every problem is reported; resolution continues past a
    broken entry only when a unique same-named function elsewhere lets the
    walk proceed meaningfully, otherwise it stops. `raw` is not the
    identity.
    """
    issues: list[Issue] = []
    resolved: list[FunctionDef | None] = [None] * len(raw.names)
    current = domain_set
    for idx in range(len(raw.names) - 1, -1, -1):
        position = idx + 1
        name = raw.names[idx]
        fn = schema.function(current, name)
        if fn is None:
            elsewhere = [f for f in schema.functions if f.name == name]
            if elsewhere:
                actual = ", ".join(sorted({f.domain for f in elsewhere}))
                issues.append(
                    Issue(
                        IssueCode.BROKEN_COMPOSITION,
                        f"{side.value} chain entry {name!r} must be defined on"
                        f" {current!r} but is defined on {actual}",
                        side,
                        position,
                    )
                )
                if len(elsewhere) == 1:
                    fn = elsewhere[0]
            else:
                issues.append(
                    Issue(
                        IssueCode.UNKNOWN_FUNCTION,
                        f"{side.value} chain entry {name!r} names no function in the schema",
                        side,
                        position,
                    )
                )
        if fn is None:
            return None, issues
        resolved[idx] = fn
        if idx > 0:
            if fn.is_attribute:
                issues.append(
                    Issue(
                        IssueCode.BROKEN_COMPOSITION,
                        f"{side.value} chain entry {name!r} is an attribute function"
                        " but is composed under further functions",
                        side,
                        position,
                    )
                )
                return None, issues
            current = fn.codomain
    if issues:
        return None, issues
    return ChainSpec(tuple(resolved)), []  # type: ignore[arg-type]


def validate_diagram(
    schema: Schema, raw: RawConstraint
) -> tuple[DiagramConstraint | None, list[Issue]]:
    """Judge a declared constraint against a validated schema.

    Returns the resolved constraint, or every issue found: an unknown
    domain set, identity on both sides, unknown names and composition
    breaks, codomain disagreement (an identity side ends where it starts),
    and then the refused classes, a local constraint (exactly one side is
    the identity) and an HBFP (both sides are single functions), and last
    chains of n and m functions with n + m > 66, whose generic-SQL
    triggers would each join n + m - 2 tables, past SQLite's 64; beside
    any of them, a message template message_template_problem refuses.
    Both chains are resolved from `raw.domain_set`, so any pair that
    resolves starts on the same set.
    """
    constraint, issues = _resolve_diagram(schema, raw)
    problem = None if raw.message is None else message_template_problem(raw.message)
    if problem is not None:
        return None, [*issues, Issue(IssueCode.BAD_MESSAGE_TEMPLATE, problem)]
    return constraint, issues


def _resolve_diagram(
    schema: Schema, raw: RawConstraint
) -> tuple[DiagramConstraint | None, list[Issue]]:
    if schema.set_def(raw.domain_set) is None:
        message = f"constraint {raw.id!r} is declared on unknown set {raw.domain_set!r}"
        return None, [Issue(IssueCode.UNKNOWN_SET, message)]
    if raw.left.identity and raw.right.identity:
        message = f"constraint {raw.id!r} declares identity on both sides"
        return None, [Issue(IssueCode.DEGENERATE_IDENTITY, message)]

    # None stands for the identity from here on
    chains: list[ChainSpec | None] = []
    issues: list[Issue] = []
    for side, raw_chain in ((Side.LEFT, raw.left), (Side.RIGHT, raw.right)):
        chain = None
        if not raw_chain.identity:
            chain, chain_issues = resolve_chain(schema, raw.domain_set, raw_chain, side)
            issues.extend(chain_issues)
        chains.append(chain)
    if issues:
        return None, issues

    left, right = chains
    lcod = raw.domain_set if left is None else left.codomain
    rcod = raw.domain_set if right is None else right.codomain
    if lcod != rcod:
        code, message = IssueCode.CODOMAIN_MISMATCH, (
            f"chains end in different codomains: {_render_codomain(lcod)}"
            f" vs {_render_codomain(rcod)}"
        )
    elif left is None or right is None:
        code, message = IssueCode.REFUSED_LOCAL, (
            f"constraint {raw.id!r} compares a chain against the identity of"
            f" {raw.domain_set!r} (local constraint); it is enforced by the"
            " self-map constraint family, not by diagram checking"
        )
    elif left.length == 1 and right.length == 1:
        code, message = IssueCode.REFUSED_HBFP, (
            f"constraint {raw.id!r} composes a single function on each side"
            " (homogeneous binary function product); it is enforced by the"
            " paired-function reflexivity family, not by diagram checking"
        )
    elif (joined := left.length + right.length - 2) > _SQLITE_MAX_JOIN:
        code, message = IssueCode.JOIN_LIMIT, (
            f"constraint {raw.id!r} composes {left.length} + {right.length} functions,"
            f" so its generic-SQL triggers would join {joined} tables;"
            f" SQLite joins at most {_SQLITE_MAX_JOIN}"
        )
    else:
        return DiagramConstraint(raw.id, raw.kind, left, right, raw.message), []
    return None, [Issue(code, message)]


def _render_codomain(codomain: str | ScalarType) -> str:
    if isinstance(codomain, ScalarType):
        return f"scalar {codomain.value}"
    return f"set {codomain!r}"
