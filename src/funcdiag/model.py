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

Admission is judged here alone, by judge_schema: each name against those
before it (judge_name), each set's name attribute, each link's target, and
each constraint (validate_diagram). validate_diagram refuses, among
others, a chain compared against the identity of its domain (a local
constraint) and a pair of single functions (a homogeneous binary function
product, HBFP), so neither ever takes the DiagramConstraint shape.
parse_schema reports each issue judge_schema finds at its token, and
Schema(...) raises ValueError with all of them, so the two refuse alike.

A constraint owns its violation message: `template` is the one text
that the engine formats and that both emitted dialects embed, and
format_message is the only code that fills its MESSAGE_FIELDS.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from enum import Enum
from itertools import groupby
from operator import itemgetter
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
    default naming both chains, `occurrences`, one per chain position,
    left side first and each side in position order, and `domain_set`,
    which every domain-row check reads.
    """

    id: str
    kind: ConstraintKind
    left: ChainSpec
    right: ChainSpec
    message: str | None = None
    template: str = field(init=False, compare=False, repr=False)
    occurrences: tuple[Occurrence, ...] = field(init=False, compare=False, repr=False)
    domain_set: str = field(init=False, compare=False, repr=False)

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
        object.__setattr__(self, "domain_set", self.left.domain_set)

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

# The paper-style handlers write each control bare (`End <> End.OldValue`),
# so VBA must read a function's name as an identifier. These are the
# statement, operator and literal keywords it reserves, folded to lower
# case, as VBA ignores case. Source: the "Keywords (VBA)" and "Statements"
# reference pages at learn.microsoft.com (office/vba/language/reference).
# Statements VBA runs as plain procedures (Beep, Kill, Name, ...) are not
# keywords: a control may be named like one.
VBA_KEYWORDS = frozenset(
    """
    addressof and any as byref byval call case close const declare defbool
    defbyte defcur defdate defdbl defdec defint deflng deflnglng deflngptr
    defobj defsng defstr defvar dim do each else elseif empty end endif enum
    eqv erase event exit false for friend function get global gosub goto if
    imp implements in input is let like lock loop lset me mod new next not
    nothing null on open option optional or paramarray preserve print private
    public put raiseevent redim rem resume return rset seek select set shared
    static step stop sub then to true type typeof unlock until wend while with
    withevents write xor
    """.split()
)


def judge_name(
    seen: dict[str, str], what: str, name: str, where: str = ""
) -> tuple[str | None, list[Issue]]:
    """Judge naming a "set", "function" or "constraint" `name` after the
    names in `seen`, which maps each ASCII-folded name to its first spelling.

    Returns the name in `seen` that `name` equals but for ASCII case
    (`name` itself if it repeats exactly), or None after adding `name` to
    `seen`, and the issues: that twin, reported alone if it is `name`, a
    function named `x` or `X`, the key column of every emitted table, a
    function named like one of VBA_KEYWORDS, in any case, and a set or a
    constraint named `sqlite_...`, in any ASCII case: SQLite refuses such
    a table, and every index name starts with its set's name and every
    trigger name with its constraint's id.
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
    elif what == "function" and folded in VBA_KEYWORDS:
        message = f"function name {name!r} is reserved: VBA reads it as a keyword,"
        issues.append(Issue(IssueCode.RESERVED_NAME, message + " not as a control"))
    elif what != "function" and folded.startswith("sqlite_"):
        label = "id" if what == "constraint" else "name"
        message = f"{what} {label} {name!r} is reserved: SQLite keeps names"
        issues.append(Issue(IssueCode.RESERVED_NAME, message + " that start with sqlite_"))
    return earlier, issues


@dataclass(frozen=True)
class Schema:
    """An immutable, validated schema plus its admitted constraints.

    Construction passes its sets, functions and constraints, by their
    names, to judge_schema, and raises ValueError with every issue it
    finds, in Where order: what parse_schema refuses in the same
    declarations, with the issues validate_diagram finds in a constraint
    after `constraint 'id': `. Two refusals are
    the API's alone, since schema text cannot express them: a function on
    an unknown set, and a constraint that its names resolve, in this
    schema, to another constraint (one holding a function unlike the
    schema's own). An admitted schema keeps its sets and functions as
    given and takes judge_schema's constraints, equal to its own, with the
    lookup tables, including the per-(set, function) chain occurrences,
    built once for them there. judge_schema holds the functions set by
    set, so when the given ones interleave sets their tables are built
    again in the given order, which links_into follows.
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
        on_set: dict[str, list[FunctionDef]] = {s.name: [] for s in self.sets}
        stray: list[FunctionDef] = []
        for fn in self.functions:
            on_set.get(fn.domain, stray).append(fn)
        if stray:
            raise ValueError("; ".join(
                f"function {fn.name!r} is on unknown set {fn.domain!r}" for fn in stray
            ))
        declared = [
            (s.name, [(fn, fn.name == s.name_attribute) for fn in on_set[s.name]])
            for s in self.sets
        ]
        raws = []
        for c in self.constraints:
            left, right = (RawChain(chain.inward[::-1]) for chain in (c.left, c.right))
            raws.append(RawConstraint(c.id, c.kind, c.domain_set, left, right, c.message))
        judged, issues = judge_schema(self.name, declared, raws)
        if issues:
            raise ValueError(_refusal(issues, self.constraints))
        for own, resolved in zip(self.constraints, judged.constraints):
            if own != resolved:
                raise ValueError(f"constraint {own.id!r}: holds a function unlike the schema's own")
        vars(self).update(vars(judged), sets=self.sets, functions=self.functions)
        if judged.functions != self.functions:
            # the functions interleave sets: list each set's links in their order
            self._index_functions()

    def _index_functions(self) -> None:
        by_name = {s.name: s for s in self.sets}
        by_set: dict[str, dict[str, FunctionDef]] = {s.name: {} for s in self.sets}
        links_into: dict[str, list[FunctionDef]] = {s.name: [] for s in self.sets}
        for fn in self.functions:
            by_set[fn.domain][fn.name] = fn
            if fn.is_link:
                links_into[fn.codomain].append(fn)
        object.__setattr__(self, "_sets_by_name", by_name)
        object.__setattr__(self, "_fns_by_set", by_set)
        object.__setattr__(self, "_links_into", _tuples(links_into))

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


Where = tuple[int, ...]
"""Where an issue of judge_schema belongs: (0, i) set i, (0, i, j) function
j of set i, (0, i, j, 1) that link's target, (1, k) constraint k's id and
(1, k, 1) the rest of constraint k. Sorting by it follows the declarations."""


def judge_schema(
    name: str,
    declared: Iterable[tuple[str, Iterable[tuple[FunctionDef, bool]]]],
    raw_constraints: Iterable[RawConstraint],
) -> tuple[Schema, list[tuple[Where, Issue]]]:
    """Admit a schema: every rule of admission, for parse_schema and for
    Schema(...) alike.

    `declared` holds each set's name beside its functions, each with
    whether it is declared the set's name. A set is admitted unless
    judge_name refuses its name among the sets before it; a refused set's
    functions are not judged. A function of an admitted set is admitted
    unless judge_name refuses its name among the set's functions before
    it; an exact repeat is judged no further. Each admitted set designates
    exactly one function its name, and no link. Every link, a refused
    set's too, must target an admitted set, or it is not admitted. Each
    constraint's id is judged by judge_name, and each constraint but an
    exact repeat by validate_diagram against what was admitted.

    Returns the admitted schema, whole only when there is no issue, and
    every issue beside its Where, in Where order; the issues of one set,
    function or target, which share a token, in the order of their codes,
    as parse_schema orders them.
    """
    issues: list[tuple[Where, Issue]] = []
    set_names: dict[str, str] = {}
    sets: list[SetDef] = []
    functions: list[FunctionDef] = []
    links: list[tuple[Where, FunctionDef]] = []
    for i, (set_name, members) in enumerate(declared):
        refused = judge_name(set_names, "set", set_name)[1]
        issues += [((0, i), issue) for issue in refused]
        seen: dict[str, str] = {}
        on_set = f" on set {set_name!r}"
        name_attr: str | None = None
        for j, (fn, is_name) in enumerate(members):
            if fn.is_link:
                links.append(((0, i, j, 1), fn))
            if refused:
                continue
            earlier, found = judge_name(seen, "function", fn.name, on_set)
            if not found:
                functions.append(fn)
            if is_name and earlier != fn.name:
                if fn.is_link:
                    message = f"name designation on {fn.name!r} requires an attribute, not a link"
                    found.append(Issue(IssueCode.BAD_NAME_ATTRIBUTE, message))
                elif name_attr is not None:
                    message = f"set {set_name!r} already designates {name_attr!r} as its name"
                    found.append(Issue(IssueCode.DUPLICATE_NAME_ATTRIBUTE, message))
                else:
                    name_attr = fn.name
            if found:
                issues += [((0, i, j), issue) for issue in found]
        if not refused:
            if name_attr is None:
                message = f"set {set_name!r} designates no name attribute"
                issues.append(((0, i), Issue(IssueCode.MISSING_NAME_ATTRIBUTE, message)))
            sets.append(SetDef(set_name, name_attr or ""))

    admitted = {s.name for s in sets}
    stray = [(where, fn) for where, fn in links if fn.codomain not in admitted]
    for where, fn in stray:
        message = f"link {fn.name!r} targets unknown set {fn.codomain!r}"
        issues.append((where, Issue(IssueCode.UNKNOWN_SET, message)))
    if stray:
        functions = [fn for fn in functions if not fn.is_link or fn.codomain in admitted]
    schema = object.__new__(Schema)
    vars(schema).update(name=name, sets=tuple(sets), functions=tuple(functions))
    schema._index_functions()

    ids: dict[str, str] = {}
    constraints: list[DiagramConstraint] = []
    for k, raw in enumerate(raw_constraints):
        earlier, found = judge_name(ids, "constraint", raw.id)
        issues += [((1, k), issue) for issue in found]
        if earlier != raw.id:
            resolved, found = validate_diagram(schema, raw)
            issues += [((1, k, 1), issue) for issue in found]
            if resolved is not None:
                constraints.append(resolved)
    vars(schema)["constraints"] = tuple(constraints)
    schema._index_constraints()
    # a set's, function's or target's issues share a token, and parse_schema
    # orders those by code; the issues of a constraint's rest keep their order
    issues.sort(key=lambda item: (item[0], item[1].code.value if item[0][0] == 0 else ""))
    return schema, issues


def _refusal(issues: list[tuple[Where, Issue]], constraints: tuple[DiagramConstraint, ...]) -> str:
    """Schema(...)'s ValueError text for `issues`: their messages in order,
    those of the rest of a constraint after its id."""
    parts = []
    for where, group in groupby(issues, itemgetter(0)):
        text = "; ".join(issue.message for _, issue in group)
        if where[0] == 1 and len(where) == 3:
            text = f"constraint {constraints[where[1]].id!r}: {text}"
        parts.append(text)
    return "; ".join(parts)


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
