"""Text emission: combo row-source queries and trigger-style check code.

Two dialects are supported for the check procedures. PAPER_STYLE emits
event-handler code in the VBA idiom: Form_BeforeUpdate for the domain
row, and <fn>_BeforeUpdate for each interior chain position. Every
handler is one ladder of nested `If` guards: the controls it reads are
set, each looked-up value is not Null, and the innermost test finds the
violation, cancels the update and shows the message. A link handler's
values come from two walks written as DLookup calls over nested IN
subqueries. The forward walk composes a chain outward to its outermost
function. The reverse walk selects the domain rows whose chain reaches a
given value. A commutative block compares the other chain's value at an
affected row with the new head; an anti-commutative block looks for an
affected row whose other chain already reaches the new head. A line
break in a message is spliced into its VBA literal as `" & vbLf & "`
(`" & vbCr & "` for a carriage return), because a VBA string literal
cannot span lines.

GENERIC_SQL emits portable trigger statements (SQLite-compatible)
performing the same comparison via two chain-walk subqueries over the
written state. A trigger whose subqueries read the table it is defined
on runs AFTER the write, because a BEFORE trigger would read the row
being written with its old values; every other trigger runs BEFORE,
where every row it reads is already in its post-state and a rejected
write is never made.

Each GENERIC_SQL link-check unit starts with one `CREATE INDEX IF NOT
EXISTS` per link column its triggers walk backwards, the SQL twin of the
store's reverse index. An index is named `[SET.function]`: identifiers
hold only alphanumerics and `_`, so the dot keeps names distinct, and
units that walk the same column share its index.

Row-source queries come in one flavor only: a three-column query over the
right-join ladder of the chain's tables for chains of two or more
functions, and a two-column query over the codomain set for single
functions. Output is deterministic: identical inputs give byte-identical
bodies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .model import (
    ChainSpec,
    ConstraintKind,
    DiagramConstraint,
    FunctionDef,
    ScalarType,
    Schema,
    Side,
)


class Dialect(Enum):
    PAPER_STYLE = "paper-style"
    GENERIC_SQL = "generic-sql"


@dataclass(frozen=True)
class EmittedUnit:
    """One generated text artifact aimed at a (set, function) target.

    `target_function` is None for row-level (whole-row) checks. Bodies
    are non-empty and deterministic for a given input.
    """

    constraint_id: str
    target_set: str
    target_function: str | None
    dialect: Dialect
    role: str
    body: str

    @property
    def filename(self) -> str:
        fn = self.target_function or "row"
        return f"{self.target_set}_{fn}_{self.constraint_id}.{self.dialect.value}.txt"


# ---------------------------------------------------------------------------
# Row sources
# ---------------------------------------------------------------------------


def gen_row_source(
    schema: Schema, constraint: DiagramConstraint, side: Side
) -> EmittedUnit:
    """Row-source query for the chain's innermost column on the domain set.

    Chains of length one select id and display name straight from the
    codomain set; longer chains join the chain's tables outward, show the
    concatenated display names, and expose the outermost value as a third
    column. A display-name column is table-qualified only when its bare
    name is ambiguous among the queried tables.
    """
    chain = constraint.chain(side)
    if chain.length == 1:
        codomain = chain.codomain
        if isinstance(codomain, ScalarType):
            raise ValueError(
                f"chain {chain.render()!r} ends in a scalar attribute;"
                " only link columns have row sources"
            )
        set_def = schema.set_def(codomain)
        assert set_def is not None
        name = set_def.name_attribute
        body = (
            f"SELECT [{codomain}].[x], [{codomain}].[{name}] FROM {codomain}\n"
            f"ORDER BY [{name}];"
        )
    else:
        body = _ladder_query(schema, chain)
    return EmittedUnit(
        constraint.id,
        chain.domain_set,
        chain.innermost.name,
        Dialect.PAPER_STYLE,
        "row-source",
        body,
    )


def _ladder_query(schema: Schema, chain: ChainSpec) -> str:
    tables = [fn.domain for fn in chain.functions[:-1]]
    k = len(tables)
    column_names = Counter(
        fn.name for table in tables for fn in schema.functions_of(table)
    )
    pieces: list[str] = []
    for table in tables:
        set_def = schema.set_def(table)
        assert set_def is not None
        name = set_def.name_attribute
        if column_names[name] > 1:
            pieces.append(f"[{table}].[{name}]")
        else:
            pieces.append(f"[{name}]")
    display = ' & ", " & '.join(pieces)
    alias = ", ".join(fn.name for fn in chain.functions[1:])

    ladder = tables[k - 1]
    for j in range(k - 1, 0, -1):
        inner = f"({ladder})" if j + 1 < k else ladder
        joining_fn = chain.functions[j].name
        if j + 1 == k:
            cond = f"{tables[j]}.{joining_fn} = {tables[j - 1]}.x"
        else:
            cond = f"{tables[j - 1]}.x = {tables[j]}.{joining_fn}"
        ladder = f"{tables[j - 1]} RIGHT JOIN {inner} ON {cond}"

    outer = chain.functions[0]
    lines = [
        f"SELECT {tables[-1]}.x, {display} AS [{alias}], {tables[0]}.{outer.name}",
        f"FROM {ladder}",
        f"ORDER BY {display};",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Domain-row checks
# ---------------------------------------------------------------------------


def gen_domain_check(
    schema: Schema, constraint: DiagramConstraint, dialect: Dialect
) -> EmittedUnit:
    """Whole-row check procedure for the constraint's domain set."""
    if dialect is Dialect.PAPER_STYLE:
        body = _paper_domain_check(constraint)
    else:
        body = _sql_domain_check(constraint)
    return EmittedUnit(
        constraint.id, constraint.domain_set, None, dialect, "domain-check", body
    )


def _comparison_op(kind: ConstraintKind) -> str:
    # the emitted comparison detects the *violation*
    return "<>" if kind is ConstraintKind.COMMUTATIVE else "="


def _emitted_message(constraint: DiagramConstraint) -> str:
    return constraint.message or constraint.default_message()


def _paper_domain_check(constraint: DiagramConstraint) -> str:
    fn = constraint.left.innermost.name
    gm = constraint.right.innermost.name
    left_expr = f"{fn}.Column(2)" if constraint.left.length > 1 else fn
    right_expr = f"{gm}.Column(2)" if constraint.right.length > 1 else gm
    value_guards = [
        f"Not IsNull({expr})"
        for expr, chain in ((left_expr, constraint.left), (right_expr, constraint.right))
        if chain.length > 1
    ]
    steps = [(None, f"Not Cancel And Not IsNull({fn}) And Not IsNull({gm})")]
    if value_guards:
        steps.append((None, " And ".join(value_guards)))
    steps.append((None, f"{left_expr} {_comparison_op(constraint.kind)} {right_expr}"))
    message = _vba_string(_emitted_message(constraint))
    return "\n".join(
        [
            "Sub Form_BeforeUpdate(Cancel As Integer)",
            f"' enforces {constraint.id}: {constraint.render()}",
            *_vba_ifs(steps, ["Cancel = True", f"MsgBox {message}"]),
            "End Sub",
        ]
    )


def _vba_ifs(steps: list[tuple[str | None, str]], body: list[str]) -> list[str]:
    """Nested `If` blocks, one per step, each one level deeper: a step's
    statement (if any) runs just before its `If condition Then`; `body`
    runs innermost, and each block closes at its own indentation."""
    lines: list[str] = []
    for depth, (statement, condition) in enumerate(steps):
        pad = "    " * depth
        if statement is not None:
            lines.append(pad + statement)
        lines.append(f"{pad}If {condition} Then")
    lines.extend("    " * len(steps) + line for line in body)
    lines.extend("    " * depth + "End If" for depth in reversed(range(len(steps))))
    return lines


def _b(identifier: str) -> str:
    # emitted SQL quotes identifiers; schema names may collide with keywords
    return f"[{identifier}]"


def _sql_domain_check(constraint: DiagramConstraint) -> str:
    domain = constraint.domain_set
    fn = constraint.left.innermost.name
    gm = constraint.right.innermost.name
    left_expr = _sql_forward_walk(constraint.left, f"NEW.{_b(fn)}")
    right_expr = _sql_forward_walk(constraint.right, f"NEW.{_b(gm)}")
    message = _sql_string(_emitted_message(constraint))
    timing = _timing(
        domain, constraint.left.functions[:-1], constraint.right.functions[:-1]
    )
    columns = _b(fn) if fn == gm else f"{_b(fn)}, {_b(gm)}"
    change_guard = f"NEW.{_b(fn)} IS NOT OLD.{_b(fn)}"
    if gm != fn:
        change_guard += f" OR NEW.{_b(gm)} IS NOT OLD.{_b(gm)}"
    create = f"CREATE TRIGGER {constraint.id}_{domain}_row"
    action = "\n".join(
        [
            "BEGIN",
            f"    SELECT RAISE(ABORT, {message})",
            f"    WHERE ({left_expr}) {_comparison_op(constraint.kind)} ({right_expr});",
            "END;",
        ]
    )
    return "\n".join(
        [
            f"{create}_ins {timing} INSERT ON {_b(domain)}",
            "FOR EACH ROW",
            action,
            "",
            f"{create}_upd {timing} UPDATE OF {columns} ON {_b(domain)}",
            "FOR EACH ROW",
            f"WHEN {change_guard}",
            action,
        ]
    )


def _timing(table: str, *walks: tuple[FunctionDef, ...]) -> str:
    """AFTER when a trigger on `table` reads it through the link columns
    of `walks`, BEFORE otherwise."""
    if any(fn.domain == table for walk in walks for fn in walk):
        return "AFTER"
    return "BEFORE"


def _sql_forward_walk(chain: ChainSpec, start: str, position: int | None = None) -> str:
    """Scalar subquery expression composing the chain outward from `start`,
    the value at `position` (default: the innermost function)."""
    if position is None:
        position = chain.length
    expr = start
    for fn in reversed(chain.functions[: position - 1]):
        expr = f"(SELECT {_b(fn.name)} FROM {_b(fn.domain)} WHERE [x] = {expr})"
    return expr


# ---------------------------------------------------------------------------
# Link-update checks
# ---------------------------------------------------------------------------


def gen_link_checks(
    schema: Schema, constraint: DiagramConstraint, dialect: Dialect
) -> list[EmittedUnit]:
    """One unit per interior (set, function) target of the constraint.

    Both sides contribute one block per chain position below the
    innermost; blocks landing on the same target (a function used by both
    chains) are concatenated into a single body, left side first. A
    GENERIC_SQL body starts with one `CREATE INDEX IF NOT EXISTS
    [SET.function]` per column its triggers' reverse walks read, so every
    unit installs on its own, in any order and next to units that share
    an index.
    """
    targets: dict[tuple[str, str], list[tuple[Side, int]]] = {}
    for side in (Side.LEFT, Side.RIGHT):
        chain = constraint.chain(side)
        for position in range(1, chain.length):
            fn = chain.functions[position - 1]
            targets.setdefault((fn.domain, fn.name), []).append((side, position))
    units: list[EmittedUnit] = []
    for (set_name, fn_name), places in targets.items():
        if dialect is Dialect.PAPER_STYLE:
            body = "\n".join(
                [
                    f"Sub {fn_name}_BeforeUpdate(Cancel As Integer)",
                    "Dim v As Variant, w As Variant",
                    *(_paper_link_block(schema, constraint, *place) for place in places),
                    "End Sub",
                ]
            )
        else:
            walked = dict.fromkeys(
                fn
                for side, position in places
                for fn in _reverse_walk(constraint.chain(side), position)
            )
            body = "\n\n".join(
                [
                    "\n".join(map(_sql_index, walked)),
                    *(_sql_link_trigger(constraint, *place) for place in places),
                ]
            )
        units.append(
            EmittedUnit(
                constraint.id, set_name, fn_name, dialect, "link-check", body
            )
        )
    return units


def _reverse_walk(chain: ChainSpec, position: int) -> tuple[FunctionDef, ...]:
    """Link columns an affected-row predicate reads walking back from
    `position` to the domain set, outermost first."""
    return chain.functions[position:]


def _sql_index(fn: FunctionDef) -> str:
    name = _b(f"{fn.domain}.{fn.name}")
    return f"CREATE INDEX IF NOT EXISTS {name} ON {_b(fn.domain)} ({_b(fn.name)});"


def _paper_reverse_where(chain: ChainSpec, position: int, value: str) -> str:
    """Predicate on the domain set selecting the rows whose chain, walked
    back from `position`, reaches the VBA variable `value`."""
    walk = _reverse_walk(chain, position)
    predicate = f'{walk[0].name} =" & {value} & "'
    for previous, fn in zip(walk, walk[1:]):
        predicate = f"{fn.name} IN (SELECT x FROM {previous.domain} WHERE {predicate})"
    return predicate


def _paper_forward_lookup(chain: ChainSpec, position: int, condition: str) -> str:
    """DLookup of the chain's outermost value over the rows of the domain of
    function `position` that match `condition`, composing functions
    `position` .. 2 outward through nested IN subqueries."""
    for fn in reversed(chain.functions[1:position]):
        condition = f"x IN (SELECT {fn.name} FROM {fn.domain} WHERE {condition})"
    outer = chain.functions[0]
    return _dlookup(outer.name, outer.domain, condition)


def _dlookup(column: str, table: str, where: str) -> str:
    # a splice that ends `where` leaves an empty literal behind; drop it
    return f'DLookup("{column}", "{table}", "{where}")'.replace(' & "")', ")")


def _paper_link_block(
    schema: Schema, constraint: DiagramConstraint, side: Side, position: int
) -> str:
    chain = constraint.chain(side)
    other = constraint.chain(side.other)
    fn_i = chain.functions[position - 1].name
    guard = (
        f"Not Cancel And Not NewRecord And {fn_i} <> {fn_i}.OldValue"
        f" And Not IsNull({fn_i})"
    )
    head = fn_i
    if position > 1:
        head = _paper_forward_lookup(chain, position - 1, f'x =" & {fn_i} & "')
    affected = _paper_reverse_where(chain, position, "x")
    message = _vba_string(_emitted_message(constraint))
    comment = (
        f"' {constraint.id}: {side.value} position {position} of {constraint.render()}"
    )
    if constraint.kind is ConstraintKind.COMMUTATIVE:
        lookup = _paper_forward_lookup(other, other.length, affected)
        steps = [
            (f"v = {lookup}", "Not IsNull(v)"),
            (f"w = {head}", "Not IsNull(w)"),
            (None, "v <> w"),
        ]
    else:
        domain = schema.set_def(chain.domain_set)
        assert domain is not None
        fold = _paper_reverse_where(other, 0, "w")
        lookup = _dlookup(domain.name_attribute, domain.name, f"{affected} AND {fold}")
        steps = [(f"w = {head}", "Not IsNull(w)"), (f"v = {lookup}", "Not IsNull(v)")]
    body = ["Cancel = True", f"MsgBox {message}", "Undo"]
    return "\n".join([comment, *_vba_ifs([(None, guard), *steps], body)])


def _sql_affected_pred(chain: ChainSpec, position: int) -> str:
    """Reverse-reachability predicate on alias d, anchored at NEW.x."""
    *outer, innermost = _reverse_walk(chain, position)
    predicate = "= NEW.[x]"
    for fn in outer:
        predicate = f"IN (SELECT [x] FROM {_b(fn.domain)} WHERE {_b(fn.name)} {predicate})"
    return f"d.{_b(innermost.name)} {predicate}"


def _sql_link_trigger(
    constraint: DiagramConstraint, side: Side, position: int
) -> str:
    chain = constraint.chain(side)
    other = constraint.chain(side.other)
    fn = chain.functions[position - 1]
    cid = constraint.id
    name = f"{cid}_{fn.domain}_{fn.name}_{side.value}{position}"
    message = _sql_string(_emitted_message(constraint))
    cmp = _comparison_op(constraint.kind)
    other_value = _sql_forward_walk(other, f"d.{_b(other.innermost.name)}")
    head = _sql_forward_walk(chain, f"NEW.{_b(fn.name)}", position)
    # the head walk, the affected-row walk from the domain set, and the
    # other chain's walk
    timing = _timing(
        fn.domain,
        chain.functions[: position - 1],
        _reverse_walk(chain, position),
        other.functions[:-1],
    )
    lines = [
        f"CREATE TRIGGER {name} {timing} UPDATE OF {_b(fn.name)} ON {_b(fn.domain)}",
        "FOR EACH ROW",
        f"WHEN NEW.{_b(fn.name)} IS NOT NULL AND NEW.{_b(fn.name)} IS NOT OLD.{_b(fn.name)}",
        "BEGIN",
        f"    SELECT RAISE(ABORT, {message})",
        "    WHERE EXISTS (",
        f"        SELECT 1 FROM {_b(chain.domain_set)} d",
        f"        WHERE {_sql_affected_pred(chain, position)}",
        f"          AND ({other_value}) {cmp} ({head})",
        "    );",
        "END;",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Batch emission
# ---------------------------------------------------------------------------

def emit_units(
    schema: Schema,
    constraints: tuple[DiagramConstraint, ...],
    what: str,
    dialect: Dialect,
) -> list[EmittedUnit]:
    """All requested units in deterministic order: constraint order, then
    row sources (left, right), domain check, link checks (left first)."""
    units: list[EmittedUnit] = []
    for constraint in constraints:
        if what in ("row-sources", "all"):
            for side in (Side.LEFT, Side.RIGHT):
                chain = constraint.chain(side)
                if chain.length == 1 and isinstance(chain.codomain, ScalarType):
                    continue
                units.append(gen_row_source(schema, constraint, side))
        if what in ("domain-check", "all"):
            units.append(gen_domain_check(schema, constraint, dialect))
        if what in ("link-checks", "all"):
            units.extend(gen_link_checks(schema, constraint, dialect))
    return units


def _vba_string(text: str) -> str:
    text = text.replace('"', '""').replace("\r", '" & vbCr & "')
    return '"' + text.replace("\n", '" & vbLf & "') + '"'


def _sql_string(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"
