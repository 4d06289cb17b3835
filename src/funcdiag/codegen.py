"""Text emission: combo row-source queries and trigger-style check code.

Two dialects are supported for the check procedures. PAPER_STYLE emits
event-handler pseudocode in the VBA idiom (Form_BeforeUpdate for the
domain row, <fn>_BeforeUpdate for each interior chain position), with the
lookups written as DLookup calls over nested IN subqueries. GENERIC_SQL
emits portable trigger statements (SQLite-compatible) performing the same
comparison via two chain-walk subqueries over the written state. A
trigger whose subqueries read the table it is defined on runs AFTER the
write, because a BEFORE trigger would read the row being written with its
old values; every other trigger runs BEFORE, where every row it reads is
already in its post-state and a rejected write is never made.

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
    guards = [f"Not IsNull({fn})", f"Not IsNull({gm})"]
    value_guards = []
    if constraint.left.length > 1:
        value_guards.append(f"Not IsNull({left_expr})")
    if constraint.right.length > 1:
        value_guards.append(f"Not IsNull({right_expr})")
    message = _vba_string(_emitted_message(constraint))
    lines = [
        "Sub Form_BeforeUpdate(Cancel As Integer)",
        f"' enforces {constraint.id}: {constraint.render()}",
        f"If Not Cancel And {' And '.join(guards)} Then",
    ]
    indent = "    "
    close = 1
    if value_guards:
        lines.append(f"{indent}If {' And '.join(value_guards)} Then")
        indent += "    "
        close += 1
    lines.extend(
        [
            f"{indent}If {left_expr} {_comparison_op(constraint.kind)} {right_expr} Then",
            f"{indent}    Cancel = True",
            f"{indent}    MsgBox {message}",
            f"{indent}End If",
        ]
    )
    for level in range(close, 0, -1):
        lines.append("    " * (level - 1) + "End If")
    lines.append("End Sub")
    return "\n".join(lines)


def _b(identifier: str) -> str:
    # emitted SQL quotes identifiers; schema names may collide with keywords
    return f"[{identifier}]"


def _sql_domain_check(constraint: DiagramConstraint) -> str:
    domain = constraint.domain_set
    cid = constraint.id
    fn = constraint.left.innermost.name
    gm = constraint.right.innermost.name
    left_expr = _sql_forward_walk(constraint.left, f"NEW.{_b(fn)}")
    right_expr = _sql_forward_walk(constraint.right, f"NEW.{_b(gm)}")
    cmp = _comparison_op(constraint.kind)
    message = _sql_string(_emitted_message(constraint))
    timing = _timing(
        domain, constraint.left.functions[:-1], constraint.right.functions[:-1]
    )
    columns = _b(fn) if fn == gm else f"{_b(fn)}, {_b(gm)}"
    change_guard = f"NEW.{_b(fn)} IS NOT OLD.{_b(fn)}"
    if gm != fn:
        change_guard += f" OR NEW.{_b(gm)} IS NOT OLD.{_b(gm)}"
    insert_trigger = "\n".join(
        [
            f"CREATE TRIGGER {cid}_{domain}_row_ins {timing} INSERT ON {_b(domain)}",
            "FOR EACH ROW",
            "BEGIN",
            f"    SELECT RAISE(ABORT, {message})",
            f"    WHERE ({left_expr}) {cmp} ({right_expr});",
            "END;",
        ]
    )
    update_trigger = "\n".join(
        [
            f"CREATE TRIGGER {cid}_{domain}_row_upd {timing} UPDATE OF {columns} ON {_b(domain)}",
            "FOR EACH ROW",
            f"WHEN {change_guard}",
            "BEGIN",
            f"    SELECT RAISE(ABORT, {message})",
            f"    WHERE ({left_expr}) {cmp} ({right_expr});",
            "END;",
        ]
    )
    return insert_trigger + "\n\n" + update_trigger


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
    grouped: dict[tuple[str, str], list[str]] = {}
    walked: dict[tuple[str, str], dict[FunctionDef, None]] = {}
    for side in (Side.LEFT, Side.RIGHT):
        chain = constraint.chain(side)
        for position in range(1, chain.length):
            fn = chain.functions[position - 1]
            key = (fn.domain, fn.name)
            if dialect is Dialect.PAPER_STYLE:
                block = _paper_link_block(schema, constraint, side, position)
            else:
                block = _sql_link_trigger(constraint, side, position)
                walked.setdefault(key, {}).update(
                    dict.fromkeys(_reverse_walk(chain, position))
                )
            grouped.setdefault(key, []).append(block)
    units: list[EmittedUnit] = []
    for key, blocks in grouped.items():
        set_name, fn_name = key
        if dialect is Dialect.PAPER_STYLE:
            body = "\n".join(
                [
                    f"Sub {fn_name}_BeforeUpdate(Cancel As Integer)",
                    "Dim v As Variant, w As Variant",
                    "\n".join(blocks),
                    "End Sub",
                ]
            )
        else:
            indexes = "\n".join(_sql_index(fn) for fn in walked[key])
            body = "\n\n".join([indexes, *blocks])
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


def _paper_affected_where(chain: ChainSpec, position: int) -> str:
    """Nested reverse-reachability predicate on the domain set, with the
    current row id spliced in as `" & x & "`."""
    walk = _reverse_walk(chain, position)
    predicate = f'{walk[0].name} =" & x & "'
    for previous, fn in zip(walk, walk[1:]):
        predicate = f"{fn.name} IN (SELECT x FROM {previous.domain} WHERE {predicate})"
    return predicate


def _paper_head_expr(chain: ChainSpec, position: int) -> str:
    """New composed head from the control's new value (prefix walk).

    The select nearest the spliced value applies the function just above
    the updated position; each wrap walks one step further out, and the
    outermost function becomes the DLookup column.
    """
    fn_i = chain.functions[position - 1].name
    if position == 1:
        return fn_i
    outer = chain.functions[0]
    condition = f'x =" & {fn_i} & "'
    for j in range(position - 1, 1, -1):
        fn = chain.functions[j - 1]
        condition = f"x IN (SELECT {fn.name} FROM {fn.domain} WHERE {condition})"
    return f'DLookup("{outer.name}", "{outer.domain}", "{condition}")'


def _paper_other_value_lookup(chain: ChainSpec, affected_where: str) -> str:
    """First-match composed value of the opposite chain at an affected row."""
    domain = chain.domain_set
    if chain.length == 1:
        return f'DLookup("{chain.functions[0].name}", "{domain}", "{affected_where}")'
    select = f"SELECT {chain.innermost.name} FROM {domain} WHERE {affected_where}"
    for j in range(chain.length - 1, 1, -1):
        fn = chain.functions[j - 1]
        select = f"SELECT {fn.name} FROM {fn.domain} WHERE x IN ({select})"
    outer = chain.functions[0]
    return f'DLookup("{outer.name}", "{outer.domain}", "x IN ({select})")'


def _paper_other_fold_where(chain: ChainSpec) -> str:
    """Membership predicate on the domain set selecting rows whose opposite
    chain value equals the already computed head `w`."""
    g1 = chain.functions[0]
    if chain.length == 1:
        return f'{g1.name} =" & w & "'
    select = f'SELECT x FROM {g1.domain} WHERE {g1.name} =" & w & "'
    for j in range(2, chain.length):
        fn = chain.functions[j - 1]
        select = f"SELECT x FROM {fn.domain} WHERE {fn.name} IN ({select})"
    return f"{chain.innermost.name} IN ({select})"


def _paper_link_block(
    schema: Schema, constraint: DiagramConstraint, side: Side, position: int
) -> str:
    chain = constraint.chain(side)
    other = constraint.chain(side.other)
    fn_i = chain.functions[position - 1].name
    guard = (
        f"If Not Cancel And Not NewRecord And {fn_i} <> {fn_i}.OldValue"
        f" And Not IsNull({fn_i}) Then"
    )
    affected = _paper_affected_where(chain, position)
    head = _trim_empty_concat(_paper_head_expr(chain, position))
    message = _vba_string(_emitted_message(constraint))
    comment = (
        f"' {constraint.id}: {side.value} position {position} of {constraint.render()}"
    )
    if constraint.kind is ConstraintKind.COMMUTATIVE:
        lookup = _trim_empty_concat(_paper_other_value_lookup(other, affected))
        lines = [
            comment,
            guard,
            f"    v = {lookup}",
            "    If Not IsNull(v) Then",
            f"        w = {head}",
            "        If Not IsNull(w) Then",
            "            If v <> w Then",
            "                Cancel = True",
            f"                MsgBox {message}",
            "                Undo",
            "            End If",
            "        End If",
            "    End If",
            "End If",
        ]
    else:
        domain_name_attr = schema.set_def(chain.domain_set).name_attribute  # type: ignore[union-attr]
        fold = _paper_other_fold_where(other)
        lookup = _trim_empty_concat(
            f'DLookup("{domain_name_attr}", "{chain.domain_set}",'
            f' "{affected} AND {fold}")'
        )
        lines = [
            comment,
            guard,
            f"    w = {head}",
            "    If Not IsNull(w) Then",
            f"        v = {lookup}",
            "        If Not IsNull(v) Then",
            "            Cancel = True",
            f"            MsgBox {message}",
            "            Undo",
            "        End If",
            "    End If",
            "End If",
        ]
    return "\n".join(lines)


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


def _trim_empty_concat(text: str) -> str:
    """Drop the empty tail literal left when a splice ends a lookup string."""
    return text.replace(' & "")', ")")


def _vba_string(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


def _sql_string(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"
