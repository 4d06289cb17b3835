"""Text emission: combo row-source queries, SQL tables and check code.

Two dialects are supported for the check procedures, and both take a
link check's walks from its chain position's plan (model.Occurrence:
head, reverse and other), deriving none here. PAPER_STYLE emits
event-handler code in the VBA idiom: Form_BeforeUpdate for the domain
row, and <fn>_BeforeUpdate for each interior chain position. Every
handler is one ladder of nested `If` guards: the controls it reads are
set, each looked-up value is not Null, and the innermost test finds the
violation, cancels the update and shows the message. A link handler runs
only when its control changed: `f <> f.OldValue` is Null when the old
value is, so a nullable control's guard also takes `IsNull(f.OldValue)`,
and a Null -> value edit is checked as the engine checks it. Its
values come from two walks written as DLookup calls over nested IN
subqueries. The forward walk composes a chain outward to its outermost
function. The reverse walk selects the domain rows whose chain reaches a
given value. Both constraint kinds share one block: `w` is the new head,
and `v` the id of a witness, an affected domain row whose other chain
compares with `w` by the violation operator (`<>` commutative, `=`
anti-commutative, as in the domain checks and the triggers); the block
cancels when `v` is not Null. So a handler, like the engine, looks at
every affected row, not at one sample. Every identifier written into
SQL text (DLookup's column, table and criteria, their subqueries, and
the row sources) is bracketed, since a schema name may be an Access SQL
keyword such as Group; VBA control names are not. A line break in a
message is spliced into its VBA literal as `" & vbLf & "` (`" & vbCr &
"` for a carriage return), because a VBA string literal cannot span
lines.

Stale-row precondition: a handler runs at BeforeUpdate, before the edit
is written, so it reads the row being edited as it was, while the engine
checks the written state. The two agree unless the handler's walks read
a column of the edited row's set that the edit changes (a pair naming
one country on both sides, or an update of several columns of a row its
own walk reaches); tests/test_paper_dlookup.py runs the handlers'
DLookups against the engine and allows a difference only there.

GENERIC_SQL emits portable trigger statements (SQLite-compatible)
performing the same comparison over the written state. One function
(_sql_trigger) renders every trigger, and every walk in it, as one flat
join, so no chain nests its SQL. For chains of n and m functions each
trigger joins n + m - 2 tables, and SQLite joins at most 64
(https://www.sqlite.org/limits.html), so every constraint here has
n + m <= 66: model.validate_diagram refuses a longer pair (`join-limit`)
before anything is emitted for it.

Each trigger joins its tables with CROSS JOIN in walk order, which SQLite
keeps as its loop order (https://www.sqlite.org/optoverview.html#crossjoin),
so every loop searches on a value the loops outside it have reached and
the planner never picks an order that scans. A link trigger walks the head
first: its hops depend only on the written row, so they run once. The
reverse walk follows, back to the domain rows, and then the other chain's
hops out from each.

Each GENERIC_SQL link-check unit starts with one `CREATE INDEX IF NOT
EXISTS` per hop its triggers walk backwards, the SQL twin of the store's
reverse index; units that walk alike share the index. The last hop, the
one that reaches the domain set, also reads the other chain's innermost
column there, so its index `[SET.link.other]` holds both columns and the
hop never reads the table (https://www.sqlite.org/queryplanner.html#covidx).
Any other hop (and a domain hop whose other column is its link) reads only
the link column and the row id, which every index led by the link column
holds, so it takes the schema's first such `[SET.link.other]` where one
exists and `[SET.link]` only where none does: a set never keeps both.
Every emitted name joins its parts with a dot, which no identifier holds,
so names from different parts never collide: an index is named by its
set and its column list, triggers `[constraint.SET.ins]` and
`[constraint.SET.function.left1]`, and file names (EmittedUnit.filename).

Every GENERIC_SQL emission starts with one unit that switches foreign
keys on (`PRAGMA foreign_keys = ON;`, file `foreign-keys.generic-sql.txt`)
and one table unit per set, the layout every trigger reads, so its units
install alone, in emission order, into an empty SQLite database and
enforce what the store enforces. `gen` prints them (with `--out`, their
paths) in that order, and its `---` and `-- ` lines are SQL comments.

Row sources are Access SQL, so only PAPER_STYLE emits them: a three-column
query over the right-join ladder of the chain's tables for chains of two
or more functions, and a two-column query over the codomain set for single
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
    Occurrence,
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

    `target_function` is None for row-level (whole-row) checks, for a
    table, whose `constraint_id` is "", and for the foreign-key pragma,
    whose `target_set` is "" too; `side` names the chain of a row source.
    Bodies are non-empty and deterministic for a given input.
    """

    constraint_id: str
    target_set: str
    target_function: str | None
    dialect: Dialect
    role: str
    body: str
    side: Side | None = None

    @property
    def filename(self) -> str:
        """The unit's parts joined by `.`; the role fixes which parts are
        set, so no two units of one schema share a file name."""
        parts = (
            self.target_set,
            self.target_function,
            self.constraint_id,
            self.side and self.side.value,
            self.role,
            self.dialect.value,
        )
        return ".".join(filter(None, parts)) + ".txt"


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
            f"SELECT [{codomain}].[x], [{codomain}].[{name}] FROM [{codomain}]\n"
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
        side,
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

    ladder = f"[{tables[k - 1]}]"
    for j in range(k - 1, 0, -1):
        inner = f"({ladder})" if j + 1 < k else ladder
        joining_fn = chain.functions[j].name
        if j + 1 == k:
            cond = f"[{tables[j]}].[{joining_fn}] = [{tables[j - 1]}].[x]"
        else:
            cond = f"[{tables[j - 1]}].[x] = [{tables[j]}].[{joining_fn}]"
        ladder = f"[{tables[j - 1]}] RIGHT JOIN {inner} ON {cond}"

    outer = chain.functions[0]
    lines = [
        f"SELECT [{tables[-1]}].[x], {display} AS [{alias}], [{tables[0]}].[{outer.name}]",
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
    message = _vba_string(constraint.template)
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
    walks = (
        (f"NEW.{_b(fn)}", (), constraint.left.functions[-2::-1]),
        (f"NEW.{_b(gm)}", (), constraint.right.functions[-2::-1]),
    )
    update = f"UPDATE OF {_b(fn)}" + ("" if fn == gm else f", {_b(gm)}")
    name = f"{constraint.id}.{domain}"
    guard = f"NEW.{_b(fn)} IS NOT OLD.{_b(fn)}"
    if gm != fn:
        guard += f" OR NEW.{_b(gm)} IS NOT OLD.{_b(gm)}"
    return "\n\n".join(
        [
            _sql_trigger(constraint, f"{name}.ins", "INSERT", domain, None, *walks),
            _sql_trigger(constraint, f"{name}.upd", update, domain, guard, *walks),
        ]
    )


Walk = tuple[str, tuple[FunctionDef, ...], tuple[FunctionDef, ...]]


def _sql_trigger(
    constraint: DiagramConstraint,
    name: str,
    event: str,
    table: str,
    guard: str | None,
    *walks: Walk,
) -> str:
    """A row trigger on `table` aborting with the constraint's message at
    the first row of one flat join over both `walks` whose ends compare as
    a violation. A walk (start, back, forward) starts at a value. Each
    function of `back`, outermost first, joins the rows whose link names
    the value (`tK.[fn] = value`); each of `forward`, innermost first, is
    read at the row the value names, joined as `tK.[x] = value` unless a
    backward hop has just joined it. The tables are joined with CROSS
    JOIN in walk order, so SQLite loops over them in that order and each
    loop searches on the value the loop outside it reached. A trigger
    that joins `table` runs AFTER the write, since BEFORE it would read
    the written row's old values; any other runs BEFORE, where every row
    it joins is post-state.
    """
    joined: list[str] = []
    conditions: list[str] = []
    ends: list[str] = []
    for value, back, forward in walks:
        row = None
        for fn in back:
            joined.append(fn.domain)
            row = f"t{len(joined)}"
            conditions.append(f"{row}.{_b(fn.name)} = {value}")
            value = f"{row}.[x]"
        for fn in forward:
            if row is None:
                joined.append(fn.domain)
                row = f"t{len(joined)}"
                conditions.append(f"{row}.[x] = {value}")
            value, row = f"{row}.{_b(fn.name)}", None
        ends.append(value)
    left, right = ends
    conditions.append(f"{left} {_comparison_op(constraint.kind)} {right}")
    timing = "AFTER" if table in joined else "BEFORE"
    return "\n".join(
        [
            f"CREATE TRIGGER {_b(name)} {timing} {event} ON {_b(table)}",
            "FOR EACH ROW",
            *([f"WHEN {guard}"] if guard else []),
            "BEGIN",
            f"    SELECT RAISE(ABORT, {_sql_string(constraint.template)})",
            "    FROM " + "\n    CROSS JOIN ".join(
                f"{_b(t)} t{k}" for k, t in enumerate(joined, 1)
            ),
            "    WHERE " + "\n      AND ".join(conditions) + ";",
            "END;",
        ]
    )


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
    GENERIC_SQL body starts with one `CREATE INDEX IF NOT EXISTS` per hop
    its triggers' reverse walks take, so every unit installs on its own,
    in any order and next to units that share an index (_sql_indexes).
    """
    targets: dict[tuple[str, str], list[Occurrence]] = {}
    for occ in constraint.occurrences:
        if occ.reverse:
            targets.setdefault((occ.set_name, occ.function_name), []).append(occ)
    covering = _covering_indexes(schema)
    units: list[EmittedUnit] = []
    for (set_name, fn_name), occurrences in targets.items():
        if dialect is Dialect.PAPER_STYLE:
            body = "\n".join(
                [
                    f"Sub {fn_name}_BeforeUpdate(Cancel As Integer)",
                    "Dim v As Variant, w As Variant",
                    *(_paper_link_block(schema, occ) for occ in occurrences),
                    "End Sub",
                ]
            )
        else:
            indexes = dict.fromkeys(
                key for occ in occurrences for key in _sql_indexes(covering, occ)
            )
            body = "\n\n".join(
                [
                    "\n".join(_sql_index(table, *columns) for table, *columns in indexes),
                    *map(_sql_link_trigger, occurrences),
                ]
            )
        units.append(
            EmittedUnit(
                constraint.id, set_name, fn_name, dialect, "link-check", body
            )
        )
    return units


def _covering_indexes(schema: Schema) -> dict[tuple[str, str], tuple[str, str, str]]:
    """(set, link) -> (set, link, other) of the schema's first domain hop
    on that link whose other chain's innermost column is another column."""
    covering: dict[tuple[str, str], tuple[str, str, str]] = {}
    for occurrences in schema.occurrences.values():
        for occ in occurrences:
            if occ.reverse:
                last, other = occ.reverse[-1], occ.other.innermost.name
                if other != last.name:
                    covering.setdefault((last.domain, last.name), (last.domain, last.name, other))
    return covering


def _sql_indexes(
    covering: dict[tuple[str, str], tuple[str, str, str]], occ: Occurrence
) -> list[tuple[str, ...]]:
    """(table, columns...) of each index `occ`'s reverse walk searches, in
    walk order. The domain hop reads the other chain's innermost column
    too, so it gets (set, link, other) unless that column is the link
    itself; every other hop reads only the link column and takes the
    `covering` index on it, from _covering_indexes, or (set, link)."""
    keys = [covering.get((fn.domain, fn.name), (fn.domain, fn.name)) for fn in occ.reverse]
    last, other = occ.reverse[-1], occ.other.innermost.name
    if other != last.name:
        keys[-1] = (last.domain, last.name, other)
    return keys


def _sql_index(table: str, *columns: str) -> str:
    name = _b(".".join((table, *columns)))
    listed = ", ".join(map(_b, columns))
    return f"CREATE INDEX IF NOT EXISTS {name} ON {_b(table)} ({listed});"


def _paper_reverse_where(walk: tuple[FunctionDef, ...], value: str, op: str) -> str:
    """Predicate on the domain set selecting the rows whose chain, walked
    back through the link columns of `walk` (outermost first), reaches a
    value that compares by `op` with the VBA variable `value`: `=` for
    the rows a link reaches, _comparison_op for a witness. `op` applies
    at the outermost function, so a row whose chain stops at a Null is
    never selected. A text value is spliced in as a quoted literal, its
    quotes doubled; a row id is spliced in bare."""
    splice = f'" & {value} & "'
    if walk[0].codomain is ScalarType.TEXT:
        splice = f"""'" & Replace({value}, "'", "''") & "'"""
    predicate = f"{_b(walk[0].name)} {op}{splice}"
    for previous, fn in zip(walk, walk[1:]):
        predicate = f"{_b(fn.name)} IN (SELECT [x] FROM {_b(previous.domain)} WHERE {predicate})"
    return predicate


def _paper_forward_lookup(walk: tuple[FunctionDef, ...], condition: str) -> str:
    """DLookup of the value the functions of `walk`, innermost first,
    compose over the rows that match `condition`, each inner function
    one nested IN subquery."""
    *inner, outer = walk
    for fn in inner:
        condition = f"[x] IN (SELECT {_b(fn.name)} FROM {_b(fn.domain)} WHERE {condition})"
    return _dlookup(outer.name, outer.domain, condition)


def _dlookup(column: str, table: str, where: str) -> str:
    # a splice that ends `where` leaves an empty literal behind; drop it
    return f'DLookup("{_b(column)}", "{_b(table)}", "{where}")'.replace(' & "")', ")")


def _paper_link_block(schema: Schema, occ: Occurrence) -> str:
    constraint, fn_i = occ.constraint, occ.function_name
    # `f <> f.OldValue` is Null, so false, when the old value is Null
    changed = f"{fn_i} <> {fn_i}.OldValue"
    if schema.function(occ.set_name, fn_i).nullable:
        changed = f"(IsNull({fn_i}.OldValue) Or {changed})"
    guard = f"Not Cancel And Not NewRecord And {changed} And Not IsNull({fn_i})"
    head = fn_i
    if occ.head:
        head = _paper_forward_lookup(occ.head, f'[x] =" & {fn_i} & "')
    # a witness: an affected row whose other chain compares with the new
    # head as a violation
    affected = _paper_reverse_where(occ.reverse, "x", "=")
    other = _paper_reverse_where(occ.other.functions, "w", _comparison_op(constraint.kind))
    witness = _dlookup("x", constraint.domain_set, f"{affected} AND {other}")
    steps = [(f"w = {head}", "Not IsNull(w)"), (f"v = {witness}", "Not IsNull(v)")]
    comment = (
        f"' {constraint.id}: {occ.side.value} position {occ.position} of {constraint.render()}"
    )
    body = ["Cancel = True", f"MsgBox {_vba_string(constraint.template)}", "Undo"]
    return "\n".join([comment, *_vba_ifs([(None, guard), *steps], body)])


def _sql_link_trigger(occ: Occurrence) -> str:
    table, column = occ.set_name, _b(occ.function_name)
    return _sql_trigger(
        occ.constraint,
        f"{occ.constraint.id}.{table}.{occ.function_name}.{occ.side.value}{occ.position}",
        f"UPDATE OF {column}",
        table,
        f"NEW.{column} IS NOT NULL AND NEW.{column} IS NOT OLD.{column}",
        # the new head, read once; the affected domain rows and the other
        # chain's value at each
        (f"NEW.{column}", (), occ.head),
        ("NEW.[x]", occ.reverse, occ.other.functions[::-1]),
    )


# ---------------------------------------------------------------------------
# Batch emission
# ---------------------------------------------------------------------------

def emit_units(
    schema: Schema,
    constraints: tuple[DiagramConstraint, ...],
    what: str,
    dialect: Dialect,
) -> list[EmittedUnit]:
    """All requested units in deterministic order: GENERIC_SQL's
    foreign-key pragma and tables (_sql_table) always, then in constraint
    order PAPER_STYLE row sources (left, right), domain check, link
    checks (left first)."""
    units: list[EmittedUnit] = []
    if dialect is Dialect.GENERIC_SQL:
        pragma = EmittedUnit("", "", None, dialect, "foreign-keys", "PRAGMA foreign_keys = ON;")
        units = [pragma, *(_sql_table(schema, set_def.name) for set_def in schema.sets)]
    for constraint in constraints:
        if what in ("row-sources", "all") and dialect is Dialect.PAPER_STYLE:
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


def _sql_table(schema: Schema, set_name: str) -> EmittedUnit:
    columns = ["[x] INTEGER PRIMARY KEY"]
    for fn in schema.functions_of(set_name):
        if fn.is_link:
            column = f"{_b(fn.name)} INTEGER REFERENCES {_b(fn.codomain)}([x])"
        else:
            column = f"{_b(fn.name)} {fn.codomain.value.upper()}"
        columns.append(column + ("" if fn.nullable else " NOT NULL"))
    body = f"CREATE TABLE {_b(set_name)} ({', '.join(columns)});"
    return EmittedUnit("", set_name, None, Dialect.GENERIC_SQL, "table", body)


def _vba_string(text: str) -> str:
    text = text.replace('"', '""').replace("\r", '" & vbCr & "')
    return '"' + text.replace("\n", '" & vbLf & "') + '"'


def _sql_string(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"
