from __future__ import annotations

import random
import re
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, strategies as st

from funcdiag.model import (
    VBA_KEYWORDS,
    ChainSpec,
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
    validate_diagram,
)
from funcdiag.dsl import parse_schema
from funcdiag.store import RowId

from conftest import FIXTURES
from randgen import make_schema
from test_differential import SEEDS, _schema


def verify_resolved_chain(schema: Schema, chain: ChainSpec, domain_set: str) -> bool:
    """Re-walk a resolved chain and confirm every structural invariant.

    Checks composability of consecutive entries, link-ness of every
    interior entry, and the declared domain.
    """
    if chain.functions[-1].domain != domain_set:
        return False
    for outer, inner in zip(chain.functions, chain.functions[1:]):
        if not inner.is_link or inner.codomain != outer.domain:
            return False
    for fn in chain.functions:
        if schema.function(fn.domain, fn.name) != fn:
            return False
    return True


def _raw(cid, kind, domain, left, right):
    return RawConstraint(
        cid,
        kind,
        domain,
        RawChain(tuple(left)) if isinstance(left, (list, tuple)) else left,
        RawChain(tuple(right)) if isinstance(right, (list, tuple)) else right,
    )


IDENTITY = RawChain(identity=True)


def test_geography_chains_resolve(geography_schema):
    raw = _raw(
        "geo",
        ConstraintKind.COMMUTATIVE,
        "RIVERS",
        ["Continent", "Range", "Subrange", "Group", "Mountain"],
        ["Continent"],
    )
    constraint, issues = validate_diagram(geography_schema, raw)
    assert issues == []
    assert constraint is not None
    assert constraint.domain_set == "RIVERS"
    assert constraint.left.codomain == "CONTINENTS"
    assert constraint.right.codomain == "CONTINENTS"
    domains = [fn.domain for fn in constraint.left.functions]
    assert domains == [
        "MOUNTAIN_RANGES",
        "MOUNT_SUBRANGES",
        "MOUNT_GROUPS",
        "MOUNTAINS",
        "RIVERS",
    ]
    assert verify_resolved_chain(geography_schema, constraint.left, "RIVERS")
    assert verify_resolved_chain(geography_schema, constraint.right, "RIVERS")


def test_schema_builds_its_lookup_tables_and_takes_none_as_arguments(geography_schema):
    assert [f.name for f in fields(Schema) if f.init] == [
        "name",
        "sets",
        "functions",
        "constraints",
    ]
    with pytest.raises(TypeError):
        Schema("S", (), (), (), {})
    assert geography_schema.function("RIVERS", "Continent") is not None


def test_dangling_chain_is_broken_composition():
    # RIVERS has no Continent of its own here, so a bare [Continent] chain
    # cannot start on RIVERS; the only Continent lives on MOUNTAIN_RANGES.
    schema = Schema(
        "G",
        (
            SetDef("CONTINENTS", "Continent"),
            SetDef("MOUNTAIN_RANGES", "Range"),
            SetDef("RIVERS", "River"),
        ),
        (
            FunctionDef("Continent", "CONTINENTS", ScalarType.TEXT),
            FunctionDef("Range", "MOUNTAIN_RANGES", ScalarType.TEXT),
            FunctionDef("Continent", "MOUNTAIN_RANGES", "CONTINENTS"),
            FunctionDef("River", "RIVERS", ScalarType.TEXT),
            FunctionDef("Range", "RIVERS", "MOUNTAIN_RANGES", nullable=True),
        ),
    )
    raw = _raw(
        "broken",
        ConstraintKind.COMMUTATIVE,
        "RIVERS",
        ["Continent"],
        ["Continent", "Range"],
    )
    constraint, issues = validate_diagram(schema, raw)
    assert constraint is None
    [issue] = [i for i in issues if i.side is Side.LEFT]
    assert issue.code is IssueCode.BROKEN_COMPOSITION
    assert issue.position == 1
    assert "MOUNTAIN_RANGES" in issue.message and "RIVERS" in issue.message


def test_all_diagnostics_reported_not_just_first(geography_schema):
    raw = _raw(
        "multi",
        ConstraintKind.COMMUTATIVE,
        "RIVERS",
        ["Nope", "Mountain"],
        ["AlsoNope"],
    )
    constraint, issues = validate_diagram(geography_schema, raw)
    assert constraint is None
    sides = {(i.side, i.code) for i in issues}
    assert (Side.LEFT, IssueCode.UNKNOWN_FUNCTION) in sides
    assert (Side.RIGHT, IssueCode.UNKNOWN_FUNCTION) in sides


def test_scalar_codomain_chains_resolve(neighbors_schema):
    raw = _raw(
        "colors",
        ConstraintKind.ANTI_COMMUTATIVE,
        "NEIGHBOR_COUNTRIES",
        ["FrontierColor", "Country"],
        ["FrontierColor", "Neighbor"],
    )
    constraint, issues = validate_diagram(neighbors_schema, raw)
    assert issues == []
    assert constraint is not None
    assert constraint.left.codomain is ScalarType.TEXT
    assert constraint.right.codomain is ScalarType.TEXT


def test_codomain_mismatch_reported(geography_schema):
    raw = _raw(
        "mixed",
        ConstraintKind.COMMUTATIVE,
        "RIVERS",
        ["River"],
        ["Continent"],
    )
    constraint, issues = validate_diagram(geography_schema, raw)
    assert constraint is None
    assert any(i.code is IssueCode.CODOMAIN_MISMATCH for i in issues)


def test_interior_attribute_is_broken_composition(geography_schema):
    raw = _raw(
        "interior",
        ConstraintKind.COMMUTATIVE,
        "RIVERS",
        ["Continent", "River"],
        ["Continent"],
    )
    constraint, issues = validate_diagram(geography_schema, raw)
    assert constraint is None
    assert any(i.code is IssueCode.BROKEN_COMPOSITION for i in issues)


def test_identity_on_both_sides_is_degenerate(geography_schema):
    raw = _raw("deg", ConstraintKind.COMMUTATIVE, "RIVERS", IDENTITY, IDENTITY)
    constraint, issues = validate_diagram(geography_schema, raw)
    assert constraint is None
    assert [i.code for i in issues] == [IssueCode.DEGENERATE_IDENTITY]


def test_unknown_domain_set(geography_schema):
    raw = _raw("lost", ConstraintKind.COMMUTATIVE, "OCEANS", ["Continent"], ["Continent"])
    constraint, issues = validate_diagram(geography_schema, raw)
    assert constraint is None
    assert issues[0].code is IssueCode.UNKNOWN_SET


def _capitals_schema() -> Schema:
    return Schema(
        "Capitals",
        (SetDef("STATES", "State"), SetDef("CITIES", "City")),
        (
            FunctionDef("State", "STATES", ScalarType.TEXT),
            FunctionDef("StateCapital", "STATES", "CITIES", nullable=True),
            FunctionDef("City", "CITIES", ScalarType.TEXT),
            FunctionDef("State", "CITIES", "STATES"),
        ),
    )


def test_classification_general(geography_schema):
    raw = _raw(
        "geo",
        ConstraintKind.COMMUTATIVE,
        "RIVERS",
        ["Continent", "Range", "Subrange", "Group", "Mountain"],
        ["Continent"],
    )
    constraint, issues = validate_diagram(geography_schema, raw)
    assert issues == []
    schema = Schema("G", geography_schema.sets, geography_schema.functions, (constraint,))
    assert schema.constraints == (constraint,)


def test_classification_hbfp():
    schema = Schema(
        "P",
        (SetDef("A", "Name"), SetDef("B", "Name")),
        (
            FunctionDef("Name", "A", ScalarType.TEXT),
            FunctionDef("Name", "B", ScalarType.TEXT),
            FunctionDef("f", "A", "B"),
            FunctionDef("g", "A", "B"),
        ),
    )
    raw = _raw("pair", ConstraintKind.COMMUTATIVE, "A", ["f"], ["g"])
    constraint, issues = validate_diagram(schema, raw)
    assert constraint is None
    [issue] = issues
    assert issue.code is IssueCode.REFUSED_HBFP
    assert (issue.side, issue.position) == (None, None)
    assert issue.message == (
        "constraint 'pair' composes a single function on each side"
        " (homogeneous binary function product); it is enforced by the"
        " paired-function reflexivity family, not by diagram checking"
    )


def test_classification_local():
    schema = _capitals_schema()
    raw = _raw(
        "cap",
        ConstraintKind.COMMUTATIVE,
        "STATES",
        ["State", "StateCapital"],
        IDENTITY,
    )
    constraint, issues = validate_diagram(schema, raw)
    assert constraint is None
    [issue] = issues
    assert issue.code is IssueCode.REFUSED_LOCAL
    assert (issue.side, issue.position) == (None, None)
    assert issue.message == (
        "constraint 'cap' compares a chain against the identity of 'STATES'"
        " (local constraint); it is enforced by the self-map constraint"
        " family, not by diagram checking"
    )


def test_schema_refuses_non_general_constraints():
    # built in code, not declared: Schema re-judges it with validate_diagram
    pair = DiagramConstraint(
        "pair", ConstraintKind.COMMUTATIVE, _synthetic_chain(1, "f"), _synthetic_chain(1, "g")
    )
    schema = _synthetic_schema(pair.left, pair.right)
    hbfp = r"'pair' composes a single function on each side \(homogeneous binary"
    with pytest.raises(ValueError, match=hbfp):
        Schema("S", schema.sets, schema.functions, (pair,))


@pytest.mark.parametrize("template", ["bad {left.x}", "{left[a]}", "{right!r}", "unclosed {left"])
def test_schema_refuses_a_message_template_that_cannot_format(geography_schema, template):
    # built in code, not parsed: "{left.x}" used to reach apply_mutation
    # and raise AttributeError at the first violation
    constraint = replace(geography_schema.constraints[0], message=template)
    with pytest.raises(ValueError, match="GeoContinent.*message template"):
        Schema("G", geography_schema.sets, geography_schema.functions, (constraint,))


def test_template_falls_back_to_a_default_naming_both_chains(neighbors_schema):
    declared = neighbors_schema.constraints[0]
    assert declared.template == declared.message
    for message in (None, ""):
        default = replace(declared, message=message)
        assert default.template == (
            "value of FrontierColor . Country must never equal value of"
            " FrontierColor . Neighbor (left={left}, right={right})"
        )


def test_format_message_fills_every_field_and_writes_null_as_null(geography_schema):
    template = "{constraint}@{witness}: {left_chain}={left}, {right_chain}={right} {{x}}"
    constraint = replace(geography_schema.constraints[0], message=template)
    assert constraint.format_message(None, 3, RowId("RIVERS", 7)) == (
        "GeoContinent@RIVERS#7: Continent . Range . Subrange . Group . Mountain=null,"
        " Continent=3 {x}"
    )


@given(
    n=st.integers(min_value=1, max_value=40),
    m=st.integers(min_value=1, max_value=40),
    left_identity=st.booleans(),
    right_identity=st.booleans(),
)
# the join limit's edge: 33 + 33 functions join 64 tables, 34 + 33 join 65
@example(n=33, m=33, left_identity=False, right_identity=False)
@example(n=34, m=33, left_identity=False, right_identity=False)
@example(n=1, m=1, left_identity=False, right_identity=False)
def test_classification_matches_direct_predicate(n, m, left_identity, right_identity):
    # a chain compared against the identity ends where it starts
    codomain = "D" if left_identity or right_identity else "C"
    left = _synthetic_chain(n, "l", codomain)
    right = _synthetic_chain(m, "r", codomain)
    schema = _synthetic_schema(left, right)
    raw = _raw(
        "c",
        ConstraintKind.COMMUTATIVE,
        "D",
        IDENTITY if left_identity else [fn.name for fn in left.functions],
        IDENTITY if right_identity else [fn.name for fn in right.functions],
    )
    constraint, issues = validate_diagram(schema, raw)
    if left_identity and right_identity:
        expected = [IssueCode.DEGENERATE_IDENTITY]
    elif left_identity != right_identity:
        expected = [IssueCode.REFUSED_LOCAL]
    elif n == 1 and m == 1:
        expected = [IssueCode.REFUSED_HBFP]
    elif n + m > 66:
        expected = [IssueCode.JOIN_LIMIT]
    else:
        expected = []
    assert [i.code for i in issues] == expected
    if expected:
        assert constraint is None
        if not (left_identity or right_identity):
            # the API can build the pair by hand; Schema re-judges it
            built = DiagramConstraint("c", ConstraintKind.COMMUTATIVE, left, right)
            with pytest.raises(ValueError, match=re.escape(issues[0].message)):
                Schema("S", schema.sets, schema.functions, (built,))
    else:
        assert (constraint.left, constraint.right) == (left, right)
        Schema("S", schema.sets, schema.functions, (constraint,))


def _synthetic_chain(length: int, prefix: str = "h", codomain: str = "C") -> ChainSpec:
    """`length` links from D to `codomain`, through sets of their own."""
    fns = []
    for i in range(length, 0, -1):
        domain = "D" if i == length else f"{prefix}T{i}"
        target = codomain if i == 1 else f"{prefix}T{i - 1}"
        fns.append(FunctionDef(f"{prefix}{i}", domain, target))
    return ChainSpec(tuple(reversed(fns)))


def _synthetic_schema(*chains: ChainSpec) -> Schema:
    """The sets and functions `chains` use, each set named by an attribute."""
    fns = [fn for chain in chains for fn in chain.functions]
    names = sorted({"D", "C", *(fn.domain for fn in fns), *(fn.codomain for fn in fns)})
    return Schema(
        "S",
        tuple(SetDef(name, "Name") for name in names),
        tuple(FunctionDef("Name", name, ScalarType.TEXT) for name in names) + tuple(fns),
    )


# A, B and C, each named by N; f and g link A to B, h links A to C, k C to B
PARITY_SETS = (SetDef("A", "N"), SetDef("B", "N"), SetDef("C", "N"))
PARITY_FUNCTIONS = (
    *(FunctionDef("N", s.name, ScalarType.TEXT) for s in PARITY_SETS),
    FunctionDef("f", "A", "B"),
    FunctionDef("g", "A", "B"),
    FunctionDef("h", "A", "C"),
    FunctionDef("k", "C", "B"),
)
N_B, F, G, H, K = (
    next(fn for fn in PARITY_FUNCTIONS if (fn.domain, fn.name) == key)
    for key in (("B", "N"), ("A", "f"), ("A", "g"), ("A", "h"), ("C", "k"))
)
LONG_LEFT, LONG_RIGHT = _synthetic_chain(67, "l"), _synthetic_chain(1, "r")
LONG = _synthetic_schema(LONG_LEFT, LONG_RIGHT)


def _pair(left, right, message=None, constraint_id="c") -> DiagramConstraint:
    return DiagramConstraint(
        constraint_id, ConstraintKind.COMMUTATIVE, ChainSpec(left), ChainSpec(right), message
    )


def _parity(
    case_id, constraints=(), sets=PARITY_SETS, functions=PARITY_FUNCTIONS, api_only=None
):
    """A case; `api_only` is the message of one that schema text cannot
    declare, so parse_schema admits what the text holds."""
    return pytest.param(sets, functions, constraints, api_only, id=case_id)


def _named(*functions: tuple[str, str]) -> tuple[FunctionDef, ...]:
    """Nullable text functions, given as (set, name)."""
    return tuple(FunctionDef(name, domain, ScalarType.TEXT, True) for domain, name in functions)


S = (SetDef("S", "N"),)


@pytest.mark.parametrize(
    "sets, functions, constraints, api_only",
    [
        _parity(
            "join-limit",
            (_pair(LONG_LEFT.functions, LONG_RIGHT.functions),),
            LONG.sets,
            LONG.functions,
        ),
        _parity("chains-on-different-sets", (_pair((N_B, F), (N_B, K)),)),
        _parity("broken-composition", (_pair((K, F), (F,)),)),
        _parity(
            "unlike-the-schema",
            (_pair((N_B, replace(F, nullable=True)), (N_B, K, H)),),
            # text names functions, not FunctionDefs
            api_only="constraint 'c': holds a function unlike the schema's own",
        ),
        _parity("hbfp", (_pair((F,), (G,)),)),
        _parity("bad-template", (_pair((N_B, F), (N_B, K, H), "bad {left.x}"),)),
        _parity("unknown-function-and-bad-template", (
            _pair((N_B, FunctionDef("zz", "A", "B")), (N_B, K, H), "{left!r}"),
        )),
        _parity("twin-ids", (
            _pair((N_B, F), (N_B, K, H)), _pair((N_B, G), (N_B, K, H), None, "C"),
        )),
        _parity("twin-sets", (), (*S, SetDef("s", "N")), _named(("S", "N"), ("s", "N"))),
        _parity("repeated-set", (), S * 2, _named(("S", "N"))),
        _parity("twin-functions", (), S, _named(("S", "N"), ("S", "Color"), ("S", "color"))),
        _parity("repeated-function", (), S, _named(("S", "N"), ("S", "N"))),
        _parity("function-x", (), S, _named(("S", "N"), ("S", "x"))),
        _parity("function-X", (), S, _named(("S", "N"), ("S", "X"))),
        _parity("function-vba-keyword", (), S, _named(("S", "N"), ("S", "End"))),
        _parity("link-to-unknown-set", (), S, (*_named(("S", "N")), FunctionDef("L", "S", "Z"))),
        _parity(
            "function-on-unknown-set",
            (),
            S,
            _named(("S", "N"), ("Z", "M")),
            # text declares each function inside its set
            api_only="function 'M' is on unknown set 'Z'",
        ),
        _parity("missing-name-attribute", (), (SetDef("S", "M"),), _named(("S", "N"))),
        _parity("empty-name-attribute", (), (SetDef("S", ""),), _named(("S", "N"))),
        _parity(
            "twin-functions-and-link-to-unknown-set",
            (),
            S,
            (*_named(("S", "N"), ("S", "Color"), ("S", "color")), FunctionDef("L", "S", "Z")),
        ),
        _parity(
            "twin-sets-and-function-x",
            (),
            (*S, SetDef("s", "N"), SetDef("T", "N")),
            _named(("S", "N"), ("s", "N"), ("T", "N"), ("T", "x")),
        ),
        _parity(
            "twin-functions-one-a-link-named",
            (),
            (SetDef("S", "Color"),),
            (*_named(("S", "color")), FunctionDef("Color", "S", "S")),
        ),
        _parity(
            "repeated-function-and-missing-name-attribute",
            (),
            (*S, SetDef("T", "M")),
            _named(("S", "N"), ("S", "N"), ("T", "N")),
        ),
        _parity(
            "name-attribute-is-a-link",
            (),
            (SetDef("S", "L"),),
            (*_named(("S", "N")), FunctionDef("L", "S", "S")),
        ),
    ],
)
def test_schema_refuses_what_parse_schema_refuses(sets, functions, constraints, api_only):
    # the API and the parser share one judge, so Schema(...) refuses each
    # case with the message parse_schema gives for the same declarations
    with pytest.raises(ValueError) as refused:
        Schema("P", sets, functions, constraints)
    parsed, diagnostics = parse_schema(_source(sets, functions, constraints))
    if api_only is None:
        assert parsed is None
        why = "; ".join(d.message for d in diagnostics)
        assert str(refused.value) in (why, f"constraint 'c': {why}")
    else:
        # only the API can hold this case; the text of the rest is admitted
        assert parsed is not None, diagnostics
        assert str(refused.value) == api_only


def _source(sets, functions, constraints) -> str:
    """Schema text declaring what the API is given, in its order."""
    lines = ["schema P ;"]
    for s in sets:
        members = [
            f"{'name ' if fn.name == s.name_attribute else ''}{fn.name}"
            + (f" -> {fn.codomain}" if fn.is_link else f" : {fn.codomain.value}")
            + (" ? ;" if fn.nullable else " ;")
            for fn in functions
            if fn.domain == s.name
        ]
        lines.append(f"set {s.name} {{ {' '.join(members)} }}")
    for c in constraints:
        message = "" if c.message is None else f' message = "{c.message}" ;'
        lines.append(
            f"constraint {c.id} commutative on {c.domain_set} {{"
            f" left = {c.left.render()} ; right = {c.right.render()} ;{message} }}"
        )
    return "\n".join(lines) + "\n"


def _one_function_named(name: str) -> str:
    return f"schema P ;\nset S {{ name N : text ; {name} : text ? ; }}\n"


@pytest.mark.parametrize("name", ["End", "then", "DIM", "Sub", "If", "wEnD", "Xor", "Nothing"])
def test_a_function_named_like_a_vba_keyword_is_refused_in_any_case(name):
    # a paper-style handler writes the control bare (`End <> End.OldValue`)
    assert name.lower() in VBA_KEYWORDS
    message = f"function name {name!r} is reserved: VBA reads it as a keyword, not as a control"
    parsed, diagnostics = parse_schema(_one_function_named(name))
    assert parsed is None
    assert [d.render() for d in diagnostics] == [f"2:25: error [reserved-name] {message}"]
    with pytest.raises(ValueError) as refused:
        Schema("P", S, _named(("S", "N"), ("S", name)))
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "name", ["Name", "Group", "Range", "Continent", "Date", "Beep", "Endless", "Ifs", "Énd"]
)
def test_a_function_named_like_a_procedure_or_a_longer_word_is_admitted(name):
    # VBA's Name statement is a procedure, not a keyword; randgen names
    # every set's name attribute Name
    schema, diagnostics = parse_schema(_one_function_named(name))
    assert schema is not None, diagnostics
    assert [fn.name for fn in schema.functions] == ["N", name]
    assert Schema("P", S, _named(("S", "N"), ("S", name))).functions[1].name == name


def test_no_fixture_names_a_function_like_a_vba_keyword():
    for path in sorted(FIXTURES.glob("*.fd")):
        _, diagnostics = parse_schema(path.read_text(encoding="utf-8"))
        assert IssueCode.RESERVED_NAME not in {d.code for d in diagnostics}, path.name


def test_chainspec_rejects_empty_non_identity():
    with pytest.raises(ValueError):
        ChainSpec(())


@pytest.mark.parametrize("seed", range(25))
def test_random_schemas_resolve_and_rewalk(seed):
    schema = make_schema(random.Random(seed))
    for constraint in schema.constraints:
        raw = RawConstraint(
            constraint.id,
            constraint.kind,
            constraint.domain_set,
            RawChain(tuple(fn.name for fn in constraint.left.functions)),
            RawChain(tuple(fn.name for fn in constraint.right.functions)),
            constraint.message,
        )
        assert validate_diagram(schema, raw) == (constraint, [])
        assert verify_resolved_chain(schema, constraint.left, constraint.domain_set)
        assert verify_resolved_chain(schema, constraint.right, constraint.domain_set)
        assert constraint.left.codomain == constraint.right.codomain
        for chain in (constraint.left, constraint.right):
            for fn in chain.functions[1:]:
                assert fn.is_link


def _assert_plans_follow_side_and_position(schema: Schema) -> None:
    """Every occurrence's plan against walks derived here, from its side
    and position alone, and against the composition they must follow."""
    owned = []
    for c in schema.constraints:
        assert [(occ.side, occ.position) for occ in c.occurrences] == [
            (side, position)
            for side in (Side.LEFT, Side.RIGHT)
            for position in range(1, c.chain(side).length + 1)
        ]
        for occ in c.occurrences:
            assert occ.constraint is c
            functions = c.chain(occ.side).functions
            written = functions[occ.position - 1]
            assert (occ.set_name, occ.function_name) == (written.domain, written.name)
            assert occ.other is c.chain(occ.side.other)
            assert occ.head == tuple(reversed(functions[: occ.position - 1]))
            assert occ.reverse == functions[occ.position :]
            # the head composes outward from the written value to the
            # codomain; the reverse walk leads back to the domain set
            inward, outward = (written, *occ.head), (written, *occ.reverse)
            assert [fn.domain for fn in inward[1:]] == [fn.codomain for fn in inward[:-1]]
            assert inward[-1] is functions[0]
            assert [fn.codomain for fn in outward[1:]] == [fn.domain for fn in outward[:-1]]
            assert outward[-1].domain == c.domain_set
            owned.append(occ)
    indexed = [occ for occs in schema.occurrences.values() for occ in occs]
    assert sorted(map(id, indexed)) == sorted(map(id, owned))
    for key, occs in schema.occurrences.items():
        assert all((occ.set_name, occ.function_name) == key for occ in occs)


def test_fixture_plans_follow_side_and_position(geography_schema, neighbors_schema):
    _assert_plans_follow_side_and_position(geography_schema)
    _assert_plans_follow_side_and_position(neighbors_schema)
    [occ, *_] = geography_schema.constraints[0].occurrences
    assert [fn.name for fn in occ.head] == []
    assert [fn.name for fn in occ.reverse] == ["Range", "Subrange", "Group", "Mountain"]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_schema_plans_follow_side_and_position(seed):
    _assert_plans_follow_side_and_position(_schema(random.Random(seed)))


def test_plans_leave_constraint_equality_and_hashing_alone(geography_schema):
    constraint = geography_schema.constraints[0]
    twin = replace(constraint)
    assert twin == constraint and hash(twin) == hash(constraint)
    assert twin.occurrences is not constraint.occurrences
    assert twin.occurrences == constraint.occurrences
    assert twin.template == constraint.template
