"""Diagram-constraint tooling for set-and-function schemas.

Parse a schema and its constraints from the DSL, hold rows in an
in-memory store with reverse link indexes, enforce commutativity and
anti-commutativity of composition chains incrementally on every mutation,
verify against a brute-force oracle, and emit row-source queries, SQL
tables and trigger-style check procedures as text.
"""

from .codegen import (
    Dialect,
    EmittedUnit,
    emit_units,
    gen_domain_check,
    gen_link_checks,
    gen_row_source,
)
from .dsl import (
    Action,
    Binding,
    Diagnostic,
    Expectation,
    HandleRef,
    Mutation,
    parse_schema,
    parse_script,
)
from .engine import (
    Outcome,
    Verdict,
    Violation,
    ViolationKind,
    affected_rows,
    apply_mutation,
    check_domain_row,
    check_link_update,
    dispatch,
    eval_chain,
    eval_prefix,
)
from .model import (
    ChainSpec,
    ConstraintKind,
    DiagramConstraint,
    FunctionDef,
    Issue,
    IssueCode,
    Occurrence,
    RawChain,
    RawConstraint,
    ScalarType,
    Schema,
    SetDef,
    Side,
    validate_diagram,
)
from .oracle import OracleReport, full_check, oracle_apply
from .store import Database, RowId, StoreError

__version__ = "0.1.0"

__all__ = [
    "Action",
    "Binding",
    "ChainSpec",
    "ConstraintKind",
    "Database",
    "Diagnostic",
    "DiagramConstraint",
    "Dialect",
    "EmittedUnit",
    "Expectation",
    "FunctionDef",
    "HandleRef",
    "Issue",
    "IssueCode",
    "Mutation",
    "Occurrence",
    "OracleReport",
    "Outcome",
    "RawChain",
    "RawConstraint",
    "RowId",
    "ScalarType",
    "Schema",
    "SetDef",
    "Side",
    "StoreError",
    "Verdict",
    "Violation",
    "ViolationKind",
    "affected_rows",
    "apply_mutation",
    "check_domain_row",
    "check_link_update",
    "dispatch",
    "emit_units",
    "eval_chain",
    "eval_prefix",
    "full_check",
    "gen_domain_check",
    "gen_link_checks",
    "gen_row_source",
    "oracle_apply",
    "parse_schema",
    "parse_script",
    "validate_diagram",
]
