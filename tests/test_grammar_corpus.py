"""Golden-corpus round-trip: parse → print → parse over every production.

``grammar_corpus.sql`` holds one exemplar statement per line.  Each line
must survive ``parse(to_sql(parse(line)))`` with a structurally equal
AST (the printer/parser fixpoint the repo guarantees), and — so the
corpus cannot silently rot as the grammar grows — the statements
together must exercise **every concrete AST node class**, i.e. every
grammar production, including the preference-view statements.
"""

from __future__ import annotations

import ast as pyast
import dataclasses
import inspect
from pathlib import Path

import pytest

import repro
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.params import bind_parameters
from repro.sql.parser import parse_statement
from repro.sql.printer import format_literal, to_sql
from repro.sql.tokens import TokenType

CORPUS_PATH = Path(__file__).parent / "grammar_corpus.sql"


def corpus_statements() -> list[str]:
    lines = CORPUS_PATH.read_text(encoding="utf-8").splitlines()
    return [
        line.strip()
        for line in lines
        if line.strip() and not line.strip().startswith("--")
    ]


def walk_all_nodes(node: ast.Node):
    """Every AST node beneath ``node``, via generic dataclass traversal
    (the reference ``ast.walk`` is checked against)."""
    yield node
    for field in dataclasses.fields(node):
        yield from _walk_value(getattr(node, field.name))


def _walk_value(value):
    if isinstance(value, ast.Node):
        yield from walk_all_nodes(value)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _walk_value(item)


def concrete_node_classes() -> set[type]:
    """All dataclass AST node types (markers like Expr are excluded)."""
    return {
        member
        for _name, member in inspect.getmembers(ast, inspect.isclass)
        if issubclass(member, ast.Node) and dataclasses.is_dataclass(member)
    }


@pytest.mark.parametrize(
    "statement_sql",
    corpus_statements(),
    ids=lambda sql: sql[:48],
)
def test_corpus_round_trips(statement_sql):
    first = parse_statement(statement_sql)
    printed = to_sql(first)
    second = parse_statement(printed)
    assert second == first, f"round-trip changed the AST for: {statement_sql}"
    # And the printer itself is a fixpoint on its own output.
    assert to_sql(second) == printed


def test_corpus_covers_every_grammar_production():
    seen: set[type] = set()
    for statement_sql in corpus_statements():
        for node in walk_all_nodes(parse_statement(statement_sql)):
            seen.add(type(node))
    missing = {cls.__name__ for cls in concrete_node_classes()} - {
        cls.__name__ for cls in seen
    }
    assert not missing, (
        "grammar productions without a corpus exemplar: "
        + ", ".join(sorted(missing))
    )


def test_corpus_covers_every_base_preference_operator():
    # Belt and braces beyond node classes: the POS/NEG single-value forms
    # (`=`/`<>`) and set forms (`IN`/`NOT IN`) print differently, so both
    # spellings must round-trip through the corpus.
    text = " ".join(corpus_statements())
    for fragment in ("PREFERRING", "AROUND", "CASCADE", "ELSE", "BUT ONLY"):
        assert fragment in text


# ----------------------------------------------------------------------
# The one traversal (ast.walk / ast.transform) over every production

CORPUS = corpus_statements()


@pytest.mark.parametrize("statement_sql", CORPUS, ids=lambda sql: sql[:48])
def test_walk_visits_what_the_reference_walker_visits(statement_sql):
    statement = parse_statement(statement_sql)
    walked = list(ast.walk(statement))
    reference = list(walk_all_nodes(statement))
    assert len(walked) == len(reference)
    assert all(a is b for a, b in zip(walked, reference))


@pytest.mark.parametrize("statement_sql", CORPUS, ids=lambda sql: sql[:48])
def test_an_identity_transform_returns_the_same_object(statement_sql):
    statement = parse_statement(statement_sql)
    assert ast.transform(statement, lambda node: None) is statement


@pytest.mark.parametrize("statement_sql", CORPUS, ids=lambda sql: sql[:48])
def test_a_renaming_transform_reaches_every_column(statement_sql):
    statement = parse_statement(statement_sql)

    def rename(node: ast.Node) -> ast.Node | None:
        if isinstance(node, ast.Column):
            return dataclasses.replace(node, name=f"renamed_{node.name}")
        return None

    before = [node for node in ast.walk(statement) if isinstance(node, ast.Column)]
    renamed = ast.transform(statement, rename)
    after = [node for node in ast.walk(renamed) if isinstance(node, ast.Column)]
    assert after == [
        dataclasses.replace(column, name=f"renamed_{column.name}") for column in before
    ]
    assert (renamed is statement) == (not before)


#: Values written in for the markers of a corpus line, in turn.
_VALUES = (7, "it's", 2.5, None, "red", 40)


def _with_literals(statement_sql: str) -> tuple[str, tuple[object, ...]]:
    """The text with each ``?`` replaced by a literal, and those values."""
    pieces, values, end = [], [], 0
    for token in tokenize(statement_sql):
        if token.type is TokenType.PARAM:
            value = _VALUES[len(values) % len(_VALUES)]
            pieces += [statement_sql[end : token.position], format_literal(value)]
            values.append(value)
            end = token.position + 1
    return "".join(pieces) + statement_sql[end:], tuple(values)


@pytest.mark.parametrize(
    "statement_sql", [sql for sql in CORPUS if "?" in sql], ids=lambda sql: sql[:48]
)
def test_binding_writes_the_literals_in(statement_sql):
    literal_sql, values = _with_literals(statement_sql)
    assert "?" not in literal_sql
    bound = bind_parameters(parse_statement(statement_sql), values)
    assert bound == parse_statement(literal_sql)


def test_only_the_printer_dispatches_on_node_shapes():
    """One place knows the node shapes: everywhere else the tree is
    walked and rebuilt through ``ast.walk`` and ``ast.transform``, so an
    ``isinstance(..., CaseWhen)`` check outside the printer is a copy."""
    package = Path(repro.__file__).parent
    dispatching = set()
    for path in sorted(package.rglob("*.py")):
        for node in pyast.walk(pyast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, pyast.Call)
                and isinstance(node.func, pyast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and any(
                    getattr(name, "id", getattr(name, "attr", None)) == "CaseWhen"
                    for name in pyast.walk(node.args[1])
                )
            ):
                dispatching.add(path.relative_to(package).as_posix())
    assert dispatching == {"sql/printer.py"}
