"""Recursive-descent parser for the Preference SQL dialect.

The grammar is reconstructed from every example in the paper plus the rules
it states explicitly:

* the query block order is ``SELECT FROM WHERE PREFERRING GROUPING
  BUT ONLY ORDER BY`` (section 2.2.5),
* within PREFERRING, ``ELSE`` binds tighter than ``AND`` (Pareto), which
  binds tighter than ``CASCADE``; ``,`` is a synonym for ``CASCADE``,
* ``BETWEEN`` in a preference takes ``low, up`` (also ``[low, up]``),
  while in WHERE it is the standard ``BETWEEN low AND high``,
* Preference SQL queries may appear as the source of INSERT statements,
* sub-queries in the WHERE clause may **not** contain PREFERRING clauses
  (a stated restriction of release 1.3 — we raise
  :class:`~repro.errors.UnsupportedPreferenceSQL`).
"""

from __future__ import annotations

from repro.errors import ParseError, UnsupportedPreferenceSQL
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.tokens import Token, TokenType

#: Keywords that may double as identifiers (column/table/function names)
#: when the context demands a name.  Real deployments had columns called
#: ``level`` or ``score``; rejecting them would break pass-through parsing.
_SOFT_KEYWORDS = frozenset(
    {"TOP", "LEVEL", "DISTANCE", "SCORE", "CONTAINS", "EXPLICIT", "PREFERENCE", "CASCADE"}
)

_COMPARISON_OPS = ("=", "<>", "!=", "<", "<=", ">", ">=")


class Parser:
    """Parses one Preference SQL statement from a token stream."""

    def __init__(self, text: str):
        self._tokens = tokenize(text)
        self._index = 0
        self._param_count = 0

    # ------------------------------------------------------------------
    # Token helpers

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        found = token.value if token.type is not TokenType.EOF else "end of input"
        return ParseError(f"{message}, found {found!r}", token.line, token.column)

    def _accept_keyword(self, *names: str) -> Token | None:
        if self._peek().is_keyword(*names):
            return self._advance()
        return None

    def _expect_keyword(self, *names: str) -> Token:
        token = self._accept_keyword(*names)
        if token is None:
            raise self._error(f"expected {' or '.join(names)}")
        return token

    def _accept_operator(self, *ops: str) -> Token | None:
        if self._peek().is_operator(*ops):
            return self._advance()
        return None

    def _expect_operator(self, *ops: str) -> Token:
        token = self._accept_operator(*ops)
        if token is None:
            raise self._error(f"expected {' or '.join(repr(o) for o in ops)}")
        return token

    def _accept_word(self, *names: str) -> Token | None:
        """Accept a *soft word*: an identifier (or keyword) spelled like one
        of ``names``.  Used for constraint-DDL words (CONSTRAINT, KEY, CHECK,
        FD, DETERMINES) that are not lexer keywords, so plain queries can
        keep using them as column or table names."""
        token = self._peek()
        if token.type is TokenType.IDENT and token.value.upper() in names:
            return self._advance()
        if token.type is TokenType.KEYWORD and token.value in names:
            return self._advance()
        return None

    def _identifier(self, what: str = "identifier") -> str:
        token = self._peek()
        if token.type is TokenType.IDENT:
            return self._advance().value
        if token.type is TokenType.KEYWORD and token.value in _SOFT_KEYWORDS:
            return self._advance().value.lower()
        raise self._error(f"expected {what}")

    # ------------------------------------------------------------------
    # Statements

    def parse_statement(self) -> ast.Statement:
        """Parse exactly one statement; trailing ``;`` is allowed."""
        token = self._peek()
        if self._at_select():
            statement: ast.Statement = self.parse_select()
        elif token.is_keyword("INSERT"):
            statement = self._parse_insert()
        elif token.is_keyword("CREATE"):
            statement = self._parse_create_preference()
        elif token.is_keyword("DROP"):
            statement = self._parse_drop_preference()
        elif token.is_keyword("EXPLAIN"):
            statement = self._parse_explain_preference()
        else:
            raise self._error("expected SELECT, INSERT, CREATE, DROP or EXPLAIN")
        self._accept_operator(";")
        if self._peek().type is not TokenType.EOF:
            raise self._error("unexpected trailing input")
        _validate_restrictions(statement)
        return statement

    def _at_select(self) -> bool:
        """True when a SELECT block, or its WITH prologue, starts here."""
        token = self._peek()
        return token.is_keyword("SELECT") or (
            token.type is TokenType.IDENT and token.value.upper() == "WITH"
        )

    def parse_select(self) -> ast.Select:
        """Parse a (possibly preference-extended) SELECT block."""
        ctes: list[ast.CommonTable] = []
        if self._accept_word("WITH"):
            ctes.append(self._parse_common_table())
            while self._accept_operator(","):
                ctes.append(self._parse_common_table())
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT") is not None
        items = self._parse_select_list()
        self._expect_keyword("FROM")
        sources = self._parse_from_sources()

        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expression()

        preferring = None
        if self._accept_keyword("PREFERRING"):
            preferring = self.parse_preferring()

        grouping: tuple[ast.Column, ...] = ()
        if self._accept_keyword("GROUPING"):
            grouping = self._parse_column_list()

        but_only = None
        if self._accept_keyword("BUT"):
            self._expect_keyword("ONLY")
            but_only = self.parse_expression()

        group_by: tuple[ast.Expr, ...] = ()
        having = None
        if self._peek().is_keyword("GROUP"):
            self._advance()
            self._expect_keyword("BY")
            group_by = self._parse_expression_list()
            if self._accept_keyword("HAVING"):
                having = self.parse_expression()

        order_by: tuple[ast.OrderItem, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = self._parse_order_items()

        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = self.parse_expression()
            if self._accept_keyword("OFFSET"):
                offset = self.parse_expression()

        return ast.Select(
            items=items,
            sources=sources,
            where=where,
            preferring=preferring,
            grouping=grouping,
            but_only=but_only,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
            ctes=tuple(ctes),
        )

    def _parse_common_table(self) -> ast.CommonTable:
        name = self._identifier("common table name")
        self._expect_keyword("AS")
        materialized = self._accept_word("MATERIALIZED") is not None
        self._expect_operator("(")
        query = self.parse_select()
        self._expect_operator(")")
        return ast.CommonTable(name=name, query=query, materialized=materialized)

    def _parse_insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._identifier("table name")
        columns: tuple[str, ...] = ()
        if self._peek().is_operator("(") and self._looks_like_column_list():
            self._advance()
            names = [self._identifier("column name")]
            while self._accept_operator(","):
                names.append(self._identifier("column name"))
            self._expect_operator(")")
            columns = tuple(names)
        if self._accept_keyword("VALUES"):
            rows = [self._parse_value_row()]
            while self._accept_operator(","):
                rows.append(self._parse_value_row())
            return ast.Insert(table=table, columns=columns, values=tuple(rows))
        if self._at_select():
            return ast.Insert(table=table, columns=columns, query=self.parse_select())
        if self._peek().is_operator("(") and self._peek(1).is_keyword("SELECT"):
            self._advance()
            query = self.parse_select()
            self._expect_operator(")")
            return ast.Insert(table=table, columns=columns, query=query)
        raise self._error("expected VALUES or SELECT in INSERT")

    def _looks_like_column_list(self) -> bool:
        """Distinguish ``INSERT INTO t (a, b) ...`` from ``INSERT INTO t (SELECT ...)``."""
        return not self._peek(1).is_keyword("SELECT")

    def _parse_value_row(self) -> tuple[ast.Expr, ...]:
        self._expect_operator("(")
        values = [self.parse_expression()]
        while self._accept_operator(","):
            values.append(self.parse_expression())
        self._expect_operator(")")
        return tuple(values)

    def _parse_create_preference(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        self._expect_keyword("PREFERENCE")
        if self._accept_keyword("VIEW"):
            name = self._identifier("view name")
            self._expect_keyword("AS")
            if not self._peek().is_keyword("SELECT"):
                raise self._error("expected SELECT after CREATE PREFERENCE VIEW ... AS")
            return ast.CreatePreferenceView(name=name, query=self.parse_select())
        if self._accept_word("CONSTRAINT"):
            return self._parse_create_constraint()
        name = self._identifier("preference name")
        self._expect_keyword("ON")
        table = self._identifier("table name")
        self._expect_keyword("AS")
        term = self.parse_preferring()
        return ast.CreatePreference(name=name, table=table, term=term)

    def _parse_create_constraint(self) -> ast.CreatePreferenceConstraint:
        name = self._identifier("constraint name")
        self._expect_keyword("ON")
        table = self._identifier("table name")
        if self._accept_word("KEY"):
            return ast.CreatePreferenceConstraint(
                name=name, table=table, kind="key", columns=self._parse_name_list()
            )
        if self._accept_keyword("NOT"):
            self._expect_keyword("NULL")
            return ast.CreatePreferenceConstraint(
                name=name, table=table, kind="not_null", columns=self._parse_name_list()
            )
        if self._accept_word("CHECK"):
            self._expect_operator("(")
            check = self.parse_expression()
            self._expect_operator(")")
            return ast.CreatePreferenceConstraint(
                name=name, table=table, kind="check", check=check
            )
        if self._accept_word("FD"):
            columns = self._parse_name_list()
            if self._accept_word("DETERMINES") is None:
                raise self._error("expected DETERMINES after the FD column list")
            return ast.CreatePreferenceConstraint(
                name=name,
                table=table,
                kind="fd",
                columns=columns,
                determines=self._parse_name_list(),
            )
        raise self._error("expected KEY, NOT NULL, CHECK or FD")

    def _parse_name_list(self) -> tuple[str, ...]:
        self._expect_operator("(")
        names = [self._identifier("column name")]
        while self._accept_operator(","):
            names.append(self._identifier("column name"))
        self._expect_operator(")")
        return tuple(names)

    def _parse_drop_preference(self) -> ast.Statement:
        self._expect_keyword("DROP")
        self._expect_keyword("PREFERENCE")
        if self._accept_keyword("VIEW"):
            return ast.DropPreferenceView(name=self._identifier("view name"))
        if self._accept_word("CONSTRAINT"):
            return ast.DropPreferenceConstraint(name=self._identifier("constraint name"))
        return ast.DropPreference(name=self._identifier("preference name"))

    def _parse_explain_preference(self) -> ast.ExplainPreference:
        """``EXPLAIN PREFERENCE <select|insert>``.

        Note that plain ``EXPLAIN <statement>`` (the host database's own
        facility) is deliberately *not* part of the dialect: the driver
        lets it fall through to the pass-through path.
        """
        self._expect_keyword("EXPLAIN")
        self._expect_keyword("PREFERENCE")
        token = self._peek()
        if token.is_keyword("SELECT"):
            return ast.ExplainPreference(statement=self.parse_select())
        if token.is_keyword("INSERT"):
            return ast.ExplainPreference(statement=self._parse_insert())
        raise self._error("expected SELECT or INSERT after EXPLAIN PREFERENCE")

    # ------------------------------------------------------------------
    # Select clause pieces

    def _parse_select_list(self) -> tuple[ast.SelectItem | ast.Star, ...]:
        items: list[ast.SelectItem | ast.Star] = [self._parse_select_item()]
        while self._accept_operator(","):
            items.append(self._parse_select_item())
        return tuple(items)

    def _parse_select_item(self) -> ast.SelectItem | ast.Star:
        if self._peek().is_operator("*"):
            self._advance()
            return ast.Star()
        if (
            self._peek().type is TokenType.IDENT
            and self._peek(1).is_operator(".")
            and self._peek(2).is_operator("*")
        ):
            table = self._advance().value
            self._advance()
            self._advance()
            return ast.Star(table=table)
        expr = self.parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._identifier("alias")
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().value
        return ast.SelectItem(expr=expr, alias=alias)

    def _parse_from_sources(self) -> tuple[ast.FromSource, ...]:
        sources = [self._parse_from_source()]
        while self._accept_operator(","):
            sources.append(self._parse_from_source())
        return tuple(sources)

    def _parse_from_source(self) -> ast.FromSource:
        source = self._parse_table_primary()
        while True:
            kind = None
            if self._accept_keyword("JOIN"):
                kind = "INNER"
            elif self._peek().is_keyword("INNER"):
                self._advance()
                self._expect_keyword("JOIN")
                kind = "INNER"
            elif self._peek().is_keyword("LEFT"):
                self._advance()
                self._accept_keyword("OUTER")
                self._expect_keyword("JOIN")
                kind = "LEFT"
            elif self._peek().is_keyword("CROSS"):
                self._advance()
                self._expect_keyword("JOIN")
                kind = "CROSS"
            if kind is None:
                return source
            right = self._parse_table_primary()
            condition = None
            if kind != "CROSS":
                self._expect_keyword("ON")
                condition = self.parse_expression()
            source = ast.Join(kind=kind, left=source, right=right, condition=condition)

    def _parse_table_primary(self) -> ast.FromSource:
        if self._accept_operator("("):
            query = self.parse_select()
            self._expect_operator(")")
            self._accept_keyword("AS")
            alias = self._identifier("derived table alias")
            return ast.SubquerySource(query=query, alias=alias)
        name = self._identifier("table name")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._identifier("alias")
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().value
        return ast.TableRef(name=name, alias=alias)

    def _parse_column_list(self) -> tuple[ast.Column, ...]:
        columns = [self._parse_column()]
        while self._accept_operator(","):
            columns.append(self._parse_column())
        return tuple(columns)

    def _parse_column(self) -> ast.Column:
        first = self._identifier("column name")
        if self._peek().is_operator(".") and not self._peek(1).is_operator("*"):
            self._advance()
            return ast.Column(name=self._identifier("column name"), table=first)
        return ast.Column(name=first)

    def _parse_order_items(self) -> tuple[ast.OrderItem, ...]:
        items = [self._parse_order_item()]
        while self._accept_operator(","):
            items.append(self._parse_order_item())
        return tuple(items)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expression()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr=expr, descending=descending)

    def _parse_expression_list(self) -> tuple[ast.Expr, ...]:
        items = [self.parse_expression()]
        while self._accept_operator(","):
            items.append(self.parse_expression())
        return tuple(items)

    # ------------------------------------------------------------------
    # Preference terms

    def parse_preferring(self) -> ast.PrefTerm:
        """Parse a full preference term (CASCADE chain)."""
        parts = [self._parse_pareto()]
        while True:
            if self._accept_keyword("CASCADE") or self._accept_operator(","):
                parts.append(self._parse_pareto())
            else:
                break
        if len(parts) == 1:
            return parts[0]
        return ast.CascadePref(parts=tuple(parts))

    def _parse_pareto(self) -> ast.PrefTerm:
        parts = [self._parse_layered()]
        while self._accept_keyword("AND"):
            parts.append(self._parse_layered())
        if len(parts) == 1:
            return parts[0]
        return ast.ParetoPref(parts=tuple(parts))

    def _parse_layered(self) -> ast.PrefTerm:
        parts = [self._parse_pref_primary()]
        while self._accept_keyword("ELSE"):
            parts.append(self._parse_pref_primary())
        if len(parts) == 1:
            return parts[0]
        return ast.ElsePref(parts=tuple(parts))

    def _parse_pref_primary(self) -> ast.PrefTerm:
        token = self._peek()
        if token.is_keyword("LOWEST", "HIGHEST", "SCORE"):
            self._advance()
            if not self._peek().is_operator("("):
                # The common slip is ``PREFERRING LOWEST price``; name the
                # call form instead of a bare "expected '('".
                keyword = token.value
                raise self._error(
                    f"{keyword} takes a parenthesised operand — write "
                    f"{keyword}(<expression>), e.g. {keyword}(price)"
                )
            self._advance()
            operand = self.parse_expression()
            self._expect_operator(")")
            if token.value == "LOWEST":
                return ast.LowestPref(operand=operand)
            if token.value == "HIGHEST":
                return ast.HighestPref(operand=operand)
            return ast.ScorePref(operand=operand)
        if token.is_keyword("AROUND"):
            # AROUND is an infix constructor; leading use (e.g.
            # ``AROUND(price, 40)``) otherwise dies deep inside the
            # expression parser with an unhelpful message.
            raise self._error(
                "AROUND is an infix preference constructor — write "
                "<expression> AROUND <value>, e.g. price AROUND 40000"
            )
        if token.is_keyword("CONTAINS") and not self._peek(1).is_operator("("):
            # CONTAINS is also a soft keyword (a column or function name
            # followed by ``(`` still parses as an expression).
            raise self._error(
                "CONTAINS is an infix preference constructor — write "
                "<expression> CONTAINS <terms>, e.g. name CONTAINS 'plaza park'"
            )
        if token.is_keyword("BETWEEN"):
            raise self._error(
                "BETWEEN is an infix preference constructor — write "
                "<expression> BETWEEN low, up, e.g. price BETWEEN 1000, 1500"
            )
        if token.is_keyword("EXPLICIT"):
            return self._parse_explicit()
        if token.is_keyword("PREFERENCE"):
            self._advance()
            return ast.NamedPref(name=self._identifier("preference name"))
        if token.is_operator("("):
            # Either a grouped preference chain or a parenthesised operand
            # expression of a base preference; try the chain first.
            saved = self._index
            try:
                self._advance()
                term = self.parse_preferring()
                self._expect_operator(")")
                return term
            except ParseError:
                self._index = saved
        return self._parse_base_on_expression()

    def _parse_explicit(self) -> ast.ExplicitPref:
        self._expect_keyword("EXPLICIT")
        if not self._peek().is_operator("("):
            raise self._error(
                "EXPLICIT takes a parenthesised operand and pair list — "
                "write EXPLICIT(<expression>, 'better' > 'worse', ...), "
                "e.g. EXPLICIT(color, 'white' > 'yellow')"
            )
        self._advance()
        operand = self.parse_expression()
        pairs: list[tuple[ast.Expr, ast.Expr]] = []
        while self._accept_operator(","):
            better = self._parse_additive()
            self._expect_operator(">")
            worse = self._parse_additive()
            pairs.append((better, worse))
        self._expect_operator(")")
        if not pairs:
            raise self._error("EXPLICIT requires at least one 'better > worse' pair")
        return ast.ExplicitPref(operand=operand, pairs=tuple(pairs))

    def _parse_base_on_expression(self) -> ast.PrefTerm:
        operand = self._parse_additive()
        token = self._peek()
        if token.is_keyword("AROUND"):
            self._advance()
            return ast.AroundPref(operand=operand, target=self._parse_additive())
        if token.is_keyword("BETWEEN"):
            self._advance()
            bracketed = self._accept_operator("[") is not None
            low = self._parse_additive()
            self._expect_operator(",")
            high = self._parse_additive()
            if bracketed:
                self._expect_operator("]")
            return ast.BetweenPref(operand=operand, low=low, high=high)
        if token.is_keyword("CONTAINS"):
            self._advance()
            return ast.ContainsPref(operand=operand, terms=self._parse_additive())
        if token.is_keyword("IN"):
            self._advance()
            return ast.PosPref(operand=operand, values=self._parse_pref_value_list())
        if token.is_keyword("NOT"):
            self._advance()
            self._expect_keyword("IN")
            return ast.NegPref(operand=operand, values=self._parse_pref_value_list())
        if token.is_operator("="):
            self._advance()
            return ast.PosPref(operand=operand, values=(self._parse_additive(),))
        if token.is_operator("<>", "!="):
            self._advance()
            return ast.NegPref(operand=operand, values=(self._parse_additive(),))
        raise self._error(
            "expected a preference operator (AROUND, BETWEEN, IN, NOT IN, "
            "=, <>, CONTAINS) after expression"
        )

    def _parse_pref_value_list(self) -> tuple[ast.Expr, ...]:
        self._expect_operator("(")
        values = [self._parse_additive()]
        while self._accept_operator(","):
            values.append(self._parse_additive())
        self._expect_operator(")")
        return tuple(values)

    # ------------------------------------------------------------------
    # Expressions

    def parse_expression(self) -> ast.Expr:
        """Parse a boolean/scalar expression (OR has lowest precedence)."""
        expr = self._parse_and()
        while self._accept_keyword("OR"):
            expr = ast.Binary(op="OR", left=expr, right=self._parse_and())
        return expr

    def _parse_and(self) -> ast.Expr:
        expr = self._parse_not()
        while self._accept_keyword("AND"):
            expr = ast.Binary(op="AND", left=expr, right=self._parse_not())
        return expr

    def _parse_not(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.Unary(op="NOT", operand=self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expr:
        expr = self._parse_additive()
        token = self._peek()

        negated = False
        if token.is_keyword("NOT") and self._peek(1).is_keyword("IN", "BETWEEN", "LIKE"):
            self._advance()
            negated = True
            token = self._peek()

        if token.is_keyword("IN"):
            self._advance()
            self._expect_operator("(")
            if self._peek().is_keyword("SELECT"):
                query = self.parse_select()
                self._expect_operator(")")
                return ast.InSubquery(operand=expr, query=query, negated=negated)
            items = [self.parse_expression()]
            while self._accept_operator(","):
                items.append(self.parse_expression())
            self._expect_operator(")")
            return ast.InList(operand=expr, items=tuple(items), negated=negated)
        if token.is_keyword("BETWEEN"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return ast.BetweenExpr(operand=expr, low=low, high=high, negated=negated)
        if token.is_keyword("LIKE"):
            self._advance()
            pattern = self._parse_additive()
            like = ast.Binary(op="LIKE", left=expr, right=pattern)
            return ast.Unary(op="NOT", operand=like) if negated else like
        if token.is_keyword("IS"):
            self._advance()
            is_negated = self._accept_keyword("NOT") is not None
            if is_negated or self._peek().is_keyword("NULL"):
                self._expect_keyword("NULL")
                return ast.IsNull(operand=expr, negated=is_negated)
            return ast.Binary(op="IS", left=expr, right=self._parse_additive())
        operator = self._accept_operator(*_COMPARISON_OPS)
        if operator is not None:
            op = "<>" if operator.value == "!=" else operator.value
            return ast.Binary(op=op, left=expr, right=self._parse_additive())
        return expr

    def _parse_additive(self) -> ast.Expr:
        expr = self._parse_multiplicative()
        while True:
            operator = self._accept_operator("+", "-", "||")
            if operator is None:
                return expr
            expr = ast.Binary(op=operator.value, left=expr, right=self._parse_multiplicative())

    def _parse_multiplicative(self) -> ast.Expr:
        expr = self._parse_unary()
        while True:
            operator = self._accept_operator("*", "/", "%")
            if operator is None:
                return expr
            expr = ast.Binary(op=operator.value, left=expr, right=self._parse_unary())

    def _parse_unary(self) -> ast.Expr:
        operator = self._accept_operator("-", "+")
        if operator is not None:
            return ast.Unary(op=operator.value, operand=self._parse_unary())
        expr = self._parse_primary()
        while self._accept_keyword("COLLATE"):
            expr = ast.Collate(
                operand=expr, collation=self._identifier("collation name").upper()
            )
        return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()

        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            if any(ch in text for ch in ".eE"):
                return ast.Literal(value=float(text))
            return ast.Literal(value=int(text))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(value=token.value)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(value=None)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(value=True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(value=False)
        if token.type is TokenType.PARAM:
            self._advance()
            param = ast.Param(index=self._param_count)
            self._param_count += 1
            return param
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword("EXISTS"):
            self._advance()
            self._expect_operator("(")
            query = self.parse_select()
            self._expect_operator(")")
            return ast.Exists(query=query)
        if token.is_operator("("):
            self._advance()
            if self._peek().is_keyword("SELECT"):
                query = self.parse_select()
                self._expect_operator(")")
                return ast.ScalarSubquery(query=query)
            expr = self.parse_expression()
            self._expect_operator(")")
            return expr

        # Function call, including quality functions and COUNT(*).
        is_name = token.type is TokenType.IDENT or (
            token.type is TokenType.KEYWORD and token.value in _SOFT_KEYWORDS
        )
        if is_name and self._peek(1).is_operator("("):
            name = self._advance().value.upper()
            if name == "CAST":
                return self._parse_cast()
            self._expect_operator("(")
            if self._accept_operator("*"):
                self._expect_operator(")")
                return ast.FuncCall(name=name, args=(), star=True)
            args: list[ast.Expr] = []
            if not self._peek().is_operator(")"):
                args.append(self.parse_expression())
                while self._accept_operator(","):
                    args.append(self.parse_expression())
            self._expect_operator(")")
            return ast.FuncCall(name=name, args=tuple(args))

        if is_name:
            return self._parse_column()
        raise self._error("expected an expression")

    def _parse_cast(self) -> ast.Expr:
        self._expect_operator("(")
        operand = self.parse_expression()
        self._expect_keyword("AS")
        type_name = self._identifier("type name").upper()
        self._expect_operator(")")
        return ast.Cast(operand=operand, type_name=type_name)

    def _parse_case(self) -> ast.Expr:
        self._expect_keyword("CASE")
        branches: list[tuple[ast.Expr, ast.Expr]] = []
        while self._accept_keyword("WHEN"):
            condition = self.parse_expression()
            self._expect_keyword("THEN")
            value = self.parse_expression()
            branches.append((condition, value))
        if not branches:
            raise self._error("CASE requires at least one WHEN branch")
        otherwise = None
        if self._accept_keyword("ELSE"):
            otherwise = self.parse_expression()
        self._expect_keyword("END")
        return ast.CaseWhen(branches=tuple(branches), otherwise=otherwise)


# ----------------------------------------------------------------------
# Module-level helpers


def parse_statement(text: str) -> ast.Statement:
    """Parse one statement (SELECT, INSERT, CREATE/DROP PREFERENCE)."""
    return Parser(text).parse_statement()


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone scalar/boolean expression (used in tests)."""
    parser = Parser(text)
    expr = parser.parse_expression()
    if parser._peek().type is not TokenType.EOF:
        raise parser._error("unexpected trailing input after expression")
    return expr


def parse_preferring(text: str) -> ast.PrefTerm:
    """Parse a standalone preference term, e.g. ``price AROUND 40000``."""
    parser = Parser(text)
    term = parser.parse_preferring()
    if parser._peek().type is not TokenType.EOF:
        raise parser._error("unexpected trailing input after preference")
    return term


def _validate_restrictions(statement: ast.Statement) -> None:
    """Enforce the release 1.3 restriction from paper section 2.2.5, and
    keep WITH prologues to plain SQL (the rewriter emits them itself)."""
    if isinstance(statement, ast.ExplainPreference):
        _validate_restrictions(statement.statement)
        return
    query = None
    if isinstance(statement, (ast.CreatePreferenceView, ast.Insert)):
        query = statement.query
    elif isinstance(statement, ast.Select):
        query = statement
    if query is None:
        return
    if query.ctes and query.is_preference_query:
        raise UnsupportedPreferenceSQL(
            "a WITH prologue cannot be combined with PREFERRING"
        )
    _check_where_subqueries(query)


def _subqueries_of(expr: ast.Expr):
    for node in ast.walk_expr(expr):
        if isinstance(node, ast.SUBQUERIES):
            yield node.query


def _check_where_subqueries(select: ast.Select) -> None:
    for clause in (select.where, select.having, select.but_only):
        if clause is None:
            continue
        for query in _subqueries_of(clause):
            _reject_preferring(query)
    for source in select.sources:
        for node in ast.walk(source, ast.FROM_SOURCES):
            if isinstance(node, ast.SubquerySource):
                _check_where_subqueries(node.query)


def _reject_preferring(query: ast.Select) -> None:
    if query.preferring is not None:
        raise UnsupportedPreferenceSQL(
            "sub-queries in the WHERE clause may not contain PREFERRING "
            "clauses (Preference SQL 1.3 restriction, paper section 2.2.5)"
        )
    for clause in (query.where, query.having):
        if clause is None:
            continue
        for nested in _subqueries_of(clause):
            _reject_preferring(nested)
