"""Tokenizer unit tests."""

import pytest

import repro
from repro.errors import LexerError, PreferenceSQLError
from repro.sql.lexer import tokenize
from repro.sql.tokens import TokenType


def kinds(text):
    return [(t.type, t.value) for t in tokenize(text) if t.type is not TokenType.EOF]


class TestBasicTokens:
    def test_keywords_are_case_insensitive(self):
        for text in ("select", "SELECT", "SeLeCt"):
            tokens = tokenize(text)
            assert tokens[0].type is TokenType.KEYWORD
            assert tokens[0].value == "SELECT"

    def test_preference_keywords(self):
        for keyword in ("PREFERRING", "CASCADE", "AROUND", "LOWEST", "HIGHEST",
                        "GROUPING", "BUT", "ONLY", "CONTAINS", "EXPLICIT",
                        "TOP", "LEVEL", "DISTANCE", "PREFERENCE", "SCORE"):
            token = tokenize(keyword.lower())[0]
            assert token.type is TokenType.KEYWORD
            assert token.value == keyword

    def test_identifier_keeps_spelling(self):
        token = tokenize("MainMemory")[0]
        assert token.type is TokenType.IDENT
        assert token.value == "MainMemory"

    def test_identifier_with_underscore_and_digits(self):
        assert kinds("skill_01") == [(TokenType.IDENT, "skill_01")]

    def test_eof_token_always_last(self):
        tokens = tokenize("x")
        assert tokens[-1].type is TokenType.EOF

    def test_empty_input(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF


class TestNumbers:
    def test_integer(self):
        assert kinds("40000") == [(TokenType.NUMBER, "40000")]

    def test_float(self):
        assert kinds("0.9") == [(TokenType.NUMBER, "0.9")]

    def test_leading_dot_float(self):
        assert kinds(".5") == [(TokenType.NUMBER, ".5")]

    def test_exponent(self):
        assert kinds("1e15") == [(TokenType.NUMBER, "1e15")]
        assert kinds("2.5E-3") == [(TokenType.NUMBER, "2.5E-3")]

    def test_number_then_dot_dot_is_not_consumed(self):
        values = kinds("1.2.3")
        assert values[0] == (TokenType.NUMBER, "1.2")

    def test_exponent_without_digits_stops(self):
        # `1e` is number 1 followed by identifier e
        assert kinds("1e") == [(TokenType.NUMBER, "1"), (TokenType.IDENT, "e")]

    @pytest.mark.parametrize("text", ["²", "³", "1²", "2.5³", ".²", "½"])
    def test_non_decimal_digits_raise_lexer_errors(self, text):
        # str.isdigit() holds for superscripts, which int() and float()
        # refuse: only decimal digits may start or continue a number.
        with pytest.raises(LexerError):
            tokenize(text)

    @pytest.mark.parametrize("digit", ["²", "³", "1²"])
    def test_connection_reports_the_lexer_error(self, digit):
        con = repro.connect(":memory:")
        con.execute("CREATE TABLE t (x, a)")
        with pytest.raises(PreferenceSQLError, match="unexpected character"):
            con.execute(f"SELECT x FROM t PREFERRING LOWEST(a) BUT ONLY a < {digit}")
        con.close()


class TestStrings:
    def test_simple_string(self):
        assert kinds("'java'") == [(TokenType.STRING, "java")]

    def test_escaped_quote(self):
        assert kinds("'it''s'") == [(TokenType.STRING, "it's")]

    def test_empty_string(self):
        assert kinds("''") == [(TokenType.STRING, "")]

    def test_string_with_spaces_and_keywords(self):
        assert kinds("'SELECT around'") == [(TokenType.STRING, "SELECT around")]

    def test_unterminated_string_raises(self):
        with pytest.raises(LexerError):
            tokenize("'oops")

    def test_quoted_identifier(self):
        assert kinds('"LEVEL(color)"') == [(TokenType.IDENT, "LEVEL(color)")]

    def test_quoted_identifier_escape(self):
        assert kinds('"a""b"') == [(TokenType.IDENT, 'a"b')]

    def test_empty_quoted_identifier_raises(self):
        with pytest.raises(LexerError):
            tokenize('""')

    def test_unterminated_quoted_identifier_raises(self):
        with pytest.raises(LexerError):
            tokenize('"oops')


class TestOperators:
    def test_multi_char_operators_greedy(self):
        assert kinds("<= >= <> != ||") == [
            (TokenType.OPERATOR, "<="),
            (TokenType.OPERATOR, ">="),
            (TokenType.OPERATOR, "<>"),
            (TokenType.OPERATOR, "!="),
            (TokenType.OPERATOR, "||"),
        ]

    def test_single_char_operators(self):
        text = "= < > + - * / % ( ) , . ; [ ]"
        values = [v for _t, v in kinds(text)]
        assert values == text.split()

    def test_parameter_marker(self):
        assert kinds("?") == [(TokenType.PARAM, "?")]

    def test_unknown_character_raises_with_position(self):
        with pytest.raises(LexerError) as info:
            tokenize("a @ b")
        assert info.value.column == 3
        assert info.value.line == 1


class TestCommentsAndWhitespace:
    def test_line_comment(self):
        assert kinds("a -- comment\n b") == [
            (TokenType.IDENT, "a"),
            (TokenType.IDENT, "b"),
        ]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [
            (TokenType.IDENT, "a"),
            (TokenType.IDENT, "b"),
        ]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexerError):
            tokenize("a /* never closed")

    def test_unterminated_block_comment_points_at_its_start(self):
        # Position, line and column all name the opening ``/*``, like the
        # lexer's other "unterminated" and "unexpected" errors.
        with pytest.raises(LexerError) as info:
            tokenize("<==\n/*x")
        assert (info.value.position, info.value.line, info.value.column) == (4, 2, 1)

    def test_newlines_advance_line_numbers(self):
        tokens = tokenize("a\nb\n  c")
        assert [t.line for t in tokens[:3]] == [1, 2, 3]
        assert tokens[2].column == 3


class TestRealQueries:
    def test_paper_query_token_stream(self):
        tokens = tokenize("SELECT * FROM trips PREFERRING duration AROUND 14;")
        values = [t.value for t in tokens if t.type is not TokenType.EOF]
        assert values == [
            "SELECT", "*", "FROM", "trips", "PREFERRING", "duration",
            "AROUND", "14", ";",
        ]

    def test_token_helpers(self):
        token = tokenize("PREFERRING")[0]
        assert token.is_keyword("PREFERRING")
        assert token.is_keyword("SELECT", "PREFERRING")
        assert not token.is_keyword("SELECT")
        op = tokenize("<=")[0]
        assert op.is_operator("<=")
        assert not op.is_operator("<")
