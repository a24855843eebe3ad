"""Hand-written tokenizer for the Preference SQL dialect.

The lexer is deliberately small and strict: the commercial Preference SQL
pre-processor sat in front of production databases, so garbage input had to
be rejected at the door with a position-accurate error instead of being
forwarded half-parsed to the host SQL system.
"""

from __future__ import annotations

from repro.errors import LexerError
from repro.sql.tokens import KEYWORDS, OPERATORS, Token, TokenType


class Lexer:
    """Turns Preference SQL text into a list of :class:`Token` objects."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokens(self) -> list[Token]:
        """Tokenize the whole input, ending with a single EOF token."""
        result: list[Token] = []
        while True:
            token = self._next_token()
            result.append(token)
            if token.type is TokenType.EOF:
                return result

    # ------------------------------------------------------------------
    # Internals

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= len(self._text):
            return ""
        return self._text[index]

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos < len(self._text):
                if self._text[self._pos] == "\n":
                    self._line += 1
                    self._column = 1
                else:
                    self._column += 1
                self._pos += 1

    def _skip_whitespace_and_comments(self) -> None:
        while True:
            char = self._peek()
            if char and char.isspace():
                self._advance()
            elif char == "-" and self._peek(1) == "-":
                while self._peek() and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                start, start_line, start_col = self._pos, self._line, self._column
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if not self._peek():
                        raise LexerError(
                            "unterminated block comment",
                            start,
                            start_line,
                            start_col,
                        )
                    self._advance()
                self._advance(2)
            else:
                return

    def _make(self, token_type: TokenType, value: str, start: int, line: int, column: int) -> Token:
        return Token(token_type, value, start, line, column)

    def _next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        start, line, column = self._pos, self._line, self._column
        char = self._peek()

        if not char:
            return self._make(TokenType.EOF, "", start, line, column)
        if char == "?":
            self._advance()
            return self._make(TokenType.PARAM, "?", start, line, column)
        if char == "'":
            return self._string_literal()
        if char == '"':
            return self._quoted_identifier()
        if char.isdecimal() or (char == "." and self._peek(1).isdecimal()):
            return self._number()
        if char.isalpha() or char == "_":
            return self._word()
        for operator in OPERATORS:
            if self._text.startswith(operator, self._pos):
                self._advance(len(operator))
                return self._make(TokenType.OPERATOR, operator, start, line, column)
        raise LexerError(f"unexpected character {char!r}", start, line, column)

    def _string_literal(self) -> Token:
        start, line, column = self._pos, self._line, self._column
        self._advance()  # opening quote
        parts: list[str] = []
        while True:
            char = self._peek()
            if not char:
                raise LexerError("unterminated string literal", start, line, column)
            if char == "'":
                if self._peek(1) == "'":  # SQL escape: '' -> '
                    parts.append("'")
                    self._advance(2)
                    continue
                self._advance()
                return self._make(TokenType.STRING, "".join(parts), start, line, column)
            parts.append(char)
            self._advance()

    def _quoted_identifier(self) -> Token:
        start, line, column = self._pos, self._line, self._column
        self._advance()  # opening quote
        parts: list[str] = []
        while True:
            char = self._peek()
            if not char:
                raise LexerError("unterminated quoted identifier", start, line, column)
            if char == '"':
                if self._peek(1) == '"':
                    parts.append('"')
                    self._advance(2)
                    continue
                self._advance()
                if not parts:
                    raise LexerError("empty quoted identifier", start, line, column)
                return self._make(TokenType.IDENT, "".join(parts), start, line, column)
            parts.append(char)
            self._advance()

    def _number(self) -> Token:
        start, line, column = self._pos, self._line, self._column
        seen_dot = False
        seen_exp = False
        while True:
            char = self._peek()
            if char.isdecimal():
                self._advance()
            elif char == "." and not seen_dot and not seen_exp:
                seen_dot = True
                self._advance()
            elif char in ("e", "E") and not seen_exp and self._pos > start:
                nxt = self._peek(1)
                if nxt.isdecimal() or (nxt in "+-" and self._peek(2).isdecimal()):
                    seen_exp = True
                    self._advance()
                    if self._peek() in "+-":
                        self._advance()
                else:
                    break
            else:
                break
        text = self._text[start : self._pos]
        if text in (".",):
            raise LexerError("malformed number", start, line, column)
        return self._make(TokenType.NUMBER, text, start, line, column)

    def _word(self) -> Token:
        start, line, column = self._pos, self._line, self._column
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self._text[start : self._pos]
        upper = text.upper()
        if upper in KEYWORDS:
            return self._make(TokenType.KEYWORD, upper, start, line, column)
        return self._make(TokenType.IDENT, text, start, line, column)


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` and return the token list (EOF-terminated)."""
    return Lexer(text).tokens()
