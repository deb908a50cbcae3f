"""Tokenizer for the mini-JavaScript engine.

Produces a flat list of :class:`Token` objects from source text.  The token
set covers the JavaScript subset the reproduction needs: the full statement
grammar of ES3-style code (``var``/``function``/control flow/``try``),
string/number/regex-free literals, and the operator inventory real pages'
race-prone code uses (assignment and compound assignment, equality in both
strict and loose flavours, logical/bitwise/arithmetic operators, ``typeof``,
``instanceof``, ``in``, ``new``, ``delete``).

The lexer is one compiled master regex, :data:`_TOKEN`, matched at each
position in turn; the name of the alternative that matched
(``match.lastgroup``) says what kind of token it is.  Whitespace and
comments match together as one ``trivia`` run.  Lines and columns are
1-based and count code points: each match advances the line by the ``"\\n"``
characters it contains, and a column is the offset from the last line start.
Malformed input (an unterminated string or block comment, a newline in a
string, a malformed hex literal, exponent, ``\\u`` or ``\\x`` escape, or a
character no token starts with) raises :class:`JSSyntaxError`.  Identifiers
start with a character for which ``str.isalpha()`` holds or with ``_``/``$``
and continue with ``str.isalnum()`` characters or ``_``/``$``; digits in
numbers are ASCII only.

Regex literals are deliberately unsupported — none of the paper's examples
need them and they complicate lexing disproportionately; scripts use string
methods instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from .errors import JSSyntaxError

#: Reserved words recognised as distinct token types.
KEYWORDS = frozenset(
    [
        "var",
        "function",
        "return",
        "if",
        "else",
        "while",
        "do",
        "for",
        "break",
        "continue",
        "new",
        "delete",
        "typeof",
        "instanceof",
        "in",
        "this",
        "null",
        "true",
        "false",
        "undefined",
        "try",
        "catch",
        "finally",
        "throw",
        "switch",
        "case",
        "default",
        "void",
    ]
)

_STRING_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "0": "\0",
    "'": "'",
    '"': '"',
    "\\": "\\",
    "/": "/",
}

#: Alternatives are tried in order, so the first that matches wins: an
#: unterminated ``/*`` is caught before ``/`` can match it as a punctuator,
#: hex before decimal, ``.5`` before ``.``, and the punctuators go longest
#: first (maximal munch).  ``\w`` is exactly ``str.isalnum()`` plus ``_``;
#: ``word`` catches identifiers whose first character is not ASCII, whose
#: start the tokenizer checks with ``str.isalpha()``.  ``bad`` matches any
#: other single character, so every position matches something.
_TOKEN = re.compile(
    r"""
    (?P<trivia> (?: [ \t\r\n\f\v]+ | //[^\n]* | /\*[\s\S]*?\*/ )+ )
  | (?P<open_comment> /\* )
  | (?P<ident> [A-Za-z_$][\w$]* )
  | (?P<hex> 0[xX][0-9a-fA-F]* )
  | (?P<num> (?: [0-9]+ (?:\.[0-9]*)? | \.[0-9]+ ) (?: [eE][+-]?[0-9]* )? )
  | (?P<punct> >>> | === | !== | <<= | >>= | [=!<>+\-*/%&|^]= | && | \|\|
             | \+\+ | -- | << | >> | [{}()\[\];,<>+\-*/%=!?:.&|^~] )
  | (?P<str> "[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*" | '[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*' )
  | (?P<word> [\w$]+ )
  | (?P<bad> [\s\S] )
    """,
    re.VERBOSE,
)

#: The part of a string literal before whatever ends it early: a newline,
#: or the end of input (possibly after a lone backslash).
_STRING_PREFIX = {
    '"': re.compile(r'"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*'),
    "'": re.compile(r"'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*"),
}

_ESCAPE = re.compile(r"\\(?:u([0-9a-fA-F]{4})|x([0-9a-fA-F]{2})|([\s\S]))")


@dataclass
class Token:
    """One lexical token.

    ``type`` is one of ``"num"``, ``"str"``, ``"ident"``, ``"punct"``,
    ``"eof"``, or a keyword string from :data:`KEYWORDS`.  ``value`` holds
    the decoded payload (float for numbers, decoded text for strings, the
    identifier/punctuator text otherwise).
    """

    type: str
    value: object
    line: int
    column: int

    def is_punct(self, text: str) -> bool:
        """Is this the punctuator ``text``?"""
        return self.type == "punct" and self.value == text

    def __repr__(self) -> str:
        return f"Token({self.type!r}, {self.value!r}, {self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` into a token list ending with an ``eof`` token."""
    tokens: List[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text = match.group()
        start = match.start()
        if kind == "trivia":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        column = start - line_start + 1
        if kind == "punct":
            append(Token("punct", text, line, column))
        elif kind == "ident" or (
            kind == "word" and (text[0].isalpha() or text[0] in "_$")
        ):
            append(Token(text if text in KEYWORDS else "ident", text, line, column))
        elif kind == "num":
            if text[-1] in "eE+-":
                raise _error_at(source, match.end(), "malformed exponent")
            append(Token("num", float(text), line, column))
        elif kind == "str":
            body = text[1:-1]
            if "\\" in body:
                body = _decode_escapes(source, body, start + 1)
            append(Token("str", body, line, column))
            newlines = text.count("\n")  # escaped by a backslash
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
        elif kind == "hex":
            if len(text) == 2:
                raise _error_at(source, match.end(), "malformed hex literal")
            try:
                value = float(int(text, 16))
            except OverflowError:
                value = float("inf")
            append(Token("num", value, line, column))
        elif kind == "open_comment":
            raise JSSyntaxError("unterminated block comment", line, column)
        elif text in "\"'":
            prefix = _STRING_PREFIX[text].match(source, start).group()
            _decode_escapes(source, prefix[1:], start + 1)
            if source.startswith("\n", start + len(prefix)):
                raise JSSyntaxError("newline in string literal", line, column)
            raise JSSyntaxError("unterminated string literal", line, column)
        else:
            raise JSSyntaxError(f"unexpected character {text[0]!r}", line, column)
    append(Token("eof", None, line, len(source) - line_start + 1))
    return tokens


def _decode_escapes(source: str, body: str, offset: int) -> str:
    """Decode the backslash escapes of a string body found at ``offset``.

    Unknown escapes keep the escaped character, per spec.  A ``\\u`` or
    ``\\x`` without its 4 or 2 hex digits raises, positioned just after
    the ``u``/``x``.
    """

    def escape(match: "re.Match[str]") -> str:
        unicode, hex_pair, other = match.groups()
        if unicode or hex_pair:
            return chr(int(unicode or hex_pair, 16))
        if other == "u" or other == "x":
            kind = "unicode" if other == "u" else "hex"
            position = offset + match.start() + 2
            raise _error_at(source, position, f"malformed {kind} escape")
        return _STRING_ESCAPES.get(other, other)

    return _ESCAPE.sub(escape, body)


def _error_at(source: str, pos: int, message: str) -> JSSyntaxError:
    line = source.count("\n", 0, pos) + 1
    return JSSyntaxError(message, line, pos - source.rfind("\n", 0, pos))
