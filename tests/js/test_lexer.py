"""Tests for the JavaScript lexer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.html.tokenizer import StartTag, Text, tokenize_html
from repro.js.errors import JSSyntaxError
from repro.js.lexer import _TOKEN, Token, tokenize
from repro.sites.corpus import build_corpus

from .reference_lexer import reference_tokenize


def types(source):
    return [token.type for token in tokenize(source)]


def values(source):
    return [token.value for token in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type == "eof"

    def test_whitespace_only_yields_eof(self):
        assert types("  \t\n\r  ") == ["eof"]

    def test_identifier(self):
        tokens = tokenize("foo")
        assert tokens[0].type == "ident"
        assert tokens[0].value == "foo"

    def test_identifier_with_digits_and_specials(self):
        assert values("$jQuery _priv x1y2") == ["$jQuery", "_priv", "x1y2"]

    def test_identifier_at_end_of_input_terminates(self):
        # Regression: "" in "_$" is True in Python; the loop must not spin.
        tokens = tokenize("x")
        assert tokens[0].value == "x"
        assert tokens[1].type == "eof"

    def test_keywords_are_distinct_token_types(self):
        assert types("var function return if") == [
            "var",
            "function",
            "return",
            "if",
            "eof",
        ]

    def test_keyword_prefix_is_still_identifier(self):
        tokens = tokenize("variable functional iffy")
        assert all(token.type == "ident" for token in tokens[:-1])


class TestNumbers:
    def test_integer(self):
        assert values("42") == [42.0]

    def test_float(self):
        assert values("3.25") == [3.25]

    def test_leading_dot(self):
        assert values(".5") == [0.5]

    def test_exponent(self):
        assert values("1e3 2.5e-2 1E+2") == [1000.0, 0.025, 100.0]

    def test_number_at_end_of_input(self):
        assert values("x = 2")[-1] == 2.0

    def test_hex(self):
        assert values("0xff 0X10") == [255.0, 16.0]

    def test_malformed_hex_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("0x")

    def test_malformed_exponent_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("1e")


class TestStrings:
    def test_double_quoted(self):
        assert values('"hello"') == ["hello"]

    def test_single_quoted(self):
        assert values("'world'") == ["world"]

    def test_escapes(self):
        assert values(r"'a\nb\tc\\d'") == ["a\nb\tc\\d"]

    def test_quote_escapes(self):
        assert values(r'"she said \"hi\""') == ['she said "hi"']

    def test_unicode_escape(self):
        assert values(r"'A'") == ["A"]

    def test_hex_escape(self):
        assert values(r"'\x41'") == ["A"]

    def test_unknown_escape_keeps_char(self):
        assert values(r"'\q'") == ["q"]

    def test_unterminated_string_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("'abc")

    def test_newline_in_string_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("'a\nb'")

    def test_empty_string(self):
        assert values("''") == [""]


class TestComments:
    def test_line_comment_skipped(self):
        assert values("1 // comment\n2") == [1.0, 2.0]

    def test_block_comment_skipped(self):
        assert values("1 /* lots \n of stuff */ 2") == [1.0, 2.0]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("/* never ends")

    def test_comment_only_source(self):
        assert types("// just a comment") == ["eof"]


class TestPunctuators:
    def test_maximal_munch(self):
        assert values("=== == =") == ["===", "==", "="]

    def test_shift_operators(self):
        assert values(">>> >> >") == [">>>", ">>", ">"]

    def test_increment_vs_plus(self):
        assert values("++ + +=") == ["++", "+", "+="]

    def test_logical_operators(self):
        assert values("&& || & |") == ["&&", "||", "&", "|"]

    def test_brackets(self):
        assert values("( ) [ ] { }") == ["(", ")", "[", "]", "{", "}"]

    def test_unexpected_character_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("@")


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_error_carries_position(self):
        with pytest.raises(JSSyntaxError) as exc_info:
            tokenize("ok\n  @")
        assert exc_info.value.line == 2

    def test_is_punct_helper(self):
        token = Token("punct", "{", 1, 1)
        assert token.is_punct("{")
        assert not token.is_punct("}")
        assert not Token("ident", "{", 1, 1).is_punct("{")


class TestHexOverflow:
    def test_hex_literal_beyond_double_range_is_infinity(self):
        assert values("0x" + "f" * 300) == [float("inf")]


# ----------------------------------------------------------------------
# equivalence with the character-stepping reference lexer


def _outcome(lex, source):
    """Tokens as ``(type, value, line, column)`` or the error's position."""
    try:
        tokens = lex(source)
    except JSSyntaxError as error:
        return ("error", error.raw_message, error.line, error.column)
    return [(t.type, t.value, t.line, t.column) for t in tokens]


def assert_same_as_reference(source):
    assert _outcome(tokenize, source) == _outcome(reference_tokenize, source)


#: Fragments that reach every branch of both lexers: string quotes and
#: escapes, comment openers and closers, hex and exponent prefixes, line
#: endings, and Unicode letters and digits that ``str.isalpha``,
#: ``str.isalnum`` and ASCII-digit tests disagree on.
_JS_FRAGMENTS = [
    "'", '"', "\\", "\\u", "\\x", "\\u00e9", "\\x41", "/*", "*/", "//", "/",
    "*", "0x", "0X", "e+", "E-", "e", ".", "1", "09", "a", "f", "F", "$", "_",
    "var", "in", " ", "\t", "\n", "\r\n", "\r", "\v", "=", "==", ">>>=", "<<",
    "!", "+", "-", "(", ")", "{", "}", ";", ",", "²", "ª", "٣", "é", "@", "#",
    "\u00a0", "\u2028",
]


@given(st.text())
@settings(max_examples=500, deadline=None)
def test_matches_reference_on_any_text(source):
    assert_same_as_reference(source)


@given(st.lists(st.sampled_from(_JS_FRAGMENTS), max_size=40).map("".join))
@settings(max_examples=600, deadline=None)
def test_matches_reference_on_js_shaped_text(source):
    assert_same_as_reference(source)


@pytest.mark.parametrize(
    "source",
    [
        "'\\u12'",
        "'\\u12\n'",
        "'\\x4'",
        "'abc\\",
        "'a\\\nb' c",
        "'a\\\r\nb'",
        "\"\\u0041\\x41\\q\\n\"",
        "x\n  /* a\n b */ 1.5e+3 0x1F .5 5. ²",
        "a\n\n /* never",
        "1e+",
        "1.e5 1..x",
        "ª² ²ª",
        "x\r\ny",
    ],
)
def test_matches_reference_on_edge_cases(source):
    assert_same_as_reference(source)


def test_identifier_characters_follow_str_methods_on_every_code_point():
    """The master regex's ``\\w`` must agree with ``str.isalnum()`` on the
    Unicode database of the running Python."""
    for code in range(0x110000):
        char = chr(code)
        continues = char.isalnum() or char in "_$"
        assert (_TOKEN.match("a" + char).group() == "a" + char) == continues, hex(code)


def _corpus_script_sources():
    """Every inline script, handler attribute and ``.js`` resource of the
    seed-0 corpus, including those of its ``.html`` resources (frames)."""
    sources = []
    for site in build_corpus(master_seed=0):
        pages = [site.html]
        for url, body in site.resources.items():
            if url.endswith(".js"):
                sources.append(body)
            elif url.endswith(".html"):
                pages.append(body)
        for page in pages:
            in_script = False
            for token in tokenize_html(page):
                if in_script and isinstance(token, Text):
                    sources.append(token.data)
                in_script = isinstance(token, StartTag) and token.name == "script"
                if isinstance(token, StartTag):
                    sources.extend(
                        value
                        for name, value in token.attributes.items()
                        if name.startswith("on")
                    )
    return sources


def test_matches_reference_on_every_corpus_script():
    sources = _corpus_script_sources()
    assert len(sources) > 500
    for source in sources:
        assert_same_as_reference(source)
