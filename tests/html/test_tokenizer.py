"""Tests for the HTML tokenizer."""

from repro.html.tokenizer import (
    Comment,
    Doctype,
    EndTag,
    StartTag,
    Text,
    tokenize_html,
)


class TestTags:
    def test_simple_start_end(self):
        tokens = tokenize_html("<div>hello</div>")
        assert isinstance(tokens[0], StartTag)
        assert tokens[0].name == "div"
        assert isinstance(tokens[1], Text)
        assert tokens[1].data == "hello"
        assert isinstance(tokens[2], EndTag)

    def test_tag_name_case_insensitive(self):
        tokens = tokenize_html("<DIV></DIV>")
        assert tokens[0].name == "div"
        assert tokens[1].name == "div"

    def test_self_closing(self):
        tokens = tokenize_html("<br/>")
        assert tokens[0].self_closing

    def test_void_tags_implicitly_self_closing(self):
        tokens = tokenize_html("<img src='x.png'>")
        assert tokens[0].self_closing

    def test_nested(self):
        tokens = tokenize_html("<a><b></b></a>")
        names = [
            (type(token).__name__, token.name)
            for token in tokens
        ]
        assert names == [
            ("StartTag", "a"),
            ("StartTag", "b"),
            ("EndTag", "b"),
            ("EndTag", "a"),
        ]


class TestAttributes:
    def test_double_quoted(self):
        tokens = tokenize_html('<div id="a" class="x y"></div>')
        assert tokens[0].attributes == {"id": "a", "class": "x y"}

    def test_single_quoted(self):
        tokens = tokenize_html("<div id='a'></div>")
        assert tokens[0].attributes["id"] == "a"

    def test_unquoted(self):
        tokens = tokenize_html("<div id=abc></div>")
        assert tokens[0].attributes["id"] == "abc"

    def test_bare_attribute_truthy(self):
        tokens = tokenize_html('<script src="x.js" async></script>')
        assert tokens[0].attributes["async"] == "true"

    def test_attribute_names_lowercased(self):
        tokens = tokenize_html('<img OnLoad="f()">')
        assert tokens[0].attributes["onload"] == "f()"

    def test_attribute_with_entities(self):
        tokens = tokenize_html('<div title="a &amp; b"></div>')
        assert tokens[0].attributes["title"] == "a & b"

    def test_self_closing_after_attributes(self):
        tokens = tokenize_html('<input type="text" />')
        assert tokens[0].attributes["type"] == "text"
        assert tokens[0].self_closing


class TestScriptsRawText:
    def test_script_body_single_text_token(self):
        tokens = tokenize_html("<script>if (a < b) { x(); }</script>")
        assert isinstance(tokens[1], Text)
        assert tokens[1].data == "if (a < b) { x(); }"
        assert isinstance(tokens[2], EndTag)

    def test_script_with_html_like_strings(self):
        source = "<script>var s = '<div>not a tag</div>';</script>"
        tokens = tokenize_html(source)
        assert "<div>" in tokens[1].data

    def test_unterminated_script(self):
        tokens = tokenize_html("<script>var x = 1;")
        assert tokens[1].data == "var x = 1;"

    def test_empty_script(self):
        tokens = tokenize_html("<script></script>")
        kinds = [type(token).__name__ for token in tokens]
        assert kinds == ["StartTag", "EndTag"]

    def test_style_also_raw(self):
        tokens = tokenize_html("<style>a > b { color: red }</style>")
        assert "a > b" in tokens[1].data

    def test_end_tag_case_insensitive(self):
        tokens = tokenize_html("<script>var a = 1;</SCRIPT><p></p>")
        assert tokens[1].data == "var a = 1;"
        assert isinstance(tokens[2], EndTag) and tokens[2].name == "script"
        assert isinstance(tokens[3], StartTag) and tokens[3].name == "p"

    def test_length_changing_lowercase_before_script(self):
        # "İ".lower() is two characters long; the end tag must still be
        # found at its offset in the original source.
        tokens = tokenize_html("<p>İİİİ</p><script>var a = 1;</script>")
        texts = [token.data for token in tokens if isinstance(token, Text)]
        assert texts == ["İİİİ", "var a = 1;"]
        assert isinstance(tokens[-1], EndTag) and tokens[-1].name == "script"


class TestCommentsAndDoctype:
    def test_comment(self):
        tokens = tokenize_html("<!-- a comment -->")
        assert isinstance(tokens[0], Comment)
        assert tokens[0].data == " a comment "

    def test_doctype(self):
        tokens = tokenize_html("<!DOCTYPE html><div></div>")
        assert isinstance(tokens[0], Doctype)

    def test_unterminated_comment(self):
        tokens = tokenize_html("<!-- never closed")
        assert isinstance(tokens[0], Comment)


class TestText:
    def test_whitespace_only_text_dropped(self):
        tokens = tokenize_html("<div>   </div>\n  <p></p>")
        assert not any(isinstance(token, Text) for token in tokens)

    def test_entities_decoded(self):
        tokens = tokenize_html("<p>a &lt; b &amp;&amp; c &gt; d</p>")
        assert tokens[1].data == "a < b && c > d"

    def test_stray_less_than_is_text(self):
        tokens = tokenize_html("<p>1 < 2</p>")
        text = "".join(t.data for t in tokens if isinstance(t, Text))
        assert "<" in text
