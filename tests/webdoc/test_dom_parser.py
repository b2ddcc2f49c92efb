"""DOM model and tolerant HTML parser."""

import pytest

from repro.errors import ParseError
from repro.webdoc import Anchor, Element, page_facts, parse_html


def _facts(markup):
    return page_facts(parse_html(markup), markup)


class TestParser:
    def test_basic_structure(self):
        doc = parse_html(
            "<html><head><title>T</title></head><body><p>hi</p></body></html>"
        )
        assert doc.title == "T"
        assert doc.root.tag == "html"
        assert [c.tag for c in doc.root.children] == ["head", "body"]

    def test_synthesizes_head_and_body(self):
        doc = parse_html("<title>X</title><p>content</p>")
        assert doc.title == "X"
        assert doc.find("p") is not None

    def test_void_elements_do_not_nest(self):
        doc = parse_html("<body><input type='text'><input type='password'></body>")
        inputs = doc.find_all("input")
        assert len(inputs) == 2
        assert all(not i.children for i in inputs)

    def test_unclosed_tags_tolerated(self):
        doc = parse_html("<body><div><p>one<p>two</div></body>")
        assert len(doc.find_all("p")) == 2

    def test_stray_end_tag_ignored(self):
        doc = parse_html("<body></span><p>ok</p></body>")
        assert doc.find("p").text_content() == "ok"

    def test_implicit_li_close(self):
        doc = parse_html("<ul><li>a<li>b<li>c</ul>")
        assert len(doc.find_all("li")) == 3

    def test_attributes_lowercased(self):
        doc = parse_html('<div ID="main" Class="a b">x</div>')
        div = doc.find("div")
        assert div.id == "main"
        assert div.classes == ["a", "b"]

    def test_nonstandard_noindex_element(self):
        assert _facts("<noindex></noindex><body>x</body>").noindex

    def test_rejects_non_string(self):
        with pytest.raises(ParseError):
            parse_html(None)

    def test_self_closing_syntax(self):
        doc = parse_html("<body><br/><img src='x'/></body>")
        assert doc.find("img") is not None

    def test_roundtrip_is_reparseable(self):
        markup = '<html><head><title>R</title></head><body><a href="/x">y</a></body></html>'
        doc = parse_html(markup)
        again = parse_html(doc.to_html())
        assert again.title == "R"
        assert again.find("a").get("href") == "/x"


class TestQueries:
    MARKUP = """
    <html><head><title>Acme - Sign In</title>
    <meta name="robots" content="noindex, nofollow"></head>
    <body>
      <div id="fwb-banner" style="visibility:hidden">Powered by Weebly</div>
      <form action="/submit">
        <input type="email" name="email">
        <input type="password" name="pass">
        <input type="text" name="ssn_number" placeholder="Social Security Number">
      </form>
      <a href="https://evil.example.com/payload.exe" download>get</a>
      <iframe src="https://other.example.net/"></iframe>
    </body></html>
    """

    def test_noindex_detected(self):
        assert _facts(self.MARKUP).noindex
        assert not _facts("<meta name='robots' content='nofollow'>").noindex

    def test_password_inputs(self):
        assert _facts(self.MARKUP).n_password_inputs == 1

    def test_credential_inputs_include_ssn(self):
        assert _facts(self.MARKUP).n_credential_inputs == 3
        # By type, by name and by placeholder; a plain text input is not one.
        for markup in ("<input type='email'>", "<input name='ssn_number'>",
                       "<input placeholder='Social Security Number'>"):
            assert _facts(markup).n_credential_inputs == 1, markup
        assert _facts("<input type='text' name='city'>").n_credential_inputs == 0

    def test_download_links(self):
        anchors = _facts(self.MARKUP).anchors
        assert anchors == (
            Anchor("https://evil.example.com/payload.exe", False, False, True),
        )
        assert _facts("<a href='/Setup.EXE'>x</a>").anchors[0].download

    def test_hidden_element_detection(self):
        doc = parse_html(self.MARKUP)
        banner = doc.find(predicate=lambda e: e.id == "fwb-banner")
        assert banner.is_hidden()

    def test_display_none_hidden(self):
        doc = parse_html('<div style="display: none">x</div>')
        assert doc.find("div").is_hidden()

    def test_visible_element(self):
        doc = parse_html('<div style="color:red">x</div>')
        assert not doc.find("div").is_hidden()

    def test_iframes(self):
        assert _facts(self.MARKUP).iframe_srcs == ("https://other.example.net/",)

    def test_text_content(self):
        doc = parse_html("<body><p>a <b>b</b> c</p></body>")
        assert doc.find("p").text_content() == "a b c"


class TestElement:
    def test_style_declarations(self):
        element = Element("div", {"style": "color: Red; Visibility:HIDDEN"})
        style = element.style_declarations()
        assert style == {"color": "red", "visibility": "hidden"}

    def test_manual_tree_building(self):
        root = Element("div")
        root.append(Element("span")).append_text("hello")
        assert root.text_content() == "hello"
        assert root.find("span") is not None

    def test_to_html_void(self):
        assert Element("br").to_html() == "<br>"
        element = Element("input", {"type": "text"})
        assert element.to_html() == '<input type="text">'
