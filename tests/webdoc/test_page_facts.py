"""The rules ``page_facts`` defines for every page reader.

``test_dom_index.py`` checks the facts against a per-query reference walk
on corpora and random trees; these cases pin each rule on a minimal page.
"""

import dataclasses

import pytest

from repro.webdoc import Anchor, page_facts, parse_html


def _facts(markup):
    return page_facts(parse_html(markup), markup)


class TestAnchors:
    @pytest.mark.parametrize("cls,button", [
        ("btn", True), ("my-BUTTON", True), ("x Btn-primary", True),
        ("link", False), ("", False),
    ])
    def test_button_class_rule(self, cls, button):
        (anchor,) = _facts(f"<a class='{cls}' href='/x'>go</a>").anchors
        assert anchor.button is button
        assert anchor.call_to_action is button

    @pytest.mark.parametrize("text", ["Continue", "LOGIN now", "Sign in", "Verify", "Claim"])
    def test_call_to_action_wording(self, text):
        (anchor,) = _facts(f"<a href='/x'><span>{text}</span></a>").anchors
        assert anchor.call_to_action and not anchor.button

    def test_hrefs_kept_raw_in_document_order(self):
        facts = _facts("<a href=' /a '>1</a><a>2</a><a href='#'>3</a>")
        assert [a.href for a in facts.anchors] == [" /a ", "", "#"]

    def test_download_by_attribute_or_extension(self):
        facts = _facts(
            "<a download href='/f'>1</a><a href='/kit.ZIP'>2</a><a href='/page.html'>3</a>"
        )
        assert [a.download for a in facts.anchors] == [True, True, False]


class TestForms:
    def test_password_inside_a_form_is_a_login_form(self):
        facts = _facts("<form action=' /go '><div><input type='Password'></div></form>")
        assert facts.login_form
        assert facts.form_actions == (" /go ",)
        assert facts.n_password_inputs == 1

    def test_two_credential_inputs_and_any_form(self):
        assert _facts("<input type='email'><input name='pin'><form></form>").login_form
        assert not _facts("<input type='email'><input name='pin'>").login_form

    def test_password_outside_every_form_is_not_a_login_form(self):
        facts = _facts("<form><input type='text'></form><input type='password'>")
        assert not facts.login_form
        assert facts.has_credential_fields

    @pytest.mark.parametrize("inputs,expected", [
        ("<input type='password'>", True),
        ("<input type='email'><input type='tel'>", True),
        ("<input type='email'>", False),
        ("<input type='text'><input type='search'>", False),
    ])
    def test_credential_fields_rule(self, inputs, expected):
        assert _facts(inputs).has_credential_fields is expected


class TestPage:
    def test_first_title_stripped(self):
        markup = "<html><head><title> One </title></head><body><title>Two</title></body></html>"
        assert _facts(markup).title == "One"
        assert _facts("<p>untitled</p>").title == ""

    def test_counts_and_length(self):
        markup = "<img src='a'><img src='b'><iframe src='/f'></iframe><iframe></iframe>"
        facts = _facts(markup)
        assert facts.n_images == 2
        assert facts.iframe_srcs == ("/f", "")
        assert facts.markup_length == len(markup)

    def test_hidden_banner_by_text_only_on_div_or_footer(self):
        assert _facts("<div hidden>Powered by Wix</div>").hidden_banner
        assert not _facts("<p hidden>Powered by Wix</p>").hidden_banner
        assert not _facts("<div>Powered by Wix</div>").hidden_banner
        assert _facts("<span class='fwb-banner' hidden>x</span>").hidden_banner

    def test_facts_are_frozen_and_comparable(self):
        facts = _facts("<a href='/x'>x</a>")
        with pytest.raises(dataclasses.FrozenInstanceError):
            facts.title = "changed"
        assert facts == _facts("<a href='/x'>x</a>")
        assert facts.anchors == (Anchor("/x", False, False, False),)
