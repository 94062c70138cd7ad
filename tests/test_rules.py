"""Individual rule behavior and ruleset application order."""

import pytest
from hypothesis import given, strategies as st

from queryfilter.rules import (
    DEFAULT_RULE_ORDER,
    _TAG_RE,
    _collapse,
    apply_ruleset,
    default_ruleset,
    register_rule,
    reject_interrogation,
    reject_javadoc,
    reject_non_english,
    reject_punctuation_only,
    reject_short,
    reject_url,
    ruleset_from_config,
    strip_html_tags,
    strip_parentheses,
)

REJECT_PREDICATES = (
    reject_javadoc,
    reject_url,
    reject_non_english,
    reject_punctuation_only,
    reject_interrogation,
    reject_short,
)


class TestTransforms:
    def test_html_tags_keep_wrapped_content(self):
        assert strip_html_tags("<p>parse line</p>") == "parse line"

    def test_html_identity_without_tags(self):
        assert strip_html_tags("parse line") == "parse line"

    def test_html_inline(self):
        assert strip_html_tags("a <b>bold</b> move") == "a bold move"

    def test_html_comparison_text_untouched(self):
        assert strip_html_tags("a < b > c") == "a < b > c"

    def test_parentheses_removed_with_delimiters(self):
        assert strip_parentheses("(TODO) Send requests") == "Send requests"

    def test_parentheses_identity(self):
        assert strip_parentheses("no parens here") == "no parens here"

    def test_parentheses_multiple_spans(self):
        assert strip_parentheses("read (or write) a file (fast)") == "read a file"

    def test_parentheses_nested(self):
        assert strip_parentheses("a (b (c) d) e") == "a e"

    def test_unbalanced_open_removes_to_end(self):
        assert strip_parentheses("keep this (but not the rest") == "keep this"

    def test_unmatched_close_left_alone(self):
        assert strip_parentheses("a ) b") == "a ) b"


class TestRejects:
    def test_javadoc(self):
        assert reject_javadoc("Returns a {@link Support}")
        assert reject_javadoc("send email to admin@example.com")
        assert not reject_javadoc("plain sentence")

    def test_url(self):
        assert reject_url("See https://github.com/")
        assert reject_url("docs at www.example.org here")
        assert reject_url("FTP://host/path")
        assert not reject_url("convert string to int")
        assert not reject_url("awww.come on")

    def test_non_english(self):
        assert reject_non_english("创建临时文件")
        assert reject_non_english("naïve merge")
        assert not reject_non_english("create temp file")

    def test_punctuation_only(self):
        assert reject_punctuation_only("==============")
        assert reject_punctuation_only("1234 *** !!!")
        assert not reject_punctuation_only("v2 release")

    def test_interrogation(self):
        assert reject_interrogation("Is this a name declaration?")
        assert reject_interrogation("what? really?  ")
        assert not reject_interrogation("checks the name declaration")

    def test_short(self):
        assert reject_short("DEPRECATED")
        assert reject_short("quick sort")
        assert not reject_short("convert string to int")


class TestApplyRuleset:
    def test_kept(self):
        outcome = apply_ruleset(default_ruleset(), "convert string to int")
        assert outcome.action == "kept"
        assert outcome.text == "convert string to int"

    def test_transformed_with_steps(self):
        outcome = apply_ruleset(default_ruleset(), "<p>parse the line now</p>")
        assert outcome.action == "transformed"
        assert outcome.text == "parse the line now"
        assert [s.rule_id for s in outcome.transforms] == ["html_tags"]

    def test_reject_sees_transformed_text(self):
        # parenthesis removal leaves a single word, so the short rule fires
        outcome = apply_ruleset(default_ruleset(), "(fast) sort")
        assert outcome.action == "rejected"
        assert outcome.rule_id == "short_sentence"

    def test_first_matching_reject_wins(self):
        outcome = apply_ruleset(
            default_ruleset(), "see https://example.com and @param x"
        )
        assert outcome.rule_id == "javadoc_tags"

    def test_rejected_has_no_text(self):
        outcome = apply_ruleset(default_ruleset(), "DEPRECATED")
        assert outcome.action == "rejected"
        assert outcome.text is None
        assert outcome.rule_id == "short_sentence"

    def test_disabled_rule_skipped(self):
        ruleset = default_ruleset(disabled=("short_sentence",))
        outcome = apply_ruleset(ruleset, "quick sort")
        assert outcome.action == "kept"

    def test_configured_order_interleaves_rejects_and_transforms(self):
        ruleset = ruleset_from_config(("urls", "parentheses", "short_sentence"))
        # a reject listed before a transform sees the untransformed text
        outcome = apply_ruleset(ruleset, "Fetch the page (see www.example.com) now please")
        assert (outcome.action, outcome.rule_id, outcome.transforms) == ("rejected", "urls", ())
        # a reject listed after it sees the transformed text
        outcome = apply_ruleset(ruleset, "Open it (twice over please)")
        assert (outcome.action, outcome.rule_id) == ("rejected", "short_sentence")
        assert [s.rule_id for s in outcome.transforms] == ["parentheses"]
        # the default order runs the transform first, so the URL is gone
        outcome = apply_ruleset(default_ruleset(), "Fetch the page (see www.example.com) now please")
        assert (outcome.action, outcome.text) == ("transformed", "Fetch the page now please")

    def test_disabled_rules_skipped_in_configured_order(self):
        text = "Fetch the page (see www.example.com) now please"
        ruleset = ruleset_from_config(("urls", "parentheses", "short_sentence"), ("urls",))
        outcome = apply_ruleset(ruleset, text)
        assert (outcome.action, outcome.text) == ("transformed", "Fetch the page now please")
        ruleset = ruleset_from_config(("urls", "parentheses"), ("parentheses",))
        assert apply_ruleset(ruleset, text).rule_id == "urls"
        ruleset = ruleset_from_config(("urls", "parentheses"), ("urls", "parentheses"))
        outcome = apply_ruleset(ruleset, text)
        assert (outcome.action, outcome.text) == ("kept", text)


class TestRulesetFromConfig:
    def test_disabled_rule_left_out(self):
        ruleset = ruleset_from_config(DEFAULT_RULE_ORDER, {"urls"})
        assert "urls" not in ruleset.rule_ids()
        assert ruleset.rule_ids() == tuple(i for i in DEFAULT_RULE_ORDER if i != "urls")

    def test_unknown_disabled_id_rejected(self):
        with pytest.raises(ValueError, match="nonsense"):
            ruleset_from_config(DEFAULT_RULE_ORDER, {"urls", "nonsense"})

    def test_repeated_order_id_rejected_even_when_disabled(self):
        with pytest.raises(ValueError, match='^rule ids must be unique: "urls" repeats$'):
            ruleset_from_config(("urls", "parentheses", "urls"), {"urls"})


class TestRegisterRule:
    def test_append_reject(self):
        rs = default_ruleset()
        rs2 = register_rule(rs, "contains_todo", "reject", lambda t: "todo" in t.lower())
        assert len(rs2.rules) == len(rs.rules) + 1
        assert rs2.rules[-1].id == "contains_todo"
        assert apply_ruleset(rs2, "fix this TODO before release").rule_id == "contains_todo"

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match='^rule ids must be unique: "urls" repeats$'):
            register_rule(default_ruleset(), "urls", "reject", lambda t: False)

    def test_transform_inserted_before_rejects_and_ordering_observed(self):
        rs = register_rule(default_ruleset(), "lowercase", "transform", str.lower)
        kinds = [r.kind for r in rs.rules]
        assert kinds == sorted(kinds, key=lambda k: k == "reject")
        # subsequent (reject) rules see the lowercased text
        rs = register_rule(rs, "no_x_word", "reject", lambda t: "xyzzy" in t)
        outcome = apply_ruleset(rs, "the magic word XYZZY appears here")
        assert outcome.action == "rejected"
        assert outcome.rule_id == "no_x_word"


class TestInvariants:
    @given(st.text(max_size=120))
    def test_idempotent_on_retained_output(self, text):
        rs = default_ruleset()
        outcome = apply_ruleset(rs, text)
        assert outcome.action in ("kept", "transformed", "rejected")
        if outcome.action == "rejected":
            assert outcome.rule_id is not None
            return
        again = apply_ruleset(rs, outcome.text)
        assert again.action == "kept"
        assert again.text == outcome.text

    @given(st.text(max_size=120))
    def test_retained_output_passes_every_reject_predicate(self, text):
        outcome = apply_ruleset(default_ruleset(), text)
        if outcome.action != "rejected":
            for predicate in REJECT_PREDICATES:
                assert not predicate(outcome.text)

    @given(st.text(max_size=120))
    def test_transforms_never_grow_text(self, text):
        assert len(strip_html_tags(text)) <= len(text)
        assert len(strip_parentheses(text)) <= len(text)


def _strip_parentheses_by_scan(text):
    """Character scan that strip_parentheses skips for text without "("."""
    out, depth = [], 0
    for ch in text:
        if ch == "(":
            depth += 1
            if depth == 1:
                out.append(" ")
        elif ch == ")" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return _collapse("".join(out))


class TestFastPathsMatchReference:
    @given(st.text(alphabet=st.characters(blacklist_characters="("), max_size=80))
    def test_parentheses_without_open_paren_only_collapses(self, text):
        assert strip_parentheses(text) == _collapse(text) == _strip_parentheses_by_scan(text)

    @given(st.text(alphabet=st.sampled_from("ab ()\t\n\xa0"), max_size=40))
    def test_parentheses_match_character_scan(self, text):
        assert strip_parentheses(text) == _strip_parentheses_by_scan(text)

    @given(st.text(alphabet=st.sampled_from("ab </>()\t\n\xa0"), max_size=40))
    def test_html_tags_match_substitution_to_fixed_point(self, text):
        expected = text
        while _TAG_RE.sub(" ", expected) != expected:
            expected = _TAG_RE.sub(" ", expected)
        assert strip_html_tags(text) == _collapse(expected)

    @given(st.text(max_size=80))
    def test_non_english_is_any_code_point_above_127(self, text):
        assert reject_non_english(text) == any(ord(ch) > 127 for ch in text)
