"""Individual rule behavior and ruleset application order."""

import pytest
from hypothesis import given, strategies as st

from queryfilter.rules import (
    BUILTIN_RULES,
    Rule,
    _TAG_RE,
    _collapse,
    apply_ruleset,
    builtin_rules,
    reject_interrogation,
    reject_javadoc,
    reject_non_english,
    reject_punctuation_only,
    reject_short,
    reject_url,
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
        outcome = apply_ruleset(builtin_rules(), "convert string to int")
        assert outcome.action == "kept"
        assert outcome.text == "convert string to int"

    def test_transformed_with_steps(self):
        outcome = apply_ruleset(builtin_rules(), "<p>parse the line now</p>")
        assert outcome.action == "transformed"
        assert outcome.text == "parse the line now"
        assert [s.rule_id for s in outcome.transforms] == ["html_tags"]

    def test_reject_sees_transformed_text(self):
        # parenthesis removal leaves a single word, so the short rule fires
        outcome = apply_ruleset(builtin_rules(), "(fast) sort")
        assert outcome.action == "rejected"
        assert outcome.rule_id == "short_sentence"

    def test_first_matching_reject_wins(self):
        outcome = apply_ruleset(
            builtin_rules(), "see https://example.com and @param x"
        )
        assert outcome.rule_id == "javadoc_tags"

    def test_rejected_has_no_text(self):
        outcome = apply_ruleset(builtin_rules(), "DEPRECATED")
        assert outcome.action == "rejected"
        assert outcome.text is None
        assert outcome.rule_id == "short_sentence"

    def test_disabled_rule_skipped(self):
        ruleset = builtin_rules(("short_sentence",))
        outcome = apply_ruleset(ruleset, "quick sort")
        assert outcome.action == "kept"

    def test_rules_run_in_tuple_order(self):
        by_id = {rule.id: rule for rule in BUILTIN_RULES}
        rules = (by_id["urls"], by_id["parentheses"], by_id["short_sentence"])
        # a reject placed before a transform sees the untransformed text
        outcome = apply_ruleset(rules, "Fetch the page (see www.example.com) now please")
        assert (outcome.action, outcome.rule_id, outcome.transforms) == ("rejected", "urls", ())
        # a reject placed after it sees the transformed text
        outcome = apply_ruleset(rules, "Open it (twice over please)")
        assert (outcome.action, outcome.rule_id) == ("rejected", "short_sentence")
        assert [s.rule_id for s in outcome.transforms] == ["parentheses"]
        # the builtin order runs the transform first, so the URL is gone
        outcome = apply_ruleset(builtin_rules(), "Fetch the page (see www.example.com) now please")
        assert (outcome.action, outcome.text) == ("transformed", "Fetch the page now please")

    def test_transform_placed_before_rejects_is_seen_by_them(self):
        rules = ((Rule("lowercase", "transform", str.lower),) + builtin_rules()
                 + (Rule("no_x_word", "reject", lambda t: "xyzzy" in t),))
        outcome = apply_ruleset(rules, "the magic word XYZZY appears here")
        assert (outcome.action, outcome.rule_id) == ("rejected", "no_x_word")
        assert [s.rule_id for s in outcome.transforms] == ["lowercase"]

    def test_kind_other_than_transform_runs_as_reject(self):
        rules = (Rule("odd_kind", "filter", lambda t: "todo" in t),)
        assert apply_ruleset(rules, "fix the todo").rule_id == "odd_kind"
        assert apply_ruleset(rules, "fix the bug").action == "kept"

    def test_repeated_id_in_hand_built_tuple_is_not_checked(self):
        rules = (Rule("twice", "transform", str.strip), Rule("twice", "transform", str.upper))
        outcome = apply_ruleset(rules, " sort a list ")
        assert (outcome.action, outcome.text) == ("transformed", "SORT A LIST")
        assert [s.rule_id for s in outcome.transforms] == ["twice", "twice"]


class TestBuiltinRules:
    def test_disabled_rule_left_out(self):
        ids = [rule.id for rule in builtin_rules({"urls"})]
        assert ids == [rule.id for rule in BUILTIN_RULES if rule.id != "urls"]

    def test_unknown_disabled_id_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown rule ids: \['nonsense'\]$"):
            builtin_rules({"urls", "nonsense"})

    def test_append_reject(self):
        rules = builtin_rules() + (Rule("contains_todo", "reject", lambda t: "todo" in t.lower()),)
        assert apply_ruleset(rules, "fix this TODO before release").rule_id == "contains_todo"


class TestInvariants:
    @given(st.text(max_size=120))
    def test_idempotent_on_retained_output(self, text):
        rs = builtin_rules()
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
        outcome = apply_ruleset(builtin_rules(), text)
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
