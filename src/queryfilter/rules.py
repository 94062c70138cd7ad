"""Ordered syntactic filter rules for comment text.

Two kinds of rules exist: *transform* rules rewrite the text (dropping
detachable noise such as HTML tags) and *reject* rules discard it outright.
A ruleset holds the rules that run, in order: each transform rewrites the
current text and each reject predicate tests it; the first matching reject
wins.  The default order puts every transform before every reject.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

_TAG_RE = re.compile(r"</?[A-Za-z][^<>]*>")
_JAVADOC_RE = re.compile(r"@[A-Za-z]")
_URL_RE = re.compile(r"(?:https?|ftp)://|\bwww\.", re.IGNORECASE)
_LETTER_RE = re.compile(r"[A-Za-z]")


def _collapse(text: str) -> str:
    return " ".join(text.split())


def strip_html_tags(text: str) -> str:
    """Delete HTML tags, keeping the wrapped content.

    A tag is "<", an optional "/", a letter, then anything up to ">"; plain
    "a < b" comparisons are left alone.  Substitution repeats to a fixed
    point so stripped output can never still contain a matchable tag.
    """
    if "<" not in text:
        return _collapse(text)
    while True:
        replaced = _TAG_RE.sub(" ", text)
        if replaced == text:
            break
        text = replaced
    return _collapse(text)


def strip_parentheses(text: str) -> str:
    """Remove balanced "(...)" spans, delimiters included.

    Nested spans count depth; an unbalanced "(" removes everything through
    end-of-text.  Unmatched ")" is left in place.
    """
    if "(" not in text:
        return _collapse(text)
    out: list[str] = []
    depth = 0
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


def reject_javadoc(text: str) -> bool:
    """True iff the text contains '@' immediately followed by a letter."""
    return _JAVADOC_RE.search(text) is not None


def reject_url(text: str) -> bool:
    """True iff the text contains an http/https/ftp scheme or a "www." token."""
    return _URL_RE.search(text) is not None


def reject_non_english(text: str) -> bool:
    """True iff any character falls outside ASCII."""
    return not text.isascii()


def reject_punctuation_only(text: str) -> bool:
    """True iff the text contains no ASCII letter."""
    return _LETTER_RE.search(text) is None


def reject_interrogation(text: str) -> bool:
    """True iff the trimmed text ends with a question mark."""
    return text.strip().endswith("?")


def reject_short(text: str) -> bool:
    """True iff the text has at most two whitespace-delimited words."""
    return len(text.split()) <= 2


class Rule(NamedTuple):
    id: str
    kind: str  # "transform" | "reject"
    fn: Callable


@dataclass(frozen=True)
class TransformStep:
    rule_id: str
    before: str
    after: str


@dataclass(frozen=True)
class RuleOutcome:
    """Result of running a ruleset over one text.

    ``transforms`` lists the transform rules that actually changed the text,
    in application order, for provenance and per-rule statistics.
    """

    action: str  # kept | transformed | rejected
    rule_id: str | None = None
    text: str | None = None
    transforms: tuple[TransformStep, ...] = ()


@dataclass(frozen=True)
class Ruleset:
    """Immutable ordered list of the rules that run; evaluation order is list order."""

    rules: tuple[Rule, ...]

    def __post_init__(self):
        ids = [rule.id for rule in self.rules]
        for i, rule_id in enumerate(ids):
            if rule_id in ids[:i]:
                raise ValueError(f'rule ids must be unique: "{rule_id}" repeats')
        for rule in self.rules:
            if rule.kind not in ("transform", "reject"):
                raise ValueError(f'rule "{rule.id}": unknown kind "{rule.kind}"')

    def rule_ids(self) -> tuple[str, ...]:
        return tuple(rule.id for rule in self.rules)


# Builtin rules in default order: transforms first, then rejects.  Reject
# order matters only for which rule gets named on multi-feature comments.
BUILTIN_RULES: tuple[Rule, ...] = (
    Rule("html_tags", "transform", strip_html_tags),
    Rule("parentheses", "transform", strip_parentheses),
    Rule("javadoc_tags", "reject", reject_javadoc),
    Rule("urls", "reject", reject_url),
    Rule("non_english", "reject", reject_non_english),
    Rule("punctuation", "reject", reject_punctuation_only),
    Rule("interrogation", "reject", reject_interrogation),
    Rule("short_sentence", "reject", reject_short),
)

DEFAULT_RULE_ORDER = tuple(rule.id for rule in BUILTIN_RULES)
_BUILTIN_BY_ID = {rule.id: rule for rule in BUILTIN_RULES}


def default_ruleset(disabled: Iterable[str] = ()) -> Ruleset:
    """The builtin eight-rule set, optionally with some rules disabled."""
    return ruleset_from_config(DEFAULT_RULE_ORDER, disabled)


def ruleset_from_config(order: Iterable[str], disabled: Iterable[str] = ()) -> Ruleset:
    """Build a ruleset of the builtin rules in ``order``, leaving out ``disabled``.

    Every disabled id must name a builtin rule; it need not be in ``order``.
    """
    disabled_set = set(disabled)
    unknown = disabled_set - set(_BUILTIN_BY_ID)
    if unknown:
        raise ValueError(f"unknown rule ids: {sorted(unknown)}")
    order = tuple(order)
    for rule_id in order:
        if rule_id not in _BUILTIN_BY_ID:
            raise ValueError(f'unknown rule id "{rule_id}"')
    rules = Ruleset(tuple(_BUILTIN_BY_ID[i] for i in order)).rules  # refuses a repeated id
    return Ruleset(tuple(rule for rule in rules if rule.id not in disabled_set))


def register_rule(ruleset: Ruleset, rule_id: str, kind: str, fn: Callable) -> Ruleset:
    """Return a new ruleset with the rule appended within its kind group.

    Transforms are inserted before the first reject rule; rejects go last.
    By convention a rule should target one narrow construction, err on the
    side of keeping valid queries, and not duplicate an existing rule's
    matches; none of that is enforced here.
    """
    new_rule = Rule(rule_id, kind, fn)
    rules = list(ruleset.rules)
    if kind == "transform":
        insert_at = len(rules)
        for i, rule in enumerate(rules):
            if rule.kind == "reject":
                insert_at = i
                break
        rules.insert(insert_at, new_rule)
    else:
        rules.append(new_rule)
    return Ruleset(tuple(rules))


def apply_ruleset(ruleset: Ruleset, text: str) -> RuleOutcome:
    """Run the ruleset's rules over ``text`` in list order.

    A reject rule sees the text as transformed by the rules before it; the
    first match wins and names the rule.  If no reject fires, the outcome is ``transformed`` when the text
    changed and ``kept`` otherwise.
    """
    steps: list[TransformStep] = []
    current = text
    for rule_id, kind, fn in ruleset.rules:
        if kind == "transform":
            changed = fn(current)
            if changed != current:
                steps.append(TransformStep(rule_id, current, changed))
                current = changed
        elif fn(current):
            return RuleOutcome("rejected", rule_id, None, tuple(steps))
    if current != text:
        return RuleOutcome("transformed", None, current, tuple(steps))
    return RuleOutcome("kept", None, current)
