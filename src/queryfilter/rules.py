"""Syntactic filter rules for comment text.

Two kinds of rules exist: *transform* rules rewrite the text (dropping
detachable noise such as HTML tags) and *reject* rules discard it outright.
A ruleset is a tuple of the rules that run, in order: each transform
rewrites the current text and each reject predicate tests it; the first
matching reject wins.  The builtin order puts every transform before every
reject; a library caller adds a rule by appending it to the tuple.
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


# Builtin rules in order: transforms first, then rejects.  Reject order
# matters only for which rule gets named on multi-feature comments.
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


def builtin_rules(disabled: Iterable[str] = ()) -> tuple[Rule, ...]:
    """The builtin rules in their order, leaving out the ``disabled`` ids.

    Every disabled id must name a builtin rule.
    """
    disabled = set(disabled)
    unknown = disabled - {rule.id for rule in BUILTIN_RULES}
    if unknown:
        raise ValueError(f"unknown rule ids: {sorted(unknown)}")
    return tuple(rule for rule in BUILTIN_RULES if rule.id not in disabled)


def apply_ruleset(rules: tuple[Rule, ...], text: str) -> RuleOutcome:
    """Run ``rules`` over ``text`` in order.

    A reject rule sees the text as transformed by the rules before it; the
    first match wins and names the rule.  If no reject fires, the outcome is
    ``transformed`` when the text changed and ``kept`` otherwise.  A
    hand-built tuple is not checked: it may repeat an id, and a rule of any
    kind other than ``"transform"`` runs as a reject.
    """
    steps: list[TransformStep] = []
    current = text
    for rule_id, kind, fn in rules:
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
