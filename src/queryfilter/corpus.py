"""Comment-code record ingestion, persistence, and bootstrap query preparation.

Records travel through the pipeline as JSONL, one object per line, with the
required fields "id", "comment", "code" and the optional fields "provenance"
and "score".  Unknown fields are carried along untouched so the tool can sit
inside larger pipelines without destroying upstream metadata.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .atomic import atomic_open

REQUIRED_FIELDS = ("id", "comment", "code")

_WS_RE = re.compile(r"\s+")
_SENTENCE_END_RE = re.compile(r"[.!?](?=\s|$)")
_HOW_TO_RE = re.compile(r"^\s*how\s+to\b", re.IGNORECASE)


class CorpusError(ValueError):
    """Malformed corpus input; message carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass
class ProvenanceEntry:
    """One filtering event attached to a record."""

    stage: str  # extract | rule | semantic
    action: str  # transformed | rejected | retained
    rule_id: str | None = None
    before: str | None = None
    after: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"stage": self.stage, "action": self.action}
        if self.rule_id is not None:
            out["rule_id"] = self.rule_id
        if self.before is not None:
            out["before"] = self.before
        if self.after is not None:
            out["after"] = self.after
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "ProvenanceEntry":
        return cls(
            stage=obj.get("stage", ""),
            action=obj.get("action", ""),
            rule_id=obj.get("rule_id"),
            before=obj.get("before"),
            after=obj.get("after"),
        )


@dataclass
class Record:
    """One comment-code pair plus its filtering history.

    ``extra`` holds any JSON fields beyond the known schema; they round-trip
    verbatim through :func:`read_jsonl` / :func:`write_jsonl`.
    """

    id: str
    comment: str
    code: str
    provenance: list[ProvenanceEntry] = field(default_factory=list)
    score: float | None = None
    extra: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        obj: dict = {"id": self.id, "comment": self.comment, "code": self.code}
        obj.update(self.extra)
        if self.provenance:
            obj["provenance"] = [p.to_dict() for p in self.provenance]
        if self.score is not None:
            obj["score"] = self.score
        return obj


def _record_from_obj(obj: dict, line_no: int) -> Record:
    for name in REQUIRED_FIELDS:
        if name not in obj:
            raise CorpusError(f'missing required field "{name}"', line_no)
        if not isinstance(obj[name], str):
            raise CorpusError(f'field "{name}" must be a string', line_no)
    provenance = []
    raw_prov = obj.get("provenance", [])
    if raw_prov:
        if not isinstance(raw_prov, list) or not all(
            isinstance(p, dict) for p in raw_prov
        ):
            raise CorpusError('field "provenance" must be an array of objects', line_no)
        provenance = [ProvenanceEntry.from_dict(p) for p in raw_prov]
    score = obj.get("score")
    if score is not None:
        if (
            not isinstance(score, (int, float))
            or isinstance(score, bool)
            or not 0 <= score < math.inf
        ):
            raise CorpusError('field "score" must be a finite non-negative number', line_no)
        score = float(score)
    extra = {
        k: v
        for k, v in obj.items()
        if k not in ("id", "comment", "code", "provenance", "score")
    }
    return Record(
        id=obj["id"],
        comment=obj["comment"],
        code=obj["code"],
        provenance=provenance,
        score=score,
        extra=extra,
    )


def read_jsonl(path) -> Iterator[Record]:
    """Stream records from a JSONL file in file order.

    Raises :class:`CorpusError` with the offending line number on malformed
    JSON, missing/ill-typed required fields, or a duplicate id.
    """
    seen_ids: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"malformed JSON: {exc.msg}", line_no) from exc
            if not isinstance(obj, dict):
                raise CorpusError("each line must be a JSON object", line_no)
            record = _record_from_obj(obj, line_no)
            if record.id in seen_ids:
                raise CorpusError(f'duplicate id "{record.id}"', line_no)
            seen_ids.add(record.id)
            yield record


def write_jsonl(records: Iterable[Record], path) -> int:
    """Write records as UTF-8 JSONL, one object per line, atomically. Returns the count."""
    count = 0
    with atomic_open(path) as fh:
        for record in records:
            fh.write(json.dumps(record.to_json_obj(), ensure_ascii=False))
            fh.write("\n")
            count += 1
    return count


def extract_first_sentence(comment: str) -> str:
    """Return the first sentence of a (possibly multi-line) comment.

    The sentence ends at the first '.', '!' or '?' that is followed by
    whitespace or end-of-text, measured on the whitespace-collapsed comment.
    When no terminator exists, the first non-blank line is returned instead.
    Output is trimmed with internal whitespace runs collapsed to single
    spaces; idempotent by construction.
    """
    normalized = _WS_RE.sub(" ", comment).strip()
    if not normalized:
        return ""
    match = _SENTENCE_END_RE.search(normalized)
    if match:
        return normalized[: match.end()]
    first_line = next(line for line in comment.splitlines() if line.strip())
    return _WS_RE.sub(" ", first_line).strip()


@dataclass
class BootstrapStats:
    """Counters reported by :func:`prepare_bootstrap` (diagnostics only)."""

    total: int = 0
    not_how_to: int = 0
    rejected: int = 0
    kept: int = 0


def _strip_question_form(title: str) -> str:
    # Repeated stripping keeps the declarative invariants even for titles
    # like "how to how to ..." or when a rule transform re-exposes a prefix.
    text = title.strip()
    while True:
        match = _HOW_TO_RE.match(text)
        if not match:
            break
        text = text[match.end() :].strip()
    while text.endswith("?"):
        text = text[:-1].rstrip()
    return text


def prepare_bootstrap(titles: Iterable[str], ruleset, stats: BootstrapStats | None = None) -> Iterator[str]:
    """Turn question titles into declarative query sentences.

    Titles that do not start with "how to" (case-insensitive) are dropped.
    Surviving titles lose that prefix and any trailing question mark, then
    pass through ``ruleset``; the ruleset must not contain an enabled
    interrogation rule, since stripped questions legitimately carry no
    question mark but pre-strip remnants may.
    """
    from .rules import apply_ruleset

    for rule in ruleset.rules:
        if rule.id == "interrogation" and rule.enabled:
            raise ValueError(
                "bootstrap preparation requires a ruleset without the interrogation rule"
            )
    if stats is None:
        stats = BootstrapStats()
    for title in titles:
        stats.total += 1
        if not _HOW_TO_RE.match(title):
            stats.not_how_to += 1
            continue
        text = _strip_question_form(title)
        outcome = apply_ruleset(ruleset, text)
        if outcome.action == "rejected":
            stats.rejected += 1
            continue
        text = _strip_question_form(outcome.text)
        if not text:
            stats.rejected += 1
            continue
        stats.kept += 1
        yield text
