"""Comment-code record ingestion, persistence, and bootstrap query preparation.

Records travel through the pipeline as JSONL, one object per line, with the
required fields "id", "comment", "code" and the optional fields "provenance"
and "score".  Unknown fields are carried along untouched so the tool can sit
inside larger pipelines without destroying upstream metadata.  A provenance
entry is the same dict in memory as on disk: :func:`provenance_entry` states
its schema, and the reader checks each entry against it.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys
import tempfile
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .atomic import atomic_open

REQUIRED_FIELDS = ("id", "comment", "code")
_KNOWN_FIELDS = frozenset(REQUIRED_FIELDS + ("provenance", "score"))
_DECODE = json.JSONDecoder().decode

_SENTENCE_END_RE = re.compile(r"[.!?](?=\s|$)")
_HOW_TO_RE = re.compile(r"^\s*how\s+to\b", re.IGNORECASE)


class CorpusError(ValueError):
    """Malformed corpus input; message carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def provenance_entry(stage: str, action: str, rule_id: str | None = None,
                     before: str | None = None, after: str | None = None) -> dict:
    """One filtering event attached to a record, as the JSON object it is written as:
    keys in this order, an optional value of ``None`` left out.  ``stage`` is extract,
    rule or semantic; ``action`` is transformed, rejected or retained."""
    entry = {"stage": stage, "action": action}
    if rule_id is not None:
        entry["rule_id"] = rule_id
    if before is not None:
        entry["before"] = before
    if after is not None:
        entry["after"] = after
    return entry


def _read_entry(obj: dict, line_no: int) -> dict:
    """:func:`provenance_entry` of the values in ``obj``; :class:`CorpusError` if it
    breaks the entry schema."""
    try:
        entry = provenance_entry(**obj)
    except TypeError:  # a key outside the five, or no "stage" or "action"
        pass
    else:
        if all(type(v) is str for v in entry.values()):
            return entry
    raise CorpusError('provenance entries hold a string "stage" and "action", optional '
                      'string "rule_id", "before" and "after", and no other key', line_no)


@dataclass(slots=True)
class Record:
    """One comment-code pair plus its filtering history.

    ``extra`` holds any JSON fields beyond the known schema; they round-trip
    verbatim through :func:`read_jsonl` / :func:`write_jsonl`.
    """

    id: str
    comment: str
    code: str
    provenance: list[dict] = field(default_factory=list)
    score: float | None = None
    extra: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        obj: dict = {"id": self.id, "comment": self.comment, "code": self.code}
        if self.extra:
            obj.update(self.extra)
        if self.provenance:
            obj["provenance"] = self.provenance
        if self.score is not None:
            obj["score"] = self.score
        return obj


def _record_from_obj(obj: dict, line_no: int) -> Record:
    get = obj.get
    id_, comment, code = get("id"), get("comment"), get("code")
    if type(id_) is not str or type(comment) is not str or type(code) is not str:
        for name in REQUIRED_FIELDS:
            if name not in obj:
                raise CorpusError(f'missing required field "{name}"', line_no)
            if type(obj[name]) is not str:
                raise CorpusError(f'field "{name}" must be a string', line_no)
    provenance = []
    raw_prov = get("provenance")
    if raw_prov is not None:
        if type(raw_prov) is not list or not all(type(p) is dict for p in raw_prov):
            raise CorpusError('field "provenance" must be an array of objects', line_no)
        provenance = [_read_entry(p, line_no) for p in raw_prov]
    score = get("score")
    if score is not None:
        # <= the largest float, not < inf: an integer beyond it cannot be converted
        if type(score) not in (int, float) or not 0 <= score <= sys.float_info.max:
            raise CorpusError('field "score" must be a finite non-negative number', line_no)
        score = float(score)
    if obj.keys() <= _KNOWN_FIELDS:
        extra = {}
    else:
        extra = {k: v for k, v in obj.items() if k not in _KNOWN_FIELDS}
    return Record(id_, comment, code, provenance, score, extra)


def iter_lines(path) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for each line of a UTF-8 text file.

    Lines end at "\\n" and keep it; a CRLF line also keeps its "\\r".  A
    line that is not valid UTF-8 raises :class:`CorpusError` naming it.
    """
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise CorpusError("not valid UTF-8", line_no) from None
            yield line_no, line


def iter_json_objects(path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line of a JSONL file.

    Lines are read by :func:`iter_lines`, so CRLF files parse ("\\r" is JSON
    whitespace).  Blank lines are skipped.  A line that is not valid UTF-8,
    not JSON, past the parser's limits (integer digits, nesting depth) or
    not a JSON object raises :class:`CorpusError` naming it.
    """
    for line_no, line in iter_lines(path):
        if line.isspace():
            continue
        try:
            try:
                obj = _DECODE(line)
            except json.JSONDecodeError:
                # str.strip() removes more than JSON whitespace, e.g. "\x0c" and
                # "\xa0"; json.loads also names a leading BOM in its message.
                obj = json.loads(line.strip())
        except json.JSONDecodeError as exc:
            raise CorpusError(f"malformed JSON: {exc.msg}", line_no) from exc
        except (ValueError, RecursionError) as exc:
            raise CorpusError(f"unsupported JSON: {exc}", line_no) from exc
        if type(obj) is not dict:
            raise CorpusError("each line must be a JSON object", line_no)
        yield line_no, obj


# Reached through this name so that tests can make distinct ids collide.
_hash = hash


def read_jsonl(path) -> Iterator[Record]:
    """Stream records from a JSONL file in file order.

    Raises :class:`CorpusError` with the offending line number on a line that
    is not UTF-8, malformed JSON, missing/ill-typed required fields, or a
    duplicate id.  The duplicate check keeps one 8 B hash per record, not the
    ids, and runs after the last record is yielded: a duplicate is reported
    after the whole file has been read, so a malformed line later in the file
    is reported first, and a caller that stops iterating early gets no
    duplicate check.  Equal hashes, from a repeated id or a 64-bit collision,
    make it read the file again to name the first repeat in file order;
    distinct ids that collide raise nothing.  An input that cannot be read
    twice, such as a pipe, still works, but with equal hashes it raises an
    error that says the input repeats an id or two ids collide.
    """
    hashes = array("q")
    for line_no, obj in iter_json_objects(path):
        record = _record_from_obj(obj, line_no)
        hashes.append(_hash(record.id))
        yield record
    # Sorted in place through a view: neighbours compare with no index array.
    view = np.frombuffer(hashes, dtype=np.int64)
    view.sort()
    if (view[1:] == view[:-1]).any():
        _raise_first_duplicate(path, view)


def _raise_first_duplicate(path, sorted_hashes: np.ndarray) -> None:
    """Read ``path`` again and raise for its first repeated id in file order.

    ``sorted_hashes`` holds the first read's id hashes, sorted.  Only ids
    whose hash repeats there are kept.  A second read whose hashes are not
    the first read's raises "changed while it was read"; one that finds no
    repeat returns, since the equal hashes were a collision.
    """
    if not os.path.isfile(path):  # a pipe would read empty, a named one could block
        raise CorpusError(f"{path} repeats an id, or two of its ids share a 64-bit hash, "
                          "and it cannot be read again to name the id")
    changed = f"{path} changed while it was read"
    repeats = set(sorted_hashes[1:][sorted_hashes[1:] == sorted_hashes[:-1]].tolist())
    hashes, seen, first = array("q"), set(), None
    try:
        for line_no, obj in iter_json_objects(path):
            id_ = _record_from_obj(obj, line_no).id
            hashes.append(_hash(id_))
            if first is None and hashes[-1] in repeats:
                if id_ in seen:
                    first = CorpusError(f'duplicate id "{id_}"', line_no)
                seen.add(id_)
    except CorpusError as exc:
        raise CorpusError(f"{changed}: {exc}") from exc
    again = np.frombuffer(hashes, dtype=np.int64)
    again.sort()
    if not np.array_equal(again, sorted_hashes):
        raise CorpusError(f"{changed}: its ids differ from the first read")
    if first is not None:
        raise first


def _json_encoder() -> Callable[[object], str]:
    """``encode(obj)``, the text ``json.JSONEncoder(ensure_ascii=False).encode`` gives.

    ``JSONEncoder.encode`` builds a new C encoder on every call, about a fifth
    of the cost of writing a record; the one returned here is built once.
    Records come from JSON, so the check for circular references is left out.
    """
    if json.encoder.c_make_encoder is None:  # no C accelerator in this Python
        return json.JSONEncoder(ensure_ascii=False).encode
    chunks = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.c_encode_basestring,
        None, ": ", ", ", False, False, True,
    )
    return lambda obj: "".join(chunks(obj, 0))


_ENCODE = _json_encoder()


def record_line(record: Record) -> bytes:
    """The JSONL line of ``record``, UTF-8 with its newline: every record line written.

    A lone surrogate, which JSON admits as an escape such as ``"\\ud800"``,
    cannot be UTF-8; it is written back as that escape, so the line reads
    back as the same record.
    """
    return (_ENCODE(record.to_json_obj()) + "\n").encode("utf-8", "backslashreplace")


@contextlib.contextmanager
def jsonl_writer(path) -> Iterator[Callable[[Record], None]]:
    """Yield ``put(record)``, which appends :func:`record_line` of a record to ``path``.

    The file is written through :func:`atomic_open`: it appears only when the
    block finishes, and a block that raises leaves ``path`` as it was.
    """
    with atomic_open(path, "wb") as fh:
        write = fh.write
        yield lambda record: write(record_line(record))


def spill_beside(path):
    """An unnamed binary :func:`tempfile.TemporaryFile` in the directory of ``path``.

    A stage parks its output lines there between its two passes.  The file
    has no name and is gone once closed, or once the process ends however
    it ends.
    """
    return tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path)))


# Line layouts of record_line that the spilling stages rely on.
# Record.to_json_obj writes "score" last; a semantic provenance entry is the
# last entry when a stage has just appended it, and only "score" can follow
# the provenance.
def add_score(line: bytes, score: float) -> bytes:
    """``line``, the JSONL line of a record without a score, with ``score`` set."""
    return line[:-2] + b', "score": ' + _ENCODE(score).encode() + b"}\n"


def as_rejected(line: bytes) -> bytes:
    """``line``, whose last provenance entry a stage just appended as
    ``retained``, with that entry's action ``rejected`` (a word as wide)."""
    at = line.rfind(b'"retained"}]')
    return line[:at] + b'"rejected"' + line[at + 10:]


def write_jsonl(records: Iterable[Record], path) -> int:
    """Write each record's :func:`record_line` to ``path``, atomically. Returns the count.

    ``records`` may be a lazy iterable; it is consumed one record at a time.
    """
    count = 0
    with jsonl_writer(path) as put:
        for record in records:
            put(record)
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
    normalized = " ".join(comment.split())
    if not normalized:
        return ""
    match = _SENTENCE_END_RE.search(normalized)
    if match:
        return normalized[: match.end()]
    first_line = next(line for line in comment.splitlines() if line.strip())
    return " ".join(first_line.split())


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
    pass through ``ruleset``; the ruleset must not contain the interrogation
    rule, since stripped questions legitimately carry no question mark but
    pre-strip remnants may.
    """
    from .rules import apply_ruleset

    if "interrogation" in ruleset.rule_ids():
        raise ValueError("bootstrap preparation requires a ruleset without the interrogation rule")
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
