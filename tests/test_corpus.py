"""Record I/O, first-sentence extraction, and bootstrap preparation."""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from queryfilter import corpus
from queryfilter.cli import main
from queryfilter.corpus import (
    BootstrapStats,
    CorpusError,
    Record,
    extract_first_sentence,
    jsonl_writer,
    prepare_bootstrap,
    provenance_entry,
    read_jsonl,
    write_jsonl,
)
from queryfilter.rules import default_ruleset


_ENTRY_KEYS = ("stage", "action", "rule_id", "before", "after")
_entry_value = st.none() | st.text("ab", max_size=2) | st.sampled_from([0, True, [None]])
# Any keys in any order; in about half the draws a string "stage" and "action" are
# added, so about a quarter of the objects keep the entry schema.
_entry_objects = st.tuples(
    st.dictionaries(st.sampled_from(_ENTRY_KEYS + ("self", "rule id", "note")), _entry_value,
                    max_size=4),
    st.just({}) | st.fixed_dictionaries({"stage": st.text("ab", max_size=2),
                                         "action": st.text("ab", max_size=2)}),
).map(lambda parts: {**parts[0], **parts[1]})


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestReadJsonl:
    def test_direct_field_mapping(self, tmp_path):
        f = tmp_path / "in.jsonl"
        _write_lines(f, ['{"id":"a","comment":"parse line","code":"..."}'])
        records = list(read_jsonl(f))
        assert len(records) == 1
        assert records[0].id == "a"
        assert records[0].comment == "parse line"
        assert records[0].code == "..."
        assert records[0].score is None

    def test_empty_file_is_empty_stream(self, tmp_path):
        f = tmp_path / "in.jsonl"
        f.write_text("", encoding="utf-8")
        assert list(read_jsonl(f)) == []

    def test_duplicate_id_raises(self, tmp_path):
        f = tmp_path / "in.jsonl"
        _write_lines(
            f,
            [
                '{"id":"a","comment":"x","code":"y"}',
                '{"id":"a","comment":"z","code":"w"}',
            ],
        )
        with pytest.raises(CorpusError, match='line 2.*duplicate id "a"'):
            list(read_jsonl(f))

    def test_malformed_line_carries_line_number(self, tmp_path):
        f = tmp_path / "in.jsonl"
        _write_lines(f, ['{"id":"a","comment":"x","code":"y"}', "{not json"])
        with pytest.raises(CorpusError, match="line 2"):
            list(read_jsonl(f))

    def test_missing_field_named(self, tmp_path):
        f = tmp_path / "in.jsonl"
        _write_lines(f, ['{"id":"a","code":"y"}'])
        with pytest.raises(CorpusError, match='"comment"'):
            list(read_jsonl(f))

    def test_non_string_required_field(self, tmp_path):
        f = tmp_path / "in.jsonl"
        _write_lines(f, ['{"id":1,"comment":"x","code":"y"}'])
        with pytest.raises(CorpusError, match='"id"'):
            list(read_jsonl(f))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "-1"])
    def test_bad_score_rejected(self, tmp_path, literal):
        f = tmp_path / "in.jsonl"
        _write_lines(f, ['{"id":"a","comment":"x","code":"y","score":0.5}',
                         f'{{"id":"b","comment":"x","code":"y","score":{literal}}}'])
        with pytest.raises(CorpusError, match='line 2.*"score"'):
            list(read_jsonl(f))

    def test_integer_score_beyond_float_range_rejected(self, tmp_path):
        f = tmp_path / "in.jsonl"
        _write_lines(f, ['{"id":"a","comment":"x","code":"y","score":1' + "0" * 400 + "}"])
        with pytest.raises(CorpusError, match='line 1.*"score"'):
            list(read_jsonl(f))

    def test_unknown_fields_preserved(self, tmp_path):
        f = tmp_path / "in.jsonl"
        _write_lines(f, ['{"id":"a","comment":"x","code":"y","repo":"r","stars":3}'])
        (rec,) = read_jsonl(f)
        assert rec.extra == {"repo": "r", "stars": 3}

    def test_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "in.jsonl"
        f.write_bytes(b'\n   \n\t\r\n{"id":"a","comment":"x","code":"y"}\n\x0c\n'
                      + "\xa0\u3000\n".encode("utf-8") + b'{"id":"b","comment":"x","code":"y"}')
        assert [r.id for r in read_jsonl(f)] == ["a", "b"]

    @pytest.mark.parametrize("pad", ["\x0c", "\xa0", "\u2003", " \t"])
    def test_line_padded_with_non_json_whitespace_accepted(self, tmp_path, pad):
        f = tmp_path / "in.jsonl"
        _write_lines(f, [pad + '{"id":"a","comment":"x","code":"y"}' + pad])
        assert [r.id for r in read_jsonl(f)] == ["a"]

    def test_crlf_line_endings(self, tmp_path):
        f = tmp_path / "in.jsonl"
        f.write_bytes(b'{"id":"a","comment":"x","code":"y"}\r\n\r\n'
                      b'{"id":"b","comment":"z","code":"w"}\r\n')
        assert [(r.id, r.comment) for r in read_jsonl(f)] == [("a", "x"), ("b", "z")]

    def test_invalid_utf8_names_its_line(self, tmp_path):
        f = tmp_path / "in.jsonl"
        f.write_bytes(b'{"id":"a","comment":"x","code":"y"}\n\n'
                      b'{"id":"b","comment":"\xff","code":"y"}\n')
        with pytest.raises(CorpusError, match="^line 3: not valid UTF-8$") as info:
            list(read_jsonl(f))
        assert info.value.line_no == 3

    @pytest.mark.parametrize("line, message", [
        ("\ufeff" + '{"id":"a","comment":"x","code":"y"}', "Unexpected UTF-8 BOM"),
        ('{"id":"a"} {"id":"b"}', "Extra data"),
        ("\x0c{bad", "Expecting property name"),
        ("[1]", "each line must be a JSON object"),
    ])
    def test_malformed_line_message(self, tmp_path, line, message):
        f = tmp_path / "in.jsonl"
        _write_lines(f, [line])
        with pytest.raises(CorpusError, match=f"^line 1: .*{message}"):
            list(read_jsonl(f))

    @pytest.mark.parametrize("value, message", [
        ("9" * 5001, "Exceeds the limit"),
        ("[" * 200_000 + "]" * 200_000, "maximum recursion depth"),
    ], ids=["long_integer", "deep_nesting"])
    @pytest.mark.parametrize("pad", ["", "\xa0"], ids=["bare", "padded"])
    def test_value_beyond_parser_limits_names_its_line(self, tmp_path, value, message, pad):
        f = tmp_path / "in.jsonl"
        _write_lines(f, ['{"id":"a","comment":"x","code":"y"}',
                         pad + '{"id":"b","comment":"x","code":"y","extra":' + value + "}"])
        with pytest.raises(CorpusError, match=f"^line 2: unsupported JSON: {message}") as info:
            list(read_jsonl(f))
        assert info.value.line_no == 2

    @pytest.mark.parametrize("entry", [
        {"stage": "upstream", "action": "kept", "note": "keep me"},
        {"action": "x"},
        {"stage": "rule"},
        {"stage": 1, "action": "x"},
        {"stage": "rule", "action": None},
        {"stage": "rule", "action": "x", "rule_id": 5},
        {"stage": "rule", "action": "x", "before": ["a"]},
        {"stage": "rule", "action": "x", "after": True},
        {"stage": "rule", "action": "x", "self": "y"},
        {"stage": "rule", "action": "x", "rule id": "urls"},
    ], ids=["unknown_key", "missing_stage", "missing_action", "int_stage", "null_action",
            "int_rule_id", "list_before", "bool_after", "self_key", "spaced_key"])
    def test_provenance_entry_off_schema_names_its_line(self, tmp_path, entry):
        f = tmp_path / "in.jsonl"
        ok = {"stage": "rule", "action": "retained"}
        _write_lines(f, ['{"id":"a","comment":"x","code":"y"}',
                         json.dumps({"id": "b", "comment": "x", "code": "y",
                                     "provenance": [ok, entry]})])
        with pytest.raises(CorpusError, match="^line 2: provenance entries hold a string") as info:
            list(read_jsonl(f))
        assert info.value.line_no == 2

    @pytest.mark.parametrize("literal", ["{}", "false", "0", '""', '{"stage": "rule"}'])
    def test_provenance_that_is_not_an_array_rejected(self, tmp_path, literal):
        f = tmp_path / "in.jsonl"
        _write_lines(f, ['{"id":"a","comment":"x","code":"y","provenance":[]}',
                         '{"id":"b","comment":"x","code":"y","provenance":' + literal + "}"])
        with pytest.raises(CorpusError, match='^line 2: field "provenance" must be an array'):
            list(read_jsonl(f))

    @pytest.mark.parametrize("entry, written", [
        ({"stage": "rule", "action": "retained", "rule_id": None, "before": None, "after": None},
         {"stage": "rule", "action": "retained"}),
        ({"after": "b", "before": None, "rule_id": "urls", "action": "transformed",
          "stage": "rule"},
         {"stage": "rule", "action": "transformed", "rule_id": "urls", "after": "b"}),
    ], ids=["all_null", "reverse_order"])
    def test_null_optional_provenance_field_reads_as_absent(self, tmp_path, entry, written):
        f = tmp_path / "in.jsonl"
        _write_lines(f, [json.dumps({"id": "a", "comment": "x", "code": "y",
                                     "provenance": [entry]})])
        (rec,) = read_jsonl(f)
        assert rec.provenance == [written]
        assert corpus.record_line(rec) == (json.dumps({"id": "a", "comment": "x", "code": "y",
                                                       "provenance": [written]}) + "\n").encode()

    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(_entry_objects)
    def test_any_object_reads_as_its_entry_or_names_its_line(self, tmp_path_factory, entry):
        f = tmp_path_factory.mktemp("prov") / "in.jsonl"
        _write_lines(f, ['{"id":"a","comment":"x","code":"y"}',
                         json.dumps({"id": "b", "comment": "x", "code": "y",
                                     "provenance": [entry]})])
        on_schema = (entry.keys() <= set(_ENTRY_KEYS)
                     and type(entry.get("stage")) is str and type(entry.get("action")) is str
                     and all(v is None or type(v) is str for v in entry.values()))
        try:
            _, rec = read_jsonl(f)
        except CorpusError as exc:
            assert not on_schema
            assert exc.line_no == 2 and str(exc).startswith("line 2: provenance entries hold")
        else:
            assert on_schema
            assert rec.provenance == [provenance_entry(**entry)]
            assert list(rec.provenance[0]) == [k for k in _ENTRY_KEYS if entry.get(k) is not None]

    def test_escaped_lone_surrogate_and_non_ascii_ids_read_back(self, tmp_path):
        f = tmp_path / "in.jsonl"
        _write_lines(f, ['{"id":"\\ud800","comment":"x","code":"y"}',
                         '{"id":"\\u00e9","comment":"x","code":"y"}'])
        assert [record.id for record in read_jsonl(f)] == ["\ud800", "é"]

    @pytest.mark.parametrize("extra", [{}, {"repo": "r", "stars": 3, "tags": ["a"]}])
    def test_slotted_record_round_trips_with_and_without_extra_fields(self, tmp_path, extra):
        f = tmp_path / "in.jsonl"
        obj = {"id": "a", "comment": "x", "code": "y", **extra,
               "provenance": [{"stage": "rule", "action": "retained"}], "score": 1.5}
        _write_lines(f, [json.dumps(obj)])
        (rec,) = read_jsonl(f)
        assert not hasattr(rec, "__dict__") and rec.provenance == obj["provenance"]
        assert rec.extra == extra
        out = tmp_path / "out.jsonl"
        write_jsonl([rec], out)
        assert out.read_text(encoding="utf-8") == json.dumps(obj, ensure_ascii=False) + "\n"


def _reference_read(path):
    """The duplicate check with a set of every id: all records, then the first repeat."""
    records, seen, first = [], set(), None
    for line_no, obj in corpus.iter_json_objects(path):
        record = corpus._record_from_obj(obj, line_no)
        if first is None and record.id in seen:
            first = (line_no, record.id)
        seen.add(record.id)
        records.append(record)
    return records, first


def _read_all(path):
    """``read_jsonl``'s records up to its error, and the (line, id) of a duplicate."""
    records = []
    try:
        for record in read_jsonl(path):
            records.append(record)
    except CorpusError as exc:
        match = re.fullmatch(r'line (\d+): duplicate id "(.*)"', str(exc), re.DOTALL)
        assert match and int(match[1]) == exc.line_no, str(exc)
        return records, (exc.line_no, match[2])
    return records, None


_lines = st.lists(
    st.sampled_from(["", "  ", "\t"])
    | st.builds(lambda rid, comment: json.dumps({"id": rid, "comment": comment, "code": "c"}),
                st.text("abé", max_size=2), st.sampled_from(["x", "y"])),
    max_size=12,
)


class TestDuplicateCheck:
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(_lines, st.sampled_from(["\n", "\r\n"]))
    def test_matches_a_set_of_every_id(self, tmp_path_factory, lines, newline):
        f = tmp_path_factory.mktemp("dup") / "in.jsonl"
        f.write_bytes(newline.join(lines).encode("utf-8"))
        assert _read_all(f) == _reference_read(f)

    @pytest.mark.parametrize("ids, first", [
        (["a", "b", "c", "d"], None),
        (["a", "b", "c", "b", "a"], (4, "b")),
        (["a", "", "b", "", "c"], (4, "")),
    ])
    def test_distinct_ids_whose_hashes_collide_raise_nothing(self, tmp_path, monkeypatch,
                                                             ids, first):
        monkeypatch.setattr(corpus, "_hash", lambda id_: 7)
        f = tmp_path / "in.jsonl"
        _write_lines(f, [json.dumps({"id": rid, "comment": "x", "code": "y"}) for rid in ids])
        records, duplicate = _read_all(f)
        assert [r.id for r in records] == ids
        assert duplicate == first

    def test_a_repeat_is_reported_after_the_last_record(self, tmp_path):
        f = tmp_path / "in.jsonl"
        _write_lines(f, ['{"id":"a","comment":"x","code":"y"}',
                         '{"id":"a","comment":"z","code":"w"}',
                         "{not json"])
        with pytest.raises(CorpusError, match="^line 3: malformed JSON"):
            list(read_jsonl(f))
        stream = read_jsonl(f)
        assert next(stream).id == "a" and next(stream).id == "a"
        stream.close()  # a caller that stops early gets no duplicate check

    @pytest.mark.parametrize("rewrite, detail", [
        (lambda lines: lines[:-1], "its ids differ from the first read"),
        (lambda lines: lines + [lines[0]], "its ids differ from the first read"),
        (lambda lines: lines[:1] + ["{not json"] + lines[1:], "line 2: malformed JSON"),
    ], ids=["repeat_removed", "record_added", "line_broken"])
    def test_input_changed_before_the_confirming_read_exits_2(self, tmp_path, monkeypatch,
                                                              capsys, rewrite, detail):
        path = tmp_path / "pairs.jsonl"
        lines = [json.dumps({"id": f"r{i}", "comment": "Parse the value.", "code": "y"})
                 for i in range(5)]
        _write_lines(path, lines + [lines[2]])
        reads, real = [], corpus.iter_json_objects

        def iter_json_objects(p):
            reads.append(p)
            if len(reads) == 2:
                _write_lines(path, rewrite(path.read_text(encoding="utf-8").splitlines()))
            return real(p)

        monkeypatch.setattr(corpus, "iter_json_objects", iter_json_objects)
        out = tmp_path / "out"
        assert main(["rule-filter", "--quiet", "--input", str(path), "--retained", str(out),
                     "--rejects", str(tmp_path / "rejects"),
                     "--stats", str(tmp_path / "stats")]) == 2
        assert len(reads) == 2
        assert f"error: {path} changed while it was read: {detail}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.jsonl"]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("ids", [["a", "b"], ["a", "b", "a"]])
    def test_pipe_reads_once_and_cannot_confirm_a_repeat(self, ids):
        r, w = os.pipe()
        try:
            with os.fdopen(w, "w", encoding="utf-8") as fh:
                for rid in ids:
                    fh.write(json.dumps({"id": rid, "comment": "x", "code": "y"}) + "\n")
            stream = read_jsonl(f"/dev/fd/{r}")
            if len(set(ids)) == len(ids):
                assert [rec.id for rec in stream] == ids
            else:
                with pytest.raises(CorpusError, match="repeats an id, or two of its ids share "
                                                      "a 64-bit hash, and it cannot be read again"):
                    list(stream)
        finally:
            os.close(r)


class TestSpillBeside:
    def test_has_no_name_while_open_and_leaves_nothing_after_close(self, tmp_path):
        with corpus.spill_beside(tmp_path / "out.jsonl") as spill:
            spill.write(b"one\n")
            spill.write(b"two\n")
            assert os.listdir(tmp_path) == []
            spill.seek(0)
            assert list(spill) == [b"one\n", b"two\n"]
        assert os.listdir(tmp_path) == []


class TestRecordLine:
    def test_writes_lone_surrogates_as_their_escapes_and_reads_them_back(self, tmp_path):
        record = Record(id="\ud800", comment="é \u2028 \"x\" \\ud800", code="\udfff",
                        provenance=[provenance_entry("rule", "retained", before="\udfff")],
                        extra={"k\ud800": ["\udfff"]})
        line = corpus.record_line(record)
        assert line == (b'{"id": "\\ud800", "comment": "\xc3\xa9 \xe2\x80\xa8 \\"x\\" \\\\ud800", '
                        b'"code": "\\udfff", "k\\ud800": ["\\udfff"], "provenance": '
                        b'[{"stage": "rule", "action": "retained", "before": "\\udfff"}]}\n')
        (tmp_path / "out.jsonl").write_bytes(line)
        assert list(read_jsonl(tmp_path / "out.jsonl")) == [record]


class TestWriteJsonl:
    def test_one_record_one_line_with_newline(self, tmp_path):
        f = tmp_path / "out.jsonl"
        write_jsonl([Record(id="a", comment="x", code="y")], f)
        raw = f.read_text(encoding="utf-8")
        assert raw.endswith("\n")
        assert raw.count("\n") == 1
        assert json.loads(raw) == {"id": "a", "comment": "x", "code": "y"}

    def test_non_ascii_round_trip(self, tmp_path):
        f = tmp_path / "out.jsonl"
        rec = Record(id="a", comment="naïve merge — 试", code="y")
        write_jsonl([rec], f)
        (back,) = read_jsonl(f)
        assert back.comment == rec.comment

    def test_failure_mid_stream_keeps_previous_file(self, tmp_path):
        f = tmp_path / "out.jsonl"
        write_jsonl([Record(id="old", comment="x", code="y")], f)
        before = f.read_bytes()

        def failing():
            for i in range(1000):  # enough to flush part of the file
                yield Record(id=f"r{i}", comment="x" * 100, code="y")
            raise RuntimeError("stage crashed")

        with pytest.raises(RuntimeError, match="stage crashed"):
            write_jsonl(failing(), f)
        assert f.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


class TestJsonlWriter:
    def test_puts_are_lines_in_order_and_match_write_jsonl(self, tmp_path):
        records = [Record(id=f"r{i}", comment="x", code="y", score=0.5 * i) for i in range(3)]
        with jsonl_writer(tmp_path / "put.jsonl") as put:
            for record in records:
                put(record)
        write_jsonl(iter(records), tmp_path / "write.jsonl")
        assert (tmp_path / "put.jsonl").read_bytes() == (tmp_path / "write.jsonl").read_bytes()
        assert [r.id for r in read_jsonl(tmp_path / "put.jsonl")] == ["r0", "r1", "r2"]

    def test_failure_inside_the_block_keeps_previous_file(self, tmp_path):
        f = tmp_path / "out.jsonl"
        write_jsonl([Record(id="old", comment="x", code="y")], f)
        before = f.read_bytes()
        with pytest.raises(RuntimeError, match="stage crashed"):
            with jsonl_writer(f) as put:
                for i in range(1000):  # enough to flush part of the file
                    put(Record(id=f"r{i}", comment="x" * 100, code="y"))
                raise RuntimeError("stage crashed")
        assert f.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


_prov_entries = st.builds(
    provenance_entry,
    stage=st.sampled_from(["extract", "rule", "semantic"]),
    action=st.sampled_from(["transformed", "rejected", "retained"]),
    rule_id=st.none() | st.sampled_from(["urls", "short_sentence"]),
)
_extras = st.dictionaries(
    st.sampled_from(["repo", "stars", "lang", "path"]),
    st.text(max_size=8) | st.integers() | st.booleans(),
    max_size=2,
)


@st.composite
def _records(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    return [
        Record(
            id=f"rec-{i}",
            comment=draw(st.text(max_size=30)),
            code=draw(st.text(max_size=30)),
            provenance=draw(st.lists(_prov_entries, max_size=2)),
            score=draw(
                st.none() | st.floats(min_value=0, max_value=1e6, allow_nan=False)
            ),
            extra=draw(_extras),
        )
        for i in range(n)
    ]


# The first example pays Hypothesis's one-time unicode table build, which
# trips the too_slow health check on a checkout without a .hypothesis cache.
@settings(suppress_health_check=[HealthCheck.too_slow])
@given(_records())
def test_round_trip_identity(tmp_path_factory, records):
    f = tmp_path_factory.mktemp("rt") / "roundtrip.jsonl"
    write_jsonl(records, f)
    back = list(read_jsonl(f))
    assert back == records


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)


@settings(suppress_health_check=[HealthCheck.too_slow])
@given(st.dictionaries(st.text(max_size=5), _json_values, max_size=4))
def test_encoder_writes_what_json_encoder_writes(obj):
    reference = json.JSONEncoder(ensure_ascii=False).encode(obj)
    assert corpus._ENCODE(obj) == reference
    assert corpus._json_encoder()(obj) == reference


def test_encoder_without_the_c_accelerator_is_json_encoder(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    obj = {"id": "a", "comment": "naïve — 试", "score": 0.1}
    assert corpus._json_encoder()(obj) == json.JSONEncoder(ensure_ascii=False).encode(obj)


class TestExtractFirstSentence:
    def test_terminator_boundary(self):
        assert (
            extract_first_sentence("Parses a line. Returns null on failure.")
            == "Parses a line."
        )

    def test_single_sentence_identity(self):
        assert extract_first_sentence("parse line") == "parse line"

    def test_multiline_collapse(self):
        assert (
            extract_first_sentence("Reads config\nand validates it.\nSee docs.")
            == "Reads config and validates it."
        )

    def test_no_terminator_falls_back_to_first_line(self):
        assert extract_first_sentence("first line only\nsecond line") == "first line only"

    def test_no_terminator_skips_leading_blank_lines(self):
        comment = "\n    Returns the sum of a and b\n    as an int\n"
        assert extract_first_sentence(comment) == "Returns the sum of a and b"
        assert extract_first_sentence(" \t\n\n  parse line  \nmore") == "parse line"

    def test_empty_input(self):
        assert extract_first_sentence("") == ""
        assert extract_first_sentence("   \n \t ") == ""

    def test_terminator_without_following_whitespace_is_not_a_boundary(self):
        assert extract_first_sentence("see a.b for details\nmore") == "see a.b for details"

    @given(st.text(max_size=60)
           | st.text(alphabet=st.sampled_from("ab.?! \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000"),
                     max_size=30))
    def test_matches_regex_whitespace_collapse(self, text):
        def collapse(t):
            return re.sub(r"\s+", " ", t).strip()

        normalized = collapse(text)
        match = re.search(r"[.!?](?=\s|$)", normalized)
        if not normalized:
            expected = ""
        elif match:
            expected = normalized[: match.end()]
        else:
            expected = collapse(next(line for line in text.splitlines() if line.strip()))
        assert extract_first_sentence(text) == expected

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        once = extract_first_sentence(text)
        assert extract_first_sentence(once) == once


class TestPrepareBootstrap:
    def _ruleset(self):
        return default_ruleset(disabled=("interrogation",))

    def test_how_to_question_becomes_declarative(self):
        stats = BootstrapStats()
        out = list(
            prepare_bootstrap(
                ["How to convert string to int?"], self._ruleset(), stats
            )
        )
        assert out == ["convert string to int"]
        assert stats.kept == 1

    def test_non_how_to_dropped_with_counter(self):
        stats = BootstrapStats()
        out = list(prepare_bootstrap(["Why is my loop slow?"], self._ruleset(), stats))
        assert out == []
        assert stats.not_how_to == 1

    def test_javadoc_tag_rejected_after_prefix_strip(self):
        stats = BootstrapStats()
        out = list(prepare_bootstrap(["How to use {@link Foo}"], self._ruleset(), stats))
        assert out == []
        assert stats.rejected == 1

    def test_requires_interrogation_free_ruleset(self):
        with pytest.raises(ValueError, match="interrogation"):
            list(prepare_bootstrap(["How to x"], default_ruleset()))

    @given(st.text(max_size=80))
    def test_outputs_are_declarative(self, title):
        for query in prepare_bootstrap([title], self._ruleset()):
            assert not query.lower().startswith("how to")
            assert not query.endswith("?")
            assert query == query.strip()
