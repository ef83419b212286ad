"""Differential test of the CSV row reader against a state-machine reference.

``reference_read_rows`` is the specification: a character-by-character
RFC-4180 state machine.  On random text over the characters that matter to
the grammar, ``ingest._read_rows`` must yield the same ``(row_number,
fields)`` list, or raise ``MalformedCsv`` with the same message and row.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from satkg.errors import MalformedCsv
from satkg.ingest import _read_rows


def reference_read_rows(text: str):
    """RFC-4180 state machine yielding (row_number, fields)."""
    fields: list[str] = []
    buf: list[str] = []
    row_number = 1
    in_quotes = False
    after_quoted = False  # just closed a quoted field; only , CR LF may follow
    started = False  # current record has content
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if in_quotes:
            if ch == '"':
                if i + 1 < n and text[i + 1] == '"':
                    buf.append('"')
                    i += 2
                    continue
                in_quotes = False
                after_quoted = True
            else:
                buf.append(ch)
            i += 1
            continue
        if ch == '"':
            if buf or after_quoted:
                raise MalformedCsv("quote opened in the middle of a field", row_number)
            in_quotes = True
            started = True
            i += 1
            continue
        if ch == ",":
            fields.append("".join(buf))
            buf.clear()
            after_quoted = False
            started = True
            i += 1
            continue
        if ch in "\r\n":
            if ch == "\r" and i + 1 < n and text[i + 1] == "\n":
                i += 1
            if started or fields:
                fields.append("".join(buf))
                yield row_number, fields
                fields = []
                buf.clear()
            row_number += 1
            after_quoted = False
            started = False
            i += 1
            continue
        if after_quoted:
            raise MalformedCsv("unexpected text after closing quote", row_number)
        buf.append(ch)
        started = True
        i += 1
    if in_quotes:
        raise MalformedCsv("unbalanced quote", row_number)
    if started or fields:
        fields.append("".join(buf))
        yield row_number, fields


def outcome(read, text: str):
    """The rows a reader yields, or the message and row of its error."""
    try:
        return list(read(text))
    except MalformedCsv as exc:
        return ("error", str(exc), exc.row)


_PIECES = st.sampled_from(["a", "b", ",", '"', '""', "\r", "\n", " "])


@settings(max_examples=2000, deadline=None)
@given(st.lists(_PIECES, max_size=30).map("".join))
@example('"a""')  # an unbalanced quote, not text after a closing quote
@example('"a"b')
@example('ab"c')
@example("a,")  # a trailing empty field
@example("\r")
@example("\n\nx")  # x is row 3
@example('"a\nb"\nc')  # a break inside quotes does not count: c is row 2
@example('"a"""')
@example('x\r\n"",\r\r\n"')
def test_reader_matches_state_machine(text):
    assert outcome(_read_rows, text) == outcome(reference_read_rows, text)


def test_examples_pin_the_reference():
    """The reference itself gives the documented answers."""
    assert outcome(reference_read_rows, '"a""') == ("error", "row 1: unbalanced quote", 1)
    assert outcome(reference_read_rows, "a,") == [(1, ["a", ""])]
    assert outcome(reference_read_rows, "\n\nx") == [(3, ["x"])]
    assert outcome(reference_read_rows, '"a\nb"\nc') == [(1, ["a\nb"]), (2, ["c"])]
