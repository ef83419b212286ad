"""Differential test of the Turtle reader's tokenizer and statement loop.

The reference is the earlier reader, kept here unchanged but for the raw
carriage return, which a string may no longer hold (W3C Turtle): one ``finditer``
over the whole text with a named group per token kind, whitespace read as
tokens that count lines.  ``satkg.turtle._read`` reads statement pieces, one
``findall`` match each, and logs each triple with the match and group of
its object's token, which ``satkg.turtle._line`` turns into a line.  On every input both must
yield the same (subject, predicate, object, line) triples, or raise the
same exception type with the same message and ``.line``.

Inputs start from the golden export, maybe with one token deleted,
duplicated or swapped, and then take up to four edits: ``\\r\\n`` line
endings, tabs, comments and blank lines, a dropped final newline, a
character that ``str.splitlines`` (but not Turtle) takes as a line break,
inside a string body or anywhere, and a token that does not resolve,
inserted between two others.  Random short texts over the fragment's
punctuation cover the rest, and a text of five ~64 KB pieces the places
where the reader's scan is split.  Lines are split on ``\\n`` only.
"""

import re
from typing import Iterator, Optional
from urllib.parse import unquote

from hypothesis import example, given, settings
from hypothesis import strategies as st

from satkg.core import Literal, unescape_string
from satkg.errors import SatkgError, TurtleParseError, UnsupportedConstruct
from satkg.turtle import (
    _BAD_START, _LEXICAL_FORMS, _PIECE_RE, _READ_LITERAL, _STANDARD, _Node, _line, _read, _scan,
)

from conftest import FIXTURES, mangled

# ------------------------------------------------------------ the reference

REFERENCE_TOKEN_RE = re.compile(
    r"""
    [ \t]*  # blanks before a token, read with it (a token is the text of its group)
    (?:(?P<space>[ \t\r\n]+|\#[^\n]*)
  | (?P<outside>[\[\]()]|_:|"{3})
  | (?P<iri><[^\x00-\x20<>"{}|^`\\]*>)
  | (?P<string>"(?P<body>(?:[^"\\\n\r]|\\.)*)"
        (?:\^\^(?P<datatype>[A-Za-z][A-Za-z0-9_\-]*:[A-Za-z0-9_][A-Za-z0-9_\-]*))?)
  | (?P<pname>(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_][A-Za-z0-9_\-]*)?)
  | (?P<word>@?[A-Za-z]+)
  | (?P<punct>[.;,])
  | (?P<bad>.))
    """,
    re.VERBOSE,
)


def reference_triples(text: str) -> Iterator[tuple[str, str, _Node, int]]:
    """Yield each triple as (subject, predicate, object, line of the object):
    a resource as ``"label:name"`` under the labels t, i, v, rdf, rdfs, owl
    and xsd, whatever prefix the text used, and a literal as a :class:`Literal`.

    Each token is resolved to its node as it is read, through a memo kept
    until the next ``@prefix``, so a repeated token costs one dict probe.  A
    token that does not resolve is reported when its statement ends, after
    the statement's shape is checked, as if the statement were read whole."""
    declared: dict[str, str] = {}  # prefix label -> namespace IRI
    spaces = dict(_STANDARD)  # namespace IRI -> label, the project ones first
    resolved: dict[str, _Node] = {}  # token text -> its node, until the next @prefix
    run: list[Optional[_Node]] = []  # nodes since the last punctuation
    failed: Optional[SatkgError] = None  # the first token of ``run`` that did not resolve
    directive: Optional[list[tuple[str, str]]] = None  # (kind, text) of an @-directive
    subject: Optional[_Node] = None
    predicate: Optional[_Node] = None
    line = at = 1  # the current line, and that of the last node read

    def pname(text: str, line: int) -> str:
        label, _, name = text.partition(":")
        space = spaces.get(declared.get(label, ""))
        if space is None:
            raise TurtleParseError(f"unknown prefix {label!r}", line)
        return text if space == label else f"{space}:{name}"

    def node(kind: str, text: str, m: re.Match, line: int) -> _Node:
        if kind == "pname":
            return pname(text, line)
        if kind == "iri":
            for base, label in spaces.items():
                if text.startswith(base, 1):
                    name = text[len(base) + 1 : -1]
                    return f"{label}:{unquote(name) if label == 'i' else name}"
            raise UnsupportedConstruct(f"line {line}: IRI outside the fragment: {text}")
        if kind == "string":
            body = unescape_string(m.group("body"), lambda message: TurtleParseError(message, line))
            if m.group("datatype") is None:
                return Literal(body)
            datatype = pname(m.group("datatype"), line)
            read = _READ_LITERAL.get(datatype[4:]) if datatype.startswith("xsd:") else None
            if read is None:
                raise UnsupportedConstruct(f"line {line}: datatype {datatype}")
            form = _LEXICAL_FORMS.get(datatype[4:])
            try:
                if form is not None and form.fullmatch(body) is None:
                    raise ValueError(body)
                return Literal(read(body))
            except (ValueError, ArithmeticError):
                raise TurtleParseError(f"bad {datatype} literal {body!r}", line) from None
        if text in ("true", "false"):
            return Literal(text == "true")  # type: ignore[arg-type]
        if text == "a":
            return "rdf:type"
        raise TurtleParseError(f"unexpected {text!r}", line)

    for m in REFERENCE_TOKEN_RE.finditer(text):
        kind = m.lastgroup or ""
        token = m[kind]
        if kind == "space":
            line += token.count("\n")
        elif kind == "outside":
            raise UnsupportedConstruct(f"line {line}: {token!r} is outside the fragment")
        elif kind == "bad":
            problem = _BAD_START.get(token, f"unexpected character {token!r}")
            raise TurtleParseError(problem, line)
        elif kind != "punct":
            if directive is not None:
                directive.append((kind, token))
            elif subject is None and not run and token[0] == "@":
                directive = [(kind, token)]
            else:
                found = resolved.get(token)
                if found is None:
                    try:
                        found = resolved[token] = node(kind, token, m, line)
                    except SatkgError as exc:
                        failed = failed or exc
                run.append(found)
                at = line
        elif directive is not None:
            words = [word for _, word in directive]
            if words[0] != "@prefix":
                raise UnsupportedConstruct(f"line {line}: {words[0]} is outside the fragment")
            if ([kind for kind, _ in directive] != ["word", "pname", "iri"] or token != "."
                    or not words[1].endswith(":")):
                raise TurtleParseError("expected '@prefix label: <IRI> .'", line)
            declared[words[1][:-1]] = words[2][1:-1]
            spaces = {declared[label]: label for label in ("t", "i", "v") if label in declared}
            spaces.update((iri, label) for iri, label in _STANDARD.items() if iri not in spaces)
            resolved.clear()
            directive = None
        else:
            want = 3 - (subject is not None) - (predicate is not None)
            if len(run) != want:
                roles = ("subject", "predicate", "object")[3 - want:]
                raise TurtleParseError(f"expected {' '.join(roles)} before {token!r}", line)
            if failed is not None:
                raise failed
            if subject is None:
                subject = run[0]
            if predicate is None:
                predicate = run[-2]
            if not isinstance(subject, str) or not isinstance(predicate, str):
                raise TurtleParseError("a literal as subject or predicate", line)
            yield subject, predicate, run[-1], at  # type: ignore[misc]
            if token == ".":
                subject = predicate = None
            elif token == ";":
                predicate = None
            run = []
    if run or subject is not None or directive is not None:
        raise TurtleParseError("expected '.' at the end of the input", line)


# ------------------------------------------------------------------ inputs

GOLDEN = (FIXTURES / "one_satellite.ttl").read_text(encoding="utf-8")
#: characters ``str.splitlines`` breaks at besides ``\n``; none is a Turtle line break
LINE_BREAKS_ELSEWHERE = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
#: tokens that do not resolve: an unknown prefix, an IRI outside the
#: namespaces, an unsupported or ill-formed datatype, a stray word
UNRESOLVED = ["u:x", "<http://elsewhere.example/x>", '"1"^^xsd:float', '"x"^^xsd:decimal',
              "yes", "@prefix", '"2016-4-25"^^xsd:date']


@st.composite
def edited(draw, text):
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["crlf", "tab", "comment", "blank line", "no final newline",
                                     "odd character", "odd character in a string",
                                     "unresolved token"]))
        ends = [m.start() for m in re.finditer("\n", text)]
        gaps = [m.start() for m in re.finditer(" ", text)]
        if edit == "crlf":
            keep = draw(st.sets(st.sampled_from(ends))) if ends and draw(st.booleans()) else ()
            text = _crlf(text, keep)
        elif edit == "tab" and gaps:
            at = draw(st.sampled_from(gaps))
            text = text[:at] + draw(st.sampled_from(["\t", " \t", "\t\t"])) + text[at + 1:]
        elif edit == "comment":
            at = draw(st.integers(0, len(text)))
            body = draw(st.sampled_from(["", " note", "t:A a owl:Class .", '"', "<", "\r"]))
            text = f"{text[:at]}#{body}{text[at:]}"
        elif edit == "blank line" and ends:
            at = draw(st.sampled_from(ends))
            line = draw(st.sampled_from(["", " ", "\t", "\r", "# comment", "  # t:A .", " \r "]))
            text = f"{text[:at + 1]}{line}\n{text[at + 1:]}"
        elif edit == "no final newline":
            text = text.rstrip("\n")
        elif edit == "odd character":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(LINE_BREAKS_ELSEWHERE)) + text[at:]
        elif edit == "odd character in a string":
            quotes = [m.end() for m in re.finditer(r'(?<![\w"])"', text)]
            if quotes:
                at = draw(st.sampled_from(quotes))
                text = text[:at] + draw(st.sampled_from(LINE_BREAKS_ELSEWHERE)) + text[at:]
        elif edit == "unresolved token" and gaps:
            at = draw(st.sampled_from(gaps))
            text = f"{text[:at]} {draw(st.sampled_from(UNRESOLVED))}{text[at:]}"
    return text


def _crlf(text: str, keep) -> str:
    """``text`` with each ``\\n`` at an offset not in ``keep`` written ``\\r\\n``."""
    return "".join("\n" if c == "\n" and i in keep else "\r\n" if c == "\n" else c
                   for i, c in enumerate(text))


def reader_triples(text: str) -> Iterator[tuple[str, str, _Node, int]]:
    """The reader's triples, each object's (match, group) turned into the line
    it starts on (one pass; ``_line`` must agree at the first and the last)."""
    _read(text, None, {}, found := [])
    matches = list(_scan(text, _PIECE_RE.finditer))
    for s, p, o, (n, group) in found:
        yield s, p, o, text.count("\n", 0, matches[n].start(group)) + 1
    for s, p, o, (n, group) in found[:1] + found[-1:]:
        assert _line(text, (n, group)) == text.count("\n", 0, matches[n].start(group)) + 1


def outcome(reader, text: str):
    try:
        return list(reader(text))
    except SatkgError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


# ------------------------------------------------------------------- tests


def test_the_golden_export_reads_the_same():
    assert outcome(reader_triples, GOLDEN) == outcome(reference_triples, GOLDEN)
    assert len(outcome(reader_triples, GOLDEN)) > 250


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.just(GOLDEN), mangled(GOLDEN)).flatmap(edited))
@example(GOLDEN.replace("\n", "\r\n"))
@example(GOLDEN.replace("t:Academic_User a", "t:Academic_User u:x a"))
def test_edited_exports_read_the_same(text):
    assert outcome(reader_triples, text) == outcome(reference_triples, text)


def test_a_text_of_many_pieces_reads_the_same():
    # the reader scans pieces of about 64 KB that end at a newline; here one
    # opens with a comment line, which it reads as an empty token and skips
    body = GOLDEN[GOLDEN.index("\n\n"):]
    block = body.replace(" .\n\n", " . # after\n# a line of comment\n\n   \n\t\r\n", 40)
    text = GOLDEN[:GOLDEN.index("\n\n")] + block * 30
    assert len(text) > 4 * 65536
    assert outcome(reader_triples, text) == outcome(reference_triples, text)
    ends = [0]
    while ends[-1] < len(text):
        ends.append(text.find("\n", ends[-1] + 65536) + 1 or len(text))
    assert any(text.startswith("#", end) for end in ends)  # a piece opens with a comment
    for tail in ('t:A u:x "unterminated\n', "t:A a owl:Class ; t:q u:x .\n", "t:A a\n\n"):
        assert outcome(reader_triples, text + tail) == outcome(reference_triples, text + tail)


FRAGMENT_CHARACTERS = ' \t\r\n#"<>:.;,@_[]()^\\atixyz0\x85\u2028'


@settings(max_examples=400, deadline=None)
@given(st.text(FRAGMENT_CHARACTERS, max_size=40).map(
    lambda body: "@prefix t: <https://satkg.example/terms#> .\n" + body))
def test_short_texts_over_the_fragments_characters_read_the_same(text):
    assert outcome(reader_triples, text) == outcome(reference_triples, text)
