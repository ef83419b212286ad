"""Differential test of the Turtle reader's declarations memo.

``import_turtle`` reads a file's declarations (the text up to its first line
opening with ``i:`` or ``<``) once per process and resumes the reader after
them.  Here the export of the fixture catalog in each mode is read first,
then, in the same process, a variant with one edit: a facet, a parent, a
unit or an alias changed, one byte of a ``@prefix`` IRI changed or dropped, a
``t:`` statement appended after the instances, a syntax error after the cut,
or a declaration truncated, with or without the instances after it.

The warm read must give the same store and export as a read with the memo
emptied, and as a read of the whole text from its start (the empty prefix,
as before the memo), or raise the same exception type, message and ``.line``;
and it must leave the memo's entries as they were.  A text of several ~64 KB
pieces, with errors on the first token of a line after the first piece,
checks that the reader's token indexes go on across the cut.
"""

import re
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from satkg import InstanceStore, ModelingMode, export_turtle, import_turtle, parse_csv, turtle
from satkg.errors import SatkgError

from conftest import FIXTURES, ingest_fixture

RECORDS = parse_csv((FIXTURES / "ucs_sample.csv").read_bytes())
EXPORTS = {mode: export_turtle(ingest_fixture(RECORDS, mode)[0]) for mode in ModelingMode}

NUMBERS = ["0", "-1", "1", "0.5", "1E3", "99999", "x", "1_0"]
UNITS = ["", "m", "km", "kg", "degrees", 'a \\"b\\"', "\\u00b0"]
APPENDED = [
    "t:Drift_Orbit a owl:Class ; rdfs:subClassOf t:Orbit .",
    "t:Drift_Orbit a owl:Class ; rdfs:subClassOf t:Nope .",
    "t:Orbit a owl:Class ; rdfs:subClassOf t:Space_Object .",
    "t:Orbit a owl:Class ; rdfs:comment \"again\" .",
    "t:Track v:aliasFor t:Orbit .",
    "t:Track v:aliasFor t:Nope .",
    't:has_Drift a owl:DatatypeProperty ; rdfs:range xsd:decimal ; v:unitLabel "km" .',
    "t:has_Drift a owl:ObjectProperty ; rdfs:domain t:Orbit ; rdfs:range t:Orbit .",
    "t:has_Drift a owl:DatatypeProperty .",
    "t:X a owl:Thing .",
    "@prefix t: <https://satkg.example/terms#> .\nt:Drift_Orbit a owl:Class .",
    "@prefix i: <https://satkg.example/other#> .\ni:x a owl:NamedIndividual .",
]
AFTER_THE_CUT = ["u:x", "[", '"unterminated', ".", ";", "@base <x> .", "t:Orbit", "i:x a"]


def cut_of(text: str) -> int:
    found = re.search(r"\n(?=i:|<)", text)
    return found.end() if found else len(text)


def replace_one(draw, text: str, pattern: str, values) -> str:
    """``text`` with group 1 of one match of ``pattern`` before the cut set to a drawn value."""
    found = [m for m in re.finditer(pattern, text) if m.end() <= cut_of(text)]
    m = draw(st.sampled_from(found))
    return text[:m.start(1)] + draw(st.sampled_from(values)) + text[m.end(1):]


@st.composite
def variant(draw, text: str) -> str:
    cut = cut_of(text)
    classes = sorted(set(re.findall(r"^t:(\w+) a owl:Class", text, re.MULTILINE))) + ["Nope"]
    terms = classes + sorted(set(re.findall(r"^t:(\w+) a owl:\w+Property", text, re.MULTILINE)))
    edit = draw(st.sampled_from(["facet", "parent", "unit", "alias", "prefix byte", "appended",
                                 "syntax error after the cut", "truncated declaration"]))
    if edit == "facet":
        if draw(st.booleans()):
            return replace_one(draw, text, r'v:(?:min|max)Value "([^"]*)"', NUMBERS)
        return replace_one(draw, text, r"v:(?:minInclusive|maxInclusive|warnAtUpper) (\w+)",
                           ["true", "false", '"1"^^xsd:decimal'])
    if edit == "parent":
        return replace_one(draw, text, r"rdfs:subClassOf (?:t:\w+, )*t:(\w+)", classes)
    if edit == "unit":
        return replace_one(draw, text, r'v:unitLabel "([^"]*)"', UNITS)
    if edit == "alias":
        return replace_one(draw, text, r"(t:\w+ v:aliasFor t:\w+) \.",
                           [f"t:{a} v:aliasFor t:{b}" for a in ("Function", "Track", "Orbit")
                            for b in terms[::7]])
    if edit == "prefix byte":
        iris = [m.span(1) for m in re.finditer(r"^@prefix \w*: <([^>]*)>", text, re.MULTILINE)]
        start, end = draw(st.sampled_from(iris))
        at = draw(st.integers(start, end - 1))
        return text[:at] + draw(st.sampled_from(["", "x", "#", "/", " ", ">"])) + text[at + 1:]
    if edit == "appended":
        return text + draw(st.sampled_from(APPENDED)) + "\n"
    if edit == "syntax error after the cut":
        gaps = [m.start() for m in re.compile(" ").finditer(text, cut)]
        at = draw(st.sampled_from(gaps))
        return f"{text[:at]} {draw(st.sampled_from(AFTER_THE_CUT))}{text[at:]}"
    at = draw(st.integers(0, cut - 1))
    return text[:at] + (text[cut:] if draw(st.booleans()) else "")


def outcome(text: str):
    try:
        store = import_turtle(text)
    except SatkgError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return store, export_turtle(store)


def hit(prefix: str) -> tuple:
    """The memo's entry for ``prefix``, read through ``_declarations``, which must hit."""
    misses = turtle._declarations.cache_info().misses
    entry = turtle._declarations(prefix)
    assert turtle._declarations.cache_info().misses == misses, prefix[-80:]
    return entry


def entries() -> dict:
    """What the memo holds for the exports' declarations and the empty prefix, by value."""
    return {key: ([*map(dict, state[:3]), *state[3:]], repr(groups),
                  export_turtle(InstanceStore(ontology)))
            for key in [*(text[:cut_of(text)] for text in EXPORTS.values()), ""]
            for state, groups, ontology in [hit(key)]}


def outcomes(text: str) -> tuple:
    """The warm read (both exports read first), the read with the memo
    emptied, and the read of the whole text as the empty prefix."""
    for export in EXPORTS.values():
        import_turtle(export)
    turtle._declarations("")  # the entry of every text that does not read alone, built if missed
    before = entries()
    warm = outcome(text)
    after = entries()  # the three entries and the warm read's fill the memo: none is evicted
    assert after == before
    turtle._declarations.cache_clear()
    cold = outcome(text)
    declarations = turtle._declarations
    with mock.patch.object(turtle, "_declarations", lambda prefix: declarations("")):
        whole = outcome(text)
    return warm, cold, whole


def test_an_unedited_export_hits_and_reads_the_same():
    for mode, text in EXPORTS.items():
        warm, cold, whole = outcomes(text)
        assert warm == cold == whole
        assert warm[1] == text
        hit(text[:cut_of(text)])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(ModelingMode)).flatmap(lambda mode: variant(EXPORTS[mode])))
@example(EXPORTS[ModelingMode.DIRECT] + APPENDED[0] + "\n")
@example(EXPORTS[ModelingMode.REIFIED].replace("\ni:", "\ni:AAUSat-4 u:x .\ni:", 1))
@example(EXPORTS[ModelingMode.DIRECT][:cut_of(EXPORTS[ModelingMode.DIRECT]) - 3])
@example(EXPORTS[ModelingMode.DIRECT].replace("\n\ni:", "\n\n i:", 1))  # an instance before the cut
@example(EXPORTS[ModelingMode.DIRECT].replace("@prefix t: <https://satkg.example/terms#>",
                                              "@prefix t: <https://satkg.example/terms/>"))
def test_a_warm_read_equals_a_cold_read(text):
    warm, cold, whole = outcomes(text)
    assert warm == cold == whole


def test_a_warm_read_of_many_pieces_names_the_same_lines():
    # the reader scans pieces of about 64 KB that end at a newline; one piece
    # holds the cut, and one after it opens with a comment line
    text = EXPORTS[ModelingMode.REIFIED]
    cut = cut_of(text)
    body = text[cut:].replace(" .\n\n", " . # after\n# a line of comment\n\n   \n\t\r\n", 40)
    big = text[:cut] + body * 15
    assert len(big) > 4 * 65536
    middle = big.index("\n    t:has_", len(big) // 2) + 5
    for edited in (big, big[:middle] + "u" + big[middle + 1:], big[:middle] + "[ " + big[middle:],
                   big + 'i:x t:y "unterminated\n', big + "i:x a t:Nope .\n",
                   big + "i:AAUSat-4 t:has_Orbit i:x ;\n",
                   big + "@prefix i: <https://satkg.example/other#> .\n"):
        warm, cold, whole = outcomes(edited)
        assert warm == cold == whole
