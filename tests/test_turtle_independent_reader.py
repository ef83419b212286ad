"""Every export, read as a Turtle reader outside satkg would read it.

The reader here is written from the W3C Turtle grammar
(https://www.w3.org/TR/turtle/, section 6.5) for the statement forms the
writer emits: ``@prefix`` directives and triples statements with predicate
and object lists, whose terms are IRIs (``IRIREF``, ``PNAME_LN``,
``PNAME_NS``), ``a``, strings in double quotes with an optional datatype, and
``true``/``false``.  It shares no code with ``satkg.turtle`` or
``satkg.core``: it decodes ``ECHAR``, ``UCHAR`` and ``PN_LOCAL_ESC`` itself
and yields full-IRI triples, as N-Triples would
(https://www.w3.org/TR/n-triples/), with each literal as its datatype IRI
and value.  Anything else raises ``ValueError``.

The store is rendered the same way from its data model: each instance and
fact, and each class, property and alias with its facets, an instance named
by its name percent-encoded as UTF-8 (RFC 3986, unreserved characters kept).
The two must hold the same triples, each once, for the fixture catalog's
exports in both modes and for drawn stores whose names hold characters a
prefixed name cannot (``%``, ``/``, ``#``, quotes, non-ASCII, controls) and
whose strings hold quotes, backslashes, control characters and text beyond
the Basic Multilingual Plane.
"""

import re
from collections import Counter
from datetime import date
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from satkg import (
    DatatypeSpec,
    InstanceStore,
    Literal,
    ModelingMode,
    Namespaces,
    NumericRestriction,
    Ontology,
    TermKind,
    export_turtle,
    parse_csv,
)

from conftest import FIXTURES, ingest_fixture

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
XSD = "http://www.w3.org/2001/XMLSchema#"
NS = Namespaces()

# ------------------------------------------------------- the grammar's tokens

_BASE = ("A-Za-z\u00c0-\u00d6\u00d8-\u00f6\u00f8-\u02ff\u0370-\u037d\u037f-\u1fff\u200c-\u200d"
         "\u2070-\u218f\u2c00-\u2fef\u3001-\ud7ff\uf900-\ufdcf\ufdf0-\ufffd\U00010000-\U000effff")
_CHARS = _BASE + r"_\-0-9\u00b7\u0300-\u036f\u203f-\u2040"  # PN_CHARS
_PLX = r"%[0-9A-Fa-f]{2}|\\[_~.\-!$&'()*+,;=/?#@%]"
_UCHAR = r"\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8}"
TOKENS = re.compile(rf"""
    (?P<space>[ \t\r\n]+|\#[^\r\n]*)
  | (?P<iri><(?:[^\x00-\x20<>"{{}}|^`\\]|{_UCHAR})*>)
  | (?P<pname>(?:[{_BASE}](?:[{_CHARS}.]*[{_CHARS}])?)?:
        (?:(?:[{_BASE}_:0-9]|{_PLX})(?:(?:[{_CHARS}.:]|{_PLX})*(?:[{_CHARS}:]|{_PLX}))?)?)
  | (?P<string>"(?:[^"\\\r\n]|\\[tbnrf"'\\]|{_UCHAR})*")
  | (?P<keyword>@prefix|\^\^|a(?![{_CHARS}:])|true(?![{_CHARS}:])|false(?![{_CHARS}:])|[.;,])
    """, re.VERBOSE)
_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_ESCAPE = re.compile(rf"\\([tbnrf\"'\\])|{_UCHAR}")
_READ = {XSD + "string": str, XSD + "decimal": Decimal, XSD + "integer": int,
         XSD + "date": date.fromisoformat, XSD + "boolean": lambda text: text == "true"}


def tokens(text: str) -> list[tuple[str, str]]:
    out, at = [], 0
    while at < len(text):
        m = TOKENS.match(text, at)
        if m is None:
            raise ValueError(f"no token at {text[at:at + 20]!r}")
        if m.lastgroup != "space":
            out.append((m.lastgroup, m.group()))
        at = m.end()
    return out


def unescape(body: str) -> str:  # ECHAR and UCHAR
    return _ESCAPE.sub(lambda m: _ECHAR[m[1]] if m[1] else chr(int(m[0][2:], 16)), body)


def read_triples(text: str) -> list[tuple]:
    """The triples of ``text``: (subject IRI, predicate IRI, object), the object
    an IRI or a (datatype IRI, value) pair."""
    found, prefixes = [], {}
    stream = tokens(text) + [("end", "")]
    at = 0

    def take(kind=None, text=None):
        nonlocal at
        got_kind, got = stream[at]
        if (kind and got_kind != kind) or (text and got != text):
            raise ValueError(f"expected {kind or text!r}, found {got!r}")
        at += 1
        return got

    def iri() -> str:
        kind, token = stream[at]
        take()
        if kind == "iri":
            return unescape(token[1:-1])
        if kind == "pname":
            prefix, _, local = token.partition(":")
            return prefixes[prefix] + re.sub(r"\\(.)", r"\1", local)  # PN_LOCAL_ESC
        raise ValueError(f"expected an IRI, found {token!r}")

    def term():
        kind, token = stream[at]
        if kind == "string":
            take()
            datatype = XSD + "string"
            if stream[at][1] == "^^":
                take()
                datatype = iri()
            return datatype, _READ[datatype](unescape(token[1:-1]))
        if token in ("true", "false"):
            take()
            return XSD + "boolean", token == "true"
        return iri()

    while stream[at][0] != "end":
        if stream[at][1] == "@prefix":
            take()
            label = take("pname")[:-1]
            prefixes[label] = iri()
            take(text=".")
            continue
        subject = iri()
        while True:
            predicate = RDF + "type" if stream[at][1] == "a" and take() else iri()
            found.append((subject, predicate, term()))
            while stream[at][1] == ",":
                take()
                found.append((subject, predicate, term()))
            if take("keyword") == ".":
                break
    return found


# ------------------------------------------------------- the store's triples

def instance_iri(name: str) -> str:
    keep = re.compile(r"[A-Za-z0-9\-._~]")
    return NS.instances + "".join(c if keep.fullmatch(c) else "".join(
        f"%{byte:02X}" for byte in c.encode("utf-8")) for c in name)


def typed(value) -> tuple:
    return XSD + {str: "string", bool: "boolean", int: "integer", Decimal: "decimal",
                  date: "date"}[type(value)], value


def store_triples(store: InstanceStore) -> list[tuple]:
    ont, t, a = store.ontology, NS.terms, RDF + "type"
    found = []
    for name, cdef in ont.classes.items():
        found += [(t + name, a, OWL + "Class")] + [
            (t + name, RDFS + "subClassOf", t + p) for p in cdef.parents]
        if cdef.definition is not None:
            found.append((t + name, RDFS + "comment", typed(cdef.definition)))
    found += [(t + alias, NS.vocab + "aliasFor", t + target) for alias, target in ont.aliases.items()]
    for name, pdef in ont.properties.items():
        link = pdef.kind is TermKind.OBJECT_PROPERTY
        found.append((t + name, a, OWL + ("ObjectProperty" if link else "DatatypeProperty")))
        found += [(t + name, a, OWL + "FunctionalProperty")] if pdef.functional else []
        found += [(t + name, RDFS + "domain", t + c) for c in pdef.domain]
        found += [(t + name, RDFS + "range", t + c) for c in pdef.range_classes]
        spec = pdef.datatype
        if spec is not None:
            found.append((t + name, RDFS + "range", XSD + spec.base))
            facets = {"unitLabel": spec.unit}
            if spec.restriction is not None:
                r = spec.restriction
                facets.update(minValue=r.lower, maxValue=r.upper, minInclusive=r.lower_inclusive,
                              maxInclusive=r.upper_inclusive, warnAtUpper=r.warn_at_upper)
            found += [(t + name, NS.vocab + facet, typed(value))
                      for facet, value in facets.items() if value is not None]
    for term in store.instances:
        found.append((instance_iri(term.name), a, OWL + "NamedIndividual"))
    for s, p, o in store.facts():
        o = t + o if p == "instance_of" else typed(o.value) if isinstance(o, Literal) else instance_iri(o)
        found.append((instance_iri(s), a if p == "instance_of" else t + p, o))
    return found


def reads_as_written(store: InstanceStore) -> None:
    written = Counter(store_triples(store))
    assert max(written.values()) == 1
    assert Counter(read_triples(export_turtle(store))) == written


# ------------------------------------------------------------------- tests

def test_the_fixture_exports_read_as_their_stores():
    records = parse_csv((FIXTURES / "ucs_sample.csv").read_bytes())
    for mode in ModelingMode:
        store = ingest_fixture(records, mode)[0]
        assert store.assertion_count > 100
        reads_as_written(store)


AWKWARD = st.sampled_from(['"', "\\", "%", "%41", "/", "#", ":", "<", ">", "é", "\u00b7", "😀",
                           "\x00", "\x07", "\x85", "\u2028", "\r", "\n", "\t", ".", "-", "'"])
STRINGS = st.lists(AWKWARD | st.text(max_size=4), max_size=5).map("".join)
NAMES = st.lists(AWKWARD | st.text(max_size=3), min_size=1, max_size=5).map("".join).filter(
    lambda name: re.fullmatch(r"\S+", name) is not None)
DECIMALS = st.decimals(min_value=-10**6, max_value=10**6, places=3)


@st.composite
def awkward_stores(draw) -> InstanceStore:
    ont = Ontology()
    ont.define_class("Thing", (), draw(st.none() | STRINGS))
    ont.define_class("Part", ["Thing"], draw(STRINGS))
    ont.define_alias("Whole", "Thing")
    ont.define_object_property("links", ["Thing"], ["Thing"])
    ont.define_data_property("has_Label", ["Thing"], DatatypeSpec("string", draw(STRINGS)))
    ont.define_data_property("has_Size", [], DatatypeSpec("decimal", draw(st.none() | STRINGS),
                                                          NumericRestriction(Decimal(-10**6))))
    ont.define_data_property("has_Count", [], DatatypeSpec("integer"), True)
    ont.define_data_property("has_Day", [], DatatypeSpec("date"))
    store = InstanceStore(ont)
    names = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    for name in names:
        store.add_instance(name)
    pick = st.sampled_from(names)
    facts = [(draw(pick), "instance_of", draw(st.sampled_from(["Thing", "Part"]))) for _ in names]
    facts += [(draw(pick), "links", draw(pick)) for _ in range(draw(st.integers(0, 4)))]
    facts += [(draw(pick), "has_Label", Literal(draw(STRINGS))) for _ in range(draw(st.integers(0, 4)))]
    facts += [(draw(pick), "has_Size", Literal(draw(DECIMALS))) for _ in range(draw(st.integers(0, 2)))]
    facts += [(name, "has_Count", Literal(draw(st.integers(-10**9, 10**9)))) for name in names[:2]]
    facts += [(draw(pick), "has_Day", Literal(draw(st.dates()))) for _ in range(draw(st.integers(0, 2)))]
    refused, _warnings = store.write(facts)
    assert refused == []
    return store


@settings(max_examples=200, deadline=None)
@given(awkward_stores())
def test_drawn_stores_with_awkward_names_and_strings_read_as_written(store):
    reads_as_written(store)
