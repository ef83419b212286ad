"""Reader and writer for the Turtle fragment used as the on-disk store format.

The fragment covers exactly what :func:`export_turtle` emits: prefix
declarations, class/property declarations with subsumption, domain/range and
datatype facets, alias links, and instance assertions.  Multiple
``rdfs:domain`` (or ``rdfs:range``) triples on one property are read
disjunctively, matching the in-memory model.  Blank nodes, collections and
other constructs outside the fragment are rejected.

Output is deterministic: terms appear in lexicographic order, so identical
stores serialize byte-for-byte identically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date, datetime
from decimal import Decimal
from typing import Optional, Union
from urllib.parse import quote, unquote

from .core import (
    DatatypeSpec,
    InstanceStore,
    Literal,
    NumericRestriction,
    Ontology,
    TermId,
    TermKind,
    escape_string,
    instance_term,
    lexical_form,
    unescape_string,
)
from .errors import TurtleParseError, UnsupportedConstruct

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"


@dataclass(frozen=True)
class Namespaces:
    """Project-local namespaces; override to publish under a different IRI."""

    terms: str = "https://satkg.example/terms#"
    instances: str = "https://satkg.example/inst#"
    vocab: str = "https://satkg.example/vocab#"


_XSD_OF_BASE = {
    "decimal": "xsd:decimal",
    "integer": "xsd:integer",
    "string": "xsd:string",
    "date": "xsd:date",
}
_BASE_OF_XSD = {v.split(":")[1]: k for k, v in _XSD_OF_BASE.items()}

_SAFE_LOCAL = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_\-]*\Z")


def _instance_ref(name: str, ns: Namespaces) -> str:
    if _SAFE_LOCAL.match(name):
        return f"i:{name}"
    return f"<{ns.instances}{quote(name, safe='')}>"


def _literal_ref(literal: Literal) -> str:
    value = literal.value
    if isinstance(value, str):
        return f'"{escape_string(value)}"'
    if isinstance(value, Decimal):
        return f'"{lexical_form(value)}"^^xsd:decimal'
    if isinstance(value, bool):  # the facet flags of a numeric restriction
        return "true" if value else "false"
    if isinstance(value, int):
        return f'"{value}"^^xsd:integer'
    if isinstance(value, date):
        return f'"{value.isoformat()}"^^xsd:date'
    raise TypeError(f"unsupported literal value {value!r}")


def _object_ref(obj: Union[TermId, Literal], ns: Namespaces) -> str:
    if isinstance(obj, Literal):
        return _literal_ref(obj)
    if obj.kind is TermKind.INSTANCE:
        return _instance_ref(obj.name, ns)
    return f"t:{obj.name}"


def export_turtle(store: InstanceStore, namespaces: Namespaces = Namespaces()) -> str:
    """Serialize a store (schema plus assertions) deterministically."""
    ns = namespaces
    lines = [
        f"@prefix rdf: <{RDF_NS}> .",
        f"@prefix rdfs: <{RDFS_NS}> .",
        f"@prefix owl: <{OWL_NS}> .",
        f"@prefix xsd: <{XSD_NS}> .",
        f"@prefix t: <{ns.terms}> .",
        f"@prefix i: <{ns.instances}> .",
        f"@prefix v: <{ns.vocab}> .",
    ]
    ont = store.ontology

    for name in sorted(ont.classes):
        cdef = ont.classes[name]
        lines.append("")
        parts = [f"t:{name} a owl:Class"]
        if cdef.parents:
            parents = ", ".join(f"t:{p}" for p in sorted(cdef.parents))
            parts.append(f"    rdfs:subClassOf {parents}")
        if cdef.definition is not None:
            parts.append(f'    rdfs:comment "{escape_string(cdef.definition)}"')
        lines.append(" ;\n".join(parts) + " .")

    for alias in sorted(ont.aliases):
        lines.append("")
        lines.append(f"t:{alias} v:aliasFor t:{ont.aliases[alias]} .")

    for name in sorted(ont.properties):
        pdef = ont.properties[name]
        lines.append("")
        if pdef.kind is TermKind.OBJECT_PROPERTY:
            decl = "owl:ObjectProperty"
        else:
            decl = "owl:DatatypeProperty"
        if pdef.functional:
            decl += ", owl:FunctionalProperty"
        parts = [f"t:{name} a {decl}"]
        if pdef.domain:
            domain = ", ".join(f"t:{d}" for d in sorted(pdef.domain))
            parts.append(f"    rdfs:domain {domain}")
        if pdef.kind is TermKind.OBJECT_PROPERTY:
            if pdef.range_classes:
                rng = ", ".join(f"t:{r}" for r in sorted(pdef.range_classes))
                parts.append(f"    rdfs:range {rng}")
        else:
            spec = pdef.datatype
            assert spec is not None
            parts.append(f"    rdfs:range {_XSD_OF_BASE[spec.base]}")
            if spec.unit is not None:
                parts.append(f'    v:unitLabel "{escape_string(spec.unit)}"')
            if spec.restriction is not None:
                r = spec.restriction
                if r.lower is not None:
                    parts.append(f"    v:minValue {_literal_ref(Literal(r.lower))}")
                    parts.append(f"    v:minInclusive {_literal_ref(Literal(r.lower_inclusive))}")
                if r.upper is not None:
                    parts.append(f"    v:maxValue {_literal_ref(Literal(r.upper))}")
                    parts.append(f"    v:maxInclusive {_literal_ref(Literal(r.upper_inclusive))}")
                if r.warn_at_upper:
                    parts.append("    v:warnAtUpper true")
        lines.append(" ;\n".join(parts) + " .")

    for name in sorted(n.name for n in store.instances):
        lines.append("")
        types = sorted(store.types_of(name))
        type_refs = ", ".join(["owl:NamedIndividual"] + [f"t:{t}" for t in types])
        parts = [f"{_instance_ref(name, ns)} a {type_refs}"]
        grouped: dict[str, list[str]] = {}
        for a in store.assertions_about(name):
            if a.predicate.name == "instance_of":
                continue
            grouped.setdefault(a.predicate.name, []).append(_object_ref(a.object, ns))
        for predicate in sorted(grouped):
            objects = ", ".join(sorted(grouped[predicate]))
            parts.append(f"    t:{predicate} {objects}")
        lines.append(" ;\n".join(parts) + " .")

    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ reading

@dataclass(frozen=True)
class _Tok:
    kind: str  # iri | pname | string | keyword | punct | eof
    text: str
    datatype: Optional[str] = None
    line: int = 0


_PNAME_RE = re.compile(r"([A-Za-z][A-Za-z0-9_\-]*)?:([A-Za-z0-9_][A-Za-z0-9_\-]*)?")
_KEYWORD_RE = re.compile(r"[A-Za-z@][A-Za-z0-9_@]*")
_STRING_RE = re.compile(r'"((?:[^"\\\n]|\\.)*)"')


def _tokenize_turtle(text: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    line = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "[](),;":
            if ch in "[]()":
                raise UnsupportedConstruct(
                    f"line {line}: blank nodes and collections are outside the fragment"
                )
            tokens.append(_Tok("punct", ch, line=line))
            i += 1
            continue
        if ch == ".":
            tokens.append(_Tok("punct", ".", line=line))
            i += 1
            continue
        if ch == "<":
            end = text.find(">", i)
            if end < 0:
                raise TurtleParseError("unterminated IRI", line)
            tokens.append(_Tok("iri", text[i + 1 : end], line=line))
            i = end + 1
            continue
        if ch == '"':
            if text.startswith('"""', i):
                raise UnsupportedConstruct(f"line {line}: long strings are outside the fragment")
            m = _STRING_RE.match(text, i)
            if m is None:
                raise TurtleParseError("unterminated string", line)
            value = unescape_string(m.group(1))
            i = m.end()
            datatype = None
            if text.startswith("^^", i):
                i += 2
                dm = _PNAME_RE.match(text, i)
                if dm is None or dm.group(1) is None:
                    raise TurtleParseError("expected a datatype after ^^", line)
                datatype = dm.group()
                i = dm.end()
            tokens.append(_Tok("string", value, datatype, line))
            continue
        if ch == "_" and text.startswith("_:", i):
            raise UnsupportedConstruct(f"line {line}: blank node labels are outside the fragment")
        m = _PNAME_RE.match(text, i)
        if m is not None and ":" in m.group():
            tokens.append(_Tok("pname", m.group(), line=line))
            i = m.end()
            continue
        m = _KEYWORD_RE.match(text, i)
        if m is not None:
            word = m.group()
            if word == "@base":
                raise UnsupportedConstruct(f"line {line}: @base is outside the fragment")
            tokens.append(_Tok("keyword", word, line=line))
            i = m.end()
            continue
        raise TurtleParseError(f"unexpected character {ch!r}", line)
    tokens.append(_Tok("eof", "", line=line))
    return tokens


@dataclass(frozen=True)
class _Node:
    """A resolved subject/predicate/object: a namespaced name or a literal."""

    space: str  # terms | inst | vocab | rdf | rdfs | owl | xsd | literal
    name: str
    literal: Optional[Literal] = None


class _TurtleReader:
    def __init__(self, text: str):
        self.tokens = _tokenize_turtle(text)
        self.pos = 0
        self.prefixes: dict[str, str] = {}

    @property
    def current(self) -> _Tok:
        return self.tokens[self.pos]

    def advance(self) -> _Tok:
        tok = self.current
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect_punct(self, text: str) -> None:
        tok = self.current
        if tok.kind != "punct" or tok.text != text:
            raise TurtleParseError(f"expected {text!r}", tok.line)
        self.advance()

    def triples(self) -> list[tuple[_Node, _Node, _Node]]:
        out: list[tuple[_Node, _Node, _Node]] = []
        while self.current.kind != "eof":
            if self.current.kind == "keyword" and self.current.text == "@prefix":
                self._read_prefix()
                continue
            subject = self._read_resource()
            while True:
                predicate = self._read_predicate()
                while True:
                    obj = self._read_object()
                    out.append((subject, predicate, obj))
                    if self.current.kind == "punct" and self.current.text == ",":
                        self.advance()
                        continue
                    break
                if self.current.kind == "punct" and self.current.text == ";":
                    self.advance()
                    continue
                break
            self.expect_punct(".")
        return out

    def _read_prefix(self) -> None:
        self.advance()  # @prefix
        tok = self.advance()
        if tok.kind != "pname" or not tok.text.endswith(":"):
            raise TurtleParseError("expected a prefix label", tok.line)
        label = tok.text[:-1]
        iri = self.advance()
        if iri.kind != "iri":
            raise TurtleParseError("expected an IRI in @prefix", iri.line)
        self.prefixes[label] = iri.text
        self.expect_punct(".")

    def _resolve_iri(self, iri: str, line: int) -> _Node:
        spaces = {
            self.prefixes.get("t", ""): "terms",
            self.prefixes.get("i", ""): "inst",
            self.prefixes.get("v", ""): "vocab",
            RDF_NS: "rdf",
            RDFS_NS: "rdfs",
            OWL_NS: "owl",
            XSD_NS: "xsd",
        }
        for base, space in spaces.items():
            if base and iri.startswith(base):
                local = iri[len(base) :]
                if space == "inst":
                    local = unquote(local)
                return _Node(space, local)
        raise UnsupportedConstruct(f"line {line}: IRI outside the fragment: <{iri}>")

    def _resolve_pname(self, pname: str, line: int) -> _Node:
        label, _, local = pname.partition(":")
        known = {"t": "terms", "i": "inst", "v": "vocab", "rdf": "rdf",
                 "rdfs": "rdfs", "owl": "owl", "xsd": "xsd"}
        if label not in self.prefixes or label not in known:
            raise TurtleParseError(f"unknown prefix {label!r}", line)
        return _Node(known[label], local)

    def _read_resource(self) -> _Node:
        tok = self.advance()
        if tok.kind == "iri":
            return self._resolve_iri(tok.text, tok.line)
        if tok.kind == "pname":
            return self._resolve_pname(tok.text, tok.line)
        raise TurtleParseError(f"expected a resource, found {tok.text!r}", tok.line)

    def _read_predicate(self) -> _Node:
        tok = self.current
        if tok.kind == "keyword" and tok.text == "a":
            self.advance()
            return _Node("rdf", "type")
        return self._read_resource()

    def _read_object(self) -> _Node:
        tok = self.current
        if tok.kind == "string":
            self.advance()
            return _Node("literal", "", self._make_literal(tok))
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            self.advance()
            return _Node("literal", "", Literal(tok.text == "true"))  # type: ignore[arg-type]
        return self._read_resource()

    def _make_literal(self, tok: _Tok) -> Literal:
        if tok.datatype is None:
            return Literal(tok.text)
        dt = self._resolve_pname(tok.datatype, tok.line)
        if dt.space != "xsd" or dt.name not in _BASE_OF_XSD:
            raise UnsupportedConstruct(f"line {tok.line}: datatype {tok.datatype!r}")
        base = _BASE_OF_XSD[dt.name]
        try:
            if base == "decimal":
                return Literal(Decimal(tok.text))
            if base == "integer":
                return Literal(int(tok.text))
            if base == "date":
                return Literal(datetime.strptime(tok.text, "%Y-%m-%d").date())
        except (ValueError, ArithmeticError):
            raise TurtleParseError(
                f"bad {base} literal {tok.text!r}", tok.line
            ) from None
        return Literal(tok.text)


def import_turtle(data: Union[bytes, str]) -> InstanceStore:
    """Rebuild a store from the fragment; inverse of :func:`export_turtle`."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    reader = _TurtleReader(text)
    triples = reader.triples()

    classes: set[str] = set()
    parents: dict[str, set[str]] = {}
    comments: dict[str, str] = {}
    aliases: dict[str, str] = {}
    object_props: set[str] = set()
    data_props: set[str] = set()
    functional: set[str] = set()
    domains: dict[str, set[str]] = {}
    range_classes: dict[str, set[str]] = {}
    datatype_base: dict[str, str] = {}
    units: dict[str, str] = {}
    facets: dict[str, dict[str, object]] = {}
    individuals: list[str] = []
    typings: list[tuple[str, str]] = []
    assertions: list[tuple[str, str, _Node]] = []

    for s, p, o in triples:
        if s.space == "terms":
            if p.space == "rdf" and p.name == "type":
                if o.space == "owl" and o.name == "Class":
                    classes.add(s.name)
                elif o.space == "owl" and o.name == "ObjectProperty":
                    object_props.add(s.name)
                elif o.space == "owl" and o.name == "DatatypeProperty":
                    data_props.add(s.name)
                elif o.space == "owl" and o.name == "FunctionalProperty":
                    functional.add(s.name)
                else:
                    raise UnsupportedConstruct(f"declaration {o.space}:{o.name} on t:{s.name}")
            elif p.space == "rdfs" and p.name == "subClassOf":
                parents.setdefault(s.name, set()).add(o.name)
            elif p.space == "rdfs" and p.name == "comment":
                assert o.literal is not None
                comments[s.name] = str(o.literal.value)
            elif p.space == "rdfs" and p.name == "domain":
                domains.setdefault(s.name, set()).add(o.name)
            elif p.space == "rdfs" and p.name == "range":
                if o.space == "xsd":
                    datatype_base[s.name] = _BASE_OF_XSD.get(o.name, "")
                else:
                    range_classes.setdefault(s.name, set()).add(o.name)
            elif p.space == "vocab":
                if p.name == "aliasFor":
                    aliases[s.name] = o.name
                elif p.name == "unitLabel":
                    assert o.literal is not None
                    units[s.name] = str(o.literal.value)
                elif p.name in ("minValue", "maxValue"):
                    assert o.literal is not None
                    facets.setdefault(s.name, {})[p.name] = o.literal.value
                elif p.name in ("minInclusive", "maxInclusive", "warnAtUpper"):
                    assert o.literal is not None
                    facets.setdefault(s.name, {})[p.name] = bool(o.literal.value)
                else:
                    raise UnsupportedConstruct(f"vocabulary term v:{p.name}")
            else:
                raise UnsupportedConstruct(f"predicate {p.space}:{p.name} on t:{s.name}")
        elif s.space == "inst":
            if p.space == "rdf" and p.name == "type":
                if o.space == "owl" and o.name == "NamedIndividual":
                    individuals.append(s.name)
                elif o.space == "terms":
                    typings.append((s.name, o.name))
                else:
                    raise UnsupportedConstruct(f"typing {o.space}:{o.name} on instance {s.name}")
            elif p.space == "terms":
                assertions.append((s.name, p.name, o))
            else:
                raise UnsupportedConstruct(f"predicate {p.space}:{p.name} on instance {s.name}")
        else:
            raise UnsupportedConstruct(f"subject outside the fragment: {s.space}:{s.name}")

    ont = Ontology()
    ont.add_classes({name: parents.get(name, ()) for name in sorted(classes)}, comments)

    for name in sorted(object_props):
        ont.define_object_property(
            name,
            sorted(domains.get(name, set())),
            sorted(range_classes.get(name, set())),
            functional=name in functional,
        )
    for name in sorted(data_props):
        base = datatype_base.get(name)
        if not base:
            raise TurtleParseError(f"data property {name!r} lacks an xsd range")
        restriction = None
        f = facets.get(name)
        if f:
            restriction = NumericRestriction(
                lower=f.get("minValue"),  # type: ignore[arg-type]
                upper=f.get("maxValue"),  # type: ignore[arg-type]
                lower_inclusive=bool(f.get("minInclusive", True)),
                upper_inclusive=bool(f.get("maxInclusive", True)),
                warn_at_upper=bool(f.get("warnAtUpper", False)),
            )
        ont.define_data_property(
            name,
            sorted(domains.get(name, set())),
            DatatypeSpec(base, units.get(name), restriction),
            functional=name in functional,
        )
    for alias in sorted(aliases):
        ont.define_alias(alias, aliases[alias])

    store = InstanceStore(ont)
    for name in individuals:
        store.add_instance(name)
    for subject, cls_name in typings:
        store.add_instance(subject)
        store.assert_fact(subject, "instance_of", cls_name)
    for subject, predicate, obj in assertions:
        store.add_instance(subject)
        if obj.space == "inst":
            store.add_instance(obj.name)
            store.assert_fact(subject, predicate, instance_term(obj.name))
        elif obj.space == "literal":
            assert obj.literal is not None
            store.assert_fact(subject, predicate, obj.literal)
        else:
            raise UnsupportedConstruct(
                f"object {obj.space}:{obj.name} of t:{predicate} on instance {subject}"
            )
    return store
