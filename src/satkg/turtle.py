"""Reader and writer for the Turtle fragment used as the on-disk store format.

The fragment covers exactly what :func:`export_turtle` emits: prefix
declarations, class/property declarations with subsumption, domain/range and
datatype facets, alias links, and instance assertions.  Multiple
``rdfs:domain`` (or ``rdfs:range``) triples on one property are read
disjunctively, matching the in-memory model.

The reader is one ``findall`` over the text whose every match is a statement piece: up
to three terms, blanks apart, and the ``.``, ``;`` or ``,`` after them with the blanks
and comments that follow, so one match ends one triple.  What no piece covers (a
statement over a cut of the scan or holding a comment, an ``@prefix``, a token outside
the fragment or a bad character) is matched as one token alone and joins the next
piece's statement.  A line is counted for an error only.  The loop routes each triple
straight into the t: terms' groups or one batch of name tuples for
``InstanceStore.write``, which checks classes, properties, literals and functional
values; the first it refuses is raised with its line.  An instance's defect that the
text shows raises at its token: a name no instance may have, an object neither instance
nor literal, and ``t:instance_of``.  The declared instances are made first, then any
other in the order the file first names it.  Each distinct token, node and datatype is
resolved once per file.  One table, ``_DECLARATIONS``, gives per declaration of a ``t:``
term (class, object or data property, either maybe functional, or none for an alias) the
predicates it may carry and the shape of their objects.  Anything else raises a
``SatkgError`` naming the line, or the term whose declarations it builds, never dropped:
blank nodes, collections, long strings, a raw LF or CR in a string, escapes other than
Turtle's ECHAR and UCHAR, ``@base``, IRIs outside the declared namespaces or holding
whitespace, an instance IRI other than the one the writer emits (its name as UTF-8,
``quote(name, safe="")``), and predicates or object shapes the table does not allow.
Output is deterministic: terms appear in lexicographic order.  The declarations
are rendered once per ontology, kept in its ``_shared`` dict for its unchanged copies.

A process reads a file's declarations, up to its first line opening with ``i:`` or
``<`` (``export_turtle``'s first instance), once: ``_declarations`` is an ``lru_cache``
of the ``_MEMO_SIZE`` most recently read distinct texts, which keeps the reader's state
after them, their terms and ``Ontology`` (copied per store); any that do not read or
build alone get the empty prefix's entry, so the whole file is read from its start.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from datetime import date
from decimal import Decimal
from itertools import chain, islice
from typing import Any, Callable, Iterator, Optional, Union
from urllib.parse import quote, unquote

from .core import (
    DatatypeSpec,
    InstanceStore,
    Literal,
    NumericRestriction,
    Ontology,
    TermKind,
    _check_name,
    bounded_decimal,
    bounded_integer,
    decode_utf8,
    escape_string,
    lexical_form,
    nogc,
    unescape_string,
)
from .errors import InvalidTermName, SatkgError, TurtleParseError, TypeMismatch, UnsupportedConstruct

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


_XSD_OF_BASE = {base: f"xsd:{base}" for base in ("decimal", "integer", "string", "date")}

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


def export_turtle(store: InstanceStore, namespaces: Namespaces = Namespaces()) -> str:
    """Serialize a store (schema plus assertions) deterministically."""
    ns = namespaces
    blocks = ["\n".join([  # the prefixes, then a block per statement, a blank line apart
        f"@prefix rdf: <{RDF_NS}> .",
        f"@prefix rdfs: <{RDFS_NS}> .",
        f"@prefix owl: <{OWL_NS}> .",
        f"@prefix xsd: <{XSD_NS}> .",
        f"@prefix t: <{ns.terms}> .",
        f"@prefix i: <{ns.instances}> .",
        f"@prefix v: <{ns.vocab}> .",
    ])]
    shared = store.ontology._shared  # the declarations, once for the ontology and its copies
    blocks += shared.get("turtle") or shared.setdefault("turtle", _schema_blocks(store.ontology))

    # each instance's reference, built once, in name order; then its facts from the subject
    # index: sorted (predicate, object text) pairs put a predicate's objects together, sorted
    refs = {name: _instance_ref(name, ns) for name in sorted(store._instances)}
    about = store._by_subject.get
    for name, ref in refs.items():
        types, pairs = [], []  # the ", t:<class>" texts; (predicate, object text) pairs
        for _, p, o in about(name, ()):
            if p == "instance_of":
                types.append(f", t:{o}")
            else:
                pairs.append((p, refs[o] if type(o) is str else _literal_ref(o)))
        types.sort()  # in place: a list of one or none costs what a length check would
        pairs.sort()
        text, last = f"{ref} a owl:NamedIndividual{''.join(types)}", None
        for p, o in pairs:
            if p == last:
                text += f", {o}"
            else:
                text += f" ;\n    t:{p} {o}"
                last = p
        blocks.append(text + " .")

    del refs  # freed before the join, where the export peaks
    blocks[-1] += "\n"  # the text's last newline, so the joined text is not copied for it
    return "\n\n".join(blocks)


def _schema_blocks(ont: Ontology) -> list[str]:
    """The declaration of each class, alias and property, sorted, one block each."""
    blocks = []
    for name in sorted(ont.classes):
        cdef = ont.classes[name]
        parts = [f"t:{name} a owl:Class"]
        if cdef.parents:
            parents = ", ".join(f"t:{p}" for p in sorted(cdef.parents))
            parts.append(f"    rdfs:subClassOf {parents}")
        if cdef.definition is not None:
            parts.append(f'    rdfs:comment "{escape_string(cdef.definition)}"')
        blocks.append(" ;\n".join(parts) + " .")

    for alias in sorted(ont.aliases):
        blocks.append(f"t:{alias} v:aliasFor t:{ont.aliases[alias]} .")

    for name in sorted(ont.properties):
        pdef = ont.properties[name]
        link = pdef.kind is TermKind.OBJECT_PROPERTY
        decl = "owl:ObjectProperty" if link else "owl:DatatypeProperty"
        if pdef.functional:
            decl += ", owl:FunctionalProperty"
        parts = [f"t:{name} a {decl}"]
        if pdef.domain:
            domain = ", ".join(f"t:{d}" for d in sorted(pdef.domain))
            parts.append(f"    rdfs:domain {domain}")
        if link and pdef.range_classes:
            rng = ", ".join(f"t:{r}" for r in sorted(pdef.range_classes))
            parts.append(f"    rdfs:range {rng}")
        elif not link:
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
                parts.append(f"    v:warnAtUpper {_literal_ref(Literal(r.warn_at_upper))}")
        blocks.append(" ;\n".join(parts) + " .")
    return blocks


# ------------------------------------------------------------------ reading

_LABEL, _LOCAL = r"[A-Za-z][A-Za-z0-9_\-]*", r"(?:[A-Za-z0-9_][A-Za-z0-9_\-]*)?"
_BODY = r'[^"\\\n\r]*(?:\\.[^"\\\n\r]*)*"(?:\^\^[A-Za-z][A-Za-z0-9_\-]*:[A-Za-z0-9_][A-Za-z0-9_\-]*)?'
_IRI = r'<[^\x00-\x20<>"{}|^`\\]*>'
#: a term of a piece (no @-word) ends where the same token read alone would:
#: no alternative may match a shorter token, or one read otherwise alone
_TERM = rf"""{_LABEL}:{_LOCAL}(?![A-Za-z0-9_\-]) | "(?!""){_BODY}(?![A-Za-z0-9_\-])
    | [A-Za-z]+(?![A-Za-z0-9_\-:]) | :{_LOCAL}(?![A-Za-z0-9_\-]) | {_IRI}"""
_PIECE_RE = re.compile(
    rf"""
    [ \t\r\n]*  # blanks before a match
    (?: (?:({_TERM})[ \t\r\n]*(?:({_TERM})[ \t\r\n]*(?:({_TERM})[ \t\r\n]*)?)?)?
        ([.;,])  # a piece: up to three terms, blanks apart, and the punctuation after them,
      | ( (?:{_LABEL})?:{_LOCAL} | @?[A-Za-z]+ | {_IRI}  # else one token: a prefixed name,
        | [\[\]()]|_:|"{{3}}  # a word, an IRI, a token outside the fragment,
        | "{_BODY} | [^ \t\r\n\#] ) )  # a string, or any other character: bad
    [ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*  # blanks and comments after it
  | (?:[ \t\r\n]|\#[^\n]*)+  # blanks and comments opening a scan, read as no token
    """,
    re.VERBOSE,
)
_WORDS = {"a": "rdf:type", "true": Literal(True), "false": Literal(False)}  # type: ignore[arg-type]
_STANDARD = {RDF_NS: "rdf", RDFS_NS: "rdfs", OWL_NS: "owl", XSD_NS: "xsd"}

_Node = Union[str, Literal]

_READ_LITERAL = {"decimal": bounded_decimal, "integer": bounded_integer, "string": str,
                 "date": date.fromisoformat}
#: XSD's ASCII lexical forms of the numeric bases and the canonical date;
#: ``int`` and ``Decimal`` alone would also take ``_``, blanks and non-ASCII
#: digits, and ``date.fromisoformat`` (3.11 on) forms such as ``20160425``
_LEXICAL_FORMS = {"decimal": re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?"),
                  "integer": re.compile(r"[+-]?[0-9]+"),
                  "date": re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")}

_BAD_START = {'"': "unterminated string, or one holding a raw line feed or carriage return",
              "<": "unterminated IRI, or one holding whitespace or <>\"{}|^`\\"}


def _scan(text: str, find: Callable, start: int = 0) -> Iterator:
    """``find`` over ~64 KB pieces of whole lines, chained: no list holds a whole file's matches.
    From ``start``, a line start opening with a token, it goes on with the scan from 0."""
    ends = [0]
    while ends[-1] < len(text):
        ends.append(text.find("\n", ends[-1] + 65536) + 1 or len(text))
    ends = [start] + [end for end in ends if end > start]
    return chain.from_iterable(find(text, a, b) for a, b in zip(ends, ends[1:]))


def _line(text: str, at: tuple[int, int]) -> int:
    """The line of group ``at[1]`` of match ``at[0]`` of ``_scan(text, _PIECE_RE.findall)``."""
    m = next(islice(_scan(text, _PIECE_RE.finditer), at[0], None))
    return text.count("\n", 0, m.start(at[1])) + 1


_OBJECT_PROPERTY = {"rdfs:domain": "term", "rdfs:range": "term"}
_DATA_PROPERTY = {
    "rdfs:domain": "term", "rdfs:range": "xsd", "v:unitLabel": "string",
    "v:minValue": "number", "v:maxValue": "number",
    "v:minInclusive": "boolean", "v:maxInclusive": "boolean", "v:warnAtUpper": "boolean",
}
_FACETS = ("v:minValue", "v:maxValue", "v:minInclusive", "v:maxInclusive", "v:warnAtUpper")

#: The rdf:type objects a t: subject may have -> the predicates it may carry,
#: each with the shape of its objects (see ``_shape``).  A predicate may
#: repeat with several t: terms, but with one xsd: name or literal only.  A
#: subject without rdf:type is an alias.
_DECLARATIONS: dict[frozenset, dict[str, str]] = {
    frozenset({"owl:Class"}): {"rdfs:subClassOf": "term", "rdfs:comment": "string"},
    frozenset({"owl:ObjectProperty"}): _OBJECT_PROPERTY,
    frozenset({"owl:ObjectProperty", "owl:FunctionalProperty"}): _OBJECT_PROPERTY,
    frozenset({"owl:DatatypeProperty"}): _DATA_PROPERTY,
    frozenset({"owl:DatatypeProperty", "owl:FunctionalProperty"}): _DATA_PROPERTY,
    frozenset(): {"v:aliasFor": "term"},
}

_LITERAL_SHAPES = {bool: "boolean", str: "string", Decimal: "number", int: "number"}


def _shape(o: _Node) -> str:
    if isinstance(o, Literal):
        return _LITERAL_SHAPES.get(type(o.value), "date")
    if o.startswith("t:"):
        return "term"
    return "xsd" if o in _XSD_OF_BASE.values() else o


def _declaration(name: str, groups: dict[str, list[_Node]]) -> tuple[frozenset, dict[str, Any]]:
    """Check one t: subject's predicate -> objects groups against
    ``_DECLARATIONS``; return its declarations and, per other predicate, the
    local names of its t: terms or the one xsd: base or literal value."""
    declared = frozenset(groups.pop("rdf:type", ()))
    allowed = _DECLARATIONS.get(declared)
    if allowed is None:
        kinds = " and ".join(sorted(map(str, declared)))
        raise UnsupportedConstruct(f"t:{name}: declared {kinds}")
    values: dict[str, Any] = {}
    for predicate, objects in groups.items():
        shape = allowed.get(predicate)
        if shape is None:
            kinds = " and ".join(sorted(declared)) or "an undeclared term"
            raise UnsupportedConstruct(f"t:{name}: {predicate} on {kinds}")
        for o in objects:
            if _shape(o) != shape:
                found = o if isinstance(o, str) else _literal_ref(o)
                raise TurtleParseError(f"t:{name}: {predicate} needs a {shape}, not {found}")
        if shape != "term" and len(objects) > 1:
            raise TurtleParseError(f"t:{name}: {predicate} takes one value, not {len(objects)}")
        names = [o.value if isinstance(o, Literal) else o.partition(":")[2] for o in objects]
        values[predicate] = names if shape == "term" else names[0]
    return declared, values


def _ontology(terms: dict[str, dict[str, list[_Node]]]) -> Ontology:
    parents: dict[str, list[str]] = {}
    comments: dict[str, Optional[str]] = {}
    aliases: dict[str, list[str]] = {}
    properties: list[tuple[str, frozenset, dict[str, Any]]] = []
    for name in sorted(terms):
        declared, values = _declaration(name, dict(terms[name]))
        if "owl:Class" in declared:
            parents[name] = values.get("rdfs:subClassOf", [])
            comments[name] = values.get("rdfs:comment")
        elif declared:
            properties.append((name, declared, values))
        else:
            aliases[name] = values["v:aliasFor"]

    ont, name = Ontology(), ""
    try:  # an error names the term it builds
        for name in parents:  # the classes, then their edges, as Ontology.add_classes does
            ont.define_class(name, (), comments[name])
        for name, ups in parents.items():
            for parent in sorted(ups):
                ont.add_parent(name, parent)
        for name, declared, values in properties:
            domain = values.get("rdfs:domain", ())
            functional = "owl:FunctionalProperty" in declared
            if "owl:ObjectProperty" in declared:
                ont.define_object_property(name, domain, values.get("rdfs:range", ()), functional)
                continue
            if "rdfs:range" not in values:
                raise TurtleParseError("data property lacks an xsd range")
            restriction = None
            if any(facet in values for facet in _FACETS):
                restriction = NumericRestriction(
                    values.get("v:minValue"),
                    values.get("v:maxValue"),
                    values.get("v:minInclusive", True),
                    values.get("v:maxInclusive", True),
                    values.get("v:warnAtUpper", False),
                )
            spec = DatatypeSpec(values["rdfs:range"], values.get("v:unitLabel"), restriction)
            ont.define_data_property(name, domain, spec, functional)
        for name, targets in aliases.items():
            for target in targets:  # a second target collides with the first
                ont.define_alias(name, target)
    except SatkgError as exc:
        raise type(exc)(f"t:{name}: {exc}") from None
    return ont


_INSTANCES = re.compile(r"\n(?=i:|<)")  # the line export_turtle writes its first instance on
_MEMO_SIZE = 4  # declaration texts kept, the least recently read evicted first


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _declarations(prefix: str) -> tuple:
    """The reader's state after ``prefix``, its terms and ontology; the empty prefix's,
    kept under ``prefix`` too, when it is not whole t: and @prefix statements or does not build."""
    state = [{}, dict(_STANDARD), {}, -1, 0]
    try:
        terms, _, *instances = _read(prefix, state, {})
        return _declarations("") if any(instances) else (state, terms, _ontology(terms))
    except SatkgError:
        return _declarations("")


@nogc
def import_turtle(data: Union[bytes, str]) -> InstanceStore:
    """Rebuild a store from the fragment; inverse of :func:`export_turtle`."""
    text = data if isinstance(data, str) else decode_utf8(data, lambda message, line, column: (
        TurtleParseError(f"column {column}: {message}", line)))
    state, groups, ontology = _declarations(  # else read all: the empty prefix
        text[:found.end()] if (found := _INSTANCES.search(text)) else text)
    terms, nodes, individuals, typings, facts = _read(
        text, [*map(dict, state[:3]), *state[3:]], groups)
    store = InstanceStore(ontology.copy() if terms is groups else _ontology(terms))
    for name in individuals:  # the declared instances, then any other where the file first names it
        store.add_instance(name)
    if store.instance_count < len(nodes):
        for name in filter(None, nodes.values()):  # a t: node's value is None
            store.add_instance(name)
    # One batch: the typings, then the other facts, each in file order, as validate's reports expect
    for position, exc in store.write(chain(typings, facts))[0][:1]:
        _read(text, None, {}, log := [])  # the batch's order: typings, then the other facts
        ats = sorted((p != "rdf:type", at) for s, p, o, at in log
                     if s[:2] == "i:" and (p, o) != ("rdf:type", "owl:NamedIndividual"))
        raise type(exc)(f"line {_line(text, ats[position][1])}: {exc}") from None
    return store


def _read(text: str, state: Optional[list], groups: dict, log: Optional[list] = None) -> tuple:
    """Read ``text`` one ``_PIECE_RE`` match at a time, routing each triple by one rule
    into the t: subjects' groups (``groups``, or a grown copy), the node -> i: name map
    in the order the text first names each node, the individuals, and the typings and
    other facts in ``InstanceStore.write``'s format; ``log``, if given, gets each triple
    instead, as (subject, predicate, object, (match, group) of the object's token for ``_line``).

    A node is a resource as ``"label:name"`` under the labels t, i, v, rdf, rdfs, owl and
    xsd, whatever prefix the text used, or a :class:`Literal`.  Tokens resolve to nodes,
    and datatypes (under their ``^^`` text, which no token is) to their readers, through
    a memo emptied at each ``@``-directive.  The first token before a punctuation that
    does not resolve is reported there, after the statement's shape is checked.  A read
    resumes from ``state`` as a read of ``text[:start]`` left it at a line start, and
    leaves its own state there."""
    # label -> IRI; IRI -> label, project ones first; token -> node, until a directive;
    # the index of the last match read; the offset reading starts at
    declared, spaces, resolved, n, start = state or [{}, dict(_STANDARD), {}, -1, 0]
    terms, inodes, tnodes = groups, _Names("i:"), _Names("t:")
    individuals, typings, facts = [], [], []  # type: ignore[var-annotated]
    run: list[tuple[str, tuple]] = []  # tokens read alone since the last punctuation, and places
    directive: Optional[list[str]] = None  # the tokens of an @-directive
    subject = predicate = s = p = None  # the statement's nodes; their i: and t: names, or None
    at = group = 0  # the match and group of the last node's token

    def pname(token: str, where: tuple) -> str:
        label, _, name = token.partition(":")
        space = spaces.get(declared.get(label, ""))
        if space is None:
            raise TurtleParseError(f"unknown prefix {label!r}", _line(text, where))
        return token if space == label else f"{space}:{name}"

    def instance(name: str, where: tuple) -> str:
        try:
            _check_name(name, TermKind.INSTANCE)
        except InvalidTermName as exc:
            raise InvalidTermName(f"line {_line(text, where)}: {exc}") from None
        return f"i:{name}"

    def node(token: str, where: tuple) -> _Node:
        if token[0] == "<":
            for base, label in spaces.items():
                if token.startswith(base, 1):
                    name = token[len(base) + 1 : -1]
                    if label != "i":
                        return f"{label}:{name}"
                    try:  # an instance's name, percent-encoded as UTF-8 in the writer's one form
                        written = quote(decoded := unquote(name, errors="strict"), safe="")
                    except UnicodeDecodeError:
                        raise TurtleParseError(f"percent escapes of {token} are not UTF-8",
                                               _line(text, where)) from None
                    if written != name:
                        raise TurtleParseError(f"instance IRI {token} is not in the form the "
                                               f"writer emits, <{base}{written}>", _line(text, where))
                    return instance(decoded, where)
            raise UnsupportedConstruct(f"line {_line(text, where)}: IRI outside the fragment: {token}")
        if token[0] == '"':
            body, _, datatype = token[1:].rpartition('"')  # a datatype holds no quote
            body = unescape_string(body, lambda message: TurtleParseError(message, _line(text, where)))
            if not datatype:
                return Literal(body)
            kind = resolved.get(datatype)
            if kind is None:
                name = pname(datatype[2:], where)
                read = _READ_LITERAL.get(name[4:]) if name.startswith("xsd:") else None
                if read is None:
                    raise UnsupportedConstruct(f"line {_line(text, where)}: datatype {name}")
                kind = resolved[datatype] = name, read, _LEXICAL_FORMS.get(name[4:])
            name, read, form = kind
            try:
                if form is not None and form.fullmatch(body) is None:
                    raise ValueError(body)
                return Literal(read(body))
            except (ValueError, ArithmeticError):
                raise TurtleParseError(f"bad {name} literal {body!r}", _line(text, where)) from None
        if ":" in token:  # a prefixed name's local part is blank or a name an instance may have
            return instance("", where) if (name := pname(token, where)) == "i:" else name
        if token in _WORDS:
            return _WORDS[token]
        raise TurtleParseError(f"unexpected {token!r}", _line(text, where))

    for n, (a, b, c, end, token) in enumerate(_scan(text, _PIECE_RE.findall, start), n + 1):
        if not end:  # a token read alone (over a scan's cut, an @-directive's, or bad), or blanks
            if token in ("[", "]", "(", ")", "_:", '"""'):
                raise UnsupportedConstruct(f"line {_line(text, (n, 5))}: {token!r} is outside the fragment")
            if len(token) == 1 and not (token == ":" or token.isascii() and token.isalpha()):
                problem = _BAD_START.get(token, f"unexpected character {token!r}")
                raise TurtleParseError(problem, _line(text, (n, 5)))
            if directive is not None:
                directive.append(token)
            elif subject is None and not run and token[:1] == "@":
                directive = [token]
            elif token:
                run.append((token, (n, 5)))
            continue
        if directive is not None:
            directive = [token for token in (*directive, a, b, c) if token]
            if directive[0] != "@prefix":
                raise UnsupportedConstruct(
                    f"line {_line(text, (n, 4))}: {directive[0]} is outside the fragment")
            if (len(directive) != 3 or not directive[1].endswith(":")  # a pname
                    or directive[2][0] != "<" or end != "."):
                raise TurtleParseError("expected '@prefix label: <IRI> .'", _line(text, (n, 4)))
            declared[directive[1][:-1]] = directive[2][1:-1]
            spaces = {declared[label]: label for label in ("t", "i", "v") if label in declared}
            spaces.update((iri, label) for iri, label in _STANDARD.items() if iri not in spaces)
            directive, resolved = None, {}
            continue
        if run or not (subject is None if c else predicate is None and subject is not None if b
                       else a and predicate is not None):  # not a whole statement part alone
            run += [(token, (n, g)) for g, token in enumerate((a, b, c), 1) if token]
            want = 3 - (subject is not None) - (predicate is not None)
            if len(run) != want:
                roles = " ".join(("subject", "predicate", "object")[3 - want:])
                raise TurtleParseError(f"expected {roles} before {end!r}", _line(text, (n, 4)))
            nodes = [resolved.get(token) or resolved.setdefault(token, node(token, where))
                     for token, where in run]  # the first that does not resolve raises
            subject = nodes[0] if subject is None else subject
            predicate = nodes[-2] if predicate is None else predicate
            o, (at, group), run = nodes[-1], run[-1][1], []
            s, p = inodes[subject], tnodes[predicate]
        elif c:  # a subject, predicate and object
            subject = resolved.get(a) or resolved.setdefault(a, node(a, (n, 1)))
            predicate = resolved.get(b) or resolved.setdefault(b, node(b, (n, 2)))
            o = resolved.get(c) or resolved.setdefault(c, node(c, (n, 3)))
            at, group = n, 3
            s, p = inodes[subject], tnodes[predicate]
        elif b:  # a predicate and object
            predicate = resolved.get(a) or resolved.setdefault(a, node(a, (n, 1)))
            o = resolved.get(b) or resolved.setdefault(b, node(b, (n, 2)))
            at, group = n, 2
            p = tnodes[predicate]
        else:  # an object
            o = resolved.get(a) or resolved.setdefault(a, node(a, (n, 1)))
            at, group = n, 1
        if type(subject) is not str or type(predicate) is not str:
            raise TurtleParseError("a literal as subject or predicate", _line(text, (n, 4)))
        if log is not None:
            log.append((subject, predicate, o, (at, group)))
        elif s is None:
            if subject[:2] != "t:":
                raise UnsupportedConstruct(
                    f"line {_line(text, (at, group))}: subject outside the fragment: {subject}")
            if terms is groups:
                terms = {name: {q: list(v) for q, v in g.items()} for name, g in groups.items()}
            terms.setdefault(subject[2:], {}).setdefault(predicate, []).append(o)
        elif p is not None:
            if (name := inodes[o] if type(o) is str else o) is None:
                raise UnsupportedConstruct(
                    f"line {_line(text, (at, group))}: object {o} of {predicate} on instance {s}")
            if p == "instance_of":  # an instance's class is given by rdf:type
                raise TypeMismatch(f"line {_line(text, (at, group))}: instance_of expects a class object")
            facts.append((s, p, name))
        elif predicate != "rdf:type":
            raise UnsupportedConstruct(
                f"line {_line(text, (at, group))}: predicate {predicate} on instance {s}")
        elif o == "owl:NamedIndividual":
            individuals.append(s)
        elif type(o) is str and (cls := tnodes[o]) is not None:
            typings.append((s, "instance_of", cls))
        else:
            raise UnsupportedConstruct(f"line {_line(text, (at, group))}: typing {o} on instance {s}")
        if end == ".":
            subject = predicate = None
        elif end == ";":
            predicate = None
    if run or subject is not None or directive is not None:
        raise TurtleParseError("expected '.' at the end of the input", text.count("\n") + 1)
    if state is not None:
        state[:] = declared, spaces, resolved, n, len(text)
    return terms, inodes, individuals, typings, facts


class _Names(dict):
    """Node -> its name under ``label``, made once; None for another label or a literal."""

    def __init__(self, label: str):
        self.label = label

    def __missing__(self, node: str) -> Optional[str]:
        self[node] = name = node[2:] if type(node) is str and node[:2] == self.label else None
        return name
