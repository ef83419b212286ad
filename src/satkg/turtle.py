"""Reader and writer for the Turtle fragment used as the on-disk store format.

The fragment covers exactly what :func:`export_turtle` emits: prefix
declarations, class/property declarations with subsumption, domain/range and
datatype facets, alias links, and instance assertions.  Multiple
``rdfs:domain`` (or ``rdfs:range``) triples on one property are read
disjunctively, matching the in-memory model.

The reader is one ``findall`` of plain-string tokens over the whole text
(blanks and comments are read with the token before them, and a token's
line is counted for an error only), a statement loop splitting at ``.``,
``;`` and ``,``, and one table, ``_DECLARATIONS``: per declaration of a
``t:`` term (class, object or data property, either maybe functional, or
none for an alias), the predicates it may carry and the shape of their
objects.  Each distinct token and node is resolved once per file, and
``_read`` routes the instance triples straight into one batch of name tuples
for ``InstanceStore.write``, which checks them; the first it refuses is raised
with its line.  Anything else raises a ``SatkgError`` naming the term or the
line, never dropped: blank nodes, collections, long strings, escapes other
than Turtle's ECHAR and UCHAR, ``@base``, IRIs outside the declared namespaces
or holding whitespace, and predicates or object shapes the table does not
allow.  Output is deterministic: terms appear in lexicographic order.

A process reads a file's declarations, up to its first line opening with ``i:`` or
``<`` (``export_turtle``'s first instance), once: a locked memo of the last
``_MEMO_SIZE`` distinct texts keeps the reader's state after them, their terms and
``Ontology`` (copied per store); any that do not read or build alone are an empty prefix.
"""

from __future__ import annotations

import re
import threading
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
    bounded_decimal,
    bounded_integer,
    decode_utf8,
    escape_string,
    lexical_form,
    nogc,
    unescape_string,
)
from .errors import InvalidDatatype, SatkgError, TurtleParseError, UnsupportedConstruct

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
    ont = store.ontology

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

    # each instance's reference, built once; a fact's object is an instance or a literal
    refs = {name: _instance_ref(name, ns) for name in sorted(n.name for n in store.instances)}
    for name, ref in refs.items():
        types: list[str] = []
        grouped: dict[str, list[str]] = {}
        for _, p, o in store.facts_about(name):
            if p == "instance_of":
                types.append(o)
            else:
                grouped.setdefault(p, []).append(_literal_ref(o) if type(o) is Literal else refs[o])
        type_refs = ", ".join(["owl:NamedIndividual"] + [f"t:{t}" for t in sorted(types)])
        parts = [f"{ref} a {type_refs}"]
        for predicate in sorted(grouped):
            objects = ", ".join(sorted(grouped[predicate]))
            parts.append(f"    t:{predicate} {objects}")
        blocks.append(" ;\n".join(parts) + " .")

    del refs  # freed before the join, where the export peaks
    blocks[-1] += "\n"  # the text's last newline, so the joined text is not copied for it
    return "\n\n".join(blocks)


# ------------------------------------------------------------------ reading

_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]*  # blanks before a piece's first token
    ( (?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_][A-Za-z0-9_\-]*)?  # prefixed name
    | [.;,]  # punctuation
    | @?[A-Za-z]+  # word
    | <[^\x00-\x20<>"{}|^`\\]*>  # IRI
    | [\[\]()]|_:|"{3}  # outside the fragment
    | "(?:[^"\\\n]|\\.)*"(?:\^\^[A-Za-z][A-Za-z0-9_\-]*:[A-Za-z0-9_][A-Za-z0-9_\-]*)?  # string
    | [^ \t\r\n\#] )  # any other character: bad
    [ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*  # blanks and comments after it
  | (?:[ \t\r\n]|\#[^\n]*)+  # blanks and comments opening a piece, read as ""
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

_BAD_START = {'"': "unterminated string",
              "<": "unterminated IRI, or one holding whitespace or <>\"{}|^`\\"}


def _scan(text: str, find: Callable, start: int = 0) -> Iterator:
    """``find`` over ~64 KB pieces of whole lines, chained: no list holds a whole file's tokens.
    From ``start``, a line start opening with a token, it goes on with the scan from 0."""
    ends = [0]
    while ends[-1] < len(text):
        ends.append(text.find("\n", ends[-1] + 65536) + 1 or len(text))
    ends = [start] + [end for end in ends if end > start]
    return chain.from_iterable(find(text, a, b) for a, b in zip(ends, ends[1:]))


def _line(text: str, index: int) -> int:
    """The line of the token at ``index`` of ``_scan(text, _TOKEN_RE.findall)``."""
    m = next(islice(_scan(text, _TOKEN_RE.finditer), index, None))
    return text.count("\n", 0, m.start(1)) + 1


def _triples(text: str, state: Optional[list] = None) -> Iterator[tuple[str, str, _Node, int]]:
    """Yield each triple as (subject, predicate, object, index of the object's
    token, which ``_line`` turns into a line): a resource as ``"label:name"``
    under the labels t, i, v, rdf, rdfs, owl and xsd, whatever prefix the text
    used, and a literal as a :class:`Literal`.  Tokens resolve to nodes through
    a memo emptied at each ``@``-directive; the first of a statement that does
    not resolve is reported when the statement ends, after its shape is
    checked, as if the statement were read whole.  A read resumes from ``state`` as
    a read of ``text[:start]`` left it at a line start, and leaves its own state there."""
    # label -> IRI; IRI -> label, project ones first; token -> node, until a directive;
    # the index of the last token read; the offset reading starts at
    declared, spaces, resolved, n, start = state or [{}, dict(_STANDARD), {}, -1, 0]
    run: list[Optional[_Node]] = []  # nodes since the last punctuation
    failed: Optional[SatkgError] = None  # the first token of ``run`` that did not resolve
    directive: Optional[list[str]] = None  # the tokens of an @-directive
    subject: Optional[_Node] = None
    predicate: Optional[_Node] = None

    def pname(token: str, n: int) -> str:
        label, _, name = token.partition(":")
        space = spaces.get(declared.get(label, ""))
        if space is None:
            raise TurtleParseError(f"unknown prefix {label!r}", _line(text, n))
        return token if space == label else f"{space}:{name}"

    def node(token: str, n: int) -> _Node:
        if token[0] == "<":
            for base, label in spaces.items():
                if token.startswith(base, 1):
                    name = token[len(base) + 1 : -1]
                    return f"{label}:{unquote(name) if label == 'i' else name}"
            raise UnsupportedConstruct(f"line {_line(text, n)}: IRI outside the fragment: {token}")
        if token[0] == '"':
            body, _, datatype = token[1:].rpartition('"')  # a datatype holds no quote
            body = unescape_string(body, lambda message: TurtleParseError(message, _line(text, n)))
            if not datatype:
                return Literal(body)
            datatype = pname(datatype[2:], n)
            read = _READ_LITERAL.get(datatype[4:]) if datatype.startswith("xsd:") else None
            if read is None:
                raise UnsupportedConstruct(f"line {_line(text, n)}: datatype {datatype}")
            form = _LEXICAL_FORMS.get(datatype[4:])
            try:
                if form is not None and form.fullmatch(body) is None:
                    raise ValueError(body)
                return Literal(read(body))
            except (ValueError, ArithmeticError):
                raise TurtleParseError(f"bad {datatype} literal {body!r}", _line(text, n)) from None
        if ":" in token:
            return pname(token, n)
        if token in _WORDS:
            return _WORDS[token]
        raise TurtleParseError(f"unexpected {token!r}", _line(text, n))

    for n, token in enumerate(_scan(text, _TOKEN_RE.findall, start), n + 1):
        found = resolved.get(token)  # None in a directive, which empties the memo
        if found is not None:
            run.append(found)
            at = n
        elif not token:  # blanks and comments opening a piece
            pass
        elif directive is not None and token in ".;,":
            if directive[0] != "@prefix":
                raise UnsupportedConstruct(
                    f"line {_line(text, n)}: {directive[0]} is outside the fragment")
            if (len(directive) != 3 or not directive[1].endswith(":")  # a pname
                    or directive[2][0] != "<" or token != "."):
                raise TurtleParseError("expected '@prefix label: <IRI> .'", _line(text, n))
            declared[directive[1][:-1]] = directive[2][1:-1]
            spaces = {declared[label]: label for label in ("t", "i", "v") if label in declared}
            spaces.update((iri, label) for iri, label in _STANDARD.items() if iri not in spaces)
            directive = None
        elif token in ".;,":
            want = 3 - (subject is not None) - (predicate is not None)
            if len(run) != want:
                roles = " ".join(("subject", "predicate", "object")[3 - want:])
                raise TurtleParseError(f"expected {roles} before {token!r}", _line(text, n))
            if failed is not None:
                raise failed
            if subject is None:
                subject = run[0]
            if predicate is None:
                predicate = run[-2]
            if not isinstance(subject, str) or not isinstance(predicate, str):
                raise TurtleParseError("a literal as subject or predicate", _line(text, n))
            yield subject, predicate, run[-1], at  # type: ignore[misc]
            if token == ".":
                subject = predicate = None
            elif token == ";":
                predicate = None
            run = []
        elif token in ("[", "]", "(", ")", "_:", '"""'):
            raise UnsupportedConstruct(f"line {_line(text, n)}: {token!r} is outside the fragment")
        elif len(token) == 1 and not (token == ":" or token.isascii() and token.isalpha()):
            problem = _BAD_START.get(token, f"unexpected character {token!r}")
            raise TurtleParseError(problem, _line(text, n))
        elif directive is not None:
            directive.append(token)
        elif subject is None and not run and token[0] == "@":
            directive, resolved = [token], {}
        else:
            if failed is None:  # later failures of the statement would not be reported
                try:
                    found = resolved[token] = node(token, n)
                except SatkgError as exc:
                    failed = exc
            run.append(found)
            at = n
    if run or subject is not None or directive is not None:
        raise TurtleParseError("expected '.' at the end of the input", text.count("\n") + 1)
    if state is not None:
        state[:] = declared, spaces, resolved, n, len(text)


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

    ont = Ontology()
    ont.add_classes(parents, comments)
    for name, declared, values in properties:
        domain = values.get("rdfs:domain", ())
        functional = "owl:FunctionalProperty" in declared
        if "owl:ObjectProperty" in declared:
            ont.define_object_property(name, domain, values.get("rdfs:range", ()), functional)
            continue
        if "rdfs:range" not in values:
            raise TurtleParseError(f"t:{name}: data property lacks an xsd range")
        try:
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
        except InvalidDatatype as exc:
            raise InvalidDatatype(f"t:{name}: {exc}") from None
        ont.define_data_property(name, domain, spec, functional)
    for alias, targets in aliases.items():
        for target in targets:  # a second target collides with the first
            ont.define_alias(alias, target)
    return ont


_INSTANCES = re.compile(r"\n(?=i:|<)")  # the line export_turtle writes its first instance on
_MEMO_SIZE = 4  # declaration texts kept, the oldest evicted first
_memo: dict[str, tuple] = {}  # declarations' text -> (reader state after it, terms, ontology)
_memo_lock = threading.Lock()


def _declarations(prefix: str) -> Optional[tuple]:
    """The memo entry of ``prefix``, read and built on a miss; None when the
    prefix is not whole t: and @prefix statements or does not build."""
    entry = _memo.get(prefix)
    if entry is None:
        state = [{}, dict(_STANDARD), {}, -1, 0]
        try:
            terms, _, *instances = _read(prefix, state, {})
            if any(instances):
                return None
            entry = state, terms, _ontology(terms)
        except SatkgError:
            return None
        with _memo_lock:
            _memo[prefix] = entry
            if len(_memo) > _MEMO_SIZE:
                del _memo[next(iter(_memo))]
    return entry


@nogc
def import_turtle(data: Union[bytes, str]) -> InstanceStore:
    """Rebuild a store from the fragment; inverse of :func:`export_turtle`."""
    text = data if isinstance(data, str) else decode_utf8(data, lambda message, line, column: (
        TurtleParseError(f"column {column}: {message}", line)))
    entry = _declarations(text[:found.end()] if (found := _INSTANCES.search(text)) else text)
    state, groups, ontology = entry or _declarations("")  # else read all: the empty prefix
    terms, nodes, individuals, typings, facts, swaps, stop = _read(
        text, [*map(dict, state[:3]), *state[3:]], groups)
    # One batch: the typings, then the other facts, each in file order, as validate's
    # reports expect; the individuals made first, any other instance where first named.
    store = InstanceStore(ontology.copy() if terms is groups else _ontology(terms))
    stop = [(len(typings) + i, exc) for i, exc in stop]  # the fact ending the batch
    for name in individuals:
        store.add_instance(name)
    if store.instance_count < len(nodes):
        for position, (s, _, o) in enumerate(chain(typings, facts)):
            try:
                store.add_instance(s)
                if type(o) is str and position >= len(typings):
                    store.add_instance(o)
            except SatkgError as exc:
                stop = [(position, exc)]
                break
    for i in swaps:  # no class name, which instance_of refuses
        facts[i] = (*facts[i][:2], None)
    batch = chain(typings, facts)
    # the first refused fact comes before the fact, if any, that ends the batch
    for position, exc in (store.write(islice(batch, stop[0][0]) if stop else batch)[0] + stop)[:1]:
        _read(text, None, {}, ats := ([], []))
        raise type(exc)(f"line {_line(text, (ats[0] + ats[1])[position])}: {exc}") from None
    return store


def _read(text: str, state: Optional[list], groups: dict, ats: Optional[tuple] = None) -> tuple:
    """``_triples(text, state)`` routed by one rule into the t: subjects' groups
    (``groups``, or a grown copy), the i: node -> name map, the individuals, the typings
    and other facts in ``InstanceStore.write``'s format, the indexes of the facts on
    instance_of, and the index and error of a fact whose object is no instance or
    literal, the last kept; ``ats`` gets each typing's and fact's object token index."""
    terms, inodes, tnodes = groups, _Names("i:"), _Names("t:")
    individuals, typings, facts, swaps, stop = [], [], [], [], []  # type: ignore[var-annotated]
    for s, p, o, at in _triples(text, state):
        subject = inodes[s]
        if subject is None:
            if s[:2] != "t:":
                raise UnsupportedConstruct(f"line {_line(text, at)}: subject outside the fragment: {s}")
            if terms is groups:
                terms = {name: {q: list(v) for q, v in g.items()} for name, g in groups.items()}
            terms.setdefault(s[2:], {}).setdefault(p, []).append(o)
        elif p != "rdf:type":
            predicate = tnodes[p]
            if predicate is None:
                raise UnsupportedConstruct(f"line {_line(text, at)}: predicate {p} on instance {subject}")
            if ats is not None:
                ats[1].append(at)
            if stop:
                continue
            if type(o) is str:
                name = inodes[o]
                if name is None:
                    stop = [(len(facts), UnsupportedConstruct(f"object {o} of {p} on instance {subject}"))]
                elif predicate == "instance_of":
                    swaps.append(len(facts))
                o = name
            facts.append((subject, predicate, o))
        elif o == "owl:NamedIndividual":
            individuals.append(subject)
        elif type(o) is str and tnodes[o] is not None:
            typings.append((subject, "instance_of", tnodes[o]))
            if ats is not None:
                ats[0].append(at)
        else:
            raise UnsupportedConstruct(f"line {_line(text, at)}: typing {o} on instance {subject}")
    return terms, inodes, individuals, typings, facts, swaps, stop


class _Names(dict):
    """Node -> its name under ``label``, made once; None for a node under another label."""

    def __init__(self, label: str):
        self.label = label

    def __missing__(self, node: str) -> Optional[str]:
        self[node] = name = node[2:] if node[:2] == self.label else None
        return name
