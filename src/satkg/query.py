"""Conjunctive query language: parser, printer and evaluator.

Grammar::

    query   := "select" var+ "where" "{" pattern ("." pattern)*
               ("." "filter" filter)* ("." "not" "{" pattern "}")* "}"
    pattern := term term term
    filter  := var ("<" | "<=" | "=" | ">=" | ">") number
    term    := "?"ident | ident | number | quoted-string

Quoted strings take the escapes of the Turtle fragment (``\\"``, ``\\\\``,
``\\n``, ``\\r``, ``\\t``), read left to right; any other escaped character
stands for itself, so ``\\q`` reads as ``q``.

Typing patterns (`?x instance_of C`) match through the subsumption closure,
so instances of subclasses answer superclass queries.  Negation blocks are
evaluated as negation-as-failure and are only legal under closed-world
semantics; an open-world store cannot prove non-existence.  A variable that
occurs twice in one pattern must take the same value in both places.  A
bound variable joins only the same term: literals with the same value type,
lexical form and unit, so ``1`` and ``1.0`` are different terms.  A literal
constant written in the query carries no unit and matches any stored literal
of equal value.

Evaluation joins the patterns in a greedy order: next comes the pattern with
the most bound positions (constants, or variables bound by the patterns
already joined), then the one with the shorter candidate list as read through
its constants, then the one written first.  Each match reads the narrowest
store index its bound positions allow: the subject's assertions, else the
object instance's, else the predicate's; a typing pattern with a class and a
free subject reads the instances typed by the class or its subclasses.
Filters run on the joined rows, negations after them.  The order changes only
the work, never the answer.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from typing import Iterator, Optional, Union

from .core import (
    INSTANCE_OF,
    InstanceStore,
    Literal,
    Ontology,
    TermId,
    TermKind,
    escape_string,
    lexical_form,
    unescape_string,
)
from .errors import (
    NegationUnderOpenWorld,
    QuerySyntaxError,
    UnknownTermInQuery,
    UnsafeVariable,
)


class Semantics(Enum):
    OPEN_WORLD = "open_world"
    CLOSED_WORLD = "closed_world"


@dataclass(frozen=True)
class Variable:
    name: str  # includes the leading '?'

    def __str__(self) -> str:
        return self.name


Term = Union[Variable, TermId, Literal]


@dataclass(frozen=True)
class TriplePattern:
    subject: Union[Variable, TermId]
    predicate: TermId
    object: Term

    def variables(self) -> set[str]:
        out = set()
        if isinstance(self.subject, Variable):
            out.add(self.subject.name)
        if isinstance(self.object, Variable):
            out.add(self.object.name)
        return out


_COMPARATORS = ("<=", ">=", "<", ">", "=")


@dataclass(frozen=True)
class NumericFilter:
    variable: str
    comparator: str
    bound: Decimal

    def accepts(self, value: Union[Decimal, int]) -> bool:
        if self.comparator == "<":
            return value < self.bound
        if self.comparator == "<=":
            return value <= self.bound
        if self.comparator == "=":
            return value == self.bound
        if self.comparator == ">=":
            return value >= self.bound
        return value > self.bound


@dataclass
class QueryAst:
    select_vars: list[str]
    patterns: list[TriplePattern]
    filters: list[NumericFilter] = field(default_factory=list)
    negations: list[TriplePattern] = field(default_factory=list)
    semantics: Semantics = Semantics.OPEN_WORLD


# ---------------------------------------------------------------- tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>-?[0-9]+(?:\.[0-9]+)?)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<punct><=|>=|[{}.<>=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QuerySyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup or ""
        value = m.group()
        if kind == "ws":
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = pos + value.rfind("\n") + 1
        else:
            tokens.append(_Token(kind, value, line, pos - line_start + 1))
        pos = m.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ontology: Optional[Ontology]):
        self.tokens = tokens
        self.pos = 0
        self.ontology = ontology

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def error(self, message: str) -> QuerySyntaxError:
        tok = self.current
        return QuerySyntaxError(message, tok.line, tok.column)

    def advance(self) -> _Token:
        tok = self.current
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect_keyword(self, word: str) -> None:
        tok = self.current
        if tok.kind != "ident" or tok.text != word:
            raise self.error(f"expected {word!r}")
        self.advance()

    def expect_punct(self, text: str) -> None:
        tok = self.current
        if tok.kind != "punct" or tok.text != text:
            raise self.error(f"expected {text!r}")
        self.advance()

    def at_punct(self, text: str) -> bool:
        return self.current.kind == "punct" and self.current.text == text

    def at_keyword(self, word: str) -> bool:
        return self.current.kind == "ident" and self.current.text == word

    # ------------------------------------------------------------- grammar

    def parse_query(self) -> QueryAst:
        self.expect_keyword("select")
        select_vars = []
        while self.current.kind == "var":
            select_vars.append(self.advance().text)
        if not select_vars:
            raise self.error("expected at least one ?variable after 'select'")
        self.expect_keyword("where")
        self.expect_punct("{")
        if self.at_punct("}"):
            raise self.error("empty pattern block")

        patterns = [self.parse_pattern()]
        filters: list[NumericFilter] = []
        negations: list[TriplePattern] = []
        while self.at_punct("."):
            self.advance()
            if self.at_keyword("filter"):
                self.advance()
                filters.append(self.parse_filter())
            elif self.at_keyword("not"):
                self.advance()
                self.expect_punct("{")
                negations.append(self.parse_pattern())
                self.expect_punct("}")
            else:
                patterns.append(self.parse_pattern())
        self.expect_punct("}")
        if self.current.kind != "eof":
            raise self.error("trailing input after query")
        return QueryAst(select_vars, patterns, filters, negations)

    def parse_pattern(self) -> TriplePattern:
        subject = self.parse_term(position="subject")
        predicate = self.parse_predicate()
        obj = self.parse_term(position="object", predicate=predicate)
        return TriplePattern(subject, predicate, obj)  # type: ignore[arg-type]

    def parse_predicate(self) -> TermId:
        tok = self.current
        if tok.kind != "ident":
            raise self.error("predicate must be a property name or instance_of")
        self.advance()
        if tok.text == INSTANCE_OF.name:
            return INSTANCE_OF
        if self.ontology is not None:
            if not self.ontology.has_property(tok.text):
                raise UnknownTermInQuery(f"property {tok.text!r} not in ontology")
            return self.ontology.prop(tok.text).id
        return TermId(tok.text, TermKind.OBJECT_PROPERTY)

    def parse_term(self, position: str, predicate: Optional[TermId] = None) -> Term:
        tok = self.current
        if tok.kind == "var":
            self.advance()
            return Variable(tok.text)
        if tok.kind == "number":
            if position == "subject":
                raise self.error("subject must not be a literal")
            self.advance()
            return Literal(Decimal(tok.text))
        if tok.kind == "string":
            if position == "subject":
                raise self.error("subject must not be a literal")
            self.advance()
            return Literal(unescape_string(tok.text[1:-1]))
        if tok.kind == "ident":
            self.advance()
            if position == "object" and predicate is not None and predicate.name == "instance_of":
                if self.ontology is not None and not self.ontology.has_class(tok.text):
                    raise UnknownTermInQuery(f"class {tok.text!r} not in ontology")
                return TermId(tok.text, TermKind.CLASS)
            return TermId(tok.text, TermKind.INSTANCE)
        raise self.error("expected a term")

    def parse_filter(self) -> NumericFilter:
        tok = self.current
        if tok.kind != "var":
            raise self.error("filter expects a ?variable")
        self.advance()
        op = self.current
        if op.kind != "punct" or op.text not in _COMPARATORS:
            raise self.error("filter expects a comparator (<, <=, =, >=, >)")
        self.advance()
        num = self.current
        if num.kind != "number":
            raise self.error("filter expects a numeric bound")
        self.advance()
        return NumericFilter(tok.text, op.text, Decimal(num.text))


def parse_query(
    text: str,
    ontology: Optional[Ontology] = None,
    semantics: Semantics = Semantics.OPEN_WORLD,
) -> QueryAst:
    """Parse query text; with an ontology given, terms are checked against it.

    The semantics mode is not part of the grammar; it comes from the caller
    (the CLI flag) and defaults to open world.
    """
    ast = _Parser(_tokenize(text), ontology).parse_query()
    ast.semantics = semantics
    _check_safety(ast)
    return ast


def _check_safety(ast: QueryAst) -> None:
    positive: set[str] = set()
    for p in ast.patterns:
        positive |= p.variables()
    for v in ast.select_vars:
        if v not in positive:
            raise UnsafeVariable(f"select variable {v} does not occur in any pattern")
    for f in ast.filters:
        if f.variable not in positive:
            raise UnsafeVariable(f"filter variable {f.variable} does not occur in any pattern")
    for n in ast.negations:
        nvars = n.variables()
        if nvars and not (nvars & positive):
            raise UnsafeVariable(
                "negation pattern shares no variable with the positive patterns"
            )


# ------------------------------------------------------------------ printer

def _format_term(term: Term) -> str:
    if isinstance(term, (Variable, TermId)):
        return term.name
    value = term.value
    if isinstance(value, str):
        return f'"{escape_string(value)}"'
    return lexical_form(value)


def format_query(ast: QueryAst) -> str:
    """Canonical text form; parse(format(parse(q))) equals parse(q)."""
    parts = [
        "select",
        " ".join(ast.select_vars),
        "where {",
    ]
    body = [
        " ".join((_format_term(p.subject), p.predicate.name, _format_term(p.object)))
        for p in ast.patterns
    ]
    body.extend(
        f"filter {f.variable} {f.comparator} {lexical_form(f.bound)}" for f in ast.filters
    )
    body.extend(
        "not { "
        + " ".join((_format_term(n.subject), n.predicate.name, _format_term(n.object)))
        + " }"
        for n in ast.negations
    )
    return " ".join(parts) + " " + " . ".join(body) + " }"


# ---------------------------------------------------------------- evaluation

Binding = dict[str, Union[TermId, Literal]]


@dataclass
class BindingSet:
    variables: list[str]
    rows: list[Binding]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.variables)
        for row in self.rows:
            writer.writerow([_render(row[v]) for v in self.variables])
        return buf.getvalue()

    def to_json(self) -> str:
        rows = [
            {v: _render(row[v]) for v in self.variables} for row in self.rows
        ]
        return json.dumps({"vars": self.variables, "rows": rows}, ensure_ascii=False, indent=2)

    def column(self, variable: str) -> list[Union[TermId, Literal]]:
        return [row[variable] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


def _render(value: Union[TermId, Literal]) -> str:
    if isinstance(value, TermId):
        return value.name
    return lexical_form(value.value)


def _sort_key(value: Union[TermId, Literal]) -> tuple[bool, str]:
    return (isinstance(value, Literal), _render(value))


def _resolve(term: Term, binding: Binding) -> Term:
    if isinstance(term, Variable):
        return binding.get(term.name, term)
    return term


def _extend(
    binding: Binding,
    pattern: TriplePattern,
    subject_value: Union[TermId, Literal],
    object_value: Union[TermId, Literal],
) -> Optional[Binding]:
    """The binding extended by one match; None when a variable repeated in
    the pattern would take two different values."""
    if pattern.subject == pattern.object and subject_value != object_value:
        return None
    row = dict(binding)
    if isinstance(pattern.subject, Variable):
        row[pattern.subject.name] = subject_value
    if isinstance(pattern.object, Variable):
        row[pattern.object.name] = object_value
    return row


def _is_instance(term: Term) -> bool:
    return isinstance(term, TermId) and term.kind is TermKind.INSTANCE


def _typing_matches(store: InstanceStore, pattern: TriplePattern, binding: Binding) -> Iterator[Binding]:
    subject = _resolve(pattern.subject, binding)
    obj = _resolve(pattern.object, binding)
    if not (isinstance(subject, Variable) or _is_instance(subject)):
        return
    if isinstance(obj, Variable):
        if isinstance(subject, Variable):
            candidates = store.instances
        elif store.has_instance(subject.name):
            candidates = [subject]
        else:
            return
        classes = store.ontology.classes
        for term in candidates:
            for t in sorted(store.all_types_of(term.name)):
                row = _extend(binding, pattern, term, classes[t].id)
                if row is not None:
                    yield row
    elif isinstance(obj, TermId) and obj.kind is TermKind.CLASS:
        ont = store.ontology
        if isinstance(subject, Variable):
            # the subject is unbound, so the object is not the same variable
            seen: set[str] = set()
            for cls in ont.subclasses_of(obj.name):
                for term in store.instances_of(cls):
                    if term.name not in seen:
                        seen.add(term.name)
                        yield {**binding, subject.name: term}
        elif ont.cls(obj.name).name in store.all_types_of(subject.name):
            yield dict(binding)
    # an instance or literal in class position can never match


def _pattern_matches(store: InstanceStore, pattern: TriplePattern, binding: Binding) -> Iterator[Binding]:
    """Matches of one pattern under a binding, read from the narrowest index:
    the subject's assertions, else the object instance's, else the predicate's."""
    if pattern.predicate.name == "instance_of":
        yield from _typing_matches(store, pattern, binding)
        return
    subject = _resolve(pattern.subject, binding)
    obj = _resolve(pattern.object, binding)
    predicate = store.ontology.canonical_name(pattern.predicate.name)
    if isinstance(subject, Variable):
        if _is_instance(obj):
            candidates = store.assertions_with_object(obj.name)
        else:
            candidates = store.assertions_with_predicate(predicate)
    elif _is_instance(subject):
        candidates = store.assertions_about(subject.name)
    else:
        return  # a class or literal can never stand in subject position
    for a in candidates:
        if a.predicate.name == predicate and _object_compatible(a.object, pattern.object, obj):
            row = _extend(binding, pattern, a.subject, a.object)
            if row is not None:
                yield row


def _object_compatible(stored: Union[TermId, Literal], written: Term, wanted: Term) -> bool:
    """Whether a stored object matches a pattern object: ``written`` as in
    the query, ``wanted`` under the current binding.  A query literal carries
    no unit and matches a stored value in any unit; a bound variable joins
    only the same term."""
    if isinstance(wanted, Variable):
        return True
    if isinstance(written, Literal) and written.unit is None:
        return isinstance(stored, Literal) and stored.value == wanted.value  # type: ignore[union-attr]
    return _same_term(stored, wanted)


def _same_term(a: Union[TermId, Literal], b: Term) -> bool:
    """Term identity: literals are the same term only with the same value
    type, lexical form and unit, so ``1`` and ``1.0`` never join and the join
    order cannot change which of them a variable is bound to."""
    if isinstance(a, Literal) and isinstance(b, Literal):
        return (
            type(a.value) is type(b.value)
            and a.unit == b.unit
            and lexical_form(a.value) == lexical_form(b.value)
        )
    return a == b


def _estimate(store: InstanceStore, pattern: TriplePattern, bound: set[str]) -> tuple[int, int]:
    """Planner key: more bound positions first, then the shorter candidate
    list as read through the pattern's constants."""

    def is_bound(term: Term) -> bool:
        return not isinstance(term, Variable) or term.name in bound

    positions = is_bound(pattern.subject) + is_bound(pattern.object)
    subject, obj = pattern.subject, pattern.object
    if pattern.predicate.name == "instance_of":
        if isinstance(subject, TermId):
            size = 1
        elif isinstance(obj, TermId):
            size = sum(len(store.instances_of(c)) for c in store.ontology.subclasses_of(obj.name))
        else:
            size = store.instance_count
    elif isinstance(subject, TermId):
        size = len(store.assertions_about(subject.name))
    elif _is_instance(obj):
        size = len(store.assertions_with_object(obj.name))
    else:
        size = len(store.assertions_with_predicate(pattern.predicate.name))
    return (-positions, size)


def _passes(f: NumericFilter, row: Binding) -> bool:
    value = row.get(f.variable)
    return (
        isinstance(value, Literal)
        and isinstance(value.value, (Decimal, int))
        and not isinstance(value.value, bool)
        and f.accepts(value.value)
    )


def evaluate(ast: QueryAst, store: InstanceStore) -> BindingSet:
    """Join the patterns in planner order, apply filters, then negation
    (closed world only).

    Open-world queries may not use negation: the store cannot prove that a
    fact is absent from the world, only that it is absent from the store.
    """
    if ast.semantics is Semantics.OPEN_WORLD and ast.negations:
        raise NegationUnderOpenWorld(
            "negation requires closed_world semantics; under open_world the "
            "absence of an assertion proves nothing"
        )
    if store.ontology is not None:
        _check_terms(ast, store.ontology)

    rows: list[Binding] = [{}]
    bound: set[str] = set()
    remaining = list(ast.patterns)
    while remaining and rows:
        pattern = min(remaining, key=lambda p: _estimate(store, p, bound))
        remaining.remove(pattern)
        rows = [m for binding in rows for m in _pattern_matches(store, pattern, binding)]
        bound |= pattern.variables()

    for f in ast.filters:
        rows = [row for row in rows if _passes(f, row)]

    if ast.semantics is Semantics.CLOSED_WORLD:
        for negation in ast.negations:
            rows = [
                row
                for row in rows
                if next(_pattern_matches(store, negation, row), None) is None
            ]

    projected: dict[tuple, Binding] = {}
    for row in rows:
        key = tuple(_sort_key(row[v]) for v in ast.select_vars)
        if key not in projected:
            projected[key] = {v: row[v] for v in ast.select_vars}
    return BindingSet(list(ast.select_vars), [projected[k] for k in sorted(projected)])


def _check_terms(ast: QueryAst, ontology: Ontology) -> None:
    for pattern in list(ast.patterns) + list(ast.negations):
        name = pattern.predicate.name
        if name != "instance_of" and not ontology.has_property(name):
            raise UnknownTermInQuery(f"property {name!r} not in ontology")
        if (
            name == "instance_of"
            and isinstance(pattern.object, TermId)
            and not ontology.has_class(pattern.object.name)
        ):
            raise UnknownTermInQuery(f"class {pattern.object.name!r} not in ontology")
