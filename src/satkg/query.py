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

Evaluation works on sets of rows, each a tuple with a slot per bound
variable.  It joins the patterns in a greedy order: next comes the pattern
with the most bound positions (constants, or variables bound by the patterns
already joined), then the one with the shorter candidate list as read through
its constants, then the one written first.  A pattern that shares variables
with the rows is hash-joined: its candidates are read once through its
constants and keyed by term identity.  When they outnumber the rows more than
five times over, and always for a typing with a variable class, each row
probes the narrowest index instead: the subject's assertions, else the object
instance's, else the predicate's, or for a typing the instance's types or the
class's instances.  Filters run on the joined rows; each negation then drops
the rows it matches by the same rule, as a hash anti-join or a probe per row.
Neither the order nor the path changes the answer.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import operator
import re
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from typing import Container, Iterator, NamedTuple, Optional, Union

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


#: Filter comparator -> its test of (value, bound).
_OPERATORS = {
    "<": operator.lt, "<=": operator.le, "=": operator.eq, ">=": operator.ge, ">": operator.gt,
}


@dataclass(frozen=True)
class NumericFilter:
    variable: str
    comparator: str
    bound: Decimal

    def accepts(self, value: Union[Decimal, int]) -> bool:
        return _OPERATORS[self.comparator](value, self.bound)


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


class _Token(NamedTuple):
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
        if op.kind != "punct" or op.text not in _OPERATORS:
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

Value = Union[TermId, Literal]
Binding = dict[str, Value]


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


def _render(value: Value) -> str:
    return _sort_key(value)[1]


def _sort_key(value: Value) -> tuple[bool, str]:
    if type(value) is TermId:
        return (False, value.name)
    return (True, lexical_form(value.value))


def _term_key(value: Value) -> object:
    """Term identity as a dict key: a term as itself, a literal by value
    type, lexical form and unit, so ``1`` and ``1.0`` never join and the join
    order cannot change which of them a variable is bound to."""
    if type(value) is TermId:
        return value
    return (type(value.value), lexical_form(value.value), value.unit)


def _is_instance(term: Term) -> bool:
    return isinstance(term, TermId) and term.kind is TermKind.INSTANCE


def _pairs(store: InstanceStore, pattern: TriplePattern,
           subject: Optional[Value], obj: Optional[Value], same: bool) -> list[tuple]:
    """The facts matching ``pattern`` with its subject and object fixed to
    ``subject`` and ``obj`` (None where free), read from the narrowest index;
    ``same`` when one free variable stands in both places.  A query literal
    carries no unit and matches a stored value in any unit; any other fixed
    object matches only the same term."""
    if subject is not None and not _is_instance(subject):
        return []  # a class or literal can never stand in subject position
    if pattern.predicate.name == "instance_of":
        pairs = _typing_pairs(store, subject, obj)
    else:
        predicate = store.ontology.canonical_name(pattern.predicate.name)
        if subject is not None:
            candidates = store.assertions_about(subject.name)
        elif _is_instance(obj):
            candidates = store.assertions_with_object(obj.name)
        else:
            candidates = store.assertions_with_predicate(predicate)
        pairs = [(a.subject, a.object) for a in candidates if a.predicate.name == predicate]
        written = pattern.object
        if type(written) is Literal and written.unit is None:
            pairs = [p for p in pairs if type(p[1]) is Literal and p[1].value == written.value]
        elif obj is not None:
            key = _term_key(obj)
            pairs = [p for p in pairs if _term_key(p[1]) == key]
    return [p for p in pairs if p[0] == p[1]] if same else pairs


def _typing_pairs(store: InstanceStore, subject: Optional[TermId],
                  obj: Optional[Value]) -> list[tuple]:
    """Typings closed under subsumption; a class with a free subject reads
    the instances typed by the class or its subclasses."""
    ont = store.ontology
    if obj is None:
        candidates = store.instances if subject is None else [subject]
        return [(t, ont.classes[c].id) for t in candidates for c in store.all_types_of(t.name)]
    if type(obj) is not TermId or obj.kind is not TermKind.CLASS:
        return []  # an instance or literal in class position can never match
    if subject is None:
        subclasses = ont.subclasses_of(obj.name)
        typed = dict.fromkeys(itertools.chain.from_iterable(map(store.instances_of, subclasses)))
        return [(t, obj) for t in typed]
    return [(subject, obj)] if ont.cls(obj.name).name in store.all_types_of(subject.name) else []


def _estimate(store: InstanceStore, pattern: TriplePattern, bound: Container[str]) -> tuple[int, int]:
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


#: Rows are probed one at a time only when the pattern's candidates outnumber
#: them this many times over, else the candidates are read once: timed through
#: ``evaluate``, the hash join wins at four candidates a row, the probe at six.
_PROBE_RATIO = 5


def _keys(values: list[tuple], indexes: list[int], positions: list[int]) -> Iterator:
    """Join keys of each pair or row: its values at ``indexes``, which fill
    the pattern ``positions``; an object (position 1) may be a literal."""
    columns = [map(operator.itemgetter(i), values) for i in indexes]
    columns = [map(_term_key, c) if at else c for c, at in zip(columns, positions)]
    return columns[0] if len(columns) == 1 else zip(*columns)


def _join(store: InstanceStore, pattern: TriplePattern, slots: dict[str, int],
          rows: list[tuple], size: int, negated: bool = False) -> list[tuple]:
    """The rows extended by each match of ``pattern``, its new variables put
    in new slots; ``negated``, the rows it has no match for.  Rows that bind
    a variable of the pattern are hash-joined with its ``size`` candidates,
    read once, or probed one by one through the narrowest index when the
    candidates are too many or the pattern is a typing with a variable
    class, whose hash join closes every instance's types."""
    terms = subject, obj = pattern.subject, pattern.object
    same = isinstance(subject, Variable) and subject == obj
    fixed: list = [None, None]
    bound: list = [None, None]
    keyed, new = [], []
    for i, term in enumerate(terms):
        if not isinstance(term, Variable):
            fixed[i] = term
        elif term.name in slots:
            bound[i] = slots[term.name]
            keyed.append(i)
        elif not (negated or i and same):
            new.append(i)
    for i in new:
        slots[terms[i].name] = len(slots)
    lo, hi = (new[0], new[-1] + 1) if new else (0, 0)

    typing_by_class = pattern.predicate.name == "instance_of" and isinstance(obj, Variable)
    if not keyed:  # the same matches for every row
        matches: Iterator = itertools.repeat(_pairs(store, pattern, fixed[0], fixed[1], same))
    elif typing_by_class or size > _PROBE_RATIO * len(rows):
        probes = ([row[b] if b is not None else f for f, b in zip(fixed, bound)] for row in rows)
        matches = (_pairs(store, pattern, s, o, same) for s, o in probes)
    else:  # hash join: the candidates read once, keyed by the bound positions
        pairs = _pairs(store, pattern, fixed[0], fixed[1], same)
        table: dict[object, list[tuple]] = {}
        for key, p in zip(_keys(pairs, keyed, keyed), pairs):
            table.setdefault(key, []).append(p)
        matches = map(table.get, _keys(rows, [bound[i] for i in keyed], keyed), itertools.repeat(()))
    if negated:
        return [row for row, found in zip(rows, matches) if not found]
    return [row + p[lo:hi] for row, found in zip(rows, matches) for p in found]


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
    _check_terms(ast, store.ontology)

    variables = list(ast.select_vars)
    slots: dict[str, int] = {}
    rows: list[tuple] = [()]
    remaining = list(ast.patterns)
    while remaining and rows:
        estimates = [_estimate(store, p, slots) for p in remaining]
        best = estimates.index(min(estimates))
        rows = _join(store, remaining.pop(best), slots, rows, estimates[best][1])
    if not rows:
        return BindingSet(variables, [])

    for f in ast.filters:
        test, bound, slot = _OPERATORS[f.comparator], f.bound, slots[f.variable]
        rows = [row for row in rows if isinstance(value := row[slot], Literal)
                and isinstance(number := value.value, (Decimal, int))
                and not isinstance(number, bool) and test(number, bound)]

    if ast.semantics is Semantics.CLOSED_WORLD:
        for negation in ast.negations:
            size = _estimate(store, negation, slots)[1]
            rows = _join(store, negation, slots, rows, size, negated=True)

    # project; the first row of each sort key is kept
    if len(variables) == 1:  # a value is its own key, a dict display the row
        (name,) = variables
        projected = {_sort_key(v): v for v in map(operator.itemgetter(slots[name]), reversed(rows))}
        return BindingSet(variables, [{name: projected[k]} for k in sorted(projected)])
    columns = [list(map(operator.itemgetter(slots[v]), reversed(rows))) for v in variables]
    projected = dict(zip(zip(*[map(_sort_key, column) for column in columns]), zip(*columns)))
    return BindingSet(variables, [dict(zip(variables, projected[k])) for k in sorted(projected)])


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
