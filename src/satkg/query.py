"""Conjunctive query language: parser, printer and evaluator.

Grammar::

    query   := "select" var+ "where" "{" pattern ("." pattern)*
               ("." "filter" filter)* ("." "not" "{" pattern "}")* "}"
    pattern := term term term
    filter  := var ("<" | "<=" | "=" | ">=" | ">") number
    term    := "?"ident | ident | number | quoted-string

Quoted strings take Turtle's escapes (ECHAR such as ``\\b`` and UCHAR such as
``\\u0041``), read left to right; any other escaped text stands for itself, so
``\\q`` reads as ``q``.

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
probes the narrowest index instead: the subject's facts, else the object
instance's, else the predicate's, or for a typing the instance's types or the
class's instances.  Filters run on the joined rows; each negation then drops
the rows it matches by the same rule, as a hash anti-join or a probe per row.
Each column of the rows, like each position of the candidates, holds values
of one kind (instances, classes or literals), so the hash keys of terms are
their names, and two sides of different kinds are never compared.
Neither the order nor the path changes the answer.  A pattern with neither
subject nor object fixed reads the predicate's term pairs, and a typing with a
free subject the class's instances, from the store's views, built once per write.

The answer holds the selected columns of the rows, sorted by their texts: a
term's name and a literal's lexical form, as CSV and JSON write them.  Rows
with the same texts are one answer row, the first joined of them.  When the
first column's texts are pairwise distinct, they alone decide the order and
the rows are distinct, so no other column's text is computed.
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
from typing import Container, Iterator, Optional, Union

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
    SatkgError,
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

#: One token and the whitespace before it, as the tuple of its groups:
#: (space, var, number, string, ident, punct, bad).  Of the last six, the
#: token's kind is the one group not empty; a character no token starts with
#: is ``bad``, and the end of the text (after any whitespace) is the token
#: with all six empty.
_TOKEN_RE = re.compile(
    r"""
    (\s*)
    (?: (\?[A-Za-z_][A-Za-z0-9_]*)
      | (-?[0-9]+(?:\.[0-9]+)?)
      | ("(?:[^"\\]|\\.)*")
      | ([A-Za-z_][A-Za-z0-9_\-]*)
      | (<=|>=|[{}.<>=])
      | (\S|\Z) )
    """,
    re.VERBOSE,
)
_SPACE, _VAR, _NUMBER, _STRING, _IDENT, _PUNCT, _BAD = range(7)


class _Parser:
    """Recursive descent over the tokens of one ``findall`` pass; a token's
    line and column are counted from the text before it only for an error."""

    def __init__(self, text: str, ontology: Optional[Ontology]):
        self.tokens = _TOKEN_RE.findall(text)
        self.pos = 0
        self.tok = self.tokens[0]
        self.ontology = ontology
        if any(map(operator.itemgetter(_BAD), self.tokens)):
            self.pos = [bool(tok[_BAD]) for tok in self.tokens].index(True)
            self.tok = self.tokens[self.pos]
            raise self.error(f"unexpected character {self.tok[_BAD]!r}")

    def error(self, message: str, kind: type = QuerySyntaxError) -> SatkgError:
        before = "".join(itertools.chain(*self.tokens[:self.pos])) + self.tok[_SPACE]
        return kind(message, before.count("\n") + 1, len(before) - before.rfind("\n"))

    def advance(self) -> None:
        self.pos += 1
        self.tok = self.tokens[self.pos]

    def expect(self, group: int, text: str) -> None:
        if self.tok[group] != text:
            raise self.error(f"expected {text!r}")
        self.advance()

    # ------------------------------------------------------------- grammar

    def parse_query(self) -> QueryAst:
        self.expect(_IDENT, "select")
        select_vars = []
        while self.tok[_VAR]:
            select_vars.append(self.tok[_VAR])
            self.advance()
        if not select_vars:
            raise self.error("expected at least one ?variable after 'select'")
        self.expect(_IDENT, "where")
        self.expect(_PUNCT, "{")
        if self.tok[_PUNCT] == "}":
            raise self.error("empty pattern block")

        patterns = [self.parse_pattern()]
        filters: list[NumericFilter] = []
        negations: list[TriplePattern] = []
        while self.tok[_PUNCT] == ".":
            self.advance()
            if self.tok[_IDENT] == "filter":
                self.advance()
                filters.append(self.parse_filter())
            elif self.tok[_IDENT] == "not":
                self.advance()
                self.expect(_PUNCT, "{")
                negations.append(self.parse_pattern())
                self.expect(_PUNCT, "}")
            else:
                patterns.append(self.parse_pattern())
        self.expect(_PUNCT, "}")
        if any(self.tok[_VAR:]):
            raise self.error("trailing input after query")
        return QueryAst(select_vars, patterns, filters, negations)

    def parse_pattern(self) -> TriplePattern:
        subject = self.parse_term(subject=True)
        predicate = self.parse_predicate()
        obj = self.parse_term(subject=False, typing=predicate.name == INSTANCE_OF.name)
        return TriplePattern(subject, predicate, obj)  # type: ignore[arg-type]

    def parse_predicate(self) -> TermId:
        name = self.tok[_IDENT]
        if not name:
            raise self.error("predicate must be a property name or instance_of")
        if (self.ontology is not None and name != INSTANCE_OF.name
                and not self.ontology.has_property(name)):
            raise self.error(f"property {name!r} not in ontology", UnknownTermInQuery)
        self.advance()
        if name == INSTANCE_OF.name:
            return INSTANCE_OF
        if self.ontology is not None:
            return self.ontology.prop(name).id
        return TermId(name, TermKind.OBJECT_PROPERTY)

    def parse_term(self, subject: bool, typing: bool = False) -> Term:
        _, var, number, string, name = self.tok[:_PUNCT]
        if (number or string) and subject:
            raise self.error("subject must not be a literal")
        if not (var or number or string or name):
            raise self.error("expected a term")
        if name and typing and self.ontology is not None and not self.ontology.has_class(name):
            raise self.error(f"class {name!r} not in ontology", UnknownTermInQuery)
        self.advance()
        if var:
            return Variable(var)
        if number:
            return Literal(Decimal(number))
        if string:
            return Literal(unescape_string(string[1:-1]))
        if not typing:
            return TermId(name, TermKind.INSTANCE)
        return TermId(name, TermKind.CLASS)  # an alias stays as written

    def parse_filter(self) -> NumericFilter:
        variable = self.tok[_VAR]
        if not variable:
            raise self.error("filter expects a ?variable")
        self.advance()
        comparator = self.tok[_PUNCT]
        if comparator not in _OPERATORS:
            raise self.error("filter expects a comparator (<, <=, =, >=, >)")
        self.advance()
        bound = self.tok[_NUMBER]
        if not bound:
            raise self.error("filter expects a numeric bound")
        self.advance()
        return NumericFilter(variable, comparator, Decimal(bound))


def parse_query(
    text: str,
    ontology: Optional[Ontology] = None,
    semantics: Semantics = Semantics.OPEN_WORLD,
) -> QueryAst:
    """Parse query text; with an ontology given, terms are checked against it.

    The semantics mode is not part of the grammar; it comes from the caller
    (the CLI flag) and defaults to open world.
    """
    ast = _Parser(text, ontology).parse_query()
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
    return value.name if type(value) is TermId else lexical_form(value.value)


_NAME = operator.attrgetter("name")
_VALUE = operator.attrgetter("value")
_NUMBERS = (Decimal, int)  # the filterable value types; bool is not one


def _term_key(value: Value) -> object:
    """Term identity as a dict key: a term as itself, a literal by value
    type, lexical form and unit, so ``1`` and ``1.0`` never join and the join
    order cannot change which of them a variable is bound to."""
    if type(value) is TermId:
        return value
    return (type(value.value), lexical_form(value.value), value.unit)


def _kind(value: Value) -> object:
    return value.kind if type(value) is TermId else Literal


def _is_instance(term: Term) -> bool:
    return isinstance(term, TermId) and term.kind is TermKind.INSTANCE


def _pairs(store: InstanceStore, pattern: TriplePattern,
           subject: Optional[Value], obj: Optional[Value], same: bool) -> list[tuple]:
    """The facts matching ``pattern`` with subject and object fixed to ``subject``
    and ``obj`` (None where free), from the narrowest index (a shared, read-only
    view when neither is fixed); ``same`` when one free variable stands in both
    places.  A query literal matches a stored value in any unit, any other only the same term."""
    if subject is not None and not _is_instance(subject):
        return []  # a class or literal can never stand in subject position
    if pattern.predicate.name == "instance_of":  # an instance is never its own class
        return [] if same else _typing_pairs(store, subject, obj)
    predicate = store.ontology.canonical_name(pattern.predicate.name)
    if subject is None and obj is None and not same:
        return store.predicate_pairs(predicate)
    if subject is not None or _is_instance(obj):
        read = (store.facts_about(subject.name) if subject is not None
                else store.facts_with_object(obj.name))
        facts = [f for f in read if f[1] == predicate]
    else:  # the predicate's own index
        facts = store.facts_with_predicate(predicate)
    written = pattern.object
    if type(written) is Literal and written.unit is None:
        facts = [f for f in facts if type(f[2]) is Literal and f[2].value == written.value]
    elif type(obj) is Literal:
        key = _term_key(obj)
        facts = [f for f in facts if type(f[2]) is Literal and _term_key(f[2]) == key]
    elif obj is not None:  # an instance; a class is never a property's object
        facts = [f for f in facts if f[2] == obj.name] if _is_instance(obj) else []
    return store.pairs([f for f in facts if f[0] == f[2]] if same else facts)


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
        return list(zip(store.typed_instances(obj.name), itertools.repeat(obj)))
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
        size = len(store.facts_about(subject.name))
    elif _is_instance(obj):
        size = len(store.facts_with_object(obj.name))
    else:
        size = len(store.facts_with_predicate(pattern.predicate.name))
    return (-positions, size)


#: Rows are probed one at a time only when the pattern's candidates outnumber
#: them this many times over, else the candidates are read once: timed through
#: ``evaluate``, the hash join wins at four candidates a row, the probe at six.
_PROBE_RATIO = 5


def _keys(values: list[tuple], indexes: list[int]) -> Iterator:
    """Join keys of each pair or row: its values at ``indexes``, each column
    of one kind, terms keyed by name and literals by ``_term_key``."""
    columns = [map(_NAME if type(values[0][i]) is TermId else _term_key,
                   map(operator.itemgetter(i), values)) for i in indexes]
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
    if not rows:
        return rows
    lo, hi = (new[0], new[-1] + 1) if new else (0, 0)

    typing_by_class = pattern.predicate.name == "instance_of" and isinstance(obj, Variable)
    if not keyed:  # the same matches for every row
        pairs = _pairs(store, pattern, fixed[0], fixed[1], same)
        if negated:
            return [] if pairs else rows
        if hi - lo == 1:
            pairs = list(zip(map(operator.itemgetter(lo), pairs)))
        elif hi == lo:
            pairs = [()] * len(pairs)
        return pairs if rows == [()] else [row + p for row in rows for p in pairs]
    if typing_by_class or size > _PROBE_RATIO * len(rows):
        probes = ([row[b] if b is not None else f for f, b in zip(fixed, bound)] for row in rows)
        matches: Iterator = (_pairs(store, pattern, s, o, same) for s, o in probes)
    else:  # hash join: the candidates read once, keyed by the bound positions
        pairs = _pairs(store, pattern, fixed[0], fixed[1], same)
        if pairs and any(_kind(pairs[0][i]) != _kind(rows[0][bound[i]]) for i in keyed):
            pairs = []  # a class never joins an instance, nor a literal a term
        probe_keys = _keys(rows, [bound[i] for i in keyed])
        if negated:
            found = set(_keys(pairs, keyed)) if pairs else ()
            return [row for row, key in zip(rows, probe_keys) if key not in found]
        table: dict[object, list[tuple]] = {}
        for key, p in zip(_keys(pairs, keyed) if pairs else (), pairs):
            table.setdefault(key, []).append(p)
        matches = map(table.get, probe_keys, itertools.repeat(()))
    if negated:
        return [row for row, found in zip(rows, matches) if not found]
    return [row + p[lo:hi] for row, found in zip(rows, matches) for p in found]


def evaluate(ast: QueryAst, store: InstanceStore) -> BindingSet:
    """Join the patterns in planner order, apply filters, then negation
    (closed world only), and project.

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
        if rows and type(rows[0][slot]) is not Literal:
            rows = []  # the column holds terms
        rows = [row for row in rows
                if type(number := row[slot].value) in _NUMBERS and test(number, bound)]

    if ast.semantics is Semantics.CLOSED_WORLD:
        for negation in ast.negations:
            size = _estimate(store, negation, slots)[1]
            rows = _join(store, negation, slots, rows, size, negated=True)
    if not rows:
        return BindingSet(variables, [])

    # project: a column holds values of one kind, keyed by name or lexical form
    # (lazily); the rows are read backwards, so the first row of each key is kept
    columns = [list(map(operator.itemgetter(slots[v]), reversed(rows))) for v in variables]
    keys = [map(_NAME, c) if type(c[0]) is TermId else map(lexical_form, map(_VALUE, c))
            for c in columns]
    if len(variables) == 1:
        (a,) = variables
        kept = dict(zip(keys[0], columns[0]))
        return BindingSet(variables, [{a: kept[k]} for k in sorted(kept)])
    first = list(keys[0])
    kept = dict(zip(first, zip(*columns)))
    if len(kept) < len(first):  # a first text repeats: key the rows by all their texts
        kept = dict(zip(zip(first, *keys[1:]), zip(*columns)))
    values = map(kept.__getitem__, sorted(kept))
    if len(variables) == 2:
        a, b = variables
        return BindingSet(variables, [{a: x, b: y} for x, y in values])
    return BindingSet(variables, [dict(zip(variables, v)) for v in values])


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
