"""Differential test of the query evaluator against a nested-loop reference.

``reference_evaluate`` is the specification: it joins the patterns in
written order and scans every instance or assertion for each pattern.
Random small stores and queries must get the same answers from it as from
the index-driven, reordering ``evaluate``.  Where an instance shares a
class's name, the answers must also come in the documented order and render
as a reference renderer writes them.
"""

import csv
import io
import json
from decimal import Decimal

from hypothesis import example, given, settings
from hypothesis import strategies as st

from satkg import (
    DatatypeSpec,
    InstanceStore,
    Literal,
    Ontology,
    Semantics,
    TermId,
    TermKind,
    Variable,
    evaluate,
)
from satkg.core import lexical_form
from satkg.query import NumericFilter, QueryAst, TriplePattern


def reference_evaluate(ast: QueryAst, store: InstanceStore) -> set:
    """Nested loops in written order over every instance and assertion."""
    ont = store.ontology

    def facts(predicate):
        if predicate == "instance_of":
            for term in store.instances:
                for cls in ont.classes:
                    if any(ont.is_subclass_of(t, cls) for t in store.types_of(term.name)):
                        yield term, TermId(cls, TermKind.CLASS)
        else:
            for a in store.assertions():
                if a.predicate.name == ont.canonical_name(predicate):
                    yield a.subject, a.object

    def unify(row, term, value):
        if isinstance(term, Variable):
            if term.name not in row:
                return {**row, term.name: value}
            return row if term_key(row[term.name]) == term_key(value) else None
        if isinstance(term, Literal) and term.unit is None:  # query literals match any unit
            return row if isinstance(value, Literal) and value.value == term.value else None
        if term.kind is TermKind.CLASS:
            term = TermId(ont.canonical_name(term.name), TermKind.CLASS)
        return row if term == value else None

    def matches(pattern, row):
        for subject, obj in facts(pattern.predicate.name):
            extended = unify(row, pattern.subject, subject)
            if extended is not None:
                extended = unify(extended, pattern.object, obj)
                if extended is not None:
                    yield extended

    rows = [{}]
    for pattern in ast.patterns:
        rows = [m for row in rows for m in matches(pattern, row)]
    for f in ast.filters:
        rows = [r for r in rows if isinstance(r[f.variable], Literal)
                and isinstance(r[f.variable].value, (int, Decimal))
                and f.accepts(r[f.variable].value)]
    for negation in ast.negations:
        rows = [r for r in rows if next(matches(negation, r), None) is None]
    return {tuple(answer_key(r[v]) for v in ast.select_vars) for r in rows}


def term_key(value) -> tuple:
    """Term identity: a literal by value type, lexical form and unit."""
    if isinstance(value, TermId):
        return ("term", value.kind.value, value.name)
    return ("literal", type(value.value).__name__, lexical_form(value.value), value.unit)


def answer_key(value) -> tuple:
    if isinstance(value, TermId):
        return ("term", value.kind.value, value.name)
    return ("literal", lexical_form(value.value), value.unit)


# ------------------------------------------------------------------ inputs

INSTANCES = ("i0", "i1", "i2", "i3")
CLASSES = ("Top", "Left", "Right", "Bottom", "Other")
#: 1 and 1.0 are equal values with different lexical forms
VALUES = (Decimal("0"), Decimal("1"), Decimal("1.0"), Decimal("2.5"))
VARIABLES = tuple(Variable(v) for v in ("?a", "?b", "?c"))


def small_ontology() -> Ontology:
    ont = Ontology()
    ont.define_class("Top")
    ont.define_class("Left", ["Top"])
    ont.define_class("Right", ["Top"])
    ont.define_class("Bottom", ["Left", "Right"])
    ont.define_class("Other")
    ont.define_alias("Upper", "Top")
    ont.define_object_property("p", [], [])
    ont.define_object_property("q", [], [])
    ont.define_data_property("v", [], DatatypeSpec("decimal"))
    ont.define_data_property("w", [], DatatypeSpec("decimal", unit="km"))
    return ont


ONT = small_ontology()

instance_ids = st.sampled_from(INSTANCES).map(lambda n: TermId(n, TermKind.INSTANCE))
facts = st.one_of(
    st.tuples(instance_ids, st.just("instance_of"), st.sampled_from(CLASSES)),
    st.tuples(instance_ids, st.sampled_from(("p", "q")), instance_ids),
    st.tuples(instance_ids, st.sampled_from(("v", "w")), st.sampled_from(VALUES).map(Literal)),
)


#: "Top" also names a class: an instance and a class of one name
SHARED = INSTANCES + ("Top",)
shared_ids = st.sampled_from(SHARED).map(lambda n: TermId(n, TermKind.INSTANCE))
shared_facts = st.one_of(
    st.tuples(shared_ids, st.just("instance_of"), st.sampled_from(CLASSES)),
    st.tuples(shared_ids, st.sampled_from(("p", "q")), shared_ids),
    st.tuples(shared_ids, st.sampled_from(("v", "w")), st.sampled_from(VALUES).map(Literal)),
)


@st.composite
def stores(draw, facts=facts, instances=INSTANCES) -> InstanceStore:
    store = InstanceStore(ONT)
    for name in draw(st.lists(st.sampled_from(instances), unique=True)):
        store.add_instance(name)
    for subject, predicate, obj in draw(st.lists(facts, min_size=4, max_size=16)):
        names = [subject.name] + ([obj.name] if isinstance(obj, TermId) else [])
        for name in names:
            store.add_instance(name)
        store.assert_fact(subject, predicate, obj)
    return store


variables = st.sampled_from(VARIABLES)
literals = st.sampled_from(VALUES).map(Literal)
# "i4" names no instance of any store
subjects = st.one_of(variables, st.sampled_from(INSTANCES + ("i4",)).map(
    lambda n: TermId(n, TermKind.INSTANCE)))
typing_objects = st.one_of(variables, literals, st.sampled_from(CLASSES + ("Upper",)).map(
    lambda n: TermId(n, TermKind.CLASS)))
plain_objects = st.one_of(variables, literals, instance_ids)


@st.composite
def patterns(draw) -> TriplePattern:
    predicate = draw(st.sampled_from(("instance_of", "p", "q", "v", "w")))
    objects = typing_objects if predicate == "instance_of" else plain_objects
    return TriplePattern(draw(subjects), TermId(predicate, TermKind.OBJECT_PROPERTY),
                         draw(objects))


@st.composite
def queries(draw) -> QueryAst:
    positive = draw(st.lists(patterns(), min_size=1, max_size=4))
    bound = sorted(set().union(*(p.variables() for p in positive)))
    if not bound:
        positive.append(TriplePattern(VARIABLES[0], TermId("p", TermKind.OBJECT_PROPERTY),
                                      VARIABLES[1]))
        bound = ["?a", "?b"]
    select = draw(st.lists(st.sampled_from(bound), min_size=1, unique=True))
    filters = draw(st.lists(st.builds(
        NumericFilter, st.sampled_from(bound), st.sampled_from(("<", "<=", "=", ">=", ">")),
        st.sampled_from(VALUES)), max_size=2))
    negations = draw(st.lists(patterns(), max_size=2))
    semantics = Semantics.CLOSED_WORLD if negations else draw(st.sampled_from(Semantics))
    return QueryAst(select, positive, filters, negations, semantics)


def literal_join_store() -> InstanceStore:
    store = InstanceStore(ONT)
    for name in ("i0", "i1"):
        store.add_instance(name)
    store.assert_fact("i0", "v", Literal(Decimal("1")))
    store.assert_fact("i1", "v", Literal(Decimal("1.0")))
    return store


def literal_join(subject) -> QueryAst:
    """``?a v ?b . <subject> v ?b``: joins on a literal equal to 1."""
    v = TermId("v", TermKind.OBJECT_PROPERTY)
    a, b = VARIABLES[0], VARIABLES[1]
    return QueryAst(["?a", "?b"], [TriplePattern(a, v, b), TriplePattern(subject, v, b)])


@settings(max_examples=400, deadline=None)
@given(stores(), queries())
@example(literal_join_store(), literal_join(VARIABLES[2]))
@example(literal_join_store(), literal_join(TermId("i1", TermKind.INSTANCE)))
def test_evaluate_matches_nested_loop_reference(store, ast):
    rows = evaluate(ast, store).rows
    got = [tuple(answer_key(row[v]) for v in ast.select_vars) for row in rows]
    assert len(got) == len(set(got))
    assert set(got) == reference_evaluate(ast, store)


def test_reference_covers_subclass_typing_and_negation():
    store = InstanceStore(ONT)
    for name in INSTANCES:
        store.add_instance(name)
    store.assert_fact("i0", "instance_of", "Bottom")
    store.assert_fact("i1", "instance_of", "Left")
    store.assert_fact("i1", "p", "i2")
    a = Variable("?a")
    typed = TriplePattern(a, TermId("instance_of", TermKind.OBJECT_PROPERTY),
                          TermId("Upper", TermKind.CLASS))
    linked = TriplePattern(a, TermId("p", TermKind.OBJECT_PROPERTY), Variable("?o"))
    ast = QueryAst(["?a"], [typed], [], [linked], Semantics.CLOSED_WORLD)
    want = {(("term", "instance", "i0"),)}
    assert reference_evaluate(ast, store) == want
    assert {tuple(answer_key(r[v]) for v in ast.select_vars)
            for r in evaluate(ast, store).rows} == want


def rendered(value) -> str:
    """A value's text in an answer: a term's name, a literal's lexical form."""
    key = answer_key(value)
    return key[2] if key[0] == "term" else key[1]


def reference_csv(variables: list, answers: list) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([variables] + answers)
    return out.getvalue()


def reference_json(variables: list, answers: list) -> str:
    rows = [dict(zip(variables, answer)) for answer in answers]
    return json.dumps({"vars": variables, "rows": rows}, ensure_ascii=False, indent=2)


def shared_name_store() -> InstanceStore:
    """The instance ``Top`` linked from and to instances typed ``Top``."""
    store = InstanceStore(ONT)
    for name in ("i0", "Top"):
        store.add_instance(name)
    store.assert_fact("i0", "instance_of", "Top")
    store.assert_fact("Top", "p", "i0")
    store.assert_fact("i0", "p", "Top")
    return store


def class_then_link() -> QueryAst:
    """``?a instance_of ?b . ?b p ?c``: ?b is bound to the class ``Top``."""
    a, b, c = VARIABLES
    return QueryAst(["?a", "?b", "?c"], [
        TriplePattern(a, TermId("instance_of", TermKind.OBJECT_PROPERTY), b),
        TriplePattern(b, TermId("p", TermKind.OBJECT_PROPERTY), c)])


def link_then_class() -> QueryAst:
    """``?a p ?b . ?c instance_of ?b``: ?b is bound to the instance ``Top``."""
    a, b, c = VARIABLES
    return QueryAst(["?a", "?b"], [
        TriplePattern(a, TermId("p", TermKind.OBJECT_PROPERTY), b),
        TriplePattern(c, TermId("instance_of", TermKind.OBJECT_PROPERTY), b)],
        [], [TriplePattern(b, TermId("q", TermKind.OBJECT_PROPERTY), a)], Semantics.CLOSED_WORLD)


@settings(max_examples=300, deadline=None)
@given(stores(shared_facts, SHARED), queries())
@example(shared_name_store(), class_then_link())
@example(shared_name_store(), link_then_class())
def test_answers_keep_kinds_apart_and_come_sorted_by_their_texts(store, ast):
    result = evaluate(ast, store)
    got = [tuple(answer_key(row[v]) for v in ast.select_vars) for row in result.rows]
    assert set(got) == reference_evaluate(ast, store)
    answers = [[rendered(row[v]) for v in ast.select_vars] for row in result.rows]
    assert answers == sorted(answers)
    assert len(got) == len(set(got)) == len(set(map(tuple, answers)))
    assert result.to_csv() == reference_csv(ast.select_vars, answers)
    assert result.to_json() == reference_json(ast.select_vars, answers)
