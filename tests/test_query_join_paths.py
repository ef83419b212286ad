"""Differential test of the query evaluator on stores large enough for both
join paths.

``evaluate`` joins a pattern that shares variables with the rows either by
probing an index once per row or by hashing the pattern's candidates, and
applies a negation the same two ways; which one depends on how the row count
compares with the candidate count.  The stores of ``test_query_differential``
hold at most 16 facts, too few candidates to outnumber the rows five times
over, so its examples probe little more than typings with a variable class.  Here stores of 30 to 60 facts over eight
instances must get the same answers as the nested-loop reference, and across
the examples every join path and every negation path must have run ten times
at least.  Half the examples anchor the first pattern at one of the store's
links, so that few rows meet many candidates and the probe paths run.
"""

from collections import Counter
from contextlib import contextmanager
from typing import Optional

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from satkg import InstanceStore, Literal, Semantics, TermId, TermKind, Variable, evaluate
from satkg import query
from satkg.query import NumericFilter, QueryAst, TriplePattern

from test_query_differential import (
    CLASSES,
    ONT,
    VALUES,
    VARIABLES,
    answer_key,
    patterns,
    reference_evaluate,
)

INSTANCES = tuple(f"i{n}" for n in range(8))

facts = st.one_of(
    st.sampled_from([(s, "instance_of", c) for s in INSTANCES for c in CLASSES]),
    st.sampled_from([(s, p, o) for s in INSTANCES for p in ("p", "q") for o in INSTANCES]),
    st.sampled_from([(s, p, Literal(v)) for s in INSTANCES for p in ("v", "w") for v in VALUES]),
)


@st.composite
def larger_stores(draw) -> InstanceStore:
    store = InstanceStore(ONT)
    for name in INSTANCES:
        store.add_instance(name)
    for subject, predicate, obj in draw(st.lists(facts, min_size=30, max_size=60)):
        store.assert_fact(subject, predicate, obj)
    return store


def sharing(draw, pattern: TriplePattern, seen: set) -> TriplePattern:
    """``pattern``, its subject replaced by a variable of ``seen`` (by ``?a``
    while ``seen`` is empty) when it shares none with them."""
    if pattern.variables() & seen or pattern.variables() and not seen:
        return pattern
    subject = Variable(draw(st.sampled_from(sorted(seen or {"?a"}))))
    return TriplePattern(subject, pattern.predicate, pattern.object)


@st.composite
def joined_queries(draw, first: Optional[TriplePattern] = None) -> QueryAst:
    """Up to three patterns and two negations, each sharing a variable with
    the patterns before it, so that every join after the first is keyed and
    the reference's written-order loops stay small.  ``first``, when given,
    takes the place of the first two drawn patterns, and one negation at
    least follows."""
    seen: set = set()
    positive: list = []
    drawn = draw(st.lists(patterns(), min_size=1, max_size=3))
    if first is not None:
        drawn[:2] = [first]
    for pattern in drawn:
        positive.append(sharing(draw, pattern, seen))
        seen = set().union(*(p.variables() for p in positive))
    negations = [sharing(draw, n, seen)
                 for n in draw(st.lists(patterns(), min_size=first is not None, max_size=2))]
    select = draw(st.lists(st.sampled_from(sorted(seen)), min_size=1, unique=True))
    filters = draw(st.lists(st.builds(
        NumericFilter, st.sampled_from(sorted(seen)), st.sampled_from(("<", "<=", "=", ">=", ">")),
        st.sampled_from(VALUES)), max_size=1))
    semantics = Semantics.CLOSED_WORLD if negations else draw(st.sampled_from(Semantics))
    return QueryAst(select, positive, filters, negations, semantics)


@st.composite
def anchored_cases(draw) -> tuple:
    """A store and a query whose first pattern, such as ``i0 p ?a``, takes
    one of the store's links from a constant subject: its few rows then meet
    many candidates, so later patterns and negations take the probe path."""
    store = draw(larger_stores())
    links = [a for a in store.assertions() if a.predicate.name in ("p", "q")]
    assume(links)
    link = draw(st.sampled_from(links))
    first = TriplePattern(link.subject, link.predicate, draw(st.sampled_from(VARIABLES)))
    return store, draw(joined_queries(first))


def probe_store() -> InstanceStore:
    """``i0 p i1``, ``i0 p i2`` and twelve ``q`` links, none from ``i2``: two
    rows against many candidates."""
    store = InstanceStore(ONT)
    for name in INSTANCES:
        store.add_instance(name)
    for target in ("i1", "i2"):
        store.assert_fact("i0", "p", target)
    for source, target in ("13", "34", "45", "56", "67", "35", "46", "57", "63", "74", "64", "73"):
        store.assert_fact(f"i{source}", "q", f"i{target}")
    return store


def probe_query(negated: bool) -> QueryAst:
    """``i0 p ?a`` joined with, or without, ``?a q ?b``."""
    a, b = Variable("?a"), Variable("?b")
    first = TriplePattern(TermId("i0", TermKind.INSTANCE), TermId("p", TermKind.OBJECT_PROPERTY), a)
    linked = TriplePattern(a, TermId("q", TermKind.OBJECT_PROPERTY), b)
    if negated:
        return QueryAst(["?a"], [first], [], [linked], Semantics.CLOSED_WORLD)
    return QueryAst(["?a", "?b"], [first, linked])


@contextmanager
def recorded_paths(paths: Counter):
    """Count ("join" or "negation", "probe" or "hash") in ``paths`` for each
    pattern joined with rows that bind one of its variables.  The probe path
    passes a row's value for such a variable to ``_pairs``; the hash path
    reads the candidates with every variable free."""
    join, pairs = query._join, query._pairs
    calls: list = []

    def recording_pairs(store, pattern, subject, obj, same):
        calls[-1].append((subject, obj))
        return pairs(store, pattern, subject, obj, same)

    def recording_join(store, pattern, slots, rows, size, negated=False):
        terms = (pattern.subject, pattern.object)
        keyed = [isinstance(t, Variable) and t.name in slots for t in terms]
        calls.append([])
        try:
            return join(store, pattern, slots, rows, size, negated)
        finally:
            made = calls.pop()
            if any(keyed) and rows:
                probed = any(value is not None and key
                             for call in made for value, key in zip(call, keyed))
                paths["negation" if negated else "join", "probe" if probed else "hash"] += 1

    query._join, query._pairs = recording_join, recording_pairs
    try:
        yield
    finally:
        query._join, query._pairs = join, pairs


def test_both_join_paths_match_the_nested_loop_reference():
    paths: Counter = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(st.tuples(larger_stores(), joined_queries()), anchored_cases()))
    @example((probe_store(), probe_query(negated=False)))
    @example((probe_store(), probe_query(negated=True)))
    def check(case):
        store, ast = case
        with recorded_paths(paths):
            rows = evaluate(ast, store).rows
        got = [tuple(answer_key(row[v]) for v in ast.select_vars) for row in rows]
        assert len(got) == len(set(got))
        assert set(got) == reference_evaluate(ast, store)

    check()
    assert set(paths) == {("join", "probe"), ("join", "hash"),
                          ("negation", "probe"), ("negation", "hash")}, paths
    assert min(paths.values()) >= 10, paths
