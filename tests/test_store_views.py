"""The store's read views never answer from a store or class graph they were
not built on.

``evaluate`` reads three views that ``InstanceStore`` builds on first read:
the object index, a predicate's term pairs and a class's typed instances.  On
drawn stores, drawn queries are evaluated once to build the views, then the
store or its class graph changes in one of four ways, and every query is
evaluated again.  Each answer must equal ``reference_evaluate``, which reads
no view, and a store whose copy was written must answer as before.  Threads
making the first read of the same views get the answers of one thread.
"""

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from satkg import (
    InstanceStore,
    ModelingMode,
    Semantics,
    TermId,
    classify_orbits,
    evaluate,
    parse_query,
)

from test_query_differential import (
    CLASSES,
    ONT,
    answer_key,
    facts,
    queries,
    reference_evaluate,
    stores,
)


def answers(ast, store: InstanceStore) -> set:
    rows = evaluate(ast, store).rows
    got = [tuple(answer_key(row[v]) for v in ast.select_vars) for row in rows]
    assert len(got) == len(set(got))
    return set(got)


def write(store: InstanceStore, drawn: list) -> None:
    for subject, predicate, obj in drawn:
        for name in [subject.name] + ([obj.name] if isinstance(obj, TermId) else []):
            store.add_instance(name)
        store.assert_fact(subject, predicate, obj)


edges = st.tuples(st.sampled_from(CLASSES), st.sampled_from(CLASSES))


def add_edge(ontology, edge) -> None:
    """Add ``child -> parent`` unless it closes a cycle or is a loop."""
    child, parent = edge
    if child not in ontology.subclasses_of(parent) and child not in ontology.ancestors(parent):
        ontology.add_parent(child, parent)


STEPS = ("write", "add_parent", "define_class", "swap_ontology", "copy")


@settings(max_examples=300, deadline=None)
@given(stores(), st.lists(queries(), min_size=1, max_size=4), st.sampled_from(STEPS),
       st.data())
def test_views_follow_every_write_and_class_graph_change(store, asts, step, data):
    store.ontology = ONT.copy()  # the drawn changes must not reach the shared ontology
    before = [answers(ast, store) for ast in asts]  # builds the views these queries read
    assert before == [reference_evaluate(ast, store) for ast in asts]
    read = store
    if step == "write":
        write(store, data.draw(st.lists(facts, min_size=1, max_size=4)))
    elif step == "add_parent":
        add_edge(store.ontology, data.draw(edges))
    elif step == "define_class":  # a new class placed above an existing one
        parents = data.draw(st.lists(st.sampled_from(CLASSES), unique=True, max_size=2))
        store.ontology.define_class("Middle", parents)
        add_edge(store.ontology, (data.draw(st.sampled_from(CLASSES)), "Middle"))
    elif step == "swap_ontology":
        swapped = store.ontology.copy()
        add_edge(swapped, data.draw(edges))
        store.ontology = swapped
    else:
        read = store.copy()
        write(read, data.draw(st.lists(facts, min_size=1, max_size=4)))
        assert [answers(ast, store) for ast in asts] == before
    for ast in asts:
        assert answers(ast, read) == reference_evaluate(ast, read)


THREADS = 4
#: a range, a typing over a class with subclasses, a negation hash-joined with
#: a predicate's pairs, and a join through a bound object
VIEW_QUERIES = (
    ("select ?p ?v where { ?p has_Perigee_value ?v . filter ?v < 1000 }", Semantics.OPEN_WORLD),
    ("select ?s where { ?s instance_of Orbit }", Semantics.OPEN_WORLD),
    ("select ?s where { ?s instance_of Artificial_Satellite . not { ?s has_Operator ?o } }",
     Semantics.CLOSED_WORLD),
    ("select ?s ?o where { ?s has_Orbit ?o . ?o has_Perigee ?p . ?p has_Perigee_value ?v }",
     Semantics.OPEN_WORLD),
)


def test_threads_making_the_first_read_of_the_views_get_the_same_answers(reified_store):
    store = classify_orbits(reified_store, ModelingMode.REIFIED)
    asts = [parse_query(text, store.ontology, semantics) for text, semantics in VIEW_QUERIES]
    want = [evaluate(ast, store.copy()).to_csv() for ast in asts]  # each copy starts viewless
    assert all(text.count("\n") > 1 for text in want)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch often, inside the views' first builds
    try:
        for _round in range(5):
            fresh = store.copy()
            barrier = threading.Barrier(THREADS)
            got: list = []

            def run() -> None:
                barrier.wait(timeout=60)
                got.append([evaluate(ast, fresh).to_csv() for ast in asts])

            threads = [threading.Thread(target=run) for _ in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert got == [want] * THREADS
    finally:
        sys.setswitchinterval(interval)
