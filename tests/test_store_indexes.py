"""The store's by-predicate and by-class indexes, built on read.

``InstanceStore.write`` keeps only the fact table and the subject index.
``facts_with_predicate`` and ``instances_of``, and the ``predicate_pairs`` and
``typed_instances`` views over them, read two indexes, each built whole on the
first read after a write.  Drawn sequences interleave write batches, which
hold refused facts (a functional repeat, an unknown object, an unknown class),
and single ``add``s with these reads; every read must equal, in order, the
index recomputed from ``facts()`` at that point.  Threads making the first
read of both indexes of a fresh copy get the answers of one thread, and the
same lists.

Counts the indexes each store builds (``InstanceStore._index`` finding none):
a store that is only exported builds neither, ingest's batches and an import
build neither, and ``classify_orbits`` followed by ``validate`` builds each at
most once per store.
"""

import sys
import threading
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from satkg import (
    INSTANCE_OF,
    Assertion,
    InstanceStore,
    ModelingMode,
    TermId,
    TermKind,
    build_ucsso,
    class_term,
    classify_orbits,
    export_turtle,
    import_turtle,
    ingest,
    instance_term,
    validate,
)
from satkg.errors import SatkgError

from test_complexity import classified_catalog
from test_store_batch import CLASSES, PREDICATES, batches, _facts
from test_store_differential import NAMES, ONT

# ------------------------------------------------------------ the reference


def by_predicate(store: InstanceStore, name: str) -> list:
    name = store.ontology.canonical_name(name)
    return [fact for fact in store.facts() if fact[1] == name]


def by_class(store: InstanceStore, cls: str) -> list:
    cls = store.ontology.canonical_name(cls)
    return [store.instance(s) for s, p, o in store.facts() if p == "instance_of" and o == cls]


def reference_read(store: InstanceStore, read: str, name: str) -> list:
    if read == "facts_with_predicate":
        return by_predicate(store, name)
    if read == "instances_of":
        return by_class(store, name)
    if read == "predicate_pairs":
        return [(store.instance(s), store.instance(o) if type(o) is str else o)
                for s, _, o in by_predicate(store, name)]
    # typed_instances: each class below ``name`` in the order its view reads them, each
    # instance once
    classes = store.ontology.subclasses_of(name)
    return list({t.name: t for c in classes for t in by_class(store, c)}.values())


# ------------------------------------------------------------------ inputs

PROPERTIES = tuple(p for p in PREDICATES if p != "instance_of")  # pairs read no typing
KNOWN_CLASSES = tuple(c for c in CLASSES if ONT.has_class(c))
reads = st.one_of(
    st.tuples(st.just("facts_with_predicate"), st.sampled_from(PREDICATES)),
    st.tuples(st.just("instances_of"), st.sampled_from(CLASSES)),
    st.tuples(st.just("predicate_pairs"), st.sampled_from(PROPERTIES)),
    st.tuples(st.just("typed_instances"), st.sampled_from(KNOWN_CLASSES)),
)
steps = st.lists(st.one_of(
    st.tuples(st.just("write"), batches()),
    st.tuples(st.just("add"), _facts),
    st.tuples(st.just("read"), reads),
), max_size=30)


def add(store: InstanceStore, fact) -> None:
    """One fact through ``add``, refused or not: a string object names a class
    for ``instance_of`` and an instance otherwise."""
    s, p, o = fact
    if isinstance(o, str):
        o = class_term(o) if p == INSTANCE_OF.name else instance_term(o)
    try:
        store.add(Assertion(instance_term(s), TermId(p, TermKind.OBJECT_PROPERTY), o))
    except SatkgError:
        pass


REFUSED = [("a", "has_orbit", "b"), ("a", "has_orbit", "c"),  # a functional repeat
           ("a", "linked", "z"), ("b", "instance_of", "Missing")]  # unknown object and class
ALL_READS = [("read", (read, name)) for read, names in (
    ("facts_with_predicate", PREDICATES), ("instances_of", CLASSES),
    ("predicate_pairs", PROPERTIES), ("typed_instances", KNOWN_CLASSES)) for name in names]


@settings(max_examples=400, deadline=None)
@given(steps)
@example([("write", [("a", "instance_of", "Sat"), ("b", "instance_of", "Orbit")]), *ALL_READS,
          ("write", REFUSED), *ALL_READS, ("add", ("c", "instance_of", "LEO")),
          ("add", ("a", "has_orbit", "a")), *ALL_READS])
def test_index_reads_follow_writes_and_adds(steps):
    store = InstanceStore(ONT)
    for name in NAMES:
        store.add_instance(name)
    for kind, arg in steps:
        if kind == "write":
            store.write(arg)
        elif kind == "add":
            add(store, arg)
        else:
            read, name = arg
            assert getattr(store, read)(name) == reference_read(store, read, name), arg
    for _kind, (read, name) in ALL_READS:  # and after the last step
        assert getattr(store, read)(name) == reference_read(store, read, name)
    assert store.copy() == store


THREADS = 4
READ_PREDICATES = ("has_Orbit", "has_Orbital_Eccentricity_value", "has_Operator", "instance_of")
READ_CLASSES = ("Artificial_Satellite", "Nearly_Circular_Orbit", "Operator", "Perigee")


def test_threads_making_the_first_read_of_the_indexes_get_the_same_lists():
    store = classified_catalog(400)  # builds long enough for the threads to meet inside
    first = store.copy()  # each copy starts without either index
    want = ([first.facts_with_predicate(p) for p in READ_PREDICATES],
            [first.instances_of(c) for c in READ_CLASSES])
    assert all(want[0]) and all(want[1])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch often, inside the indexes' first builds
    try:
        for _round in range(5):
            fresh = store.copy()
            barrier = threading.Barrier(THREADS)
            got: list = []

            def run() -> None:
                barrier.wait(timeout=60)
                got.append(([fresh.facts_with_predicate(p) for p in READ_PREDICATES],
                            [fresh.instances_of(c) for c in READ_CLASSES]))

            threads = [threading.Thread(target=run) for _ in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert got == [want] * THREADS
            for lists in got:  # every thread got the published index's lists
                assert all(a is b for a, b in zip(lists[0] + lists[1], got[0][0] + got[0][1]))
    finally:
        sys.setswitchinterval(interval)


# ------------------------------------------------------------------ counts


def builds(monkeypatch, run) -> Counter:
    """(store, 1 for by-predicate or 2 for by-class) -> how often ``run()`` built it."""
    built: Counter = Counter()
    index = InstanceStore._index

    def counted(self, position):
        if self._views.get(position) is None:
            built[id(self), position] += 1
        return index(self, position)

    with monkeypatch.context() as patch:
        patch.setattr(InstanceStore, "_index", counted)
        run()
    return built


def test_an_exported_store_builds_neither_index(monkeypatch, fixture_records):
    mode = ModelingMode.REIFIED
    stores = []
    ontology = build_ucsso(mode)
    built = builds(monkeypatch, lambda: stores.append(ingest(fixture_records, mode, ontology)[0]))
    assert built == Counter()  # ingest's batches
    store = stores[0]
    built = builds(monkeypatch, lambda: stores.append(import_turtle(export_turtle(store))))
    assert built == Counter()  # an export and an import
    assert builds(monkeypatch, lambda: export_turtle(stores[1])) == Counter()
    assert 1 not in stores[1]._views and 2 not in stores[1]._views
    assert stores[1].instances_of("Operator") == by_class(stores[1], "Operator") != []  # when read


def test_classify_then_validate_builds_each_index_at_most_once_per_store(monkeypatch,
                                                                         reified_store):
    store = reified_store.copy()
    built = builds(monkeypatch, lambda: validate(classify_orbits(store, ModelingMode.REIFIED)))
    assert built and max(built.values()) == 1, built
    assert (id(store), 1) in built  # classify reads the input store's predicates
