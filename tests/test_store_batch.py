"""The store's batch write, ``InstanceStore.write``.

A batch of (subject, predicate, object) names must store the same facts in
the same order, refuse the same facts with the same errors and warn the same
way as writing them one at a time through ``ReferenceStore``, the earlier
``add``.  The batches mix valid facts with unknown subjects and objects,
objects of the wrong kind, class and predicate aliases, unit mismatches,
out-of-range and boundary values, second functional values, and repeated
typings and other facts.

A batch resolves each distinct predicate and class name once, however many
facts name it, and a later batch over the same ontology or a copy of it
resolves none again: counts ``Ontology.prop`` and ``Ontology.cls`` calls.
"""

from collections import Counter
from datetime import date
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from satkg import INSTANCE_OF, Assertion, InstanceStore, Literal, Ontology, TermId, TermKind
from satkg import class_term, instance_term
from satkg.errors import SatkgError

from test_store_differential import NAMES, ONT, ReferenceStore, _ontology, _state

PREDICATES = ("instance_of", "has_orbit", "linked", "orbit_of", "ecc", "eccentricity", "height",
              "count", "label", "launched", "missing")
CLASSES = ("Thing", "Sat", "Satellite", "Orbit", "LEO", "Missing")
VALUES = (Decimal("0"), Decimal("0.5"), Decimal("1"), Decimal("1.00"), Decimal("-1"),
          Decimal("2"), 0, 1, 9, 10, 11, True, "x", date(2020, 1, 2))

_facts = st.tuples(
    st.sampled_from(NAMES + ("z",)),
    st.sampled_from(PREDICATES),
    st.sampled_from(CLASSES + NAMES + ("z",))
    | st.builds(Literal, st.sampled_from(VALUES), st.sampled_from([None, "km", "mi"])),
)


@st.composite
def batches(draw):
    """Facts, some of them repeated later in the batch."""
    facts = draw(st.lists(_facts, max_size=40))
    for _ in range(draw(st.integers(0, 10)) if facts else 0):
        fact = draw(st.sampled_from(facts))
        facts.insert(draw(st.integers(0, len(facts))), fact)
    return facts


def _stores(ontology=ONT):
    stores = ReferenceStore(ontology), InstanceStore(ontology)
    for store in stores:
        for name in NAMES:
            store.add_instance(name)
    return stores


def one_at_a_time(store: ReferenceStore, facts):
    """Refusals as (position, type, message) and warnings as (position,
    message) of writing each fact as its own ``Assertion``: a string object
    names a class for ``instance_of`` and an instance otherwise."""
    refused, warned = [], []
    for position, (s, p, o) in enumerate(facts):
        if isinstance(o, str):
            o = class_term(o) if p == INSTANCE_OF.name else instance_term(o)
        before = len(store.warnings)
        try:
            store.add(Assertion(instance_term(s), TermId(p, TermKind.OBJECT_PROPERTY), o))
        except SatkgError as exc:
            refused.append((position, type(exc), str(exc)))
        warned += [(position, message) for message in store.warnings[before:]]
    return refused, warned


@settings(max_examples=500, deadline=None)
@given(batches())
def test_a_batch_writes_as_the_reference_does_one_fact_at_a_time(facts):
    reference, store = _stores()
    refused, warned = store.write(facts)
    assert ([(position, type(exc), str(exc)) for position, exc in refused], warned) == \
        one_at_a_time(reference, facts)
    assert _state(store) == _state(reference)
    assert store == reference


def test_a_batch_resolves_each_distinct_predicate_and_class_once(monkeypatch):
    ontology = _ontology()  # a fresh one: other tests' writes resolve the names of ``ONT``
    _reference, store = _stores(ontology)
    facts = [(s, "instance_of", c) for s in NAMES for c in ("Sat", "Satellite", "Thing")]
    facts += [(s, "linked", o) for s in NAMES for o in NAMES] + [(s, "orbit_of", "a") for s in NAMES]
    facts += [(s, p, Literal(Decimal("0.5"))) for s in NAMES for p in ("ecc", "height")]
    calls: Counter = Counter()
    prop, cls = Ontology.prop, Ontology.cls

    def counted(read):
        def wrapper(self, name):
            calls[read.__name__, name] += 1
            return read(self, name)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(Ontology, "prop", counted(prop))
        patch.setattr(Ontology, "cls", counted(cls))
        refused, warned = store.write(facts)
        first = Counter(calls)
        calls.clear()
        again = [_stores(ontology)[1], _stores(ontology.copy())[1]]  # the same, and a copy
        assert [one.write(facts) for one in again] == [([], [])] * 2
    assert refused == [] and warned == []
    assert store.assertion_count == len(facts) - len(NAMES)  # Sat and Satellite are one class
    assert first == Counter({("cls", "Sat"): 1, ("cls", "Satellite"): 1, ("cls", "Thing"): 1,
                             ("prop", "linked"): 1, ("prop", "orbit_of"): 1, ("prop", "ecc"): 1,
                             ("prop", "height"): 1})
    assert calls == Counter()  # neither later batch resolves a name
    assert all(one == store for one in again)
