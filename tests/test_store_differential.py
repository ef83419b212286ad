"""Differential test of the store's write path.

``ReferenceStore`` is an independent model: it keeps the earlier ``add``,
which checked each assertion and then built a normalised copy of it, over a
plain list of the stored assertions, and answers each public read by
scanning that list.  ``InstanceStore`` routes ``add`` and ``assert_fact``
through one checked batch ``write`` and keeps (subject, predicate, object)
name tuples with an index per read.  Random sequences of valid and invalid
writes (unknown subjects and objects, wrong object kinds, class and
predicate aliases, unit mismatches, out-of-range and boundary values,
functional repeats and duplicates, fresh and canonical terms) must give the
same return values and exceptions, and after every write the same answer
from every public read: ``assertions()``, ``facts()``, the ``assertions_*``
and ``facts_*`` reads and ``types_of``, ``all_types_of`` and ``instances_of``
of every name, ``instances`` and ``warnings``.  The reads between writes
catch an index a read builds and a later write leaves stale.  A ``copy()``
reads as its original, and a write to it leaves the original's reads as
they were.
"""

from datetime import date
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from satkg import (
    INSTANCE_OF,
    Assertion,
    DatatypeSpec,
    InstanceStore,
    Literal,
    NumericRestriction,
    Ontology,
    TermId,
    TermKind,
    class_term,
    instance_term,
)
from satkg.errors import (
    FunctionalViolation,
    RestrictionViolation,
    SatkgError,
    TypeMismatch,
    UnknownTerm,
)

CLASS, INSTANCE = TermKind.CLASS, TermKind.INSTANCE
OBJECT, DATA = TermKind.OBJECT_PROPERTY, TermKind.DATA_PROPERTY


class ReferenceStore:
    """The write path as it was before the checked batch ``write``, over its
    own model: the stored assertions in one list, each read a scan of it."""

    def __init__(self, ontology):
        self.ontology = ontology
        self._terms = {}  # instance name -> its term, in the order made
        self._stored = []  # each assertion once, in the order stored
        self.warnings = []

    def add_instance(self, name):
        return self._terms.setdefault(name, instance_term(name))

    def instance(self, name):
        if name not in self._terms:
            raise UnknownTerm(f"instance {name!r} not in store")
        return self._terms[name]

    @property
    def instances(self):
        return list(self._terms.values())

    def add(self, assertion):
        subject = assertion.subject
        if subject.kind is not TermKind.INSTANCE or subject.name not in self._terms:
            raise UnknownTerm(f"assertion subject {subject.name!r} is not a store instance")

        predicate = assertion.predicate
        obj = assertion.object
        functional = False
        if predicate.name == INSTANCE_OF.name:
            predicate = INSTANCE_OF
            if not isinstance(obj, TermId) or obj.kind is not TermKind.CLASS:
                raise TypeMismatch("instance_of expects a class object")
            obj = self.ontology.cls(obj.name).id
        else:
            pdef = self.ontology.prop(predicate.name)
            predicate, functional = pdef.id, pdef.functional
            if pdef.kind is TermKind.OBJECT_PROPERTY:
                if not isinstance(obj, TermId) or obj.kind is not TermKind.INSTANCE:
                    raise TypeMismatch(
                        f"object property {pdef.name!r} expects an instance object, got {obj!r}"
                    )
                if obj.name not in self._terms:
                    raise UnknownTerm(f"assertion object {obj.name!r} is not a store instance")
            else:
                if not isinstance(obj, Literal):
                    raise TypeMismatch(
                        f"data property {pdef.name!r} expects a literal object, got {obj!r}"
                    )
                obj = self._reference_literal(pdef, subject, obj)

        normalized = Assertion(subject, predicate, obj)
        if normalized in self._stored:
            return False
        if functional and any(a.predicate.name == predicate.name
                               for a in self.assertions_about(subject.name)):
            raise FunctionalViolation(
                f"{predicate.name!r} is functional; {subject.name!r} already has a value"
            )
        self._stored.append(normalized)
        return True

    def assert_fact(self, subject, predicate, obj):
        sterm = self.instance(subject) if isinstance(subject, str) else subject
        pname = predicate if isinstance(predicate, str) else predicate.name
        pterm = INSTANCE_OF if pname == INSTANCE_OF.name else self.ontology.prop(pname).id
        if isinstance(obj, (TermId, Literal)):
            oterm = obj
        elif pterm.kind is TermKind.DATA_PROPERTY:
            oterm = Literal(obj)
        elif isinstance(obj, str):
            oterm = class_term(obj) if pterm is INSTANCE_OF else self.instance(obj)
        else:
            raise TypeMismatch(f"{pname!r} expects a class or instance name, not {obj!r}")
        return self.add(Assertion(sterm, pterm, oterm))

    # the public reads, each a scan of the stored list

    def assertions(self):
        return iter(self._stored)

    def assertions_about(self, subject):
        return [a for a in self._stored if a.subject.name == subject]

    def assertions_with_predicate(self, name):
        return [a for a in self._stored if a.predicate.name == self.ontology.canonical_name(name)]

    def assertions_with_object(self, name):
        return [a for a in self._stored if isinstance(a.object, TermId)
                and a.object.kind is TermKind.INSTANCE and a.object.name == name]

    def facts(self):
        return iter(map(_fact, self._stored))

    def facts_about(self, subject):
        return list(map(_fact, self.assertions_about(subject)))

    def facts_with_predicate(self, name):
        return list(map(_fact, self.assertions_with_predicate(name)))

    def facts_with_object(self, name):
        return list(map(_fact, self.assertions_with_object(name)))

    def types_of(self, name):
        return [a.object.name for a in self.assertions_about(name) if a.predicate == INSTANCE_OF]

    def all_types_of(self, name):
        return {c for t in self.types_of(name) for c in (t, *self.ontology.ancestors(t))}

    def instances_of(self, cls):
        return [a.subject for a in self.assertions_with_predicate(INSTANCE_OF.name)
                if a.object.name == self.ontology.canonical_name(cls)]

    def __eq__(self, other):
        return (self.ontology == other.ontology
                and {t.name for t in self.instances} == {t.name for t in other.instances}
                and set(self.assertions()) == set(other.assertions()))

    def _reference_literal(self, pdef, subject, literal):
        spec = pdef.datatype
        value = spec.coerce(literal.value)
        if literal.unit not in (None, spec.unit):
            raise TypeMismatch(
                f"unit {literal.unit!r} does not match declared unit {spec.unit!r} of {pdef.name!r}"
            )
        if spec.restriction is not None:
            if not spec.restriction.allows(value):
                raise RestrictionViolation(
                    f"value {value} of {pdef.name!r} on {subject.name!r} outside permitted range"
                )
            if spec.restriction.warns(value):
                self.warnings.append(
                    f"{subject.name}: {pdef.name} = {value} sits on the permitted boundary"
                )
        return Literal(value, spec.unit)


def _ontology() -> Ontology:
    ont = Ontology()
    ont.add_classes({"Thing": [], "Sat": ["Thing"], "Orbit": ["Thing"], "LEO": ["Orbit"]})
    ont.define_alias("Satellite", "Sat")
    ont.define_object_property("has_orbit", ["Sat"], ["Orbit"], functional=True)
    ont.define_object_property("linked", [], [])
    ont.define_alias("orbit_of", "has_orbit")
    ont.define_data_property("ecc", ["Orbit"], DatatypeSpec(
        "decimal", None, NumericRestriction(Decimal(0), Decimal(1), warn_at_upper=True)),
        functional=True)
    ont.define_alias("eccentricity", "ecc")
    ont.define_data_property("height", ["Orbit"], DatatypeSpec(
        "decimal", "km", NumericRestriction(lower=Decimal(0), lower_inclusive=False)))
    ont.define_data_property("count", [], DatatypeSpec(
        "integer", None, NumericRestriction(upper=Decimal(10), upper_inclusive=False)))
    ont.define_data_property("label", [], DatatypeSpec("string"))
    ont.define_data_property("launched", [], DatatypeSpec("date"), functional=True)
    return ont


ONT = _ontology()
NAMES = ("a", "b", "c")

_subjects = st.sampled_from(
    [instance_term(n) for n in NAMES + ("z",)] + [class_term("Sat")]
) | st.sampled_from(NAMES).map(lambda n: ("interned", n))
_predicates = st.sampled_from(
    [INSTANCE_OF, TermId("instance_of", DATA), ONT.properties["has_orbit"].id,
     ONT.properties["ecc"].id, ONT.properties["height"].id]
    + [TermId(n, k) for n in ("has_orbit", "linked", "orbit_of", "ecc", "eccentricity",
                              "height", "count", "label", "launched", "missing")
       for k in (OBJECT, DATA)]
)
_values = st.sampled_from(
    [Decimal("0"), Decimal("0.5"), Decimal("1"), Decimal("1.00"), Decimal("-1"), Decimal("2"),
     Decimal("1E+101"), 0, 1, 9, 10, 11, 10**101, True, 0.5, "x", "", date(2020, 1, 2)]
)
_objects = st.one_of(
    st.sampled_from([class_term(n) for n in ("Thing", "Sat", "Satellite", "LEO", "Missing")]
                    + [ONT.classes["Orbit"].id, ONT.classes["LEO"].id]),
    st.sampled_from([instance_term(n) for n in NAMES + ("z",)]),
    st.sampled_from(NAMES).map(lambda n: ("interned", n)),
    st.builds(Literal, _values, st.sampled_from([None, "km", "mi"])),
)
_writes = st.tuples(st.sampled_from(["add", "insert", "assert_fact"]),
                    _subjects, _predicates, _objects)


def _stores():
    stores = ReferenceStore(ONT), InstanceStore(ONT)
    for store in stores:
        for name in NAMES:
            store.add_instance(name)
    return stores


def _term(store, term):
    """A term drawn as ("interned", name) is the store's own instance term."""
    return store.instance(term[1]) if isinstance(term, tuple) else term


def _write(store, method, subject, predicate, obj):
    subject, obj = _term(store, subject), _term(store, obj)
    try:
        if method == "add":
            return store.add(Assertion(subject, predicate, obj))
        if method == "assert_fact":
            plain = obj.name if isinstance(obj, TermId) and obj.kind is not INSTANCE else obj
            return store.assert_fact(subject, predicate.name, plain)
        return store.add(Assertion(subject, predicate, obj))
    except SatkgError as exc:
        return type(exc), str(exc)


def _fact(assertion):
    """An assertion in the format ``InstanceStore.write`` takes."""
    obj = assertion.object
    return assertion.subject.name, assertion.predicate.name, obj.name if isinstance(obj, TermId) else obj


#: every name a read may be given: instances, classes, properties and aliases, known or not
READ_NAMES = NAMES + ("z", "instance_of", "missing", "Missing", *ONT.classes, *ONT.properties,
                      *ONT.aliases)


def _state(store):
    """Everything the store's public reads return, copied, terms and values compared
    by name, kind and value; ``facts()`` must be ``assertions()`` in write's format."""
    assertions = list(store.assertions())
    assert list(store.facts()) == list(map(_fact, assertions))
    reads = {name: tuple(map(list, (
                 store.assertions_about(name), store.assertions_with_predicate(name),
                 store.assertions_with_object(name), store.facts_about(name),
                 store.facts_with_predicate(name), store.facts_with_object(name),
                 store.types_of(name), store.instances_of(name)))) + (store.all_types_of(name),)
             for name in READ_NAMES}
    return [str(a) for a in assertions], assertions, list(store.warnings), store.instances, reads


@settings(max_examples=500, deadline=None)
@given(st.lists(_writes, max_size=40))
def test_insert_matches_the_reference_add(writes):
    reference, store = _stores()
    for write in writes:
        assert _write(store, *write) == _write(reference, *write), write
        assert _state(store) == _state(reference), write
    assert _state(store) == _state(reference)
    assert store == reference


@settings(max_examples=200, deadline=None)
@given(st.lists(_writes, max_size=40), _writes)
def test_a_copy_reads_as_its_original_and_writes_apart_from_it(writes, last):
    reference, store = _stores()
    for write in writes:
        assert _write(store, *write) == _write(reference, *write), write
    before = _state(store)
    dup = store.copy()
    assert _state(dup) == before
    assert _write(dup, *last) == _write(reference, *last), last
    assert _state(dup) == _state(reference)
    assert _state(store) == before
