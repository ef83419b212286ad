import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from datetime import date
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given
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
    instance_term,
)
from satkg.errors import (
    CycleDetected,
    DuplicateTerm,
    FunctionalViolation,
    InvalidTermName,
    RestrictionViolation,
    SatkgError,
    TypeMismatch,
    UnknownParent,
    UnknownTerm,
)

SRC = Path(__file__).resolve().parent.parent / "src"


# ------------------------------------------------------------------- TermId

def test_schema_term_charset_is_strict():
    TermId("Nearly_Circular_Orbit", TermKind.CLASS)
    with pytest.raises(ValueError):
        TermId("Nearly Circular", TermKind.CLASS)
    with pytest.raises(ValueError):
        TermId("AAUSat-4", TermKind.CLASS)
    with pytest.raises(ValueError):
        TermId("", TermKind.CLASS)


def test_instance_names_allow_catalog_characters():
    # Catalog data contains hyphens, dots and parentheses; whitespace never.
    TermId("AAUSat-4", TermKind.INSTANCE)
    TermId("Soyuz_2.1a", TermKind.INSTANCE)
    TermId("Beidou-3_M1_(C19)", TermKind.INSTANCE)
    with pytest.raises(ValueError):
        TermId("Halo Explorer", TermKind.INSTANCE)
    with pytest.raises(ValueError):
        TermId("", TermKind.INSTANCE)


# ----------------------------------------------------------------- Ontology

def small_taxonomy() -> Ontology:
    ont = Ontology()
    ont.define_class("Orbit")
    ont.define_class("Nearly_Circular_Orbit", ["Orbit"])
    ont.define_class("GEO_Orbit", ["Nearly_Circular_Orbit"])
    return ont


def test_define_class_requires_existing_parents():
    ont = Ontology()
    ont.define_class("Orbit")
    with pytest.raises(UnknownParent):
        ont.define_class("LEO_Orbit", ["No_Such_Class"])
    with pytest.raises(DuplicateTerm):
        ont.define_class("Orbit")


def test_a_class_and_a_property_may_not_share_a_name():
    ont = Ontology()
    ont.define_class("Orbit")
    ont.define_object_property("has_Orbit", [], [])
    with pytest.raises(DuplicateTerm):
        ont.define_object_property("Orbit", [], [])
    with pytest.raises(DuplicateTerm):
        ont.define_class("has_Orbit")


def test_two_cycle_is_rejected():
    ont = Ontology()
    ont.define_class("B")
    ont.define_class("A", ["B"])
    with pytest.raises(CycleDetected):
        ont.add_parent("B", "A")
    with pytest.raises(CycleDetected):
        ont.add_parent("A", "A")


def test_subsumption_is_reflexive_and_transitive():
    ont = small_taxonomy()
    assert ont.is_subclass_of("Nearly_Circular_Orbit", "Orbit")
    assert ont.is_subclass_of("Orbit", "Orbit")
    assert ont.is_subclass_of("GEO_Orbit", "Orbit")
    # derived by brute-force reachability: there is no upward path
    assert not ont.is_subclass_of("Orbit", "Nearly_Circular_Orbit")
    with pytest.raises(UnknownTerm):
        ont.is_subclass_of("Orbit", "Missing")


def test_ancestors_nearest_first():
    ont = small_taxonomy()
    assert ont.ancestors("GEO_Orbit") == ["Nearly_Circular_Orbit", "Orbit"]
    assert ont.ancestors("Orbit") == []


def test_ancestors_multi_parent_is_deterministic():
    ont = Ontology()
    ont.define_class("Zeta")
    ont.define_class("Alpha")
    ont.define_class("Child", ["Zeta", "Alpha"])
    assert ont.ancestors("Child") == ["Alpha", "Zeta"]


def test_subclasses_of_includes_self():
    ont = small_taxonomy()
    assert ont.subclasses_of("Orbit") == {"Orbit", "Nearly_Circular_Orbit", "GEO_Orbit"}
    assert ont.subclasses_of("GEO_Orbit") == {"GEO_Orbit"}


def test_cached_closure_follows_every_mutation():
    from satkg import merge_ontologies

    ont = small_taxonomy()
    store = InstanceStore(ont)
    store.add_instance("o1")
    store.assert_fact("o1", "instance_of", "GEO_Orbit")
    # look up before each mutation, then check the next lookup sees it
    assert ont.subclasses_of("Orbit") == {"Orbit", "Nearly_Circular_Orbit", "GEO_Orbit"}
    ont.define_class("Molniya_Orbit", ["Orbit"])
    assert "Molniya_Orbit" in ont.subclasses_of("Orbit")
    assert ont.ancestors("Molniya_Orbit") == ["Orbit"]

    ont.define_class("Path")
    assert not ont.is_subclass_of("GEO_Orbit", "Path")
    assert "Path" not in store.all_types_of("o1")
    ont.add_parent("Orbit", "Path")
    assert ont.is_subclass_of("GEO_Orbit", "Path")
    assert ont.ancestors("GEO_Orbit") == ["Nearly_Circular_Orbit", "Orbit", "Path"]
    assert "Path" in store.all_types_of("o1")
    assert "GEO_Orbit" in ont.subclasses_of("Path")
    with pytest.raises(CycleDetected):
        ont.add_parent("Path", "GEO_Orbit")
    assert not ont.is_subclass_of("Path", "GEO_Orbit")

    assert not ont.has_class("Route")
    ont.define_alias("Route", "Path")
    assert ont.subclasses_of("Route") == ont.subclasses_of("Path")
    assert ont.is_subclass_of("GEO_Orbit", "Route")

    # a copy's edits do not reach the original
    dup = ont.copy()
    dup.define_class("Tundra_Orbit", ["Orbit"])
    assert "Tundra_Orbit" in dup.subclasses_of("Path")
    assert "Tundra_Orbit" not in ont.subclasses_of("Path")

    extra = Ontology()
    extra.define_class("Thing")
    extra.define_class("Path", ["Thing"])
    merged = merge_ontologies(ont, extra)
    assert merged.is_subclass_of("GEO_Orbit", "Thing")
    assert not ont.has_class("Thing")
    assert ont.ancestors("GEO_Orbit") == ["Nearly_Circular_Orbit", "Orbit", "Path"]


def test_alias_resolution():
    ont = small_taxonomy()
    ont.define_alias("Trajectory", "Orbit")
    assert ont.has_class("Trajectory")
    assert ont.cls("Trajectory").name == "Orbit"
    with pytest.raises(DuplicateTerm):
        ont.define_alias("Orbit", "GEO_Orbit")


# -------------------------------------------------------------------- store

def eccentricity_ontology() -> Ontology:
    ont = Ontology()
    ont.define_class("Artificial_Satellite")
    ont.define_class("Owner")
    ont.define_object_property("has_Owner", ["Artificial_Satellite"], ["Owner"])
    ont.define_data_property(
        "has_Orbital_Eccentricity_value",
        ["Artificial_Satellite"],
        DatatypeSpec(
            "decimal",
            None,
            NumericRestriction(lower=Decimal(0), upper=Decimal(1), warn_at_upper=True),
        ),
    )
    ont.define_data_property(
        "has_NORAD_number", ["Artificial_Satellite"], DatatypeSpec("string"), functional=True
    )
    ont.define_data_property(
        "has_Perigee_value", ["Artificial_Satellite"], DatatypeSpec("decimal", "km")
    )
    return ont


def make_store() -> InstanceStore:
    store = InstanceStore(eccentricity_ontology())
    store.add_instance("AAUSat-4")
    return store


def test_assert_stores_valid_literal():
    store = make_store()
    assert store.assert_fact("AAUSat-4", "has_Orbital_Eccentricity_value", Decimal("0.02"))
    assert store.assertion_count == 1


def test_assert_is_idempotent():
    store = make_store()
    a = Assertion(
        instance_term("AAUSat-4"),
        TermId("has_Orbital_Eccentricity_value", TermKind.DATA_PROPERTY),
        Literal(Decimal("0.02")),
    )
    assert store.add(a) is True
    assert store.add(a) is False
    assert store.assertion_count == 1


def test_assert_rejects_out_of_range_literal():
    store = make_store()
    with pytest.raises(RestrictionViolation):
        store.assert_fact("AAUSat-4", "has_Orbital_Eccentricity_value", Decimal("1.2"))


def test_boundary_value_is_accepted_with_warning():
    store = make_store()
    assert store.assert_fact("AAUSat-4", "has_Orbital_Eccentricity_value", Decimal("1"))
    assert len(store.warnings) == 1
    assert "boundary" in store.warnings[0]


def test_assert_rejects_literal_for_object_property():
    store = make_store()
    with pytest.raises(TypeMismatch):
        store.add(
            Assertion(
                instance_term("AAUSat-4"),
                TermId("has_Owner", TermKind.OBJECT_PROPERTY),
                Literal(Decimal("0.02")),
            )
        )


def test_assert_rejects_unknown_terms():
    store = make_store()
    with pytest.raises(UnknownTerm):
        store.assert_fact("AAUSat-4", "has_Bogus", Decimal("1"))
    with pytest.raises(UnknownTerm):
        store.add(
            Assertion(
                instance_term("Ghost"),
                TermId("has_Owner", TermKind.OBJECT_PROPERTY),
                instance_term("AAUSat-4"),
            )
        )
    with pytest.raises(UnknownTerm):
        store.assert_fact("AAUSat-4", "instance_of", "No_Such_Class")


def test_functional_property_allows_one_value():
    store = make_store()
    store.assert_fact("AAUSat-4", "has_NORAD_number", "41460")
    # repeating the same value is a no-op, a different value is an error
    assert store.assert_fact("AAUSat-4", "has_NORAD_number", "41460") is False
    with pytest.raises(FunctionalViolation):
        store.assert_fact("AAUSat-4", "has_NORAD_number", "99999")


def test_literal_unit_normalization_and_mismatch():
    store = make_store()
    store.assert_fact("AAUSat-4", "has_Perigee_value", Literal(Decimal("450")))
    stored = next(store.assertions())
    assert stored.object.unit == "km"
    with pytest.raises(TypeMismatch):
        store.assert_fact("AAUSat-4", "has_Perigee_value", Literal(Decimal("1"), unit="miles"))


def test_typing_is_tracked():
    store = make_store()
    store.assert_fact("AAUSat-4", "instance_of", "Artificial_Satellite")
    assert store.types_of("AAUSat-4") == ["Artificial_Satellite"]
    assert "Artificial_Satellite" in store.all_types_of("AAUSat-4")


def test_datatype_coercion():
    spec = DatatypeSpec("decimal")
    assert spec.coerce(3) == Decimal(3)
    with pytest.raises(TypeMismatch):
        spec.coerce("not a number")
    with pytest.raises(TypeMismatch):
        DatatypeSpec("integer").coerce(Decimal("1.5"))
    with pytest.raises(TypeMismatch):
        DatatypeSpec("date").coerce("2016-04-25")
    assert DatatypeSpec("date").coerce(date(2016, 4, 25)) == date(2016, 4, 25)


def test_restriction_validation():
    with pytest.raises(ValueError):
        NumericRestriction(lower=Decimal(2), upper=Decimal(1))
    with pytest.raises(ValueError):
        DatatypeSpec("string", None, NumericRestriction(lower=Decimal(0)))


@given(
    st.decimals(min_value=-2, max_value=3, allow_nan=False, allow_infinity=False, places=3)
)
def test_interval_membership_matches_comparison(value):
    r = NumericRestriction(lower=Decimal(0), upper=Decimal(1))
    assert r.allows(value) == (Decimal(0) <= value <= Decimal(1))


def test_store_equality_ignores_assertion_order():
    a = make_store()
    b = make_store()
    a.assert_fact("AAUSat-4", "has_NORAD_number", "41460")
    a.assert_fact("AAUSat-4", "instance_of", "Artificial_Satellite")
    b.assert_fact("AAUSat-4", "instance_of", "Artificial_Satellite")
    b.assert_fact("AAUSat-4", "has_NORAD_number", "41460")
    assert a == b


# -------------------------------------------------------------- add_classes

def test_add_classes_takes_classes_in_any_order():
    ont = Ontology()
    ont.add_classes(
        {"GEO_Orbit": ["Nearly_Circular_Orbit"], "Nearly_Circular_Orbit": ["Orbit"], "Orbit": []},
        {"Orbit": "closed path"},
    )
    expected = small_taxonomy()
    assert ont.classes["Orbit"].definition == "closed path"
    assert {n: c.parents for n, c in ont.classes.items()} == {
        n: c.parents for n, c in expected.classes.items()
    }
    assert ont.ancestors("GEO_Orbit") == ["Nearly_Circular_Orbit", "Orbit"]


def test_add_classes_rejects_cycles_and_unknown_parents():
    with pytest.raises(CycleDetected):
        Ontology().add_classes({"A": ["B"], "B": ["A"]})
    with pytest.raises(UnknownParent):
        Ontology().add_classes({"A": ["Missing"]})


def test_re_adding_an_edge_changes_no_answer_and_a_new_edge_is_seen():
    ont = small_taxonomy()

    def answers():
        return {
            name: (ont.ancestors(name), ont.subclasses_of(name),
                   {other for other in ont.classes if ont.is_subclass_of(name, other)})
            for name in ont.classes
        }

    before = answers()
    ont.add_parent("GEO_Orbit", "Nearly_Circular_Orbit")
    assert answers() == before
    ont.add_classes({"Nearly_Circular_Orbit": ["Orbit"], "Orbit": []})
    assert answers() == before
    ont.define_class("Path")
    assert not ont.is_subclass_of("GEO_Orbit", "Path")
    ont.add_parent("Orbit", "Path")
    assert ont.is_subclass_of("GEO_Orbit", "Path")


def test_invalid_term_name_is_a_satkg_error():
    with pytest.raises(InvalidTermName) as err:
        TermId("a-b", TermKind.CLASS)
    assert isinstance(err.value, SatkgError) and isinstance(err.value, ValueError)


def test_a_literal_carries_only_its_propertys_unit():
    store = make_store()
    # a unit on a property that declares none was stored, then exported bare
    with pytest.raises(TypeMismatch):
        store.assert_fact("AAUSat-4", "has_Orbital_Eccentricity_value",
                          Literal(Decimal("0.5"), unit="km"))
    assert store.assert_fact("AAUSat-4", "has_Perigee_value", Literal(Decimal("450"), unit="km"))
    assert next(store.assertions()).object == Literal(Decimal("450"), "km")


@pytest.mark.parametrize(
    "value", [Decimal("NaN"), Decimal("sNaN"), Decimal("-Infinity"), Decimal("1E+101"),
              Decimal("-1E+101"), Decimal("1E-101"), Decimal("0E-101"), 10**101],
    ids=["nan", "snan", "-inf", "1E+101", "-1E+101", "1E-101", "0E-101", "int-10**101"],
)
def test_a_store_holds_only_finite_decimals_within_the_exponent_bound(value):
    store = make_store()
    with pytest.raises(TypeMismatch):
        store.assert_fact("AAUSat-4", "has_Perigee_value", value)
    with pytest.raises(TypeMismatch):
        DatatypeSpec("decimal").coerce(value)
    assert store.assertion_count == 0


def test_decimals_at_the_exponent_bound_are_stored():
    store = make_store()
    for value in (Decimal("9.9E+100"), Decimal("-1E+100"), Decimal("1E-100")):
        assert store.assert_fact("AAUSat-4", "has_Perigee_value", value)


@pytest.mark.parametrize("bound", [Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity"),
                                   Decimal("1E+101"), Decimal("1E-101")],
                         ids=["nan", "snan", "inf", "1E+101", "1E-101"])
def test_restriction_bounds_obey_the_exponent_bound(bound):
    with pytest.raises(SatkgError):
        NumericRestriction(lower=bound)
    with pytest.raises(SatkgError):
        NumericRestriction(upper=bound)


@pytest.mark.parametrize("value", [10**101, -(10**101), 10**5000],
                         ids=["10**101", "-10**101", "10**5000"])
def test_a_store_holds_only_integers_within_the_exponent_bound(value):
    ont = Ontology()
    ont.define_class("A")
    ont.define_data_property("n", ["A"], DatatypeSpec("integer"))
    store = InstanceStore(ont)
    store.add_instance("x")
    with pytest.raises(TypeMismatch):
        store.assert_fact("x", "n", value)
    with pytest.raises(TypeMismatch):
        DatatypeSpec("integer").coerce(value)
    assert store.assertion_count == 0


def test_integers_at_the_exponent_bound_are_stored():
    for value in (10**101 - 1, -(10**101 - 1)):
        assert DatatypeSpec("integer").coerce(value) == value


# ------------------------------------------------------------ canonical terms

def test_definitions_and_the_store_hand_out_one_term_each():
    ont = Ontology()
    ont.define_class("A")
    ont.define_object_property("p", ["A"], ["A"])
    ont.define_alias("q", "p")
    assert ont.cls("A").id is ont.cls("A").id
    assert ont.prop("p").id is ont.prop("p").id
    assert ont.prop("q").id is ont.prop("p").id
    store = InstanceStore(ont)
    x = store.add_instance("x")
    assert store.add_instance("x") is x
    assert store.instance("x") is x
    store.assert_fact("x", "instance_of", "A")
    store.assert_fact("x", "q", "x")
    typing, link = store.assertions()
    assert typing.object is ont.cls("A").id
    assert link.predicate is ont.prop("p").id
    assert link.subject is x and link.object is x


def test_equal_terms_hash_alike_in_every_construction_and_run():
    for kind in TermKind:
        a, b = TermId("x", kind), TermId("x", kind)
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash(("x", kind))  # the dataclass hash, so set orders stay as they were
    # a hash fixed by the string hash seed, not by object identity, gives
    # one set iteration order per seed, from run to run
    code = ("from satkg import TermId, TermKind\n"
            "print([t.name for t in {TermId(str(i), TermKind.INSTANCE) for i in range(64)}])")
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join([str(SRC)] + sys.path)}
    orders = {subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout for _ in range(2)}
    assert len(orders) == 1


def test_a_term_pickled_under_one_hash_seed_is_found_under_another():
    def python(code, seed, stdin=b""):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([str(SRC)] + sys.path)}
        return subprocess.run([sys.executable, "-c", "import pickle, sys\n" + code], env=env,
                              input=stdin, capture_output=True, check=True).stdout

    dumped = python("from satkg import TermId, TermKind\n"
                    "sys.stdout.buffer.write(pickle.dumps(TermId('x', TermKind.CLASS)))", "1")
    found = python("from satkg import TermId, TermKind\n"
                   "print(pickle.loads(sys.stdin.buffer.read()) in {TermId('x', TermKind.CLASS)})",
                   "2", dumped)
    assert found.strip() == b"True"


# ---------------------------------------------------------------- value types

def value_types():
    """One term of each kind, a literal with and one without a unit, and an
    assertion of each object shape."""
    terms = [TermId("x", kind) for kind in TermKind]
    sat, cls = TermId("AAUSat-4", TermKind.INSTANCE), TermId("Orbit", TermKind.CLASS)
    link = TermId("has_Orbit", TermKind.OBJECT_PROPERTY)
    value = TermId("has_Perigee_value", TermKind.DATA_PROPERTY)
    literals = [Literal(Decimal("1.5"), "km"), Literal("AAUSat 4")]
    assertions = [Assertion(sat, INSTANCE_OF, cls), Assertion(sat, link, sat),
                  Assertion(sat, value, literals[0])]
    return terms + literals + assertions


def test_value_types_are_equal_and_hash_by_their_fields():
    for a, b in zip(value_types(), value_types()):
        assert a is not b and a == b
        fields = tuple(getattr(a, f.name) for f in dataclasses.fields(a) if f.compare)
        assert hash(a) == hash(b) == hash(fields)
    first, *others = value_types()
    assert all(first != other for other in others)
    assert Literal(1) != Literal(1, "km") and Literal(1) != Literal(2)
    sat = TermId("s", TermKind.INSTANCE)
    assert Assertion(sat, INSTANCE_OF, sat) != Assertion(sat, INSTANCE_OF, Literal("s"))


def test_value_types_keep_their_fields_and_repr():
    assert [f.name for f in dataclasses.fields(TermId)] == ["name", "kind", "_hash"]
    assert [f.name for f in dataclasses.fields(Literal)] == ["value", "unit"]
    assert [f.name for f in dataclasses.fields(Assertion)] == ["subject", "predicate", "object"]
    term = TermId("AAUSat-4", TermKind.INSTANCE)
    assert repr(term) == "TermId(name='AAUSat-4', kind=<TermKind.INSTANCE: 'instance'>)"
    assert repr(Literal(Decimal("1.5"), "km")) == "Literal(value=Decimal('1.5'), unit='km')"
    assert repr(Literal(date(2016, 4, 25))) == "Literal(value=datetime.date(2016, 4, 25), unit=None)"
    assert repr(Assertion(term, INSTANCE_OF, Literal(3))) == (
        "Assertion(subject=TermId(name='AAUSat-4', kind=<TermKind.INSTANCE: 'instance'>), "
        "predicate=TermId(name='instance_of', kind=<TermKind.OBJECT_PROPERTY: "
        "'object_property'>), object=Literal(value=3, unit=None))")
    assert Literal(Decimal("1.5")).unit is None and Literal(value="a").unit is None
    assert Assertion(subject=term, predicate=INSTANCE_OF, object=term).object is term


def test_value_types_are_frozen_and_pickle_round_trip():
    for value in value_types():
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, f.name)
        assert not hasattr(value, "__dict__")
        again = pickle.loads(pickle.dumps(value))
        assert again == value and hash(again) == hash(value) and repr(again) == repr(value)


def test_value_types_refuse_any_attribute_as_a_frozen_instance():
    # any name, a field (_hash) or not
    for value in value_types():
        for name in ("extra", "__weakref__", "_hash"):
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
                setattr(value, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
                delattr(value, name)
        assert value == copy.copy(value) == copy.deepcopy(value)


@pytest.mark.parametrize("kind", list(TermKind))
def test_a_bad_name_of_each_kind_names_the_name_and_the_kind(kind):
    for name in ("", "two words", "tab\there"):
        with pytest.raises(InvalidTermName) as err:
            TermId(name, kind)
        assert str(err.value) == f"invalid term name {name!r} for kind {kind.value}"
    if kind is not TermKind.INSTANCE:
        with pytest.raises(InvalidTermName) as err:
            TermId("AAUSat-4", kind)
        assert str(err.value) == f"invalid term name 'AAUSat-4' for kind {kind.value}"
