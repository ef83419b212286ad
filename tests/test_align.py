import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satkg import (
    InstanceStore,
    ModelingMode,
    apply_mapping,
    build_bridged_ontology,
    build_mapping,
    build_ssao_core,
    build_ucsso,
    classify_orbits,
    evaluate,
    ingest,
    merge_ontologies,
    Ontology,
    parse_csv,
    parse_query,
)
from satkg.core import TermId, TermKind
from satkg.errors import DanglingMapping, DuplicateTerm
from satkg.schema import MappingEntry, MappingKind

from conftest import FIXTURES
from test_complexity import repeated_catalog


def test_apply_mapping_adds_reference_typing(direct_store):
    mapped = apply_mapping(direct_store, build_mapping())
    for term in direct_store.instances:
        if "Artificial_Satellite" in direct_store.all_types_of(term.name):
            assert "Satellite" in mapped.types_of(term.name), term.name
    # the merged ontology places the reference classes in scope
    assert mapped.ontology.has_class("Space_Object")
    assert mapped.ontology.is_subclass_of("Satellite", "Space_Object")


def test_apply_mapping_is_monotone(direct_store):
    mapped = apply_mapping(direct_store, build_mapping())
    original = set(direct_store.assertions())
    assert original <= set(mapped.assertions())
    added = set(mapped.assertions()) - original
    assert all(a.predicate.name == "instance_of" for a in added)


def test_empty_mapping_changes_nothing(direct_store):
    mapped = apply_mapping(direct_store, [])
    assert set(mapped.assertions()) == set(direct_store.assertions())


def test_dangling_mapping_is_rejected(direct_store):
    bogus = [
        MappingEntry(
            TermId("No_Such_Class", TermKind.CLASS),
            TermId("Satellite", TermKind.CLASS),
            MappingKind.EQUIVALENT,
        )
    ]
    with pytest.raises(DanglingMapping):
        apply_mapping(direct_store, bogus)
    bogus_ref = [
        MappingEntry(
            TermId("Artificial_Satellite", TermKind.CLASS),
            TermId("No_Such_Reference", TermKind.CLASS),
            MappingKind.EQUIVALENT,
        )
    ]
    with pytest.raises(DanglingMapping):
        apply_mapping(direct_store, bogus_ref)


def test_reference_query_matches_local_query(direct_store):
    mapped = apply_mapping(direct_store, build_mapping())
    local = parse_query("select ?s where { ?s instance_of Artificial_Satellite }", mapped.ontology)
    reference = parse_query("select ?s where { ?s instance_of Satellite }", mapped.ontology)
    local_rows = {r["?s"].name for r in evaluate(local, mapped).rows}
    ref_rows = {r["?s"].name for r in evaluate(reference, mapped).rows}
    assert local_rows == ref_rows and local_rows


def test_merge_unites_parent_sets():
    merged = merge_ontologies(build_ucsso(ModelingMode.DIRECT), build_ssao_core())
    # Orbital_Property exists on both sides; the merge gains the reference parent
    assert merged.is_subclass_of("Orbital_Property", "Physical_Property")
    assert merged.is_subclass_of("Orbital_Eccentricity", "Physical_Property")
    # untouched local structure survives
    assert merged.is_subclass_of("GEO_Orbit", "Orbit")


def test_bridged_ontology_subsumes_local_terms():
    bridged = build_bridged_ontology(ModelingMode.DIRECT)
    assert bridged.is_subclass_of("Artificial_Satellite", "Satellite")
    assert bridged.is_subclass_of("Earth_Observing_Satellite", "Space_Object")
    assert bridged.is_subclass_of("Orbit", "Orbital_Path")
    assert bridged.is_subclass_of("Orbital_Eccentricity", "Orbital_Element")
    assert bridged.is_subclass_of("Launch_Vehicle", "Space_Artifact")


@pytest.mark.parametrize(
    "ont",
    [build_ucsso(ModelingMode.DIRECT), build_ucsso(ModelingMode.REIFIED), build_ssao_core()],
)
def test_merging_an_ontology_with_itself_changes_nothing(ont):
    assert merge_ontologies(ont, ont) == ont


def _ontology_with(alias, target):
    extra = Ontology()
    extra.define_class("Path")
    extra.define_object_property("has_Path", ["Path"], ["Path"])
    extra.define_alias(alias, target)
    return extra


@pytest.mark.parametrize(
    "extra",
    [
        _ontology_with("Orbit", "Path"),  # alias named like a base class
        _ontology_with("has_Orbit", "has_Path"),  # ... like a base property
        _ontology_with("Function", "Path"),  # base alias with another target
    ],
    ids=["alias-over-class", "alias-over-property", "alias-retargeted"],
)
def test_merge_rejects_an_alias_shadowing_a_base_term(extra):
    with pytest.raises(DuplicateTerm):
        merge_ontologies(build_ucsso(ModelingMode.DIRECT), extra)


@pytest.mark.parametrize("name", ["has_Function", "Orbit"])
def test_merge_rejects_a_property_named_like_a_base_alias_or_class(name):
    extra = Ontology()
    extra.define_class("Path")
    extra.define_object_property(name, ["Path"], ["Path"])
    with pytest.raises(DuplicateTerm):
        merge_ontologies(build_ucsso(ModelingMode.DIRECT), extra)


# ------------------------------------------------- apply_mapping, reference

def _mapping_by_all_types(store, entries):
    """The formulation apply_mapping had before its subclass walk: one
    closure read per (entry, instance), instances in store order."""
    result = store.copy()
    result.ontology = merge_ontologies(store.ontology, build_ssao_core())
    for entry in entries:
        for term in store.instances:
            if entry.local.name in store.all_types_of(term.name):
                result.assert_fact(term.name, "instance_of", entry.reference.name)
    return result


def _catalog_store(source, mode, fixture_csv_bytes):
    data = repeated_catalog(200) if source == "repeated-200" else fixture_csv_bytes
    store, _report = ingest(parse_csv(data), mode, build_ucsso(mode))
    return store


@pytest.mark.parametrize("classified", [False, True], ids=["loaded", "classified"])
@pytest.mark.parametrize("mode", list(ModelingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("source", ["ucs_sample", "repeated-200"])
def test_apply_mapping_matches_the_per_instance_formulation(
    source, mode, classified, fixture_csv_bytes
):
    store = _catalog_store(source, mode, fixture_csv_bytes)
    if classified:
        store = classify_orbits(store, mode)
    entries = build_mapping()
    got = apply_mapping(store, entries)
    assert list(got.assertions()) == list(_mapping_by_all_types(store, entries).assertions())
    assert got.warnings == store.warnings


def test_apply_mapping_reads_no_per_instance_type_closure(monkeypatch, reified_store):
    calls = []
    all_types_of = InstanceStore.all_types_of

    def counted(self, name):
        calls.append(name)
        return all_types_of(self, name)

    monkeypatch.setattr(InstanceStore, "all_types_of", counted)
    mapped = apply_mapping(reified_store, build_mapping())
    assert mapped.assertion_count > reified_store.assertion_count
    assert calls == []


def test_a_local_class_named_by_an_alias_maps_its_instances():
    local = Ontology()
    local.define_class("Craft")
    local.define_class("Probe", ["Craft"])
    local.define_alias("Vehicle", "Craft")
    reference = Ontology()
    reference.define_class("Spacecraft")
    store = InstanceStore(local)
    store.add_instance("p1")
    store.assert_fact("p1", "instance_of", "Probe")
    entry = MappingEntry(TermId("Vehicle", TermKind.CLASS), TermId("Spacecraft", TermKind.CLASS),
                         MappingKind.EQUIVALENT)
    assert apply_mapping(store, [entry], reference).types_of("p1") == ["Probe", "Spacecraft"]


# ------------------------------------------------- the two deployment patterns

_FIXTURE_RECORDS = parse_csv((FIXTURES / "ucs_sample.csv").read_bytes())


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(0, len(_FIXTURE_RECORDS) - 1), min_size=1),
       st.sampled_from(list(ModelingMode)))
def test_the_mapped_and_the_bridged_store_answer_alike(rows, mode):
    # term mapping: classify under the local ontology, then materialize the
    # reference typings; reference as schema: load and classify under the
    # bridged ontology. Every reference typing query answers the same on both.
    records = [_FIXTURE_RECORDS[i] for i in sorted(rows)]
    local, _report = ingest(records, mode, build_ucsso(mode))
    mapped = apply_mapping(classify_orbits(local, mode), build_mapping())
    bridged_store, _report = ingest(records, mode, build_bridged_ontology(mode))
    bridged = classify_orbits(bridged_store, mode)
    queries = ["select ?s ?c where { ?s instance_of ?c }"] + [
        f"select ?s where {{ ?s instance_of {name} }}" for name in sorted(build_ssao_core().classes)]
    for query in queries:
        answers = [evaluate(parse_query(query, store.ontology), store).to_csv()
                   for store in (mapped, bridged)]
        assert answers[0] == answers[1], query
