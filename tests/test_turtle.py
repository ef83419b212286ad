import random

import pytest

from satkg import (
    InstanceStore,
    ModelingMode,
    Namespaces,
    Ontology,
    build_ucsso,
    export_dot,
    export_turtle,
    import_turtle,
)
from satkg.errors import CycleDetected, TurtleParseError, UnknownParent, UnsupportedConstruct
from satkg.ingest import ingest, parse_csv

from conftest import FIXTURES

HEADER = (FIXTURES / "ucs_sample.csv").read_text(encoding="utf-8").splitlines()[0]


def test_empty_store_exports_prefix_block_only():
    text = export_turtle(InstanceStore(Ontology()))
    lines = [line for line in text.splitlines() if line]
    assert len(lines) == 7
    assert all(line.startswith("@prefix") for line in lines)
    assert import_turtle(text) == InstanceStore(Ontology())


def test_golden_one_satellite_export():
    # golden generated once from the AAUSat-4 fixture row, reviewed, frozen
    row = (
        "AAUSat-4,,Denmark,Denmark,Aalborg University,Civil,Earth Observation,,"
        "LEO,Sun-Synchronous,,450,600,0.02,98.2,95.4,0.8,,,4/25/2016,,"
        "Aalborg University,Denmark,Guiana Space Center,Soyuz 2.1a,2016-025E,41460,"
    )
    store, _ = ingest(
        parse_csv(HEADER + "\n" + row + "\n"),
        ModelingMode.DIRECT,
        build_ucsso(ModelingMode.DIRECT),
    )
    golden = (FIXTURES / "one_satellite.ttl").read_text(encoding="utf-8")
    assert export_turtle(store) == golden


def test_fixture_round_trip_both_modes(direct_store, reified_store):
    for store in (direct_store, reified_store):
        again = import_turtle(export_turtle(store))
        assert again == store
        # and the round trip is byte-stable
        assert export_turtle(again) == export_turtle(store)


def test_ucsso_export_contains_subclass_triple(reified_store):
    text = export_turtle(reified_store)
    assert "t:Nearly_Circular_Orbit a owl:Class ;\n    rdfs:subClassOf t:Orbit ." in text


def test_export_is_insertion_order_independent(direct_store):
    # same assertions in a different order serialize identically
    shuffled = InstanceStore(direct_store.ontology)
    assertions = list(direct_store.assertions())
    random.Random(7).shuffle(assertions)
    for a in assertions:
        shuffled.add_instance(a.subject.name)
        if hasattr(a.object, "kind") and a.object.kind.value == "instance":
            shuffled.add_instance(a.object.name)
        shuffled.add(a)
    assert export_turtle(shuffled) == export_turtle(direct_store)


def test_unusual_instance_names_round_trip():
    ont = build_ucsso(ModelingMode.DIRECT)
    store = InstanceStore(ont)
    for name in ("Beidou-3_M1_(C19)", "Soyuz_2.1a", "Sat/42", "名前"):
        store.add_instance(name)
        store.assert_fact(name, "instance_of", "Artificial_Satellite")
    assert import_turtle(export_turtle(store)) == store


def test_custom_namespaces_round_trip(direct_store):
    ns = Namespaces(
        terms="http://example.org/cat/terms#",
        instances="http://example.org/cat/inst#",
        vocab="http://example.org/cat/vocab#",
    )
    text = export_turtle(direct_store, ns)
    assert "http://example.org/cat/terms#" in text
    assert import_turtle(text) == direct_store


def test_blank_node_is_unsupported():
    text = "@prefix t: <https://satkg.example/terms#> .\nt:Orbit a [ ] .\n"
    with pytest.raises(UnsupportedConstruct):
        import_turtle(text)


def test_base_directive_is_unsupported():
    with pytest.raises(UnsupportedConstruct):
        import_turtle("@base <http://example.org/> .\n")


def test_collection_is_unsupported():
    text = "@prefix t: <https://satkg.example/terms#> .\nt:A t:b ( t:C ) .\n"
    with pytest.raises(UnsupportedConstruct):
        import_turtle(text)


def test_parse_error_reports_line():
    text = '@prefix t: <https://satkg.example/terms#> .\nt:Orbit a "unterminated\n'
    with pytest.raises(TurtleParseError) as err:
        import_turtle(text)
    assert err.value.line == 2


def test_unknown_prefix_is_an_error():
    with pytest.raises(TurtleParseError):
        import_turtle("x:A x:b x:C .\n")


def test_empty_file_imports_empty_store():
    store = import_turtle("")
    assert store.assertion_count == 0
    assert store.instances == []


def test_comments_are_skipped():
    text = (
        "# a comment\n"
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "@prefix t: <https://satkg.example/terms#> .\n"
        "t:Orbit a owl:Class .  # trailing comment\n"
    )
    store = import_turtle(text)
    assert store.ontology.has_class("Orbit")


# ----------------------------------------------------------------- DOT view

def test_dot_export_structure():
    ont = build_ucsso(ModelingMode.DIRECT)
    text = export_dot(ont)
    lines = text.splitlines()
    node_count = sum(1 for l in lines if l.endswith('";') and "->" not in l)
    edge_count = sum(1 for l in lines if "->" in l)
    assert node_count == len(ont.classes)
    assert edge_count == sum(len(c.parents) for c in ont.classes.values())
    assert '"Nearly_Circular_Orbit" -> "Orbit";' in text


def test_dot_single_class():
    ont = Ontology()
    ont.define_class("Thing")
    text = export_dot(ont)
    assert '"Thing";' in text
    assert "->" not in text


def test_dot_reference_vocabulary_has_at_least_nine_nodes():
    from satkg import build_ssao_core

    text = export_dot(build_ssao_core())
    nodes = [l for l in text.splitlines() if l.endswith('";') and "->" not in l]
    assert len(nodes) >= 9


def test_class_definitions_round_trip():
    ont = Ontology()
    ont.define_class("Orbit", definition='Path of a body, "closed" here')
    store = InstanceStore(ont)
    again = import_turtle(export_turtle(store))
    assert again.ontology.classes["Orbit"].definition == 'Path of a body, "closed" here'


def test_class_blocks_in_reverse_order_import_equal(reified_store):
    text = export_turtle(reified_store)
    blocks = text.split("\n\n")
    at = [i for i, block in enumerate(blocks) if " a owl:Class" in block]
    reordered = list(blocks)
    for i, j in zip(at, reversed(at)):
        reordered[i] = blocks[j]
    reversed_text = "\n\n".join(reordered)
    assert reversed_text != text
    assert import_turtle(reversed_text) == reified_store


SCHEMA_PREFIXES = (
    "@prefix t: <https://satkg.example/terms#> .\n"
    "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
)


@pytest.mark.parametrize(
    "body, error",
    [
        ("t:A a owl:Class ; rdfs:subClassOf t:B .\nt:B a owl:Class ; rdfs:subClassOf t:A .\n",
         CycleDetected),
        ("t:A a owl:Class ; rdfs:subClassOf t:A .\n", CycleDetected),
        ("t:A a owl:Class ; rdfs:subClassOf t:Undeclared .\n", UnknownParent),
    ],
    ids=["two-cycle", "self-loop", "undeclared-parent"],
)
def test_bad_subclass_graph_is_a_satkg_error(body, error):
    with pytest.raises(error):
        import_turtle(SCHEMA_PREFIXES + body)
