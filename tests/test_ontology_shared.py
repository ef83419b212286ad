"""What an ontology derives from its definitions, shared with its copies.

``Ontology.copy()`` hands the copy the same ``_shared`` dict: the names
``InstanceStore.write`` resolved and the declarations ``export_turtle``
rendered.  Each change (``define_class``, ``add_parent``, the property and
alias definitions, and through them ``apply_overlay``; ``merge_ontologies``)
gives the changed ontology a new one.  Copies of ``build_ucsso(mode)`` and of
an imported ontology are copied and changed in a drawn order, and after each
step every copy, in a drawn order, is exported and written under.  Each
export must equal the export of an ontology rebuilt from the same
definitions, which has derived nothing, and a write must refuse with
``UnknownTerm`` exactly the class and property names the ontology it writes
under does not define, among all names any copy defines.  A merge that adds
only a property, which no method call records, is checked on its own too.

The schema builders build once per process and hand out copies: changing one
result changes neither the next nor a fresh build.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satkg import (
    DatatypeSpec,
    InstanceStore,
    ModelingMode,
    Ontology,
    TermKind,
    apply_overlay,
    build_mapping,
    build_ssao_core,
    build_ucsso,
    export_turtle,
    import_turtle,
    merge_ontologies,
    parse_csv,
)
from satkg.errors import SatkgError, UnknownTerm

from conftest import FIXTURES, ingest_fixture

RECORDS = parse_csv((FIXTURES / "ucs_sample.csv").read_bytes())
EXPORTS = {mode: export_turtle(ingest_fixture(RECORDS, mode)[0]) for mode in ModelingMode}
NEW = ("X", "Y", "Space_Object")  # names copies may define, each as another kind of term
CHANGES = ("define_class", "add_parent", "define_object_property", "define_data_property",
           "define_alias", "apply_overlay", "merge_ontologies")


def rebuilt(ont: Ontology) -> Ontology:
    """A new ontology with the same definitions, made through the public methods."""
    fresh = Ontology()
    fresh.add_classes({name: c.parents for name, c in ont.classes.items()},
                      {name: c.definition for name, c in ont.classes.items()})
    for name, p in ont.properties.items():
        if p.kind is TermKind.OBJECT_PROPERTY:
            fresh.define_object_property(name, p.domain, p.range_classes, p.functional)
        else:
            fresh.define_data_property(name, p.domain, p.datatype, p.functional)
    for alias, target in ont.aliases.items():
        fresh.define_alias(alias, target)
    assert fresh == ont
    return fresh


def change(data, ont: Ontology, how: str, copies: list) -> None:
    """Apply one drawn change to ``ont``; a merge adds its result to ``copies``."""
    name, classes = data.draw(st.sampled_from(NEW)), sorted(ont.classes)
    some = st.lists(st.sampled_from(classes), max_size=2)
    if how == "define_class":
        ont.define_class(name, data.draw(some))
    elif how == "add_parent":
        ont.add_parent(data.draw(st.sampled_from(classes)), data.draw(st.sampled_from(classes)))
    elif how == "define_object_property":
        ont.define_object_property(name, data.draw(some), data.draw(some), data.draw(st.booleans()))
    elif how == "define_data_property":
        spec = DatatypeSpec(data.draw(st.sampled_from(["decimal", "string"])))
        ont.define_data_property(name, data.draw(some), spec)
    elif how == "define_alias":
        ont.define_alias(name, data.draw(st.sampled_from(classes + sorted(ont.properties))))
    elif how == "apply_overlay":
        apply_overlay(ont, [(name, data.draw(st.sampled_from(classes)))])
    else:
        other = data.draw(st.sampled_from(copies + [build_ssao_core()]))
        copies.append(merge_ontologies(ont, other))


def check_write(ont: Ontology, names: list) -> None:
    """Type one instance by each name and link it by each: refused with UnknownTerm
    exactly where ``ont`` does not define the name as a class, or as a property."""
    store = InstanceStore(ont)
    for name in ("s", "o"):
        store.add_instance(name)
    facts = [("s", "instance_of", name) for name in names] + [("s", name, "o") for name in names]
    refused = {position: type(exc) for position, exc in store.write(facts)[0]}
    for position, (_s, p, o) in enumerate(facts):
        known = ont.has_class(o) if p == "instance_of" else ont.has_property(p)
        assert (refused.get(position) is UnknownTerm) is not known, facts[position]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(ModelingMode)), st.booleans(), st.data())
def test_copies_share_derived_data_only_until_one_changes(mode, imported, data):
    base = import_turtle(EXPORTS[mode]).ontology if imported else build_ucsso(mode)
    copies = [base, base.copy()]
    for _ in range(data.draw(st.integers(1, 8))):
        ont = data.draw(st.sampled_from(copies))
        step = data.draw(st.sampled_from(("copy",) + CHANGES))
        if step == "copy":
            copies.append(ont.copy())
        else:
            try:
                change(data, ont, step, copies)
            except SatkgError:
                pass  # a name taken, a cycle: the ontology is as it was
        names = sorted({n for o in copies for n in (*o.classes, *o.properties, *o.aliases, *NEW)})
        for ont in data.draw(st.permutations(copies)):
            assert export_turtle(InstanceStore(ont)) == export_turtle(InstanceStore(rebuilt(ont)))
            check_write(ont, names)


def test_a_merge_that_adds_only_a_property_derives_its_own_data():
    base = build_ucsso(ModelingMode.DIRECT)
    extra = base.copy()
    extra.define_object_property("has_Relay", ["Artificial_Satellite"], ["Artificial_Satellite"])
    export_turtle(InstanceStore(base))  # the base derives its own text and resolutions
    check_write(base, ["has_Relay"])
    merged = merge_ontologies(base, extra)
    assert export_turtle(InstanceStore(merged)) == export_turtle(InstanceStore(rebuilt(merged)))
    check_write(merged, ["has_Relay"])
    check_write(base, ["has_Relay"])


@pytest.mark.parametrize("mode", list(ModelingMode))
def test_the_builders_hand_out_independent_copies(mode):
    first, fresh = build_ucsso(mode), build_ucsso.__wrapped__(mode)  # the uncached build
    apply_overlay(first, [("Drift_Orbit", "Orbit")])
    again = build_ucsso(mode)
    assert again == fresh != first and again is not build_ucsso(mode)
    reference = build_ssao_core()
    reference.define_class("Comet", ["Space_Object"])
    assert build_ssao_core() == build_ssao_core.__wrapped__() != reference
    mapping = build_mapping()
    mapping.append(mapping[0])
    assert build_mapping() == build_mapping.__wrapped__() != mapping
    assert build_mapping() is not build_mapping()
