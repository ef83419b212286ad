import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satkg import (
    MappingKind,
    ModelingMode,
    TermKind,
    apply_overlay,
    build_mapping,
    build_ssao_core,
    build_ucsso,
    parse_overlay,
)
from satkg.errors import OverlayError, SatkgError
from satkg.schema import UNMAPPED_CLASSES

from conftest import mangled


def test_builders_are_deterministic():
    for mode in ModelingMode:
        assert build_ucsso(mode) == build_ucsso(mode)
    assert build_ssao_core() == build_ssao_core()


def test_reified_mode_declares_parameter_links():
    ont = build_ucsso(ModelingMode.REIFIED)
    prop = ont.prop("has_Orbital_Eccentricity")
    assert prop.domain == {"Artificial_Satellite", "Orbit"}
    assert prop.range_classes == {"Orbital_Eccentricity"}
    value = ont.prop("has_Orbital_Eccentricity_value")
    assert value.domain == {"Orbital_Eccentricity"}


def test_direct_mode_shortcuts_parameter_links():
    ont = build_ucsso(ModelingMode.DIRECT)
    assert not ont.has_property("has_Orbital_Eccentricity")
    value = ont.prop("has_Orbital_Eccentricity_value")
    assert value.domain == {"Artificial_Satellite", "Orbit"}


def test_user_has_exactly_six_subclasses():
    for mode in ModelingMode:
        ont = build_ucsso(mode)
        subclasses = ont.subclasses_of("User") - {"User"}
        assert subclasses == {
            "Civil_User",
            "Academic_User",
            "Amateur_User",
            "Commercial_User",
            "Government_User",
            "Military_User",
        }


def test_classes_identical_across_modes_and_properties_nest():
    reified = build_ucsso(ModelingMode.REIFIED)
    direct = build_ucsso(ModelingMode.DIRECT)
    assert set(reified.classes) == set(direct.classes)
    assert set(direct.properties) < set(reified.properties)
    dropped = set(reified.properties) - set(direct.properties)
    # only the reified object links disappear in direct mode
    assert dropped == {
        "has_Orbital_Property",
        "has_Orbital_Eccentricity",
        "has_Orbital_Inclination",
        "has_Orbital_Period",
        "has_Perigee",
        "has_Apogee",
        "has_Longitude_Of_GEO",
    }


def test_purpose_leaves_sit_under_purpose():
    ont = build_ucsso(ModelingMode.DIRECT)
    assert ont.ancestors("Communications_Purpose") == ["Purpose"]
    assert ont.ancestors("GEO_Orbit") == ["Nearly_Circular_Orbit", "Orbit"]


def test_purpose_function_alias():
    ont = build_ucsso(ModelingMode.DIRECT)
    assert ont.cls("Function").name == "Purpose"
    assert ont.prop("has_Function").name == "has_Purpose"


def test_registry_relations_point_from_registrant_to_satellite():
    ont = build_ucsso(ModelingMode.REIFIED)
    country_rel = ont.prop("is_registered_Country_in_UN_Register_of_Space_Objects_for")
    assert country_rel.domain == {"Country"}
    assert country_rel.range_classes == {"Artificial_Satellite"}
    org_rel = ont.prop("is_registered_Organization_in_UN_Register_of_Space_Objects_for")
    assert org_rel.domain == {"Organization"}


def test_functional_flags_cover_single_valued_fields():
    ont = build_ucsso(ModelingMode.DIRECT)
    for name in (
        "has_NORAD_number",
        "has_COSPAR_number",
        "has_Date_of_Launch",
        "has_Launch_Mass",
        "has_Dry_Mass",
        "has_Power_value",
    ):
        assert ont.prop(name).functional, name
    assert not ont.prop("has_Expected_Lifetime").functional


def test_ssao_core_arrangement():
    ont = build_ssao_core()
    assert ont.is_subclass_of("Satellite", "Space_Object")
    assert ont.is_subclass_of("Satellite", "Spacecraft")
    assert ont.is_subclass_of("Orbital_Element", "Orbital_Property")
    assert not ont.is_subclass_of("Central_Body", "Spacecraft")
    # the vocabulary names at least these nine classes
    named = {
        "Satellite",
        "Spacecraft",
        "Space_Artifact",
        "Space_Object",
        "Orbital_Element",
        "Orbital_Property",
        "Central_Body",
        "Orbital_Path",
        "Spacecraft_Maneuver",
    }
    assert named <= set(ont.classes)
    assert len(ont.classes) >= 9


def test_mapping_entries_resolve_and_are_unique():
    ucsso = build_ucsso(ModelingMode.REIFIED)
    ssao = build_ssao_core()
    entries = build_mapping()
    locals_seen = [e.local.name for e in entries]
    assert len(locals_seen) == len(set(locals_seen))
    for e in entries:
        assert ucsso.has_class(e.local.name)
        assert ssao.has_class(e.reference.name)
        assert e.local.kind is TermKind.CLASS


def test_mapping_key_links():
    by_local = {e.local.name: e for e in build_mapping()}
    sat = by_local["Artificial_Satellite"]
    assert sat.reference.name == "Satellite"
    assert sat.kind is MappingKind.EQUIVALENT
    orbit = by_local["Orbit"]
    assert orbit.reference.name == "Orbital_Path"
    assert orbit.kind is MappingKind.SUBSUMED_BY
    ecc = by_local["Orbital_Eccentricity"]
    assert ecc.reference.name == "Orbital_Element"
    assert ecc.kind is MappingKind.SUBSUMED_BY


def test_unmapped_classes_are_the_declared_remainder():
    ucsso = build_ucsso(ModelingMode.REIFIED)
    mapped = {entry.local.name for entry in build_mapping()}
    assert set(ucsso.classes) - mapped == set(UNMAPPED_CLASSES)


def test_overlay_grows_a_taxonomy():
    text = "# extra orbit leaves\nclass Drift_Orbit < Orbit\n\nclass Graveyard_Orbit < GEO_Orbit\n"
    entries = parse_overlay(text)
    assert entries == [("Drift_Orbit", "Orbit"), ("Graveyard_Orbit", "GEO_Orbit")]
    ont = build_ucsso(ModelingMode.DIRECT)
    apply_overlay(ont, entries)
    assert ont.is_subclass_of("Graveyard_Orbit", "Orbit")


def test_overlay_rejects_malformed_lines():
    with pytest.raises(OverlayError):
        parse_overlay("class Drift_Orbit Orbit\n")


def test_overlay_rejects_invalid_class_names_with_the_line():
    with pytest.raises(OverlayError, match="line 2: .*'a-b'"):
        parse_overlay("class Drift_Orbit < Orbit\nclass a-b < Orbit\n")


_VALID_OVERLAY = (
    "# Lagrange-point orbits\n"
    "class Lagrange_Orbit < Orbit\n"
    "\n"
    "class Halo_Orbit < Lagrange_Orbit\n"
    "class Halo_Orbit < Elliptical_Orbit\n"
)
_OVERLAY_BASE = build_ucsso(ModelingMode.DIRECT)


@settings(max_examples=300, deadline=None)
@given(mangled(_VALID_OVERLAY) | st.text())
def test_any_overlay_text_applies_or_raises_a_satkg_error(text):
    ont = _OVERLAY_BASE.copy()
    try:
        apply_overlay(ont, parse_overlay(text))
    except SatkgError:
        pass


# New names, existing classes, a property, a class alias, a property alias
# and a missing parent, on either side of the edge.
_OVERLAY_NAMES = ("New_A", "New_B", "Orbit", "GEO_Orbit", "has_Orbit", "Function",
                  "has_Function", "Nope")
_overlay_lines = st.tuples(st.sampled_from(_OVERLAY_NAMES), st.sampled_from(_OVERLAY_NAMES)).map(
    lambda edge: "class {} < {}".format(*edge)
) | st.sampled_from(["", "   ", "# a comment", "class New_A", "class a-b < Orbit",
                     "klass New_A < Orbit"])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(ModelingMode)), st.lists(_overlay_lines, max_size=8))
def test_every_overlay_error_names_a_line_of_the_text(mode, lines):
    try:
        apply_overlay(build_ucsso(mode), parse_overlay("\n".join(lines)))
    except SatkgError as exc:
        located = re.match(r"line (\d+): ", str(exc))
        assert located and 1 <= int(located[1]) <= len(lines), str(exc)
        line = lines[int(located[1]) - 1].strip()
        assert line and not line.startswith("#"), (str(exc), lines)
