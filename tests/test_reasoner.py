from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satkg import (
    InstanceStore,
    ModelingMode,
    build_ucsso,
    classify_orbits,
    export_turtle,
    import_turtle,
    materialize,
    validate,
)
from satkg.errors import ModeMismatch
from satkg.reasoner import NEARLY_CIRCULAR_MAX_ECCENTRICITY


def orbit_store(mode: ModelingMode) -> InstanceStore:
    return InstanceStore(build_ucsso(mode))


def add_orbit(store, name, eccentricity=None, orbit_class="Orbit", mode=ModelingMode.DIRECT):
    store.add_instance(name)
    store.assert_fact(name, "instance_of", orbit_class)
    if eccentricity is None:
        return
    if mode is ModelingMode.DIRECT:
        store.assert_fact(name, "has_Orbital_Eccentricity_value", Decimal(eccentricity))
    else:
        param = f"{name}_Orbital_Eccentricity"
        store.add_instance(param)
        store.assert_fact(param, "instance_of", "Orbital_Eccentricity")
        store.assert_fact(name, "has_Orbital_Eccentricity", param)
        store.assert_fact(param, "has_Orbital_Eccentricity_value", Decimal(eccentricity))


# -------------------------------------------------------------- classifying

def test_boundary_sweep_direct():
    store = orbit_store(ModelingMode.DIRECT)
    cases = {
        "o_000": ("0", "Nearly_Circular_Orbit"),
        "o_002": ("0.02", "Nearly_Circular_Orbit"),
        "o_139": ("0.139", "Nearly_Circular_Orbit"),
        "o_140": ("0.14", "Nearly_Circular_Orbit"),
        "o_141": ("0.141", "Elliptical_Orbit"),
        "o_500": ("0.5", "Elliptical_Orbit"),
        "o_1000": ("1.0", "Elliptical_Orbit"),
    }
    for name, (e, _expected) in cases.items():
        add_orbit(store, name, e)
    result = classify_orbits(store, ModelingMode.DIRECT)
    for name, (_e, expected) in cases.items():
        types = set(result.types_of(name))
        assert expected in types, (name, types)
        other = {"Nearly_Circular_Orbit", "Elliptical_Orbit"} - {expected}
        assert not (types & other), (name, types)


def test_orbit_without_value_stays_unclassified():
    store = orbit_store(ModelingMode.DIRECT)
    add_orbit(store, "silent")
    result = classify_orbits(store, ModelingMode.DIRECT)
    assert set(result.types_of("silent")) == {"Orbit"}


def test_reified_two_hop_requires_parameter_typing():
    # With the parameter instance typed, classification fires; removing
    # that single typing assertion leaves the orbit unclassified.
    store = orbit_store(ModelingMode.REIFIED)
    add_orbit(store, "o1", "0.02", mode=ModelingMode.REIFIED)

    untyped = orbit_store(ModelingMode.REIFIED)
    untyped.add_instance("o1")
    untyped.assert_fact("o1", "instance_of", "Orbit")
    untyped.add_instance("o1_Orbital_Eccentricity")
    untyped.assert_fact("o1", "has_Orbital_Eccentricity", "o1_Orbital_Eccentricity")
    untyped.assert_fact(
        "o1_Orbital_Eccentricity", "has_Orbital_Eccentricity_value", Decimal("0.02")
    )

    classified = classify_orbits(store, ModelingMode.REIFIED)
    assert "Nearly_Circular_Orbit" in classified.types_of("o1")
    unclassified = classify_orbits(untyped, ModelingMode.REIFIED)
    assert "Nearly_Circular_Orbit" not in unclassified.types_of("o1")


def test_value_reached_through_linking_satellite():
    # The catalog may carry the number on the satellite rather than the orbit.
    store = orbit_store(ModelingMode.DIRECT)
    store.add_instance("Sat-1")
    store.assert_fact("Sat-1", "instance_of", "Artificial_Satellite")
    add_orbit(store, "Sat-1_Orbit")
    store.assert_fact("Sat-1", "has_Orbit", "Sat-1_Orbit")
    store.assert_fact("Sat-1", "has_Orbital_Eccentricity_value", Decimal("0.7"))
    result = classify_orbits(store, ModelingMode.DIRECT)
    assert "Elliptical_Orbit" in result.types_of("Sat-1_Orbit")


def test_conflicting_asserted_type_is_reported_not_overwritten():
    store = orbit_store(ModelingMode.DIRECT)
    add_orbit(store, "odd", "0.02", orbit_class="Elliptical_Orbit")
    store.assert_fact("odd", "instance_of", "Orbit")
    result = classify_orbits(store, ModelingMode.DIRECT)
    assert "Nearly_Circular_Orbit" not in result.types_of("odd")
    assert len(result.rule_conflicts) == 1
    assert result.rule_conflicts[0].code == "rule_conflict"
    # pre-existing typing is preserved
    assert "Elliptical_Orbit" in result.types_of("odd")


def test_straddling_values_are_a_conflict():
    store = orbit_store(ModelingMode.DIRECT)
    add_orbit(store, "dual", "0.02")
    store.assert_fact("dual", "has_Orbital_Eccentricity_value", Decimal("0.9"))
    result = classify_orbits(store, ModelingMode.DIRECT)
    types = set(result.types_of("dual"))
    assert not ({"Nearly_Circular_Orbit", "Elliptical_Orbit"} & types)
    assert result.rule_conflicts


def test_mode_mismatch_is_detected(direct_store, reified_store):
    with pytest.raises(ModeMismatch):
        classify_orbits(direct_store, ModelingMode.REIFIED)
    with pytest.raises(ModeMismatch):
        classify_orbits(reified_store, ModelingMode.DIRECT)


def test_mode_invariance_on_fixture(direct_store, reified_store):
    d = classify_orbits(direct_store, ModelingMode.DIRECT)
    r = classify_orbits(reified_store, ModelingMode.REIFIED)
    def outcomes(store):
        out = {}
        for term in store.instances:
            if "Orbit" in store.all_types_of(term.name):
                out[term.name] = {
                    t
                    for t in store.types_of(term.name)
                    if t in ("Nearly_Circular_Orbit", "Elliptical_Orbit")
                }
        return out
    assert outcomes(d) == outcomes(r)
    # spot expectations from the fixture values
    d_out = outcomes(d)
    assert d_out["AAUSat-4_Orbit"] == {"Nearly_Circular_Orbit"}   # e = 0.02
    assert d_out["TerraWatch-2_Orbit"] == {"Nearly_Circular_Orbit"}  # e = 0.14
    assert d_out["Meridian_3_Orbit"] == {"Elliptical_Orbit"}      # e = 0.7
    assert d_out["Probe-X_Orbit"] == set()                        # value rejected


@given(st.decimals(min_value=0, max_value=1, places=3, allow_nan=False, allow_infinity=False))
def test_boundary_exactness_property(e):
    store = orbit_store(ModelingMode.DIRECT)
    add_orbit(store, "o", str(e))
    result = classify_orbits(store, ModelingMode.DIRECT)
    types = set(result.types_of("o"))
    if e <= NEARLY_CIRCULAR_MAX_ECCENTRICITY:
        assert "Nearly_Circular_Orbit" in types
        assert "Elliptical_Orbit" not in types
    else:
        assert "Elliptical_Orbit" in types
        assert "Nearly_Circular_Orbit" not in types


# -------------------------------------------------------------- materialize

def test_materialize_adds_ancestor_typing():
    store = orbit_store(ModelingMode.DIRECT)
    store.add_instance("o")
    store.assert_fact("o", "instance_of", "GEO_Orbit")
    m = materialize(store)
    assert set(m.types_of("o")) == {"GEO_Orbit", "Nearly_Circular_Orbit", "Orbit"}


def test_materialize_is_idempotent(direct_store):
    once = materialize(direct_store)
    twice = materialize(once)
    assert once == twice


def test_materialize_empty_store():
    store = orbit_store(ModelingMode.DIRECT)
    assert materialize(store) == store


# ---------------------------------------------------------------- validate

def test_range_violation_is_flagged():
    # minimal two-instance store: the owner points at something typed
    # only as a country
    store = orbit_store(ModelingMode.DIRECT)
    store.add_instance("Sat-1")
    store.assert_fact("Sat-1", "instance_of", "Artificial_Satellite")
    store.add_instance("Denmark")
    store.assert_fact("Denmark", "instance_of", "Country")
    store.assert_fact("Sat-1", "has_Owner", "Denmark")
    violations = validate(store)
    assert [v.code for v in violations if v.severity == "error"] == ["range"]


def test_domain_violation_is_flagged():
    store = orbit_store(ModelingMode.DIRECT)
    store.add_instance("Denmark")
    store.assert_fact("Denmark", "instance_of", "Country")
    store.add_instance("OpX")
    store.assert_fact("OpX", "instance_of", "Operator")
    store.assert_fact("Denmark", "has_Operator", "OpX")
    codes = [v.code for v in validate(store) if v.severity == "error"]
    assert codes == ["domain"]


def test_untyped_participants_are_not_flagged():
    store = orbit_store(ModelingMode.DIRECT)
    store.add_instance("Sat-1")
    store.add_instance("mystery")
    store.assert_fact("Sat-1", "has_Owner", "mystery")
    assert [v for v in validate(store) if v.severity == "error"] == []


def test_orbit_completeness_warning():
    store = orbit_store(ModelingMode.DIRECT)
    add_orbit(store, "bare_orbit")
    warnings = [v for v in validate(store) if v.severity == "warning"]
    assert len(warnings) == 1
    assert warnings[0].code == "completeness"
    assert "Orbital_Eccentricity" in warnings[0].detail


def test_conformant_store_is_clean():
    store = orbit_store(ModelingMode.DIRECT)
    store.add_instance("Sat-1")
    store.assert_fact("Sat-1", "instance_of", "Artificial_Satellite")
    add_orbit(store, "Sat-1_Orbit", orbit_class="GEO_Orbit")
    store.assert_fact("Sat-1", "has_Orbit", "Sat-1_Orbit")
    for prop, value in (
        ("has_Orbital_Eccentricity_value", "0.01"),
        ("has_Orbital_Inclination_value", "0.2"),
        ("has_Orbital_Period_value", "1436"),
        ("has_Perigee_value", "35780"),
        ("has_Apogee_value", "35795"),
    ):
        store.assert_fact("Sat-1_Orbit", prop, Decimal(value))
    assert validate(store) == []


def test_validate_after_materialize_reports_subset(direct_store):
    before = {(v.subject.name, v.code) for v in validate(direct_store)}
    after = {(v.subject.name, v.code) for v in validate(materialize(direct_store))}
    assert after <= before


def test_rule_conflicts_surface_through_validate():
    store = orbit_store(ModelingMode.DIRECT)
    add_orbit(store, "odd", "0.02", orbit_class="Elliptical_Orbit")
    classified = classify_orbits(store, ModelingMode.DIRECT)
    codes = [v.code for v in validate(classified)]
    assert "rule_conflict" in codes


@pytest.mark.parametrize("mode", list(ModelingMode))
def test_rule_conflicts_are_recomputed_from_the_store(mode):
    # The conflict is a fact about the assertions, so validate finds it
    # before classification, after it, and after a Turtle round trip.
    store = orbit_store(mode)
    add_orbit(store, "m", "0.01", orbit_class="Molniya_Orbit", mode=mode)
    classified = classify_orbits(store, mode)
    expected = [("m", "computed Nearly_Circular_Orbit contradicts asserted Molniya_Orbit on 'm'")]
    assert [(v.subject.name, v.detail) for v in classified.rule_conflicts] == expected
    for current in (store, classified, import_turtle(export_turtle(classified))):
        conflicts = [v for v in validate(current) if v.code == "rule_conflict"]
        assert [(v.subject.name, v.detail) for v in conflicts] == expected
