"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Each criterion is exact (no tolerances) and carries a runtime
budget that is asserted, not just hoped for.
"""

import random
import time
from contextlib import contextmanager
from datetime import date
from decimal import Decimal

import pytest

from satkg import (
    InstanceStore,
    ModelingMode,
    Semantics,
    apply_mapping,
    build_mapping,
    build_ucsso,
    classify_orbits,
    evaluate,
    export_turtle,
    import_turtle,
    ingest,
    parse_query,
    validate,
)
from satkg.errors import NegationUnderOpenWorld, RestrictionViolation
from satkg.ingest import RawRecord

from conftest import ingest_fixture
from test_ingest import recover_parameter_triples


@contextmanager
def criterion(number: int, budget_seconds: float, label: str):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s"
    print(f"ACCEPTANCE {number:2d} PASS ({elapsed:.3f}s): {label}")


# --------------------------------------------------------------------------

def test_criterion_1_eccentricity_boundary_sweep():
    with criterion(1, 1.0, "boundary sweep: nearly circular iff e <= 0.14"):
        sweep = ["0", "0.02", "0.139", "0.14", "0.141", "0.5", "1.0"]
        store = InstanceStore(build_ucsso(ModelingMode.DIRECT))
        for e in sweep:
            name = f"orbit_{e.replace('.', '_')}"
            store.add_instance(name)
            store.assert_fact(name, "instance_of", "Orbit")
            store.assert_fact(name, "has_Orbital_Eccentricity_value", Decimal(e))
        result = classify_orbits(store, ModelingMode.DIRECT)
        for e in sweep:
            name = f"orbit_{e.replace('.', '_')}"
            types = set(result.types_of(name))
            if Decimal(e) <= Decimal("0.14"):
                assert "Nearly_Circular_Orbit" in types, e
                assert "Elliptical_Orbit" not in types, e
            else:
                assert "Elliptical_Orbit" in types, e
                assert "Nearly_Circular_Orbit" not in types, e

        # The 0.02 case in the satellite-parameter-value chain form: the
        # satellite carries a reified eccentricity parameter and the linked
        # orbit is classified from it.
        reified = InstanceStore(build_ucsso(ModelingMode.REIFIED))
        for inst in ("AAUSat-4", "AAUSat-4_Orbital_Eccentricity", "AAUSat-4_Orbit"):
            reified.add_instance(inst)
        reified.assert_fact("AAUSat-4", "instance_of", "Artificial_Satellite")
        reified.assert_fact("AAUSat-4_Orbit", "instance_of", "Orbit")
        reified.assert_fact("AAUSat-4", "has_Orbit", "AAUSat-4_Orbit")
        reified.assert_fact(
            "AAUSat-4", "has_Orbital_Eccentricity", "AAUSat-4_Orbital_Eccentricity"
        )
        reified.assert_fact(
            "AAUSat-4_Orbital_Eccentricity", "instance_of", "Orbital_Eccentricity"
        )
        reified.assert_fact(
            "AAUSat-4_Orbital_Eccentricity",
            "has_Orbital_Eccentricity_value",
            Decimal("0.02"),
        )
        classified = classify_orbits(reified, ModelingMode.REIFIED)
        assert "Nearly_Circular_Orbit" in classified.types_of("AAUSat-4_Orbit")


def test_criterion_2_reified_two_hop_structure():
    with criterion(2, 1.0, "reified classification requires the typed parameter hop"):
        def build(with_typing: bool) -> InstanceStore:
            store = InstanceStore(build_ucsso(ModelingMode.REIFIED))
            store.add_instance("o")
            store.assert_fact("o", "instance_of", "Orbit")
            store.add_instance("o_ecc")
            if with_typing:
                store.assert_fact("o_ecc", "instance_of", "Orbital_Eccentricity")
            store.assert_fact("o", "has_Orbital_Eccentricity", "o_ecc")
            store.assert_fact("o_ecc", "has_Orbital_Eccentricity_value", Decimal("0.02"))
            return store

        typed = classify_orbits(build(with_typing=True), ModelingMode.REIFIED)
        assert "Nearly_Circular_Orbit" in typed.types_of("o")
        untyped = classify_orbits(build(with_typing=False), ModelingMode.REIFIED)
        assert "Nearly_Circular_Orbit" not in untyped.types_of("o")
        assert "Elliptical_Orbit" not in untyped.types_of("o")


def test_criterion_3_mode_equivalence(fixture_records):
    with criterion(3, 1.0, "10-row fixture: parameter multisets and classes agree across modes"):
        direct, d_report = ingest_fixture(fixture_records, ModelingMode.DIRECT)
        reified, r_report = ingest_fixture(fixture_records, ModelingMode.REIFIED)
        assert d_report.rows_ingested == r_report.rows_ingested == 10
        assert recover_parameter_triples(direct, ModelingMode.DIRECT) == \
            recover_parameter_triples(reified, ModelingMode.REIFIED)

        d_classified = classify_orbits(direct, ModelingMode.DIRECT)
        r_classified = classify_orbits(reified, ModelingMode.REIFIED)

        def outcomes(store):
            return {
                term.name: {
                    t
                    for t in store.types_of(term.name)
                    if t in ("Nearly_Circular_Orbit", "Elliptical_Orbit")
                }
                for term in store.instances
                if "Orbit" in store.all_types_of(term.name)
            }

        assert outcomes(d_classified) == outcomes(r_classified)


# --- criterion 4: every catalog field maps onto the declared class(es) and
# the fixture produces the documented assertion shape -----------------------

def _objects(store, subject, prop):
    return [a.object for a in store.assertions_about(subject) if a.predicate.name == prop]


def _values(store, subject, prop):
    return {o.value for o in _objects(store, subject, prop)}


def _typed(store, subject, cls):
    return cls in store.types_of(subject)


def _linked(store, subject, prop, obj):
    return any(
        getattr(o, "name", None) == obj for o in _objects(store, subject, prop)
    )


FIELD_CHECKS = [
    ("Name of Satellite", ["Satellite_Name"],
     lambda s: _typed(s, "AAUSat-4_Name", "Satellite_Name")
     and _linked(s, "AAUSat-4", "has_Identifier", "AAUSat-4_Name")
     and _values(s, "AAUSat-4_Name", "has_Identifier_value") == {"AAUSat-4"}),
    ("Alternate Names", ["Alternate_Satellite_Name"],
     lambda s: _typed(s, "GSAT_19_Name", "Alternate_Satellite_Name")
     and _linked(s, "GSAT-19", "has_Identifier", "GSAT_19_Name")
     and _values(s, "Insat-GS19_Name", "has_Identifier_value") == {"Insat-GS19"}),
    ("Country/Org of UN Registry", ["Country", "Organization"],
     lambda s: _typed(s, "Denmark", "Country")
     and _linked(s, "Denmark",
                 "is_registered_Country_in_UN_Register_of_Space_Objects_for", "AAUSat-4")
     and _typed(s, "ESA", "Organization")
     and _linked(s, "ESA",
                 "is_registered_Organization_in_UN_Register_of_Space_Objects_for",
                 "TerraWatch-2")),
    ("Country of Operator/Owner", ["Country"],
     lambda s: _linked(s, "Aalborg_University", "has_Country_of_Origin", "Denmark")),
    ("Operator/Owner", ["Operator", "Owner"],
     lambda s: _typed(s, "Aalborg_University", "Operator")
     and _typed(s, "Aalborg_University", "Owner")
     and _linked(s, "AAUSat-4", "has_Operator", "Aalborg_University")
     and _linked(s, "AAUSat-4", "has_Owner", "Aalborg_University")),
    ("Users", ["User", "Civil_User", "Academic_User", "Amateur_User",
               "Commercial_User", "Government_User", "Military_User"],
     lambda s: _typed(s, "Meridian_3_Military_User", "Military_User")
     and _linked(s, "Meridian_3", "has_User", "Meridian_3_Military_User")
     and _linked(s, "Meridian_3", "has_User", "Meridian_3_Commercial_User")),
    ("Purpose", ["Purpose"],
     lambda s: _typed(s, "AAUSat-4_Purpose", "Earth_Observation_Purpose")
     and _linked(s, "AAUSat-4", "has_Purpose", "AAUSat-4_Purpose")),
    ("Detailed Purpose", ["Communications_Purpose", "Earth_Observation_Purpose",
                          "Navigation_Purpose", "Space_Science_Purpose",
                          "Technology_Development_Purpose", "Earth_Science_Purpose"],
     lambda s: _typed(s, "TerraWatch-2_Purpose", "Earth_Science_Purpose")),
    ("Class of Orbit", ["Orbit", "Nearly_Circular_Orbit", "Elliptical_Orbit",
                        "LEO_Orbit", "MEO_Orbit", "GEO_Orbit", "Molniya_Orbit"],
     lambda s: _typed(s, "GSAT-19_Orbit", "GEO_Orbit")
     and _linked(s, "GSAT-19", "has_Orbit", "GSAT-19_Orbit")),
    ("Type of Orbit", ["Sun_Synchronous_Orbit", "Polar_Orbit", "Equatorial_Orbit",
                       "Deep_Highly_Eccentric_Orbit", "Cislunar_Orbit"],
     lambda s: _typed(s, "AAUSat-4_Orbit", "Sun_Synchronous_Orbit")),
    ("Longitude of GEO (degrees)", ["Longitude_Of_GEO"],
     lambda s: _values(s, "GSAT-19_Orbit", "has_Longitude_Of_GEO_value") == {Decimal("48.1")}),
    ("Perigee (km)", ["Perigee"],
     lambda s: _values(s, "AAUSat-4_Orbit", "has_Perigee_value") == {Decimal("450")}),
    ("Apogee (km)", ["Apogee"],
     lambda s: _values(s, "AAUSat-4_Orbit", "has_Apogee_value") == {Decimal("600")}),
    ("Eccentricity", ["Orbital_Eccentricity"],
     lambda s: _values(s, "AAUSat-4_Orbit", "has_Orbital_Eccentricity_value")
     == {Decimal("0.02")}),
    ("Inclination (degrees)", ["Orbital_Inclination"],
     lambda s: _values(s, "AAUSat-4_Orbit", "has_Orbital_Inclination_value")
     == {Decimal("98.2")}),
    ("Period (minutes)", ["Orbital_Period"],
     lambda s: _values(s, "AAUSat-4_Orbit", "has_Orbital_Period_value") == {Decimal("95.4")}),
    ("Launch Mass (kg.)", ["Launch_Mass"],
     lambda s: _values(s, "AAUSat-4", "has_Launch_Mass") == {Decimal("0.8")}),
    ("Dry Mass (kg.)", ["Dry_Mass"],
     lambda s: _values(s, "GSAT-19", "has_Dry_Mass") == {Decimal("1394")}),
    ("Power (watts)", ["Artificial_Satellite_Power"],
     lambda s: _values(s, "GSAT-19", "has_Power_value") == {Decimal("4500")}),
    ("Date of Launch", ["Launch_Date"],
     lambda s: _values(s, "AAUSat-4", "has_Date_of_Launch") == {date(2016, 4, 25)}),
    ("Expected Lifetime", ["Satellite_Expected_Lifetime"],
     lambda s: _values(s, "GSAT-19", "has_Expected_Lifetime") == {Decimal("10")}
     and _values(s, "OceanWatch_GEO", "has_Expected_Lifetime") == {Decimal("15")}),
    ("Contractor", ["Contractor"],
     lambda s: _typed(s, "ISS_Reshetnev", "Contractor")
     and _linked(s, "Meridian_3", "has_Contractor", "ISS_Reshetnev")),
    ("Country of Contractor", ["Contractor", "Country"],
     lambda s: _linked(s, "ISS_Reshetnev", "has_Country_of_Origin", "Russia")),
    ("Launch Site", ["Launch_Site"],
     lambda s: _typed(s, "Guiana_Space_Center", "Launch_Site")
     and _linked(s, "AAUSat-4", "has_Launch_Site", "Guiana_Space_Center")),
    ("Launch Vehicle", ["Launch_Vehicle"],
     lambda s: _typed(s, "Soyuz_2.1a", "Launch_Vehicle")
     and _linked(s, "AAUSat-4", "has_Launch_Vehicle", "Soyuz_2.1a")
     and _linked(s, "Meridian_3", "has_Launch_Vehicle", "Soyuz_2.1a")),
    ("COSPAR Number", ["COSPAR_Number"],
     lambda s: _values(s, "AAUSat-4", "has_COSPAR_number") == {"2016-025E"}),
    ("NORAD Number", ["NORAD_Number"],
     lambda s: _values(s, "AAUSat-4", "has_NORAD_number") == {"41460"}),
    ("Comments", ["Satellite_Comment"],
     lambda s: _values(s, "MicroSat_9", "has_Satellite_Comment")
     == {"Student-built demonstration satellite"}
     and _values(s, "OceanWatch_GEO", "has_Satellite_Comment")
     == {"Monitors ocean color, temperature,\nand coastal ecosystems"}),
]


def test_criterion_4_field_coverage(direct_store):
    with criterion(4, 5.0, "all 28 catalog fields: classes present, fixture shapes produced"):
        assert len(FIELD_CHECKS) == 28
        ont = direct_store.ontology
        for fieldname, classes, check in FIELD_CHECKS:
            for cls in classes:
                assert ont.has_class(cls), (fieldname, cls)
            assert check(direct_store), fieldname


# --- criterion 5: relation inventory with stated domains and ranges --------

RELATION_TABLE = [
    # (property, required domain members, required range members or datatype)
    ("has_Orbit", {"Artificial_Satellite"}, {"Orbit"}),
    ("has_Orbit_type", {"Artificial_Satellite"}, {"Orbit"}),
    ("has_Country_of_Origin", {"Artificial_Satellite"}, {"Country"}),
    ("is_registered_Country_in_UN_Register_of_Space_Objects_for",
     {"Country"}, {"Artificial_Satellite"}),
    ("is_registered_Organization_in_UN_Register_of_Space_Objects_for",
     {"Organization"}, {"Artificial_Satellite"}),
    ("has_Operator", {"Artificial_Satellite"}, {"Operator"}),
    ("has_Owner", {"Artificial_Satellite"}, {"Owner"}),
    ("has_User", {"Artificial_Satellite"}, {"User"}),
    ("has_Contractor", {"Artificial_Satellite"}, {"Contractor"}),
    ("has_Identifier", {"Artificial_Satellite"}, {"Identifier"}),
    ("has_COSPAR_number", {"Artificial_Satellite"}, "string"),
    ("has_NORAD_number", {"Artificial_Satellite"}, "string"),
    ("has_Purpose", {"Artificial_Satellite"}, {"Purpose"}),
    ("has_Orbital_Property", {"Artificial_Satellite", "Orbit"}, {"Orbital_Property"}),
    ("has_Orbital_Inclination", {"Artificial_Satellite", "Orbit"}, {"Orbital_Inclination"}),
    ("has_Orbital_Inclination_value", {"Orbital_Inclination"}, "decimal"),
    ("has_Orbital_Eccentricity", {"Artificial_Satellite", "Orbit"}, {"Orbital_Eccentricity"}),
    ("has_Orbital_Eccentricity_value", {"Orbital_Eccentricity"}, "decimal"),
    ("has_Longitude_Of_GEO", {"Artificial_Satellite", "Orbit"}, {"Longitude_Of_GEO"}),
    ("has_Longitude_Of_GEO_value", {"Longitude_Of_GEO"}, "decimal"),
    ("has_Perigee", {"Artificial_Satellite", "Orbit"}, {"Perigee"}),
    ("has_Perigee_value", {"Perigee"}, "decimal"),
    ("has_Apogee", {"Artificial_Satellite", "Orbit"}, {"Apogee"}),
    ("has_Apogee_value", {"Apogee"}, "decimal"),
    ("has_Dry_Mass", {"Artificial_Satellite"}, "decimal"),
    ("has_Launch_Mass", {"Artificial_Satellite"}, "decimal"),
    ("has_Power_value", {"Artificial_Satellite"}, "decimal"),
    ("has_Date_of_Launch", {"Artificial_Satellite", "Launch_Vehicle"}, "date"),
    ("has_Expected_Lifetime", {"Artificial_Satellite", "Launch_Vehicle"}, "decimal"),
    ("has_Launch_Site", {"Artificial_Satellite"}, {"Launch_Site"}),
    ("has_Launch_Vehicle", {"Artificial_Satellite"}, {"Launch_Vehicle"}),
]

MISTYPED_PROBES = [
    # (probe description, subject typing, predicate, object typing, expected code)
    ("owner points at a country", "Artificial_Satellite", "has_Owner", "Country", "range"),
    ("operator points at a country", "Artificial_Satellite", "has_Operator", "Country", "range"),
    ("user points at a country", "Artificial_Satellite", "has_User", "Country", "range"),
    ("contractor points at a country", "Artificial_Satellite", "has_Contractor", "Country", "range"),
    ("orbit points at a purpose", "Artificial_Satellite", "has_Orbit", "Purpose", "range"),
    ("launch site points at a country", "Artificial_Satellite", "has_Launch_Site", "Country", "range"),
    ("launch vehicle points at a country", "Artificial_Satellite", "has_Launch_Vehicle", "Country", "range"),
    ("purpose points at a country", "Artificial_Satellite", "has_Purpose", "Country", "range"),
    ("registry relation with a satellite subject", "Artificial_Satellite",
     "is_registered_Country_in_UN_Register_of_Space_Objects_for", "Artificial_Satellite", "domain"),
    ("identifier points at a country", "Artificial_Satellite", "has_Identifier", "Country", "range"),
]


def test_criterion_5_relation_coverage():
    with criterion(5, 5.0, "relation inventory and >= 8 mistyped-assertion flags"):
        ont = build_ucsso(ModelingMode.REIFIED)
        for name, domain, rng in RELATION_TABLE:
            pdef = ont.prop(name)
            assert domain <= pdef.domain, name
            if isinstance(rng, set):
                assert rng <= pdef.range_classes, name
            else:
                assert pdef.datatype is not None and pdef.datatype.base == rng, name

        assert len(MISTYPED_PROBES) >= 8
        for label, subject_cls, predicate, object_cls, expected in MISTYPED_PROBES:
            store = InstanceStore(ont)
            store.add_instance("subj")
            store.assert_fact("subj", "instance_of", subject_cls)
            store.add_instance("obj")
            store.assert_fact("obj", "instance_of", object_cls)
            store.assert_fact("subj", predicate, "obj")
            codes = [v.code for v in validate(store) if v.severity == "error"]
            assert codes == [expected], (label, codes)


def test_criterion_6_open_closed_world_divergence():
    with criterion(6, 1.0, "negation: closed world answers, open world refuses"):
        ont = build_ucsso(ModelingMode.DIRECT)
        store = InstanceStore(ont)
        for name in ("Alpha", "Beta", "Gamma"):
            store.add_instance(name)
            store.assert_fact(name, "instance_of", "Artificial_Satellite")
        store.add_instance("OpX")
        store.assert_fact("OpX", "instance_of", "Operator")
        store.assert_fact("Alpha", "has_Operator", "OpX")
        store.assert_fact("Beta", "has_Operator", "OpX")

        text = (
            "select ?s where { ?s instance_of Artificial_Satellite . "
            "not { ?s has_Operator ?o } }"
        )
        closed = parse_query(text, ont, Semantics.CLOSED_WORLD)
        answer = evaluate(closed, store)
        assert [r["?s"].name for r in answer.rows] == ["Gamma"]

        open_world = parse_query(text, ont, Semantics.OPEN_WORLD)
        with pytest.raises(NegationUnderOpenWorld):
            evaluate(open_world, store)

        # non-monotonicity witness: one more fact shrinks the answer
        store.assert_fact("Gamma", "has_Operator", "OpX")
        assert evaluate(closed, store).rows == []


def test_criterion_7_restriction_enforcement():
    with criterion(7, 1.0, "eccentricity bounds: reject outside [0, 1], warn at 1"):
        store = InstanceStore(build_ucsso(ModelingMode.DIRECT))
        store.add_instance("o")
        store.assert_fact("o", "instance_of", "Orbit")
        with pytest.raises(RestrictionViolation):
            store.assert_fact("o", "has_Orbital_Eccentricity_value", Decimal("-0.01"))
        with pytest.raises(RestrictionViolation):
            store.assert_fact("o", "has_Orbital_Eccentricity_value", Decimal("1.01"))
        assert store.assert_fact("o", "has_Orbital_Eccentricity_value", Decimal("0"))
        assert not store.warnings
        assert store.assert_fact("o", "has_Orbital_Eccentricity_value", Decimal("1"))
        assert len(store.warnings) == 1


# --- criterion 8: randomized round trips -----------------------------------

FIRST_NAMES = ("AAUSat", "Kosmos", "Yaogan", "Starlet", "Halo Explorer",
               "Beidou-3 M1 (C19)", "Sat", "Orbiter", "Probe")
ORBIT_CLASSES = ("LEO", "MEO", "GEO", "Elliptical")
ORBIT_TYPES = ("", "Sun-Synchronous", "Polar", "Molniya", "Deep Highly Eccentric")
USERS = ("Civil", "Military", "Commercial", "Government", "Civil/Military")
PURPOSES = ("Communications", "Earth Observation", "Navigation",
            "Space Science", "Technology Development")
COUNTRIES = ("Denmark", "USA", "Japan", "ESA", "Brazil")


def random_record(rng: random.Random, row: int) -> RawRecord:
    cells = {"Name of Satellite": f"{rng.choice(FIRST_NAMES)}-{rng.randint(1, 99)}"}
    if rng.random() < 0.4:
        cells["Alternate Names"] = f"Alias {rng.randint(1, 9)}, Alias-{rng.randint(10, 99)}"
    if rng.random() < 0.6:
        cells["Country/Org of UN Registry"] = rng.choice(COUNTRIES)
    if rng.random() < 0.6:
        cells["Country of Operator/Owner"] = rng.choice(COUNTRIES)
        cells["Operator/Owner"] = f"Operator {rng.randint(1, 5)}"
    if rng.random() < 0.7:
        cells["Users"] = rng.choice(USERS)
    if rng.random() < 0.8:
        cells["Purpose"] = rng.choice(PURPOSES)
    if rng.random() < 0.8:
        cells["Class of Orbit"] = rng.choice(ORBIT_CLASSES)
        cells["Type of Orbit"] = rng.choice(ORBIT_TYPES)
    if rng.random() < 0.8:
        cells["Eccentricity"] = f"0.{rng.randint(0, 999):03d}"
        cells["Perigee (km)"] = str(rng.randint(200, 40000))
        cells["Apogee (km)"] = str(rng.randint(200, 40000))
        cells["Inclination (degrees)"] = f"{rng.randint(0, 180)}.{rng.randint(0, 9)}"
        cells["Period (minutes)"] = str(rng.randint(90, 1500))
    if rng.random() < 0.5:
        cells["Launch Mass (kg.)"] = str(rng.randint(1, 6000))
        cells["Power (watts)"] = str(rng.randint(10, 20000))
    if rng.random() < 0.5:
        cells["Date of Launch"] = f"{rng.randint(1, 12)}/{rng.randint(1, 28)}/{rng.randint(1990, 2024)}"
    if rng.random() < 0.4:
        cells["Contractor"] = f"Contractor {rng.randint(1, 4)}"
        cells["Country of Contractor"] = rng.choice(COUNTRIES)
    if rng.random() < 0.4:
        cells["Launch Site"] = rng.choice(("Baikonur", "Cape Canaveral", "Kourou"))
        cells["Launch Vehicle"] = rng.choice(("Soyuz 2.1a", "Falcon 9", "Ariane 5"))
    if rng.random() < 0.5:
        cells["COSPAR Number"] = f"{rng.randint(1990, 2024)}-{rng.randint(1, 99):03d}A"
        cells["NORAD Number"] = str(rng.randint(10000, 60000))
    if rng.random() < 0.3:
        cells["Comments"] = 'Has a "special" payload,\nspanning two lines'
    return RawRecord(row, cells)


def test_criterion_8_randomized_round_trips():
    with criterion(8, 30.0, "100 randomized stores survive export/import unchanged"):
        rng = random.Random(20160425)
        for i in range(100):
            mode = ModelingMode.DIRECT if i % 2 == 0 else ModelingMode.REIFIED
            records = [random_record(rng, row) for row in range(2, 2 + rng.randint(0, 5))]
            ont = build_ucsso(mode)
            store, _report = ingest(records, mode, ont)
            text = export_turtle(store)
            again = import_turtle(text)
            assert again == store, f"round trip diverged on iteration {i}"
            assert export_turtle(again) == text, f"bytes diverged on iteration {i}"


def test_criterion_9_mapping_annotates_satellites(direct_store):
    with criterion(9, 1.0, "reference typing added; reference query equals local query"):
        mapped = apply_mapping(direct_store, build_mapping())
        for term in direct_store.instances:
            if "Artificial_Satellite" in direct_store.all_types_of(term.name):
                assert "Satellite" in mapped.types_of(term.name)
        local = parse_query(
            "select ?s where { ?s instance_of Artificial_Satellite }", mapped.ontology
        )
        reference = parse_query(
            "select ?s where { ?s instance_of Satellite }", mapped.ontology
        )
        local_names = {r["?s"].name for r in evaluate(local, mapped).rows}
        reference_names = {r["?s"].name for r in evaluate(reference, mapped).rows}
        assert local_names == reference_names
        assert len(local_names) == 10


def brute_force_instances_of(store, target: str) -> set[str]:
    """Independent oracle: reachability over raw parent edges."""
    classes = store.ontology.classes
    out = set()
    for term in store.instances:
        for start in store.types_of(term.name):
            frontier = [start]
            seen = set()
            while frontier:
                current = frontier.pop()
                if current == target:
                    out.add(term.name)
                    break
                seen.add(current)
                frontier.extend(p for p in classes[current].parents if p not in seen)
            if term.name in out:
                break
    return out


def test_criterion_10_subsumption_aware_queries(direct_store):
    with criterion(10, 1.0, "superclass queries equal a brute-force ancestor walk"):
        for target in ("Purpose", "Orbit", "User", "Artificial_Satellite", "Identifier"):
            ast = parse_query(
                f"select ?x where {{ ?x instance_of {target} }}", direct_store.ontology
            )
            answered = {r["?x"].name for r in evaluate(ast, direct_store).rows}
            assert answered == brute_force_instances_of(direct_store, target), target
        # spot check: purpose leaves answer the superclass query
        ast = parse_query("select ?x where { ?x instance_of Purpose }", direct_store.ontology)
        names = {r["?x"].name for r in evaluate(ast, direct_store).rows}
        assert "AAUSat-4_Purpose" in names and "TerraWatch-2_Purpose" in names
