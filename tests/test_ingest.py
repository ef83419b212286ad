from datetime import date, datetime
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satkg import (
    Literal,
    ModelingMode,
    TermId,
    TermKind,
    build_ucsso,
    class_term,
    ingest,
    instance_term,
    parse_csv,
    resolve_record,
)
from satkg.core import INSTANCE_OF, Assertion
from satkg.errors import (
    EmptyInput,
    MalformedCsv,
    UnknownOrbitClass,
    UnparsableDate,
    UnparsableNumber,
)
from satkg.ingest import (
    RawRecord,
    missing_columns,
    parse_launch_date,
    parse_number,
    parse_years,
)

from conftest import ingest_fixture

HEADER = (
    "Name of Satellite,Alternate Names,Country/Org of UN Registry,"
    "Country of Operator/Owner,Operator/Owner,Users,Purpose,Detailed Purpose,"
    "Class of Orbit,Type of Orbit,Longitude of GEO (degrees),Perigee (km),"
    "Apogee (km),Eccentricity,Inclination (degrees),Period (minutes),"
    "Launch Mass (kg.),Dry Mass (kg.),Power (watts),Date of Launch,"
    "Expected Lifetime,Contractor,Country of Contractor,Launch Site,"
    "Launch Vehicle,COSPAR Number,NORAD Number,Comments"
)


# -------------------------------------------------------------- CSV parsing

def test_quoted_comma_stays_in_field():
    text = 'a,b\n"x, y",z\n'
    records = parse_csv(text)
    assert len(records) == 1
    assert records[0].cells == {"a": "x, y", "b": "z"}


def test_quoted_newline_stays_in_field():
    text = 'a,b\n"line one\nline two",z\n'
    [record] = parse_csv(text)
    assert record.cells["a"] == "line one\nline two"


def test_escaped_quote_inside_quoted_field():
    text = 'a\n"say ""hi"""\n'
    [record] = parse_csv(text)
    assert record.cells["a"] == 'say "hi"'


def test_header_only_yields_no_records():
    assert parse_csv(HEADER + "\n") == []


def test_empty_input_is_an_error():
    with pytest.raises(EmptyInput):
        parse_csv(b"")


def test_unbalanced_quote_names_the_row():
    text = 'a,b\nok,1\n"broken,2\n'
    with pytest.raises(MalformedCsv) as err:
        parse_csv(text)
    assert err.value.row == 3


def test_ragged_row_names_the_row():
    text = "a,b\n1,2\n1,2,3\n"
    with pytest.raises(MalformedCsv) as err:
        parse_csv(text)
    assert err.value.row == 3


def test_header_matching_is_case_insensitive_and_trimmed():
    text = "  name OF satellite  ,Perigee (KM)\nSat-1,450\n"
    [record] = parse_csv(text)
    assert record.cells == {"Name of Satellite": "Sat-1", "Perigee (km)": "450"}


def test_unknown_columns_are_preserved():
    text = "Name of Satellite,Source Used for Orbital Data\nSat-1,SC - ASCR\n"
    [record] = parse_csv(text)
    assert record.cells["Source Used for Orbital Data"] == "SC - ASCR"


def test_missing_columns_reported_once(fixture_records):
    text = "Name of Satellite,Users\nSat-1,Civil\n"
    records = parse_csv(text)
    missing = missing_columns(records)
    assert "Perigee (km)" in missing and len(missing) == 26
    assert missing_columns(fixture_records) == []


def test_crlf_line_endings():
    text = "a,b\r\n1,2\r\n"
    [record] = parse_csv(text)
    assert record.cells == {"a": "1", "b": "2"}


# ------------------------------------------------------------- cell parsing

def test_number_parsing():
    assert parse_number("35,778") == Decimal("35778")
    assert parse_number("-75.2") == Decimal("-75.2")
    with pytest.raises(Exception):
        parse_number("twelve")


@pytest.mark.parametrize("text", ["NaN", "nan", "sNaN", "-NaN", "Infinity", "-Inf", " inf "])
def test_non_finite_numbers_are_unparsable(text):
    with pytest.raises(UnparsableNumber):
        parse_number(text)


def test_year_and_date_parsing():
    assert parse_years("15 yrs.") == Decimal("15")
    assert parse_years("10") == Decimal("10")
    assert parse_launch_date("4/25/2016") == date(2016, 4, 25)
    assert parse_launch_date("2017-06-05") == date(2017, 6, 5)


DIGITS = "1234567890١٢٣٤٥٦٧٨٩٠५०"  # ASCII, Arabic-Indic and Devanagari
_part = st.tuples(st.sampled_from(["", " "]),
                  st.text(st.sampled_from(DIGITS[:10] * 2 + DIGITS), min_size=1, max_size=2))
DATE_SHAPED = st.builds(  # a year, a month and a day, under one separator, in either order
    lambda y, m, d, sep, iso: f"{y}{sep}{m}{sep}{d}" if iso else f"{m}{sep}{d}{sep}{y}",
    st.text(st.sampled_from(DIGITS), min_size=4, max_size=4), _part.map("".join),
    _part.map("".join), st.sampled_from("-/"), st.booleans())


def strptime_date(text: str):
    """The date of the first of the reader's two formats ``datetime.strptime``
    accepts for the trimmed text, or None."""
    for form in ("%Y-%m-%d", "%m/%d/%Y"):
        try:
            return datetime.strptime(text.strip(), form).date()
        except ValueError:
            pass
    return None


@settings(max_examples=2000, deadline=None)
@given(st.text(st.sampled_from(DIGITS + "-/ \t"), max_size=12) | DATE_SHAPED)
@example("2016-4-25")
@example("4/25/2016")
@example("2016-02-30")
@example("٢٠١٦-04-25")
@example(" 4/ 5/2016")
@example("2016-04-1٣")
def test_a_launch_date_reads_as_strptime_reads_it(text):
    expected = strptime_date(text)
    if expected is None:
        with pytest.raises(UnparsableDate) as raised:
            parse_launch_date(text)
        assert str(raised.value) == f"not a recognized date: {text!r}"
    else:
        assert parse_launch_date(text) == expected


# --------------------------------------------------------------- resolution

def record_from(row: str, row_number: int = 2) -> RawRecord:
    return parse_csv(HEADER + "\n" + row + "\n")[0]


AAUSAT_ROW = (
    "AAUSat-4,,Denmark,Denmark,Aalborg University,Civil,Earth Observation,,"
    "LEO,Sun-Synchronous,,450,600,0.02,98.2,95.4,0.8,,,4/25/2016,,"
    "Aalborg University,Denmark,Guiana Space Center,Soyuz 2.1a,2016-025E,41460,"
)


def _triple(subject, predicate, obj):
    pred = (
        INSTANCE_OF
        if predicate == "instance_of"
        else TermId(
            predicate,
            TermKind.DATA_PROPERTY if isinstance(obj, Literal) else TermKind.OBJECT_PROPERTY,
        )
    )
    return Assertion(instance_term(subject), pred, obj)


def test_aausat_row_resolves_to_the_exact_assertion_list():
    """Full enumeration of one row's resolution, written out by hand."""
    ont = build_ucsso(ModelingMode.DIRECT)
    got = resolve_record(record_from(AAUSAT_ROW), ModelingMode.DIRECT, ont)
    expected = [
        _triple("AAUSat-4", "instance_of", class_term("Artificial_Satellite")),
        _triple("AAUSat-4", "instance_of", class_term("Earth_Observing_Satellite")),
        _triple("AAUSat-4_Name", "instance_of", class_term("Satellite_Name")),
        _triple("AAUSat-4", "has_Identifier", instance_term("AAUSat-4_Name")),
        _triple("AAUSat-4_Name", "has_Identifier_value", Literal("AAUSat-4")),
        _triple("Denmark", "instance_of", class_term("Country")),
        _triple(
            "Denmark",
            "is_registered_Country_in_UN_Register_of_Space_Objects_for",
            instance_term("AAUSat-4"),
        ),
        _triple("Aalborg_University", "instance_of", class_term("Operator")),
        _triple("Aalborg_University", "instance_of", class_term("Owner")),
        _triple("AAUSat-4", "has_Operator", instance_term("Aalborg_University")),
        _triple("AAUSat-4", "has_Owner", instance_term("Aalborg_University")),
        _triple("Denmark", "instance_of", class_term("Country")),
        _triple("Aalborg_University", "has_Country_of_Origin", instance_term("Denmark")),
        _triple("AAUSat-4_Civil_User", "instance_of", class_term("Civil_User")),
        _triple("AAUSat-4", "has_User", instance_term("AAUSat-4_Civil_User")),
        _triple("AAUSat-4_Purpose", "instance_of", class_term("Earth_Observation_Purpose")),
        _triple("AAUSat-4", "has_Purpose", instance_term("AAUSat-4_Purpose")),
        _triple("AAUSat-4_Orbit", "instance_of", class_term("Sun_Synchronous_Orbit")),
        _triple("AAUSat-4", "has_Orbit", instance_term("AAUSat-4_Orbit")),
        _triple("AAUSat-4_Orbit", "has_Perigee_value", Literal(Decimal("450"))),
        _triple("AAUSat-4_Orbit", "has_Apogee_value", Literal(Decimal("600"))),
        _triple("AAUSat-4_Orbit", "has_Orbital_Eccentricity_value", Literal(Decimal("0.02"))),
        _triple("AAUSat-4_Orbit", "has_Orbital_Inclination_value", Literal(Decimal("98.2"))),
        _triple("AAUSat-4_Orbit", "has_Orbital_Period_value", Literal(Decimal("95.4"))),
        _triple("AAUSat-4", "has_Launch_Mass", Literal(Decimal("0.8"))),
        _triple("AAUSat-4", "has_Date_of_Launch", Literal(date(2016, 4, 25))),
        _triple("Aalborg_University", "instance_of", class_term("Contractor")),
        _triple("AAUSat-4", "has_Contractor", instance_term("Aalborg_University")),
        _triple("Denmark", "instance_of", class_term("Country")),
        _triple("Aalborg_University", "has_Country_of_Origin", instance_term("Denmark")),
        _triple("Guiana_Space_Center", "instance_of", class_term("Launch_Site")),
        _triple("AAUSat-4", "has_Launch_Site", instance_term("Guiana_Space_Center")),
        _triple("Soyuz_2.1a", "instance_of", class_term("Launch_Vehicle")),
        _triple("AAUSat-4", "has_Launch_Vehicle", instance_term("Soyuz_2.1a")),
        _triple("AAUSat-4", "has_COSPAR_number", Literal("2016-025E")),
        _triple("AAUSat-4", "has_NORAD_number", Literal("41460")),
    ]
    assert got == expected


def test_reified_mode_adds_the_parameter_chain():
    ont = build_ucsso(ModelingMode.REIFIED)
    got = resolve_record(record_from(AAUSAT_ROW), ModelingMode.REIFIED, ont)
    chain = [
        _triple("AAUSat-4_Orbit_Orbital_Eccentricity", "instance_of", class_term("Orbital_Eccentricity")),
        _triple("AAUSat-4_Orbit", "has_Orbital_Eccentricity", instance_term("AAUSat-4_Orbit_Orbital_Eccentricity")),
        _triple("AAUSat-4_Orbit_Orbital_Eccentricity", "has_Orbital_Eccentricity_value", Literal(Decimal("0.02"))),
    ]
    for a in chain:
        assert a in got
    direct_form = _triple("AAUSat-4_Orbit", "has_Orbital_Eccentricity_value", Literal(Decimal("0.02")))
    assert direct_form not in got


def test_parameters_attach_to_satellite_without_orbit_columns():
    row = "TechDemo-1,,,,,,Technology Development,,,,,,,0.02,,,,,,,,,,,,,,"
    ont = build_ucsso(ModelingMode.DIRECT)
    got = resolve_record(record_from(row), ModelingMode.DIRECT, ont)
    assert _triple("TechDemo-1", "has_Orbital_Eccentricity_value", Literal(Decimal("0.02"))) in got
    ont_r = build_ucsso(ModelingMode.REIFIED)
    got_r = resolve_record(record_from(row), ModelingMode.REIFIED, ont_r)
    assert (
        _triple("TechDemo-1", "has_Orbital_Eccentricity", instance_term("TechDemo-1_Orbital_Eccentricity"))
        in got_r
    )


def test_users_split_on_slash():
    row = "Meridian 3,,,,,Military/Commercial,,,,,,,,,,,,,,,,,,,,,,"
    ont = build_ucsso(ModelingMode.DIRECT)
    got = resolve_record(record_from(row), ModelingMode.DIRECT, ont)
    has_user = [a for a in got if a.predicate.name == "has_User"]
    assert len(has_user) == 2
    typed = {a.object.name for a in got if a.predicate.name == "instance_of"}
    assert {"Military_User", "Commercial_User"} <= typed


def test_detailed_purpose_takes_precedence():
    row = "TerraWatch-2,,,,,,Earth Observation,Earth Science,,,,,,,,,,,,,,,,,,,,"
    ont = build_ucsso(ModelingMode.DIRECT)
    got = resolve_record(record_from(row), ModelingMode.DIRECT, ont)
    typings = {(a.subject.name, a.object.name) for a in got if a.predicate.name == "instance_of"}
    assert ("TerraWatch-2_Purpose", "Earth_Science_Purpose") in typings
    # function subclass still follows the broad Purpose column
    assert ("TerraWatch-2", "Earth_Observing_Satellite") in typings


def test_registry_organization_branch():
    row = "TerraWatch-2,,ESA,,,,,,,,,,,,,,,,,,,,,,,,,"
    ont = build_ucsso(ModelingMode.DIRECT)
    got = resolve_record(record_from(row), ModelingMode.DIRECT, ont)
    preds = {a.predicate.name for a in got}
    assert "is_registered_Organization_in_UN_Register_of_Space_Objects_for" in preds
    typed = {(a.subject.name, a.object.name) for a in got if a.predicate.name == "instance_of"}
    assert ("ESA", "Organization") in typed


def test_sentinel_cells_assert_nothing():
    row = "Probe-X,,NR,N/A,Unknown,,,,,,,,,,,,,,,,,,,,,,,"
    ont = build_ucsso(ModelingMode.DIRECT)
    got = resolve_record(record_from(row), ModelingMode.DIRECT, ont)
    # only the satellite typing and its name identifier remain
    assert len(got) == 4


def test_strict_resolution_raises_on_bad_cells():
    ont = build_ucsso(ModelingMode.DIRECT)
    bad_orbit = "S-1,,,,,,,,Lagrange,,,,,,,,,,,,,,,,,,,"
    with pytest.raises(UnknownOrbitClass):
        resolve_record(record_from(bad_orbit), ModelingMode.DIRECT, ont)
    bad_number = "S-1,,,,,,,,,,,,,not-a-number,,,,,,,,,,,,,,"
    with pytest.raises(UnparsableNumber):
        resolve_record(record_from(bad_number), ModelingMode.DIRECT, ont)
    bad_date = "S-1,,,,,,,,,,,,,,,,,,,25 April,,,,,,,,"
    with pytest.raises(UnparsableDate):
        resolve_record(record_from(bad_date), ModelingMode.DIRECT, ont)


def test_orbit_type_refines_orbit_class():
    ont = build_ucsso(ModelingMode.DIRECT)
    row = "S-1,,,,,,,,LEO,Sun-Synchronous,,,,,,,,,,,,,,,,,,"
    got = resolve_record(record_from(row), ModelingMode.DIRECT, ont)
    typed = {a.object.name for a in got if a.subject.name == "S-1_Orbit"}
    assert typed == {"Sun_Synchronous_Orbit"}
    # incomparable leaves: the type column wins
    row2 = "S-2,,,,,,,,LEO,Polar,,,,,,,,,,,,,,,,,,"
    got2 = resolve_record(record_from(row2), ModelingMode.DIRECT, ont)
    typed2 = {a.object.name for a in got2 if a.subject.name == "S-2_Orbit"}
    assert typed2 == {"Polar_Orbit"}


# ------------------------------------------------------------ batch ingest

# Stored-assertion counts per fixture row, hand-enumerated before the
# resolver existed.  Direct-mode walkthrough (see AAUSat-4 enumeration
# above for row 2):
#   row 2  AAUSat-4        33  (2 typing, 3 name, 2 registry, 5 op/own,
#                               2 user, 2 purpose, 2 orbit, 5 params,
#                               1 mass, 1 date, 2 contractor, 2 site,
#                               2 vehicle, 2 ids)
#   row 3  GSAT-19         44  (adds 2 alternate names = 6, longitude,
#                               dry mass, power, lifetime, comment)
#   row 4  Meridian 3      35  (two users; Soyuz 2.1a typing already
#                               stored by row 2, so its vehicle block
#                               contributes 1, not 2)
#   row 5  TerraWatch-2    26  (ESA registry = organization branch,
#                               detailed purpose, no contractor/site)
#   row 6  Probe-X         13  (eccentricity 1.2 rejected, 4 of 5 params)
#   row 7  TechDemo-1       8  (no orbit: eccentricity sits on satellite)
#   row 8  AAUSat-4 again   6  (renamed AAUSat-4_row8; typing, name trio,
#                               one user pair)
#   row 9  Halo Explorer   10  (unknown orbit class; 3 params on the
#                               satellite, e = 1.0 accepted with warning)
#   row 10 MicroSat 9       5  (typing, name trio, comment)
#   row 11 OceanWatch GEO  48  (two operator/owner entities, 6 params,
#                               masses+power, lifetime '15 yrs.',
#                               contractor reuses Lockheed Martin)
# Reified mode adds a typing + link pair for each successfully parsed
# parameter cell: 5+6+5+5+5+1+0+3+0+6 = 36 pairs = 72 extra assertions.
DIRECT_TOTAL = 33 + 44 + 35 + 26 + 13 + 8 + 6 + 10 + 5 + 48  # = 228
REIFIED_TOTAL = DIRECT_TOTAL + 72  # = 300


def test_fixture_ingest_direct_counts(fixture_records):
    store, report = ingest_fixture(fixture_records, ModelingMode.DIRECT)
    assert report.rows_read == 10
    assert report.rows_ingested == 10
    assert report.assertions_created == DIRECT_TOTAL == store.assertion_count
    codes = sorted(v.code for v in report.violations)
    assert codes == ["restriction", "unknown_orbit_class"]
    assert len(report.warnings) == 2  # perigee>apogee and boundary e=1.0


def test_fixture_ingest_reified_counts(fixture_records):
    store, report = ingest_fixture(fixture_records, ModelingMode.REIFIED)
    assert report.rows_ingested == 10
    assert report.assertions_created == REIFIED_TOTAL == store.assertion_count
    assert sorted(v.code for v in report.violations) == ["restriction", "unknown_orbit_class"]


def test_rejected_eccentricity_drops_only_that_assertion(direct_store):
    # Probe-X row ingested minus the out-of-range value
    assert "Probe-X" in {t.name for t in direct_store.instances}
    predicates = [a.predicate.name for a in direct_store.assertions_about("Probe-X_Orbit")]
    assert "has_Orbital_Eccentricity_value" not in predicates
    assert "has_Perigee_value" in predicates


def test_duplicate_satellite_names_get_row_suffix(direct_store):
    names = {t.name for t in direct_store.instances}
    assert "AAUSat-4" in names
    assert "AAUSat-4_row8" in names


def test_empty_record_list_yields_zeroed_report():
    ont = build_ucsso(ModelingMode.DIRECT)
    store, report = ingest([], ModelingMode.DIRECT, ont)
    assert store.assertion_count == 0
    assert (report.rows_read, report.rows_ingested, report.assertions_created) == (0, 0, 0)


def test_row_without_name_is_skipped():
    ont = build_ucsso(ModelingMode.DIRECT)
    records = parse_csv(HEADER + "\n" + ",,,,,,,,,,,,,,,,,,,,,,,,,,,\n")
    store, report = ingest(records, ModelingMode.DIRECT, ont)
    assert report.rows_read == 1
    assert report.rows_ingested == 0
    assert report.violations[0].code == "missing_name"


def recover_parameter_triples(store, mode):
    """Test-side oracle: (owner, parameter, value) triples seen in a store.

    Walks the stored assertions directly rather than going through the
    reasoner, so the two modes can be compared independently.
    """
    out = []
    params = (
        "Orbital_Eccentricity",
        "Orbital_Inclination",
        "Orbital_Period",
        "Perigee",
        "Apogee",
        "Longitude_Of_GEO",
    )
    if mode is ModelingMode.DIRECT:
        for param in params:
            for a in store.assertions_with_predicate(f"has_{param}_value"):
                out.append((a.subject.name, param, a.object.value))
    else:
        for param in params:
            for link in store.assertions_with_predicate(f"has_{param}"):
                param_inst = link.object.name
                for v in store.assertions_with_predicate(f"has_{param}_value"):
                    if v.subject.name == param_inst:
                        out.append((link.subject.name, param, v.object.value))
    return sorted(out)


def test_mode_equivalence_of_recovered_parameters(direct_store, reified_store):
    assert recover_parameter_triples(direct_store, ModelingMode.DIRECT) == \
        recover_parameter_triples(reified_store, ModelingMode.REIFIED)


def test_store_has_no_dangling_references(direct_store, reified_store):
    # full-store scan: every term an assertion touches resolves
    for store in (direct_store, reified_store):
        instance_names = {t.name for t in store.instances}
        for a in store.assertions():
            assert a.subject.name in instance_names
            if a.predicate.name != "instance_of":
                assert store.ontology.has_property(a.predicate.name)
            if isinstance(a.object, TermId):
                if a.object.kind is TermKind.INSTANCE:
                    assert a.object.name in instance_names
                else:
                    assert store.ontology.has_class(a.object.name)


def test_report_jsonl_shape(fixture_records):
    _store, report = ingest_fixture(fixture_records, ModelingMode.DIRECT)
    lines = report.to_jsonl().strip().splitlines()
    import json

    objects = [json.loads(line) for line in lines]
    assert objects[-1]["kind"] == "summary"
    assert objects[-1]["rows_ingested"] == 10
    kinds = {o["kind"] for o in objects[:-1]}
    assert kinds == {"violation", "warning"}


def test_duplicate_header_names_the_column():
    text = "Name of Satellite,name of satellite\nSat-1,Sat-2\n"
    with pytest.raises(MalformedCsv, match="'Name of Satellite'") as err:
        parse_csv(text)
    assert err.value.row == 1


def test_blank_header_cells_are_allowed():
    [record] = parse_csv("Name of Satellite,,\nSat-1,x,y\n")
    assert record.cells["Name of Satellite"] == "Sat-1"


@pytest.mark.parametrize("text", ["1E+100000", "1E+101", "-1e101", "1E-101"])
def test_numbers_beyond_the_exponent_bound_are_unparsable(text):
    with pytest.raises(UnparsableNumber):
        parse_number(text)


def test_exponent_bound_is_inclusive():
    assert parse_number("1E+100") == Decimal("1E+100")
    assert parse_number("1E-100") == Decimal("1E-100")


def test_huge_exponent_cell_is_one_violation_and_no_literal():
    row = AAUSAT_ROW.replace(",450,600,", ",1E+100000,600,")
    store, report = ingest(parse_csv(HEADER + "\n" + row + "\n"), ModelingMode.DIRECT,
                           build_ucsso(ModelingMode.DIRECT))
    [violation] = report.violations
    assert (violation.fieldname, violation.code) == ("Perigee (km)", "unparsable_number")
    assert not list(store.assertions_with_predicate("has_Perigee_value"))
