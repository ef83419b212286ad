import random
import re
from datetime import date, datetime
from decimal import Decimal
from itertools import zip_longest

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from satkg import (
    DatatypeSpec,
    InstanceStore,
    Literal,
    ModelingMode,
    Namespaces,
    NumericRestriction,
    Ontology,
    build_ucsso,
    export_dot,
    export_turtle,
    import_turtle,
)
from satkg.errors import (
    CycleDetected,
    FunctionalViolation,
    InvalidDatatype,
    InvalidTermName,
    RestrictionViolation,
    SatkgError,
    TurtleParseError,
    TypeMismatch,
    UnknownParent,
    UnknownTerm,
    UnsupportedConstruct,
)
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


# ------------------------------------------------- round trip, hand-built

_SCHEMA_NAME = st.from_regex(r"[A-Za-z0-9_]{1,6}", fullmatch=True)
_TEXT = st.text(st.sampled_from('\\"\n\t') | st.characters(exclude_categories=("Cs",)),
                max_size=10)
_DECIMALS = st.builds(lambda m, e: Decimal(m).scaleb(e),
                      st.integers(-10**4, 10**4), st.integers(-6, 6))  # 5E+2 and the like
_VALUES = {
    "decimal": _DECIMALS,
    "integer": st.integers(-10**6, 10**6),
    "string": _TEXT,
    "date": st.dates(),
}
_INSTANCE_NAME = st.sampled_from(["Sat/42", "100%", "a#b", "名前", "Beidou-3_M1_(C19)"]) | st.text(
    st.characters(exclude_categories=("Cs", "Cc", "Z")), min_size=1, max_size=8
).filter(lambda name: re.fullmatch(r"\S+", name) is not None)


@st.composite
def _restrictions(draw, base):
    if base not in ("decimal", "integer") or draw(st.booleans()):
        return None
    lower, upper = draw(st.none() | _VALUES[base]), draw(st.none() | _VALUES[base])
    if lower is not None and upper is not None and lower > upper:
        lower, upper = upper, lower
    return NumericRestriction(
        lower,
        upper,
        lower_inclusive=draw(st.booleans()),
        upper_inclusive=draw(st.booleans()),
        warn_at_upper=draw(st.booleans()),
    )


@st.composite
def _stores(draw):
    names = draw(st.lists(_SCHEMA_NAME, min_size=1, max_size=14, unique=True))
    n_classes = draw(st.integers(1, len(names)))
    classes, rest = names[:n_classes], names[n_classes:]
    n_properties = draw(st.integers(0, len(rest)))
    ont = Ontology()
    for i, name in enumerate(classes):
        parents = draw(st.sets(st.sampled_from(classes[:i]), max_size=3)) if i else ()
        ont.define_class(name, parents, draw(st.none() | _TEXT))
    some_classes = st.sets(st.sampled_from(classes), max_size=3)
    for name in rest[:n_properties]:
        functional = draw(st.booleans())
        if draw(st.booleans()):
            ont.define_object_property(name, draw(some_classes), draw(some_classes), functional)
        else:
            base = draw(st.sampled_from(sorted(_VALUES)))
            spec = DatatypeSpec(base, draw(st.none() | _TEXT), draw(_restrictions(base)))
            ont.define_data_property(name, draw(some_classes), spec, functional)
    for alias in rest[n_properties:]:
        ont.define_alias(alias, draw(st.sampled_from(classes + rest[:n_properties])))

    store = InstanceStore(ont)
    instances = draw(st.lists(_INSTANCE_NAME, max_size=6, unique=True))
    for name in instances:
        store.add_instance(name)
        for cls in draw(st.sets(st.sampled_from(classes), max_size=2)):
            store.assert_fact(name, "instance_of", cls)
    predicates = list(ont.properties) + [a for a, t in ont.aliases.items() if t in ont.properties]
    for _ in range(draw(st.integers(0, 10)) if instances and predicates else 0):
        predicate = draw(st.sampled_from(predicates))
        pdef = ont.prop(predicate)
        if pdef.datatype is None:
            obj = store.instance(draw(st.sampled_from(instances)))
        else:
            obj = Literal(draw(_VALUES[pdef.datatype.base]))
        try:
            store.assert_fact(draw(st.sampled_from(instances)), predicate, obj)
        except (RestrictionViolation, FunctionalViolation):
            pass
    return store


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_stores())
def test_hand_built_stores_round_trip(store):
    text = export_turtle(store)
    again = import_turtle(text)
    assert again == store
    assert export_turtle(again) == text


# ------------------------------------------------------------ bad input

VOCAB_PREFIXES = SCHEMA_PREFIXES + (
    "@prefix v: <https://satkg.example/vocab#> .\n"
    "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
)
DECIMAL_PROPERTY = "t:p a owl:DatatypeProperty ; rdfs:range xsd:decimal ;\n    "


@pytest.mark.parametrize(
    "body, error",
    [
        ("t:A a owl:Class ; rdfs:comment t:B .\n", TurtleParseError),
        ('t:A a owl:Class ; rdfs:comment "one", "two" .\n', TurtleParseError),
        (DECIMAL_PROPERTY + "v:unitLabel t:km .\n", TurtleParseError),
        (DECIMAL_PROPERTY + 'v:minValue "5"^^xsd:decimal ; v:maxValue "1"^^xsd:decimal .\n',
         InvalidDatatype),
        ('t:p a owl:DatatypeProperty ; rdfs:range xsd:string ; v:maxValue "1"^^xsd:decimal .\n',
         InvalidDatatype),
        (DECIMAL_PROPERTY + 'v:minValue "x" .\n', TurtleParseError),
        (DECIMAL_PROPERTY + 'v:minValue "NaN"^^xsd:decimal .\n', TurtleParseError),
        ("t:p a owl:DatatypeProperty .\n", TurtleParseError),
        # each of these was dropped without a word
        ('t:Orbit a owl:Class .\nt:X rdfs:subClassOf t:Orbit ; rdfs:comment "lost" .\n',
         UnsupportedConstruct),
        ('t:A a owl:Class .\nt:p a owl:ObjectProperty ; rdfs:domain t:A ; rdfs:comment "x" .\n',
         UnsupportedConstruct),
        ('t:p a owl:ObjectProperty ; v:unitLabel "km" .\n', UnsupportedConstruct),
        ('t:p a owl:ObjectProperty ; v:minValue "1"^^xsd:decimal .\n', UnsupportedConstruct),
        ("t:p a owl:ObjectProperty ; rdfs:range xsd:decimal .\n", TurtleParseError),
        ("t:p a owl:FunctionalProperty .\n", UnsupportedConstruct),
    ],
    ids=[
        "comment-not-a-string", "two-comments", "unit-not-a-string", "min-above-max",
        "facet-on-string", "min-not-a-number", "min-nan", "no-xsd-range", "undeclared-subject",
        "comment-on-property", "unit-on-object-property", "facet-on-object-property",
        "xsd-range-on-object-property", "functional-alone",
    ],
)
def test_bad_declaration_raises_naming_the_term(body, error):
    with pytest.raises(error) as err:
        import_turtle(VOCAB_PREFIXES + body)
    assert re.match(r"(t:\w+|line \d+):", str(err.value)), str(err.value)


def test_iri_may_not_span_lines():
    # An IRI holding a newline used to be read, with the newline uncounted,
    # so the unterminated string below was reported one line early.
    text = (
        SCHEMA_PREFIXES
        + "t:A a owl:Class .\n"
        + "<https://satkg.example/terms#B\n> a owl:Class .\n"
        + 't:C a owl:Class ; rdfs:comment "unterminated .\n'
    )
    with pytest.raises(TurtleParseError) as err:
        import_turtle(text)
    assert err.value.line == 5
    with pytest.raises(TurtleParseError):
        import_turtle(SCHEMA_PREFIXES + "<https://satkg.example/terms#B C> a owl:Class .\n")


_GOLDEN = (FIXTURES / "one_satellite.ttl").read_text(encoding="utf-8")
_GOLDEN_PARTS = re.split(r"(\s+)", _GOLDEN)


@st.composite
def _mangled_exports(draw):
    """The golden export with one whitespace-separated token deleted,
    duplicated or swapped with another."""
    words, gaps = _GOLDEN_PARTS[0::2], _GOLDEN_PARTS[1::2]
    i, j = draw(st.integers(0, len(words) - 1)), draw(st.integers(0, len(words) - 1))
    edit = draw(st.sampled_from(["delete", "duplicate", "swap"]))
    if edit == "delete":
        words[i] = ""
    elif edit == "duplicate":
        words[i] = f"{words[i]} {words[i]}"
    else:
        words[i], words[j] = words[j], words[i]
    return "".join(w + g for w, g in zip_longest(words, gaps, fillvalue=""))


@settings(max_examples=300, deadline=None)
@given(_mangled_exports() | st.text())
@example(_GOLDEN.replace("rdfs:subClassOf t:Orbit .", "rdfs:subClassOf t:Nope .", 1))
@example(_GOLDEN.replace("rdfs:domain t:Artificial_Satellite ;", "rdfs:domain t:Nope ;", 1))
@example(_GOLDEN.replace("t:Orbit a owl:Class .", "t:Orbit a owl:Class ; rdfs:subClassOf t:LEO_Orbit ."))
@example(_GOLDEN.replace(" v:aliasFor t:", " v:aliasFor t:Nope, t:", 1))
@example(_GOLDEN + "i: a owl:NamedIndividual .\n")
@example(_GOLDEN + "<https://satkg.example/inst#a%20b> a owl:NamedIndividual .\n")
@example(_GOLDEN + "i:x t:instance_of i:AAUSat-4 .\n")
@example(_GOLDEN + "i:x t:has_Orbit t:Orbit .\n")
@example(_GOLDEN + "<https://satkg.example/inst#a%2fb> a owl:NamedIndividual .\n")
@example(_GOLDEN + '"x" t:has_Orbit i:AAUSat-4 .\n')  # a literal as subject
@example(_GOLDEN + 'i:AAUSat-4 t:has_COSPAR_number "1"^^xsd:float .\n')  # an unsupported datatype
def test_any_text_imports_or_raises_a_satkg_error(text):
    # every error names a line, or the t: term whose declarations it builds
    try:
        import_turtle(text)
    except SatkgError as exc:
        assert re.match(r"(line \d+|t:\S*): ", str(exc)), repr(exc)


@pytest.mark.parametrize(
    "restriction",
    [
        NumericRestriction(),
        NumericRestriction(lower_inclusive=False),
        NumericRestriction(upper_inclusive=False, warn_at_upper=True),
        NumericRestriction(lower=Decimal(0)),
        NumericRestriction(lower=Decimal(0), lower_inclusive=False),
        NumericRestriction(upper=Decimal("1.5"), upper_inclusive=False),
        NumericRestriction(lower=Decimal(-1), upper=Decimal(1), warn_at_upper=True),
    ],
    ids=["bare", "open-lower-flag", "flags-only", "lower-only", "open-lower",
         "open-upper", "both-bounds"],
)
def test_every_numeric_restriction_round_trips(restriction):
    ont = Ontology()
    ont.define_class("A")
    ont.define_data_property("p", ["A"], DatatypeSpec("decimal", None, restriction))
    store = InstanceStore(ont)
    back = import_turtle(export_turtle(store))
    assert back.ontology.prop("p").datatype.restriction == restriction
    assert back == store


@pytest.mark.parametrize("lexical", ["1E+101", "-1E+101", "1E-101", "1E+100000"])
def test_decimal_literal_beyond_the_exponent_bound_names_the_line(lexical):
    body = DECIMAL_PROPERTY + f'v:minValue "{lexical}"^^xsd:decimal .\n'
    with pytest.raises(TurtleParseError) as err:
        import_turtle(VOCAB_PREFIXES + body)
    assert err.value.line == VOCAB_PREFIXES.count("\n") + 2


def test_decimal_literal_at_the_exponent_bound_imports():
    body = DECIMAL_PROPERTY + 'v:minValue "-1E+100"^^xsd:decimal .\n'
    restriction = import_turtle(VOCAB_PREFIXES + body).ontology.prop("p").datatype.restriction
    assert restriction.lower == Decimal("-1E+100")


INTEGER_PROPERTY = "t:p a owl:DatatypeProperty ; rdfs:range xsd:integer ;\n    "


@pytest.mark.parametrize("digits", [102, 5000])
def test_integer_literal_beyond_the_bound_names_the_line(digits):
    body = INTEGER_PROPERTY + f'v:minValue "{"9" * digits}"^^xsd:integer .\n'
    with pytest.raises(TurtleParseError) as err:
        import_turtle(VOCAB_PREFIXES + body)
    assert err.value.line == VOCAB_PREFIXES.count("\n") + 2


def test_integers_at_the_bound_round_trip():
    ont = Ontology()
    ont.define_class("A")
    ont.define_data_property("n", ["A"], DatatypeSpec("integer"))
    store = InstanceStore(ont)
    for name, value in (("x", 10**101 - 1), ("y", -(10**101 - 1))):
        store.add_instance(name)
        store.assert_fact(name, "n", value)
    assert import_turtle(export_turtle(store)) == store


@pytest.mark.parametrize(
    "datatype, lexical",
    [("integer", "1_0"), ("integer", " 12 "), ("integer", "١٢"), ("decimal", "1_0.5")],
    ids=["integer-underscore", "integer-blanks", "integer-arabic-indic-digits",
         "decimal-underscore"],
)
def test_numeric_literal_outside_the_xsd_lexical_form_names_the_line(datatype, lexical):
    prop = INTEGER_PROPERTY if datatype == "integer" else DECIMAL_PROPERTY
    body = prop + f'v:minValue "{lexical}"^^xsd:{datatype} .\n'
    with pytest.raises(TurtleParseError, match=f"bad xsd:{datatype} literal") as err:
        import_turtle(VOCAB_PREFIXES + body)
    assert err.value.line == VOCAB_PREFIXES.count("\n") + 2


@pytest.mark.parametrize("lexical, value", [("+1.5", "1.5"), (".5", "0.5"), ("5.", "5"),
                                            ("-2e3", "-2000")])
def test_every_xsd_decimal_form_imports(lexical, value):
    body = DECIMAL_PROPERTY + f'v:minValue "{lexical}"^^xsd:decimal .\n'
    restriction = import_turtle(VOCAB_PREFIXES + body).ontology.prop("p").datatype.restriction
    assert restriction.lower == Decimal(value)


GOLDEN_LAUNCH = '"2016-04-25"^^xsd:date'


@pytest.mark.parametrize("lexical", ["2016-4-5", "2016-04-5"])
def test_date_literal_outside_the_canonical_form_names_the_line(lexical):
    golden = (FIXTURES / "one_satellite.ttl").read_text(encoding="utf-8")
    head, found, tail = golden.partition(GOLDEN_LAUNCH)
    assert found
    with pytest.raises(TurtleParseError, match="bad xsd:date literal") as err:
        import_turtle(head + f'"{lexical}"^^xsd:date' + tail)
    assert err.value.line == head.count("\n") + 1


def test_canonical_date_literal_imports():
    store = import_turtle((FIXTURES / "one_satellite.ttl").read_text(encoding="utf-8"))
    launches = [a.object.value for a in store.assertions()
                if a.predicate.name == "has_Date_of_Launch"]
    assert launches == [date(2016, 4, 25)]


def strptime_date(text: str):
    """The date ``strptime`` reads from ``text``, or None when it rejects it."""
    try:
        return datetime.strptime(text, "%Y-%m-%d").date()
    except ValueError:
        return None


@given(st.tuples(st.integers(0, 9999), st.integers(0, 13) | st.integers(0, 99),
                 st.integers(0, 32) | st.integers(0, 99)))
@settings(max_examples=300, deadline=None)
def test_a_canonical_form_date_reads_as_strptime_reads_it(parts):
    lexical = "%04d-%02d-%02d" % parts
    golden = (FIXTURES / "one_satellite.ttl").read_text(encoding="utf-8")
    head, found, tail = golden.partition(GOLDEN_LAUNCH)
    assert found
    text = head + f'"{lexical}"^^xsd:date' + tail
    expected = strptime_date(lexical)
    if expected is None:
        with pytest.raises(TurtleParseError) as err:
            import_turtle(text)
        assert str(err.value) == f"line {head.count(chr(10)) + 1}: bad xsd:date literal {lexical!r}"
    else:
        launches = [a.object.value for a in import_turtle(text).assertions()
                    if a.predicate.name == "has_Date_of_Launch"]
        assert launches == [expected]


@pytest.mark.parametrize(
    "golden_text, bad_text, error",
    [
        ('t:has_Orbital_Eccentricity_value "0.02"^^xsd:decimal',
         't:has_Orbital_Eccentricity_value "5"^^xsd:decimal', RestrictionViolation),
        ('t:has_Launch_Mass "0.8"^^xsd:decimal', 't:has_Launch_Mass "heavy"', TypeMismatch),
        ('t:has_Launch_Mass "0.8"^^xsd:decimal',
         't:has_Dry_Mass "1"^^xsd:decimal, "2"^^xsd:decimal', FunctionalViolation),
        ("t:Civil_User .", "t:Ghost_User .", UnknownTerm),
        ("t:Civil_User .", '"Civil" .', UnsupportedConstruct),
    ],
    ids=["eccentricity-above-one", "string-on-decimal", "two-functional-values",
         "undefined-class", "literal-typing"],
)
def test_store_error_while_reading_names_the_statements_line(golden_text, bad_text, error):
    golden = (FIXTURES / "one_satellite.ttl").read_text(encoding="utf-8")
    head, found, tail = golden.partition(golden_text)
    assert found
    with pytest.raises(error) as err:
        import_turtle(head + bad_text + tail)
    assert type(err.value) is error
    assert str(err.value).startswith(f"line {head.count(chr(10)) + 1}: "), str(err.value)


@pytest.mark.parametrize(
    "predicate, golden_object, subject",
    [("t:has_Orbit", "i:AAUSat-4_Orbit ;", "AAUSat-4"),  # another fact follows
     ("t:is_registered_Country_in_UN_Register_of_Space_Objects_for", "i:AAUSat-4 .", "Denmark")],
    ids=["followed-by-a-fact", "last-fact"],
)
def test_fact_on_owl_named_individual_names_its_own_line(predicate, golden_object, subject):
    golden = (FIXTURES / "one_satellite.ttl").read_text(encoding="utf-8")
    head, found, tail = golden.partition(f"{predicate} {golden_object}")
    assert found
    with pytest.raises(UnsupportedConstruct) as err:
        import_turtle(f"{head}{predicate} owl:NamedIndividual {golden_object[-1]}{tail}")
    assert str(err.value) == (f"line {head.count(chr(10)) + 1}: object owl:NamedIndividual of "
                              f"{predicate} on instance {subject}")


GOLDEN_COSPAR = 't:has_COSPAR_number "2016-025E"'


@pytest.mark.parametrize(
    "escaped, value",
    [(r"\u0041x", "Ax"), (r"\U00000041x", "Ax"), (r"a\bx", "a\bx"),
     (r"\t\b\n\r\f\"\'\\", "\t\b\n\r\f\"'\\"), (r"é\U0001F6F0\\u0041", "é\U0001F6F0\\u0041")],
    ids=["uchar-4", "uchar-8", "backspace", "every-echar", "non-bmp-and-escaped-backslash"],
)
def test_a_string_reads_turtles_escapes(escaped, value):
    golden = (FIXTURES / "one_satellite.ttl").read_text(encoding="utf-8")
    head, found, tail = golden.partition(GOLDEN_COSPAR)
    assert found
    store = import_turtle(f'{head}t:has_COSPAR_number "{escaped}"{tail}')
    assert [a.object.value for a in store.assertions()
            if a.predicate.name == "has_COSPAR_number"] == [value]


@pytest.mark.parametrize("escaped", [r"a\qx", r"\a", r"\uD800", r"\U0000DFFF", r"\U00110000",
                                     r"\u004", r"\x41"])
def test_any_other_escape_names_the_line(escaped):
    golden = (FIXTURES / "one_satellite.ttl").read_text(encoding="utf-8")
    head, found, tail = golden.partition(GOLDEN_COSPAR)
    assert found
    with pytest.raises(TurtleParseError, match=r"bad escape \\") as err:
        import_turtle(f'{head}t:has_COSPAR_number "{escaped}"{tail}')
    assert err.value.line == head.count("\n") + 1


@pytest.mark.parametrize("body", ["a\rx", "\r", "ax\r"], ids=["inside", "alone", "last"])
def test_a_raw_carriage_return_in_a_string_names_the_line(body):
    # W3C Turtle's STRING_LITERAL_QUOTE excludes a raw CR, as it does a raw LF;
    # the writer escapes both, so only a file written elsewhere holds one
    golden = (FIXTURES / "one_satellite.ttl").read_text(encoding="utf-8")
    head, found, tail = golden.partition(GOLDEN_COSPAR)
    assert found
    with pytest.raises(TurtleParseError, match="raw line feed or carriage return") as err:
        import_turtle(f'{head}t:has_COSPAR_number "{body}"{tail}')
    assert err.value.line == head.count("\n") + 1
    assert import_turtle(f'{head}t:has_COSPAR_number "{body}"{tail}'.replace("\r", "\\r"))


def test_a_percent_escape_that_is_not_utf8_in_an_instance_iri_names_the_line():
    golden = (FIXTURES / "one_satellite.ttl").read_text(encoding="utf-8")
    good = "<https://satkg.example/inst#Good%C3%A9%2FName> a owl:NamedIndividual .\n"
    store = import_turtle(golden + good)
    assert "Goodé/Name" in {term.name for term in store.instances}
    assert good in export_turtle(store)  # a fixed point
    for bad in ("Bad%FFName", "Bad%C3Name", "Bad%C3%28", "Bad%ED%A0%80"):  # the last a surrogate
        with pytest.raises(TurtleParseError, match="not UTF-8") as err:
            import_turtle(f"{golden}<https://satkg.example/inst#{bad}> a owl:NamedIndividual .\n")
        assert err.value.line == golden.count("\n") + 1


def test_an_instance_iri_reads_only_in_the_form_the_writer_emits():
    # RDF compares IRIs as strings, so two spellings of one name would be two
    # nodes read as one instance; only quote(name, safe="") of the name reads
    golden = (FIXTURES / "one_satellite.ttl").read_text(encoding="utf-8")
    upper = "<https://satkg.example/inst#a%2Fb> a owl:NamedIndividual .\n"
    with pytest.raises(TurtleParseError, match="a%2Fb>$") as err:
        import_turtle(golden + upper + "<https://satkg.example/inst#a%2fb> a owl:NamedIndividual .\n")
    assert err.value.line == golden.count("\n") + 2
    assert "a/b" in {term.name for term in import_turtle(golden + upper).instances}
    for bad in ("a%ZZb", "é", "a(b", "a%2Bb%2b"):
        with pytest.raises(TurtleParseError, match="not in the form the writer emits") as err:
            import_turtle(f"{golden}<https://satkg.example/inst#{bad}> a owl:NamedIndividual .\n")
        assert err.value.line == golden.count("\n") + 1


@pytest.mark.parametrize(
    "statement, error, message",
    [("i: a owl:NamedIndividual .", InvalidTermName, "invalid term name '' for kind instance"),
     ("<https://satkg.example/inst#a%20b> a owl:NamedIndividual .", InvalidTermName,
      "invalid term name 'a b' for kind instance"),
     ("i:AAUSat-4 t:has_Orbit i: .", InvalidTermName, "invalid term name '' for kind instance"),
     ("i:x t:instance_of i:AAUSat-4 .", TypeMismatch, "instance_of expects a class object"),
     ('i:x t:instance_of "Orbit" .', TypeMismatch, "instance_of expects a class object"),
     ("i:x t:has_Orbit t:Orbit .", UnsupportedConstruct, "object t:Orbit of t:has_Orbit on instance x"),
     ("i:x t:instance_of t:Orbit .", UnsupportedConstruct,
      "object t:Orbit of t:instance_of on instance x")],
    ids=["bare-i", "blank-in-name", "bare-i-object", "instance-of-instance",
         "instance-of-literal", "class-object", "instance-of-class"],
)
def test_an_instance_defect_raises_at_its_token(statement, error, message):
    golden = (FIXTURES / "one_satellite.ttl").read_text(encoding="utf-8")
    with pytest.raises(error) as err:
        import_turtle(f"{golden}{statement}\n")
    assert type(err.value) is error
    assert str(err.value) == f"line {golden.count(chr(10)) + 1}: {message}"


_DECLARED = _GOLDEN[:re.search(r"\n(?=i:|<)", _GOLDEN).end()]  # the golden file's declarations


def test_undeclared_instances_are_made_in_the_order_the_file_first_names_them():
    store = import_turtle(_DECLARED + "i:x t:has_Orbit i:y .\ni:z a t:Orbit .\n")
    assert [term.name for term in store.instances] == ["x", "y", "z"]
    store = import_turtle(_DECLARED + "i:y a owl:NamedIndividual .\n"
                          "i:x t:has_Orbit i:y .\ni:z a t:Orbit .\n")
    assert [term.name for term in store.instances] == ["y", "x", "z"]  # declared ones first


def test_a_defect_the_reader_sees_is_raised_before_a_refused_earlier_fact():
    # the store would refuse the typing first (typings lead the batch), but the
    # reader stops at the later object, which is no instance or literal
    text = _DECLARED + "i:x a t:Nope .\ni:y t:has_Orbit t:Orbit .\n"
    with pytest.raises(UnsupportedConstruct) as err:
        import_turtle(text)
    assert str(err.value).startswith(f"line {text.count(chr(10))}: object t:Orbit")
    with pytest.raises(UnknownTerm, match=f"^line {text.count(chr(10)) - 1}: class 'Nope'"):
        import_turtle(_DECLARED + "i:x a t:Nope .\ni:y t:has_Orbit i:x .\n")
