from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satkg import (
    InstanceStore,
    Literal,
    ModelingMode,
    QueryAst,
    Semantics,
    TriplePattern,
    Variable,
    build_ucsso,
    classify_orbits,
    evaluate,
    format_query,
    parse_query,
)
from satkg.errors import (
    NegationUnderOpenWorld,
    QuerySyntaxError,
    SatkgError,
    UnknownTermInQuery,
    UnsafeVariable,
)

from conftest import mangled

ONT = build_ucsso(ModelingMode.DIRECT)


def three_satellite_store() -> InstanceStore:
    store = InstanceStore(ONT)
    for name in ("Alpha", "Beta", "Gamma"):
        store.add_instance(name)
        store.assert_fact(name, "instance_of", "Artificial_Satellite")
    store.add_instance("OpX")
    store.assert_fact("OpX", "instance_of", "Operator")
    store.assert_fact("Alpha", "has_Operator", "OpX")
    store.assert_fact("Beta", "has_Operator", "OpX")
    return store


# ------------------------------------------------------------------ parsing

def test_parse_patterns_filters_and_vars():
    ast = parse_query(
        "select ?s where { ?s instance_of Earth_Observing_Satellite . "
        "?s has_Orbital_Eccentricity_value ?e . filter ?e <= 0.14 }",
        ONT,
    )
    assert ast.select_vars == ["?s"]
    assert len(ast.patterns) == 2
    assert len(ast.filters) == 1
    f = ast.filters[0]
    assert (f.variable, f.comparator, f.bound) == ("?e", "<=", Decimal("0.14"))


def test_empty_pattern_block_is_a_syntax_error():
    with pytest.raises(QuerySyntaxError):
        parse_query("select ?s where { }", ONT)


def test_syntax_error_carries_position():
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("select ?s where\n{ ?s }", ONT)
    assert err.value.line == 2


@pytest.mark.parametrize("text, position", [
    ("select ?x where {\n  ?x has_Orbit ?y .\n  ?y has_Apogee $ }", (3, 17)),
    ("select ?x where { ?x has_Orbit ?y . filter ?y ~ 3 }", (1, 47)),
    ("select ?x where {\n\t?x has_Orbit ?y", (2, 17)),
    ("select where { ?x has_Orbit ?y }", (1, 8)),
    ("select ?x where { ?x has_Orbit ?y } extra", (1, 37)),
    # the line break inside the string constant counts: '$' opens line 2
    ('select ?x where { ?x has_Satellite_Comment "a\nb" $ }', (2, 4)),
])
def test_syntax_errors_name_their_line_and_column(text, position):
    for ontology in (ONT, None):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(text, ontology)
        assert (err.value.line, err.value.column) == position


def test_unknown_predicate_is_rejected():
    with pytest.raises(UnknownTermInQuery):
        parse_query("select ?s where { ?s has_Bogus ?x }", ONT)


def test_unknown_class_is_rejected():
    with pytest.raises(UnknownTermInQuery):
        parse_query("select ?s where { ?s instance_of Bogus_Class }", ONT)


def test_an_unknown_term_names_its_line_and_column():
    text = ("select ?s\n"
            "where {\n"
            "  ?s instance_of Artificial_Satellite .\n"
            "  ?s  has_Bogus ?x .\n"
            "  ?x instance_of   Bogus_Class }")
    with pytest.raises(UnknownTermInQuery) as err:
        parse_query(text, ONT)
    assert (err.value.line, err.value.column) == (4, 7)
    assert str(err.value) == "4:7: property 'has_Bogus' not in ontology"
    with pytest.raises(UnknownTermInQuery) as err:
        parse_query(text.replace("has_Bogus", "has_Operator"), ONT)
    assert (err.value.line, err.value.column) == (5, 20)
    assert str(err.value) == "5:20: class 'Bogus_Class' not in ontology"


def test_an_unknown_term_found_by_evaluate_has_no_location():
    ast = parse_query("select ?s where { ?s has_Bogus ?x }")
    with pytest.raises(UnknownTermInQuery) as err:
        evaluate(ast, three_satellite_store())
    assert (err.value.line, err.value.column) == (None, None)
    assert str(err.value) == "property 'has_Bogus' not in ontology"


def test_unsafe_variables_are_rejected():
    with pytest.raises(UnsafeVariable):
        parse_query("select ?x where { ?s instance_of Orbit }", ONT)
    with pytest.raises(UnsafeVariable):
        parse_query("select ?s where { ?s instance_of Orbit . filter ?e < 1 }", ONT)
    with pytest.raises(UnsafeVariable):
        parse_query(
            "select ?s where { ?s instance_of Orbit . not { ?a has_Operator ?b } }",
            ONT,
            Semantics.CLOSED_WORLD,
        )


def test_negation_may_introduce_local_variables():
    ast = parse_query(
        "select ?s where { ?s instance_of Artificial_Satellite . "
        "not { ?s has_Operator ?o } }",
        ONT,
        Semantics.CLOSED_WORLD,
    )
    assert len(ast.negations) == 1


def test_string_literals_in_patterns():
    ast = parse_query(
        'select ?s where { ?s has_COSPAR_number "2016-025E" }', ONT
    )
    assert ast.patterns[0].object == Literal("2016-025E")


def test_printer_round_trip_is_stable():
    queries = [
        "select ?s where { ?s instance_of Orbit }",
        "select ?s ?e where { ?s has_Orbital_Eccentricity_value ?e . filter ?e <= 0.14 }",
        'select ?s where { ?s has_COSPAR_number "2016-025E" }',
        "select ?s where { ?s instance_of Artificial_Satellite . not { ?s has_Operator ?o } }",
    ]
    for text in queries:
        first = parse_query(text, ONT, Semantics.CLOSED_WORLD)
        printed = format_query(first)
        second = parse_query(printed, ONT, Semantics.CLOSED_WORLD)
        assert format_query(second) == printed
        assert second.patterns == first.patterns
        assert second.filters == first.filters
        assert second.negations == first.negations


# --------------------------------------------------------------- evaluation

def test_join_on_shared_variable(direct_store):
    ast = parse_query(
        "select ?s ?o where { ?s has_Orbit ?o . ?o instance_of GEO_Orbit }",
        direct_store.ontology,
    )
    rows = evaluate(ast, direct_store).rows
    assert [(r["?s"].name, r["?o"].name) for r in rows] == [
        ("GSAT-19", "GSAT-19_Orbit"),
        ("OceanWatch_GEO", "OceanWatch_GEO_Orbit"),
    ]


def test_filter_on_numeric_binding(direct_store):
    ast = parse_query(
        "select ?s ?e where { ?s has_Orbit ?o . ?o has_Orbital_Eccentricity_value ?e . "
        "filter ?e <= 0.14 }",
        direct_store.ontology,
    )
    rows = evaluate(ast, direct_store).rows
    assert {r["?s"].name for r in rows} == {"AAUSat-4", "GSAT-19", "TerraWatch-2", "OceanWatch_GEO"}


def test_query_matches_classifier(direct_store):
    # cross-check: orbits answering the filter query are exactly the orbits
    # the classifier types as nearly circular
    classified = classify_orbits(direct_store, ModelingMode.DIRECT)
    ast = parse_query(
        "select ?o where { ?o instance_of Orbit . "
        "?o has_Orbital_Eccentricity_value ?e . filter ?e <= 0.14 }",
        direct_store.ontology,
    )
    answered = {r["?o"].name for r in evaluate(ast, direct_store).rows}
    typed = {
        t.name
        for t in classified.instances
        if "Nearly_Circular_Orbit" in classified.types_of(t.name)
        and "Orbit" in classified.all_types_of(t.name)
    }
    assert answered == typed


def test_subsumption_aware_typing_match(direct_store):
    broad = parse_query("select ?p where { ?p instance_of Purpose }", direct_store.ontology)
    rows = evaluate(broad, direct_store).rows
    names = {r["?p"].name for r in rows}
    assert "AAUSat-4_Purpose" in names  # typed Earth_Observation_Purpose only
    assert len(names) == 8  # every fixture purpose instance


def test_a_variable_class_binds_the_ontologys_own_class_terms(direct_store):
    ast = parse_query("select ?s ?c where { ?s instance_of ?c }", direct_store.ontology)
    classes = evaluate(ast, direct_store).column("?c")
    assert {c.name for c in classes} >= {"Artificial_Satellite", "Orbit", "Purpose"}
    assert all(c is direct_store.ontology.classes[c.name].id for c in classes)


def test_constant_subject_pattern(direct_store):
    ast = parse_query(
        "select ?e where { AAUSat-4_Orbit has_Orbital_Eccentricity_value ?e }",
        direct_store.ontology,
    )
    [row] = evaluate(ast, direct_store).rows
    assert row["?e"].value == Decimal("0.02")


def test_alias_predicate_resolves(direct_store):
    via_alias = parse_query("select ?s where { ?s has_Function ?p }", direct_store.ontology)
    direct = parse_query("select ?s where { ?s has_Purpose ?p }", direct_store.ontology)
    assert evaluate(via_alias, direct_store).rows == evaluate(direct, direct_store).rows


def test_closed_world_negation():
    store = three_satellite_store()
    ast = parse_query(
        "select ?s where { ?s instance_of Artificial_Satellite . not { ?s has_Operator ?o } }",
        ONT,
        Semantics.CLOSED_WORLD,
    )
    assert [r["?s"].name for r in evaluate(ast, store).rows] == ["Gamma"]


def test_negation_rejected_under_open_world():
    store = three_satellite_store()
    ast = parse_query(
        "select ?s where { ?s instance_of Artificial_Satellite . not { ?s has_Operator ?o } }",
        ONT,
        Semantics.CLOSED_WORLD,
    )
    ast.semantics = Semantics.OPEN_WORLD
    with pytest.raises(NegationUnderOpenWorld):
        evaluate(ast, store)


def test_closed_world_answers_shrink_with_new_facts():
    # non-monotonicity witness: adding the missing operator empties the answer
    store = three_satellite_store()
    ast = parse_query(
        "select ?s where { ?s instance_of Artificial_Satellite . not { ?s has_Operator ?o } }",
        ONT,
        Semantics.CLOSED_WORLD,
    )
    assert len(evaluate(ast, store)) == 1
    store.assert_fact("Gamma", "has_Operator", "OpX")
    assert len(evaluate(ast, store)) == 0


def test_open_world_answers_are_monotone(direct_store):
    ast = parse_query(
        "select ?s where { ?s instance_of Artificial_Satellite }", direct_store.ontology
    )
    before = {r["?s"].name for r in evaluate(ast, direct_store).rows}
    grown = direct_store.copy()
    grown.add_instance("Newcomer")
    grown.assert_fact("Newcomer", "instance_of", "Artificial_Satellite")
    after = {r["?s"].name for r in evaluate(ast, grown).rows}
    assert before <= after


def test_literal_binding_fails_instance_position(direct_store):
    # ?x ends up bound to a literal in the first pattern; the second pattern
    # needs an instance, so nothing joins
    ast = parse_query(
        "select ?s where { ?s has_NORAD_number ?x . ?x instance_of Orbit }",
        direct_store.ontology,
    )
    assert evaluate(ast, direct_store).rows == []


def test_rows_are_deduplicated_and_sorted(direct_store):
    ast = parse_query(
        "select ?c where { ?e has_Country_of_Origin ?c }", direct_store.ontology
    )
    rows = evaluate(ast, direct_store).rows
    names = [r["?c"].name for r in rows]
    assert names == sorted(set(names))


def test_csv_and_json_rendering():
    store = three_satellite_store()
    ast = parse_query("select ?s where { ?s has_Operator ?o }", ONT)
    result = evaluate(ast, store)
    assert result.to_csv() == "?s\nAlpha\nBeta\n"
    assert '"?s": "Alpha"' in result.to_json()


def test_variable_repr():
    assert str(Variable("?s")) == "?s"


def test_repeated_variable_requires_equal_values():
    store = InstanceStore(ONT)
    for name in ("A", "B", "C"):
        store.add_instance(name)
    store.assert_fact("A", "has_Operator", "B")
    ast = parse_query("select ?x where { ?x has_Operator ?x }", ONT)
    assert evaluate(ast, store).rows == []
    store.assert_fact("C", "has_Operator", "C")
    assert [r["?x"].name for r in evaluate(ast, store).rows] == ["C"]


def test_bound_literal_joins_only_the_same_term():
    store = InstanceStore(ONT)
    for name in ("O1", "O2", "O3"):
        store.add_instance(name)
    store.assert_fact("O1", "has_Perigee_value", Decimal("500"))
    store.assert_fact("O2", "has_Apogee_value", Decimal("500.0"))
    store.assert_fact("O3", "has_Apogee_value", Decimal("500"))
    store.assert_fact("O2", "has_Orbital_Inclination_value", Decimal("500"))
    # 500 and 500.0 are equal numbers but different terms
    same_unit = parse_query(
        "select ?o ?p where { ?o has_Perigee_value ?x . ?p has_Apogee_value ?x }", ONT
    )
    assert [(r["?o"].name, r["?p"].name) for r in evaluate(same_unit, store).rows] == [
        ("O1", "O3")
    ]
    # km and degrees: equal numbers, different terms
    other_unit = parse_query(
        "select ?o where { ?o has_Perigee_value ?x . ?p has_Orbital_Inclination_value ?x }", ONT
    )
    assert evaluate(other_unit, store).rows == []
    # a query literal carries no unit and matches either
    constant = parse_query("select ?o where { ?o has_Orbital_Inclination_value 500 }", ONT)
    assert [r["?o"].name for r in evaluate(constant, store).rows] == ["O2"]


def test_join_order_never_changes_a_literal_binding():
    store = InstanceStore(ONT)
    for name in ("i0", "i1"):
        store.add_instance(name)
    store.assert_fact("i0", "has_Perigee_value", Decimal("1"))
    store.assert_fact("i1", "has_Perigee_value", Decimal("1.0"))
    both = parse_query("select ?o ?x where { ?o has_Perigee_value ?x . ?p has_Perigee_value ?x }", ONT)
    assert [(r["?o"].name, str(r["?x"])) for r in evaluate(both, store).rows] == [
        ("i0", "1 km"),
        ("i1", "1.0 km"),
    ]
    # the planner runs the constant-subject pattern first; the answer is the
    # one of the written order
    pinned = parse_query("select ?x where { ?o has_Perigee_value ?x . i1 has_Perigee_value ?x }", ONT)
    assert [str(r["?x"]) for r in evaluate(pinned, store).rows] == ["1.0 km"]


# ------------------------------------------------------------ string codec

def test_escaped_backslash_constant_matches_the_stored_text():
    store = InstanceStore(ONT)
    store.add_instance("Alpha")
    store.assert_fact("Alpha", "has_Satellite_Comment", "a\\nb")  # a, backslash, n, b
    ast = parse_query('select ?s where { ?s has_Satellite_Comment "a\\\\nb" }', ONT)
    assert ast.patterns[0].object == Literal("a\\nb")
    assert [r["?s"].name for r in evaluate(ast, store).rows] == ["Alpha"]


def test_unknown_escape_reads_as_the_escaped_character():
    ast = parse_query('select ?s where { ?s has_Satellite_Comment "\\q" }', ONT)
    assert ast.patterns[0].object == Literal("q")


def test_turtle_escapes_decode_and_a_surrogate_reads_as_its_text():
    ast = parse_query(r'select ?s where { ?s has_Satellite_Comment "\u0041\U00000042\b\'\uD800" }', ONT)
    assert ast.patterns[0].object == Literal("AB\b'uD800")


@example("a\\nb")
@given(st.text())
def test_printer_round_trip_keeps_any_string_constant(text):
    pattern = TriplePattern(Variable("?s"), ONT.prop("has_Satellite_Comment").id, Literal(text))
    again = parse_query(format_query(QueryAst(["?s"], [pattern])), ONT)
    assert again.patterns == [pattern]


# ------------------------------------------------------------------ fuzzing

_VALID_QUERY = (
    'select ?s ?e where { ?s instance_of Earth_Observing_Satellite . ?s has_Operator OpX . '
    '?s has_Orbital_Eccentricity_value ?e . filter ?e <= 0.14 . filter ?e > -1 . '
    'not { ?s has_Satellite_Comment "a \\"b\\" \\q" } }'
)


@settings(max_examples=300, deadline=None)
@given(mangled(_VALID_QUERY) | st.text())
def test_any_query_text_parses_or_raises_a_satkg_error(text):
    store = three_satellite_store()
    for ontology, semantics in ((ONT, Semantics.CLOSED_WORLD), (None, Semantics.OPEN_WORLD)):
        try:
            evaluate(parse_query(text, ontology, semantics), store)
        except SatkgError:
            pass
