"""Deterministic complexity checks; no timing is involved.

Store rows read per catalog row stay flat: counts the rows returned by the
scanning reads of ``InstanceStore`` (``instances``,
``assertions_with_predicate`` and ``facts_with_predicate``) while
classifying, validating and answering one bound-subject join, on catalogs of
200 and 800 rows.  A scan per orbit or per binding would make the count per
row grow with the catalog.

The readers build no ``Assertion`` and each term once: counts ``Assertion``
and ``TermId`` constructions inside ``ingest`` and ``import_turtle``, against
zero and the distinct names; the catalog repeats typings and other facts.

The writer builds each instance's reference once: counts
``turtle._instance_ref`` calls inside ``export_turtle`` against the store's
instances, which are named more often than that as subjects and objects.

A stored fact is hashed without a Python frame: counts ``Assertion``,
``TermId`` and ``Literal`` ``__hash__`` calls inside ``import_turtle``, none
but one per stored literal-valued fact, and the Python frames one ``TermId``
construction runs (its ``__init__`` alone).

An imported fact holds few objects the collector tracks and few bytes: over
one import of the classified 800-row export, counts the objects
``gc.get_objects`` gains after a full collection and the bytes
``tracemalloc`` holds after the import, per stored assertion.

The Turtle reader reads a statement piece per regex match: counts the
matches of ``turtle._PIECE_RE`` over one cold import of the 800-row reified
export against the triples it holds, at most 1.1 per triple (a reader of one
token per match makes about three).

Joins and negations over many rows read each index once: counts the
per-instance reads (``assertions_about``, ``assertions_with_object`` and
their ``facts_*`` twins) inside
``evaluate`` for the benchmark's join and negation shapes, on catalogs of 200
and 800 rows.  A probe per row would make the count grow with the catalog.

A typing with a variable class closes the types of the joined rows only:
counts ``all_types_of`` calls inside ``evaluate`` when more than a fifth of
the store's instances are joined.  Closing every instance's types would
exceed one call per row.

Answers are keyed without a Python call per term: counts ``TermId.__hash__``
calls inside ``evaluate`` for a typing with a free subject over a class with
subclasses, whose instances typed by two of them are kept once, and the
``lexical_form`` calls for a two-variable range query, whose answers are
sorted by their texts; none when the answers' first column tells them apart.

The store builds each view once per write and class graph: records the keys
``InstanceStore._view`` builds under over two evaluations of a range, a
negation and a typing query, with a write between them, and with a class
placed under the negation's typed class, which rebuilds its typing view only.
A class holds one typing view: counts the views keyed by a set of classes
after each of six edits below the queried class, each followed by the query.

Classification and validation read each predicate index a fixed number of
times: counts the calls of the store's index reads (``assertions_about``,
``assertions_with_object``, ``assertions_with_predicate`` and their
``facts_*`` twins) inside ``classify_orbits`` and ``validate`` on catalogs of
200 and 800 rows, which are not all zero.  A read per orbit would make the
count grow with the catalog.

The five store builders run with automatic garbage collection paused: counts
the collections that start inside each (through ``gc.callbacks``) on a
catalog of 200 rows, where the unpaused function starts at least one; checks
that each leaves ``gc.isenabled()`` as it found it, on success and on error;
and counts what ``gc.collect()`` finds after each pipeline stage run with
collection off, on a catalog whose rows refuse facts.

A process reads each declaration block once: counts ``turtle._ontology``
calls over two imports of one file, and a third of the file with one facet
edited, which misses.  The memo stays bounded: after six distinct declaration
blocks it holds the last four.  Its entries are not shared with the stores:
changing a store's ontology (``apply_overlay``) leaves the next import of the
file as it was.  Four threads importing both modes' exports at once get the
stores and exports of reads with the memo emptied.  Declarations that do not
read alone (the first instance line indented) are read once too: counts
``turtle._read`` calls over two imports of such a file, three with the empty
prefix's entry memoized where each import would read the prefix again.

A process renders each ontology's declarations once and resolves each of its
names once: over ten 25-row catalogs through the CLI chain in one process,
counts ``turtle._schema_blocks`` calls, one per catalog after the first (its
merged ontology), and the ``Ontology.prop`` and ``Ontology.cls`` calls inside
``InstanceStore.write``, which after the first catalog only ``apply_mapping``'s
typings under the merged ontology make.
"""

import csv
import gc
import inspect
import io
import re
import sys
import threading
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import pytest

from satkg import (
    Assertion,
    InstanceStore,
    Literal,
    MappingEntry,
    MappingKind,
    ModelingMode,
    Ontology,
    Semantics,
    TermId,
    TermKind,
    apply_mapping,
    apply_overlay,
    build_mapping,
    build_ucsso,
    class_term,
    classify_orbits,
    evaluate,
    export_turtle,
    import_turtle,
    ingest,
    materialize,
    parse_csv,
    parse_overlay,
    parse_query,
    validate,
)
from satkg import query, turtle
from satkg.core import lexical_form
from satkg.ingest import resolve_record

from conftest import FIXTURES, ingest_fixture


def repeated_catalog(rows: int) -> bytes:
    """The fixture's rows repeated up to ``rows``, names made unique per copy."""
    with open(FIXTURES / "ucs_sample.csv", newline="", encoding="utf-8") as f:
        header, *sample = list(csv.reader(f))
    name = header.index("Name of Satellite")
    alternates = header.index("Alternate Names")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for i in range(rows):
        row = list(sample[i % len(sample)])
        copy = i // len(sample)
        row[name] = f"{row[name]}-c{copy}"
        if row[alternates]:
            row[alternates] = ", ".join(
                f"{alt.strip()}-c{copy}" for alt in row[alternates].split(",")
            )
        writer.writerow(row)
    return out.getvalue().encode("utf-8")


def rows_read(monkeypatch, rows: int) -> int:
    mode = ModelingMode.REIFIED
    store, report = ingest(parse_csv(repeated_catalog(rows)), mode, build_ucsso(mode))
    assert report.rows_ingested == rows

    count = [0]
    instances = InstanceStore.instances.fget

    def counted_instances(self):
        out = instances(self)
        count[0] += len(out)
        return out

    def counted(read):
        def wrapper(self, name):
            out = read(self, name)
            count[0] += len(out)
            return out
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(InstanceStore, "instances", property(counted_instances))
        for read in ("assertions_with_predicate", "facts_with_predicate"):
            patch.setattr(InstanceStore, read, counted(getattr(InstanceStore, read)))
        classified = classify_orbits(store, mode)
        validate(classified)
        join = parse_query(
            "select ?e where { AAUSat-4-c0 has_Orbit ?o . ?o has_Orbital_Eccentricity ?p . "
            "?p has_Orbital_Eccentricity_value ?e }",
            classified.ontology,
        )
        assert len(evaluate(join, classified)) == 1
    return count[0]


@pytest.mark.parametrize("small, large", [(200, 800)])
def test_rows_read_per_catalog_row_stay_flat(monkeypatch, small, large):
    per_row = {rows: rows_read(monkeypatch, rows) / rows for rows in (small, large)}
    assert per_row[large] <= 1.25 * per_row[small], per_row
    assert per_row[small] > 1, per_row  # the reads are counted: each orbit's values are read


@contextmanager
def constructions(monkeypatch):
    """Count the ``Assertion`` and ``TermId`` values built inside the block."""
    counts = {Assertion: 0, TermId: 0}
    with monkeypatch.context() as patch:
        for cls in counts:
            def counted(self, *args, _cls=cls, _init=cls.__init__):
                counts[_cls] += 1
                _init(self, *args)

            patch.setattr(cls, "__init__", counted)
        yield counts


@pytest.mark.parametrize("mode", list(ModelingMode))
def test_readers_build_no_assertion_and_one_term_per_name(monkeypatch, mode):
    records = parse_csv(repeated_catalog(200))
    ont = build_ucsso(mode)
    facts = [a for record in records
             for a in resolve_record(record, mode, ont, issues=[], notes=[])]
    # the catalog repeats both typings and other facts, which are found by their names
    repeats = len(facts) - len(set(facts))
    typing_repeats = sum(1 for a in facts if a.predicate.name == "instance_of") - len(
        {a for a in facts if a.predicate.name == "instance_of"})

    with constructions(monkeypatch) as built:
        store, report = ingest(records, mode, ont)
    names = len(store.instances) + len(ont.classes) + len(ont.properties)
    assert built[Assertion] == 0
    assert built[TermId] <= names
    assert repeats > typing_repeats > 0  # the catalog repeats both kinds of fact

    text = export_turtle(store)
    with constructions(monkeypatch) as built:
        back = import_turtle(text)
    assert back == store
    assert built[Assertion] == 0
    assert built[TermId] <= names


def test_export_builds_one_reference_per_instance(monkeypatch):
    store, _report = ingest(parse_csv(repeated_catalog(200)), ModelingMode.REIFIED,
                            build_ucsso(ModelingMode.REIFIED))
    links = sum(1 for a in store.assertions() if isinstance(a.object, TermId)
                and a.object.kind is TermKind.INSTANCE)
    count = [0]
    instance_ref = turtle._instance_ref

    def counted(name, ns):
        count[0] += 1
        return instance_ref(name, ns)

    with monkeypatch.context() as patch:
        patch.setattr(turtle, "_instance_ref", counted)
        text = export_turtle(store)
    assert links > len(store.instances) > 0  # a reference per mention would be more calls
    assert count[0] == len(store.instances), (count[0], len(store.instances))
    assert import_turtle(text) == store


def test_import_hashes_no_term_and_each_literal_once_and_a_term_runs_only_its_init(monkeypatch):
    store, _report = ingest(parse_csv(repeated_catalog(200)), ModelingMode.REIFIED,
                            build_ucsso(ModelingMode.REIFIED))
    text = export_turtle(classify_orbits(store, ModelingMode.REIFIED))
    count = {Assertion: 0, TermId: 0, Literal: 0}
    with monkeypatch.context() as patch:
        for cls in count:
            def counted(self, _cls=cls, _hash=cls.__hash__):
                count[_cls] += 1
                return _hash(self)

            patch.setattr(cls, "__hash__", counted)
        back = import_turtle(text)
    literal_facts = sum(1 for fact in back.facts() if type(fact[2]) is Literal)
    assert literal_facts > 0
    assert count == {Assertion: 0, TermId: 0, Literal: count[Literal]}, count
    assert count[Literal] <= literal_facts, (count[Literal], literal_facts)

    frames = []

    def profile(frame, event, _arg):
        if event == "call":
            frames.append(frame.f_code.co_name)

    kinds, terms, before = list(TermKind), [], sys.getprofile()
    sys.setprofile(profile)
    try:
        for kind in kinds:  # a loop, not a comprehension, which would be a frame of its own
            terms.append(TermId("x", kind))
    finally:
        sys.setprofile(before)
    assert len(set(terms)) == len(kinds)
    assert frames == ["__init__"] * len(kinds), frames


#: GC-tracked objects an imported store holds per stored assertion, after a
#: collection: the index lists, instance terms and literals; a name tuple
#: holding no tracked value is untracked by the collection.
TRACKED_PER_ASSERTION = 1.1
#: tracemalloc bytes an imported store holds per stored assertion: the fact
#: table, the subject, predicate and class indexes, the tuples, terms and literals.
BYTES_PER_ASSERTION = 230


@pytest.fixture(scope="module")
def imported_800():
    """Tracked objects and tracemalloc bytes per assertion of one import of the
    classified 800-row export, and whether it reads back as what was written."""
    store, _report = ingest(parse_csv(repeated_catalog(800)), ModelingMode.REIFIED,
                            build_ucsso(ModelingMode.REIFIED))
    classified = classify_orbits(store, ModelingMode.REIFIED)
    text = export_turtle(classified)
    import_turtle(text)  # the declarations are read once, before counting
    gc.collect()
    before = len(gc.get_objects())
    tracemalloc.start()
    try:
        back = import_turtle(text)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    gc.collect()
    count = back.assertion_count
    return (len(gc.get_objects()) - before) / count, held / count, back == classified


def test_an_imported_store_holds_few_tracked_objects_per_assertion(imported_800):
    per_assertion, _bytes, same = imported_800
    assert same
    assert per_assertion <= TRACKED_PER_ASSERTION, per_assertion


def test_an_imported_store_holds_few_bytes_per_assertion(imported_800):
    _tracked, per_assertion, same = imported_800
    assert same
    assert per_assertion <= BYTES_PER_ASSERTION, per_assertion


#: regex matches the Turtle reader makes per triple it reads: one statement
#: piece (up to three terms and their punctuation) per match
MATCHES_PER_TRIPLE = 1.1


def test_the_reader_makes_about_one_regex_match_per_triple(monkeypatch):
    mode = ModelingMode.REIFIED
    store, _report = ingest(parse_csv(repeated_catalog(800)), mode, build_ucsso(mode))
    text = export_turtle(store)
    turtle._read(text, None, {}, triples := [])
    matches = [0]
    regex = turtle._PIECE_RE

    class Counted:
        def findall(self, *args):
            found = regex.findall(*args)
            matches[0] += len(found)
            return found

    turtle._declarations.cache_clear()  # the declarations are read too, once
    with monkeypatch.context() as patch:
        patch.setattr(turtle, "_PIECE_RE", Counted())
        assert import_turtle(text) == store
    assert matches[0] <= MATCHES_PER_TRIPLE * len(triples), (matches[0], len(triples))


BENCH_JOIN = (
    "select ?s ?e where { ?s has_Orbit ?o . ?o instance_of Nearly_Circular_Orbit . "
    "?o has_Orbital_Eccentricity ?p . ?p has_Orbital_Eccentricity_value ?e . filter ?e <= 0.14 }"
)
NEGATION = "select ?s where { ?s instance_of Artificial_Satellite . not { ?s has_Launch_Site ?o } }"


def per_row_reads(monkeypatch, rows: int) -> dict:
    """Calls of the two per-instance reads of ``InstanceStore`` inside
    ``evaluate``, per query, on a classified catalog of ``rows`` rows."""
    mode = ModelingMode.REIFIED
    store, _report = ingest(parse_csv(repeated_catalog(rows)), mode, build_ucsso(mode))
    classified = classify_orbits(store, mode)
    calls = {}
    for text, semantics in ((BENCH_JOIN, Semantics.OPEN_WORLD),
                            (NEGATION, Semantics.CLOSED_WORLD)):
        ast = parse_query(text, classified.ontology, semantics)
        count = [0]

        def counted(read):
            def wrapper(self, name):
                count[0] += 1
                return read(self, name)
            return wrapper

        with monkeypatch.context() as patch:
            for read in ("assertions_about", "assertions_with_object", "facts_about",
                         "facts_with_object"):
                patch.setattr(InstanceStore, read, counted(getattr(InstanceStore, read)))
            answer = evaluate(ast, classified)
        assert len(answer) > 0, text
        calls[text] = count[0]
    return calls


def test_joins_and_negations_read_no_index_entry_per_row(monkeypatch):
    small, large = per_row_reads(monkeypatch, 200), per_row_reads(monkeypatch, 800)
    for text in small:
        assert large[text] <= small[text], (text, small[text], large[text])


ROW_TYPES = "select ?p ?c where { ?p instance_of Orbital_Property . ?p instance_of ?c }"


@pytest.mark.parametrize("rows", [200, 800])
def test_variable_class_typing_closes_the_types_of_the_rows_only(monkeypatch, rows):
    mode = ModelingMode.REIFIED
    store, _report = ingest(parse_csv(repeated_catalog(rows)), mode, build_ucsso(mode))
    ast = parse_query(ROW_TYPES, store.ontology)
    count = [0]
    all_types_of = InstanceStore.all_types_of

    def counted(self, name):
        count[0] += 1
        return all_types_of(self, name)

    with monkeypatch.context() as patch:
        patch.setattr(InstanceStore, "all_types_of", counted)
        answer = evaluate(ast, store)
    joined = len(set(answer.column("?p")))
    # the candidate estimate, one per instance, is at most five per row
    assert store.instance_count / 5 < joined < store.instance_count
    assert count[0] <= joined, (count[0], joined)


def classified_catalog(rows: int) -> InstanceStore:
    mode = ModelingMode.REIFIED
    store, _report = ingest(parse_csv(repeated_catalog(rows)), mode, build_ucsso(mode))
    return classify_orbits(store, mode)


def test_a_free_subject_typing_hashes_no_term(monkeypatch):
    store = classified_catalog(200)
    ast = parse_query("select ?s where { ?s instance_of Orbit }", store.ontology)
    assert len(store.ontology.subclasses_of("Orbit")) > 1
    count = [0]
    term_hash = TermId.__hash__

    def counted(self):
        count[0] += 1
        return term_hash(self)

    with monkeypatch.context() as patch:
        patch.setattr(TermId, "__hash__", counted)
        answer = evaluate(ast, store)
    assert len(answer) > 0
    assert count[0] == 0, (count[0], len(answer))


def test_a_range_query_computes_one_lexical_form_per_answer_row(monkeypatch):
    store = classified_catalog(200)
    ast = parse_query("select ?p ?v where { ?p has_Perigee_value ?v . filter ?v < 1000 }",
                      store.ontology)
    count = [0]

    def counted(value):
        count[0] += 1
        return lexical_form(value)

    with monkeypatch.context() as patch:
        patch.setattr(query, "lexical_form", counted)
        answer = evaluate(ast, store)
    assert len(answer) > 0
    assert count[0] <= len(answer), (count[0], len(answer))


def test_a_range_query_whose_first_column_tells_its_rows_apart_computes_no_lexical_form(
        monkeypatch):
    store = classified_catalog(200)
    ast = parse_query(VIEW_QUERIES["range"], store.ontology)
    count = [0]

    def counted(value):
        count[0] += 1
        return lexical_form(value)

    with monkeypatch.context() as patch:
        patch.setattr(query, "lexical_form", counted)
        answer = evaluate(ast, store)
    assert len(answer) > 1 and len(set(answer.column("?p"))) == len(answer)
    assert count[0] == 0, (count[0], len(answer))


VIEW_QUERIES = {
    "range": "select ?p ?v where { ?p has_Perigee_value ?v . filter ?v < 1000 }",
    "negation": "select ?s where { ?s instance_of Artificial_Satellite . "
                "not { ?s has_Operator ?o } }",
    "typing": "select ?s where { ?s instance_of Orbit }",
}


def views_built(monkeypatch, store: InstanceStore, ast) -> list:
    """The keys of the views the store builds inside one ``evaluate``: a
    predicate's name for its pairs, a set of classes for their instances."""
    built = []
    view = InstanceStore._view

    def counted(self, key, build, *args):
        def counting(*args):
            if isinstance(key, (str, frozenset)):  # not the indexes, keyed 1, 2 and None
                built.append(key)
            return build(*args)
        return view(self, key, counting, *args)

    with monkeypatch.context() as patch:
        patch.setattr(InstanceStore, "_view", counted)
        assert len(evaluate(ast, store)) > 0
    return built


def view_query(shape: str) -> tuple:
    store = classified_catalog(200)
    return store, parse_query(VIEW_QUERIES[shape], store.ontology, Semantics.CLOSED_WORLD)


@pytest.mark.parametrize("shape", VIEW_QUERIES)
def test_two_evaluations_build_each_view_once(monkeypatch, shape):
    store, ast = view_query(shape)
    built = views_built(monkeypatch, store, ast)
    assert built and len(set(built)) == len(built), built
    assert views_built(monkeypatch, store, ast) == []


@pytest.mark.parametrize("shape", VIEW_QUERIES)
def test_a_write_between_two_evaluations_rebuilds_the_views(monkeypatch, shape):
    store, ast = view_query(shape)
    built = views_built(monkeypatch, store, ast)
    store.add_instance("Extra_Orbit")
    store.write([("Extra_Orbit", "instance_of", "Orbit")])
    assert views_built(monkeypatch, store, ast) == built


def test_a_class_graph_edge_under_the_queried_class_rebuilds_only_its_typing_view(monkeypatch):
    store, ast = view_query("negation")
    ontology = store.ontology
    built = views_built(monkeypatch, store, ast)
    assert built == [ontology.subclasses_of("Artificial_Satellite"), "has_Operator"]
    ontology.define_class("Drifting_Satellite")
    assert views_built(monkeypatch, store, ast) == []
    ontology.add_parent("Drifting_Satellite", "Artificial_Satellite")
    rebuilt = views_built(monkeypatch, store, ast)
    assert rebuilt == [ontology.subclasses_of("Artificial_Satellite")] != built[:1]
    assert "Drifting_Satellite" in rebuilt[0]


def test_a_class_holds_one_typing_view_through_edits_below_it():
    store, ast = view_query("typing")
    ontology = store.ontology
    first = evaluate(ast, store).to_csv()
    for k in range(6):
        if k < 5:  # five empty classes, then one with instances, placed under Orbit
            ontology.define_class(f"Drift_{k}_Orbit")
        ontology.add_parent(f"Drift_{k}_Orbit" if k < 5 else "Artificial_Satellite", "Orbit")
        answer = evaluate(ast, store).to_csv()
        assert [key for key in store._views if isinstance(key, frozenset)] == [
            ontology.subclasses_of("Orbit")]
        assert answer == evaluate(ast, store.copy()).to_csv()  # a copy holds no view
        assert (answer == first) == (k < 5)


STORE_READS =("assertions_about", "assertions_with_object", "assertions_with_predicate",
               "facts_about", "facts_with_object", "facts_with_predicate")


def reasoner_reads(monkeypatch, mode: ModelingMode, rows: int) -> dict:
    """Calls of each of the store's index reads inside ``classify_orbits``
    and ``validate`` on a catalog of ``rows`` rows."""
    store, _report = ingest(parse_csv(repeated_catalog(rows)), mode, build_ucsso(mode))
    calls = dict.fromkeys(STORE_READS, 0)

    def counted(name, read):
        def wrapper(self, *args):
            calls[name] += 1
            return read(self, *args)
        return wrapper

    with monkeypatch.context() as patch:
        for name in STORE_READS:
            patch.setattr(InstanceStore, name, counted(name, getattr(InstanceStore, name)))
        validate(classify_orbits(store, mode))
    return calls


@pytest.mark.parametrize("mode", list(ModelingMode))
def test_reasoner_index_reads_do_not_grow_with_rows(monkeypatch, mode):
    small, large = reasoner_reads(monkeypatch, mode, 200), reasoner_reads(monkeypatch, mode, 800)
    assert small == large, (small, large)
    assert sum(small.values()) > 0, small  # the reads are counted


def builder_calls(rows: int) -> list:
    """Each of the five store builders with good arguments, on a catalog of ``rows`` rows."""
    mode = ModelingMode.REIFIED
    records = parse_csv(repeated_catalog(rows))
    store, _report = ingest(records, mode, build_ucsso(mode))
    classified = classify_orbits(store, mode)
    return [
        (ingest, (records, mode, build_ucsso(mode))),
        (import_turtle, (export_turtle(classified),)),
        (classify_orbits, (store, mode)),
        (materialize, (classified,)),
        (apply_mapping, (classified, build_mapping())),
    ]


@contextmanager
def collections_started():
    """Count the automatic garbage collections that start inside the block."""
    count = [0]

    def counted(phase, _info):
        count[0] += phase == "start"

    gc.collect(0)  # the young generation starts the block empty
    gc.callbacks.append(counted)
    try:
        yield count
    finally:
        gc.callbacks.remove(counted)


def test_no_collection_starts_inside_a_store_builder():
    assert gc.isenabled()
    for builder, args in builder_calls(200):
        with collections_started() as unpaused:  # the function ``functools.wraps`` wrapped
            getattr(builder, "__wrapped__", builder)(*args)
        with collections_started() as paused:
            builder(*args)
        # the catalog is large enough that the unpaused builder collects
        assert unpaused[0] > 0, builder.__name__
        assert paused[0] == 0, (builder.__name__, paused[0])


def test_a_store_builder_leaves_automatic_collection_as_it_found_it():
    calls = builder_calls(11)
    records, store = calls[0][1][0], calls[2][1][0]  # ingest's records, classify's store
    dangling = MappingEntry(class_term("Nope"), class_term("Satellite"), MappingKind.EQUIVALENT)
    failing = [
        (ingest, (records, ModelingMode.REIFIED, Ontology())),  # no class it names
        (import_turtle, ("@prefix t: <https://satkg.example/terms#> .\nt:A t:B .\n",)),
        (classify_orbits, (store, ModelingMode.DIRECT)),  # the mode of another schema
        (materialize, (None,)),
        (apply_mapping, (store, [dangling])),
    ]
    assert [list(inspect.signature(builder).parameters) for builder, _args in calls] == [
        ["records", "mode", "ont"], ["data"], ["store", "mode"], ["store"],
        ["store", "entries", "reference"]]
    assert all(builder.__doc__ for builder, _args in calls)
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for builder, args in calls:
                builder(*args)
                assert gc.isenabled() is enabled, builder.__name__
            for builder, args in failing:
                with pytest.raises(Exception):
                    builder(*args)
                assert gc.isenabled() is enabled, builder.__name__
    finally:
        gc.enable()


def test_a_paused_pipeline_leaves_no_cyclic_garbage():
    mode = ModelingMode.REIFIED
    data = repeated_catalog(200)
    left: list = []  # (stage, what gc.collect() found after it)

    def stage(name, value):
        left.append((name, gc.collect()))
        return value

    gc.collect()
    gc.disable()
    try:
        records = stage("parse_csv", parse_csv(data))
        store, report = stage("ingest", ingest(records, mode, build_ucsso(mode)))
        loaded = stage("import_turtle", import_turtle(stage("export_turtle", export_turtle(store))))
        classified = stage("classify_orbits", classify_orbits(loaded, mode))
        stage("validate", validate(classified))
        stage("materialize", materialize(classified))
        mapped = stage("apply_mapping", apply_mapping(classified, build_mapping()))
        stage("export_turtle", export_turtle(mapped))
    finally:
        gc.enable()
    assert report.violations  # ingest refused facts, each kept with its error
    assert all(found == 0 for _name, found in left), left


def fixture_export(mode: ModelingMode) -> str:
    return export_turtle(ingest_fixture(parse_csv((FIXTURES / "ucs_sample.csv").read_bytes()),
                                        mode)[0])


def test_a_process_builds_each_declaration_block_once(monkeypatch):
    text = fixture_export(ModelingMode.DIRECT)
    calls = [0]
    build = turtle._ontology

    def counted(terms):
        calls[0] += 1
        return build(terms)

    monkeypatch.setattr(turtle, "_ontology", counted)
    turtle._declarations.cache_clear()
    first, second = import_turtle(text), import_turtle(text)
    assert calls[0] == 1
    assert first == second and first.ontology is not second.ontology
    edited = text.replace('v:maxValue "1"^^xsd:decimal', 'v:maxValue "2"^^xsd:decimal', 1)
    assert edited != text
    assert import_turtle(edited).ontology != first.ontology
    assert calls[0] == 2


def test_the_memo_keeps_the_last_four_declaration_blocks():
    head, gap, tail = fixture_export(ModelingMode.DIRECT).partition("\n\n")
    texts = [f"{head}{gap}t:Extra_{k} a owl:Class .{gap}{tail}" for k in range(6)]
    turtle._declarations.cache_clear()
    for k, text in enumerate(texts):
        assert f"Extra_{k}" in import_turtle(text).ontology.classes
    kept = []
    for k in reversed(range(6)):  # newest first, so no probe's miss evicts a block not yet probed
        misses = turtle._declarations.cache_info().misses
        turtle._declarations(texts[k][:turtle._INSTANCES.search(texts[k]).end()])
        if turtle._declarations.cache_info().misses == misses:
            kept.append(k)
    assert turtle._MEMO_SIZE == 4 and sorted(kept) == [2, 3, 4, 5]


def test_changing_a_stores_ontology_leaves_the_next_import_as_it_was():
    text = fixture_export(ModelingMode.REIFIED)
    first = import_turtle(text)
    apply_overlay(first.ontology, parse_overlay("class Drift_Orbit < Orbit\n"))
    first.ontology.define_alias("Track", "Orbit")
    second = import_turtle(text)
    assert "Drift_Orbit" not in second.ontology.subclasses_of("Orbit")
    assert "Track" not in second.ontology.aliases
    assert export_turtle(second) == text


def test_concurrent_imports_equal_cold_reads():
    texts = [fixture_export(mode) for mode in ModelingMode] * 3
    cold = []
    for text in texts:
        turtle._declarations.cache_clear()
        cold.append(import_turtle(text))
    turtle._declarations.cache_clear()
    start = threading.Barrier(4)
    results: dict = {}

    def read(worker: int) -> None:
        start.wait()
        results[worker] = [import_turtle(text) for text in texts[worker % 2:] + texts[:worker % 2]]

    threads = [threading.Thread(target=read, args=(worker,)) for worker in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert gc.isenabled() and sorted(results) == [0, 1, 2, 3]
    for worker, stores in results.items():
        expected = cold[worker % 2:] + cold[:worker % 2]
        assert stores == expected
        assert [export_turtle(s) for s in stores] == [export_turtle(s) for s in expected]


def test_declarations_that_do_not_read_alone_are_read_once(monkeypatch):
    text = fixture_export(ModelingMode.DIRECT)
    cut = re.search(r"\n(?=i:|<)", text).end()
    text = f"{text[:cut]} {text[cut:]}"  # the first instance statement joins the prefix
    calls = [0]
    read = turtle._read

    def counted(*args):
        calls[0] += 1
        return read(*args)

    turtle._declarations.cache_clear()
    turtle._declarations("")
    monkeypatch.setattr(turtle, "_read", counted)
    first, second = import_turtle(text), import_turtle(text)
    assert calls[0] == 3  # the prefix once, then each whole text
    assert first == second and export_turtle(first) == export_turtle(second)


def test_a_process_renders_and_resolves_each_schema_once(monkeypatch):
    mode, data = ModelingMode.DIRECT, repeated_catalog(25)
    renders, resolved = [0], Counter()
    where = [None, "chain"]  # inside a write, and the step running
    blocks, write = turtle._schema_blocks, InstanceStore.write

    def rendered(ont):
        renders[0] += 1
        return blocks(ont)

    def written(self, facts):
        where[0] = where[1]
        try:
            return write(self, facts)
        finally:
            where[0] = None

    def resolving(read):
        def wrapper(self, name):
            if where[0] is not None:
                resolved[where[0]] += 1
            return read(self, name)
        return wrapper

    def one_catalog() -> str:  # load, classify, validate and map, each file read back
        store, _report = ingest(parse_csv(data), mode, build_ucsso(mode))
        loaded = import_turtle(export_turtle(store))
        reloaded = import_turtle(export_turtle(classify_orbits(loaded, mode)))
        validate(reloaded)
        where[1] = "apply_mapping"
        mapped = apply_mapping(reloaded, build_mapping())
        where[1] = "chain"
        return export_turtle(mapped)

    monkeypatch.setattr(turtle, "_schema_blocks", rendered)
    monkeypatch.setattr(InstanceStore, "write", written)
    monkeypatch.setattr(Ontology, "prop", resolving(Ontology.prop))
    monkeypatch.setattr(Ontology, "cls", resolving(Ontology.cls))
    turtle._declarations.cache_clear()
    first = one_catalog()
    assert renders[0] <= 3 and resolved["chain"] > 0  # UCSSO, the imported and the merged
    for _ in range(9):
        renders[0] = 0
        resolved.clear()
        assert one_catalog() == first
        assert renders[0] == 1 and resolved["chain"] == 0 and resolved["apply_mapping"] > 0
