import io
import json

import pytest

from satkg import ModelingMode, classify_orbits, export_turtle, import_turtle
from satkg.cli import run_cli

from conftest import FIXTURES

CSV = FIXTURES / "ucs_sample.csv"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli([str(a) for a in argv], stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def store_file(tmp_path):
    path = tmp_path / "store.ttl"
    code, _out, err = run("load", "--mode", "direct", "--in", CSV, "--out", path)
    assert code == 0, err
    return path


def test_load_writes_store_and_report(tmp_path):
    store_path = tmp_path / "store.ttl"
    report_path = tmp_path / "report.jsonl"
    code, out, err = run(
        "load", "--mode", "direct", "--in", CSV,
        "--out", store_path, "--report", report_path,
    )
    assert code == 0, err
    assert store_path.exists() and report_path.exists()
    assert "ingested 10/10 rows" in out
    summary = json.loads(report_path.read_text().strip().splitlines()[-1])
    assert summary["kind"] == "summary"
    assert summary["assertions_created"] == 228
    # the written store parses back
    assert import_turtle(store_path.read_bytes()).assertion_count == 228


def test_load_reports_non_finite_cells(tmp_path):
    header, first, *_rest = CSV.read_text(encoding="utf-8").splitlines()
    columns = header.split(",")
    cells = first.split(",")
    cells[columns.index("Eccentricity")] = "NaN"
    cells[columns.index("Perigee (km)")] = "sNaN"
    bad = tmp_path / "nan.csv"
    bad.write_text(header + "\n" + ",".join(cells) + "\n", encoding="utf-8")
    report_path = tmp_path / "report.jsonl"
    code, _out, err = run(
        "load", "--mode", "reified", "--in", bad,
        "--out", tmp_path / "x.ttl", "--report", report_path,
    )
    assert code == 0, err
    findings = [json.loads(line) for line in report_path.read_text().splitlines()]
    flagged = {f["field"] for f in findings if f.get("code") == "unparsable_number"}
    assert flagged == {"Eccentricity", "Perigee (km)"}


def test_load_is_deterministic(tmp_path):
    a, b = tmp_path / "a.ttl", tmp_path / "b.ttl"
    run("load", "--mode", "reified", "--in", CSV, "--out", a)
    run("load", "--mode", "reified", "--in", CSV, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_load_malformed_csv_fails_operationally(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text('a,b\n"unbalanced,1\n')
    code, _out, err = run("load", "--in", bad, "--out", tmp_path / "x.ttl")
    assert code == 1
    assert "row 2" in err


def test_load_missing_file_is_operational_error(tmp_path):
    code, _out, err = run("load", "--in", tmp_path / "nope.csv", "--out", tmp_path / "x.ttl")
    assert code == 1
    assert "error:" in err


def test_usage_error_exits_2():
    code, _out, _err = run("load", "--in")
    assert code == 2
    code, _out, _err = run("no-such-command")
    assert code == 2


def test_classify_roundtrip(tmp_path, store_file):
    out_path = tmp_path / "classified.ttl"
    code, out, err = run("classify", "--store", store_file, "--out", out_path)
    assert code == 0, err
    assert "direct mode" in out
    classified = import_turtle(out_path.read_bytes())
    assert "Nearly_Circular_Orbit" in classified.types_of("AAUSat-4_Orbit")


def test_classify_reads_the_mode_from_the_store(tmp_path):
    loaded, classified = tmp_path / "loaded.ttl", tmp_path / "classified.ttl"
    code, _out, err = run("load", "--mode", "reified", "--in", CSV, "--out", loaded)
    assert code == 0, err
    code, out, err = run("classify", "--store", loaded, "--out", classified)
    assert code == 0, err
    store = import_turtle(loaded.read_bytes())
    expected = classify_orbits(store, ModelingMode.REIFIED)
    added = expected.assertion_count - store.assertion_count
    assert added > 0
    assert out.startswith(f"classified under reified mode: {added} typings added")
    assert classified.read_text(encoding="utf-8") == export_turtle(expected)
    # the mode is not an option: the store's schema decides it
    code, _out, err = run("classify", "--store", loaded, "--mode", "direct", "--out", classified)
    assert code == 2
    assert "unrecognized arguments: --mode direct" in err


def test_argparse_writes_to_the_given_streams(capsys):
    buf = io.StringIO()
    assert run_cli(["load", "--in"], stderr=buf) == 2
    assert buf.getvalue().startswith("usage: satkg load ")
    assert "argument --in: expected one argument" in buf.getvalue()
    code, out, err = run("--help")
    assert code == 0 and out.startswith("usage: satkg ") and err == ""
    assert capsys.readouterr() == ("", "")  # nothing reached the process's own streams


def test_validate_reports_warnings(tmp_path, store_file):
    report = tmp_path / "violations.jsonl"
    code, out, err = run("validate", "--store", store_file, "--report", report)
    assert code == 0, err
    assert "warnings" in out
    lines = [json.loads(l) for l in report.read_text().splitlines()]
    assert any(o["code"] == "completeness" for o in lines)


def test_query_csv_output(store_file):
    code, out, err = run(
        "query", "--store", store_file, "--semantics", "open",
        "select ?s where { ?s instance_of Earth_Observing_Satellite }",
    )
    assert code == 0, err
    assert out.splitlines()[0] == "?s"
    assert "AAUSat-4" in out
    assert "OceanWatch_GEO" in out


def test_query_json_output(store_file):
    code, out, _err = run(
        "query", "--store", store_file, "--format", "json",
        "select ?s where { ?s instance_of GEO_Orbit }",
    )
    assert code == 0
    data = json.loads(out)
    assert data["vars"] == ["?s"]
    assert {row["?s"] for row in data["rows"]} == {"GSAT-19_Orbit", "OceanWatch_GEO_Orbit"}


def test_negation_rejected_under_open_world_cli(store_file):
    code, _out, err = run(
        "query", "--store", store_file, "--semantics", "open",
        "select ?s where { ?s instance_of Artificial_Satellite . not { ?s has_Operator ?o } }",
    )
    assert code == 1
    assert "closed_world" in err
    code2, out2, err2 = run(
        "query", "--store", store_file, "--semantics", "closed",
        "select ?s where { ?s instance_of Artificial_Satellite . not { ?s has_Operator ?o } }",
    )
    assert code2 == 0, err2
    assert len(out2.splitlines()) > 1


def test_query_from_file(tmp_path, store_file):
    qfile = tmp_path / "q.txt"
    qfile.write_text("select ?s where { ?s instance_of Orbit }")
    code, out, _err = run("query", "--store", store_file, "--file", qfile)
    assert code == 0
    assert "AAUSat-4_Orbit" in out


def test_query_requires_exactly_one_text_source(store_file, tmp_path):
    code, _out, err = run("query", "--store", store_file)
    assert code == 2
    assert "query text" in err


def test_export_dot(tmp_path, store_file):
    out_path = tmp_path / "taxonomy.dot"
    code, _out, err = run("export", "--store", store_file, "--format", "dot", "--out", out_path)
    assert code == 0, err
    assert '"GEO_Orbit" -> "Nearly_Circular_Orbit";' in out_path.read_text()


def test_map_command(tmp_path, store_file):
    out_path = tmp_path / "mapped.ttl"
    code, out, err = run("map", "--store", store_file, "--out", out_path)
    assert code == 0, err
    mapped = import_turtle(out_path.read_bytes())
    assert "Satellite" in mapped.types_of("AAUSat-4")


def test_stats_command(store_file):
    code, out, _err = run("stats", "--store", store_file)
    assert code == 0
    assert "classes: 61" in out
    assert "assertions: 228" in out


def test_load_with_overlay_and_ssao_schema(tmp_path):
    overlay = tmp_path / "overlay.txt"
    overlay.write_text("class Lagrange_Orbit < Orbit\n")
    csv_text = CSV.read_text(encoding="utf-8")
    csv_path = tmp_path / "sample.csv"
    csv_path.write_text(csv_text, encoding="utf-8")
    store_path = tmp_path / "bridged.ttl"
    report_path = tmp_path / "report.jsonl"
    code, _out, err = run(
        "load", "--schema", "ssao", "--overlay", overlay,
        "--in", csv_path, "--out", store_path, "--report", report_path,
    )
    assert code == 0, err
    store = import_turtle(store_path.read_bytes())
    # overlay made the formerly unknown orbit class resolvable
    assert "Lagrange_Orbit" in store.types_of("Halo_Explorer_Orbit")
    # reference vocabulary is part of the schema, so local typing answers
    # reference-term queries through subsumption
    assert store.ontology.is_subclass_of("Artificial_Satellite", "Satellite")
    report_lines = [json.loads(l) for l in report_path.read_text().splitlines()]
    assert not any(
        o.get("code") == "unknown_orbit_class" for o in report_lines
    )


TTL_PREFIXES = (
    "@prefix t: <https://satkg.example/terms#> .\n"
    "@prefix i: <https://satkg.example/inst#> .\n"
    "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
)


@pytest.mark.parametrize(
    "command, text",
    [
        ("overlay", "class a-b < Orbit\n"),
        ("stats", TTL_PREFIXES + "t:a-b a owl:Class .\n"),
        ("stats", TTL_PREFIXES + "<https://satkg.example/inst#a%20b> a owl:NamedIndividual .\n"),
        ("stats", TTL_PREFIXES + "t:A a owl:Class ; rdfs:subClassOf t:B .\n"
                                 "t:B a owl:Class ; rdfs:subClassOf t:A .\n"),
        ("stats", TTL_PREFIXES + "t:A a owl:Class ; rdfs:subClassOf t:Undeclared .\n"),
        ("csv", "Name of Satellite,name of satellite\nSat-1,Sat-2\n"),
        ("stats", TTL_PREFIXES + "t:A a owl:Class ; rdfs:comment t:B .\n"),
        ("stats", TTL_PREFIXES + "@prefix v: <https://satkg.example/vocab#> .\n"
                                 "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
                                 "t:p a owl:DatatypeProperty ; rdfs:range xsd:decimal ;\n"
                                 '    v:minValue "5"^^xsd:decimal ; v:maxValue "1"^^xsd:decimal .\n'),
    ],
    ids=["overlay-name", "class-name", "instance-iri", "cycle", "undeclared-parent",
         "duplicate-header", "comment-not-a-string", "min-above-max"],
)
def test_bad_input_exits_1_with_an_error_line(tmp_path, command, text):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out.ttl"
    if command == "overlay":
        argv = ("load", "--overlay", path, "--in", CSV, "--out", out)
    elif command == "csv":
        argv = ("load", "--in", path, "--out", out)
    else:
        argv = ("stats", "--store", path)
    code, _out, err = run(*argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, expected",
    [
        ("class Drift_Orbit < Orbit\n# a comment\nclass Foo < Nope\n",
         "error: line 3: parent class 'Nope' not defined\n"),
        ("class A < Orbit\n\nclass Orbit < A\nclass Orbit < A\n",
         "error: line 3: edge 'Orbit' -> 'A' would create a subsumption cycle\n"),
        ("class Drift_Orbit < Orbit\nclass has_Orbit < Orbit\nclass has_Orbit < Drift_Orbit\n",
         "error: line 2: class 'has_Orbit' names an existing term\n"),
        ("class Drift_Orbit < Orbit\nclass Function < Orbit\n",
         "error: line 2: class 'Function' names an existing term\n"),
    ],
    ids=["unknown-parent", "cycle", "property-name", "alias-name"],
)
def test_an_overlay_edge_error_names_its_line(tmp_path, text, expected):
    overlay = tmp_path / "overlay.txt"
    overlay.write_text(text, encoding="utf-8")
    code, _out, err = run("load", "--overlay", overlay, "--in", CSV,
                          "--out", tmp_path / "out.ttl")
    assert code == 1
    assert err == expected


@pytest.mark.parametrize("mode", ["direct", "reified"])
def test_rule_conflict_survives_the_cli_chain(tmp_path, mode):
    header, *rows = CSV.read_text(encoding="utf-8").splitlines()
    columns = header.split(",")
    (row,) = [r for r in rows if r.startswith("Meridian 3,")]  # a Molniya orbit
    cells = row.split(",")
    cells[columns.index("Eccentricity")] = "0.01"
    catalog = tmp_path / "molniya.csv"
    catalog.write_text(header + "\n" + ",".join(cells) + "\n", encoding="utf-8")
    loaded, classified = tmp_path / "loaded.ttl", tmp_path / "classified.ttl"
    steps = [
        ("load", "--mode", mode, "--in", catalog, "--out", loaded),
        ("validate", "--store", loaded, "--report", tmp_path / "before.jsonl"),
        ("classify", "--store", loaded, "--out", classified,
         "--report", tmp_path / "classify.jsonl"),
        ("validate", "--store", classified, "--report", tmp_path / "after.jsonl"),
    ]
    for argv in steps:
        code, _out, err = run(*argv)
        assert code == 0, err

    def conflicts(report):
        lines = [json.loads(line) for line in (tmp_path / report).read_text().splitlines()]
        return [line for line in lines if line["code"] == "rule_conflict"]

    (conflict,) = conflicts("classify.jsonl")
    assert conflict["subject"] == "Meridian_3_Orbit"
    assert conflicts("before.jsonl") == conflicts("after.jsonl") == [conflict]
