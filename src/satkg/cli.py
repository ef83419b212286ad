"""Command-line surface tying ingestion, reasoning, queries and interchange together.

Exit codes: 0 success, 1 operational error (bad input data, failed query,
missing file), 2 usage error.  Stores travel as the Turtle fragment written
by ``export_turtle``; reports are line-delimited JSON.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from . import __version__
from .align import apply_mapping, build_bridged_ontology
from .core import InstanceStore, Ontology, decode_utf8
from .dot import export_dot
from .errors import OverlayError, QuerySyntaxError, SatkgError
from .ingest import ingest, parse_csv
from .query import Semantics, evaluate, parse_query
from .reasoner import classify_orbits, validate, violations_to_jsonl
from .schema import (
    ModelingMode,
    apply_overlay,
    build_mapping,
    build_ucsso,
    mode_of,
    parse_overlay,
)
from .turtle import Namespaces, export_turtle, import_turtle


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satkg",
        description="Satellite-catalog knowledge graph toolkit",
    )
    parser.add_argument("--version", action="version", version=f"satkg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    load = sub.add_parser("load", help="ingest a catalog CSV into a store file")
    load.add_argument("--mode", choices=["reified", "direct"], default="direct")
    load.add_argument("--schema", choices=["ucsso", "ssao"], default="ucsso",
                      help="ingest against the local schema or the bridged reference vocabulary")
    load.add_argument("--overlay", type=Path, help="schema overlay file (class X < Y lines)")
    load.add_argument("--in", dest="infile", type=Path, required=True)
    load.add_argument("--out", type=Path, required=True)
    load.add_argument("--report", type=Path)
    _add_ns_flags(load)

    val = sub.add_parser("validate", help="check a store against its schema")
    val.add_argument("--store", type=Path, required=True)
    val.add_argument("--report", type=Path)

    cls = sub.add_parser("classify", help="materialize orbit classification rules")
    cls.add_argument("--store", type=Path, required=True)
    cls.add_argument("--out", type=Path, required=True)
    cls.add_argument("--report", type=Path)
    _add_ns_flags(cls)

    qry = sub.add_parser("query", help="run a conjunctive query against a store")
    qry.add_argument("--store", type=Path, required=True)
    qry.add_argument("--semantics", choices=["open", "closed"], default="open")
    qry.add_argument("--format", choices=["csv", "json"], default="csv")
    qry.add_argument("--file", type=Path, help="read the query text from a file")
    qry.add_argument("text", nargs="?", help="query text (omit when using --file)")
    qry.add_argument("--out", type=Path)

    exp = sub.add_parser("export", help="re-serialize a store or render its taxonomy")
    exp.add_argument("--store", type=Path, required=True)
    exp.add_argument("--format", choices=["ttl", "dot"], default="ttl")
    exp.add_argument("--out", type=Path, required=True)
    _add_ns_flags(exp)

    mp = sub.add_parser("map", help="annotate a store with reference-vocabulary classes")
    mp.add_argument("--store", type=Path, required=True)
    mp.add_argument("--out", type=Path, required=True)
    _add_ns_flags(mp)

    st = sub.add_parser("stats", help="print store size counters")
    st.add_argument("--store", type=Path, required=True)
    return parser


def _add_ns_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--terms-ns", default=Namespaces.terms)
    parser.add_argument("--inst-ns", default=Namespaces.instances)
    parser.add_argument("--vocab-ns", default=Namespaces.vocab)


def _namespaces(args: argparse.Namespace) -> Namespaces:
    return Namespaces(args.terms_ns, args.inst_ns, args.vocab_ns)


def _load_store(path: Path) -> InstanceStore:
    return import_turtle(path.read_bytes())


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def run_cli(argv: list[str], stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = _build_parser()
    try:  # argparse writes usage errors and --help to sys's streams, then exits
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return _COMMANDS[args.command](args, stdout, stderr)
    except (SatkgError, OSError) as exc:
        print(f"error: {exc}", file=stderr)
        return 1


def _cmd_load(args: argparse.Namespace, stdout, stderr) -> int:
    mode = ModelingMode(args.mode)
    if args.schema == "ssao":
        ontology: Ontology = build_bridged_ontology(mode)
    else:
        ontology = build_ucsso(mode)
    if args.overlay is not None:
        text = decode_utf8(args.overlay.read_bytes(), lambda message, line, column: OverlayError(
            f"line {line}, column {column}: {message}"))
        apply_overlay(ontology, parse_overlay(text))
    records = parse_csv(args.infile.read_bytes())
    store, report = ingest(records, mode, ontology)
    _write(args.out, export_turtle(store, _namespaces(args)))
    if args.report is not None:
        _write(args.report, report.to_jsonl())
    print(
        f"ingested {report.rows_ingested}/{report.rows_read} rows, "
        f"{report.assertions_created} assertions, "
        f"{len(report.violations)} violations, {len(report.warnings)} warnings",
        file=stdout,
    )
    return 0


def _cmd_validate(args: argparse.Namespace, stdout, stderr) -> int:
    store = _load_store(args.store)
    violations = validate(store)
    if args.report is not None:
        _write(args.report, violations_to_jsonl(violations))
    errors = sum(1 for v in violations if v.severity == "error")
    warnings = len(violations) - errors
    print(f"{errors} violations, {warnings} warnings", file=stdout)
    for v in violations:
        print(f"  [{v.code}] {v.detail}", file=stdout)
    return 0


def _cmd_classify(args: argparse.Namespace, stdout, stderr) -> int:
    store = _load_store(args.store)
    mode = mode_of(store.ontology)
    classified = classify_orbits(store, mode)
    _write(args.out, export_turtle(classified, _namespaces(args)))
    if args.report is not None:
        _write(args.report, violations_to_jsonl(classified.rule_conflicts))
    added = classified.assertion_count - store.assertion_count
    print(
        f"classified under {mode.value} mode: {added} typings added, "
        f"{len(classified.rule_conflicts)} conflicts",
        file=stdout,
    )
    return 0


def _cmd_query(args: argparse.Namespace, stdout, stderr) -> int:
    if (args.text is None) == (args.file is None):
        print("error: provide the query text either inline or via --file", file=stderr)
        return 2
    text = args.text if args.text is not None else decode_utf8(  # universal newlines, as read_text
        args.file.read_bytes(), QuerySyntaxError).replace("\r\n", "\n").replace("\r", "\n")
    semantics = Semantics.OPEN_WORLD if args.semantics == "open" else Semantics.CLOSED_WORLD
    store = _load_store(args.store)
    ast = parse_query(text, store.ontology, semantics)
    result = evaluate(ast, store)
    rendered = result.to_csv() if args.format == "csv" else result.to_json() + "\n"
    if args.out is None:
        stdout.write(rendered)
    else:
        _write(args.out, rendered)
    return 0


def _cmd_export(args: argparse.Namespace, stdout, stderr) -> int:
    store = _load_store(args.store)
    if args.format == "ttl":
        _write(args.out, export_turtle(store, _namespaces(args)))
    else:
        _write(args.out, export_dot(store.ontology))
    return 0


def _cmd_map(args: argparse.Namespace, stdout, stderr) -> int:
    store = _load_store(args.store)
    mapped = apply_mapping(store, build_mapping())
    _write(args.out, export_turtle(mapped, _namespaces(args)))
    added = mapped.assertion_count - store.assertion_count
    print(f"mapping applied: {added} typings added", file=stdout)
    return 0


def _cmd_stats(args: argparse.Namespace, stdout, stderr) -> int:
    store = _load_store(args.store)
    print(f"classes: {len(store.ontology.classes)}", file=stdout)
    print(f"properties: {len(store.ontology.properties)}", file=stdout)
    print(f"instances: {len(store.instances)}", file=stdout)
    print(f"assertions: {store.assertion_count}", file=stdout)
    return 0


_COMMANDS = {"load": _cmd_load, "validate": _cmd_validate, "classify": _cmd_classify,
             "query": _cmd_query, "export": _cmd_export, "map": _cmd_map, "stats": _cmd_stats}


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
