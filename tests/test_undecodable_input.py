"""Bytes that are not UTF-8, fed to each of the four readers.

A catalog CSV (``parse_csv``), a store file (``import_turtle``), an overlay
(``load --overlay``) and a query file (``query --file``) each start valid and
take byte-level edits: ``\\xff``, the first bytes of a multi-byte sequence
cut short, and ``\\x00``, inserted or written over a byte.  Each reader may
refuse the input only with a ``SatkgError``, which the CLI prints as one
``error:`` line, and names the line and column of the first bad byte.
"""

import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satkg import ModelingMode, build_ucsso, import_turtle, ingest, parse_csv
from satkg.cli import run_cli
from satkg.errors import MalformedCsv, SatkgError, TurtleParseError

from conftest import FIXTURES

CSV = (FIXTURES / "ucs_sample.csv").read_bytes()
TTL = (FIXTURES / "one_satellite.ttl").read_bytes()
OVERLAY = b"# Lagrange-point orbits\nclass Lagrange_Orbit < Orbit\n\nclass Halo_Orbit < Lagrange_Orbit\n"
QUERY = ("select ?s ?e where { ?s instance_of Artificial_Satellite .\n"
         "  ?s has_Orbit ?o . ?o has_Orbital_Eccentricity_value ?e .\n"
         "  not { ?s has_Satellite_Comment \"café\" } }\n").encode("utf-8")
#: a byte no UTF-8 text holds, the starts of two-, three- and four-byte
#: sequences cut short, and NUL, which is UTF-8 but no reader's syntax
BAD_BYTES = [b"\xff", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98", b"\x00"]


@st.composite
def byte_edited(draw, data: bytes):
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from(BAD_BYTES))
        data = data[:at] + bad + data[at + draw(st.sampled_from([0, len(bad)])):]
    return data


@settings(max_examples=150, deadline=None)
@given(byte_edited(CSV))
def test_a_csv_with_bad_bytes_raises_only_satkg_errors(data):
    try:
        ingest(parse_csv(data), ModelingMode.DIRECT, build_ucsso(ModelingMode.DIRECT))
    except SatkgError:
        pass


@settings(max_examples=150, deadline=None)
@given(byte_edited(TTL))
def test_a_store_file_with_bad_bytes_raises_only_satkg_errors(data):
    try:
        import_turtle(data)
    except SatkgError:
        pass


def run(*argv: str) -> tuple[int, str]:
    err = io.StringIO()
    code = run_cli(list(argv), stdout=io.StringIO(), stderr=err)
    return code, err.getvalue()


def cli_outcome(command: str, data: bytes) -> tuple[int, str]:
    """Exit code and stderr of ``load --overlay`` or ``query --file`` on ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        if command == "overlay":
            return run("load", "--overlay", str(path), "--in", str(FIXTURES / "ucs_sample.csv"),
                       "--out", str(Path(tmp) / "out.ttl"))
        return run("query", "--store", str(FIXTURES / "one_satellite.ttl"), "--file", str(path))


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.just("overlay"), byte_edited(OVERLAY))
       | st.tuples(st.just("query"), byte_edited(QUERY)))
def test_an_overlay_or_query_file_with_bad_bytes_ends_in_one_error_line(edited):
    code, err = cli_outcome(*edited)  # any other exception escapes run_cli
    assert code in (0, 1)
    assert code == 0 or (err.startswith("error: ") and err.count("\n") == 1), err


@pytest.mark.parametrize("reader, data, error, where", [
    ("csv", b"Name of Satellite,Purpose\n\xff\xfeSat,Earth Observation\n", MalformedCsv,
     "line 2, column 1: byte 0xff is not UTF-8 (invalid start byte)"),
    ("ttl", TTL.replace(b"owl:NamedIndividual", b"owl:Named\xc3Individual", 1), TurtleParseError,
     "column 23: byte 0xc3 is not UTF-8 (invalid continuation byte)"),
    ("overlay", b"class Caf\xc3\xa9 < Orbit\nclass X\xe2\x82 < Orbit\n", None,
     "error: line 2, column 8: byte 0xe2 is not UTF-8 (invalid continuation byte)\n"),
    ("query", b"select ?s where {\n  ?s instance_of Or\xffbit }\n", None,
     "error: 2:20: byte 0xff is not UTF-8 (invalid start byte)\n"),
], ids=["csv", "ttl", "overlay", "query"])
def test_the_first_bad_byte_is_named_by_line_and_column(reader, data, error, where):
    if reader == "csv":
        with pytest.raises(error) as err:
            parse_csv(data)
        assert str(err.value) == where
    elif reader == "ttl":
        line = TTL[:TTL.index(b"owl:NamedIndividual")].count(b"\n") + 1
        with pytest.raises(error) as err:
            import_turtle(data)
        assert (str(err.value), err.value.line) == (f"line {line}: {where}", line)
    else:
        assert cli_outcome(reader, data) == (1, where)
