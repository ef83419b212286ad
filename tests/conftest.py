import re
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import strategies as st

from satkg import ModelingMode, build_ucsso, ingest, parse_csv

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_csv_bytes() -> bytes:
    return (FIXTURES / "ucs_sample.csv").read_bytes()


@pytest.fixture(scope="session")
def fixture_records(fixture_csv_bytes):
    return parse_csv(fixture_csv_bytes)


def ingest_fixture(records, mode: ModelingMode):
    ont = build_ucsso(mode)
    return ingest(records, mode, ont)


@pytest.fixture(scope="session")
def direct_store(fixture_records):
    store, _report = ingest_fixture(fixture_records, ModelingMode.DIRECT)
    return store


@pytest.fixture(scope="session")
def reified_store(fixture_records):
    store, _report = ingest_fixture(fixture_records, ModelingMode.REIFIED)
    return store


def mangled(text: str) -> st.SearchStrategy[str]:
    """``text`` with one whitespace-separated token deleted, duplicated or
    swapped with another, for fuzz tests that start from valid input."""
    parts = re.split(r"(\s+)", text)

    @st.composite
    def edits(draw):
        words, gaps = parts[0::2], parts[1::2]
        i, j = draw(st.integers(0, len(words) - 1)), draw(st.integers(0, len(words) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "swap"]))
        if edit == "delete":
            words[i] = ""
        elif edit == "duplicate":
            words[i] = f"{words[i]} {words[i]}"
        else:
            words[i], words[j] = words[j], words[i]
        return "".join(w + g for w, g in zip_longest(words, gaps, fillvalue=""))

    return edits()
