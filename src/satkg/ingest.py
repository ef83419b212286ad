"""UCS-format catalog ingestion: CSV parsing and row-to-assertion resolution.

The CSV reader is strict RFC 4180: one field regex (a quoted field with ``""``
escapes, or an unquoted run) and one line-break regex, so that quoting errors
and ragged rows are reported with their row number.  Row numbers count line
breaks outside quotes, blank lines included; blank lines yield no row.

Resolution turns each row into typed assertions by the catalog's field
conventions; empty and sentinel cells assert nothing (open-world discipline).
Two tables hold the plain column mappings: ``_ENTITY_COLUMNS`` (the classes
and satellite links of each entity named in a column, and its country column)
and ``_SATELLITE_COLUMNS`` (the satellite's own literal and entity columns,
each literal with its property and cell reader).  Columns whose class or
relation depends on other cells (names, registry, users, purpose, orbit and
its parameters) stay code.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field
from datetime import date
from decimal import Decimal
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .core import (
    INSTANCE_OF,
    Assertion,
    InstanceStore,
    Literal,
    Ontology,
    TermId,
    TermKind,
    bounded_decimal,
    class_term,
    decode_utf8,
    instance_term,
    nogc,
)
from .countries import is_country
from .errors import (
    EmptyInput,
    FunctionalViolation,
    MalformedCsv,
    RestrictionViolation,
    SatkgError,
    TypeMismatch,
    UnknownOrbitClass,
    UnknownTerm,
    UnparsableDate,
    UnparsableNumber,
)
from .schema import FUNCTION_SATELLITE_CLASSES, ModelingMode

EXPECTED_COLUMNS: tuple[str, ...] = (
    "Name of Satellite",
    "Alternate Names",
    "Country/Org of UN Registry",
    "Country of Operator/Owner",
    "Operator/Owner",
    "Users",
    "Purpose",
    "Detailed Purpose",
    "Class of Orbit",
    "Type of Orbit",
    "Longitude of GEO (degrees)",
    "Perigee (km)",
    "Apogee (km)",
    "Eccentricity",
    "Inclination (degrees)",
    "Period (minutes)",
    "Launch Mass (kg.)",
    "Dry Mass (kg.)",
    "Power (watts)",
    "Date of Launch",
    "Expected Lifetime",
    "Contractor",
    "Country of Contractor",
    "Launch Site",
    "Launch Vehicle",
    "COSPAR Number",
    "NORAD Number",
    "Comments",
)

_BLANKS, _SEPARATORS = re.compile(r"\s+"), re.compile(r"[\s/-]+")  # of names and class cells
_CANONICAL = {_BLANKS.sub(" ", c).strip().lower(): c for c in EXPECTED_COLUMNS}

# Cell values that carry no information and therefore assert nothing.
SENTINELS = frozenset({"", "n/a", "nr", "unknown"})


@dataclass
class RawRecord:
    """One parsed catalog row, keyed by canonical column name."""

    row_number: int
    cells: dict[str, str]

    def get(self, column: str) -> Optional[str]:
        """Trimmed cell value, or None for blanks and sentinel strings."""
        value = self.cells.get(column, "").strip()
        return None if value.lower() in SENTINELS else value


class IngestViolation(NamedTuple):
    row_number: int
    fieldname: str
    code: str
    message: str


class IngestWarning(NamedTuple):
    row_number: int
    fieldname: str
    message: str


@dataclass
class IngestReport:
    rows_read: int = 0
    rows_ingested: int = 0
    assertions_created: int = 0
    violations: list[IngestViolation] = field(default_factory=list)
    warnings: list[IngestWarning] = field(default_factory=list)

    def to_jsonl(self) -> str:
        """Line-delimited JSON: one object per finding plus a summary object."""
        objects = [{"kind": "violation", "row": row, "field": fieldname, "code": code,
                    "message": message} for row, fieldname, code, message in self.violations]
        objects += [{"kind": "warning", "row": row, "field": fieldname, "message": message}
                    for row, fieldname, message in self.warnings]
        objects.append({"kind": "summary", "rows_read": self.rows_read,
                        "rows_ingested": self.rows_ingested,
                        "assertions_created": self.assertions_created,
                        "violations": len(self.violations), "warnings": len(self.warnings)})
        return "".join(json.dumps(o, ensure_ascii=False) + "\n" for o in objects)


# ------------------------------------------------------------------ CSV

#: One field: quoted (``""`` escapes a quote; the closing quote is not
#: followed by another) or an unquoted run up to a comma, quote or break.
_FIELD_RE = re.compile(r'"([^"]*(?:""[^"]*)*)"(?!")|([^,"\r\n]*)')
_BREAK_RE = re.compile(r"\r\n?|\n")


def _read_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """RFC-4180 rows as (row_number, fields); blank lines are skipped."""
    row_number, pos, end = 1, 0, len(text)
    while pos < end:
        brk = _BREAK_RE.match(text, pos)
        if brk:
            row_number, pos = row_number + 1, brk.end()
            continue
        fields: list[str] = []
        while True:
            m = _FIELD_RE.match(text, pos)
            quoted, plain = m.groups()
            fields.append(plain if quoted is None else quoted.replace('""', '"'))
            pos = m.end()
            follow = text[pos : pos + 1]
            if follow == ",":
                pos += 1
            elif follow == '"':  # an unquoted run stopped at a quote
                problem = "quote opened in the middle of a field" if plain else "unbalanced quote"
                raise MalformedCsv(problem, row_number)
            elif follow not in ("", "\r", "\n"):
                raise MalformedCsv("unexpected text after closing quote", row_number)
            else:
                break
        yield row_number, fields


def parse_csv(data: Union[bytes, str, io.IOBase]) -> list[RawRecord]:
    """Parse a catalog CSV export into raw records.

    The first row is the header; its names are matched case-insensitively
    after whitespace normalization.  Unknown columns are preserved under
    their own (trimmed) header name.  Two header cells naming the same
    column are an error; blank header cells are allowed.
    """
    if isinstance(data, io.IOBase):
        data = data.read()
    if isinstance(data, bytes):
        text = decode_utf8(data, lambda message, line, column: MalformedCsv(
            f"line {line}, column {column}: {message}")).removeprefix("﻿")
    else:
        text = data.lstrip("﻿")

    rows = list(_read_rows(text))
    if not rows:
        raise EmptyInput("no header row")

    header_row_number, header = rows[0]
    columns: list[str] = []
    for name in header:
        trimmed = _BLANKS.sub(" ", name).strip()
        column = _CANONICAL.get(trimmed.lower(), trimmed)
        if column and column in columns:
            raise MalformedCsv(f"header names column {column!r} twice", header_row_number)
        columns.append(column)

    records = []
    for row_number, cells in rows[1:]:
        if len(cells) != len(columns):
            raise MalformedCsv(f"expected {len(columns)} fields, found {len(cells)}", row_number)
        records.append(RawRecord(row_number, dict(zip(columns, cells))))
    return records


def missing_columns(records: list[RawRecord]) -> list[str]:
    """Expected columns absent from the parsed header, in catalog order."""
    if not records:
        return []
    present = set(records[0].cells)
    return [c for c in EXPECTED_COLUMNS if c not in present]


# ------------------------------------------------------------- cell parsing

def instance_name(raw: str) -> str:
    """Turn a free-text cell value into an instance name (whitespace -> _)."""
    return _BLANKS.sub("_", raw.strip())


def parse_number(text: str) -> Decimal:
    """Parse a catalog numeric cell; thousands separators are tolerated.

    Non-finite values (NaN, sNaN, Infinity) and magnitudes beyond 1E+/-100
    are not numbers a catalog carries; they are rejected like any other
    unparsable cell.
    """
    try:
        return bounded_decimal(text.strip().replace(",", ""))
    except ValueError:
        raise UnparsableNumber(f"not a number: {text!r}") from None


_YEARS_SUFFIX = re.compile(r"\s*(?:yrs?\.?|years?)\s*$", re.IGNORECASE)


def parse_years(text: str) -> Decimal:
    """Parse an expected-lifetime cell, tolerating a trailing year marker."""
    return parse_number(_YEARS_SUFFIX.sub("", text.strip()))


#: ``datetime.strptime``'s own patterns for ``%Y-%m-%d`` and ``%m/%d/%Y``: ``\d`` takes any
#: Unicode digit, and a day may be a blank and a digit
_Y, _M = r"(?P<Y>\d\d\d\d)", r"(?P<m>1[0-2]|0[1-9]|[1-9])"
_D = r"(?P<d>3[01]|[12]\d|0[1-9]|[1-9]| [1-9])"
_DATE_FORMS = (re.compile(f"{_Y}-{_M}-{_D}"), re.compile(f"{_M}/{_D}/{_Y}"))


def parse_launch_date(text: str) -> date:
    """Accept ISO-8601 or M/D/YYYY, as ``strptime`` reads them, and normalize to a date."""
    cleaned = text.strip()
    for form in _DATE_FORMS:
        if found := form.fullmatch(cleaned):
            try:
                return date(int(found["Y"]), int(found["m"]), int(found["d"]))
            except ValueError:  # a day past the month's end, or the year 0
                pass
    raise UnparsableDate(f"not a recognized date: {text!r}")


def _split(cell: str, separator: str) -> list[str]:
    return [part.strip() for part in cell.split(separator) if part.strip()]


# --------------------------------------------------------------- resolution

#: Numeric parameter columns and their parameter classes.  Values attach to
#: the row's orbit instance when one exists, otherwise to the satellite.
_PARAMETER_COLUMNS: tuple[tuple[str, str], ...] = (
    ("Longitude of GEO (degrees)", "Longitude_Of_GEO"),
    ("Perigee (km)", "Perigee"),
    ("Apogee (km)", "Apogee"),
    ("Eccentricity", "Orbital_Eccentricity"),
    ("Inclination (degrees)", "Orbital_Inclination"),
    ("Period (minutes)", "Orbital_Period"),
)

#: Entity columns: column -> (classes of each entity, links from the
#: satellite, separator between entities or None, country column or None).
#: Operator/Owner does not tell the two roles apart, so each entity it lists
#: is typed and linked as both.
_ENTITY_COLUMNS: dict[str, tuple[tuple[str, ...], tuple[str, ...], Optional[str], Optional[str]]] = {
    "Operator/Owner": (("Operator", "Owner"), ("has_Operator", "has_Owner"), "/",
                       "Country of Operator/Owner"),
    "Contractor": (("Contractor",), ("has_Contractor",), None, "Country of Contractor"),
    "Launch Site": (("Launch_Site",), ("has_Launch_Site",), None, None),
    "Launch Vehicle": (("Launch_Vehicle",), ("has_Launch_Vehicle",), None, None),
}

#: The satellite's own columns after the orbit, in resolution order: column,
#: property and cell reader of a literal, or column, None, None for a column
#: of ``_ENTITY_COLUMNS``.
_SATELLITE_COLUMNS: tuple[tuple[str, Optional[str], Optional[Callable[[str], object]]], ...] = (
    ("Launch Mass (kg.)", "has_Launch_Mass", parse_number),
    ("Dry Mass (kg.)", "has_Dry_Mass", parse_number),
    ("Power (watts)", "has_Power_value", parse_number),
    ("Date of Launch", "has_Date_of_Launch", parse_launch_date),
    ("Expected Lifetime", "has_Expected_Lifetime", parse_years),
    ("Contractor", None, None),
    ("Launch Site", None, None),
    ("Launch Vehicle", None, None),
    ("COSPAR Number", "has_COSPAR_number", str),
    ("NORAD Number", "has_NORAD_number", str),
    ("Comments", "has_Satellite_Comment", str),
)

#: Violation code of each failure a row can meet; any other is "error".
_CODES: dict[type, str] = {
    UnparsableNumber: "unparsable_number",
    UnparsableDate: "unparsable_date",
    UnknownOrbitClass: "unknown_orbit_class",
    RestrictionViolation: "restriction",
    TypeMismatch: "type",
    FunctionalViolation: "functional",
    UnknownTerm: "unknown_term",
}


def _match_taxonomy_class(ont: Ontology, raw: str, suffix: str, root: str) -> Optional[str]:
    """Map a cell value onto a class in the subtree under ``root``.

    Tried in order: the normalized value with ``suffix`` appended, then the
    normalized value itself.  Overlay-added leaves participate automatically.
    """
    normalized = _SEPARATORS.sub("_", raw.strip())
    subtree = ont.subclasses_of(root)
    for candidate in (normalized + suffix, normalized):
        if candidate in subtree:
            return candidate
    return None


def _resolve_orbit_class(ont: Ontology, orbit_class: str, orbit_type: Optional[str]) -> tuple[str, Optional[str]]:
    """Merge the class and type cells into one orbit class.

    Returns (class name, optional warning).  The type refines the class when
    it names a configured subtree member; when the two are incomparable the
    type wins, being the finer catalog distinction.
    """
    base = _match_taxonomy_class(ont, orbit_class, "_Orbit", "Orbit")
    if base is None:
        raise UnknownOrbitClass(f"no orbit class configured for {orbit_class!r}")
    if orbit_type is None:
        return base, None
    refined = _match_taxonomy_class(ont, orbit_type, "_Orbit", "Orbit")
    if refined is None:
        return base, f"unrecognized orbit type {orbit_type!r}; kept {base}"
    return (base if ont.is_subclass_of(base, refined) else refined), None


def resolve_record(
    record: RawRecord,
    mode: ModelingMode,
    ont: Ontology,
    satellite_name: Optional[str] = None,
    issues: Optional[list[IngestViolation]] = None,
    notes: Optional[list[IngestWarning]] = None,
) -> list[Assertion]:
    """Deterministically resolve one row into assertions.

    With ``issues`` given, cell-level failures (bad number, bad date,
    unknown orbit class) are recorded there and the rest of the row is
    still resolved; without it the first failure raises.
    """
    out = []
    for _fieldname, s, p, o in _resolve_facts(record, mode, ont, satellite_name, issues, notes,
                                               instance_term):
        if p == "instance_of":
            pred, o = INSTANCE_OF, class_term(o)
        elif isinstance(o, Literal):
            pred = TermId(p, TermKind.DATA_PROPERTY)
        else:
            pred, o = TermId(p, TermKind.OBJECT_PROPERTY), instance_term(o)
        out.append(Assertion(instance_term(s), pred, o))
    return out


def _resolve_facts(
    record: RawRecord,
    mode: ModelingMode,
    ont: Ontology,
    satellite_name: Optional[str],
    issues: Optional[list[IngestViolation]],
    notes: Optional[list[IngestWarning]],
    instance: Callable[[str], TermId],
) -> list[tuple[str, str, str, Union[str, Literal]]]:
    """One row's facts as (field, subject, predicate, object) in the format of
    ``InstanceStore.write``, calling ``instance`` on each instance it names."""
    name_cell = record.get("Name of Satellite")
    if name_cell is None:
        raise MalformedCsv("Name of Satellite is empty", record.row_number)
    if satellite_name is None:
        satellite_name = instance_name(name_cell)
    sat = instance(satellite_name).name
    resolved: list = []
    add = resolved.append

    def fail(fieldname: str, exc: SatkgError) -> None:
        if issues is None:
            raise exc
        issues.append(IngestViolation(record.row_number, fieldname, _CODES[type(exc)], str(exc)))

    def warn(fieldname: str, message: str) -> None:
        if notes is not None:
            notes.append(IngestWarning(record.row_number, fieldname, message))

    def link_entities(column: str, cell: str) -> None:
        classes, links, separator, country_column = _ENTITY_COLUMNS[column]
        countries = _split(record.get(country_column) or "", "/") if country_column else []
        for entity_name in _split(cell, separator) if separator else [cell]:
            entity = instance(instance_name(entity_name)).name
            for cls in classes:
                add((column, entity, "instance_of", cls))
            for link in links:
                add((column, sat, link, entity))
            for country in countries:
                c_inst = instance(instance_name(country)).name
                add((country_column, c_inst, "instance_of", "Country"))
                add((country_column, entity, "has_Country_of_Origin", c_inst))

    # (a) satellite typed by catalog membership and, when the purpose maps to
    # a function subclass, by that subclass as well
    add(("Name of Satellite", sat, "instance_of", "Artificial_Satellite"))
    purpose_cell = record.get("Purpose")
    purpose_class = None
    if purpose_cell is not None:
        purpose_class = _match_taxonomy_class(ont, purpose_cell, "_Purpose", "Purpose")
        if purpose_class is None:
            warn("Purpose", f"unrecognized purpose {purpose_cell!r}; kept generic Purpose")
        elif purpose_class in FUNCTION_SATELLITE_CLASSES:
            add(("Purpose", sat, "instance_of", FUNCTION_SATELLITE_CLASSES[purpose_class]))

    # (a/b) identifier instances for the primary and alternate names
    name_inst = instance(f"{satellite_name}_Name").name
    add(("Name of Satellite", name_inst, "instance_of", "Satellite_Name"))
    add(("Name of Satellite", sat, "has_Identifier", name_inst))
    add(("Name of Satellite", name_inst, "has_Identifier_value", Literal(name_cell)))
    for alt in _split(record.get("Alternate Names") or "", ","):
        alt_inst = instance(f"{instance_name(alt)}_Name").name
        add(("Alternate Names", alt_inst, "instance_of", "Alternate_Satellite_Name"))
        add(("Alternate Names", sat, "has_Identifier", alt_inst))
        add(("Alternate Names", alt_inst, "has_Identifier_value", Literal(alt)))

    # (c) UN registry: countries and organizations split by gazetteer lookup
    registry = record.get("Country/Org of UN Registry")
    if registry is not None:
        entity = instance(instance_name(registry)).name
        kind = "Country" if is_country(registry) else "Organization"
        add(("Country/Org of UN Registry", entity, "instance_of", kind))
        add(("Country/Org of UN Registry", entity,
             f"is_registered_{kind}_in_UN_Register_of_Space_Objects_for", sat))

    # (d) operators/owners
    if (opown_cell := record.get("Operator/Owner")) is not None:
        link_entities("Operator/Owner", opown_cell)

    # (e) users
    for user in _split(record.get("Users") or "", "/"):
        user_class = _match_taxonomy_class(ont, user, "_User", "User")
        if user_class is None:
            user_class = "User"
            warn("Users", f"unrecognized user sector {user!r}; typed as User")
        user_inst = instance(f"{satellite_name}_{user_class}").name
        add(("Users", user_inst, "instance_of", user_class))
        add(("Users", sat, "has_User", user_inst))

    # (f) purpose instance; the detailed purpose takes precedence when it
    # names a more specific class
    detailed_cell = record.get("Detailed Purpose")
    detailed_class = None
    if detailed_cell is not None:
        detailed_class = _match_taxonomy_class(ont, detailed_cell, "_Purpose", "Purpose")
        if detailed_class is None:
            warn("Detailed Purpose", f"unrecognized detailed purpose {detailed_cell!r}")
    final_purpose = detailed_class or purpose_class or ("Purpose" if purpose_cell else None)
    if final_purpose is not None:
        fieldname = "Detailed Purpose" if detailed_class else "Purpose"
        p_inst = instance(f"{satellite_name}_Purpose").name
        add((fieldname, p_inst, "instance_of", final_purpose))
        add((fieldname, sat, "has_Purpose", p_inst))

    # (g) orbit: class and type cells merge onto one subtree class
    orbit_inst: Optional[str] = None
    orbit_class_cell = record.get("Class of Orbit")
    if orbit_class_cell is not None:
        try:
            orbit_class, merge_warning = _resolve_orbit_class(
                ont, orbit_class_cell, record.get("Type of Orbit")
            )
        except UnknownOrbitClass as exc:
            fail("Class of Orbit", exc)
        else:
            if merge_warning:
                warn("Type of Orbit", merge_warning)
            orbit_inst = instance(f"{satellite_name}_Orbit").name
            add(("Class of Orbit", orbit_inst, "instance_of", orbit_class))
            add(("Class of Orbit", sat, "has_Orbit", orbit_inst))

    # (h) numeric orbital parameters
    owner = orbit_inst if orbit_inst is not None else sat
    parsed_params: dict[str, Decimal] = {}
    for column, param_class in _PARAMETER_COLUMNS:
        cell = record.get(column)
        if cell is None:
            continue
        try:
            value = parse_number(cell)
        except UnparsableNumber as exc:
            fail(column, exc)
            continue
        parsed_params[param_class] = value
        literal = Literal(value)
        if mode is ModelingMode.REIFIED:
            param_inst = instance(f"{owner}_{param_class}").name
            add((column, param_inst, "instance_of", param_class))
            add((column, owner, f"has_{param_class}", param_inst))
            add((column, param_inst, f"has_{param_class}_value", literal))
        else:
            add((column, owner, f"has_{param_class}_value", literal))
    perigee, apogee = parsed_params.get("Perigee"), parsed_params.get("Apogee")
    if perigee is not None and apogee is not None and perigee > apogee:
        warn("Perigee (km)", f"perigee {perigee} exceeds apogee {apogee}")

    # (i) the satellite's own columns: masses, power, launch data, entities,
    # identifiers and comments
    for column, prop, read in _SATELLITE_COLUMNS:
        cell = record.get(column)
        if cell is None:
            continue
        if prop is None:
            link_entities(column, cell)
            continue
        try:
            add((column, sat, prop, Literal(read(cell))))
        except (UnparsableNumber, UnparsableDate) as exc:
            fail(column, exc)
    return resolved


@nogc
def ingest(
    records: list[RawRecord],
    mode: ModelingMode,
    ont: Ontology,
) -> tuple[InstanceStore, IngestReport]:
    """Resolve and apply every record, collecting failures per row.

    Cell-level failures drop only the offending assertion; the rest of the
    row still loads.  Satellite names repeated across rows are disambiguated
    with a row-number suffix.
    """
    store = InstanceStore(ont)
    report = IngestReport(rows_read=len(records))
    for column in missing_columns(records):
        report.warnings.append(IngestWarning(0, column, "expected column missing from header"))

    satellite_names: set[str] = set()
    for record in records:
        name_cell = record.get("Name of Satellite")
        if name_cell is None:
            report.violations.append(IngestViolation(
                record.row_number, "Name of Satellite", "missing_name",
                "row skipped: Name of Satellite is empty"))
            continue
        name = instance_name(name_cell)
        if name in satellite_names:
            name = f"{name}_row{record.row_number}"
        satellite_names.add(name)

        # the store interns each instance as the row resolves, before its batch
        facts = _resolve_facts(record, mode, ont, name, report.violations, report.warnings,
                               store.add_instance)
        report.rows_ingested += 1
        refused, warned = store.write([fact[1:] for fact in facts])
        for position, exc in refused:
            report.violations.append(IngestViolation(
                record.row_number, facts[position][0], _CODES.get(type(exc), "error"), str(exc)))
        for position, message in warned:
            report.warnings.append(IngestWarning(record.row_number, facts[position][0], message))
    report.assertions_created = store.assertion_count
    return store, report
