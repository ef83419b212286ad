"""UCS-format catalog ingestion: CSV parsing and row-to-assertion resolution.

The CSV reader is a strict RFC-4180 state machine so that quoting errors and
ragged rows can be reported with their row number.  Resolution turns each row
into typed assertions according to the catalog's field conventions; empty
cells assert nothing (open-world discipline).
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field
from datetime import date, datetime
from decimal import Decimal, InvalidOperation
from typing import Iterator, NamedTuple, Optional, Union

from .core import (
    INSTANCE_OF,
    Assertion,
    InstanceStore,
    Literal,
    Ontology,
    TermId,
    TermKind,
    class_term,
    instance_term,
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

_CANONICAL = {re.sub(r"\s+", " ", c).strip().lower(): c for c in EXPECTED_COLUMNS}

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
        if value.lower() in SENTINELS:
            return None
        return value


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
        lines = []
        for v in self.violations:
            lines.append(
                json.dumps(
                    {
                        "kind": "violation",
                        "row": v.row_number,
                        "field": v.fieldname,
                        "code": v.code,
                        "message": v.message,
                    },
                    ensure_ascii=False,
                )
            )
        for w in self.warnings:
            lines.append(
                json.dumps(
                    {
                        "kind": "warning",
                        "row": w.row_number,
                        "field": w.fieldname,
                        "message": w.message,
                    },
                    ensure_ascii=False,
                )
            )
        lines.append(
            json.dumps(
                {
                    "kind": "summary",
                    "rows_read": self.rows_read,
                    "rows_ingested": self.rows_ingested,
                    "assertions_created": self.assertions_created,
                    "violations": len(self.violations),
                    "warnings": len(self.warnings),
                }
            )
        )
        return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ CSV

def _read_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """RFC-4180 state machine yielding (row_number, fields)."""
    fields: list[str] = []
    buf: list[str] = []
    row_number = 1
    in_quotes = False
    after_quoted = False  # just closed a quoted field; only , CR LF may follow
    started = False  # current record has content
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if in_quotes:
            if ch == '"':
                if i + 1 < n and text[i + 1] == '"':
                    buf.append('"')
                    i += 2
                    continue
                in_quotes = False
                after_quoted = True
            else:
                buf.append(ch)
            i += 1
            continue
        if ch == '"':
            if buf or after_quoted:
                raise MalformedCsv("quote opened in the middle of a field", row_number)
            in_quotes = True
            started = True
            i += 1
            continue
        if ch == ",":
            fields.append("".join(buf))
            buf.clear()
            after_quoted = False
            started = True
            i += 1
            continue
        if ch in "\r\n":
            if ch == "\r" and i + 1 < n and text[i + 1] == "\n":
                i += 1
            if started or fields:
                fields.append("".join(buf))
                yield row_number, fields
                fields = []
                buf.clear()
            row_number += 1
            after_quoted = False
            started = False
            i += 1
            continue
        if after_quoted:
            raise MalformedCsv("unexpected text after closing quote", row_number)
        buf.append(ch)
        started = True
        i += 1
    if in_quotes:
        raise MalformedCsv("unbalanced quote", row_number)
    if started or fields:
        fields.append("".join(buf))
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
        text = data.decode("utf-8-sig")
    else:
        text = data.lstrip("﻿")

    rows = list(_read_rows(text))
    if not rows:
        raise EmptyInput("no header row")

    header_row_number, header = rows[0]
    columns: list[str] = []
    for name in header:
        trimmed = re.sub(r"\s+", " ", name).strip()
        column = _CANONICAL.get(trimmed.lower(), trimmed)
        if column and column in columns:
            raise MalformedCsv(f"header names column {column!r} twice", header_row_number)
        columns.append(column)

    records = []
    for row_number, cells in rows[1:]:
        if len(cells) != len(columns):
            raise MalformedCsv(
                f"expected {len(columns)} fields, found {len(cells)}", row_number
            )
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
    return re.sub(r"\s+", "_", raw.strip())


def parse_number(text: str) -> Decimal:
    """Parse a catalog numeric cell; thousands separators are tolerated.

    Non-finite values (NaN, sNaN, Infinity) are not numbers a catalog can
    carry, and are rejected like any other unparsable cell.
    """
    cleaned = text.strip().replace(",", "")
    try:
        value = Decimal(cleaned)
    except InvalidOperation:
        value = None
    if value is None or not value.is_finite():
        raise UnparsableNumber(f"not a number: {text!r}")
    return value


_YEARS_SUFFIX = re.compile(r"\s*(?:yrs?\.?|years?)\s*$", re.IGNORECASE)


def parse_years(text: str) -> Decimal:
    """Parse an expected-lifetime cell, tolerating a trailing year marker."""
    return parse_number(_YEARS_SUFFIX.sub("", text.strip()))


def parse_launch_date(text: str) -> date:
    """Accept ISO-8601 or M/D/YYYY and normalize to a date."""
    cleaned = text.strip()
    for fmt in ("%Y-%m-%d", "%m/%d/%Y"):
        try:
            return datetime.strptime(cleaned, fmt).date()
        except ValueError:
            continue
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

_MASS_POWER_COLUMNS: tuple[tuple[str, str], ...] = (
    ("Launch Mass (kg.)", "has_Launch_Mass"),
    ("Dry Mass (kg.)", "has_Dry_Mass"),
    ("Power (watts)", "has_Power_value"),
)


class _RowContext:
    """Assertion accumulator for one row, tagging each assertion's field."""

    def __init__(self) -> None:
        self.resolved: list[tuple[str, Assertion]] = []

    def emit(self, fieldname: str, subject: TermId, predicate: str, obj) -> None:
        kind = TermKind.DATA_PROPERTY if isinstance(obj, Literal) else TermKind.OBJECT_PROPERTY
        if predicate == "instance_of":
            pred = INSTANCE_OF
        else:
            pred = TermId(predicate, kind)
        self.resolved.append((fieldname, Assertion(subject, pred, obj)))


def _match_taxonomy_class(ont: Ontology, raw: str, suffix: str, root: str) -> Optional[str]:
    """Map a cell value onto a class in the subtree under ``root``.

    Tried in order: the normalized value with ``suffix`` appended, then the
    normalized value itself.  Overlay-added leaves participate automatically.
    """
    normalized = re.sub(r"[\s/-]+", "_", raw.strip())
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
    if ont.is_subclass_of(refined, base) or ont.is_subclass_of(base, refined):
        return (refined if ont.is_subclass_of(refined, base) else base), None
    return refined, None


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
    pairs = resolve_record_fields(record, mode, ont, satellite_name, issues, notes)
    return [assertion for _fieldname, assertion in pairs]


def resolve_record_fields(
    record: RawRecord,
    mode: ModelingMode,
    ont: Ontology,
    satellite_name: Optional[str] = None,
    issues: Optional[list[IngestViolation]] = None,
    notes: Optional[list[IngestWarning]] = None,
) -> list[tuple[str, Assertion]]:
    """Like :func:`resolve_record` but keeps each assertion's source field."""
    name_cell = record.get("Name of Satellite")
    if name_cell is None:
        raise ValueError(f"row {record.row_number}: Name of Satellite is empty")
    if satellite_name is None:
        satellite_name = instance_name(name_cell)
    sat = instance_term(satellite_name)
    ctx = _RowContext()

    def fail(fieldname: str, exc: SatkgError, code: str) -> None:
        if issues is None:
            raise exc
        issues.append(IngestViolation(record.row_number, fieldname, code, str(exc)))

    def warn(fieldname: str, message: str) -> None:
        if notes is not None:
            notes.append(IngestWarning(record.row_number, fieldname, message))

    # (a) satellite typed by catalog membership and, when the purpose maps to
    # a function subclass, by that subclass as well
    ctx.emit("Name of Satellite", sat, "instance_of", class_term("Artificial_Satellite"))
    purpose_cell = record.get("Purpose")
    purpose_class = None
    if purpose_cell is not None:
        purpose_class = _match_taxonomy_class(ont, purpose_cell, "_Purpose", "Purpose")
        if purpose_class is None:
            warn("Purpose", f"unrecognized purpose {purpose_cell!r}; kept generic Purpose")
        else:
            fn_class = FUNCTION_SATELLITE_CLASSES.get(purpose_class)
            if fn_class is not None:
                ctx.emit("Purpose", sat, "instance_of", class_term(fn_class))

    # (a/b) identifier instances for the primary and alternate names
    name_inst = instance_term(f"{satellite_name}_Name")
    ctx.emit("Name of Satellite", name_inst, "instance_of", class_term("Satellite_Name"))
    ctx.emit("Name of Satellite", sat, "has_Identifier", name_inst)
    ctx.emit("Name of Satellite", name_inst, "has_Identifier_value", Literal(name_cell))
    alt_cell = record.get("Alternate Names")
    if alt_cell is not None:
        for alt in _split(alt_cell, ","):
            alt_inst = instance_term(f"{instance_name(alt)}_Name")
            ctx.emit("Alternate Names", alt_inst, "instance_of", class_term("Alternate_Satellite_Name"))
            ctx.emit("Alternate Names", sat, "has_Identifier", alt_inst)
            ctx.emit("Alternate Names", alt_inst, "has_Identifier_value", Literal(alt))

    # (c) UN registry: countries and organizations split by gazetteer lookup
    registry = record.get("Country/Org of UN Registry")
    if registry is not None:
        entity = instance_term(instance_name(registry))
        if is_country(registry):
            ctx.emit("Country/Org of UN Registry", entity, "instance_of", class_term("Country"))
            relation = "is_registered_Country_in_UN_Register_of_Space_Objects_for"
        else:
            ctx.emit("Country/Org of UN Registry", entity, "instance_of", class_term("Organization"))
            relation = "is_registered_Organization_in_UN_Register_of_Space_Objects_for"
        ctx.emit("Country/Org of UN Registry", entity, relation, sat)

    # (d) operators/owners; the column does not distinguish the two roles,
    # so every listed entity is typed and linked as both
    opown_cell = record.get("Operator/Owner")
    country_cell = record.get("Country of Operator/Owner")
    countries = _split(country_cell, "/") if country_cell is not None else []
    if opown_cell is not None:
        for entity_name in _split(opown_cell, "/"):
            entity = instance_term(instance_name(entity_name))
            ctx.emit("Operator/Owner", entity, "instance_of", class_term("Operator"))
            ctx.emit("Operator/Owner", entity, "instance_of", class_term("Owner"))
            ctx.emit("Operator/Owner", sat, "has_Operator", entity)
            ctx.emit("Operator/Owner", sat, "has_Owner", entity)
            for country in countries:
                c_inst = instance_term(instance_name(country))
                ctx.emit("Country of Operator/Owner", c_inst, "instance_of", class_term("Country"))
                ctx.emit("Country of Operator/Owner", entity, "has_Country_of_Origin", c_inst)

    # (e) users
    users_cell = record.get("Users")
    if users_cell is not None:
        for user in _split(users_cell, "/"):
            user_class = _match_taxonomy_class(ont, user, "_User", "User")
            if user_class is None:
                user_class = "User"
                warn("Users", f"unrecognized user sector {user!r}; typed as User")
            user_inst = instance_term(f"{satellite_name}_{user_class}")
            ctx.emit("Users", user_inst, "instance_of", class_term(user_class))
            ctx.emit("Users", sat, "has_User", user_inst)

    # (f) purpose instance; the detailed purpose takes precedence when it
    # names a more specific class
    detailed_cell = record.get("Detailed Purpose")
    detailed_class = None
    if detailed_cell is not None:
        detailed_class = _match_taxonomy_class(ont, detailed_cell, "_Purpose", "Purpose")
        if detailed_class is None:
            warn("Detailed Purpose", f"unrecognized detailed purpose {detailed_cell!r}")
    final_purpose = detailed_class or purpose_class
    if final_purpose is None and purpose_cell is not None:
        final_purpose = "Purpose"
    if final_purpose is not None:
        fieldname = "Detailed Purpose" if detailed_class else "Purpose"
        p_inst = instance_term(f"{satellite_name}_Purpose")
        ctx.emit(fieldname, p_inst, "instance_of", class_term(final_purpose))
        ctx.emit(fieldname, sat, "has_Purpose", p_inst)

    # (g) orbit: class and type cells merge onto one subtree class
    orbit_inst: Optional[TermId] = None
    orbit_class_cell = record.get("Class of Orbit")
    if orbit_class_cell is not None:
        try:
            orbit_class, merge_warning = _resolve_orbit_class(
                ont, orbit_class_cell, record.get("Type of Orbit")
            )
        except UnknownOrbitClass as exc:
            fail("Class of Orbit", exc, "unknown_orbit_class")
        else:
            if merge_warning:
                warn("Type of Orbit", merge_warning)
            orbit_inst = instance_term(f"{satellite_name}_Orbit")
            ctx.emit("Class of Orbit", orbit_inst, "instance_of", class_term(orbit_class))
            ctx.emit("Class of Orbit", sat, "has_Orbit", orbit_inst)

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
            fail(column, exc, "unparsable_number")
            continue
        parsed_params[param_class] = value
        literal = Literal(value)
        if mode is ModelingMode.REIFIED:
            param_inst = instance_term(f"{owner.name}_{param_class}")
            ctx.emit(column, param_inst, "instance_of", class_term(param_class))
            ctx.emit(column, owner, f"has_{param_class}", param_inst)
            ctx.emit(column, param_inst, f"has_{param_class}_value", literal)
        else:
            ctx.emit(column, owner, f"has_{param_class}_value", literal)
    perigee = parsed_params.get("Perigee")
    apogee = parsed_params.get("Apogee")
    if perigee is not None and apogee is not None and perigee > apogee:
        warn("Perigee (km)", f"perigee {perigee} exceeds apogee {apogee}")

    # (h continued) masses and power
    for column, prop in _MASS_POWER_COLUMNS:
        cell = record.get(column)
        if cell is None:
            continue
        try:
            ctx.emit(column, sat, prop, Literal(parse_number(cell)))
        except UnparsableNumber as exc:
            fail(column, exc, "unparsable_number")

    # (i) launch data, contractor, identifiers, comments
    date_cell = record.get("Date of Launch")
    if date_cell is not None:
        try:
            ctx.emit("Date of Launch", sat, "has_Date_of_Launch", Literal(parse_launch_date(date_cell)))
        except UnparsableDate as exc:
            fail("Date of Launch", exc, "unparsable_date")
    lifetime_cell = record.get("Expected Lifetime")
    if lifetime_cell is not None:
        try:
            ctx.emit("Expected Lifetime", sat, "has_Expected_Lifetime", Literal(parse_years(lifetime_cell)))
        except UnparsableNumber as exc:
            fail("Expected Lifetime", exc, "unparsable_number")

    contractor_cell = record.get("Contractor")
    if contractor_cell is not None:
        contractor = instance_term(instance_name(contractor_cell))
        ctx.emit("Contractor", contractor, "instance_of", class_term("Contractor"))
        ctx.emit("Contractor", sat, "has_Contractor", contractor)
        contractor_country = record.get("Country of Contractor")
        if contractor_country is not None:
            for country in _split(contractor_country, "/"):
                c_inst = instance_term(instance_name(country))
                ctx.emit("Country of Contractor", c_inst, "instance_of", class_term("Country"))
                ctx.emit("Country of Contractor", contractor, "has_Country_of_Origin", c_inst)

    site_cell = record.get("Launch Site")
    if site_cell is not None:
        site = instance_term(instance_name(site_cell))
        ctx.emit("Launch Site", site, "instance_of", class_term("Launch_Site"))
        ctx.emit("Launch Site", sat, "has_Launch_Site", site)
    vehicle_cell = record.get("Launch Vehicle")
    if vehicle_cell is not None:
        vehicle = instance_term(instance_name(vehicle_cell))
        ctx.emit("Launch Vehicle", vehicle, "instance_of", class_term("Launch_Vehicle"))
        ctx.emit("Launch Vehicle", sat, "has_Launch_Vehicle", vehicle)

    cospar = record.get("COSPAR Number")
    if cospar is not None:
        ctx.emit("COSPAR Number", sat, "has_COSPAR_number", Literal(cospar))
    norad = record.get("NORAD Number")
    if norad is not None:
        ctx.emit("NORAD Number", sat, "has_NORAD_number", Literal(norad))
    comments = record.get("Comments")
    if comments is not None:
        ctx.emit("Comments", sat, "has_Satellite_Comment", Literal(comments))

    return ctx.resolved


_ERROR_CODES: tuple[tuple[type, str], ...] = (
    (RestrictionViolation, "restriction"),
    (TypeMismatch, "type"),
    (FunctionalViolation, "functional"),
    (UnknownTerm, "unknown_term"),
)


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
            report.violations.append(
                IngestViolation(
                    record.row_number, "Name of Satellite", "missing_name",
                    "row skipped: Name of Satellite is empty",
                )
            )
            continue
        name = instance_name(name_cell)
        if name in satellite_names:
            name = f"{name}_row{record.row_number}"
        satellite_names.add(name)

        pairs = resolve_record_fields(
            record, mode, ont,
            satellite_name=name,
            issues=report.violations,
            notes=report.warnings,
        )
        report.rows_ingested += 1
        for fieldname, assertion in pairs:
            store.add_instance(assertion.subject.name)
            if isinstance(assertion.object, TermId) and assertion.object.kind is TermKind.INSTANCE:
                store.add_instance(assertion.object.name)
            before_warnings = len(store.warnings)
            try:
                if store.add(assertion):
                    report.assertions_created += 1
            except SatkgError as exc:
                code = "error"
                for exc_type, exc_code in _ERROR_CODES:
                    if isinstance(exc, exc_type):
                        code = exc_code
                        break
                report.violations.append(
                    IngestViolation(record.row_number, fieldname, code, str(exc))
                )
            for message in store.warnings[before_warnings:]:
                report.warnings.append(IngestWarning(record.row_number, fieldname, message))
    return store, report
