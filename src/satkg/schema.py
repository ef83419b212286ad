"""Builders for the UCS satellite-catalog ontology (UCSSO), the compact SSAO
reference vocabulary, and the term mapping between them.

Two modeling modes exist for orbital parameters:

* ``reified``: each parameter is an instance of its parameter class, linked
  from the satellite or orbit by an object property (``has_Perigee``) and
  carrying its number through a value property (``has_Perigee_value``).
* ``direct``: the value property attaches the number straight to the
  satellite or orbit; no parameter instances exist.

Each builder builds once per process (per mode) and hands every call its own
copy of that build, so two calls give equal results and changing one changes
neither the other nor a later call's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from typing import Callable

from .core import DatatypeSpec, NumericRestriction, Ontology, TermId, TermKind, class_term
from .errors import InvalidTermName, OverlayError, SatkgError


class ModelingMode(Enum):
    REIFIED = "reified"
    DIRECT = "direct"


def mode_of(ontology: Ontology) -> ModelingMode:
    """The modeling mode a schema was built for: reified exactly when it
    declares the eccentricity link ``has_Orbital_Eccentricity``."""
    if ontology.has_property("has_Orbital_Eccentricity"):
        return ModelingMode.REIFIED
    return ModelingMode.DIRECT


class MappingKind(Enum):
    EQUIVALENT = "equivalent"
    SUBSUMED_BY = "subsumed_by"


@dataclass(frozen=True)
class MappingEntry:
    local: TermId
    reference: TermId
    kind: MappingKind


# ----------------------------------------------------------------- inventory

#: Orbit taxonomy: leaf classes are grouped under the two eccentricity-based
#: branches; deployments may add further leaves through a schema overlay.
ORBIT_TAXONOMY: tuple[tuple[str, str], ...] = (
    ("Nearly_Circular_Orbit", "Orbit"),
    ("Elliptical_Orbit", "Orbit"),
    ("LEO_Orbit", "Nearly_Circular_Orbit"),
    ("MEO_Orbit", "Nearly_Circular_Orbit"),
    ("GEO_Orbit", "Nearly_Circular_Orbit"),
    ("Equatorial_Orbit", "Nearly_Circular_Orbit"),
    ("Polar_Orbit", "Nearly_Circular_Orbit"),
    ("Sun_Synchronous_Orbit", "LEO_Orbit"),
    ("Molniya_Orbit", "Elliptical_Orbit"),
    ("Deep_Highly_Eccentric_Orbit", "Elliptical_Orbit"),
    ("Cislunar_Orbit", "Elliptical_Orbit"),
)

PURPOSE_CLASSES: tuple[str, ...] = (
    "Communications_Purpose",
    "Earth_Observation_Purpose",
    "Navigation_Purpose",
    "Space_Science_Purpose",
    "Technology_Development_Purpose",
    "Earth_Science_Purpose",
)

USER_CLASSES: tuple[str, ...] = (
    "Civil_User",
    "Academic_User",
    "Amateur_User",
    "Commercial_User",
    "Government_User",
    "Military_User",
)

#: Function-based satellite subclasses, keyed by the purpose class that
#: selects them during ingestion.
FUNCTION_SATELLITE_CLASSES: dict[str, str] = {
    "Communications_Purpose": "Communications_Satellite",
    "Earth_Observation_Purpose": "Earth_Observing_Satellite",
    "Navigation_Purpose": "Navigation_Satellite",
    "Space_Science_Purpose": "Space_Science_Satellite",
    "Technology_Development_Purpose": "Technology_Development_Satellite",
    "Earth_Science_Purpose": "Earth_Science_Satellite",
}

#: Closed orbits keep eccentricity within [0, 1]; exactly 1 is accepted with
#: a warning since it marks the parabolic boundary.
ECCENTRICITY_RANGE = NumericRestriction(
    lower=Decimal(0), upper=Decimal(1), warn_at_upper=True
)

#: (class name, value property unit, value restriction)
ORBITAL_PARAMETERS: tuple[tuple[str, str | None, NumericRestriction | None], ...] = (
    ("Orbital_Eccentricity", None, ECCENTRICITY_RANGE),
    ("Orbital_Inclination", "degrees", None),
    ("Orbital_Period", "minutes", None),
    ("Perigee", "km", None),
    ("Apogee", "km", None),
    ("Longitude_Of_GEO", "degrees", None),
)

IDENTIFIER_CLASSES: tuple[str, ...] = (
    "Satellite_Name",
    "Alternate_Satellite_Name",
    "COSPAR_Number",
    "NORAD_Number",
)


def _built_once(build: Callable) -> Callable:
    """``build``, run once per process and argument; each call hands out a copy of that build."""
    made = functools.cache(build)

    @functools.wraps(build)
    def copy(*args):
        return made(*args).copy()  # an Ontology's, or a list's of frozen entries
    return copy


@_built_once
def build_ucsso(mode: ModelingMode) -> Ontology:
    """Construct the satellite-catalog schema for the given modeling mode."""
    ont = Ontology()

    # --- classes (identical in both modes) ---
    ont.define_class("Artificial_Satellite")
    for fn_class in FUNCTION_SATELLITE_CLASSES.values():
        ont.define_class(fn_class, ["Artificial_Satellite"])

    ont.define_class("Orbit")
    for child, parent in ORBIT_TAXONOMY:
        ont.define_class(child, [parent])

    ont.define_class("Orbital_Property")
    for param, _unit, _restriction in ORBITAL_PARAMETERS:
        ont.define_class(param, ["Orbital_Property"])

    ont.define_class("Purpose")
    for purpose in PURPOSE_CLASSES:
        ont.define_class(purpose, ["Purpose"])
    ont.define_alias("Function", "Purpose")

    ont.define_class("User")
    for user in USER_CLASSES:
        ont.define_class(user, ["User"])

    ont.define_class("Owner")
    ont.define_class("Operator")
    ont.define_class("Contractor")
    ont.define_class("Country")
    ont.define_class("Organization")
    ont.define_class("Company", ["Organization"])
    ont.define_class("University", ["Organization"])
    ont.define_class("Space_Agency", ["Organization"])

    ont.define_class("Identifier")
    for ident in IDENTIFIER_CLASSES:
        ont.define_class(ident, ["Identifier"])

    ont.define_class("Launch_Site")
    ont.define_class("Launch_Vehicle")
    ont.define_class("Launch_Date")
    ont.define_class("Launch_Mass")
    ont.define_class("Dry_Mass")
    ont.define_class("Artificial_Satellite_Power")
    ont.define_class("Satellite_Expected_Lifetime")
    ont.define_class("Satellite_Comment")

    # --- object properties shared by both modes ---
    sat = ["Artificial_Satellite"]
    ont.define_object_property("has_Orbit", sat, ["Orbit"])
    ont.define_object_property("has_Orbit_type", sat, ["Orbit"])
    ont.define_object_property(
        "is_registered_Country_in_UN_Register_of_Space_Objects_for",
        ["Country"],
        sat,
    )
    ont.define_object_property(
        "is_registered_Organization_in_UN_Register_of_Space_Objects_for",
        ["Organization"],
        sat,
    )
    ont.define_object_property("has_Operator", sat, ["Operator"])
    ont.define_object_property("has_Owner", sat, ["Owner"])
    ont.define_object_property("has_User", sat, ["User"])
    ont.define_object_property("has_Contractor", sat, ["Contractor"])
    ont.define_object_property("has_Identifier", sat, ["Identifier"])
    ont.define_object_property("has_Purpose", sat, ["Purpose"])
    ont.define_alias("has_Function", "has_Purpose")
    # The catalog attaches national origin to operators, owners and
    # contractors as well as to the satellite itself.
    ont.define_object_property(
        "has_Country_of_Origin",
        ["Artificial_Satellite", "Operator", "Owner", "Contractor"],
        ["Country"],
    )
    ont.define_object_property("has_Launch_Site", sat, ["Launch_Site"])
    ont.define_object_property("has_Launch_Vehicle", sat, ["Launch_Vehicle"])

    # --- orbital parameters ---
    param_domain = ["Artificial_Satellite", "Orbit"]
    if mode is ModelingMode.REIFIED:
        ont.define_object_property("has_Orbital_Property", param_domain, ["Orbital_Property"])
        ont.define_alias("has_Orbital_Parameter", "has_Orbital_Property")
    for param, unit, restriction in ORBITAL_PARAMETERS:
        if mode is ModelingMode.REIFIED:
            ont.define_object_property(f"has_{param}", param_domain, [param])
            value_domain = [param]
        else:
            value_domain = param_domain
        ont.define_data_property(
            f"has_{param}_value",
            value_domain,
            DatatypeSpec("decimal", unit, restriction),
        )

    # --- remaining data properties ---
    ont.define_data_property("has_Launch_Mass", sat, DatatypeSpec("decimal", "kg"), functional=True)
    ont.define_data_property("has_Dry_Mass", sat, DatatypeSpec("decimal", "kg"), functional=True)
    ont.define_data_property("has_Power_value", sat, DatatypeSpec("decimal", "watts"), functional=True)
    ont.define_data_property(
        "has_Date_of_Launch",
        ["Artificial_Satellite", "Launch_Vehicle"],
        DatatypeSpec("date"),
        functional=True,
    )
    ont.define_data_property(
        "has_Expected_Lifetime",
        ["Artificial_Satellite", "Launch_Vehicle"],
        DatatypeSpec("decimal", "years"),
    )
    ont.define_data_property("has_COSPAR_number", sat, DatatypeSpec("string"), functional=True)
    ont.define_data_property("has_NORAD_number", sat, DatatypeSpec("string"), functional=True)
    ont.define_data_property("has_Identifier_value", ["Identifier"], DatatypeSpec("string"))
    ont.define_data_property("has_Satellite_Comment", sat, DatatypeSpec("string"))

    return ont


@_built_once
def build_ssao_core() -> Ontology:
    """The compact reference vocabulary.

    The source vocabulary lists its classes without edges; the arrangement
    here follows ordinary domain usage: satellites are spacecraft, which are
    space artifacts, which are space objects; orbital elements are orbital
    properties, which are physical properties.
    """
    ont = Ontology()
    ont.define_class("Space_Object")
    ont.define_class("Space_Artifact", ["Space_Object"])
    ont.define_class("Spacecraft", ["Space_Artifact"])
    ont.define_class("Satellite", ["Spacecraft"])
    ont.define_class("Physical_Property")
    ont.define_class("Orbital_Property", ["Physical_Property"])
    ont.define_class("Orbital_Element", ["Orbital_Property"])
    ont.define_class("Central_Body")
    ont.define_class("Orbital_Path")
    ont.define_class("Spacecraft_Maneuver")
    return ont


# Identifier and social classes have no sensible home in the compact
# reference vocabulary and are deliberately left unmapped.
UNMAPPED_CLASSES: frozenset[str] = frozenset(
    (
        "Identifier",
        *IDENTIFIER_CLASSES,
        "User",
        *USER_CLASSES,
        "Owner",
        "Operator",
        "Contractor",
        "Country",
        "Organization",
        "Company",
        "University",
        "Space_Agency",
        "Purpose",
        *PURPOSE_CLASSES,
        "Launch_Site",
        "Launch_Date",
        "Satellite_Expected_Lifetime",
        "Satellite_Comment",
    )
)


@_built_once
def build_mapping() -> list[MappingEntry]:
    """Links from local catalog classes to the reference vocabulary."""

    def _entry(local: str, reference: str, kind: MappingKind) -> MappingEntry:
        return MappingEntry(
            TermId(local, TermKind.CLASS), TermId(reference, TermKind.CLASS), kind
        )

    entries = [_entry("Artificial_Satellite", "Satellite", MappingKind.EQUIVALENT)]
    for fn_class in FUNCTION_SATELLITE_CLASSES.values():
        entries.append(_entry(fn_class, "Satellite", MappingKind.SUBSUMED_BY))
    entries.append(_entry("Orbit", "Orbital_Path", MappingKind.SUBSUMED_BY))
    for child, _parent in ORBIT_TAXONOMY:
        entries.append(_entry(child, "Orbital_Path", MappingKind.SUBSUMED_BY))
    entries.append(_entry("Orbital_Property", "Orbital_Property", MappingKind.EQUIVALENT))
    for param, _unit, _restriction in ORBITAL_PARAMETERS:
        entries.append(_entry(param, "Orbital_Element", MappingKind.SUBSUMED_BY))
    entries.append(_entry("Launch_Vehicle", "Space_Artifact", MappingKind.SUBSUMED_BY))
    entries.append(_entry("Launch_Mass", "Physical_Property", MappingKind.SUBSUMED_BY))
    entries.append(_entry("Dry_Mass", "Physical_Property", MappingKind.SUBSUMED_BY))
    entries.append(
        _entry("Artificial_Satellite_Power", "Physical_Property", MappingKind.SUBSUMED_BY)
    )
    return entries


# ------------------------------------------------------------------ overlay

class _Edge(tuple):
    """A (class, parent) pair, equal to the plain pair, with its overlay ``line``."""

    line: int


def parse_overlay(text: str) -> list[tuple[str, str]]:
    """Parse the line-oriented schema overlay format.

    Each non-blank, non-comment line reads ``class <Name> < <Parent>`` and
    adds a leaf class beneath an existing one.  Each pair remembers its line
    for :func:`apply_overlay`'s errors.
    """
    out: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4 or parts[0] != "class" or parts[2] != "<":
            raise OverlayError(f"line {lineno}: expected 'class <Name> < <Parent>', got {raw!r}")
        try:
            out.append(_Edge((class_term(parts[1]).name, class_term(parts[3]).name)))
            out[-1].line = lineno
        except InvalidTermName as exc:
            raise OverlayError(f"line {lineno}: {exc}") from None
    return out


def apply_overlay(ont: Ontology, entries: list[tuple[str, str]]) -> None:
    """Add overlay classes to an ontology in place, as ``Ontology.add_classes``
    does; an error names the first line declaring its class or edge when the
    entries come from :func:`parse_overlay`."""
    edges: dict[str, list[tuple[str, str]]] = {}  # child -> its edges
    for edge in entries:
        edges.setdefault(edge[0], []).append(edge)
    steps = [(ont.define_class, group[0], (child,))  # each new class, then the edges
             for child, group in edges.items() if child not in ont.classes]
    steps += [(ont.add_parent, edge, edge)  # by parent; a repeat after its first line
              for child in edges for edge in sorted(edges[child])]
    for step, edge, args in steps:
        try:
            step(*args)
        except SatkgError as exc:
            if not hasattr(edge, "line"):
                raise
            raise type(exc)(f"line {edge.line}: {exc}") from None
