"""Seeded synthetic UCS catalogs and the answers the pipeline must produce.

``generate`` draws rows the way ``tests/fixtures/ucs_sample.csv`` does:
eccentricities at the boundaries (exactly 0.14 and exactly 1) and above 1,
elliptical/Molniya orbits, GEO longitudes, sentinel cells, missing operators,
repeated satellite names, alternate names, quoted commas and embedded
newlines.  The program under test only ever sees ``Catalog.csv``; every
expected answer below is derived from the structured draws, not from satkg.
"""

from __future__ import annotations

import csv
import io
import random
import re
from dataclasses import dataclass, field
from datetime import date
from decimal import Decimal
from typing import Optional

COLUMNS = (
    "Name of Satellite", "Alternate Names", "Country/Org of UN Registry",
    "Country of Operator/Owner", "Operator/Owner", "Users", "Purpose",
    "Detailed Purpose", "Class of Orbit", "Type of Orbit",
    "Longitude of GEO (degrees)", "Perigee (km)", "Apogee (km)", "Eccentricity",
    "Inclination (degrees)", "Period (minutes)", "Launch Mass (kg.)",
    "Dry Mass (kg.)", "Power (watts)", "Date of Launch", "Expected Lifetime",
    "Contractor", "Country of Contractor", "Launch Site", "Launch Vehicle",
    "COSPAR Number", "NORAD Number", "Comments",
)

# Orbit taxonomy of the catalog schema plus the reference-vocabulary classes
# that ``apply_mapping`` asserts; used to close expected typings.
PARENTS = {
    "Nearly_Circular_Orbit": "Orbit", "Elliptical_Orbit": "Orbit",
    "LEO_Orbit": "Nearly_Circular_Orbit", "MEO_Orbit": "Nearly_Circular_Orbit",
    "GEO_Orbit": "Nearly_Circular_Orbit", "Polar_Orbit": "Nearly_Circular_Orbit",
    "Sun_Synchronous_Orbit": "LEO_Orbit", "Molniya_Orbit": "Elliptical_Orbit",
    "Deep_Highly_Eccentric_Orbit": "Elliptical_Orbit",
    "Satellite": "Spacecraft", "Spacecraft": "Space_Artifact",
    "Space_Artifact": "Space_Object",
}
FUNCTION_CLASS = {
    "Communications": "Communications_Satellite",
    "Earth Observation": "Earth_Observing_Satellite",
    "Navigation": "Navigation_Satellite",
    "Space Science": "Space_Science_Satellite",
    "Technology Development": "Technology_Development_Satellite",
}
ORBIT_CLASS = {  # (Class of Orbit, Type of Orbit) -> resolved orbit class
    ("LEO", ""): "LEO_Orbit", ("LEO", "Sun-Synchronous"): "Sun_Synchronous_Orbit",
    ("LEO", "Polar"): "Polar_Orbit", ("MEO", ""): "MEO_Orbit", ("GEO", ""): "GEO_Orbit",
    ("Elliptical", ""): "Elliptical_Orbit", ("Elliptical", "Molniya"): "Molniya_Orbit",
    ("Elliptical", "Deep Highly Eccentric"): "Deep_Highly_Eccentric_Orbit",
}
#: Parameters every orbit should carry, in the order the validator lists gaps.
CORE_PARAMS = ("Orbital_Eccentricity", "Orbital_Inclination", "Orbital_Period", "Perigee", "Apogee")
MASS_COLUMNS = (
    ("Launch Mass (kg.)", "has_Launch_Mass"), ("Dry Mass (kg.)", "has_Dry_Mass"),
    ("Power (watts)", "has_Power_value"),
)

PREFIXES = ("Starlink", "Flock", "Lemur", "Cosmos", "Iridium", "GSAT", "Yaogan", "Galileo",
            "Sentinel", "Meridian", "Orbcomm", "Globalstar", "Intelsat", "Beidou", "Kanopus")
SPACED = frozenset({"Meridian", "Cosmos", "Kanopus"})  # "Meridian 3" style names
COUNTRIES = ("USA", "United States", "Russia", "China", "India", "France", "Japan",
             "Denmark", "United Kingdom", "Germany", "Luxembourg")
ORGS = ("ESA", "EUMETSAT", "Intelsat Org", "Arabsat")
OPERATORS = ("Aalborg University", "ISRO", "Russian Space Forces", "TerraWatch SA", "NOAA",
             "Lockheed Martin", "SpaceX", "Planet Labs", "OneWeb Ltd", "China Satcom",
             "JAXA", "Airbus Defence", "Spire Global", "SES")
CONTRACTORS = ("Lockheed Martin", "ISS Reshetnev", "Aalborg University", "ISRO", "SpaceX",
               "Airbus Defence", "Thales Alenia", "Surrey Satellite", "CAST", "Boeing")
SITES = ("Guiana Space Center", "Satish Dhawan Space Centre", "Plesetsk Cosmodrome",
         "Cape Canaveral", "Baikonur Cosmodrome", "Vandenberg AFB", "Jiuquan")
VEHICLES = ("Soyuz 2.1a", "GSLV Mk III", "Falcon 9", "Long March 2D", "PSLV", "Ariane 5",
            "Electron", "Atlas V")
USERS = ("Civil", "Academic", "Amateur", "Commercial", "Government", "Military")
SENTINELS = ("", "", "NR", "unknown", "Unknown", "N/A")
COMMENTS = ("Uses indigenous cryogenic stage, first flight",
            "Monitors ocean color, temperature,\nand coastal ecosystems",
            'Also called "Pathfinder"',
            "Student-built demonstration satellite",
            "Part of a constellation, replaces an earlier unit")


def instance_name(raw: str) -> str:
    return re.sub(r"\s+", "_", raw.strip())


@dataclass
class Row:
    """One drawn catalog row: its CSV cells plus what they mean."""

    row_number: int
    cells: dict
    name: str  # disambiguated satellite instance name
    alternates: list = field(default_factory=list)
    registry: Optional[tuple] = None  # (entity, "Country" | "Organization")
    operators: list = field(default_factory=list)
    operator_countries: list = field(default_factory=list)
    users: list = field(default_factory=list)
    purpose: Optional[str] = None
    detailed_purpose_class: Optional[str] = None
    orbit_class: Optional[str] = None  # None: no orbit cell; "" : unknown class
    params: dict = field(default_factory=dict)  # parameter class -> Decimal
    masses: dict = field(default_factory=dict)
    launch_date: Optional[date] = None
    lifetime: Optional[Decimal] = None
    contractor: Optional[str] = None
    contractor_countries: list = field(default_factory=list)
    site: Optional[str] = None
    vehicle: Optional[str] = None
    cospar: Optional[str] = None
    norad: Optional[str] = None
    comment: Optional[str] = None

    @property
    def orbit(self) -> Optional[str]:
        return f"{self.name}_Orbit" if self.orbit_class else None

    @property
    def eccentricity(self) -> Optional[Decimal]:
        """The eccentricity the store keeps: values outside [0, 1] are rejected."""
        e = self.params.get("Orbital_Eccentricity")
        return e if e is not None and 0 <= e <= 1 else None

    @property
    def computed_class(self) -> Optional[str]:
        e = self.eccentricity
        if not self.orbit_class or e is None:
            return None
        return "Nearly_Circular_Orbit" if e <= Decimal("0.14") else "Elliptical_Orbit"

    @property
    def conflict(self) -> bool:
        """The computed class contradicts the branch the asserted class sits in.

        Rows are drawn so that class and eccentricity agree, as in the
        catalog, so this stays false unless the draws change."""
        computed = self.computed_class
        branch = closure([self.orbit_class]) & {"Nearly_Circular_Orbit", "Elliptical_Orbit"}
        return computed is not None and bool(branch) and computed not in branch


def closure(classes) -> set:
    out = set()
    for c in classes:
        while c is not None and c not in out:
            out.add(c)
            c = PARENTS.get(c)
    return out


class _Drawer:
    """Seeded draws.  Categorical draws come from shuffled decks of 100 with
    exact proportions, so catalogs of one size carry the same mix of row
    kinds, orbits and optional cells whatever the seed; only names and
    values differ.  That keeps the work per catalog steady across seeds."""

    def __init__(self, rng: random.Random):
        self.r = rng
        self.decks: dict = {}

    def pick(self, weighted: tuple):
        deck = self.decks.get(weighted)
        if not deck:
            deck = [value for value, weight in weighted for _ in range(round(weight * 100))]
            self.r.shuffle(deck)
            self.decks[weighted] = deck
        return deck.pop()

    def chance(self, p: float) -> bool:
        return self.pick(((True, p), (False, 1 - p)))

    def sentinel(self) -> str:
        return self.r.choice(SENTINELS)

    def decimal(self, lo: float, hi: float, places: int) -> str:
        return f"{self.r.uniform(lo, hi):.{places}f}"


ROW_KINDS = (("repeat", 0.04), ("sparse", 0.04), ("comment", 0.02), ("unknown_orbit", 0.01),
             ("rejected", 0.02), ("full", 0.87))
ORBITS = (("none", 0.04), ("LEO", 0.51), ("MEO", 0.07), ("GEO", 0.22), ("Elliptical", 0.16))


def generate(seed: int, rows: int) -> "Catalog":
    """Draw ``rows`` catalog rows from ``seed``; same seed, same bytes."""
    d = _Drawer(random.Random(seed))
    out: list[Row] = []
    used_names: set[str] = set()
    for index in range(rows):
        row_number = index + 2  # the header is row 1
        kind = d.pick(ROW_KINDS)
        if kind == "repeat" and out:
            row = _repeat_row(d, row_number, d.r.choice(out))
        elif kind == "sparse":
            row = _sparse_row(d, row_number, index)
        elif kind == "comment":
            row = _comment_row(d, row_number, index)
        elif kind == "unknown_orbit":
            row = _unknown_orbit_row(d, row_number, index)
        elif kind == "rejected":
            row = _rejected_row(d, row_number, index)
        else:
            row = _full_row(d, row_number, index)
        base = instance_name(row.cells["Name of Satellite"])
        row.name = f"{base}_row{row_number}" if base in used_names else base
        used_names.add(row.name)
        out.append(row)
    return Catalog(out)


def _satellite_name(d: _Drawer, index: int) -> str:
    prefix = d.r.choice(PREFIXES)
    return f"{prefix} {index + 1}" if prefix in SPACED else f"{prefix}-{index + 1}"


def _blank_cells() -> dict:
    return {c: "" for c in COLUMNS}


def _repeat_row(d: _Drawer, row_number: int, earlier: Row) -> Row:
    cells = _blank_cells()
    cells["Name of Satellite"] = earlier.cells["Name of Satellite"]
    user = d.r.choice(USERS)
    cells["Users"] = user
    return Row(row_number, cells, "", users=[f"{user}_User"])


def _sparse_row(d: _Drawer, row_number: int, index: int) -> Row:
    cells = _blank_cells()
    cells["Name of Satellite"] = f"TechDemo-{index + 1}"
    cells["Purpose"] = "Technology Development"
    e = d.decimal(0.0, 0.1, 3)
    cells["Eccentricity"] = e
    return Row(row_number, cells, "", purpose="Technology Development",
               params={"Orbital_Eccentricity": Decimal(e)})


def _comment_row(d: _Drawer, row_number: int, index: int) -> Row:
    cells = _blank_cells()
    cells["Name of Satellite"] = f"MicroSat {index + 1}"
    comment = d.r.choice(COMMENTS)
    cells["Comments"] = comment
    return Row(row_number, cells, "", comment=comment.strip())


def _unknown_orbit_row(d: _Drawer, row_number: int, index: int) -> Row:
    """A Lagrange orbit (no class configured) whose perigee exceeds its apogee."""
    cells = _blank_cells()
    cells["Name of Satellite"] = f"Halo Explorer {index + 1}"
    cells["Purpose"] = "Space Science"
    cells["Class of Orbit"] = "Lagrange"
    cells["Perigee (km)"], cells["Apogee (km)"], cells["Eccentricity"] = "1000", "500", "1.0"
    params = {"Perigee": Decimal(1000), "Apogee": Decimal(500),
              "Orbital_Eccentricity": Decimal("1.0")}
    return Row(row_number, cells, "", purpose="Space Science", orbit_class="", params=params)


def _rejected_row(d: _Drawer, row_number: int, index: int) -> Row:
    """An escape trajectory: eccentricity above 1, rejected by the schema."""
    cells = _blank_cells()
    cells["Name of Satellite"] = f"Probe-X{index + 1}"
    cells["Country/Org of UN Registry"] = "NR"
    cells["Purpose"] = "Space Science"
    cells["Class of Orbit"], cells["Type of Orbit"] = "Elliptical", "Deep Highly Eccentric"
    e = d.decimal(1.01, 1.5, 2)
    cells["Perigee (km)"], cells["Apogee (km)"] = "500", "240000"
    cells["Eccentricity"], cells["Inclination (degrees)"] = e, "28.5"
    params = {"Perigee": Decimal(500), "Apogee": Decimal(240000),
              "Orbital_Eccentricity": Decimal(e), "Orbital_Inclination": Decimal("28.5")}
    return Row(row_number, cells, "", purpose="Space Science",
               orbit_class="Deep_Highly_Eccentric_Orbit", params=params)


def _full_row(d: _Drawer, row_number: int, index: int) -> Row:
    r = d.r
    cells = _blank_cells()
    row = Row(row_number, cells, "")
    name = _satellite_name(d, index)
    cells["Name of Satellite"] = name
    if d.chance(0.2):
        prefix = name.replace(" ", "-").split("-")[0]
        alts = [f"{prefix}{index + 1}"]
        if d.chance(0.5):
            alts.append(f"{prefix[:3].upper()}-GS{index + 1}")
        cells["Alternate Names"] = ", ".join(alts)
        row.alternates = alts

    if d.chance(0.08):
        cells["Country/Org of UN Registry"] = d.sentinel()
    elif d.chance(0.15):
        org = r.choice(ORGS)
        cells["Country/Org of UN Registry"] = org
        row.registry = (org, "Organization")
    else:
        country = r.choice(COUNTRIES)
        cells["Country/Org of UN Registry"] = country
        row.registry = (country, "Country")

    countries = r.sample(COUNTRIES, 2 if d.chance(0.1) else 1)
    cells["Country of Operator/Owner"] = "/".join(countries)
    if d.chance(0.15):  # missing operator, as in sparse catalog rows
        cells["Operator/Owner"] = d.sentinel()
    else:
        row.operators = r.sample(OPERATORS, 2 if d.chance(0.15) else 1)
        cells["Operator/Owner"] = "/".join(row.operators)
        row.operator_countries = countries

    if d.chance(0.9):
        users = r.sample(USERS, 2 if d.chance(0.25) else 1)
        cells["Users"] = "/".join(users)
        row.users = [f"{u}_User" for u in users]
    if d.chance(0.92):
        row.purpose = r.choice(tuple(FUNCTION_CLASS))
        cells["Purpose"] = row.purpose
        if row.purpose == "Earth Observation" and d.chance(0.2):
            cells["Detailed Purpose"] = "Earth Science"
            row.detailed_purpose_class = "Earth_Science_Purpose"

    _draw_orbit(d, cells, row)

    for column, prop in MASS_COLUMNS:
        if d.chance(0.6):
            value = r.randint(1, 6000)
            cells[column] = f"{value:,}" if value >= 1000 and d.chance(0.3) else str(value)
            row.masses[prop] = Decimal(value)
        elif d.chance(0.3):
            cells[column] = d.sentinel()
    if d.chance(0.85):
        launched = date(r.randint(1990, 2023), r.randint(1, 12), r.randint(1, 28))
        cells["Date of Launch"] = (launched.isoformat() if d.chance(0.4)
                                   else f"{launched.month}/{launched.day}/{launched.year}")
        row.launch_date = launched
    if d.chance(0.5):
        years = r.randint(1, 20)
        cells["Expected Lifetime"] = f"{years} yrs." if d.chance(0.3) else str(years)
        row.lifetime = Decimal(years)
    if d.chance(0.8):
        row.contractor = r.choice(CONTRACTORS)
        cells["Contractor"] = row.contractor
        if d.chance(0.85):
            row.contractor_countries = [r.choice(COUNTRIES)]
            cells["Country of Contractor"] = row.contractor_countries[0]
    if d.chance(0.85):
        row.site = r.choice(SITES)
        cells["Launch Site"] = row.site
    if d.chance(0.85):
        row.vehicle = r.choice(VEHICLES)
        cells["Launch Vehicle"] = row.vehicle
    if d.chance(0.8):
        row.cospar = f"{r.randint(1990, 2023)}-{r.randint(1, 150):03d}{r.choice('ABCDE')}"
        cells["COSPAR Number"] = row.cospar
    if d.chance(0.85):
        row.norad = str(20000 + index)
        cells["NORAD Number"] = row.norad
    if d.chance(0.1):
        comment = r.choice(COMMENTS)
        cells["Comments"] = comment
        row.comment = comment.strip()
    return row


def _draw_orbit(d: _Drawer, cells: dict, row: Row) -> None:
    r = d.r
    pick = d.pick(ORBITS)
    if pick == "none":
        return
    if pick == "LEO":
        key = ("LEO", r.choice(("", "", "Sun-Synchronous", "Sun-Synchronous", "Polar")))
        perigee = r.randint(300, 1200)
        apogee = perigee + r.randint(0, 400)
        ecc = "0.14" if d.chance(0.05) else ("0" if d.chance(0.05) else d.decimal(0, 0.05, 4))
    elif pick == "MEO":
        key = ("MEO", "")
        perigee = r.randint(19000, 23000)
        apogee = perigee + r.randint(0, 500)
        ecc = d.decimal(0, 0.02, 4)
    elif pick == "GEO":
        key = ("GEO", "")
        perigee = r.randint(35700, 35790)
        apogee = perigee + r.randint(0, 30)
        ecc = d.decimal(0, 0.0009, 4)
        longitude = d.decimal(-180, 180, 1)
        cells["Longitude of GEO (degrees)"] = longitude
        row.params["Longitude_Of_GEO"] = Decimal(longitude)
    else:
        key = ("Elliptical", r.choice(("", "Molniya", "Molniya", "Deep Highly Eccentric")))
        perigee = r.randint(500, 2000)
        apogee = r.randint(20000, 45000)
        if d.chance(0.06):
            ecc = "1"  # parabolic boundary: accepted with a warning
        elif key[1] == "Molniya":
            ecc = d.decimal(0.6, 0.75, 3)
        else:
            ecc = d.decimal(0.15, 0.95, 3)
    cells["Class of Orbit"], cells["Type of Orbit"] = key
    row.orbit_class = ORBIT_CLASS[key]
    if d.chance(0.06):
        cells["Eccentricity"] = d.sentinel()
    else:
        cells["Eccentricity"] = ecc
        row.params["Orbital_Eccentricity"] = Decimal(ecc)
    for column, param, value in (
        ("Perigee (km)", "Perigee", perigee), ("Apogee (km)", "Apogee", apogee),
        ("Inclination (degrees)", "Orbital_Inclination", None),
        ("Period (minutes)", "Orbital_Period", None),
    ):
        if d.chance(0.05):
            cells[column] = d.sentinel()
            continue
        if value is None:
            text = d.decimal(0, 180, 1) if param == "Orbital_Inclination" else d.decimal(90, 1500, 1)
        else:
            text = f"{value:,}" if value >= 10000 and d.chance(0.2) else str(value)
        cells[column] = text
        row.params[param] = Decimal(text.replace(",", ""))


class Catalog:
    """A generated catalog: the CSV bytes and the answers derived from the draws."""

    def __init__(self, rows: list):
        self.rows = rows
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([row.cells[c] for c in COLUMNS])
        self.csv = buf.getvalue().encode("utf-8")
        self.satellites = [row.name for row in rows]
        self.orbit_rows = [row for row in rows if row.orbit_class]

    # ------------------------------------------------------------ ingest

    def expected_assertions(self, reified: bool) -> set:
        """(subject, predicate, object) triples ingest must store.

        Objects are ("c", class), ("i", instance) or ("l", value)."""
        out: set = set()

        def typed(inst, cls):
            out.add((inst, "instance_of", ("c", cls)))

        def link(subject, prop, obj):
            out.add((subject, prop, ("i", obj)))

        def value(subject, prop, v):
            out.add((subject, prop, ("l", v)))

        for row in self.rows:
            s = row.name
            typed(s, "Artificial_Satellite")
            if row.purpose:
                typed(s, FUNCTION_CLASS[row.purpose])
            name_inst = f"{s}_Name"
            typed(name_inst, "Satellite_Name")
            link(s, "has_Identifier", name_inst)
            value(name_inst, "has_Identifier_value", row.cells["Name of Satellite"].strip())
            for alt in row.alternates:
                alt_inst = f"{instance_name(alt)}_Name"
                typed(alt_inst, "Alternate_Satellite_Name")
                link(s, "has_Identifier", alt_inst)
                value(alt_inst, "has_Identifier_value", alt)
            if row.registry:
                entity, kind = row.registry
                typed(instance_name(entity), kind)
                link(instance_name(entity),
                     f"is_registered_{kind}_in_UN_Register_of_Space_Objects_for", s)
            for op in row.operators:
                o = instance_name(op)
                typed(o, "Operator")
                typed(o, "Owner")
                link(s, "has_Operator", o)
                link(s, "has_Owner", o)
                for country in row.operator_countries:
                    typed(instance_name(country), "Country")
                    link(o, "has_Country_of_Origin", instance_name(country))
            for user_class in row.users:
                typed(f"{s}_{user_class}", user_class)
                link(s, "has_User", f"{s}_{user_class}")
            purpose_class = row.detailed_purpose_class or (
                f"{row.purpose.replace(' ', '_')}_Purpose" if row.purpose else None)
            if purpose_class:
                typed(f"{s}_Purpose", purpose_class)
                link(s, "has_Purpose", f"{s}_Purpose")
            owner = row.orbit or s
            if row.orbit:
                typed(row.orbit, row.orbit_class)
                link(s, "has_Orbit", row.orbit)
            for param, v in row.params.items():
                valid = param != "Orbital_Eccentricity" or 0 <= v <= 1
                if reified:
                    inst = f"{owner}_{param}"
                    typed(inst, param)
                    link(owner, f"has_{param}", inst)
                    if valid:
                        value(inst, f"has_{param}_value", v)
                elif valid:
                    value(owner, f"has_{param}_value", v)
            for prop, v in row.masses.items():
                value(s, prop, v)
            if row.launch_date:
                value(s, "has_Date_of_Launch", row.launch_date)
            if row.lifetime is not None:
                value(s, "has_Expected_Lifetime", row.lifetime)
            if row.contractor:
                c = instance_name(row.contractor)
                typed(c, "Contractor")
                link(s, "has_Contractor", c)
                for country in row.contractor_countries:
                    typed(instance_name(country), "Country")
                    link(c, "has_Country_of_Origin", instance_name(country))
            for inst_value, cls, prop in ((row.site, "Launch_Site", "has_Launch_Site"),
                                          (row.vehicle, "Launch_Vehicle", "has_Launch_Vehicle")):
                if inst_value:
                    typed(instance_name(inst_value), cls)
                    link(s, prop, instance_name(inst_value))
            for prop, text in (("has_COSPAR_number", row.cospar), ("has_NORAD_number", row.norad),
                               ("has_Satellite_Comment", row.comment)):
                if text:
                    value(s, prop, text)
        return out

    def expected_violations(self) -> dict:
        """Ingest violation counts by code."""
        rejected = sum(1 for r in self.rows if "Orbital_Eccentricity" in r.params
                       and r.eccentricity is None)
        unknown = sum(1 for r in self.rows if r.orbit_class == "")
        return {code: n for code, n in (("restriction", rejected), ("unknown_orbit_class", unknown))
                if n}

    # ---------------------------------------------------- classification

    def expected_classification(self) -> dict:
        """Typings classify adds per target, conflicts it reports, and orbits
        without a usable eccentricity whose class is not itself a target.

        An elliptical result on an orbit already typed Elliptical_Orbit adds
        nothing and is counted nowhere."""
        counts = {"nearly_circular": 0, "elliptical": 0, "unclassified": 0, "conflicts": 0}
        for row in self.orbit_rows:
            computed = row.computed_class
            if computed is None:
                if row.orbit_class != "Elliptical_Orbit":
                    counts["unclassified"] += 1
            elif row.conflict:
                counts["conflicts"] += 1
            elif computed == "Nearly_Circular_Orbit":
                counts["nearly_circular"] += 1
            elif row.orbit_class != "Elliptical_Orbit":
                counts["elliptical"] += 1
        return counts

    def expected_completeness(self) -> dict:
        """Orbit -> core parameters the validator must report missing."""
        out = {}
        for row in self.orbit_rows:
            have = {p for p in row.params if p != "Orbital_Eccentricity"}
            if row.eccentricity is not None:
                have.add("Orbital_Eccentricity")
            missing = [p for p in CORE_PARAMS if p not in have]
            if missing:
                out[row.orbit] = missing
        return out

    def expected_mapping_typings(self, reified: bool) -> int:
        """Reference typings apply_mapping adds: one per satellite, orbit and
        launch vehicle, two (Orbital_Element, Orbital_Property) per reified
        parameter instance."""
        vehicles = {instance_name(r.vehicle) for r in self.rows if r.vehicle}
        params = sum(len(r.params) for r in self.rows) if reified else 0
        return len(self.rows) + len(self.orbit_rows) + len(vehicles) + 2 * params

    # ------------------------------------------------------------- queries

    def classes_of(self, row: Row, instance: str) -> set:
        """Subsumption-closed typing of a satellite or orbit after classify and map."""
        if instance == row.name:
            asserted = ["Artificial_Satellite", "Satellite"]
            if row.purpose:
                asserted.append(FUNCTION_CLASS[row.purpose])
            return closure(asserted)
        asserted = [row.orbit_class, "Orbital_Path"]
        if row.computed_class and not row.conflict:
            asserted.append(row.computed_class)
        return closure(asserted)
