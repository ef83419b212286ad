"""Orbit classification and validation over a populated store.

Both read orbital parameters through one reach per parameter class ``P``:
instance -> the numbers of ``P`` reachable from it, built in one pass over
each predicate index involved.  A number is reached by the one-hop
``has_<P>_value`` under direct modeling, by the two-hop path through a
parameter instance typed by ``P`` under reified modeling (an untyped one is
not followed), or by both when no mode is given.  An orbit also reaches the
numbers of every satellite linking to it by ``has_Orbit`` or
``has_Orbit_type``, mirroring catalog rows that carry them on the satellite.

Classification is one fixed rule: an orbit with a reachable eccentricity at
or below 0.14 is nearly circular, one above it is elliptical.  Its conflicts
are a function of the store: ``validate`` recomputes them, so they are the
same before classification, after it and after a Turtle round trip.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Iterable, Optional, Union

from .core import InstanceStore, Literal, PropertyDef, TermId, TermKind, nogc
from .errors import ModeMismatch
from .schema import ModelingMode, mode_of

#: Catalog bound separating nearly circular from elliptical orbits.
NEARLY_CIRCULAR_MAX_ECCENTRICITY = Decimal("0.14")


@dataclass(frozen=True)
class Violation:
    subject: TermId
    #: domain | range | rule_conflict | completeness; out-of-range values and
    #: second functional values never reach a store (``InstanceStore.write``
    #: rejects them), so validation has no code for them
    code: str
    detail: str
    severity: str = "error"


def violations_to_jsonl(violations: Iterable[Violation]) -> str:
    lines = [
        json.dumps(
            {
                "kind": "violation" if v.severity == "error" else "warning",
                "subject": v.subject.name,
                "code": v.code,
                "detail": v.detail,
            },
            ensure_ascii=False,
        )
        for v in violations
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ------------------------------------------------------------- value access

Types = Callable[[str], frozenset[str]]


def _closed_types(store: InstanceStore) -> Types:
    """``store.all_types_of`` for the reads of one call, under ``functools.cache``: each
    instance closed once, and one frozenset shared by the instances of each closed typing."""
    shared: dict[frozenset[str], frozenset[str]] = {}

    @functools.cache
    def types(name: str) -> frozenset[str]:
        out = frozenset(store.all_types_of(name))
        return shared.setdefault(out, out)
    return types


def _reach(store: InstanceStore, param_class: str, mode: Optional[ModelingMode],
           types: Types) -> dict:
    """Instance -> its reachable numbers of ``param_class`` under ``mode`` (its
    one-hop values, its parameter instances', then its linking satellites'),
    for each instance that reaches any."""
    held: dict[str, list[Union[Decimal, int]]] = {}
    for s, _, o in store.facts_with_predicate(f"has_{param_class}_value"):
        if type(o) is Literal and isinstance(o.value, (Decimal, int)):
            held.setdefault(s, []).append(o.value)
    own = {} if mode is ModelingMode.REIFIED else {k: list(v) for k, v in held.items()}
    if mode is not ModelingMode.DIRECT:
        for s, _, o in store.facts_with_predicate(f"has_{param_class}"):
            if type(o) is str and o in held and param_class in types(o):
                own.setdefault(s, []).extend(held[o])
    reach = {name: list(values) for name, values in own.items()}
    for link in ("has_Orbit", "has_Orbit_type"):
        for s, _, o in store.facts_with_predicate(link):
            if s in own and type(o) is str:
                reach.setdefault(o, []).extend(own[s])
    return reach


# ------------------------------------------------------------ classification

def _classification(store: InstanceStore, mode: ModelingMode,
                    types: Types) -> tuple[list[Violation], list]:
    """The rule conflicts and the typings the eccentricity rule gives under
    ``mode``, orbit by orbit in store order, as a batch for ``InstanceStore.write``."""
    reach = _reach(store, "Orbital_Eccentricity", mode, types)
    conflicts: list[Violation] = []
    typings: list[tuple[str, str, str]] = []
    for term in store.instances:
        values = reach.get(term.name, ())
        closed = types(term.name) if values else ()
        if "Orbit" not in closed:
            continue
        computed = {
            "Nearly_Circular_Orbit" if v <= NEARLY_CIRCULAR_MAX_ECCENTRICITY else "Elliptical_Orbit"
            for v in values
        }
        if len(computed) > 1:
            detail = f"values reachable from {term.name!r} select {' and '.join(sorted(computed))}"
        else:
            (target,) = computed
            (other,) = {"Nearly_Circular_Orbit", "Elliptical_Orbit"} - computed
            if other not in closed:
                typings.append((term.name, "instance_of", target))
                continue
            conflicting = store.ontology.subclasses_of(other).intersection(store.types_of(term.name))
            detail = (f"computed {target} contradicts asserted "
                      f"{', '.join(sorted(conflicting))} on {term.name!r}")
        conflicts.append(Violation(term, "rule_conflict", detail))
    return conflicts, typings


@nogc
def classify_orbits(store: InstanceStore, mode: ModelingMode) -> InstanceStore:
    """Materialize the eccentricity typing; conflicts are reported, not repaired.

    Returns a new store.  Instances whose asserted typing contradicts the
    computed class keep their assertions and gain a ``rule_conflict`` entry
    in the result's ``rule_conflicts`` instead of the computed type.
    Instances with no reachable value stay unclassified.
    """
    if mode_of(store.ontology) is not mode:
        raise ModeMismatch(
            "reified mode expects object property 'has_Orbital_Eccentricity' in the schema"
            if mode is ModelingMode.REIFIED
            else "direct mode store should not declare 'has_Orbital_Eccentricity'"
        )
    conflicts, typings = _classification(store, mode, _closed_types(store))
    result = store.copy()
    for _position, exc in result.write(typings)[0]:  # a class the ontology lacks
        raise exc
    result.rule_conflicts = conflicts
    return result


@nogc
def materialize(store: InstanceStore) -> InstanceStore:
    """Make superclass typing explicit for every typing assertion; idempotent."""
    result = store.copy()
    result.write([(term.name, "instance_of", ancestor) for term in store.instances  # all defined
                  for t in store.types_of(term.name) for ancestor in store.ontology.ancestors(t)])
    return result


# ---------------------------------------------------------------- validation

#: Parameters every closed orbit is expected to carry.
CORE_ORBIT_PARAMETERS: tuple[str, ...] = (
    "Orbital_Eccentricity",
    "Orbital_Inclination",
    "Orbital_Period",
    "Perigee",
    "Apogee",
)


def _conforms(types: frozenset[str], declared: frozenset[str]) -> Optional[bool]:
    """True/False when an instance's closed typing decides conformance, None
    when the instance is untyped (open world: absence proves nothing)."""
    if not types:
        return None
    return not declared.isdisjoint(types)


def validate(store: InstanceStore) -> list[Violation]:
    """Schema-conformance check over the whole store.

    Domain and range classes are read disjunctively: an assertion conforms
    when the realized typing meets any declared class.  Untyped subjects or
    objects are not flagged, since nothing proves them ill-typed.  Numeric
    restrictions and functional properties need no check here: the store
    rejects an assertion that breaks either when it is added.
    """
    out: list[Violation] = []
    ont = store.ontology
    types = _closed_types(store)
    defs: dict[str, PropertyDef] = {}  # each predicate's, resolved once

    for s, p, o in store.facts():
        if p == "instance_of":
            continue
        pdef = defs.get(p) or defs.setdefault(p, ont.prop(p))
        if pdef.domain and _conforms(types(s), pdef.domain) is False:
            detail = f"{s!r} is not typed within the domain of {p!r}"
            out.append(Violation(store.instance(s), "domain", detail))
        if pdef.kind is TermKind.OBJECT_PROPERTY:
            if pdef.range_classes and _conforms(types(o), pdef.range_classes) is False:
                detail = f"object {o!r} of {p!r} is not typed within its range"
                out.append(Violation(store.instance(s), "range", detail))

    # Completeness: every orbit should expose the core parameter set.
    reached = [(p, set(_reach(store, p, None, types))) for p in CORE_ORBIT_PARAMETERS]
    for term in store.instances:
        if "Orbit" not in types(term.name):
            continue
        missing = [p for p, names in reached if term.name not in names]
        if missing:
            out.append(Violation(term, "completeness",
                                 f"orbit {term.name!r} lacks {', '.join(missing)}", "warning"))

    return out + _classification(store, mode_of(ont), types)[0]
