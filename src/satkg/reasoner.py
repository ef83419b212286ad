"""Rule-based classification and validation over a populated store.

The eccentricity rule types orbit instances as nearly circular (value at or
below 0.14) or elliptical (above).  Under reified modeling the value is only
reachable through a parameter instance that is actually typed by the
parameter class; under direct modeling a single hop suffices.  Values may
also hang off a satellite linked to the orbit, mirroring catalog rows that
carry the numbers on the satellite itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterable, Optional, Union

from .core import (
    InstanceStore,
    Literal,
    NumericRestriction,
    TermId,
    TermKind,
    class_term,
)
from .errors import ModeMismatch, UnknownTerm
from .schema import ModelingMode

#: Catalog bound separating nearly circular from elliptical orbits.
NEARLY_CIRCULAR_MAX_ECCENTRICITY = Decimal("0.14")


@dataclass(frozen=True)
class ClassificationRule:
    """Types instances of ``applies_to`` by a numeric test on one parameter."""

    target_class: str
    applies_to: str
    #: direct form: value property tested against the restriction
    value_property: str
    #: reified form: object link, required parameter typing, then the value
    object_property: str
    parameter_class: str
    restriction: NumericRestriction


ORBIT_CLASSIFICATION_RULES: tuple[ClassificationRule, ...] = (
    ClassificationRule(
        target_class="Nearly_Circular_Orbit",
        applies_to="Orbit",
        value_property="has_Orbital_Eccentricity_value",
        object_property="has_Orbital_Eccentricity",
        parameter_class="Orbital_Eccentricity",
        restriction=NumericRestriction(upper=NEARLY_CIRCULAR_MAX_ECCENTRICITY),
    ),
    # Complement rule: an orbit with a known eccentricity is elliptical
    # exactly when it is not nearly circular.
    ClassificationRule(
        target_class="Elliptical_Orbit",
        applies_to="Orbit",
        value_property="has_Orbital_Eccentricity_value",
        object_property="has_Orbital_Eccentricity",
        parameter_class="Orbital_Eccentricity",
        restriction=NumericRestriction(
            lower=NEARLY_CIRCULAR_MAX_ECCENTRICITY, lower_inclusive=False
        ),
    ),
)


@dataclass(frozen=True)
class Violation:
    subject: TermId
    #: domain | range | rule_conflict | completeness; out-of-range values and
    #: second functional values never reach a store (``InstanceStore.add``
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

def _literal_values(store: InstanceStore, subject: str, value_property: str) -> list[Decimal]:
    if not store.ontology.has_property(value_property):
        return []
    return [
        obj.value
        for obj in store.object_values(subject, value_property)
        if isinstance(obj, Literal) and isinstance(obj.value, (Decimal, int))
    ]


def _reified_values(
    store: InstanceStore,
    subject: str,
    object_property: str,
    parameter_class: str,
    value_property: str,
) -> list[Decimal]:
    """Two-hop access: object link to a typed parameter instance, then value."""
    if not store.ontology.has_property(object_property):
        return []
    out: list[Decimal] = []
    for obj in store.object_values(subject, object_property):
        if not isinstance(obj, TermId) or obj.kind is not TermKind.INSTANCE:
            continue
        if parameter_class not in store.all_types_of(obj.name):
            continue
        out.extend(_literal_values(store, obj.name, value_property))
    return out


def _linking_satellites(store: InstanceStore, orbit: str) -> list[str]:
    links = store.assertions_with_object(orbit)
    return [
        a.subject.name
        for prop in ("has_Orbit", "has_Orbit_type")
        for a in links
        if a.predicate.name == prop
    ]


def _rule_values(
    store: InstanceStore, mode: ModelingMode, instance: str, rule: ClassificationRule
) -> list[Decimal]:
    """Parameter values reachable for ``instance`` under the given mode."""
    subjects = [instance] + _linking_satellites(store, instance)
    out: list[Decimal] = []
    for subject in subjects:
        if mode is ModelingMode.DIRECT:
            out.extend(_literal_values(store, subject, rule.value_property))
        else:
            out.extend(
                _reified_values(
                    store, subject, rule.object_property, rule.parameter_class, rule.value_property
                )
            )
    return out


def parameter_values(store: InstanceStore, instance: str, param_class: str) -> list[Decimal]:
    """Mode-agnostic reach used by completeness checking: both the one-hop
    and the two-hop pattern, on the instance and on linking satellites."""
    value_property = f"has_{param_class}_value"
    object_property = f"has_{param_class}"
    out: list[Decimal] = []
    for subject in [instance] + _linking_satellites(store, instance):
        out.extend(_literal_values(store, subject, value_property))
        out.extend(_reified_values(store, subject, object_property, param_class, value_property))
    return out


# ------------------------------------------------------------ classification

def _check_mode(store: InstanceStore, mode: ModelingMode, rules: Iterable[ClassificationRule]) -> None:
    for rule in rules:
        reified_link = store.ontology.has_property(rule.object_property)
        if mode is ModelingMode.REIFIED and not reified_link:
            raise ModeMismatch(
                f"reified mode expects object property {rule.object_property!r} in the schema"
            )
        if mode is ModelingMode.DIRECT and reified_link:
            raise ModeMismatch(
                f"direct mode store should not declare {rule.object_property!r}"
            )


def classify_orbits(
    store: InstanceStore,
    mode: ModelingMode,
    rules: tuple[ClassificationRule, ...] = ORBIT_CLASSIFICATION_RULES,
) -> InstanceStore:
    """Materialize rule-derived typing; conflicts are reported, not repaired.

    Returns a new store.  Instances whose asserted typing contradicts the
    computed class keep their assertions and gain a ``rule_conflict`` entry
    instead of the computed type.  Instances with no reachable value stay
    unclassified.
    """
    _check_mode(store, mode, rules)
    result = store.copy()
    ont = store.ontology
    scopes = {rule.applies_to for rule in rules}
    all_targets = {rule.target_class for rule in rules}

    for term in store.instances:
        types = store.all_types_of(term.name)
        if not any(scope in types for scope in scopes):
            continue
        computed: set[str] = set()
        for rule in rules:
            if rule.applies_to not in types:
                continue
            values = _rule_values(store, mode, term.name, rule)
            if any(rule.restriction.allows(v) for v in values):
                computed.add(rule.target_class)
        if not computed:
            continue
        if len(computed) > 1:
            result.rule_conflicts.append(
                Violation(
                    term,
                    "rule_conflict",
                    f"values reachable from {term.name!r} select "
                    f"{' and '.join(sorted(computed))}",
                )
            )
            continue
        target = computed.pop()
        conflicting = {
            t
            for t in store.types_of(term.name)
            for other in all_targets - {target}
            if ont.is_subclass_of(t, other)
        }
        if conflicting:
            result.rule_conflicts.append(
                Violation(
                    term,
                    "rule_conflict",
                    f"computed {target} contradicts asserted "
                    f"{', '.join(sorted(conflicting))} on {term.name!r}",
                )
            )
            continue
        result.assert_fact(term.name, "instance_of", target)
    return result


# ---------------------------------------------------------------- realization

def realize(store: InstanceStore, instance: Union[str, TermId]) -> set[TermId]:
    """Most-specific classes: asserted typing minus subsumed entries."""
    name = instance if isinstance(instance, str) else instance.name
    if not store.has_instance(name):
        raise UnknownTerm(f"instance {name!r} not in store")
    types = set(store.types_of(name))
    ont = store.ontology
    most_specific = {
        t
        for t in types
        if not any(other != t and ont.is_subclass_of(other, t) for other in types)
    }
    return {class_term(t) for t in most_specific}


def materialize(store: InstanceStore) -> InstanceStore:
    """Make superclass typing explicit for every typing assertion; idempotent."""
    result = store.copy()
    for term in store.instances:
        for t in store.types_of(term.name):
            for ancestor in store.ontology.ancestors(t):
                result.assert_fact(term.name, "instance_of", ancestor)
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


def _conforms(store: InstanceStore, instance: str, declared: frozenset[str]) -> Optional[bool]:
    """True/False when the instance's typing decides conformance, None when
    the instance is untyped (open world: absence proves nothing)."""
    types = store.types_of(instance)
    if not types:
        return None
    ont = store.ontology
    return any(ont.is_subclass_of(t, d) for t in types for d in declared)


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

    for a in store.assertions():
        if a.predicate.name == "instance_of":
            continue
        pdef = ont.prop(a.predicate.name)
        if pdef.domain and _conforms(store, a.subject.name, pdef.domain) is False:
            out.append(
                Violation(
                    a.subject,
                    "domain",
                    f"{a.subject.name!r} is not typed within the domain of {pdef.name!r}",
                )
            )
        if pdef.kind is TermKind.OBJECT_PROPERTY:
            assert isinstance(a.object, TermId)
            if pdef.range_classes and _conforms(store, a.object.name, pdef.range_classes) is False:
                out.append(
                    Violation(
                        a.subject,
                        "range",
                        f"object {a.object.name!r} of {pdef.name!r} is not typed within its range",
                    )
                )

    # Completeness: every orbit should expose the core parameter set.
    if ont.has_class("Orbit"):
        for term in store.instances:
            if "Orbit" not in store.all_types_of(term.name):
                continue
            missing = [
                p for p in CORE_ORBIT_PARAMETERS if not parameter_values(store, term.name, p)
            ]
            if missing:
                out.append(
                    Violation(
                        term,
                        "completeness",
                        f"orbit {term.name!r} lacks {', '.join(missing)}",
                        severity="warning",
                    )
                )

    out.extend(store.rule_conflicts)
    return out
