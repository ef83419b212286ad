"""Differential test of ``classify_orbits`` against a brute-force reference
written from README's rule.

Each example builds a small store in one modeling mode: orbits with zero to
two asserted classes (some under the other branch, some not orbits at all),
satellites linked to them by ``has_Orbit`` or ``has_Orbit_type``, and on
every orbit and satellite zero to three eccentricity values, exactly 0.14
and ints among them.  Under reified modeling the values sit on parameter
instances typed ``Orbital_Eccentricity``, typed by another parameter class
or untyped, and one-hop values sit beside them to be ignored.  The typings
the classifier adds and the ``(subject, detail)`` of its rule conflicts
must match the reference, which works from the drawn structure, not from
the store.

``validate`` is checked against the same reference: its ``rule_conflict``
entries before and after classification, and which orbits its completeness
warnings find without an eccentricity by either hop.
"""

from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satkg import InstanceStore, ModelingMode, build_ucsso, classify_orbits, validate
from satkg.schema import ORBIT_TAXONOMY

NEAR, ELLIPTICAL = "Nearly_Circular_Orbit", "Elliptical_Orbit"
PARENTS = dict(ORBIT_TAXONOMY)
ORBIT_CLASSES = (
    "Orbit", NEAR, ELLIPTICAL, "LEO_Orbit", "Sun_Synchronous_Orbit", "GEO_Orbit",
    "Molniya_Orbit", "Cislunar_Orbit", "Artificial_Satellite",
)

eccentricities = st.lists(
    st.one_of(
        st.sampled_from([0, 1, Decimal("0.14"), Decimal("0.140"), Decimal("0.1399"),
                         Decimal("0.1401")]),
        st.decimals(min_value=0, max_value=1, places=3),
    ),
    max_size=3,
)
#: one-hop values, and parameter instances as (typing or None, values)
holders = st.fixed_dictionaries({
    "values": eccentricities,
    "params": st.lists(
        st.tuples(st.sampled_from(["Orbital_Eccentricity", "Orbital_Inclination", None]),
                  eccentricities),
        max_size=2,
    ),
})
orbits = st.tuples(st.frozensets(st.sampled_from(ORBIT_CLASSES), max_size=2), holders)
links = st.tuples(st.sampled_from(["has_Orbit", "has_Orbit_type"]), st.integers(0, 3))
satellites = st.tuples(holders, st.lists(links, max_size=2))


def build(mode: ModelingMode, orbit_draws: list, satellite_draws: list) -> InstanceStore:
    store = InstanceStore(build_ucsso(mode))
    for i, (classes, _holder) in enumerate(orbit_draws):
        store.add_instance(f"o{i}")
        for cls in sorted(classes):
            store.assert_fact(f"o{i}", "instance_of", cls)
    for j, (_holder, satellite_links) in enumerate(satellite_draws):
        store.add_instance(f"s{j}")
        store.assert_fact(f"s{j}", "instance_of", "Artificial_Satellite")
        for prop, i in satellite_links:
            store.assert_fact(f"s{j}", prop, f"o{i % len(orbit_draws)}")
    named = [(f"o{i}", h) for i, (_c, h) in enumerate(orbit_draws)]
    named += [(f"s{j}", h) for j, (h, _l) in enumerate(satellite_draws)]
    for name, holder in named:
        for value in holder["values"]:
            store.assert_fact(name, "has_Orbital_Eccentricity_value", value)
        if mode is ModelingMode.DIRECT:
            continue
        for k, (typing, values) in enumerate(holder["params"]):
            param = store.add_instance(f"{name}_p{k}").name
            if typing is not None:
                store.assert_fact(param, "instance_of", typing)
            store.assert_fact(name, "has_Orbital_Eccentricity", param)
            for value in values:
                store.assert_fact(param, "has_Orbital_Eccentricity_value", value)
    return store


def up(cls: str) -> set:
    """The class and its superclasses in the orbit taxonomy."""
    out = {cls}
    while cls in PARENTS:
        cls = PARENTS[cls]
        out.add(cls)
    return out


def reference(mode: ModelingMode, orbit_draws: list, satellite_draws: list):
    """(added typings, rule conflicts) by the rule: an orbit with a reachable
    eccentricity of at most 0.14 is nearly circular, above it elliptical;
    values selecting both branches, or a branch contradicting an asserted
    class under the other, are conflicts and add nothing."""
    added, conflicts = set(), []
    for i, (classes, holder) in enumerate(orbit_draws):
        name = f"o{i}"
        if not any("Orbit" in up(c) for c in classes):
            continue
        reach = [holder] + [h for h, satellite_links in satellite_draws
                            for _prop, k in satellite_links if k % len(orbit_draws) == i]
        if mode is ModelingMode.DIRECT:
            values = [v for h in reach for v in h["values"]]
        else:
            values = [v for h in reach for typing, vs in h["params"]
                      if typing == "Orbital_Eccentricity" for v in vs]
        branches = {NEAR if Decimal(v) <= Decimal("0.14") else ELLIPTICAL for v in values}
        if len(branches) == 2:
            conflicts.append((name, f"values reachable from {name!r} select "
                                    f"{ELLIPTICAL} and {NEAR}"))
            continue
        if not branches:
            continue
        (target,) = branches
        (other,) = {NEAR, ELLIPTICAL} - branches
        against = sorted(c for c in classes if other in up(c))
        if against:
            conflicts.append((name, f"computed {target} contradicts asserted "
                                    f"{', '.join(against)} on {name!r}"))
        elif target not in classes:
            added.add((name, "instance_of", target))
    return added, conflicts


@pytest.mark.parametrize("mode", list(ModelingMode))
@settings(max_examples=300, deadline=None)
@given(st.lists(orbits, min_size=1, max_size=4), st.lists(satellites, max_size=3))
@example([(frozenset({"Orbit"}), {"values": [Decimal("0.14")],
                                  "params": [("Orbital_Eccentricity", [Decimal("0.14")])]})], [])
@example([(frozenset({"Molniya_Orbit"}), {"values": [0], "params": [(None, [1])]})],
         [({"values": [1], "params": [("Orbital_Eccentricity", [0])]}, [("has_Orbit_type", 0)])])
def test_classification_matches_the_reference(mode, orbit_draws, satellite_draws):
    store = build(mode, orbit_draws, satellite_draws)
    result = classify_orbits(store, mode)
    added = {(a.subject.name, a.predicate.name, a.object.name)
             for a in set(result.assertions()) - set(store.assertions())}
    conflicts = [(v.subject.name, v.detail) for v in result.rule_conflicts]
    assert (added, conflicts) == reference(mode, orbit_draws, satellite_draws)
    assert all(v.code == "rule_conflict" for v in result.rule_conflicts)


def unreached(mode: ModelingMode, orbit_draws: list, satellite_draws: list) -> set:
    """Orbits that no eccentricity reaches by either hop: a one-hop value on
    the orbit or a linking satellite, or under reified modeling a value on a
    parameter instance typed ``Orbital_Eccentricity``."""
    out = set()
    for i, (classes, holder) in enumerate(orbit_draws):
        if not any("Orbit" in up(c) for c in classes):
            continue
        reach = [holder] + [h for h, satellite_links in satellite_draws
                            for _prop, k in satellite_links if k % len(orbit_draws) == i]
        one_hop = [v for h in reach for v in h["values"]]
        two_hop = [v for h in reach for typing, vs in h["params"]
                   if typing == "Orbital_Eccentricity" for v in vs]
        if not one_hop and not (mode is ModelingMode.REIFIED and two_hop):
            out.add(f"o{i}")
    return out


@pytest.mark.parametrize("mode", list(ModelingMode))
@settings(max_examples=200, deadline=None)
@given(st.lists(orbits, min_size=1, max_size=4), st.lists(satellites, max_size=3))
@example([(frozenset({"Molniya_Orbit"}), {"values": [Decimal("0.01")],
                                          "params": [("Orbital_Eccentricity", [0])]})], [])
@example([(frozenset({"Orbit"}), {"values": [], "params": [("Orbital_Eccentricity", [1])]})],
         [({"values": [], "params": [(None, [0])]}, [("has_Orbit", 0)])])
def test_validate_matches_the_reference(mode, orbit_draws, satellite_draws):
    store = build(mode, orbit_draws, satellite_draws)
    _added, conflicts = reference(mode, orbit_draws, satellite_draws)
    for current in (store, classify_orbits(store, mode)):
        violations = validate(current)
        assert [(v.subject.name, v.detail) for v in violations
                if v.code == "rule_conflict"] == conflicts
        lacking = {v.subject.name for v in violations
                   if v.code == "completeness" and "Orbital_Eccentricity" in v.detail}
        assert lacking == unreached(mode, orbit_draws, satellite_draws)
