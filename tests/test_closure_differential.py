"""Differential test of the ontology's subsumption answers against brute-force
reachability over ``classes[*].parents``.

Random sequences of class-graph edits (``define_class``, ``add_parent`` with
repeated, self- and cycle-closing edges, ``add_classes`` in any order,
``define_alias``, ``copy`` with different edits on each side, and
``merge_ontologies``) run on up to three ontologies, the first starting with four unrelated
classes.  After every step each
ontology's ``is_subclass_of``, ``subclasses_of`` and ``ancestors`` (order
included), and ``all_types_of`` of an instance typed in its store, must
match the reference; so must the error each edit raises, ``CycleDetected``
included.
"""

from collections import deque
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satkg import InstanceStore, Ontology, merge_ontologies
from satkg.errors import CycleDetected, DuplicateTerm, SatkgError, UnknownParent, UnknownTerm

CLASSES = ("A", "B", "C", "D", "E", "F")
ALIASES = ("X", "Y")
NAMES = CLASSES + ALIASES

classes = st.sampled_from(CLASSES)
slot = st.integers(0, 2)
class_maps = st.lists(st.tuples(classes, st.frozensets(classes, max_size=3)),
                      max_size=4, unique_by=lambda item: item[0]).map(dict)
edits = st.one_of(
    st.tuples(st.just("define"), slot, classes, st.frozensets(classes, max_size=3)),
    st.tuples(st.just("edge"), slot, classes, classes),
    st.tuples(st.just("classes"), slot, class_maps),
    st.tuples(st.just("alias"), slot, st.sampled_from(ALIASES), classes),
    st.tuples(st.just("type"), slot, st.sampled_from(NAMES)),
    st.tuples(st.just("copy"), slot),
    st.tuples(st.just("merge"), slot, slot),
)


def reflexive_up(parents: dict, name: str) -> set:
    seen = {name}
    stack = [name]
    while stack:
        for p in parents[stack.pop()]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def reference_ancestors(parents: dict, name: str) -> list:
    """Strict superclasses by shortest distance from ``name``, ties by name."""
    distance = {name: 0}
    queue = deque([name])
    while queue:
        n = queue.popleft()
        for p in parents[n]:
            if p not in distance:
                distance[p] = distance[n] + 1
                queue.append(p)
    return [p for _, p in sorted((d, p) for p, d in distance.items() if p != name)]


def edge_error(graph: dict, child: str, parent: str) -> Optional[type]:
    """The error ``add_parent(child, parent)`` raises on ``graph``; adds the
    edge to ``graph`` when it raises none."""
    if child not in graph:
        return UnknownTerm
    if parent not in graph:
        return UnknownParent
    if parent not in graph[child]:
        if child in reflexive_up(graph, parent):
            return CycleDetected
        graph[child] = graph[child] | {parent}
    return None


def add_classes_error(graph: dict, request: dict) -> Optional[type]:
    for name in request:
        graph.setdefault(name, frozenset())
    for name, ups in request.items():
        for parent in sorted(ups):
            error = edge_error(graph, name, parent)
            if error is not None:
                return error
    return None


def graph_of(ont: Ontology) -> dict:
    return {name: cdef.parents for name, cdef in ont.classes.items()}


def expected_error(edit: tuple, onts: list) -> Optional[type]:
    kind, k = edit[0], edit[1] % len(onts)
    ont = onts[k][0]
    graph = graph_of(ont)
    if kind == "define":
        name, parents = edit[2], edit[3]
        if name in ont.classes or name in ont.aliases:
            return DuplicateTerm
        return UnknownParent if parents - graph.keys() else None
    if kind == "edge":
        return edge_error(graph, edit[2], edit[3])
    if kind == "classes":
        return add_classes_error(graph, edit[2])
    if kind == "alias":
        alias, target = edit[2], edit[3]
        if alias in ont.aliases:
            return DuplicateTerm
        return None if target in ont.classes else UnknownTerm
    if kind == "merge":
        extra = onts[edit[2] % len(onts)][0]
        error = add_classes_error(graph, dict(sorted(graph_of(extra).items())))
        if error is None and any(ont.aliases.get(a, t) != t for a, t in extra.aliases.items()):
            return DuplicateTerm
        return error
    return None


def typed_store(ont: Ontology, types: list) -> InstanceStore:
    store = InstanceStore(ont)
    store.add_instance("x")
    for t in types:
        store.assert_fact("x", "instance_of", t)
    return store


def apply(edit: tuple, onts: list) -> None:
    kind, k = edit[0], edit[1] % len(onts)
    ont, store = onts[k]
    if kind == "define":
        ont.define_class(edit[2], sorted(edit[3]))
    elif kind == "edge":
        ont.add_parent(edit[2], edit[3])
    elif kind == "classes":
        ont.add_classes({name: sorted(ups) for name, ups in edit[2].items()})
    elif kind == "alias":
        ont.define_alias(edit[2], edit[3])
    elif kind == "type":
        if ont.has_class(edit[2]):
            store.assert_fact("x", "instance_of", edit[2])
    else:
        if kind == "copy":
            new = ont.copy()
        else:
            new = merge_ontologies(ont, onts[edit[2] % len(onts)][0])
        entry = (new, typed_store(new, store.types_of("x")))
        if len(onts) < 3:
            onts.append(entry)
        else:
            onts[(k + 1) % 3] = entry


def check(ont: Ontology, store: InstanceStore) -> None:
    graph = graph_of(ont)
    up = {name: reflexive_up(graph, name) for name in graph}
    known = [name for name in NAMES if ont.has_class(name)]
    for name in NAMES:
        if name not in known:
            with pytest.raises(UnknownTerm):
                ont.subclasses_of(name)
            continue
        c = ont.canonical_name(name)
        assert ont.ancestors(name) == reference_ancestors(graph, c)
        assert ont.subclasses_of(name) == {m for m in graph if c in up[m]}
        for other in known:
            assert ont.is_subclass_of(name, other) == (ont.canonical_name(other) in up[c])
    assert store.all_types_of("x") == set().union(*(up[t] for t in store.types_of("x")))


@settings(max_examples=300, deadline=None)
@given(st.lists(edits, max_size=25))
# opposite edges on two sides meet in a merge; a repeated edge; a self-edge
@example([("copy", 0), ("edge", 0, "A", "B"), ("edge", 1, "B", "A"), ("merge", 0, 1),
          ("edge", 0, "A", "B"), ("edge", 0, "C", "C")])
# one alias with two targets meets in a merge
@example([("copy", 0), ("alias", 0, "X", "A"), ("alias", 1, "X", "B"), ("merge", 1, 0)])
def test_closure_matches_brute_force_reachability_after_every_edit(sequence):
    ont = Ontology()
    for name in CLASSES[:4]:  # so that most edges name defined classes
        ont.define_class(name)
    onts = [(ont, typed_store(ont, []))]
    for edit in sequence:
        expected = expected_error(edit, onts)
        try:
            apply(edit, onts)
        except SatkgError as exc:
            assert type(exc) is expected, (edit, exc)
        else:
            assert expected is None, edit
        for entry in onts:
            check(*entry)
