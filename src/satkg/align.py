"""Applying term mappings between the local catalog schema and the reference
vocabulary.

Two deployment patterns are supported:

* term mapping: :func:`apply_mapping` annotates existing instances with the
  reference classes their local classes map to, merging the reference
  vocabulary into the store's ontology;
* reference-as-schema: :func:`build_bridged_ontology` yields a combined
  ontology where each mapped local class sits beneath its reference class,
  so data can be loaded directly against the reference vocabulary.
"""

from __future__ import annotations

from typing import Optional

from .core import INSTANCE_OF, Assertion, InstanceStore, Ontology, nogc
from .errors import DanglingMapping, DuplicateTerm
from .schema import (
    MappingEntry,
    ModelingMode,
    build_mapping,
    build_ssao_core,
    build_ucsso,
)


def merge_ontologies(base: Ontology, extra: Ontology) -> Ontology:
    """Union of two ontologies; same-named classes merge by uniting parents,
    and a same-named property or alias keeps the base's.  A property or alias
    of ``extra`` naming another kind of term, or an alias with another target,
    raises DuplicateTerm instead of shadowing it."""
    merged = base.copy()
    merged.add_classes(
        {name: cdef.parents for name, cdef in sorted(extra.classes.items())},
        {name: cdef.definition for name, cdef in extra.classes.items()},
    )
    for name in sorted(extra.properties):
        if name in merged.classes or name in merged.aliases:
            raise DuplicateTerm(f"property {name!r} names another term of the base ontology")
        merged.properties.setdefault(name, extra.properties[name])
    merged._shared = {}  # properties added directly, past the methods that replace it
    for alias, target in sorted(extra.aliases.items()):
        if merged.aliases.get(alias) != target:
            merged.define_alias(alias, target)
    return merged


@nogc
def apply_mapping(
    store: InstanceStore,
    entries: list[MappingEntry],
    reference: Optional[Ontology] = None,
) -> InstanceStore:
    """Add reference-class typing for every instance of a mapped local class.

    Monotone: only typing assertions are added; local assertions are left
    untouched.  The reference vocabulary is merged into the result's
    ontology so the new classes are queryable.
    """
    if reference is None:
        reference = build_ssao_core()
    for entry in entries:
        if not store.ontology.has_class(entry.local.name):
            raise DanglingMapping(f"local class {entry.local.name!r} not in store ontology")
        if not reference.has_class(entry.reference.name):
            raise DanglingMapping(
                f"reference class {entry.reference.name!r} not in reference ontology"
            )

    merged = merge_ontologies(store.ontology, reference)
    result = store.copy()
    result.ontology = merged
    position = {term: i for i, term in enumerate(store.instances)}
    for entry in entries:
        reference_class = merged.cls(entry.reference.name).id
        for term in sorted(store.typed_instances(entry.local.name), key=position.__getitem__):
            result.add(Assertion(term, INSTANCE_OF, reference_class))
    return result


def build_bridged_ontology(
    mode: ModelingMode,
    entries: Optional[list[MappingEntry]] = None,
) -> Ontology:
    """Catalog schema joined to the reference vocabulary by subclass bridges.

    Equivalences are bridged one-directionally (local beneath reference) to
    keep the subsumption graph acyclic; instance data is local-typed, so the
    downward direction is never consulted.
    """
    if entries is None:
        entries = build_mapping()
    merged = merge_ontologies(build_ucsso(mode), build_ssao_core())
    for entry in entries:
        if entry.local.name != entry.reference.name:
            merged.add_parent(entry.local.name, entry.reference.name)
    return merged
