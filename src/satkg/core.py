"""In-memory schema (T-box) and assertion (A-box) store.

Classes form an acyclic subsumption graph (a DAG, multiple parents allowed).
Properties relate instances to other instances (object properties) or to typed
literals (data properties).  A store holds instances and assertions over one
ontology; after population it is treated as frozen and is safe to read from
many threads.

Terms are canonical: a class or property definition (``.id``) and a store's
instance name (``add_instance``) each have one ``TermId``, hashed once.
``TermId``, ``Literal`` and ``Assertion`` are frozen slots dataclasses, equal
and hashed as the tuple of their compared fields, with hand-written inits.

Class graphs are assembled through ``add_classes``, which defines the
missing classes of a name -> parents map in any order and then adds each
edge through ``add_parent``; ``add_parent`` rejects an edge that would close
a cycle and does nothing for an edge that already exists.

The ontology keeps its subsumption closure current: each class maps to its
reflexive ancestor set and its reflexive descendant set, and the two places
the class graph changes update them at once.  ``define_class`` gives the
new class the union of its parents' ancestor sets and adds it to each
ancestor's descendants; a new ``add_parent`` edge gives every descendant of
the child every ancestor of the parent, and the reverse.  The same sets
answer the cycle check (an edge closes a cycle when the child is already an
ancestor of the parent), so lookups only read and never fill a cache.
Aliases are resolved before the sets are read, so adding one changes none.

What is derived from the definitions is kept in one private dict, ``_shared``:
the names ``InstanceStore.write`` resolved and the declarations ``export_turtle``
rendered.  ``copy()`` passes the dict on and every method that changes a definition
(and ``merge_ontologies``) gives the ontology a new one, so copies share it until
one changes.  No method removes or redefines a name, so what one copy derived holds
for every copy unchanged since; editing ``classes``, ``properties`` or ``aliases``
directly is unsupported.

The store keeps each fact once as the (subject name, predicate name, object)
tuple ``InstanceStore.write`` takes (the object a class name, an instance name
or a checked ``Literal``): the key of one insertion-ordered dict and the entry
of each index, stored and found with one hash of the tuple (its names cache theirs).
Every write is a batch: ``ingest`` writes one per row, ``import_turtle`` one
per file, ``classify_orbits`` one per store, and ``add`` one of one fact.  A
batch resolves each distinct predicate and class once per ontology, finds a repeat
(a typing too) by the table's unchanged size and keeps one index, ``_by_subject``, whose list
a functional property's check scans and which ``types_of`` and ``export_turtle`` read.
Every other read-built structure is a ``_view``, built whole from the table by its first read
after a write and published in ``_views`` under its key (concurrent first reads may each build
one, but all return the first published): the groupings of the facts by (canonical) predicate,
the instances by class and the object-property facts by object (``facts_with_object``), each
in write order, and two views over them, a predicate's term pairs (``predicate_pairs``) and
the instances of a class or its subclasses, each once (``typed_instances``, keyed on the set
``subclasses_of`` returns, which every change to the class graph replaces; a class keeps one,
as its view under an older set is dropped).  Each write drops them all and ``copy()`` copies
none: a store only written and exported builds none, and single ``add``s between such reads
rebuild what each read reads.  The library reads the tuples (``facts`` and ``facts_*``);
``assertions`` and ``assertions_*`` build ``Assertion`` values.

The five functions that build a store (``ingest``, ``import_turtle``,
``classify_orbits``, ``materialize`` and ``apply_mapping``) run under
:func:`nogc`: automatic cyclic garbage collection is paused for the call, as
a store holds only acyclic values, and is turned back on only when it was on
before.  The pause is process-wide, so while a builder runs, the cyclic
garbage of other threads waits for the next collection too.
"""

from __future__ import annotations

import functools
import gc
from collections import defaultdict
import re
from dataclasses import FrozenInstanceError, dataclass, field, fields
from functools import cached_property
from datetime import date
from decimal import Decimal
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, Union

from .errors import (
    CycleDetected,
    DuplicateTerm,
    FunctionalViolation,
    InvalidDatatype,
    InvalidTermName,
    RestrictionViolation,
    SatkgError,
    TypeMismatch,
    UnknownParent,
    UnknownTerm,
)


class TermKind(Enum):
    CLASS = "class"
    OBJECT_PROPERTY = "object_property"
    DATA_PROPERTY = "data_property"
    INSTANCE = "instance"


# Schema terms follow the camel-case-with-underscores convention; instance
# names come from catalog data and additionally allow characters such as
# '-', '.' or '(' (e.g. satellite names), but never whitespace.
_SCHEMA_NAME = re.compile(r"[A-Za-z0-9_]+\Z")
_INSTANCE_NAME = re.compile(r"\S+\Z")


def _check_name(name: str, kind: TermKind) -> None:
    """Raise InvalidTermName unless ``name`` is a valid name for ``kind``."""
    pattern = _INSTANCE_NAME if kind is TermKind.INSTANCE else _SCHEMA_NAME
    if not pattern.match(name):
        raise InvalidTermName(f"invalid term name {name!r} for kind {kind.value}")


def nogc(func: Callable) -> Callable:
    """``func`` with automatic garbage collection paused while it runs, and left
    off after it when the caller had turned it off; a store holds no cycles."""
    @functools.wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def _refuse(self, name: str, *value) -> None:
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _slot_setters(cls: type) -> list:
    """Each field slot's ``__set__``, which skips a frozen class's ``__setattr__``, now
    refusing any name with ``__delattr__`` (the generated pair raise TypeError for a non-field)."""
    cls.__setattr__ = cls.__delattr__ = _refuse
    return [getattr(cls, f.name).__set__ for f in fields(cls)]


@dataclass(frozen=True, slots=True, init=False)
class TermId:
    name: str
    kind: TermKind
    _hash: int = field(init=False, repr=False, compare=False)  # hash((name, kind)), once

    def __init__(self, name: str, kind: TermKind):
        if (_INSTANCE_NAME if kind is _INSTANCE else _SCHEMA_NAME).match(name) is None:
            _check_name(name, kind)  # raises
        _set_name(self, name)
        _set_kind(self, kind)
        _set_hash(self, hash((name, kind._name_)))  # = hash((name, kind)), no Enum.__hash__ call

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # rebuilt, not copied: the string hash differs between processes
        return TermId, (self.name, self.kind)

    def __str__(self) -> str:
        return self.name


_INSTANCE, _CLASS, _OBJECT = TermKind.INSTANCE, TermKind.CLASS, TermKind.OBJECT_PROPERTY
_set_name, _set_kind, _set_hash = _slot_setters(TermId)


def class_term(name: str) -> TermId:
    return TermId(name, TermKind.CLASS)


def instance_term(name: str) -> TermId:
    return TermId(name, TermKind.INSTANCE)


#: Built-in relation typing an instance with a class.  It is not part of any
#: ontology's property table and is accepted by every store.
INSTANCE_OF = TermId("instance_of", TermKind.OBJECT_PROPERTY)
_TYPING = INSTANCE_OF.name  # a typing fact's predicate

LiteralValue = Union[Decimal, int, str, date]


@dataclass(frozen=True, slots=True, init=False)
class Literal:
    value: LiteralValue
    unit: Optional[str] = None

    def __init__(self, value: LiteralValue, unit: Optional[str] = None):
        _set_value(self, value)
        _set_unit(self, unit)

    def __str__(self) -> str:
        if self.unit:
            return f"{self.value} {self.unit}"
        return str(self.value)


_set_value, _set_unit = _slot_setters(Literal)
Fact = tuple[str, str, Union[str, Literal]]  # as :meth:`InstanceStore.write` takes it

#: The largest power of ten, either way, a decimal literal may reach; it
#: bounds the positional text ``lexical_form`` writes for a value.
MAX_DECIMAL_EXPONENT = 100
_INTEGER_LIMIT = 10 ** (MAX_DECIMAL_EXPONENT + 1)


def bounded_decimal(value: Union[str, int, Decimal]) -> Decimal:
    """``Decimal(value)`` when finite with an adjusted exponent (the power of
    ten of its leading digit) within +/-100, else ValueError."""
    try:
        number = Decimal(value)
    except ArithmeticError:
        number = None
    if number is None or not number.is_finite() or abs(number.adjusted()) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"not a finite decimal within 1E+/-{MAX_DECIMAL_EXPONENT}: {value!r}")
    return number


def bounded_integer(value: Union[str, int]) -> int:
    """``int(value)`` when below 1E+101 in magnitude (at most 101 digits, the
    bound ``bounded_decimal`` sets), else ValueError."""
    number = int(value)
    if -_INTEGER_LIMIT < number < _INTEGER_LIMIT:
        return number
    raise ValueError(f"integer of more than {MAX_DECIMAL_EXPONENT + 1} digits")


@dataclass(frozen=True)
class NumericRestriction:
    lower: Optional[Decimal] = None
    upper: Optional[Decimal] = None
    lower_inclusive: bool = True
    upper_inclusive: bool = True
    #: Accept values equal to the upper bound but raise a warning for them
    #: (boundary cases such as an eccentricity of exactly 1).
    warn_at_upper: bool = False

    def __post_init__(self) -> None:
        for bound in (self.lower, self.upper):
            if bound is not None:
                try:
                    bounded_decimal(bound)
                except ValueError as exc:
                    raise InvalidDatatype(f"restriction bound: {exc}") from None
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise InvalidDatatype("lower bound exceeds upper bound")

    def allows(self, value: Union[Decimal, int]) -> bool:
        if self.lower is not None:
            if value < self.lower or (value == self.lower and not self.lower_inclusive):
                return False
        if self.upper is not None:
            if value > self.upper or (value == self.upper and not self.upper_inclusive):
                return False
        return True

    def warns(self, value: Union[Decimal, int]) -> bool:
        return (
            self.warn_at_upper
            and self.upper is not None
            and self.upper_inclusive
            and value == self.upper
        )


_NUMERIC_BASES = ("decimal", "integer")
#: base -> the Python types it accepts and the check that adjusts a value
_COERCIONS = {
    "decimal": ((Decimal, int, float),
                lambda v: bounded_decimal(str(v) if isinstance(v, float) else v)),
    "integer": (int, bounded_integer),
    "string": (str, lambda v: v),
    "date": (date, lambda v: v),
}


@dataclass(frozen=True)
class DatatypeSpec:
    base: str = "decimal"
    unit: Optional[str] = None
    restriction: Optional[NumericRestriction] = None

    def __post_init__(self) -> None:
        if self.base not in _COERCIONS:
            raise InvalidDatatype(f"unknown datatype base {self.base!r}")
        if self.restriction is not None and self.base not in _NUMERIC_BASES:
            raise InvalidDatatype("numeric restriction on a non-numeric datatype")

    def coerce(self, value: LiteralValue) -> LiteralValue:
        """Return ``value`` adjusted to this datatype, or raise TypeMismatch."""
        if isinstance(value, bool):
            raise TypeMismatch(f"boolean literal not valid for {self.base} datatype")
        types, check = _COERCIONS[self.base]
        if not isinstance(value, types):
            raise TypeMismatch(f"value {value!r} not valid for {self.base} datatype")
        try:
            return check(value)
        except ValueError as exc:
            raise TypeMismatch(str(exc)) from None


@dataclass(frozen=True)
class ClassDef:
    name: str
    parents: frozenset[str] = frozenset()
    definition: Optional[str] = None

    @cached_property
    def id(self) -> TermId:
        return TermId(self.name, TermKind.CLASS)


@dataclass(frozen=True)
class PropertyDef:
    name: str
    kind: TermKind
    domain: frozenset[str] = frozenset()
    range_classes: frozenset[str] = frozenset()
    datatype: Optional[DatatypeSpec] = None
    functional: bool = False

    def __post_init__(self) -> None:
        if self.kind is TermKind.OBJECT_PROPERTY and self.datatype is not None:
            raise ValueError("object property carries no datatype")
        if self.kind is TermKind.DATA_PROPERTY and self.datatype is None:
            raise ValueError("data property needs exactly one datatype")

    @cached_property
    def id(self) -> TermId:
        return TermId(self.name, self.kind)


@dataclass(frozen=True, slots=True, init=False)
class Assertion:
    subject: TermId
    predicate: TermId
    object: Union[TermId, Literal]

    def __init__(self, subject: TermId, predicate: TermId, object: Union[TermId, Literal]):
        _set_subject(self, subject)
        _set_predicate(self, predicate)
        _set_object(self, object)

    def __str__(self) -> str:
        return f"({self.subject} {self.predicate} {self.object})"


_set_subject, _set_predicate, _set_object = _slot_setters(Assertion)


class Ontology:
    """Classes, properties and aliases, each under its own name, with an
    acyclic subsumption graph."""

    def __init__(self) -> None:
        self.classes: dict[str, ClassDef] = {}
        self.properties: dict[str, PropertyDef] = {}
        # alias name -> canonical name (classes or properties)
        self.aliases: dict[str, str] = {}
        #: class -> the class and all its superclasses
        self._up: dict[str, frozenset[str]] = {}
        #: class -> the class and all its subclasses
        self._down: dict[str, frozenset[str]] = {}
        #: derived from the definitions, shared by copies and replaced by each change:
        #: ``write``'s resolutions ("classes", "properties") and ``export_turtle``'s ("turtle")
        self._shared: dict = {}

    # -------------------------------------------------------------- schema

    def define_class(
        self,
        name: str,
        parents: Iterable[str] = (),
        definition: Optional[str] = None,
    ) -> ClassDef:
        _check_name(name, TermKind.CLASS)
        if name in self.classes or name in self.properties or name in self.aliases:
            raise DuplicateTerm(f"class {name!r} names an existing term")
        parent_set = frozenset(parents)
        for p in parent_set:
            if p not in self.classes:
                raise UnknownParent(f"parent class {p!r} of {name!r} not defined")
        cdef = ClassDef(name, parent_set, definition)
        self.classes[name], self._shared = cdef, {}
        self._down[name] = frozenset()
        self._up[name] = up = frozenset((name,)).union(*(self._up[p] for p in parent_set))
        for a in up:
            self._down[a] |= {name}
        return cdef

    def add_classes(
        self,
        parents: dict[str, Iterable[str]],
        definitions: Optional[dict[str, Optional[str]]] = None,
    ) -> None:
        """Define each class of ``parents`` not yet defined, then add its
        edges; the map may list classes in any order."""
        definitions = definitions or {}
        for name in parents:
            if name not in self.classes:
                self.define_class(name, (), definitions.get(name))
        for name, ups in parents.items():
            for parent in sorted(ups):
                self.add_parent(name, parent)

    def add_parent(self, child: str, parent: str) -> None:
        """Add a subsumption edge, rejecting edges that would close a cycle;
        an edge that already exists is left as it is."""
        if child not in self.classes:
            raise UnknownTerm(f"class {child!r} not defined")
        if parent not in self.classes:
            raise UnknownParent(f"parent class {parent!r} not defined")
        if parent in self.classes[child].parents:
            return
        up, down = self._up[parent], self._down[child]
        if child in up:
            raise CycleDetected(f"edge {child!r} -> {parent!r} would create a subsumption cycle")
        old = self.classes[child]
        self.classes[child] = ClassDef(old.name, old.parents | {parent}, old.definition)
        self._shared = {}
        for d in down:
            self._up[d] |= up
        for u in up:
            self._down[u] |= down

    def define_object_property(
        self,
        name: str,
        domain: Iterable[str],
        range_classes: Iterable[str],
        functional: bool = False,
    ) -> PropertyDef:
        self._check_new_property(name)
        dom = frozenset(domain)
        rng = frozenset(range_classes)
        for c in dom | rng:
            if c not in self.classes:
                raise UnknownTerm(f"domain/range class {c!r} of {name!r} not defined")
        pdef = PropertyDef(name, TermKind.OBJECT_PROPERTY, dom, rng, None, functional)
        self.properties[name], self._shared = pdef, {}
        return pdef

    def define_data_property(
        self,
        name: str,
        domain: Iterable[str],
        datatype: DatatypeSpec,
        functional: bool = False,
    ) -> PropertyDef:
        self._check_new_property(name)
        dom = frozenset(domain)
        for c in dom:
            if c not in self.classes:
                raise UnknownTerm(f"domain class {c!r} of {name!r} not defined")
        pdef = PropertyDef(name, TermKind.DATA_PROPERTY, dom, frozenset(), datatype, functional)
        self.properties[name], self._shared = pdef, {}
        return pdef

    def define_alias(self, alias: str, target: str) -> None:
        _check_name(alias, TermKind.CLASS)  # the kind only names the charset
        if alias in self.classes or alias in self.properties or alias in self.aliases:
            raise DuplicateTerm(f"alias {alias!r} collides with an existing term")
        if target not in self.classes and target not in self.properties:
            raise UnknownTerm(f"alias target {target!r} not defined")
        self.aliases[alias], self._shared = target, {}

    def _check_new_property(self, name: str) -> None:
        _check_name(name, TermKind.OBJECT_PROPERTY)
        if name in self.properties or name in self.classes or name in self.aliases:
            raise DuplicateTerm(f"property {name!r} names an existing term")

    # -------------------------------------------------------------- lookup

    def canonical_name(self, name: str) -> str:
        return self.aliases.get(name, name)

    def has_class(self, name: str) -> bool:
        return self.canonical_name(name) in self.classes

    def has_property(self, name: str) -> bool:
        return self.canonical_name(name) in self.properties

    def cls(self, name: str) -> ClassDef:
        canonical = self.canonical_name(name)
        try:
            return self.classes[canonical]
        except KeyError:
            raise UnknownTerm(f"class {name!r} not defined") from None

    def prop(self, name: str) -> PropertyDef:
        canonical = self.canonical_name(name)
        try:
            return self.properties[canonical]
        except KeyError:
            raise UnknownTerm(f"property {name!r} not defined") from None

    # ---------------------------------------------------------- subsumption

    def is_subclass_of(self, sub: str, sup: str) -> bool:
        """Reflexive-transitive subsumption over the class graph."""
        sub = self.cls(sub).name
        return self.cls(sup).name in self._up[sub]

    def ancestors(self, name: str) -> list[str]:
        """Strict superclasses ordered nearest-first (breadth-first levels,
        each sorted)."""
        seen = {self.cls(name).name}
        frontier = list(seen)
        out: list[str] = []
        while frontier:
            level = {p for n in frontier for p in self.classes[n].parents} - seen
            frontier = sorted(level)
            seen |= level
            out += frontier
        return out

    def subclasses_of(self, name: str) -> frozenset[str]:
        """The class itself plus every strict descendant."""
        return self._down[self.cls(name).name]

    # -------------------------------------------------------------- misc

    def copy(self) -> "Ontology":
        dup = Ontology()
        dup.classes = dict(self.classes)
        dup.properties = dict(self.properties)
        dup.aliases = dict(self.aliases)
        dup._up = dict(self._up)
        dup._down = dict(self._down)
        dup._shared = self._shared
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ontology):
            return NotImplemented
        return (
            self.classes == other.classes
            and self.properties == other.properties
            and self.aliases == other.aliases
        )

    def __repr__(self) -> str:
        return f"<Ontology {len(self.classes)} classes, {len(self.properties)} properties>"


def _check_literal(pdef: PropertyDef, subject: str, literal: Literal, warned: list,
                   position: int) -> Literal:
    """The literal coerced to its property's datatype; a warned bound adds to ``warned``."""
    spec = pdef.datatype
    assert spec is not None
    value = literal.value  # an in-range Decimal is already what ``coerce`` returns
    if (type(value) is not Decimal or spec.base != "decimal" or not value.is_finite()
            or abs(value.adjusted()) > MAX_DECIMAL_EXPONENT):
        value = spec.coerce(value)
    if literal.unit not in (None, spec.unit):
        raise TypeMismatch(
            f"unit {literal.unit!r} does not match declared unit {spec.unit!r} of {pdef.name!r}"
        )
    if spec.restriction is not None:
        if not spec.restriction.allows(value):  # type: ignore[arg-type]
            raise RestrictionViolation(
                f"value {value} of {pdef.name!r} on {subject!r} outside permitted range"
            )
        if spec.restriction.warns(value):  # type: ignore[arg-type]
            warned.append(
                (position, f"{subject}: {pdef.name} = {value} sits on the permitted boundary"))
    if value is literal.value and literal.unit == spec.unit:
        return literal
    return Literal(value, spec.unit)


class InstanceStore:
    """Instances and assertions over one ontology.

    Mutated by exactly one writer during population; reads afterwards are
    side-effect free.  Duplicate assertions are silently collapsed, so adding
    the same fact twice leaves the store unchanged.
    """

    def __init__(self, ontology: Ontology):
        self.ontology = ontology
        self._instances: dict[str, TermId] = {}
        #: every fact once, in insertion order (the values are unused)
        self._facts: dict[Fact, None] = {}
        #: the one index kept by writes, read with ``get``, so no read adds a key
        self._by_subject: dict[str, list[Fact]] = defaultdict(list)
        #: what ``_view`` built: the indexes, keyed 1, 2 and None, and views keyed by a predicate's
        #: name and by a set of classes (a class's name in a 1-tuple keys the set its view is under)
        self._views: dict = {}
        #: Non-fatal messages produced while adding assertions (e.g. values
        #: sitting exactly on a warned numeric bound).
        self.warnings: list[str] = []
        #: Classify's report for its caller of computed types contradicting
        #: asserted ones; validation recomputes them and does not read it.
        self.rule_conflicts: list = []

    # ------------------------------------------------------------ instances

    def add_instance(self, name: str) -> TermId:
        term = self._instances.get(name)
        if term is None:
            term = self._instances[name] = TermId(name, _INSTANCE)
        return term

    def instance(self, name: str) -> TermId:
        try:
            return self._instances[name]
        except KeyError:
            raise UnknownTerm(f"instance {name!r} not in store") from None

    @property
    def instances(self) -> list[TermId]:
        return list(self._instances.values())

    # ----------------------------------------------------------- assertions

    def add(self, assertion: Assertion) -> bool:
        """Validate and store one assertion as a batch of one :meth:`write`;
        return True when newly added."""
        subject, predicate, obj = assertion.subject, assertion.predicate.name, assertion.object
        if subject.kind is not _INSTANCE:
            raise UnknownTerm(f"assertion subject {subject.name!r} is not a store instance")
        named = _CLASS if predicate == INSTANCE_OF.name else _INSTANCE
        if isinstance(obj, TermId) and obj.kind is named:
            obj = obj.name
        size = len(self._facts)
        for _position, exc in self.write([(subject.name, predicate, obj)])[0]:
            raise exc
        return len(self._facts) > size

    def write(self, facts: Iterable[Fact]) -> tuple[list, list]:
        """Validate and store (subject, predicate, object) facts in order: the
        subject an instance's name, the object a class's for ``instance_of``,
        an instance's for an object property, a :class:`Literal` for a data
        property.  Returns the refused facts, which are skipped, and the
        boundary warnings (also added to ``warnings``) with their positions."""
        ont, instances, table = self.ontology, self._instances, self._facts
        by_subject, self._views = self._by_subject, {}  # a write drops every view and index
        shared = ont._shared  # names resolved once for the ontology and its unchanged copies
        classes: dict[str, str] = shared.setdefault("classes", {})
        properties: dict[str, PropertyDef] = shared.setdefault("properties", {})
        refused: list[tuple[int, SatkgError]] = []
        warned: list[tuple[int, str]] = []
        for position, (s, p, o) in enumerate(facts):
            try:
                subject = instances.get(s)
                if subject is None:
                    raise UnknownTerm(f"assertion subject {s!r} is not a store instance")
                name = subject.name
                if p == _TYPING:
                    if not isinstance(o, str):
                        raise TypeMismatch("instance_of expects a class object")
                    cls = classes.get(o)
                    if cls is None:
                        if o not in ont.classes:  # a bad name raises as a new term's would
                            _check_name(o, _CLASS)
                        cls = classes[o] = ont.cls(o).name
                    fact, pdef = (name, _TYPING, cls), None
                else:
                    pdef = properties.get(p) or properties.setdefault(p, ont.prop(p))
                    p = pdef.name
                    if pdef.kind is _OBJECT:
                        if not isinstance(o, str):
                            raise TypeMismatch(f"object property {p!r} expects an "
                                               f"instance object, got {o!r}")
                        obj = instances.get(o)
                        if obj is None:
                            raise UnknownTerm(f"assertion object {o!r} is not a store instance")
                        fact = (name, p, obj.name)
                    elif isinstance(o, Literal):
                        fact = (name, p, _check_literal(pdef, name, o, warned, position))
                    else:  # an instance name is shown as its term
                        o = TermId(o, _INSTANCE) if isinstance(o, str) else o
                        raise TypeMismatch(f"data property {p!r} expects a literal "
                                           f"object, got {o!r}")
                size = len(table)
                table[fact] = None  # one hash: a repeat keeps its key, place and length
                if len(table) == size:
                    continue
                held = by_subject[name]
                if pdef is not None and pdef.functional:
                    for f in held:
                        if f[1] == p:
                            del table[fact]
                            raise FunctionalViolation(
                                f"{p!r} is functional; {name!r} already has a value")
                held.append(fact)
            except SatkgError as exc:
                # kept without a traceback, which would hold this frame and so the list
                # in a cycle; a context here is always one ``raise ... from None`` hides
                exc.__context__ = None
                refused.append((position, exc.with_traceback(None)))
        if warned:
            self.warnings += [message for _position, message in warned]
        return refused, warned

    def assert_fact(
        self,
        subject: Union[str, TermId],
        predicate: Union[str, TermId],
        obj: Union[str, TermId, Literal, LiteralValue],
    ) -> bool:
        """Convenience wrapper around :meth:`add` accepting plain names.

        A string object names an instance for object properties and a class
        for ``instance_of``, and is taken as a string literal for data
        properties; other scalars become literals.
        """
        sterm = self.instance(subject) if isinstance(subject, str) else subject
        pname = predicate if isinstance(predicate, str) else predicate.name
        pterm = INSTANCE_OF if pname == INSTANCE_OF.name else self.ontology.prop(pname).id
        if not isinstance(obj, (TermId, Literal)):
            if pterm.kind is TermKind.DATA_PROPERTY:
                obj = Literal(obj)  # type: ignore[arg-type]
            elif not isinstance(obj, str):
                raise TypeMismatch(f"{pname!r} expects a class or instance name, not {obj!r}")
            elif pterm is not INSTANCE_OF:  # a class name goes to the store as it is
                obj = self.instance(obj)
        return self.add(Assertion(sterm, pterm, obj))

    # --------------------------------------------------------------- access

    def facts(self) -> Iterator[Fact]:
        return iter(self._facts)

    def facts_about(self, subject: str) -> list[Fact]:
        return self._by_subject.get(subject, [])

    def facts_with_predicate(self, name: str) -> list[Fact]:
        return (self._views.get(1) or self._view(1, self._by_predicate)).get(
            self.ontology.canonical_name(name), [])

    def _view(self, key, build: Callable, *args):
        view = self._views.get(key)  # else built, then published: the first published is kept
        return view if view is not None else self._views.setdefault(key, build(*args))

    def _by_predicate(self) -> dict[str, list[Fact]]:
        by_predicate = defaultdict(list)
        for fact in self._facts:
            by_predicate[fact[1]].append(fact)
        return by_predicate

    def _by_class(self) -> dict[str, list[TermId]]:
        by_class, terms = defaultdict(list), self._instances
        for s, p, o in self._facts:
            if p == _TYPING:
                by_class[o].append(terms[s])
        return by_class

    def _object_index(self) -> dict[str, list[Fact]]:
        by_object = defaultdict(list)
        for fact in self._facts:
            if type(fact[2]) is str and fact[1] != _TYPING:
                by_object[fact[2]].append(fact)
        return by_object

    def facts_with_object(self, name: str) -> list[Fact]:
        """Object-property facts whose object is the named instance."""
        return self._view(None, self._object_index).get(name, [])

    def pairs(self, facts: list[Fact]) -> list[tuple[TermId, Union[TermId, Literal]]]:
        """The subject and object, as terms, of each fact of one property (not instance_of)."""
        terms = self._instances
        if facts and type(facts[0][2]) is str:  # an object property's
            return [(terms[s], terms[o]) for s, _, o in facts]
        return [(terms[s], o) for s, _, o in facts]

    def predicate_pairs(self, name: str) -> list[tuple[TermId, Union[TermId, Literal]]]:
        """``pairs`` of every fact of the property: a shared view, so read-only."""
        name = self.ontology.canonical_name(name)
        return self._view(name, lambda: self.pairs(self.facts_with_predicate(name)))

    def typed_instances(self, cls: str) -> list[TermId]:
        """Instances typed by the class or a subclass, each once: a shared view, so read-only."""
        classes = self.ontology.subclasses_of(cls)
        built = self._views.setdefault((cls,), classes)  # the set its view was built under
        if built != classes:  # the class graph changed below the class: its old view goes
            self._views.pop(built, None)
            self._views[cls,] = classes
        return self._view(classes, self._typed, classes)

    def _typed(self, classes: frozenset[str]) -> list[TermId]:  # typed twice: kept once, by name
        return list({t.name: t for c in classes for t in self.instances_of(c)}.values())

    def _assertion(self, fact: Fact) -> Assertion:
        s, p, o = fact  # its names as terms
        if p == INSTANCE_OF.name:
            return Assertion(self._instances[s], INSTANCE_OF, self.ontology.classes[o].id)
        return Assertion(self._instances[s], self.ontology.properties[p].id,
                         self._instances[o] if type(o) is str else o)

    def assertions(self) -> Iterator[Assertion]:
        return map(self._assertion, self._facts)

    @property
    def assertion_count(self) -> int:
        return len(self._facts)

    def assertions_with_predicate(self, name: str) -> list[Assertion]:
        return list(map(self._assertion, self.facts_with_predicate(name)))

    @property
    def instance_count(self) -> int:
        return len(self._instances)

    def assertions_about(self, subject: str) -> list[Assertion]:
        return list(map(self._assertion, self.facts_about(subject)))

    def assertions_with_object(self, name: str) -> list[Assertion]:
        """Object-property assertions whose object is the named instance."""
        return list(map(self._assertion, self.facts_with_object(name)))

    def instances_of(self, cls: str) -> list[TermId]:
        """Instances directly typed with the class (subclasses not included)."""
        return (self._views.get(2) or self._view(2, self._by_class)).get(
            self.ontology.canonical_name(cls), [])

    def types_of(self, name: str) -> list[str]:
        """Directly asserted classes of an instance."""
        return [o for _, p, o in self._by_subject.get(name, ()) if p == _TYPING]

    def all_types_of(self, name: str) -> set[str]:
        """Asserted classes closed under subsumption."""
        up = self.ontology._up
        out: set[str] = set()
        for _, p, o in self._by_subject.get(name, ()):
            if p == _TYPING:
                out |= up[o]
        return out

    # ----------------------------------------------------------------- misc

    def copy(self) -> "InstanceStore":
        dup = InstanceStore(self.ontology)
        dup._instances = dict(self._instances)
        dup._facts = dict(self._facts)
        held = self._by_subject
        dup._by_subject = defaultdict(list, zip(held, map(list, held.values())))
        dup.warnings = list(self.warnings)
        dup.rule_conflicts = list(self.rule_conflicts)
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstanceStore):
            return NotImplemented
        return (self.ontology == other.ontology and set(self._instances) == set(other._instances)
                and self._facts.keys() == other._facts.keys())

    def __repr__(self) -> str:
        return f"<InstanceStore {len(self._instances)} instances, {len(self._facts)} assertions>"


def lexical_form(value: LiteralValue) -> str:
    """Canonical text form of a literal value, stable across round trips."""
    if isinstance(value, Decimal):
        text = str(value)
        if "E" in text or "e" in text:
            text = format(value, "f")
        return text
    if isinstance(value, date):
        return value.isoformat()
    return str(value)


_UNESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}  # ECHAR
_ESCAPE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)", re.DOTALL)  # or UCHAR (W3C Turtle 6.4)


def escape_string(text: str) -> str:
    """Quoted-string body for Turtle and query text; see :func:`unescape_string`."""
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


def unescape_string(text: str, error: Optional[Callable[[str], Exception]] = None) -> str:
    """Inverse of :func:`escape_string`: Turtle's ECHAR and UCHAR escapes, read left
    to right.  Any other escape, or a UCHAR that is a surrogate or above U+10FFFF,
    raises ``error(message)``; without ``error`` it stands for the escaped text."""
    def one(m: re.Match) -> str:
        code, point = m[1], int(m[1][1:], 16) if len(m[1]) > 1 else -1  # a UCHAR's code point
        if 0 <= point <= 0x10FFFF and not 0xD800 <= point <= 0xDFFF:
            return chr(point)
        if code not in _UNESCAPES and error is not None:
            raise error(f"bad escape \\{code} in a string")
        return _UNESCAPES.get(code, code)
    return _ESCAPE.sub(one, text) if "\\" in text else text


def decode_utf8(data: bytes, error: Callable[[str, int, int], Exception]) -> str:
    """``data`` read as UTF-8; the first byte that is not raises each reader's
    ``error(message, line, column)``, the column counted in characters."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        raise error(f"byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})",
                    before.count("\n") + 1, len(before) - before.rfind("\n")) from None
