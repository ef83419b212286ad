"""Satellite-catalog knowledge graph toolkit.

Ingests UCS-format catalog rows into a typed assertion store under either of
two orbital-parameter modeling modes, classifies and validates instances,
answers conjunctive queries under open- or closed-world semantics, and maps
local terms onto a compact reference vocabulary.  Stores interchange as a
deterministic Turtle fragment.
"""

__version__ = "0.1.0"

from .align import apply_mapping, build_bridged_ontology, merge_ontologies
from .core import (
    INSTANCE_OF,
    Assertion,
    ClassDef,
    DatatypeSpec,
    InstanceStore,
    Literal,
    NumericRestriction,
    Ontology,
    PropertyDef,
    TermId,
    TermKind,
    class_term,
    instance_term,
)
from .dot import export_dot
from .ingest import (
    EXPECTED_COLUMNS,
    IngestReport,
    RawRecord,
    ingest,
    parse_csv,
    resolve_record,
)
from .query import (
    BindingSet,
    NumericFilter,
    QueryAst,
    Semantics,
    TriplePattern,
    Variable,
    evaluate,
    format_query,
    parse_query,
)
from .reasoner import (
    NEARLY_CIRCULAR_MAX_ECCENTRICITY,
    Violation,
    classify_orbits,
    materialize,
    validate,
)
from .schema import (
    MappingEntry,
    MappingKind,
    ModelingMode,
    apply_overlay,
    build_mapping,
    build_ssao_core,
    build_ucsso,
    mode_of,
    parse_overlay,
)
from .turtle import Namespaces, export_turtle, import_turtle

__all__ = [name for name in dir() if not name.startswith("_")]
