"""The benchmark's workloads: the CLI command sequence, analyst queries and
the output checks, driven only through satkg's public functions.

Every program call is one operation.  An operation fails when it raises or
when its output disagrees with the answer derived from the generator; a
failed operation is counted, never skipped.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import random
import re
import resource
import statistics
import time
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, Optional

import satkg

from catalog import Catalog, closure, generate, instance_name

PIPELINE_ROWS = 1000  # one reified catalog, as in the Quick-start sequence
ANALYST_ROWS = 500  # the reified store the analyst queries
SMALL_ROWS = 25  # rows per direct-mode catalog in small_batches
SMALL_POOL = 48  # distinct small catalogs cycled through
SMALL_BLOCK = 8  # catalogs per small_batches block
SETUP_REPEATS = 3  # set-ups per measured run; setup_s is their median
#: Reference-loop time that measured times are scaled to (see ``Pace``):
#: about what ``reference_seconds`` reads on a 2-core x86-64 box, Python 3.11.
REFERENCE_S = 0.006
PACE_INTERVAL_S = 0.5  # least time between two reference samples

#: Query shapes with their share of every deck.  Point lookups are the most
#: common and the four-pattern join the rarest, as an analyst would run them.
QUERY_MIX = (
    ("point", 40), ("types", 20), ("range", 12), ("local_typing", 10),
    ("reference_typing", 10), ("negation", 6), ("join", 2),
)
LOCAL_CLASSES = ("Nearly_Circular_Orbit", "Elliptical_Orbit", "LEO_Orbit")
REFERENCE_CLASSES = ("Orbital_Path", "Spacecraft", "Space_Object")
NEGATED = ("has_Operator", "has_Contractor", "has_Launch_Site")
JOIN_BOUNDS = ("0.01", "0.02", "0.05", "0.1", "0.14")

#: Fixed percentile ladder for tail latency; the highest rung with at least
#: ten samples beyond it is reported.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def _no_pace() -> None:
    """Outside ``measure`` nothing is sampled between operations."""


@dataclass
class Ledger:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)
    #: Set while tracing: ``quiet`` hides the benchmark's own checks from the
    #: counters, ``span`` opens a span around one request.
    quiet: Callable = contextlib.nullcontext
    span: Callable = contextlib.nullcontext
    #: Called before each timed operation; ``measure`` samples the
    #: machine's speed there.
    pace: Callable = _no_pace

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


class Abort(Exception):
    """An operation raised; the rest of the sequence cannot run."""


@dataclass
class Pass:
    """One catalog's command sequence: its program time and its final file."""

    seconds: float
    ttl: bytes


def _timed(ledger: Ledger, clock: list, label: str, fn: Callable, *args):
    ledger.pace()
    ledger.attempted += 1
    start = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # any raise is a failed operation
        clock[0] += time.perf_counter() - start
        ledger.fail(f"{label} raised {type(exc).__name__}: {exc}")
        raise Abort(label) from exc
    clock[0] += time.perf_counter() - start
    return out


def _check(ledger: Ledger, label: str, ok: bool, detail: str = "") -> None:
    if not ok:
        ledger.fail(f"{label}: {detail}")


def _triples(store) -> set:
    out = set()
    for a in store.assertions():
        obj = a.object
        if isinstance(obj, satkg.Literal):
            key = ("l", obj.value)
        elif obj.kind is satkg.TermKind.CLASS:
            key = ("c", obj.name)
        else:
            key = ("i", obj.name)
        out.add((a.subject.name, a.predicate.name, key))
    return out


def catalog_pass(cat: Catalog, mode, ledger: Ledger, expected: dict) -> Optional[Pass]:
    """parse_csv -> ingest -> export -> import -> classify -> export -> import
    -> validate -> apply_mapping -> export, re-reading the Turtle at each step
    as each CLI command does.  Only the program calls are timed."""
    with ledger.span("bench.pass"):
        try:
            return _sequence(cat, mode, ledger, expected)
        except Abort:
            return None


def _sequence(cat: Catalog, mode, ledger: Ledger, expected: dict) -> Pass:
    clock = [0.0]
    records = _timed(ledger, clock, "parse_csv", satkg.parse_csv, cat.csv)
    _check(ledger, "parse_csv", len(records) == len(cat.rows),
           f"{len(records)} records for {len(cat.rows)} rows")

    ontology = _timed(ledger, clock, "build_ucsso", satkg.build_ucsso, mode)
    store, report = _timed(ledger, clock, "ingest", satkg.ingest, records, mode, ontology)
    with ledger.quiet():
        codes: dict = {}
        for v in report.violations:
            codes[v.code] = codes.get(v.code, 0) + 1
        want = expected["assertions"]
        differ = len(_triples(store) ^ want)
    _check(ledger, "ingest",
           report.assertions_created == len(want) and not differ
           and codes == expected["violations"],
           f"{report.assertions_created} assertions (want {len(want)}), {differ} differ, "
           f"violations {codes} (want {expected['violations']})")

    loaded = _round_trip(ledger, clock, "load", store)
    classified = _timed(ledger, clock, "classify_orbits", satkg.classify_orbits, loaded, mode)
    with ledger.quiet():
        counts = _classification_counts(loaded, classified)
    _check(ledger, "classify_orbits", counts == expected["classification"],
           f"{counts} (want {expected['classification']})")

    reloaded = _round_trip(ledger, clock, "classify", classified)
    violations = _timed(ledger, clock, "validate", satkg.validate, reloaded)
    errors = [v for v in violations if v.severity == "error"]
    gaps = {v.subject.name: v.detail.split(" lacks ", 1)[1].split(", ")
            for v in violations if v.code == "completeness"}
    _check(ledger, "validate", not errors and gaps == expected["completeness"],
           f"{len(errors)} errors, {len(gaps)} completeness warnings "
           f"(want 0 and {len(expected['completeness'])})")

    mapped = _timed(ledger, clock, "apply_mapping", satkg.apply_mapping,
                    reloaded, satkg.build_mapping())
    added = mapped.assertion_count - reloaded.assertion_count
    _check(ledger, "apply_mapping", added == expected["mapping_typings"],
           f"{added} typings added (want {expected['mapping_typings']})")

    ttl = _timed(ledger, clock, "export_turtle", satkg.export_turtle, mapped).encode("utf-8")
    with ledger.quiet():
        instances = len(mapped.instances)
    individuals = ttl.count(b" a owl:NamedIndividual")
    _check(ledger, "export_turtle", individuals == instances,
           f"{individuals} individuals written for {instances} instances")
    return Pass(clock[0], ttl)


def _round_trip(ledger: Ledger, clock: list, label: str, store):
    """Write the store as the command's output file and read it back as the
    next command does; the read-back must equal what was written."""
    text = _timed(ledger, clock, f"{label}.export_turtle", satkg.export_turtle, store)
    back = _timed(ledger, clock, f"{label}.import_turtle", satkg.import_turtle,
                  text.encode("utf-8"))
    with ledger.quiet():
        same = back == store
    _check(ledger, f"{label}.import_turtle", same, "import_turtle(export_turtle(s)) != s")
    return back


def _classification_counts(before, after) -> dict:
    """Typings classify added per target, conflicts it reported, and orbits
    left without either whose asserted class is not itself a rule target."""
    added = set(after.assertions()) - set(before.assertions())
    targets = [a.object.name for a in added if a.predicate.name == "instance_of"]
    touched = {a.subject.name for a in added} | {v.subject.name for v in after.rule_conflicts}
    rule_targets = {"Nearly_Circular_Orbit", "Elliptical_Orbit"}
    unclassified = sum(
        1 for t in before.instances
        if t.name not in touched and "Orbit" in before.all_types_of(t.name)
        and not rule_targets & set(before.types_of(t.name))
    )
    return {
        "nearly_circular": targets.count("Nearly_Circular_Orbit"),
        "elliptical": targets.count("Elliptical_Orbit"),
        "unclassified": unclassified,
        "conflicts": len(after.rule_conflicts),
    }


def expected_answers(cat: Catalog, reified: bool) -> dict:
    return {
        "assertions": cat.expected_assertions(reified),
        "violations": cat.expected_violations(),
        "classification": cat.expected_classification(),
        "completeness": cat.expected_completeness(),
        "mapping_typings": cat.expected_mapping_typings(reified),
    }


# ------------------------------------------------------------------ queries

@dataclass
class Query:
    shape: str
    text: str
    semantics: object
    answer: set


class QueryDeck:
    """Seeded decks of analyst queries, each with its exact answer set."""

    def __init__(self, cat: Catalog, seed: int):
        self.rng = random.Random(seed * 7919 + 17)
        self.cat = cat
        self.rows = {row.name: row for row in cat.rows}
        typed: dict = {}
        for row in cat.rows:
            for inst in (row.name, row.orbit):
                if inst:
                    for cls in cat.classes_of(row, inst):
                        typed.setdefault(cls, set()).add(inst)
            if row.vehicle:
                vehicle = instance_name(row.vehicle)
                for cls in closure(["Space_Artifact"]):
                    typed.setdefault(cls, set()).add(vehicle)
        self.typed = typed

    def deck(self) -> list:
        shapes = [shape for shape, weight in QUERY_MIX for _ in range(weight)]
        self.rng.shuffle(shapes)
        return [self._draw(shape) for shape in shapes]

    def _draw(self, shape: str) -> Query:
        r, cat = self.rng, self.cat
        open_world = satkg.Semantics.OPEN_WORLD
        if shape in ("point", "types"):
            row = self.rows[r.choice(cat.satellites)]
            if shape == "point":
                return Query(shape, f"select ?o where {{ {row.name} has_Orbit ?o }}", open_world,
                             {(row.orbit,)} if row.orbit else set())
            return Query(shape, f"select ?c where {{ {row.name} instance_of ?c }}", open_world,
                         {(c,) for c in cat.classes_of(row, row.name)})
        if shape in ("local_typing", "reference_typing"):
            cls = r.choice(LOCAL_CLASSES if shape == "local_typing" else REFERENCE_CLASSES)
            return Query(shape, f"select ?s where {{ ?s instance_of {cls} }}", open_world,
                         {(s,) for s in self.typed.get(cls, ())})
        if shape == "range":
            bound = r.randint(400, 40000)
            answer = {(f"{row.orbit or row.name}_Perigee", row.params["Perigee"])
                      for row in cat.rows
                      if "Perigee" in row.params and row.params["Perigee"] < bound}
            return Query(shape, f"select ?p ?v where {{ ?p has_Perigee_value ?v . "
                                f"filter ?v < {bound} }}", open_world, answer)
        if shape == "negation":
            prop = r.choice(NEGATED)
            present = {"has_Operator": lambda row: row.operators,
                       "has_Contractor": lambda row: row.contractor,
                       "has_Launch_Site": lambda row: row.site}[prop]
            return Query(shape, f"select ?s where {{ ?s instance_of Artificial_Satellite . "
                                f"not {{ ?s {prop} ?o }} }}", satkg.Semantics.CLOSED_WORLD,
                         {(row.name,) for row in cat.rows if not present(row)})
        bound = Decimal(r.choice(JOIN_BOUNDS))
        answer = {(row.name, row.eccentricity) for row in cat.orbit_rows
                  if row.eccentricity is not None and row.eccentricity <= bound
                  and "Nearly_Circular_Orbit" in cat.classes_of(row, row.orbit)}
        return Query(shape, "select ?s ?e where { ?s has_Orbit ?o . "
                            "?o instance_of Nearly_Circular_Orbit . "
                            "?o has_Orbital_Eccentricity ?p . "
                            f"?p has_Orbital_Eccentricity_value ?e . filter ?e <= {bound} }}",
                     open_world, answer)


def run_query(store, query: Query, ledger: Ledger) -> float:
    """One parse_query + evaluate, timed; the answer is checked afterwards."""
    ledger.pace()
    ledger.attempted += 1
    with ledger.span("bench.query"):
        start = time.perf_counter()
        try:
            ast = satkg.parse_query(query.text, store.ontology, query.semantics)
            result = satkg.evaluate(ast, store)
        except Exception as exc:  # any raise is a failed operation
            ledger.fail(f"{query.shape} raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        seconds = time.perf_counter() - start
    got = {tuple(v.name if isinstance(v, satkg.TermId) else v.value
                 for v in (row[name] for name in result.variables))
           for row in result.rows}
    if got != query.answer or len(result.rows) != len(got):
        ledger.fail(f"{query.shape} `{query.text}`: {len(got)} rows, want {len(query.answer)}")
    return seconds


# ---------------------------------------------------------------- workloads

class CatalogPipeline:
    """One reified catalog through the whole command sequence per block."""

    def __init__(self, seed: int, rows: int = PIPELINE_ROWS):
        self.seed, self.rows = seed, rows
        self.digests: set = set()

    def build(self, ledger: Ledger) -> None:
        self.cat, self.expected = _generate_checked(self.seed, self.rows, True)

    def block(self, ledger: Ledger) -> tuple:
        done = catalog_pass(self.cat, satkg.ModelingMode.REIFIED, ledger, self.expected)
        if done is None:
            return 0, []
        self.digests.add(hashlib.sha256(done.ttl).hexdigest())
        _check(ledger, "export_turtle", len(self.digests) == 1,
               "repeated passes wrote different files")
        self.ttl_bytes_per_row = len(done.ttl) / self.rows
        return self.rows, [done.seconds]

    def trace_unit(self, ledger: Ledger) -> float:
        return sum(self.block(ledger)[1])


class SmallBatches:
    """Many small direct-mode catalogs, each with a freshly built ontology."""

    def __init__(self, seed: int):
        self.seed = seed
        self.next = 0
        self.ttl_sizes: dict = {}

    def build(self, ledger: Ledger) -> None:
        self.pool = [_generate_checked(self.seed * 1000 + i, SMALL_ROWS, False)
                     for i in range(SMALL_POOL)]

    def _one(self, index: int, ledger: Ledger) -> Optional[float]:
        cat, expected = self.pool[index]
        done = catalog_pass(cat, satkg.ModelingMode.DIRECT, ledger, expected)
        if done is None:
            return None
        self.ttl_sizes[index] = len(done.ttl)
        return done.seconds

    def block(self, ledger: Ledger) -> tuple:
        latencies = []
        for _ in range(SMALL_BLOCK):
            seconds = self._one(self.next, ledger)
            self.next = (self.next + 1) % len(self.pool)
            if seconds is not None:
                latencies.append(seconds)
        return SMALL_ROWS * len(latencies), latencies

    @property
    def ttl_bytes_per_row(self) -> float:
        return sum(self.ttl_sizes.values()) / (SMALL_ROWS * len(self.ttl_sizes))

    def trace_unit(self, ledger: Ledger) -> float:
        return sum(s for s in (self._one(i, ledger) for i in range(len(self.pool))) if s)


class AnalystQueries:
    """A classified, mapped store read back from its file, then one client
    running query decks in a closed loop."""

    def __init__(self, seed: int, rows: int = ANALYST_ROWS):
        self.seed, self.rows = seed, rows

    def build(self, ledger: Ledger) -> float:
        """Build, classify and map the store, then read it as ``satkg query``
        does; returns the program time spent."""
        cat, expected = _generate_checked(self.seed, self.rows, True)
        done = catalog_pass(cat, satkg.ModelingMode.REIFIED, ledger, expected)
        if done is None:
            raise SetupFailed("analyst store could not be built: " + "; ".join(ledger.messages))
        clock = [0.0]
        try:
            self.store = _timed(ledger, clock, "query.import_turtle", satkg.import_turtle, done.ttl)
        except Abort:
            raise SetupFailed("; ".join(ledger.messages)) from None
        self.cat = cat
        self.ttl_bytes_per_row = len(done.ttl) / len(cat.rows)
        self.decks = QueryDeck(cat, self.seed)
        return done.seconds + clock[0]

    def block(self, ledger: Ledger) -> tuple:
        latencies = [run_query(self.store, q, ledger) for q in self.decks.deck()]
        return len(latencies), latencies

    def trace_unit(self, ledger: Ledger) -> float:
        seconds = self.build(ledger)
        return seconds + sum(self.block(ledger)[1])


class SetupFailed(Exception):
    """The workload's inputs could not be prepared; no result is printed."""


WORKLOADS = {
    "catalog_pipeline": CatalogPipeline,
    "analyst_queries": AnalystQueries,
    "small_batches": SmallBatches,
}


def _generate_checked(seed: int, rows: int, reified: bool) -> tuple:
    cat = generate(seed, rows)
    return cat, expected_answers(cat, reified)


def tail(samples: list) -> tuple:
    """(percentile, value, samples beyond): the highest rung of the ladder
    with at least ten samples beyond it; the median when there is none."""
    ordered = sorted(samples)
    n = len(ordered)
    best = (50.0, statistics.median(ordered), n // 2)
    for p in PERCENTILES[1:]:
        rank = min(n - 1, int(p / 100.0 * n))
        beyond = n - rank - 1
        if beyond >= 10:
            best = (p, ordered[rank], beyond)
    return best


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class _Key:
    name: str
    slot: int


_NAME = re.compile(r"[A-Za-z0-9_]+\Z")


def _reference_loop() -> int:
    """Fixed pure-Python work in the style of satkg's inner loops (frozen
    dataclass keys, regex checks, dicts, sets, sorting, joins), independent
    of the repository's code."""
    index: dict = {}
    keys: set = set()
    for i in range(3000):
        name = f"name_{i % 701}"
        if _NAME.match(name):
            key = _Key(name, i & 31)
            keys.add(key)
            index.setdefault(name, []).append(key)
    text = "\n".join(" ".join(k.name for k in index[name][:3]) for name in sorted(index))
    return len(text) + len(keys)


def reference_seconds() -> float:
    """Best of three timings of the reference loop, garbage collection off,
    so that the size of satkg's heap does not leak into it."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            _reference_loop()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


class Pace:
    """The machine's speed, read from the reference loop between operations.

    The host is shared; its speed drifts by a fifth or more over tens of
    seconds.  The reference loop is timed before operations, at most every
    ``PACE_INTERVAL_S``, and each set-up or block's time is scaled by the
    square root of ``REFERENCE_S`` over the median of the samples that
    bracket it.  The square root because the workloads swing about half as
    much as the loop, in ratio terms: over ten-seed runs of each workload,
    the largest quartile spread of a time metric was 0.27 unscaled, 0.16
    with full scaling and 0.12 with the square root."""

    def __init__(self) -> None:
        self.samples = [(time.perf_counter(), reference_seconds())]

    def due(self) -> None:
        if time.perf_counter() - self.samples[-1][0] >= PACE_INTERVAL_S:
            self.samples.append((time.perf_counter(), reference_seconds()))

    def scale(self, start: float) -> float:
        """Factor for the work done since ``start``."""
        self.samples.append((time.perf_counter(), reference_seconds()))
        first = max(i for i, (at, _) in enumerate(self.samples) if at <= start)
        return math.sqrt(REFERENCE_S / statistics.median(ref for _, ref in self.samples[first:]))


def measure(workload, seconds: float, ledger: Ledger) -> tuple:
    """Set up several times, then run blocks until ``seconds`` have passed.

    Returns (metrics, notes).  Times are scaled by ``Pace``; the unscaled
    figures go to the notes.  Throughput is the median over blocks of items
    per second of program time; latencies are per operation.  What set-up
    leaves behind (inputs, expected answers, the analyst's store) is moved
    out of the collector's view before timing, so that the benchmark's own
    data does not lengthen the program's garbage collections."""
    pace = Pace()
    ledger.pace = pace.due
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.build(ledger)
        raw_setups.append(time.perf_counter() - start)
        setups.append(raw_setups[-1] * pace.scale(start))
    gc.collect()
    gc.freeze()
    ops, raw_ops, rates = [], [], []
    deadline = time.perf_counter() + seconds
    while not rates or time.perf_counter() < deadline:
        start = time.perf_counter()
        items, latencies = workload.block(ledger)
        scale = pace.scale(start)
        if not latencies:
            if ledger.failed:
                break
            continue
        raw_ops.extend(latencies)
        ops.extend(latency * scale for latency in latencies)
        rates.append(items / (sum(latencies) * scale))
    ledger.pace = _no_pace
    if not ops:
        raise SetupFailed("no operation completed: " + "; ".join(ledger.messages))
    pct, value, beyond = tail(ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(ops) * 1000.0, "ms"),
        "op_tail_ms": (value * 1000.0, "ms"),
        "ttl_bytes_per_row": (workload.ttl_bytes_per_row, "B/row"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    refs = [ref for _, ref in pace.samples]
    notes = {
        "ops": len(ops), "blocks": len(rates), "tail_percentile": pct,
        "tail_samples_beyond": beyond, "reference_s": REFERENCE_S,
        "reference_samples_s": {"count": len(refs), "min": min(refs),
                                "median": statistics.median(refs), "max": max(refs)},
        "unscaled": {"setup_s": statistics.median(raw_setups),
                     "op_p50_ms": statistics.median(raw_ops) * 1000.0,
                     "op_tail_ms": tail(raw_ops)[1] * 1000.0},
    }
    return metrics, notes


def trace(workload, ledger: Ledger, tracer) -> tuple:
    """The workload's fixed unit of work untraced, then again traced.

    Returns (per-layer metrics, notes); the unit is fixed so that counts
    repeat exactly from run to run.  One more untraced unit first warms
    the process, so the two timed units start alike."""
    workload.build(ledger)
    workload.trace_unit(ledger)
    untraced = workload.trace_unit(ledger)
    tracer.install()
    ledger.quiet, ledger.span = tracer.quiet, tracer.span
    try:
        traced = workload.trace_unit(ledger)
    finally:
        tracer.uninstall()
        ledger.quiet = ledger.span = contextlib.nullcontext
    metrics = tracer.layer_metrics()
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics, {"spans": len(tracer.spans), "peak_rss_mb": peak_rss_mb()}
