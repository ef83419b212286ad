"""Spans and counters recorded from the benchmark's side of satkg's public API.

``install`` swaps each traced function or method for a wrapper, in every
satkg module that refers to it, and ``Tracer.uninstall`` puts the originals
back.  Nothing under ``src/`` changes.  Calls into stage functions become
spans (name, start, end, parent) kept in memory; the hot per-item methods of
``core`` are folded into per-parent aggregates, so a traced run holds a few
thousand spans instead of millions.  A span's self time is its duration minus
the time its traced children cover.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from typing import Callable

#: (layer metric prefix, module, attribute path) of every traced entry point.
STAGES = (
    ("ingest.parse_csv", "ingest", "parse_csv"),
    ("ingest.ingest", "ingest", "ingest"),
    ("turtle.export", "turtle", "export_turtle"),
    ("turtle.import", "turtle", "import_turtle"),
    ("reasoner.classify", "reasoner", "classify_orbits"),
    ("reasoner.validate", "reasoner", "validate"),
    ("query.parse", "query", "parse_query"),
    ("query.evaluate", "query", "evaluate"),
    ("align.apply_mapping", "align", "apply_mapping"),
    ("align.merge", "align", "merge_ontologies"),
    ("schema.build", "schema", "build_ucsso"),
    ("schema.build", "schema", "build_ssao_core"),
    ("schema.build", "schema", "build_mapping"),
    ("core.copy", "core", "InstanceStore.copy"),
)
HOT = (
    ("core.add", "core", "InstanceStore.add"),
    ("core.subsumption", "core", "Ontology.is_subclass_of"),
    ("core.subsumption", "core", "Ontology.ancestors"),
    ("core.subsumption", "core", "Ontology.subclasses_of"),
    ("core.subsumption", "core", "InstanceStore.all_types_of"),
    ("core.scan", "core", "InstanceStore.instances"),
    ("core.scan", "core", "InstanceStore.assertions_with_predicate"),
)


class Tracer:
    """Spans, per-parent call aggregates and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list = []  # [id, name, parent id, start, end, self seconds]
        self.hot: dict = {}  # (name, parent span id) -> [calls, seconds, self seconds]
        self.stack: list = []  # open frames: [name, start, child seconds, span id]
        self.rows_scanned = 0
        self.eval_rows_scanned = 0
        self.result_rows = 0
        self.import_bytes = 0
        self.assertions_created = 0
        self.violations = 0
        self.paused = 0
        self._restore: list = []

    # ----------------------------------------------------------------- spans

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def _open(self, name: str, keep: bool) -> list:
        span_id = None
        if keep:
            span_id = len(self.spans)
            self.spans.append([span_id, name, self._parent_span(), 0.0, 0.0, 0.0])
        frame = [name, time.perf_counter(), 0.0, span_id]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame[1]
        own = duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration
        if frame[3] is not None:
            span = self.spans[frame[3]]
            span[3], span[4], span[5] = frame[1], end, own
        else:
            agg = self.hot.setdefault((frame[0], self._parent_span()), [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += own

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one catalog pass."""
        frame = self._open(name, True)
        try:
            yield
        finally:
            self._close(frame)

    @contextlib.contextmanager
    def quiet(self):
        """Run the benchmark's own checks without counting their calls."""
        self.paused += 1
        try:
            yield
        finally:
            self.paused -= 1

    # -------------------------------------------------------------- wrappers

    def _wrap(self, name: str, fn: Callable, keep: bool) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = tracer._open(name, keep)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            tracer._count(name, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, args: tuple, out) -> None:
        if name == "core.scan":
            self.rows_scanned += len(out)
            if any(frame[0] == "query.evaluate" for frame in self.stack):
                self.eval_rows_scanned += len(out)
        elif name == "query.evaluate":
            self.result_rows += len(out.rows)
        elif name == "turtle.import":
            data = args[0]
            self.import_bytes += len(data if isinstance(data, bytes) else data.encode("utf-8"))
        elif name == "ingest.ingest":
            self.assertions_created += out[1].assertions_created
        elif name == "reasoner.validate":
            self.violations += len(out)

    def install(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "satkg" or n.startswith("satkg.")]
        for targets, keep in ((STAGES, True), (HOT, False)):
            for name, module, path in targets:
                owner = sys.modules[f"satkg.{module}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    if isinstance(original, property):
                        wrapped = property(self._wrap(name, original.fget, keep))
                    else:
                        wrapped = self._wrap(name, original, keep)
                    setattr(cls, attr, wrapped)
                    self._restore.append((cls, attr, original))
                    continue
                original = getattr(owner, path)
                wrapped = self._wrap(name, original, keep)
                for module_obj in modules:  # every `from .x import f` binding
                    for attr, value in list(vars(module_obj).items()):
                        if value is original:
                            setattr(module_obj, attr, wrapped)
                            self._restore.append((module_obj, attr, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --------------------------------------------------------------- metrics

    def _totals(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds] over all spans."""
        out: dict = {}
        for _id, name, _parent, start, end, own in self.spans:
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += own
        for (name, _parent), (calls, total, own) in self.hot.items():
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += own
        return out

    def layer_metrics(self) -> dict:
        """Every per-layer metric, as {name: (value, unit)}; 0 where a layer
        did not run on this workload.  Times are self times."""
        t = self._totals()

        def calls(name):
            return t.get(name, [0, 0.0, 0.0])[0]

        def own(name):
            return t.get(name, [0, 0.0, 0.0])[2]

        import_total = t.get("turtle.import", [0, 0.0, 0.0])[1]
        return {
            "ingest.parse_csv_s": (own("ingest.parse_csv"), "s"),
            "ingest.ingest_s": (own("ingest.ingest"), "s"),
            "ingest.assertions_created": (self.assertions_created, "count"),
            "core.add_calls": (calls("core.add"), "count"),
            "core.add_s": (own("core.add"), "s"),
            "core.copy_s": (own("core.copy"), "s"),
            "core.subsumption_calls": (calls("core.subsumption"), "count"),
            "core.subsumption_s": (own("core.subsumption"), "s"),
            "core.rows_scanned": (self.rows_scanned, "count"),
            "turtle.export_s": (own("turtle.export"), "s"),
            "turtle.import_s": (own("turtle.import"), "s"),
            "turtle.import_mb_per_s": (
                self.import_bytes / 1e6 / import_total if import_total else 0.0, "MB/s"),
            "reasoner.classify_s": (own("reasoner.classify"), "s"),
            "reasoner.validate_s": (own("reasoner.validate"), "s"),
            "reasoner.violations": (self.violations, "count"),
            "query.parse_s": (own("query.parse"), "s"),
            "query.evaluate_s": (own("query.evaluate"), "s"),
            "query.rows_examined_per_result": (
                self.eval_rows_scanned / self.result_rows if self.result_rows else 0.0, "ratio"),
            "align.apply_mapping_s": (own("align.apply_mapping"), "s"),
            "align.merge_calls": (calls("align.merge"), "count"),
            "align.merge_s": (own("align.merge"), "s"),
            "schema.build_calls": (calls("schema.build"), "count"),
            "schema.build_s": (own("schema.build"), "s"),
        }

    def write(self, path) -> None:
        """Spans, then the hot-method aggregates under their parent span, as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, parent, start, end, own in self.spans:
                out.write(json.dumps({"kind": "span", "id": span_id, "name": name,
                                      "parent": parent, "start": start, "end": end,
                                      "self_s": own}) + "\n")
            for (name, parent), (calls, total, own) in sorted(
                    self.hot.items(), key=lambda item: (-1 if item[0][1] is None else item[0][1],
                                                        item[0][0])):
                out.write(json.dumps({"kind": "calls", "name": name, "parent": parent,
                                      "calls": calls, "total_s": total, "self_s": own}) + "\n")
