"""Tests of the benchmark itself: seeded inputs, live output checks, exact
per-layer counts and the result-line contract.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import satkg  # noqa: E402
import workloads  # noqa: E402
from catalog import generate  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(generate(5, 80).csv, generate(5, 80).csv)
        self.assertNotEqual(generate(5, 80).csv, generate(6, 80).csv)

    def test_draws_cover_the_fixture_cases(self):
        cat = generate(1, 400)
        rows = cat.rows
        eccentricities = [r.cells["Eccentricity"] for r in rows]
        self.assertIn("0.14", eccentricities)
        self.assertIn("1", eccentricities)
        self.assertTrue(any(r.params.get("Orbital_Eccentricity", 0) > 1 for r in rows))
        self.assertTrue(any(r.cells["Type of Orbit"] == "Molniya" for r in rows))
        self.assertTrue(any(r.cells["Longitude of GEO (degrees)"] for r in rows))
        cells = [c for r in rows for c in r.cells.values()]
        self.assertTrue({"NR", "unknown"} <= set(cells))
        self.assertTrue(any(r.orbit_class and not r.operators for r in rows))
        self.assertTrue(any(r.name.endswith(f"_row{r.row_number}") for r in rows))
        self.assertTrue(any(len(r.alternates) == 2 for r in rows))
        self.assertIn(b'"Monitors ocean color, temperature,\nand coastal', cat.csv)


class CheckTest(unittest.TestCase):
    def test_pipeline_checks_pass_in_both_modes(self):
        for mode in satkg.ModelingMode:
            reified = mode is satkg.ModelingMode.REIFIED
            cat, expected = workloads._generate_checked(2, 120, reified)
            ledger = workloads.Ledger()
            done = workloads.catalog_pass(cat, mode, ledger, expected)
            self.assertIsNotNone(done)
            self.assertEqual((ledger.attempted, ledger.failed), (11, 0), ledger.messages)

    def test_a_wrong_answer_fails_its_operation(self):
        cat, expected = workloads._generate_checked(2, 60, True)
        expected["mapping_typings"] += 1
        ledger = workloads.Ledger()
        workloads.catalog_pass(cat, satkg.ModelingMode.REIFIED, ledger, expected)
        self.assertEqual(ledger.failed, 1)
        self.assertIn("apply_mapping", ledger.messages[0])

    def test_every_query_shape_answers_exactly(self):
        analyst = workloads.AnalystQueries(3, rows=150)
        ledger = workloads.Ledger()
        analyst.build(ledger)
        deck = analyst.decks.deck()
        for query in deck:
            workloads.run_query(analyst.store, query, ledger)
        self.assertEqual(ledger.failed, 0, ledger.messages)
        shapes = {q.shape for q in deck}
        self.assertEqual(shapes, {shape for shape, _ in workloads.QUERY_MIX})
        self.assertTrue(all(q.answer for q in deck if q.shape == "negation"))


def _traced_counts(rows: int) -> dict:
    ledger, tracer = workloads.Ledger(), Tracer()
    metrics, _ = workloads.trace(workloads.CatalogPipeline(4, rows), ledger, tracer)
    assert ledger.failed == 0, ledger.messages
    return {name: value for name, (value, unit) in metrics.items() if unit == "count"}


class TraceTest(unittest.TestCase):
    """Counts per catalog row at two sizes of catalog_pipeline, so linear
    against quadratic growth is an exact count comparison, not a timing."""

    @classmethod
    def setUpClass(cls):
        cls.counts = {rows: _traced_counts(rows) for rows in (100, 200)}
        per_row = {rows: {name: counts[name] / rows
                          for name in ("core.rows_scanned", "core.subsumption_calls")}
                   for rows, counts in cls.counts.items()}
        (BENCH / "results").mkdir(exist_ok=True)
        (BENCH / "results" / "scaling.json").write_text(
            json.dumps(per_row, indent=2) + "\n", encoding="utf-8")

    def per_row_growth(self, name: str) -> float:
        return (self.counts[200][name] / 200) / (self.counts[100][name] / 100)

    def test_counts_repeat_in_process(self):
        self.assertEqual(self.counts[100], _traced_counts(100))

    def test_counts_repeat_across_processes(self):
        runs = [last_json(run_bench("--workload", "small_batches", "--seed", "3", "--trace", "1"))
                for _ in range(2)]
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                  for r in runs]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["core.add_calls"], 0)

    def test_subsumption_calls_per_row_flat(self):
        self.assertLessEqual(self.per_row_growth("core.subsumption_calls"), 1.25)

    @unittest.expectedFailure  # classify and validate scan the store once per orbit today
    def test_rows_scanned_per_row_flat(self):
        self.assertLessEqual(self.per_row_growth("core.rows_scanned"), 1.25)


class ContractTest(unittest.TestCase):
    def test_result_lines_name_every_metric(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            result = last_json(run_bench("--workload", "small_batches", "--seed", "2",
                                         "--seconds", "1", "--trace", trace))
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)

    def test_meta_matches_the_benchmark(self):
        meta = json.loads((BENCH / "meta.json").read_text(encoding="utf-8"))
        self.assertEqual(set(meta["end_to_end"]), {m["name"] for m in SPEC["end_to_end"]})
        self.assertEqual(set(meta["per_layer"]), {m["name"] for m in SPEC["per_layer"]})
        self.assertEqual(set(meta["workloads"]), {w["name"] for w in SPEC["workloads"]})
        self.assertEqual(meta["workloads"]["analyst_queries"]["mix"], dict(workloads.QUERY_MIX))
        self.assertEqual(sum(dict(workloads.QUERY_MIX).values()), 100)

    def test_fails_without_the_program(self):
        (BENCH / "results").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BENCH / "results") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = run_bench("--workload", "small_batches", "--seconds", "1", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(proc.stdout.strip())


if __name__ == "__main__":
    unittest.main()
