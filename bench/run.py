"""Benchmark for satkg: seeded synthetic UCS catalogs driven through the
library's public functions in the order the CLI commands call them.

    python3 bench/run.py --workload catalog_pipeline --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload, summary table

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs the workload's fixed unit of work to warm up, then untraced, then
traced, and reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Details (check messages, tail percentile, environment) go to
``bench/results/``, spans of traced runs included.

Every workload process runs with a fixed PYTHONHASHSEED: set iteration order
decides where some of satkg's ``any()`` scans stop, so without it the
per-layer counts differ from process to process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HASH_SEED = "0"
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("catalog_pipeline", "analyst_queries", "small_batches")


def _parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import satkg from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "satkg" / "__init__.py").is_file():
        sys.exit(f"bench: no satkg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import satkg

    if Path(satkg.__file__).resolve().parent != SRC / "satkg":
        sys.exit(f"bench: imported satkg from {satkg.__file__}, not from {SRC}")
    return satkg


def environment() -> dict:
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "satkg").glob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "src_lines": lines,
        "platform": platform.platform(),
    }


def run_one(args: argparse.Namespace) -> int:
    _import_program()
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed)
    ledger = workloads.Ledger()
    tracer = Tracer() if args.trace else None
    try:
        if tracer is None:
            metrics, notes = workloads.measure(workload, args.seconds, ledger)
        else:
            metrics, notes = workloads.trace(workload, ledger, tracer)
    except workloads.SetupFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    correct = ledger.failed == 0
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if tracer else "")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    details = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, fail_ratio=ledger.failed / max(ledger.attempted, 1),
                   failures=ledger.messages, notes=notes, environment=environment())
    (RESULTS / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    for message in ledger.messages:
        print(f"check failed: {message}")
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; a table of every metric and check."""
    _import_program()
    summary = {"seed": args.seed, "trace": args.trace, "environment": environment(),
               "workloads": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        summary["workloads"][name] = result
        ratio = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_ratio={ratio:.4f}")
        for line in lines[:-1]:
            print(f"  {line}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}")
    RESULTS.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    (RESULTS / f"summary-seed{args.seed}{suffix}.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return status


def main(argv: list) -> int:
    args = _parse(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__))] + argv, env)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
