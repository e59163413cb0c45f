"""End-to-end benchmark of the FEXIPRO reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py                        # every workload once
    python3 benchmarks/e2e/run.py --workload online-yelp --seed 3
    python3 benchmarks/e2e/run.py --trace 1              # per-layer metrics
    python3 benchmarks/e2e/run.py --runs 5 --out results/a.json

One workload with ``--runs 1`` runs in this process; anything more runs
each (run, workload) pair in a fresh subprocess, interleaving workloads,
because state left behind by one workload (pools, replicas, allocator
arenas) slows the next.  Every metric prints as ``workload metric value
unit``; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A wrong answer exits with status 3 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (after the src path is set up)
from host import fingerprint  # noqa: E402
from layers import LayerTracer  # noqa: E402


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(trace: bool) -> dict:
    """The metrics BENCHMARK.json declares for this kind of run."""
    return {m["name"]: m
            for m in declared()["per_layer" if trace else "end_to_end"]}


def check_declared(record: dict) -> None:
    expected = declared_metrics(record["trace"])
    produced = record["metrics"]
    if set(expected) != set(produced):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(expected) - set(produced))}, undeclared "
            f"{sorted(set(produced) - set(expected))}")
    for name, metric in produced.items():
        if metric["unit"] != expected[name]["unit"]:
            raise SystemExit(f"{name}: unit {metric['unit']!r} but "
                             f"BENCHMARK.json says {expected[name]['unit']!r}")


def print_record(record: dict) -> None:
    for group in ("metrics", "diagnostics"):
        for name, metric in record[group].items():
            print(f"{record['workload']} {name} {metric['value']:.6g} "
                  f"{metric['unit']}")


def write_results(path, records) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"fingerprint": fingerprint(ROOT),
                                "runs": records}, indent=1) + "\n")


def run_here(args) -> int:
    tracer = LayerTracer(workloads.WORKERS).install() if args.trace else None
    try:
        record = workloads.run(args.workload, args.seed, args.seconds,
                               args.scale, tracer)
    except workloads.OracleMismatch as error:
        print(f"oracle: {error}", file=sys.stderr)
        return 3
    finally:
        if tracer is not None:
            tracer.uninstall()
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"trace-{args.workload}.json")
    check_declared(record)
    print_record(record)
    if args.out:
        write_results(args.out, [record])
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


def run_children(args) -> int:
    names = [args.workload] if args.workload else list(workloads.SPECS)
    records = []
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        child_out = Path(scratch) / "run.json"
        for __ in range(args.runs):
            for name in names:
                done = subprocess.run(
                    [sys.executable, __file__, "--workload", name,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--scale", str(args.scale), "--trace", str(args.trace),
                     "--out", str(child_out)],
                    stdout=subprocess.PIPE, text=True)
                lines = done.stdout.splitlines()
                if done.returncode != 0:
                    print("\n".join(lines))
                    return done.returncode
                print("\n".join(lines[:-1]), flush=True)
                records.extend(json.loads(child_out.read_text())["runs"])
    if args.out:
        write_results(args.out, records)
    medians = {}
    for name in names:
        runs = [r for r in records if r["workload"] == name]
        for metric, value in runs[0]["metrics"].items():
            medians[f"{name}/{metric}"] = {
                "value": statistics.median(r["metrics"][metric]["value"]
                                           for r in runs),
                "unit": value["unit"]}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": medians}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.SPECS),
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="derives every input and schedule")
    parser.add_argument("--seconds", "--duration", type=float,
                        help="length of the measured phase "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat every workload, interleaved")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer instead of end-to-end metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="resize catalogs, user pools and batches")
    parser.add_argument("--out", help="write the result records as JSON")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program at {ROOT / 'src' / 'repro'}: run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    if args.workload and args.runs == 1:
        return run_here(args)
    return run_children(args)


if __name__ == "__main__":
    sys.exit(main())
