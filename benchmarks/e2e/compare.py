"""Compare two result files of the end-to-end benchmark, metric by metric.

    python3 benchmarks/e2e/compare.py BASE.json CANDIDATE.json

Both files come from ``run.py --runs N --out FILE``.  For every workload
and metric the table gives each side's median and quartiles, the share
of interleaved run pairs (run i of BASE against run i of CANDIDATE) that
the candidate wins, and a verdict against the metric's bound in
BENCHMARK.json:

- ``better``: the candidate wins at least 9 of 10 pairs and the medians
  differ by more than the base's own quartile spread, or every candidate
  run beats every base run;
- ``worse``: the candidate's median is worse than the base's by more than
  the bound;
- ``unresolved``: either side's quartile spread, as a share of its
  median, exceeds the bound, so the runs cannot tell;
- ``same``: none of the above.

Per-layer metrics carry no bound and get no verdict.  Comparing two sets
of runs of the same code is the benchmark's self-agreement check: every
verdict should then be ``same``, or ``unresolved`` where a metric's own
spread exceeds its bound.  Exits with status 1 when any metric is
``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from host import CODE_KEYS

ROOT = Path(__file__).resolve().parents[2]
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(base, candidate, better: str, bound=None) -> dict:
    """Compare two series of one metric; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(candidate)
    pairs = list(zip(base, candidate))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    out = {"base": (b1, b_med, b3), "candidate": (c1, c_med, c3),
           "win": wins / len(pairs) if pairs else 0.0,
           "change": None, "spread": None, "verdict": "-"}
    if b_med == 0 or c_med == 0:
        return out
    out["change"] = sign * (c_med - b_med) / abs(b_med)
    out["spread"] = max((b3 - b1) / abs(b_med), (c3 - c1) / abs(c_med))
    if bound is None:
        return out
    if better == "lower":
        beats_all = max(candidate) < min(base)
    else:
        beats_all = min(candidate) > max(base)
    if beats_all:
        out["verdict"] = "better"
    elif out["spread"] > bound:
        out["verdict"] = "unresolved"
    elif out["change"] > bound:
        out["verdict"] = "worse"
    elif out["win"] >= WIN_SHARE and abs(c_med - b_med) > b3 - b1:
        out["verdict"] = "better"
    else:
        out["verdict"] = "same"
    return out


def _percent(share, sign="") -> str:
    return "-" if share is None else f"{100 * share:{sign}.1f}%"


def series(runs) -> dict:
    """``{(workload, metric): (unit, [values in run order])}``."""
    out = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            key = (run["workload"], name)
            out.setdefault(key, (metric["unit"], []))[1].append(
                metric["value"])
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, candidate = (json.loads(Path(p).read_text()) for p in argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m
               for m in declared["end_to_end"] + declared["per_layer"]}
    for key in sorted(set(base["fingerprint"]) | set(candidate["fingerprint"])):
        if key in CODE_KEYS:
            continue
        a, b = base["fingerprint"].get(key), candidate["fingerprint"].get(key)
        if a != b:
            print(f"warning: hosts differ in {key}: {a!r} vs {b!r}")
    base_series, cand_series = series(base["runs"]), series(candidate["runs"])
    row = "{:15} {:26} {:10} {:>30} {:>30} {:>7} {:>5} {:>7} {:>6} {}"
    print(row.format("workload", "metric", "unit", "base median [q1, q3]",
                     "candidate median [q1, q3]", "change", "win", "spread",
                     "bound", "verdict"))
    worse = 0
    for key in sorted(set(base_series) & set(cand_series)):
        unit, a = base_series[key]
        __, b = cand_series[key]
        metric = metrics.get(key[1], {"better": "lower"})
        bound = metric.get("bound")
        result = judge(a, b, metric["better"], bound)
        worse += result["verdict"] == "worse"
        print(row.format(
            key[0], key[1], unit,
            "{1:.5g} [{0:.5g}, {2:.5g}]".format(*result["base"]),
            "{1:.5g} [{0:.5g}, {2:.5g}]".format(*result["candidate"]),
            _percent(result["change"], "+"), f"{result['win']:.2f}",
            _percent(result["spread"]), _percent(bound), result["verdict"]))
    print(f"({len(base['runs'])} base runs, {len(candidate['runs'])} "
          f"candidate runs; 'change' is positive when the candidate is worse)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
