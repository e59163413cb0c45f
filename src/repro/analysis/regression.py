"""Performance-regression gate over the ``BENCH_*.json`` trajectory.

The benchmark suite emits machine-readable ``BENCH_<name>.json`` payloads
(:mod:`benchmarks.conftest`'s ``ReportSink.write_json``) that are committed
under ``benchmarks/results/`` as baselines.  This module diffs a freshly
produced set against those baselines with per-metric tolerances, so CI can
fail a pull request that silently degrades throughput or pruning behaviour
— the perf trajectory becomes a *gate*, not just an artifact.

Comparing performance numbers across machines is a trap, so the gate is
deliberately stratified:

- **Mode mismatch skips.**  A quick-mode (``REPRO_QUICK``) payload is never
  compared against a full-mode baseline or vice versa — the workloads
  differ, so the comparison would be noise.  The bench is reported as
  skipped.
- **Host-shape demotion.**  When the baseline was recorded on a host with
  a different core count, *gated* metrics are demoted to informational:
  speedups and throughput genuinely depend on parallel hardware, and a
  two-core runner "regressing" a sixteen-core baseline is not a finding.
- **Tolerance tiers.**  Machine-independent ratios and counters (speedup,
  shards skipped, cache hit-path speedup, recall) carry tight relative
  tolerances and can also carry an absolute floor; raw wall-clock seconds
  are informational only — reported in the summary, never failing.

A missing baseline is a *skip*, not a failure: the first run of a new
bench establishes its trajectory.  A missing fresh payload for a bench
that has a baseline is also a skip (the bench may be filtered out of a
particular CI job).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "MetricSpec",
    "MetricOutcome",
    "RegressionReport",
    "DEFAULT_SPECS",
    "compare_payloads",
    "compare_directories",
    "lookup_path",
]


@dataclass(frozen=True)
class MetricSpec:
    """How one metric inside a bench payload is judged.

    Parameters
    ----------
    path:
        Dotted path into the JSON payload; integer segments index into
        lists (``"degradation_curve.0.recall_vs_full_scan"``).
    direction:
        ``"higher"`` — larger is better (throughput, speedup, recall) —
        or ``"lower"`` — smaller is better (latency).
    rel_tol:
        Allowed relative degradation versus the baseline before the
        metric counts as a regression (``0.15`` = 15%).
    abs_floor:
        Optional hard bound on the *fresh* value alone: a minimum for
        ``"higher"`` metrics, a maximum for ``"lower"`` ones.  Enforced
        even when the baseline is equal or worse — this is how acceptance
        criteria like "hit-path speedup stays ≥ 5×" are pinned.
    gate:
        ``False`` marks the metric informational: it appears in the
        summary but can never fail the job (used for raw wall-clock
        numbers that vary with hardware).
    """

    path: str
    direction: str = "higher"
    rel_tol: float = 0.15
    abs_floor: Optional[float] = None
    gate: bool = True

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ValueError(
                f"direction must be 'higher' or 'lower'; "
                f"got {self.direction!r}"
            )
        if self.rel_tol < 0:
            raise ValueError(f"rel_tol must be >= 0; got {self.rel_tol!r}")


@dataclass
class MetricOutcome:
    """The verdict for one metric of one bench."""

    bench: str
    path: str
    direction: str
    baseline: Optional[float]
    fresh: Optional[float]
    change: Optional[float]  # signed relative change, + = better
    status: str  # "ok" | "regression" | "info" | "missing"
    note: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "regression"


@dataclass
class RegressionReport:
    """Everything the gate decided, renderable as markdown."""

    outcomes: List[MetricOutcome] = field(default_factory=list)
    skipped: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricOutcome]:
        return [o for o in self.outcomes if o.failed]

    @property
    def failed(self) -> bool:
        return bool(self.regressions)

    def to_markdown(self) -> str:
        """A ``$GITHUB_STEP_SUMMARY``-ready markdown report."""
        lines = ["## Benchmark regression gate", ""]
        if self.failed:
            lines.append(
                f"**❌ {len(self.regressions)} regression(s) detected.**"
            )
        else:
            lines.append("**✅ No regressions against committed baselines.**")
        lines.append("")
        if self.outcomes:
            lines.append(
                "| bench | metric | dir | baseline | fresh | change | status |"
            )
            lines.append("|---|---|---|---:|---:|---:|---|")
            for o in self.outcomes:
                marker = {"regression": "❌ regression",
                          "ok": "✅ ok",
                          "info": "ℹ️ info",
                          "missing": "⚠️ missing"}[o.status]
                if o.note:
                    marker += f" ({o.note})"
                lines.append(
                    f"| {o.bench} | `{o.path}` | {o.direction} "
                    f"| {_fmt(o.baseline)} | {_fmt(o.fresh)} "
                    f"| {_fmt_change(o.change)} | {marker} |"
                )
            lines.append("")
        if self.skipped:
            lines.append("### Skipped")
            lines.append("")
            for bench, reason in self.skipped:
                lines.append(f"- `{bench}`: {reason}")
            lines.append("")
        return "\n".join(lines)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "–"
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.4g}"


def _fmt_change(change: Optional[float]) -> str:
    if change is None:
        return "–"
    return f"{change:+.1%}"


def lookup_path(payload: dict, path: str):
    """Resolve a dotted path (with integer list indices) into a payload.

    Returns ``None`` when any segment is absent — an absent metric is
    reported, not raised, so a reshaped payload degrades loudly but
    gracefully.
    """
    node = payload
    for segment in path.split("."):
        if isinstance(node, dict):
            if segment not in node:
                return None
            node = node[segment]
        elif isinstance(node, list):
            try:
                node = node[int(segment)]
            except (ValueError, IndexError):
                return None
        else:
            return None
    return node


#: The committed gate: per-bench metric specs.  Ratios and counters are
#: gated; raw seconds are informational.  ``BENCH_<key>.json`` is the file
#: each key maps to.
DEFAULT_SPECS: Dict[str, Tuple[MetricSpec, ...]] = {
    "serve": (
        MetricSpec("speedup", "higher", 0.15),
        MetricSpec("queries_per_second.pool", "higher", 0.15),
        MetricSpec("serial_seconds", "lower", 0.5, gate=False),
        MetricSpec("pool_seconds", "lower", 0.5, gate=False),
        MetricSpec("scan_p50_seconds", "lower", 0.5, gate=False),
    ),
    "sharded": (
        MetricSpec("shards_skipped", "higher", 0.02),
        MetricSpec("speedup", "higher", 0.15),
        MetricSpec("queries_per_second.sharded", "higher", 0.15),
        MetricSpec("sharded_seconds", "lower", 0.5, gate=False),
    ),
    "resilience": (
        MetricSpec("degradation_curve.0.recall_vs_full_scan",
                   "higher", 0.0, abs_floor=1.0),
        MetricSpec("no_deadline_p50_seconds", "lower", 0.5, gate=False),
        MetricSpec("poll_overhead_fraction", "lower", 0.5, gate=False),
    ),
    "budget": (
        # The unbudgeted anchor must stay exact, and the first budgeted
        # sweep point's recall and certified band width are judged
        # run-over-run (the workload is seeded, so both are stable).
        MetricSpec("anytime_curve.0.recall_vs_full_scan",
                   "higher", 0.0, abs_floor=1.0),
        MetricSpec("anytime_curve.1.recall_vs_full_scan", "higher", 0.1),
        MetricSpec("anytime_curve.1.mean_band_width", "lower", 0.5),
        MetricSpec("no_budget_p50_seconds", "lower", 0.5, gate=False),
        MetricSpec("poll_overhead_fraction", "lower", 0.5, gate=False),
    ),
    "obs": (
        # The overhead fraction hovers near zero, so relative comparison
        # against the baseline is pure noise; the hard ceiling alone is
        # the acceptance criterion (attached-but-unsampled tracing must
        # stay under 3% p50).
        MetricSpec("unsampled_overhead_fraction", "lower", 1000.0,
                   abs_floor=0.03),
        MetricSpec("untraced_p50_seconds", "lower", 0.5, gate=False),
        MetricSpec("traced_overhead_fraction", "lower", 0.5, gate=False),
    ),
    "cache": (
        MetricSpec("hit_speedup", "higher", 0.3, abs_floor=5.0),
        MetricSpec("identical", "higher", 0.0, abs_floor=1.0),
        MetricSpec("hot_seconds", "lower", 0.5, gate=False),
    ),
    "planner": (
        # Bitwise identity between the planned run and every fixed
        # engine is the hard gate; the plan must also keep beating the
        # worst fixed engine somewhere (the reason the planner exists).
        # Closeness to the per-cell *best* engine is informational here —
        # quick-mode cells are too small to time that margin reliably —
        # and enforced as a hard assert by the full-mode bench instead.
        MetricSpec("identical", "higher", 0.0, abs_floor=1.0),
        MetricSpec("adaptive_vs_worst_max", "higher", 0.5, abs_floor=1.0),
        MetricSpec("adaptive_within_best_min", "higher", 0.5, gate=False),
        MetricSpec("adaptive_seconds_total", "lower", 0.5, gate=False),
    ),
    "updates": (
        # Exactness under churn (bitwise across engines + oracle match)
        # and the O(delta) write contract are hard gates; the speedup
        # ratio is same-host (add p50 vs rebuild measured in one run) so
        # it survives hardware changes that demote raw seconds.
        MetricSpec("identical", "higher", 0.0, abs_floor=1.0),
        MetricSpec("add_vs_rebuild_speedup", "higher", 0.5,
                   abs_floor=10.0),
        MetricSpec("mutations_per_second", "higher", 0.25),
        MetricSpec("add_p50_seconds", "lower", 0.5, gate=False),
        MetricSpec("dirty_overhead_fraction", "lower", 0.5, gate=False),
        MetricSpec("compaction_rows_per_second", "higher", 0.5,
                   gate=False),
    ),
    "reverse": (
        # Bitwise identity with the brute-force forward sweep (audience
        # ids *and* k-th-score floats) is the hard gate, as is the bound
        # table actually pruning; the cold-campaign speedup is same-run
        # relative (campaign vs sweep on the same host) so it survives
        # hardware changes that demote raw seconds.
        MetricSpec("identical", "higher", 0.0, abs_floor=1.0),
        MetricSpec("pruned_fraction", "higher", 0.1, abs_floor=0.5),
        MetricSpec("speedup_vs_brute_force", "higher", 0.5,
                   abs_floor=1.5),
        MetricSpec("warm_speedup_vs_brute_force", "higher", 0.5,
                   gate=False),
        MetricSpec("cold_campaign_seconds", "lower", 0.5, gate=False),
    ),
    "mp": (
        # Bitwise identity across executors is the hard gate; the
        # process-vs-serial speedup is judged run-over-run (CI runners
        # share a host class, so the ratio is comparable even where the
        # absolute 1.5x criterion is demoted for lack of cores).
        MetricSpec("identical", "higher", 0.0, abs_floor=1.0),
        MetricSpec("speedup.process_vs_serial", "higher", 0.25),
        MetricSpec("effective_workers", "higher", 0.0, gate=False),
        MetricSpec("process_seconds", "lower", 0.5, gate=False),
        MetricSpec("serial_seconds", "lower", 0.5, gate=False),
    ),
}


def compare_payloads(bench: str, baseline: dict, fresh: dict,
                     specs: Sequence[MetricSpec]) -> Tuple[
                         List[MetricOutcome], Optional[str]]:
    """Judge one bench's fresh payload against its baseline.

    Returns ``(outcomes, skip_reason)``; a non-``None`` skip reason means
    the payloads are not comparable (quick/full mode mismatch) and no
    outcomes were produced.
    """
    if bool(baseline.get("quick")) != bool(fresh.get("quick")):
        return [], (
            f"mode mismatch: baseline quick={baseline.get('quick')!r}, "
            f"fresh quick={fresh.get('quick')!r}"
        )
    demote = False
    note = ""
    base_cores = baseline.get("host_cores")
    fresh_cores = fresh.get("host_cores")
    if base_cores is not None and fresh_cores is not None \
            and base_cores != fresh_cores:
        demote = True
        note = f"host cores {base_cores}→{fresh_cores}"
    outcomes: List[MetricOutcome] = []
    for spec in specs:
        outcomes.append(
            _judge(bench, spec, lookup_path(baseline, spec.path),
                   lookup_path(fresh, spec.path), demote, note)
        )
    return outcomes, None


def _judge(bench: str, spec: MetricSpec, baseline, fresh,
           demote: bool, demote_note: str) -> MetricOutcome:
    baseline = _as_number(baseline)
    fresh = _as_number(fresh)
    if fresh is None:
        return MetricOutcome(bench, spec.path, spec.direction, baseline,
                             None, None, "missing",
                             "metric absent from fresh payload")
    sign = 1.0 if spec.direction == "higher" else -1.0
    change = None
    if baseline not in (None, 0):
        change = sign * (fresh - baseline) / abs(baseline)
    if not spec.gate or demote:
        return MetricOutcome(bench, spec.path, spec.direction, baseline,
                             fresh, change, "info",
                             demote_note if demote else "")
    if spec.abs_floor is not None:
        breached = (fresh < spec.abs_floor if spec.direction == "higher"
                    else fresh > spec.abs_floor)
        if breached:
            bound = "floor" if spec.direction == "higher" else "ceiling"
            return MetricOutcome(
                bench, spec.path, spec.direction, baseline, fresh, change,
                "regression", f"{bound} {spec.abs_floor:g} breached"
            )
    if baseline is None:
        return MetricOutcome(bench, spec.path, spec.direction, None, fresh,
                             None, "ok", "no baseline value")
    if change is not None and change < -spec.rel_tol:
        return MetricOutcome(
            bench, spec.path, spec.direction, baseline, fresh, change,
            "regression", f"beyond -{spec.rel_tol:.0%} tolerance"
        )
    return MetricOutcome(bench, spec.path, spec.direction, baseline, fresh,
                         change, "ok")


def _as_number(value) -> Optional[float]:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return None


def compare_directories(baseline_dir, fresh_dir,
                        specs: Optional[Dict[str, Tuple[MetricSpec, ...]]]
                        = None,
                        benches: Optional[Sequence[str]] = None,
                        ) -> RegressionReport:
    """Diff every ``BENCH_<name>.json`` pair under two directories."""
    specs = DEFAULT_SPECS if specs is None else specs
    baseline_dir = pathlib.Path(baseline_dir)
    fresh_dir = pathlib.Path(fresh_dir)
    report = RegressionReport()
    for bench, bench_specs in sorted(specs.items()):
        if benches is not None and bench not in benches:
            continue
        name = f"BENCH_{bench}.json"
        baseline_path = baseline_dir / name
        fresh_path = fresh_dir / name
        if not fresh_path.exists():
            report.skipped.append(
                (bench, f"no fresh payload ({fresh_path.name} not produced)")
            )
            continue
        fresh = _load(fresh_path)
        if not baseline_path.exists():
            report.skipped.append(
                (bench, "no committed baseline — trajectory established "
                        "by this run")
            )
            continue
        baseline = _load(baseline_path)
        outcomes, skip = compare_payloads(bench, baseline, fresh,
                                          bench_specs)
        if skip is not None:
            report.skipped.append((bench, skip))
            continue
        report.outcomes.extend(outcomes)
    return report


def _load(path: pathlib.Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
