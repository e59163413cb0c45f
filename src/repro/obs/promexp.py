"""Prometheus text-format exposition for the serving metrics.

A pure renderer: takes the JSON-ready dict produced by
:meth:`repro.serve.metrics.MetricsRegistry.snapshot` (or the richer
:meth:`repro.serve.service.RetrievalService.metrics_snapshot`, which adds
``workers`` / ``shards`` / ``cache`` / ``tracer`` sections)
and emits `text exposition format 0.0.4
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ — no
imports from :mod:`repro.serve`, no sockets, trivially testable.

Mapping rules:

- counter ``pruning.full_products`` → ``repro_pruning_full_products_total``
- counter ``planner.decisions.gemm`` → the labeled family
  ``repro_planner_decisions_total{engine="gemm"}`` (per-engine planner
  decisions roll up under one metric name, the conventional shape for
  a label-partitioned counter)
- gauge ``planner.mispredict_ratio`` → ``repro_planner_mispredict_ratio``
- histogram ``latency.scan_seconds`` → ``repro_latency_scan_seconds_bucket``
  (cumulative, with the mandatory ``+Inf`` bucket), ``..._sum``,
  ``..._count``
- stage times → ``repro_stage_seconds_total{stage="integer"}``
- deployment-shape sections → gauges (``repro_workers{kind="resolved"}``
  counts the worker processes the resolved executor starts, 1 when
  serving in-process;
  ``repro_shards``, and a generic numeric spill of the cache/tracer
  sections).
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Optional

__all__ = ["render_prometheus"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(namespace: str, raw: str, suffix: str = "") -> str:
    """Sanitize a registry name into a legal Prometheus metric name."""
    name = _NAME_RE.sub("_", f"{namespace}_{raw}")
    if name[0].isdigit():  # pragma: no cover - registry names never do
        name = "_" + name
    return name + suffix


def _format_value(value: Any) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):  # pragma: no cover - registry never emits NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _render_histogram(lines: List[str], name: str,
                      snapshot: Dict[str, Any]) -> None:
    lines.append(f"# TYPE {name} histogram")
    buckets = snapshot.get("buckets", {})
    bounds = sorted(
        float(key[3:]) for key in buckets if key.startswith("le_")
    )
    cumulative = 0
    for bound in bounds:
        cumulative += int(buckets[f"le_{bound:g}"])
        lines.append(
            f'{name}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
        )
    lines.append(f'{name}_bucket{{le="+Inf"}} {int(snapshot["count"])}')
    lines.append(f'{name}_sum {_format_value(snapshot["sum"])}')
    lines.append(f'{name}_count {int(snapshot["count"])}')


def _spill_numeric(lines: List[str], namespace: str, prefix: str,
                   section: Optional[Dict[str, Any]]) -> None:
    """Emit every numeric entry of a snapshot section as a gauge."""
    if not section:
        return
    for key, value in sorted(section.items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        name = _metric_name(namespace, f"{prefix}_{key}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(value)}")


#: Counter-name prefixes whose trailing segment becomes a label value
#: (``planner.decisions.gemm`` → ``..._total{engine="gemm"}``).
_LABELED_COUNTERS = {"planner.decisions.": ("planner_decisions", "engine")}


def render_prometheus(snapshot: Dict[str, Any],
                      namespace: str = "repro") -> str:
    """Render a metrics snapshot dict as Prometheus exposition text."""
    lines: List[str] = []

    labeled: Dict[str, List[str]] = {}
    for raw, value in sorted(snapshot.get("counters", {}).items()):
        for prefix, (family, label) in _LABELED_COUNTERS.items():
            if raw.startswith(prefix) and raw != prefix:
                name = f"{namespace}_{family}_total"
                labeled.setdefault(name, []).append(
                    f'{name}{{{label}="{raw[len(prefix):]}"}} '
                    f"{_format_value(value)}"
                )
                break
        else:
            name = _metric_name(namespace, raw, "_total")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_format_value(value)}")
    for name, family_lines in sorted(labeled.items()):
        lines.append(f"# TYPE {name} counter")
        lines.extend(family_lines)

    for raw, value in sorted(snapshot.get("gauges", {}).items()):
        name = _metric_name(namespace, raw)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(value)}")

    for raw, hist in sorted(snapshot.get("histograms", {}).items()):
        _render_histogram(lines, _metric_name(namespace, raw), hist)

    stage_seconds = snapshot.get("stage_seconds") or {}
    if stage_seconds:
        name = f"{namespace}_stage_seconds_total"
        lines.append(f"# TYPE {name} counter")
        for stage, seconds in sorted(stage_seconds.items()):
            lines.append(
                f'{name}{{stage="{stage}"}} {_format_value(seconds)}'
            )

    workers = snapshot.get("workers")
    if workers:
        name = f"{namespace}_workers"
        lines.append(f"# TYPE {name} gauge")
        for kind in ("requested", "resolved"):
            if kind in workers:
                lines.append(
                    f'{name}{{kind="{kind}"}} '
                    f"{_format_value(workers[kind])}"
                )
        if "host_cores" in workers:
            lines.append(f"# TYPE {namespace}_host_cores gauge")
            lines.append(
                f"{namespace}_host_cores "
                f"{_format_value(workers['host_cores'])}"
            )

    shards = snapshot.get("shards")
    if shards is not None:
        lines.append(f"# TYPE {namespace}_shards gauge")
        lines.append(f"{namespace}_shards {_format_value(shards)}")

    _spill_numeric(lines, namespace, "cache", snapshot.get("cache"))
    _spill_numeric(lines, namespace, "tracer", snapshot.get("tracer"))

    return "\n".join(lines) + "\n"
