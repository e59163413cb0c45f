"""repro.serve — parallel, instrumented batch serving over a FEXIPRO index.

The paper's conclusion names LEMP-style batch workloads as the natural
extension of single-query FEXIPRO; this package is that extension's serving
layer:

- :class:`RetrievalService` — answers query batches one query after
  another in this process, or in chunks on worker processes, with
  per-query latency capture and pruning-counter rollups.  Every query
  gets one single scan; over a
  :class:`~repro.core.sharded.ShardedFexiproIndex` the service scans
  the inner index;
- :class:`ServiceConfig` — worker/chunking/instrumentation/resilience
  tunables (chunking splits only worker-process tasks);
- :class:`MetricsRegistry`, :class:`Counter`, :class:`Histogram` — a
  dependency-free metrics substrate the engines feed;
- :class:`ProcessScanPool` (PR 6) — a multi-process executor that runs
  scans on real cores over a shared-memory (mmap) replica of the index,
  selected via ``ServiceConfig.executor`` (``"auto"`` sends it only
  multi-query batches of blocked scans; results stay bitwise identical),
  with :func:`resolve_chunk_size` sizing its chunk tasks;
- a failure model (PR 3): per-query :class:`Deadline` budgets with
  exact-prefix degradation, per-query fault isolation surfacing
  :class:`QueryError` entries (with a bounded :class:`RetryPolicy`), and
  a deterministic :class:`FaultInjector` for chaos testing;
- :class:`QueryCache` (PR 4) — an exactness-preserving LRU result cache
  with snapshot-bound invalidation, one entry per query, whose longest
  cached answer serves every smaller ``k`` as a prefix (see
  :mod:`repro.serve.cache` for the exactness argument).

Exactness is inherited, not re-proven: the service prepares every query
with :func:`repro.core.index.prepare_query_states` — the same single
implementation behind :meth:`FexiproIndex.query` — so a pooled batch
returns bit-identical ids, scores and pruning counters to a serial loop.

Quickstart::

    from repro import FexiproIndex
    from repro.serve import RetrievalService, ServiceConfig

    index = FexiproIndex(items, variant="F-SIR")
    with RetrievalService(index, ServiceConfig(workers=4)) as service:
        response = service.batch(queries, k=10)
        print(response.throughput, response.stats.full_products)
        print(service.metrics_snapshot())
"""

from .cache import CacheEntry, CacheLookup, QueryCache
from .compactor import Compactor
from .config import ServiceConfig, default_workers
from .faults import FaultInjector, FaultRule
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from .resilience import Deadline, RetryPolicy, is_transient
from ..exceptions import QueryError
from .procpool import (
    ProcessScanPool,
    process_executor_usable,
    resolve_chunk_size,
    resolve_start_method,
)
from .service import BatchResponse, RetrievalService

__all__ = [
    "BatchResponse",
    "CacheEntry",
    "CacheLookup",
    "Compactor",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Deadline",
    "FaultInjector",
    "FaultRule",
    "Histogram",
    "MetricsRegistry",
    "ProcessScanPool",
    "QueryCache",
    "QueryError",
    "RetrievalService",
    "RetryPolicy",
    "ServiceConfig",
    "default_workers",
    "is_transient",
    "process_executor_usable",
    "resolve_chunk_size",
    "resolve_start_method",
]
