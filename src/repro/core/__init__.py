"""FEXIPRO core: the paper's contribution (Sections 3–6).

Public surface:

- :class:`FexiproIndex` / :func:`topk_exact` — build and query the index.
- :data:`VARIANTS` / :func:`get_variant` — the five paper configurations.
- :class:`TopKBuffer`, :class:`PruningStats`, :class:`RetrievalResult` —
  building blocks and instrumentation.
- :func:`fit_svd`, :func:`choose_w` — the SVD transformation (Section 3).
- :class:`ScaledItems`, bound helpers — integer pruning (Section 4).
- :class:`MonotoneReduction` — monotonicity reduction (Section 5).
"""

from .above import scan_above
from .batch import batch_retrieve
from .bounds import (
    cauchy_schwarz,
    incremental_bound,
    integer_bound_relative_error,
    integer_upper_bound,
    uniform_integer_bound,
)
from .index import FexiproIndex, QueryState, prepare_query_states, topk_exact
from .options import DEFAULT_SCAN_OPTIONS, ScanOptions
from .reduction import MonotoneReduction, shift_constants
from .scaling import DEFAULT_E, ScaledItems, integer_parts, scale_uniform
from .sharded import (
    ShardedFexiproIndex,
    default_shards,
    shard_spans,
)
from .stats import (
    PruningStats,
    RetrievalResult,
    StageTimings,
    aggregate_stats,
    assemble_result,
    average_full_products,
    full_product_histogram,
)
from .svd import DEFAULT_RHO, SVDTransform, choose_w, fit_svd
from .topk import TopKBuffer
from .variants import DEFAULT_VARIANT, VARIANTS, VariantConfig, get_variant

__all__ = [
    "DEFAULT_E",
    "DEFAULT_RHO",
    "DEFAULT_SCAN_OPTIONS",
    "DEFAULT_VARIANT",
    "FexiproIndex",
    "MonotoneReduction",
    "PruningStats",
    "QueryState",
    "RetrievalResult",
    "SVDTransform",
    "ScaledItems",
    "ScanOptions",
    "ShardedFexiproIndex",
    "StageTimings",
    "TopKBuffer",
    "VARIANTS",
    "VariantConfig",
    "aggregate_stats",
    "assemble_result",
    "average_full_products",
    "batch_retrieve",
    "cauchy_schwarz",
    "choose_w",
    "default_shards",
    "fit_svd",
    "full_product_histogram",
    "get_variant",
    "incremental_bound",
    "integer_bound_relative_error",
    "integer_parts",
    "integer_upper_bound",
    "prepare_query_states",
    "scale_uniform",
    "scan_above",
    "shard_spans",
    "shift_constants",
    "topk_exact",
    "uniform_integer_bound",
]
