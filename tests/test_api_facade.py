"""The stable facade contract: equivalence, options, surface snapshot.

Three claims:

1. **Equivalence** — `Fexipro` is a pure dispatcher: for every paper
   variant, queries through the facade are bitwise-identical (ids,
   scores, counters) to the underlying `FexiproIndex` /
   `ShardedFexiproIndex` calls, and save/load round-trips preserve the
   flavour.
2. **Options** — per-call scan state rides in one `ScanOptions` bundle,
   which runs silently and replaces functionally.
3. **Surface snapshot** — `repro.api.__all__` must match the block in
   `docs/api.md` exactly; extending the public API without documenting
   it (or vice versa) fails here, not in a downstream user's upgrade.
"""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.api
from repro import (
    Fexipro,
    FexiproIndex,
    ScanOptions,
    ShardedFexiproIndex,
    ValidationError,
)
from repro.core.blocked import scan_blocked
from repro.core.variants import VARIANTS
from repro.exceptions import QueryError, ReproError

from conftest import make_mf_like

ALL_VARIANTS = sorted(VARIANTS)
K = 7

DOCS_API = Path(__file__).resolve().parent.parent / "docs" / "api.md"


def make_data():
    return make_mf_like(600, 16, seed=9)


# ----------------------------------------------------------------------
# Facade equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_facade_matches_plain_index_bitwise(variant):
    items, queries = make_data()
    direct = FexiproIndex(items, variant=variant)
    facade = Fexipro(items, variant=variant)
    for q in queries[:5]:
        a = direct.query(q, K)
        b = facade.query(q, K)
        assert a.ids == b.ids
        assert a.scores == b.scores
        assert a.stats.as_dict() == b.stats.as_dict()


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_facade_matches_sharded_index_bitwise(variant):
    # Counters are pinned only on a serial schedule; "auto" may fan out
    # to processes, whose threshold exchange timing varies run to run.
    items, queries = make_data()
    direct = ShardedFexiproIndex(items, shards=3, variant=variant,
                                 executor="serial")
    facade = Fexipro(items, variant=variant, shards=3, executor="serial")
    assert facade.sharded
    for q in queries[:5]:
        a = direct.query(q, K)
        b = facade.query(q, K)
        assert a.ids == b.ids
        assert a.scores == b.scores
        assert a.stats.as_dict() == b.stats.as_dict()


def test_facade_save_load_roundtrip_both_flavours(tmp_path):
    items, queries = make_data()
    q = queries[0]
    for shards in (None, 3):
        engine = Fexipro(items, variant="F-SIR", shards=shards)
        path = tmp_path / f"engine-{shards}.idx"
        engine.save(path)
        loaded = Fexipro.load(path)
        assert loaded.sharded == engine.sharded
        assert loaded.query(q, K).ids == engine.query(q, K).ids


def test_facade_from_index_and_validation():
    items, _ = make_data()
    index = FexiproIndex(items, variant="F-SIR")
    assert Fexipro.from_index(index).index is index
    with pytest.raises(ValidationError):
        Fexipro()  # neither items nor index
    with pytest.raises(ValidationError):
        Fexipro(items, index=index)  # both
    with pytest.raises(ValidationError):
        Fexipro(index=index, shards=2)  # options with wrap
    with pytest.raises(ValidationError):
        Fexipro(index=object())


def test_facade_serve_and_explain_delegate():
    items, queries = make_data()
    facade = Fexipro(items, variant="F-SIR")
    explanation = facade.explain(queries[0], K)
    explanation.verify()
    assert explanation.result.ids == facade.query(queries[0], K).ids
    with facade.serve() as service:
        response = service.batch(queries[:3], K)
    assert response.complete
    assert facade.n == 600 and facade.d == 16
    assert facade.variant.name == "F-SIR"


# ----------------------------------------------------------------------
# The options bundle
# ----------------------------------------------------------------------


def _prepared():
    items, queries = make_data()
    index = FexiproIndex(items, variant="F-SIR")
    return index, index._prepare_query(queries[0])


def test_options_path_does_not_warn():
    index, qs = _prepared()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index._scan(qs, K)
        index._scan(qs, K, options=ScanOptions(initial_threshold=0.0))
        scan_blocked(index, qs, K, options=ScanOptions())


def test_scan_options_replace_is_functional():
    base = ScanOptions()
    assert base.initial_threshold == -math.inf
    derived = base.replace(initial_threshold=0.5)
    assert derived.initial_threshold == 0.5
    assert base.initial_threshold == -math.inf  # frozen original


def test_query_error_is_repro_error_dataclass():
    error = QueryError(index=2, error=ValueError("bad"))
    assert isinstance(error, ReproError)
    assert error.error_type == "ValueError"
    assert error.message == "bad"
    assert error.args == ("bad",)
    assert error.as_dict() == {"index": 2, "error_type": "ValueError",
                               "message": "bad", "retried": False}
    # The error surface lives in repro.exceptions only.
    from repro.serve import resilience
    with pytest.raises(AttributeError):
        resilience.QueryError


# ----------------------------------------------------------------------
# Uniform per-call kwargs (the dual-corpus facade contract)
# ----------------------------------------------------------------------


def test_uniform_kwargs_accepted_on_every_surface():
    items, queries = make_data()
    users = queries[:10]
    facade = Fexipro(items, variant="F-SIR", users=users)
    q = queries[0]
    base = facade.query(q, K)
    # budget=inf and a roomy deadline are bitwise no-ops everywhere.
    assert facade.query(q, K, budget=math.inf).ids == base.ids
    assert facade.query(q, K, deadline=60.0).ids == base.ids
    assert facade.query(q, K, engine="gemm").ids == base.ids
    batch = facade.batch_query(queries[:3], K, budget=math.inf,
                               engine="blocked")
    for row, got in zip(queries[:3], batch):
        assert got.ids == facade.query(row, K).ids
    rev = facade.reverse_query(0, K)
    assert facade.reverse_query(0, K, budget=math.inf,
                                engine="gemm").user_ids == rev.user_ids
    camp = facade.campaign([0], K, deadline=60.0)
    assert camp.results[0].user_ids == rev.user_ids


@pytest.mark.parametrize("surface", ["query", "batch_query",
                                     "reverse_query", "campaign"])
def test_uniform_kwargs_validate_identically(surface):
    items, queries = make_data()
    facade = Fexipro(items, variant="F-SIR", users=queries[:5])
    arg = {"query": queries[0], "batch_query": queries[:2],
           "reverse_query": 0, "campaign": [0]}[surface]
    call = getattr(facade, surface)
    with pytest.raises(ValidationError, match="not both"):
        call(arg, K, budget=100.0, deadline=1.0)
    with pytest.raises(ValidationError, match="not both"):
        call(arg, K, budget=100.0,
             options=ScanOptions(budget=repro.FlopBudget(10.0)))
    with pytest.raises(ValidationError, match="one degradation trigger"):
        call(arg, K, budget=100.0,
             options=ScanOptions(deadline=repro.Deadline(60.0)))
    with pytest.raises(ValidationError, match="not both"):
        call(arg, K, deadline=60.0,
             options=ScanOptions(deadline=repro.Deadline(60.0)))
    with pytest.raises(ValidationError, match="one degradation trigger"):
        call(arg, K, deadline=60.0,
             options=ScanOptions(budget=repro.FlopBudget(10.0)))


def test_deadline_kwarg_accepts_prebuilt_deadline():
    items, queries = make_data()
    facade = Fexipro(items, variant="F-SIR")
    base = facade.query(queries[0], K)
    got = facade.query(queries[0], K, deadline=repro.Deadline(60.0))
    assert got.ids == base.ids and got.scores == base.scores


# ----------------------------------------------------------------------
# 1-D coercion symmetry on the mutation surfaces
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_add_items_accepts_single_vector(seed):
    items, _ = make_data()
    rng = np.random.default_rng(seed)
    row = rng.normal(scale=0.4, size=16)
    as_row = Fexipro(items, variant="F-SIR")
    as_matrix = Fexipro(items, variant="F-SIR")
    assert as_row.add_items(row) == as_matrix.add_items(row.reshape(1, -1))
    q = rng.normal(scale=0.4, size=16)
    assert as_row.query(q, K).ids == as_matrix.query(q, K).ids
    assert as_row.query(q, K).scores == as_matrix.query(q, K).scores
    with pytest.raises(ValidationError):
        as_row.add_items(np.zeros((2, 2, 2)))


def test_add_users_accepts_single_vector():
    items, queries = make_data()
    rng = np.random.default_rng(3)
    row = rng.normal(scale=0.4, size=16)
    as_row = Fexipro(items, variant="F-SIR", users=queries[:6])
    as_matrix = Fexipro(items, variant="F-SIR", users=queries[:6])
    assert as_row.add_users(row) == as_matrix.add_users(row.reshape(1, -1))
    assert as_row.n_users == as_matrix.n_users == 7
    a = as_row.reverse_query(0, K)
    b = as_matrix.reverse_query(0, K)
    assert a.user_ids == b.user_ids and a.kth_scores == b.kth_scores


# ----------------------------------------------------------------------
# Surface snapshot
# ----------------------------------------------------------------------


def documented_surface():
    text = DOCS_API.read_text(encoding="utf-8")
    match = re.search(
        r"<!-- api-surface: repro\.api -->\s*```\n(.*?)```",
        text, re.DOTALL,
    )
    assert match, "docs/api.md lost its api-surface block"
    return [line.strip() for line in match.group(1).splitlines()
            if line.strip()]


def test_api_surface_matches_docs():
    assert sorted(repro.api.__all__) == documented_surface(), (
        "repro.api.__all__ changed; update the api-surface block in "
        "docs/api.md to match (that's the point of this test)"
    )


def test_api_all_names_resolve_and_top_level_superset():
    for name in repro.api.__all__:
        assert getattr(repro.api, name, None) is not None
    # The top-level namespace re-exports the whole facade identically.
    for name in repro.api.__all__:
        assert getattr(repro, name) is getattr(repro.api, name)
    for name in repro.__all__:
        if name == "__version__":
            continue
        assert getattr(repro, name, None) is not None


def test_exception_hierarchy_rooted_at_repro_error():
    from repro import exceptions

    for name in ("ValidationError", "DimensionMismatchError",
                 "EmptyIndexError", "NotPreprocessedError",
                 "DeadlineExceededError", "ServiceClosedError",
                 "IndexIntegrityError", "TracingError", "QueryError",
                 "InjectedFault"):
        assert issubclass(getattr(exceptions, name), ReproError), name


def test_quickstart_snippet_from_readme_shape():
    items = np.asarray(make_data()[0])
    engine = Fexipro(items, variant="F-SIR")
    result = engine.query(items[0], k=10)
    assert len(result.ids) == 10
    assert result.scores == sorted(result.scores, reverse=True)
