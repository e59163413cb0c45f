"""Unit tests for the top-k buffer."""

import math

import pytest

from repro.core.topk import TopKBuffer


def test_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        TopKBuffer(0)
    with pytest.raises(ValueError):
        TopKBuffer(-3)


def test_threshold_is_minus_inf_until_full():
    buf = TopKBuffer(3)
    assert buf.threshold == -math.inf
    buf.push(1.0, 0)
    buf.push(2.0, 1)
    assert buf.threshold == -math.inf
    assert not buf.full
    buf.push(0.5, 2)
    assert buf.full
    assert buf.threshold == 0.5


def test_threshold_tracks_kth_largest():
    buf = TopKBuffer(2)
    for i, score in enumerate([5.0, 1.0, 3.0, 4.0, 2.0]):
        buf.push(score, i)
    assert buf.threshold == 4.0
    ids, scores = buf.items_and_scores()
    assert scores == [5.0, 4.0]
    assert ids == [0, 3]


def test_push_returns_admission():
    buf = TopKBuffer(1)
    assert buf.push(1.0, 0)
    assert not buf.push(0.5, 1)
    assert buf.push(2.0, 2)


def test_kth_item_tracks_smallest_slot():
    buf = TopKBuffer(2)
    buf.push(3.0, 7)
    buf.push(9.0, 4)
    assert buf.kth_item == 7
    buf.push(5.0, 2)  # evicts score 3.0
    assert buf.kth_item == 2


def test_tie_at_kth_slot_keeps_lowest_positions():
    # Items a, a, c with q.c > q.a: the k best under (score desc, position
    # asc) are [c, a0], so top-2 is a prefix of top-3.  The old rule
    # (evict the smallest (score, position)) kept [c, a1] here.
    for k, want in ((1, [2]), (2, [2, 0]), (3, [2, 0, 1])):
        buf = TopKBuffer(k)
        for score, item in ((1.0, 0), (1.0, 1), (3.0, 2)):
            buf.push(score, item)
        assert buf.items_and_scores()[0] == want


def test_tied_push_admitted_only_when_ahead_of_worst():
    buf = TopKBuffer(2)
    buf.push(1.0, 4)
    buf.push(1.0, 6)
    assert buf.kth_item == 6  # the worst tie is the latest position
    assert not buf.push(1.0, 9)  # trails every tie held
    assert buf.push(1.0, 5)  # ahead of position 6
    assert buf.items_and_scores() == ([4, 5], [1.0, 1.0])
    assert buf.kth_item == 5


def test_kth_item_on_empty_raises():
    with pytest.raises(IndexError):
        TopKBuffer(2).kth_item


def test_results_sorted_descending_with_id_tiebreak():
    buf = TopKBuffer(4)
    buf.push(1.0, 9)
    buf.push(1.0, 3)
    buf.push(2.0, 5)
    ids, scores = buf.items_and_scores()
    assert scores == [2.0, 1.0, 1.0]
    assert ids == [5, 3, 9]  # equal scores ordered by id


def test_len_and_iter():
    buf = TopKBuffer(3)
    buf.push(1.0, 0)
    buf.push(2.0, 1)
    assert len(buf) == 2
    assert sorted(score for score, __ in buf) == [1.0, 2.0]


def test_negative_scores_supported():
    buf = TopKBuffer(2)
    for i, score in enumerate([-5.0, -1.0, -3.0]):
        buf.push(score, i)
    __, scores = buf.items_and_scores()
    assert scores == [-1.0, -3.0]


def test_merge_equals_sequential_pushes():
    pairs = [(3.0, 0), (1.0, 1), (4.0, 2), (1.5, 3), (9.0, 4), (2.6, 5)]
    sequential = TopKBuffer(3)
    for score, item in pairs:
        sequential.push(score, item)
    left, right = TopKBuffer(3), TopKBuffer(3)
    for score, item in pairs[:3]:
        left.push(score, item)
    for score, item in pairs[3:]:
        right.push(score, item)
    assert left.merge(right) is left
    assert left.items_and_scores() == sequential.items_and_scores()
    assert left.threshold == sequential.threshold


def test_merge_with_duplicate_scores_keeps_lowest_positions():
    # All scores tie, so the k best are the k lowest positions — for the
    # sequential scan and for split scans merged in either order.
    sequential = TopKBuffer(2)
    for item in range(5):
        sequential.push(1.0, item)
    assert sequential.items_and_scores() == ([0, 1], [1.0, 1.0])
    for first, second in (((0, 1), (2, 3, 4)), ((2, 3, 4), (0, 1))):
        left, right = TopKBuffer(2), TopKBuffer(2)
        for item in first:
            left.push(1.0, item)
        for item in second:
            right.push(1.0, item)
        left.merge(right)
        assert left.items_and_scores() == sequential.items_and_scores()
        assert left.kth_item == 1


def test_merge_empty_and_partial_buffers():
    empty, partial = TopKBuffer(3), TopKBuffer(3)
    partial.push(2.0, 7)
    assert empty.merge(partial).items_and_scores() == ([7], [2.0])
    assert partial.merge(TopKBuffer(3)).items_and_scores() == ([7], [2.0])
