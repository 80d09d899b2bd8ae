"""Nearest-neighbor index tests: the blocked exact search against a
linear-scan oracle, ties, self-exclusion, the neighbor-id table and input
checks.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnre import retrieval


def _linear_scan(space, q, n_c, exclude_id=None):
    dist = np.sum((space - q) ** 2, axis=1)
    order = np.lexsort((np.arange(space.shape[0]), dist))
    return [int(i) for i in order if exclude_id is None or int(i) != exclude_id][:n_c]


def test_three_point_example():
    space = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    index = retrieval.build_index(space)
    ids = retrieval.query(index, np.array([0.9, 0.0]), 1)
    assert ids == [1]


def test_exact_matches_linear_scan():
    rng = np.random.default_rng(0)
    space = rng.normal(size=(300, 8))
    index = retrieval.build_index(space)
    for _ in range(1000):
        q = rng.normal(size=8)
        excl = int(rng.integers(300)) if rng.random() < 0.5 else None
        ids = retrieval.query(index, q, 10, exclude_id=excl)
        assert ids == _linear_scan(space, q, 10, exclude_id=excl)


def test_exact_ties_break_by_index():
    space = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    index = retrieval.build_index(space)
    ids = retrieval.query(index, np.zeros(2), 3)
    assert ids == [0, 1, 2]


def test_self_exclusion():
    rng = np.random.default_rng(2)
    space = rng.normal(size=(50, 4))
    index = retrieval.build_index(space)
    for i in (0, 17, 49):
        ids = retrieval.query(index, space[i], 5, exclude_id=i)
        assert i not in ids
        assert len(ids) == 5


def test_neighbor_count_monotone_in_n_c():
    rng = np.random.default_rng(3)
    space = rng.normal(size=(40, 3))
    index = retrieval.build_index(space)
    q = rng.normal(size=3)
    prev = []
    for n_c in (1, 3, 7, 15):
        ids = retrieval.query(index, q, n_c)
        assert len(ids) == n_c
        assert ids[:len(prev)] == prev  # extending n_c only appends
        prev = ids


def test_fewer_rows_than_n_c():
    space = np.eye(3)
    index = retrieval.build_index(space)
    ids = retrieval.query(index, np.zeros(3), 10)
    assert sorted(ids) == [0, 1, 2]


def test_index_snapshot_is_frozen():
    for dtype in (np.float64, np.float32):
        space = np.eye(2, dtype=dtype)
        index = retrieval.build_index(space)
        assert index.space.dtype == np.float64
        space[0, 0] = 99.0  # mutating the source must not affect the index
        ids = retrieval.query(index, np.array([1.0, 0.0]), 1)
        assert ids == [0]


def test_validation_errors():
    with pytest.raises(ValueError):
        retrieval.build_index(np.ones(3))
    index = retrieval.build_index(np.ones((2, 2)))
    with pytest.raises(ValueError):
        retrieval.query(index, np.ones(2), 0)
    with pytest.raises(ValueError):
        retrieval.query(index, np.ones(3), 1)
    with pytest.raises(ValueError):
        retrieval.neighbors(index, [0], 0)
    index = retrieval.build_index(np.random.default_rng(9).normal(size=(6, 3)))
    for bad in ([-1], [6], [0, 6]):
        with pytest.raises(IndexError, match=r"item index out of range \[0, 6\)"):
            retrieval.neighbors(index, bad, 3)
    for bad in ([1.7, 2.2], [1.0], np.zeros(2), [True, False]):
        with pytest.raises(ValueError, match="integer ids"):
            retrieval.neighbors(index, bad, 3)
    assert index._neighbors == {}  # nothing searched, nothing memoized
    for bad in (np.nan, np.inf, -np.inf):
        q = np.zeros(3)
        q[1] = bad
        with pytest.raises(ValueError, match="finite"):
            retrieval.query(index, q, 2)
    for bad in (True, np.True_, 1.0, "1"):
        with pytest.raises(ValueError, match="integer id"):
            retrieval.query(index, np.zeros(3), 2, exclude_id=bad)
    for bad in (-1, 6, 99, np.int64(6)):
        with pytest.raises(IndexError, match=r"exclude_id out of range \[0, 6\)"):
            retrieval.query(index, np.zeros(3), 2, exclude_id=bad)
    for bad in (np.nan, np.inf, -np.inf):
        space = np.random.default_rng(7).normal(size=(50, 4))
        space[7, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            retrieval.build_index(space)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_rows=st.integers(1, 24), width=st.integers(1, 2),
       n_c=st.integers(1, 26))
def test_exact_matches_linear_scan_with_ties(data, n_rows, width, n_c):
    """Small integer spaces make equal distances common; the order must still match."""
    cells = st.integers(-1, 1)
    space = np.array(data.draw(st.lists(st.lists(cells, min_size=width, max_size=width),
                                        min_size=n_rows, max_size=n_rows)), dtype=float)
    q = np.array(data.draw(st.lists(cells, min_size=width, max_size=width)), dtype=float)
    excl = data.draw(st.none() | st.integers(0, n_rows - 1))
    index = retrieval.build_index(space)
    assert retrieval.query(index, q, n_c, exclude_id=excl) == _linear_scan(
        space, q, n_c, exclude_id=excl)


def test_neighbors_are_self_excluded_queries_of_index_rows():
    rng = np.random.default_rng(6)
    space = rng.normal(size=(30, 4))
    items = [3, 0, 3, 29]
    index = retrieval.build_index(space)
    want = [retrieval.query(index, space[i], 5, exclude_id=i) for i in items]
    with mock.patch.object(retrieval, "_nearest", wraps=retrieval._nearest) as search:
        got = retrieval.neighbors(index, np.array(items), 5)
        again = retrieval.neighbors(index, [29, 3], 5)
    assert got.dtype == np.int64 and got.tolist() == want
    assert again.tolist() == [want[3], want[0]]
    # the first call searches every row of the index once, each excluding itself;
    # the second call's items are answered from the table
    (call,) = search.call_args_list
    np.testing.assert_array_equal(call.args[1], space)
    assert call.args[2] == 5 and call.args[3].tolist() == list(range(30))
    single = retrieval.build_index(np.array([[1.0, 2.0]]))
    assert retrieval.neighbors(single, [0], 3).shape == (1, 0)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_rows=st.integers(1, 12), width=st.integers(1, 2))
def test_neighbor_table_searches_each_item_once_per_n_c(data, n_rows, width):
    """Overlapping, repeated batches at several n_c, one of them >= N, on spaces with
    duplicate rows: each row is the self-excluded query, and each n_c asked is
    searched in one call over every row, so each (item, n_c) is searched once."""
    cells = st.integers(-1, 1)
    distinct = data.draw(st.lists(st.lists(cells, min_size=width, max_size=width),
                                  min_size=1, max_size=n_rows))
    picks = data.draw(st.lists(st.sampled_from(distinct), min_size=n_rows, max_size=n_rows))
    space = np.array(picks, dtype=float)
    n_cs = data.draw(st.lists(st.integers(1, n_rows + 2), min_size=1, max_size=3)) + [n_rows]
    batch = st.lists(st.integers(0, n_rows - 1), max_size=2 * n_rows)
    batches = data.draw(st.lists(st.tuples(st.sampled_from(n_cs), batch), max_size=8))
    index, fresh = retrieval.build_index(space), retrieval.build_index(space)
    with mock.patch.object(retrieval, "_nearest", wraps=retrieval._nearest) as search:
        for n_c, items in batches:
            got = retrieval.neighbors(index, items, n_c)
            assert got.dtype == np.int64 and got.shape == (len(items), min(n_c, n_rows - 1))
            assert got.tolist() == [retrieval.query(fresh, space[i], n_c, exclude_id=i)
                                    for i in items]
    calls = [c.args for c in search.call_args_list if c.args[0] is index]
    assert sorted(n_c for _, _, n_c, _ in calls) == sorted({n_c for n_c, _ in batches})
    for _, queries, _, exclude in calls:
        np.testing.assert_array_equal(queries, space)
        assert exclude.tolist() == list(range(n_rows))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_rows=st.integers(1, 30), width=st.integers(1, 4),
       offset=st.sampled_from([0.0, 1e6, 3.7e7, 1e8]), scale=st.sampled_from([1e-3, 1.0, 1e5]),
       block=st.sampled_from([1, 5, 64, retrieval._BLOCK]))
def test_blocked_search_matches_linear_scan_on_adversarial_spaces(
        data, n_rows, width, offset, scale, block):
    """Spaces where the Gram-matrix distances round worst: a large common offset
    over unit gaps, duplicate rows and +-1 integer ties; n_c up to past N, one
    row, and blocks (and re-rank chunks) of a few rows. Every id must be the
    exact scan's, ties included, for neighbors and for query with and without
    an excluded id."""
    cells = st.integers(-1, 1)
    distinct = data.draw(st.lists(st.lists(cells, min_size=width, max_size=width),
                                  min_size=1, max_size=n_rows))
    picks = data.draw(st.lists(st.sampled_from(distinct), min_size=n_rows, max_size=n_rows))
    space = offset + scale * np.array(picks, dtype=float)
    q = offset + scale * np.array(data.draw(st.lists(cells, min_size=width, max_size=width)),
                                  dtype=float)
    n_c = data.draw(st.integers(1, n_rows + 2))
    excl = data.draw(st.integers(0, n_rows - 1))
    index = retrieval.build_index(space)
    with mock.patch.object(retrieval, "_BLOCK", block):
        got = retrieval.neighbors(index, range(n_rows), n_c)
        assert got.tolist() == [_linear_scan(space, space[i], n_c, exclude_id=i)
                                for i in range(n_rows)]
        for exclude_id in (None, excl):
            assert retrieval.query(index, q, n_c, exclude_id=exclude_id) == _linear_scan(
                space, q, n_c, exclude_id=exclude_id)
