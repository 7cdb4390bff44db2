"""Unit tests for repro.utils.pairs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.pairs import (
    PAIR_POSITION_SHIFT,
    canonical_pair,
    decode_position_pairs,
    pair_array,
    pair_set,
)

INT64 = np.iinfo(np.int64)


class TestCanonicalPair:
    def test_orders_ascending(self):
        assert canonical_pair(5, 2) == (2, 5)

    def test_keeps_sorted_input(self):
        assert canonical_pair(2, 5) == (2, 5)

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError, match="self-pair"):
            canonical_pair(3, 3)

    def test_negative_ids_order(self):
        assert canonical_pair(0, -1) == (-1, 0)


class TestPairSet:
    def test_deduplicates_orientations(self):
        assert pair_set([(1, 2), (2, 1), (3, 1)]) == {(1, 2), (1, 3)}

    def test_empty(self):
        assert pair_set([]) == set()


class TestPairArray:
    def test_shape_and_canonical_order(self):
        arr = pair_array([(4, 1), (2, 3)])
        assert arr.shape == (2, 2)
        assert arr.tolist() == [[1, 4], [2, 3]]

    def test_preserves_iteration_order(self):
        arr = pair_array([(9, 8), (1, 2), (7, 3)])
        assert arr.tolist() == [[8, 9], [1, 2], [3, 7]]

    def test_empty_has_two_columns(self):
        arr = pair_array([])
        assert arr.shape == (0, 2)
        assert arr.dtype == np.int64


class TestPositionKeys:
    @given(
        st.lists(
            st.one_of(
                st.integers(INT64.min, INT64.max),
                st.sampled_from(
                    [INT64.min, INT64.min + 1, -PAIR_POSITION_SHIFT - 1,
                     -PAIR_POSITION_SHIFT, -1, 0, PAIR_POSITION_SHIFT - 1,
                     PAIR_POSITION_SHIFT, INT64.max - 1, INT64.max]
                ),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_decode_equals_divmod_over_all_int64(self, keys):
        """Shift-and-mask decoding is bitwise ``np.divmod`` by the shift,
        negative keys included."""
        keys = np.asarray(keys, dtype=np.int64)
        rows, cols = decode_position_pairs(keys)
        want_rows, want_cols = np.divmod(keys, PAIR_POSITION_SHIFT)
        assert rows.dtype == cols.dtype == np.int64
        assert rows.tobytes() == want_rows.tobytes()
        assert cols.tobytes() == want_cols.tobytes()
