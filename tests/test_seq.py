"""Modular sequence arithmetic: unit and property-based tests."""

from hypothesis import given
from hypothesis import strategies as st

from repro.tcp.seq import (
    SEQ_MOD,
    seq_add,
    seq_diff,
    seq_ge,
    seq_gt,
    seq_le,
    seq_lt,
)

seq32 = st.integers(min_value=0, max_value=SEQ_MOD - 1)
small_delta = st.integers(min_value=-(1 << 30), max_value=(1 << 30))


class TestBasics:
    def test_add_wraps(self):
        assert seq_add(SEQ_MOD - 1, 1) == 0
        assert seq_add(0, -1) == SEQ_MOD - 1

    def test_diff_simple(self):
        assert seq_diff(10, 3) == 7
        assert seq_diff(3, 10) == -7

    def test_diff_across_wrap(self):
        assert seq_diff(5, SEQ_MOD - 5) == 10
        assert seq_diff(SEQ_MOD - 5, 5) == -10

    def test_comparisons_across_wrap(self):
        high = SEQ_MOD - 100
        low = 50
        assert seq_lt(high, low)  # low is "after" high across the wrap
        assert seq_gt(low, high)
        assert seq_le(high, high)
        assert seq_ge(low, low)

    def test_window_across_wrap(self):
        # low <= value < high, the window check the socket makes with
        # seq_le / seq_lt, holds across the wrap.
        low, high = SEQ_MOD - 5, 10
        assert seq_le(low, 2) and seq_lt(2, high)
        assert seq_le(low, low) and not seq_lt(high, high)
        assert not (seq_le(low, 20) and seq_lt(20, high))


class TestProperties:
    @given(seq32, small_delta)
    def test_diff_inverts_add(self, seq, delta):
        assert seq_diff(seq_add(seq, delta), seq) == delta

    @given(seq32, seq32)
    def test_diff_antisymmetric(self, a, b):
        d = seq_diff(a, b)
        if d != -(1 << 31):  # the one asymmetric point of the space
            assert seq_diff(b, a) == -d

    @given(seq32, seq32)
    def test_exactly_one_strict_order_or_equal(self, a, b):
        if a == b:
            assert seq_le(a, b) and seq_ge(a, b)
        else:
            d = seq_diff(a, b)
            if d != -(1 << 31):
                assert seq_lt(a, b) != seq_gt(a, b)

    @given(seq32, st.integers(min_value=0, max_value=1 << 20))
    def test_add_preserves_window_order(self, base, offset):
        assert seq_le(base, seq_add(base, offset))
        assert seq_diff(seq_add(base, offset), base) == offset

    @given(seq32)
    def test_add_zero_identity(self, seq):
        assert seq_add(seq, 0) == seq

    @given(seq32, small_delta, small_delta)
    def test_add_associative_mod(self, seq, d1, d2):
        assert seq_add(seq_add(seq, d1), d2) == seq_add(seq, d1 + d2)
