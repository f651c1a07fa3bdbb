"""The §4.3 out-of-order queue algorithms: equivalence, costs,
shortcut hit rates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mptcp.ooo import (
    AllShortcutsQueue,
    RegularQueue,
    ShortcutsQueue,
    TreeQueue,
    make_ooo_queue,
)

ALGORITHM_NAMES = ("regular", "tree", "shortcuts", "allshortcuts")
QUEUE_CLASS = dict(
    zip(ALGORITHM_NAMES, (RegularQueue, TreeQueue, ShortcutsQueue, AllShortcutsQueue))
)


def segments_in(queue: AllShortcutsQueue) -> int:
    """Segments held by an AllShortcuts queue, summed over its batches."""
    total, node = 0, queue._list.head
    while node is not None:
        total += node.segments
        node = node.next
    return total


def batched_insert_pattern(batches=10, batch_size=8, subflows=2):
    """The workload the sender's batching creates: each subflow emits
    contiguous runs, interleaved between subflows."""
    inserts = []
    offset = 0
    for batch in range(batches):
        subflow = batch % subflows
        for segment in range(batch_size):
            inserts.append((offset, offset + 100, subflow))
            offset += 100
    return inserts


class TestFactory:
    def test_all_names_construct(self):
        for name in ALGORITHM_NAMES:
            queue = make_ooo_queue(name)
            assert queue.name == name or queue.name in name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_ooo_queue("btree")


class TestBehaviouralEquivalence:
    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=7),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_same_length_after_any_insert_sequence(self, entries):
        """All four structures index the same segments (lengths match;
        AllShortcuts merges into batches so compare segment counts)."""
        queues = {name: make_ooo_queue(name) for name in ALGORITHM_NAMES}
        inserted = 0
        seen_starts = set()
        for slot, subflow in entries:
            start = slot * 100
            if start in seen_starts:
                continue  # the connection never double-inserts a chunk
            seen_starts.add(start)
            inserted += 1
            for queue in queues.values():
                queue.insert(start, start + 100, subflow)
        assert len(queues["regular"]) == inserted
        assert len(queues["tree"]) == inserted
        assert len(queues["shortcuts"]) == inserted
        assert segments_in(queues["allshortcuts"]) == inserted

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=30))
    def test_advance_drops_consumed(self, count):
        for name in ALGORITHM_NAMES:
            queue = make_ooo_queue(name)
            for i in range(count):
                queue.insert(i * 10, i * 10 + 10, 0)
            queue.advance(count * 10)
            assert len(queue) == 0


class TestCosts:
    def test_regular_cost_linear_in_queue_length(self):
        queue = RegularQueue()
        for i in range(100):
            queue.insert(i * 10, i * 10 + 10, 0)  # appends scan the queue
        # Triangular growth: ~ n^2/2 total operations.
        assert queue.stats.ops > 4000

    def test_tree_cost_logarithmic(self):
        queue = TreeQueue()
        for i in range(100):
            queue.insert(i * 10, i * 10 + 10, 0)
        assert queue.stats.ops < 100 * 9  # ~ sum of log2(n)

    def test_shortcuts_constant_on_batched_pattern(self):
        shortcuts = ShortcutsQueue()
        regular = RegularQueue()
        for start, end, subflow in batched_insert_pattern(batches=20, batch_size=10):
            shortcuts.insert(start, end, subflow)
            regular.insert(start, end, subflow)
        # Every in-batch insert is a pointer hit; only batch boundaries
        # fall back to the linear scan (the 20% the paper discusses).
        assert shortcuts.stats.hit_rate() > 0.8
        assert shortcuts.stats.ops < regular.stats.ops / 3

    def test_allshortcuts_fallback_scans_batches_not_segments(self):
        regular = RegularQueue()
        allshort = AllShortcutsQueue()
        pattern = batched_insert_pattern(batches=30, batch_size=10, subflows=3)
        # Reverse batch order: forces misses, exercising the fallback.
        batches = [pattern[i : i + 10] for i in range(0, len(pattern), 10)]
        for batch in reversed(batches):
            for start, end, subflow in batch:
                regular.insert(start, end, subflow)
                allshort.insert(start, end, subflow)
        assert allshort.stats.ops < regular.stats.ops / 3

    def test_shortcut_miss_falls_back_correctly(self):
        queue = ShortcutsQueue()
        queue.insert(100, 200, 0)
        queue.insert(0, 100, 0)  # pointer expects 200: miss
        assert queue.stats.shortcut_misses >= 1
        assert len(queue) == 2

    def test_pointer_survives_advance(self):
        queue = ShortcutsQueue()
        queue.insert(100, 200, 0)
        queue.advance(200)  # consumes the pointed-at node
        queue.insert(300, 400, 0)  # stale pointer must not corrupt
        assert len(queue) == 1

    def test_allshortcuts_merges_adjacent_batches(self):
        queue = AllShortcutsQueue()
        queue.insert(0, 100, 0)
        queue.insert(200, 300, 1)
        assert len(queue) == 2  # two batches
        queue.insert(100, 200, 0)  # bridges them
        assert len(queue) == 1
        assert segments_in(queue) == 3

    def test_allshortcuts_partial_advance_trims_batch(self):
        queue = AllShortcutsQueue()
        queue.insert(0, 100, 0)
        queue.insert(100, 200, 0)
        queue.advance(150)
        assert len(queue) == 1

    def test_max_queue_length_tracked(self):
        queue = RegularQueue()
        for i in range(5):
            queue.insert(i * 10, i * 10 + 10, 0)
        assert queue.stats.max_queue_length == 5


class TestIntegrationWithConnection:
    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_transfer_correct_under_each_algorithm(self, algorithm):
        from repro.mptcp.connection import MPTCPConfig

        from conftest import make_multipath, mptcp_transfer, random_payload

        net, client, server = make_multipath()
        payload = random_payload(400_000)
        config = MPTCPConfig(ooo_algorithm=algorithm)
        result = mptcp_transfer(net, client, server, payload, config=config)
        assert type(result.server.ooo_index) is QUEUE_CLASS[algorithm]
        assert bytes(result.received) == payload

    def test_shortcut_hit_rate_high_in_real_transfer(self):
        """§4.3: "the shortcuts work for 80% of the received packets" —
        because the sender reserves contiguous-DSN batches.  With
        one-segment reservations the hit rate falls."""
        from repro.experiments.common import PathSpec, mptcp_variant_config, run_bulk

        paths = [
            PathSpec(rate_bps=50e6, rtt=0.010, buffer_seconds=0.03, name="l0"),
            PathSpec(rate_bps=50e6, rtt=0.014, buffer_seconds=0.03, name="l1"),
        ]

        def shortcut_stats(batch_segments):
            config = mptcp_variant_config("m12", 2 * 1024 * 1024)
            config.ooo_algorithm = "shortcuts"
            config.batch_segments = batch_segments
            return run_bulk(paths, config, 2.0, seed=9).receiver_connection.ooo_index.stats

        batched, unbatched = shortcut_stats(64), shortcut_stats(1)
        # Real reordering on both runs, so neither rate is vacuous.
        assert batched.inserts > 100 and unbatched.inserts > 100
        assert batched.hit_rate() > 0.5
        assert batched.hit_rate() > unbatched.hit_rate() + 0.1
