"""Scheduler internals: allocation order, reinjection clipping, batch
bookkeeping, trailing-edge identification."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mptcp.api import connect, listen
from repro.mptcp.connection import MPTCPConfig
from repro.mptcp.scheduler import Batch, Scheduler, TxIndex, TxMapping
from repro.net.packet import Endpoint

from conftest import make_multipath, random_payload


def live_connection(net, client, server, config=None):
    holder = {}
    listen(server, 80, config=config, on_accept=lambda c: holder.update(s=c))
    conn = connect(client, Endpoint("10.9.0.1", 80), config=config)
    net.run(until=1.0)
    return conn, holder["s"]


class TestAllocation:
    def test_allocations_are_contiguous_per_pull_burst(self):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        conn.send(random_payload(100_000))
        net.run(until=0.05)
        # Mappings recorded by the scheduler for the initial subflow
        # form contiguous runs (the §4.3 batching property).
        initial = conn.subflows[0]
        ranges = [
            (m.start, m.end)
            for m in conn.scheduler.inflight
            if m.subflow is initial and not m.reinjection
        ]
        for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
            assert s2 >= e1  # never overlapping, never backwards

    def test_allocation_respects_rwnd_limit(self):
        config = MPTCPConfig(rcv_buf=30_000, snd_buf=500_000)
        net, client, server = make_multipath()
        conn, server_conn = live_connection(net, client, server, config)
        # Don't read on the server: the window will pin data_nxt.
        server_conn.on_data = None
        conn.send(random_payload(200_000))
        net.run(until=5.0)
        assert conn.data_nxt <= conn.rwnd_limit() + 1448

    def test_data_nxt_monotonic(self, monkeypatch):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        seen = []

        original = Scheduler.allocate

        def watched(scheduler, subflow, max_bytes):
            if scheduler is conn.scheduler:
                seen.append(conn.data_nxt)
            return original(scheduler, subflow, max_bytes)

        monkeypatch.setattr(Scheduler, "allocate", watched)
        conn.send(random_payload(150_000))
        net.run(until=3.0)
        assert len(seen) > 100 and seen == sorted(seen)

    def test_reinjection_served_before_new_data(self):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        conn.send(random_payload(200_000))
        net.run(until=0.2)
        scheduler = conn.scheduler
        scheduler._queue_reinjection(conn.data_una, conn.data_una + 1448)
        pulled = scheduler.allocate(conn.subflows[0], 1448)
        assert pulled is not None
        payload, length, options = pulled
        mapping = scheduler.inflight[-1]
        assert mapping.reinjection
        assert mapping.start == conn.data_una

    def test_reinjection_clipped_by_data_una(self):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        conn.send(random_payload(100_000))
        net.run(until=0.1)
        scheduler = conn.scheduler
        # Queue a stale range entirely below data_una after it advances.
        scheduler._queue_reinjection(0, 10)
        net.run(until=2.0)
        assert conn.data_una > 10
        pulled = scheduler._allocate_reinjection(1448)
        assert pulled is None  # fully clipped, queue drained
        assert not scheduler.reinject_queue

    def test_duplicate_reinjection_ranges_not_queued(self):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        scheduler = conn.scheduler
        scheduler._queue_reinjection(100, 200)
        scheduler._queue_reinjection(120, 180)  # subsumed
        assert len(scheduler.reinject_queue) == 1


class TestBatches:
    def test_batch_remaining(self):
        batch = Batch(cursor=100, end=400)
        assert batch.remaining == 300
        batch.cursor = 400
        assert batch.remaining == 0

    def test_batch_capped_by_config(self):
        config = MPTCPConfig(batch_segments=2)
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server, config)
        conn.send(random_payload(200_000))
        net.run(until=0.05)
        for batch in conn.scheduler.batches.values():
            assert batch.end - batch.cursor <= 2 * 1448 + 1448

    def test_failed_subflow_batch_requeued(self):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        conn.send(random_payload(300_000))
        net.run(until=0.3)
        join = next(s for s in conn.subflows if s.kind == "join")
        had_batch = join.subflow_id in conn.scheduler.batches
        join.mark_failed("test")
        assert join.subflow_id not in conn.scheduler.batches
        if had_batch:
            assert conn.scheduler.reinject_queue or True


class TestTrailingEdge:
    def test_trailing_edge_mapping_covers_data_una(self):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        conn.send(random_payload(200_000))
        net.run(until=0.05)
        mapping = conn.scheduler._trailing_edge_mapping()
        assert mapping is not None
        assert mapping.start <= conn.data_una < mapping.end

    def test_mappings_pruned_on_data_ack(self):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        conn.send(random_payload(100_000))
        net.run(until=5.0)
        assert conn.data_una >= 100_000
        assert all(m.end > conn.data_una for m in conn.scheduler.inflight)

    def test_tx_inflight_accounting(self):
        net, client, server = make_multipath()
        conn, _ = live_connection(net, client, server)
        conn.send(random_payload(50_000))
        net.run(until=0.05)
        inflight = sum(m.end - m.start for m in conn.scheduler.inflight)
        assert 0 < inflight <= 50_000 * 2  # reinjection can double-count


# ----------------------------------------------------------------------
# TxIndex: the contract is the linear scan it replaced.
# ----------------------------------------------------------------------
def linear_covering(inflight, offset):
    """The pre-index lookup, verbatim: first mapping in ALLOCATION order
    with ``start <= offset < end``."""
    return next((m for m in inflight if m.start <= offset < m.end), None)


def linear_walk(inflight, cursor, subflow):
    """The pre-index M1 loop, verbatim (returning the cursor too)."""
    mapping = None
    while True:
        mapping = next(
            (m for m in inflight if m.start <= cursor < m.end), None
        )
        if mapping is None:
            return cursor, None
        if mapping.subflow is subflow:
            cursor = mapping.end  # skip data we carried ourselves
            continue
        break
    return cursor, mapping


class Model:
    """A TxIndex and the allocation-ordered list it replaced, driven in
    lockstep through the operations the scheduler performs."""

    MSS = 8  # small, so random ranges collide often

    def __init__(self, subflows=3):
        self.index = TxIndex()
        self.inflight = []
        self.subflows = [SimpleNamespace(name=f"sf{i}") for i in range(subflows)]
        self.batches = {}
        self.data_una = 0
        self.data_nxt = 0

    def _add(self, start, end, subflow, reinjection):
        mapping = TxMapping(start, end, subflow, reinjection)
        self.index.add(mapping)
        self.inflight.append(mapping)

    def new_data(self, who, length):
        # Batches are reserved contiguously per subflow and filled later,
        # so new-data starts interleave across subflows.
        subflow = self.subflows[who % len(self.subflows)]
        cursor, end = self.batches.get(id(subflow), (0, 0))
        if cursor >= end:
            cursor, end = self.data_nxt, self.data_nxt + 3 * self.MSS
            self.data_nxt = end
        take = min(length, end - cursor)
        self.batches[id(subflow)] = (cursor + take, end)
        if cursor + take > self.data_una:
            self._add(max(cursor, self.data_una), cursor + take, subflow, False)

    def reinject(self, who, anchor, back, length):
        # Start a little before some live mapping's end (or at data_una),
        # so reinjections straddle boundaries instead of landing anywhere.
        if self.data_nxt <= self.data_una:
            return
        ends = [m.end for m in self.inflight] or [self.data_una]
        start = max(self.data_una, min(ends[anchor % len(ends)] - back, self.data_nxt - 1))
        end = min(start + length, self.data_nxt)
        self._add(start, end, self.subflows[who % len(self.subflows)], True)

    def data_ack(self, advance):
        self.data_una = min(self.data_una + advance, self.data_nxt)
        self.index.prune(self.data_una)
        self.inflight = [m for m in self.inflight if m.end > self.data_una]

    def fail(self, who):
        subflow = self.subflows[who % len(self.subflows)]
        dropped = self.index.drop_subflow(subflow)
        assert sorted(map(id, dropped)) == sorted(
            id(m) for m in self.inflight if m.subflow is subflow
        )
        self.inflight = [m for m in self.inflight if m.subflow is not subflow]
        self.batches.pop(id(subflow), None)

    def check(self):
        assert list(self.index) == self.inflight  # allocation order
        offsets = {self.data_una}
        for m in self.inflight:
            offsets.update((m.start, m.end - 1, m.end, (m.start + m.end) // 2))
        for offset in sorted(offsets):
            assert self.index.covering(offset) is linear_covering(self.inflight, offset)
            for subflow in self.subflows:
                cursor, mapping = self.index.next_foreign(offset, subflow)
                want_cursor, want = linear_walk(self.inflight, offset, subflow)
                assert (cursor, mapping) == (want_cursor, want) and mapping is want


# Few distinct lengths, so ends and starts line up by chance.
_lengths = st.sampled_from([1, Model.MSS // 2, Model.MSS - 1, Model.MSS])
_operations = st.one_of(
    st.tuples(st.just("new_data"), st.integers(0, 2), _lengths),
    st.tuples(st.just("reinject"), st.integers(0, 2), st.integers(0, 40), st.integers(0, Model.MSS), _lengths),
    st.tuples(st.just("data_ack"), st.integers(0, 3 * Model.MSS)),
    st.tuples(st.just("fail"), st.integers(0, 2)),
)


class TestTxIndex:
    def test_start_order_is_not_allocation_order(self):
        """The original [1448, 2896) was allocated before the reinjection
        [500, 1948) that starts mid-way through its predecessor: at 1500
        both cover, the reinjection sorts first by start, and the
        original must still win."""
        a, b = SimpleNamespace(), SimpleNamespace()
        index = TxIndex()
        first = TxMapping(0, 1448, a)
        original = TxMapping(1448, 2896, a)
        reinjection = TxMapping(500, 1948, b, True)
        for mapping in (first, original, reinjection):
            index.add(mapping)
        assert list(index) == [first, original, reinjection]
        assert index[-1] is reinjection
        assert index.covering(1500) is original
        assert index.covering(1447) is first
        assert index.covering(2896) is None
        # b skips its own reinjection only where that is the earliest
        # cover — nowhere here; a walks off the end of its own data.
        assert index.next_foreign(600, b) == (600, first)
        assert index.next_foreign(600, a) == (2896, None)
        index.prune(1448)  # completes `first` only
        assert list(index) == [original, reinjection]
        assert index.covering(1448) is original
        assert index.drop_subflow(a) == [original]
        assert index.covering(1500) is reinjection
        assert index.covering(1948) is None

    def test_run_stops_where_an_earlier_mapping_covers(self):
        """A subflow's next new-data mapping starts where its run ends,
        but a reinjection allocated in between already covers that
        offset: the run must not grow over it."""
        model = Model()
        model.new_data(0, 4)  # sf0 [0, 4)
        model.new_data(0, 4)  # sf0 [4, 8): one run, ending at 8
        model.reinject(1, 1, 6, 7)  # sf1 [2, 9) covers 8 first
        model.new_data(0, 6)  # sf0 [8, 14): shadowed at its start
        model.check()
        sf0 = model.subflows[0]
        assert model.index.next_foreign(0, sf0) == (8, model.inflight[2])

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_operations, max_size=40))
    def test_matches_linear_scan(self, operations):
        model = Model()
        for name, *args in operations:
            getattr(model, name)(*args)
            model.check()

    def test_blocked_allocate_work_does_not_scale_with_table(self):
        """One rwnd-blocked allocate() whose M1 walk must clear a run of
        the requester's own mappings ~0.95 N long: the mappings it
        touches may not grow with N (the old loop rescanned the whole
        table once per own mapping: N * N)."""

        def touched(count):
            reads = [0]

            class Counting(TxMapping):
                def __getattribute__(self, name):
                    if name in ("start", "end"):
                        reads[0] += 1
                    return object.__getattribute__(self, name)

            size = 10

            def subflow(subflow_id, srtt):
                return SimpleNamespace(
                    subflow_id=subflow_id, backup=False, srtt=srtt,
                    last_penalty_at=-1e9, cc=SimpleNamespace(halve=lambda: None),
                    last_opportunistic_offset=size, last_opportunistic_edge=-1,
                    last_opportunistic_time=-1.0,
                )

            fast, slow = subflow(0, 0.01), subflow(1, 0.2)
            total = count * size
            stats = SimpleNamespace(opportunistic_retransmissions=0, penalizations=0)
            conn = SimpleNamespace(
                config=SimpleNamespace(enable_m1=True, enable_m2=True),
                sim=SimpleNamespace(now=1.0), stats=stats,
                data_una=0, data_nxt=total, data_fin_offset=None,
                rwnd_limit=lambda: total,
                send_stream=SimpleNamespace(tail=total, peek=lambda at, n: b"x" * n),
                peer_rwnd_edge=total,
                build_dss=lambda *args, **kwargs: "dss",
            )
            scheduler = Scheduler(conn)
            own = int(count * 0.95)
            for i in range(count):
                holder = fast if 1 <= i <= own else slow
                scheduler.inflight.add(Counting(i * size, (i + 1) * size, holder))
            reads[0] = 0
            payload, length, _options = scheduler.allocate(fast, size)
            assert scheduler.stats.opportunistic_retransmissions == 1
            # The walk went from the edge's end over the whole own run.
            assert scheduler.inflight[-1].start == (own + 1) * size
            return reads[0]

        small, large = touched(500), touched(4000)
        assert 0 < large < 2 * small, (small, large)
