"""Connection-footprint tripwire: what one MPTCP endpoint keeps alive.

Deterministic by construction — it counts objects, never bytes or
seconds.  Memory per endpoint is what every connection-churn run
multiplies (Fig. 11's apachebench, the scale study), so the three
endpoint classes are slotted, a connection's subflows share one
``TCPConfig``, and nothing pins a closed connection (ARCHITECTURE.md,
"Connection footprint").  These tests fail when a change quietly gives
that back.

Under ``REPRO_ORACLE=1`` the invariant oracle shadows ``read`` on every
endpoint it pairs; it is the one sanctioned user of an instance
``__dict__``, and the tests then assert that nothing else is.
"""

from __future__ import annotations

import ast
import dataclasses
import enum
import gc
import inspect
import textwrap
import weakref
from collections import deque

import pytest

from repro.apps.http import HTTPLoadGenerator, HTTPServerApp
from repro.mptcp.api import connect as mptcp_connect
from repro.mptcp.api import listen as mptcp_listen
from repro.mptcp.connection import MPTCPConfig, MPTCPConnection, MPTCPStats
from repro.mptcp.coupled import CoupledGroup, LIAController
from repro.mptcp.ooo import (
    AllShortcutsQueue,
    OOOQueue,
    OOOStats,
    RegularQueue,
    ShortcutsQueue,
    TreeQueue,
    _LinkedList,
)
from repro.mptcp.scheduler import Batch, Scheduler, SchedulerStats, TxIndex, TxMapping
from repro.mptcp.subflow import RxMapping, Subflow
from repro.net.packet import Endpoint
from repro.tcp.buffer import ByteStream, ReassemblyQueue
from repro.tcp.cc import NewReno
from repro.tcp.rtt import RTTEstimator
from repro.tcp.socket import SocketStats, TCPConfig, TCPSocket
from repro.tcp.state import TCPState

from conftest import ORACLE_ENABLED, make_multipath

# GC-tracked objects one closed MPTCP endpoint (a connection, its two
# subflows and everything only they reach) may keep alive.  141 before
# the diet, 90 before the helper objects were slotted; set to what the
# tree achieves (67.1), rounded up.  Lower it
# when the count falls — never raise it to make a change pass.
TRACKED_PER_ENDPOINT_BUDGET = 68

CONNECTIONS = 200
REQUEST = b"GET /4k HTTP/1.0\r\n\r\n"
RESPONSE = bytes(range(256)) * 16

ENDPOINT_CLASSES = (TCPSocket, Subflow, MPTCPConnection)
# What an endpoint owns besides itself; none of these has an instance
# ``__dict__`` at all (no escape slot).
HELPER_CLASSES = (
    ByteStream, ReassemblyQueue, RTTEstimator, NewReno, SocketStats,
    TCPConfig, LIAController, CoupledGroup, Scheduler, TxIndex, TxMapping, SchedulerStats, Batch,
    OOOStats, OOOQueue, _LinkedList, RegularQueue, TreeQueue, ShortcutsQueue, AllShortcutsQueue,
    MPTCPStats, RxMapping,
)
ESCAPE_SLOTS = {"__dict__", "__weakref__"}
# Reached from a connection but not owned by it: the configuration the
# application passed in.
SHARED_CLASSES = (MPTCPConfig,)


# ----------------------------------------------------------------------
# Introspection helpers
# ----------------------------------------------------------------------
def _declared_slots(cls) -> set[str]:
    return {
        name for base in cls.__mro__ for name in base.__dict__.get("__slots__", ())
    } - ESCAPE_SLOTS


def _materialised_dict(obj):
    """The ``__dict__`` object of ``obj`` if one exists, else None —
    found through the collector's view of the instance, because reading
    ``obj.__dict__`` would create the very thing being looked for."""
    slot_values = {id(getattr(obj, name, None)) for name in _declared_slots(type(obj))}
    for referent in gc.get_referents(obj):
        if type(referent) is dict and id(referent) not in slot_values:
            return referent
    return None


def _helpers_of(endpoint) -> list:
    """Every ``repro.tcp`` / ``repro.mptcp`` object ``endpoint`` reaches
    through such objects and plain containers, walked with the
    collector's referents (which never materialise a dict).  Shared
    state, enum members and endpoints are not helpers; the walk goes
    through endpoints but stops at shared state."""
    seen = {id(endpoint)}
    stack = [endpoint]
    helpers = []
    while stack:
        for referent in gc.get_referents(stack.pop()):
            cls = type(referent)
            if id(referent) in seen or isinstance(referent, SHARED_CLASSES + (enum.Enum,)):
                continue
            seen.add(id(referent))
            if cls in (list, tuple, dict, set, deque):
                stack.append(referent)
            elif cls.__module__.startswith(("repro.tcp.", "repro.mptcp.")):
                stack.append(referent)
                if not isinstance(referent, ENDPOINT_CLASSES):
                    helpers.append(referent)
    return helpers


def _self_stores(function) -> set[str]:
    """Names ``function`` assigns as ``self.<name> = ...``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


# ----------------------------------------------------------------------
# The workload: short request/response connections, callbacks shared so
# that what is counted is the stack, not per-connection app closures.
# ----------------------------------------------------------------------
def _client_established(conn) -> None:
    conn.send(REQUEST)
    conn.close()  # half-close: the request is all we have to say


def _drain(conn) -> None:
    conn.read()


def _serve(conn) -> None:
    if conn.read():
        conn.send(RESPONSE)
        conn.close()


def _run_short_connections(count: int = CONNECTIONS):
    """``count`` closed two-subflow request/response exchanges.  Returns
    (net, both sides' connections, GC-tracked objects the run added)."""
    net, client, server = make_multipath(
        seed=7,
        paths=[
            dict(rate_bps=40e6, delay=0.002),
            dict(rate_bps=40e6, delay=0.003),
        ],
    )
    server_side: list[MPTCPConnection] = []

    def on_accept(conn) -> None:
        server_side.append(conn)
        conn.on_data = _serve

    config = MPTCPConfig(checksum=False)
    mptcp_listen(server, 80, config=config, on_accept=on_accept)
    client_side: list[MPTCPConnection] = []

    def launch() -> None:
        conn = mptcp_connect(client, Endpoint(server.primary_address, 80), config=config)
        conn.on_established = _client_established
        conn.on_data = _drain
        client_side.append(conn)

    gc.collect()
    before = len(gc.get_objects())
    for index in range(count):
        net.sim.schedule(0.005 * index, launch)
    net.run(until=0.005 * count + 5.0)
    gc.collect()
    added = len(gc.get_objects()) - before
    return net, client_side + server_side, added


@pytest.fixture(scope="module")
def short_connections():
    net, connections, added = _run_short_connections()
    assert len(connections) == 2 * CONNECTIONS
    for conn in connections:
        assert conn.closed and not conn.fallback
        assert len(conn.subflows) == 2
        assert all(s.state is TCPState.CLOSED for s in conn.subflows)
    return net, connections, added


# ----------------------------------------------------------------------
# The tripwire
# ----------------------------------------------------------------------
class TestFootprintTripwire:
    def test_detector_sees_a_materialised_dict(self):
        """Positive control for the helper the next test relies on."""
        net, client, _server = make_multipath(seed=1)
        sock = TCPSocket(client)
        assert _materialised_dict(sock) is None
        created = vars(sock)
        assert _materialised_dict(sock) is created

    def test_no_unwatched_endpoint_materialises_a_dict(self, short_connections):
        net, connections, _added = short_connections
        subflows = [s for conn in connections for s in conn.subflows]
        # The oracle wraps ``read`` on connections and plain sockets only.
        watched = connections if getattr(net, "_oracle", None) is not None else []
        for endpoint in subflows + ([] if watched else connections):
            assert _materialised_dict(endpoint) is None, endpoint
        # Only now may vars() be touched (it materialises what it
        # reads): nothing but the oracle's ``read`` shadow lives
        # outside the slots, on any interpreter's attribute layout.
        for endpoint in subflows + connections:
            expected = {"read"} if endpoint in watched else set()
            assert set(vars(endpoint)) == expected, endpoint

    def test_no_helper_of_a_closed_endpoint_has_a_dict(self, short_connections):
        _net, connections, _added = short_connections
        kinds = set()
        for conn in connections:
            for helper in _helpers_of(conn):
                kinds.add(type(helper))
                assert _materialised_dict(helper) is None, helper
                assert type(helper).__dictoffset__ == 0, f"{type(helper).__name__} has a __dict__"
        # The walk reached the helpers it is meant to cover.
        assert {ByteStream, ReassemblyQueue, RTTEstimator, LIAController, Scheduler} <= kinds

    def test_subflows_share_one_empty_send_buffer(self, short_connections):
        _net, connections, _added = short_connections
        subflows = [s for conn in connections for s in conn.subflows]
        shared = subflows[0].snd_buf
        assert all(s.snd_buf is shared for s in subflows)
        assert shared.tail == 0 and len(shared) == 0  # never written
        assert all(conn.send_stream.tail > 0 for conn in connections)

    @pytest.mark.skipif(ORACLE_ENABLED, reason="the oracle's watches are not endpoint footprint")
    def test_tracked_objects_per_closed_endpoint(self, short_connections):
        # ``added`` was counted when the run ended, before any test
        # above could materialise a dict by looking at one.
        _net, connections, added = short_connections
        per_endpoint = added / len(connections)
        assert per_endpoint <= TRACKED_PER_ENDPOINT_BUDGET, (
            f"{per_endpoint:.1f} GC-tracked objects per closed endpoint "
            f"(budget {TRACKED_PER_ENDPOINT_BUDGET})"
        )

    def test_subflows_share_one_tcp_config(self, short_connections):
        _net, connections, _added = short_connections
        for conn in connections:
            first, second = conn.subflows
            assert first.config is second.config
            assert first.cc is not second.cc  # ...but never a controller
        assert connections[0].subflows[0].config is not connections[1].subflows[0].config

    @pytest.mark.parametrize(
        "cls", ENDPOINT_CLASSES + HELPER_CLASSES, ids=lambda cls: cls.__name__
    )
    def test_every_assigned_attribute_is_a_declared_slot(self, cls):
        own = set(cls.__dict__["__slots__"]) - ESCAPE_SLOTS
        if dataclasses.is_dataclass(cls):
            # Generated __init__: its slots are exactly its fields.
            assert own == {f.name for f in dataclasses.fields(cls)}
        else:
            # Every slot the class declares is given a value by its
            # __init__ (no dead slots, no AttributeError on first read)...
            assert own <= _self_stores(cls.__init__), own - _self_stores(cls.__init__)
        # ...and nothing anywhere in the class assigns outside them: a
        # new ``self.x = ...`` must come with a slot, or it silently
        # re-grows a per-instance dict (endpoints) or raises on a path
        # the tests never drove (helpers).
        declared, source = _declared_slots(cls), inspect.getsourcefile(cls)
        for name, member in cls.__dict__.items():
            # (Methods a dataclass generates have no source to read.)
            if inspect.isfunction(member) and member.__code__.co_filename == source:
                stray = _self_stores(member) - declared
                assert not stray, f"{cls.__name__}.{name} assigns {sorted(stray)} outside __slots__"
        if cls not in ENDPOINT_CLASSES:
            assert cls.__dictoffset__ == 0, f"{cls.__name__} instances still get a __dict__"

    def test_rarely_armed_timers_are_not_allocated_up_front(self):
        net, client, _server = make_multipath(seed=1)
        sock = TCPSocket(client)
        conn = MPTCPConnection(client)
        idle = sock._persist_timer
        assert not idle.running
        assert sock._time_wait_timer is idle and sock._autotune_timer is idle
        assert conn._autotune_timer is idle
        idle.stop()  # what teardown does to it: a no-op, not an error
        with pytest.raises(AttributeError):
            idle.start(1.0)  # the placeholder can never be armed by mistake
        assert conn.scheduler.reinject_queue == () and conn._rx_mark_time is None


# ----------------------------------------------------------------------
# Nothing pins a closed connection
# ----------------------------------------------------------------------
class TestClosedConnectionsAreReleased:
    @pytest.mark.skipif(ORACLE_ENABLED, reason="the oracle keeps every endpoint it has watched")
    def test_served_connections_die_while_the_listener_lives(self):
        """``Listener.accepted`` and ``HTTPServerApp.connections`` used to
        append every accepted connection and were read by nothing:
        served through the app's own ``on_accept``, a closed server-side
        connection and its subflows must be collectable while the
        listener is still open."""
        net, client, server = make_multipath(
            seed=3, paths=[dict(rate_bps=40e6, delay=0.002), dict(rate_bps=40e6, delay=0.003)]
        )
        app = HTTPServerApp()
        connections: list[weakref.ref] = []
        subflows: list[weakref.ref] = []

        def on_close(conn) -> None:
            subflows.extend(weakref.ref(s) for s in conn.subflows)

        def on_accept(conn) -> None:
            connections.append(weakref.ref(conn))
            conn.on_close = on_close
            app.on_accept(conn)

        config = MPTCPConfig(checksum=False)
        listener = mptcp_listen(server, 80, config=config, on_accept=on_accept)
        generator = HTTPLoadGenerator(
            net.sim,
            lambda: mptcp_connect(client, Endpoint(server.primary_address, 80), config=config),
            size=4096,
            concurrency=5,
        )
        generator.start()
        net.run(until=0.1)
        generator._launch = lambda: None  # end the closed loop; in-flight fetches finish
        net.run(until=30.0)
        served = app.requests_served
        assert served >= 50 and generator.completed == served and generator.failed == 0
        assert len(connections) == served and len(subflows) == 2 * served
        assert listener._open
        gc.collect()
        assert [ref() for ref in connections if ref() is not None] == []
        assert [ref() for ref in subflows if ref() is not None] == []
