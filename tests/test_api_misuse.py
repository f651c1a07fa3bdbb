"""API misuse and edge conditions: the library should fail loudly and
early, never corrupt state silently."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.experiments.common import open_client, open_listener
from repro.mptcp.api import connect, listen
from repro.mptcp.connection import MPTCPConfig, MPTCPConnection
from repro.net.network import Network
from repro.net.packet import Endpoint
from repro.tcp.socket import TCPConfig

from conftest import make_multipath, random_payload


class TestNetworkMisuse:
    def test_duplicate_host_name(self):
        net = Network(seed=1)
        net.add_host("a", "10.0.0.1")
        with pytest.raises(ValueError):
            net.add_host("a", "10.0.0.2")

    def test_interface_lookup_missing(self):
        net = Network(seed=1)
        host = net.add_host("a", "10.0.0.1")
        with pytest.raises(KeyError):
            host.interface("1.2.3.4")

    def test_host_without_interfaces_has_no_primary(self):
        net = Network(seed=1)
        host = net.add_host("bare")
        with pytest.raises(RuntimeError):
            _ = host.primary_address

    def test_network_shards_other_than_one_raises(self):
        with pytest.raises(ValueError, match="shards"):
            Network(seed=1, shards=2)


class TestConnectionMisuse:
    def test_send_on_closed_connection_raises(self):
        net, client, server = make_multipath()
        holder = {}

        def on_accept(c):
            holder["s"] = c
            c.on_eof = lambda cc: cc.close()

        listen(server, 80, on_accept=on_accept)
        conn = connect(client, Endpoint("10.9.0.1", 80))
        net.run(until=1.0)
        conn.send(b"bye")
        conn.close()
        net.run(until=20.0)
        assert conn.closed
        with pytest.raises(RuntimeError):
            conn.send(b"too late")

    def test_send_after_close_raises(self):
        net, client, server = make_multipath()
        listen(server, 80)
        conn = connect(client, Endpoint("10.9.0.1", 80))
        conn.close()
        with pytest.raises(RuntimeError):
            conn.send(b"x")

    def test_close_is_idempotent(self):
        net, client, server = make_multipath()
        listen(server, 80)
        conn = connect(client, Endpoint("10.9.0.1", 80))
        conn.close()
        conn.close()
        net.run(until=10.0)

    def test_read_on_empty_returns_empty(self):
        net, client, server = make_multipath()
        listen(server, 80)
        conn = connect(client, Endpoint("10.9.0.1", 80))
        assert conn.read() == b""
        assert conn.rx_available == 0

    def test_send_respects_buffer_limit(self):
        net, client, server = make_multipath()
        config = MPTCPConfig(snd_buf=10_000)
        listen(server, 80, config=config)
        conn = connect(client, Endpoint("10.9.0.1", 80), config=config)
        accepted = conn.send(b"z" * 50_000)
        assert accepted == 10_000
        assert conn.send_buffer_room() == 0

    def test_partial_read(self):
        net, client, server = make_multipath()
        holder = {}
        listen(server, 80, on_accept=lambda c: holder.update(s=c))
        conn = connect(client, Endpoint("10.9.0.1", 80))
        net.run(until=1.0)
        conn.send(b"abcdefghij")
        net.run(until=2.0)
        server_conn = holder["s"]
        assert server_conn.read(4) == b"abcd"
        assert server_conn.rx_available == 6
        assert server_conn.read() == b"efghij"

    @pytest.mark.parametrize("transport", ["tcp", "mptcp"])
    def test_negative_read_returns_everything(self, transport):
        """``read(-1)`` means "all of it", as in ``io``: a negative size
        must not slice off the last byte and leave it stranded."""
        net, client, server = make_multipath()
        config = MPTCPConfig() if transport == "mptcp" else TCPConfig()
        holder = {}
        open_listener(server, config, lambda c: holder.update(s=c))
        conn = open_client(client, server, config)
        net.run(until=1.0)
        conn.send(b"abcdef")
        net.run(until=2.0)
        server_end = holder["s"]
        assert server_end.rx_available == 6
        assert server_end.read(-1) == b"abcdef"
        assert server_end.rx_available == 0


class TestListenerConfig:
    def test_config_propagates_to_subflows(self):
        net, client, server = make_multipath()
        from repro.tcp.socket import TCPConfig

        config = MPTCPConfig(tcp=TCPConfig(mss=900))
        holder = {}
        listen(server, 80, config=config, on_accept=lambda c: holder.update(s=c))
        conn = connect(client, Endpoint("10.9.0.1", 80), config=config)
        net.run(until=1.0)
        assert all(s.mss <= 900 for s in conn.subflows)

    def test_explicit_local_ip_used(self):
        net, client, server = make_multipath()
        listen(server, 80)
        conn = connect(
            client, Endpoint("10.9.0.1", 80), local_ip="10.1.0.1", extra_local_ips=[]
        )
        net.run(until=1.0)
        assert conn.subflows[0].local.ip == "10.1.0.1"
        assert len([s for s in conn.subflows if not s.failed]) == 1  # no extras

    def test_stats_surface_exists(self):
        net, client, server = make_multipath()
        listen(server, 80)
        conn = connect(client, Endpoint("10.9.0.1", 80))
        net.run(until=1.0)
        conn.send(random_payload(50_000))
        net.run(until=5.0)
        # The observability the README advertises.
        assert conn.stats.bytes_sent >= 0
        assert conn.scheduler.stats.allocations > 0
        assert conn.tx_memory_bytes() >= 0
        for subflow in conn.subflows:
            assert subflow.srtt > 0
            assert subflow.stats.segments_sent > 0


class TestConfigRejectsAbsurdValues:
    """A zero MSS, buffer or subflow cap fails at construction, naming
    the field, instead of a mid-run ZeroDivisionError or a silent stall."""

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize(
        "config_class, field_name",
        [
            (TCPConfig, "mss"),
            (TCPConfig, "snd_buf"),
            (TCPConfig, "rcv_buf"),
            (MPTCPConfig, "snd_buf"),
            (MPTCPConfig, "rcv_buf"),
            (MPTCPConfig, "max_subflows"),
        ],
    )
    def test_field_below_one_raises(self, config_class, field_name, value):
        with pytest.raises(ValueError, match=rf"{config_class.__name__}\.{field_name}\b"):
            config_class(**{field_name: value})
        config_class(**{field_name: 1})  # the smallest legal value builds


class TestConfigFieldsAreRead:
    """A config field nothing reads is a knob that does nothing: every
    field of the two transport configs must be read as an attribute
    somewhere in ``repro``.  The field declarations themselves do not
    count; a config method that reads a field (``subflow_tcp_config``)
    does."""

    CONFIGS = (TCPConfig, MPTCPConfig)

    def _attributes_read(self) -> set[str]:
        names = {config.__name__ for config in self.CONFIGS}
        read: set[str] = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            pending: list[ast.AST] = [ast.parse(path.read_text())]
            while pending:
                node = pending.pop()
                if isinstance(node, ast.ClassDef) and node.name in names:
                    pending.extend(s for s in node.body if not isinstance(s, ast.AnnAssign))
                    continue
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                pending.extend(ast.iter_child_nodes(node))
        return read

    @pytest.mark.parametrize("config_class", CONFIGS)
    def test_every_field_is_read(self, config_class):
        read = self._attributes_read()
        unread = [f.name for f in dataclasses.fields(config_class) if f.name not in read]
        assert unread == []


class TestParametersAreRead:
    """A parameter its function never reads is a knob that does nothing:
    every parameter of every function in ``repro`` must be read in the
    function's body (a nested function or lambda reading it counts).
    ``self``/``cls`` and stub bodies (a docstring plus at most one
    ``pass``, ``...``, ``raise`` or constant ``return``) are exempt.
    ``ALLOWED`` names the interface signatures that must keep an unread
    parameter, one reason each."""

    ALLOWED = {
        ("mptcp/api.py", "listen.factory", "tcp_config"):
            "a SocketFactory: the listener passes every factory its host, SYN and config",
        ("tcp/listener.py", "_default_factory", "syn"):
            "a SocketFactory: the listener passes every factory its host, SYN and config",
        ("mptcp/ooo.py", "RegularQueue.insert", "subflow_id"):
            "OOOQueue.insert: only the shortcut queues key on the subflow",
        ("mptcp/ooo.py", "TreeQueue.insert", "subflow_id"):
            "OOOQueue.insert: only the shortcut queues key on the subflow",
        **{
            ("mptcp/options.py", f"{option}.decode", "flags"):
                "an option codec: decode(body, flags) whether or not the subtype has flags"
            for option in ("AddAddr", "RemoveAddr", "MPFail", "FastClose")
        },
        ("mptcp/options.py", "DSS.decode", "flags_nibble"):
            "an option codec: decode(body, flags) whether or not the subtype has flags",
        ("net/options.py", "_decode_sack_permitted", "body"):
            "an option codec: every TCP option decoder takes the option body",
        ("sim/gcscope.py", "paused.__exit__", "exc"): "the context-manager protocol",
        ("sim/gcscope.py", "batch.__exit__", "exc"): "the context-manager protocol",
        ("apps/blocks.py", "BlockLatencyProbe._pump", "_transport"):
            "a transport callback: on_established(t) / on_writable(t)",
        ("apps/bulk.py", "BulkSenderApp._pump", "_transport"):
            "a transport callback: on_established(t) / on_writable(t)",
        ("apps/http.py", "_ServerConnection._send_response.pump", "_t"):
            "a transport callback: on_writable(t)",
        ("apps/http.py", "HTTPLoadGenerator._launch.on_error", "reason"):
            "a transport callback: on_error(t, reason)",
        ("experiments/fig8.py", "run", "smoke"):
            "the figure-module interface run(smoke); Fig. 8's smoke scale is its full scale",
    }

    @staticmethod
    def _is_stub(function: ast.AST) -> bool:
        body = function.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]  # the docstring
        if not body:
            return True
        if len(body) > 1:
            return False
        (statement,) = body
        return (
            isinstance(statement, (ast.Pass, ast.Raise))
            or isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant)
            or isinstance(statement, ast.Return)
            and (statement.value is None or isinstance(statement.value, ast.Constant))
        )

    def _unread(self) -> set[tuple[str, str, str]]:
        root = Path(repro.__file__).parent
        unread: set[tuple[str, str, str]] = set()

        def visit(node: ast.AST, module: str, scope: str, in_class: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, module, f"{scope}{child.name}.", True)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{scope}{child.name}"
                    args = child.args
                    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in child.decorator_list
                    )
                    if in_class and not static:
                        params = params[1:]  # self / cls
                    if not self._is_stub(child):
                        read = {
                            n.id
                            for statement in child.body
                            for n in ast.walk(statement)
                            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                        }
                        unread.update((module, qualname, p) for p in params if p not in read)
                    visit(child, module, f"{qualname}.", False)
                else:
                    visit(child, module, scope, in_class)

        for path in sorted(root.rglob("*.py")):
            module = path.relative_to(root).as_posix()
            visit(ast.parse(path.read_text()), module, "", False)
        return unread

    def test_every_parameter_is_read(self):
        unread = self._unread()
        assert sorted(unread - set(self.ALLOWED)) == []

    def test_every_allowed_parameter_is_still_unread(self):
        # An entry whose parameter is now read (or gone) excuses nothing.
        assert sorted(set(self.ALLOWED) - self._unread()) == []
