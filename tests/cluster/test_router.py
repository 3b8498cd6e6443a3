"""Router edge cases: affinity, stickiness, drain failover, relaying.

Every test here runs real frames over real loopback sockets through a
:class:`~repro.cluster.harness.LocalCluster`; the router is never
exercised through mocks, because the contract under test is precisely
"the routed byte path behaves like the single-mediator byte path".
"""

import socket

import pytest

from repro.cluster import LocalCluster, fetch_router_stats
from repro.cluster.ring import HashRing
from repro.errors import NetworkError
from repro.session import session_scope
from repro.transport import RetryPolicy, TcpTransport, codec

#: Fast-failing policy: BUSY fallthrough tests must not sit out the
#: default backoff schedule.
FAST = RetryPolicy(
    attempts=3, base_delay=0.01, max_delay=0.05, connect_timeout=2.0,
    io_timeout=10.0,
)


@pytest.fixture
def cluster():
    with LocalCluster(shards=2) as fleet:
        yield fleet


@pytest.fixture
def transport(cluster):
    carrier = TcpTransport(
        endpoints={"mediator": cluster.router_endpoint}, retry=FAST
    )
    carrier.register("client")
    carrier.register("mediator")
    yield carrier
    carrier.close()


def owner_of(cluster: LocalCluster, session_id: str) -> str:
    return cluster.router.ring.owner(session_id)


def session_landing(
    cluster: LocalCluster, prefix: str, shard: str, *, avoid: bool = False
) -> str:
    """A session id the ring places on (or off) the given shard."""
    ring = HashRing(cluster.shard_labels)
    for index in range(4096):
        candidate = f"{prefix}-{index:04d}"
        placed_there = ring.owner(candidate) == shard
        if placed_there != avoid:
            return candidate
    raise AssertionError(f"no session id found for shard {shard}")


class TestAffinity:
    def test_session_frames_land_on_exactly_one_shard(
        self, cluster, transport
    ):
        with session_scope("affine-check") as session_id:
            for step in range(4):
                transport.send(
                    "client", "mediator", f"step-{step}", {"n": step}
                )
        label = cluster.router.affinity_of(session_id)
        assert label == owner_of(cluster, session_id)
        records = cluster.shard_servers[label].records
        assert [record.kind for record in records] == [
            f"step-{step}" for step in range(4)
        ]
        for other, server in cluster.shard_servers.items():
            if other != label:
                assert server.records == []

    def test_sessionless_traffic_pins_one_shard_per_transport(
        self, cluster, transport
    ):
        transport.send("client", "mediator", "unscoped", {"n": 1})
        transport.send("client", "mediator", "unscoped", {"n": 2})
        loaded = [
            label for label, server in cluster.shard_servers.items()
            if server.records
        ]
        assert len(loaded) == 1
        server = cluster.shard_servers[loaded[0]]
        assert len(server.records) == 2
        # Both frames carried the transport's own session id, placed by
        # the ring like any other session.
        (session_id,) = server.sessions.ids()
        assert cluster.router.affinity_of(session_id) == loaded[0]
        assert owner_of(cluster, session_id) == loaded[0]

    def test_sessions_spread_across_shards(self, cluster, transport):
        """With enough sessions both shards carry load — the balance
        half of the placement contract."""
        wanted = {
            label: session_landing(cluster, "spread", label)
            for label in cluster.shard_labels
        }
        for session_id in wanted.values():
            with session_scope(session_id):
                transport.send("client", "mediator", "probe", {})
        for label, session_id in wanted.items():
            assert cluster.router.affinity_of(session_id) == label
            assert len(cluster.shard_servers[label].records) == 1


class TestStickiness:
    def test_session_sticks_across_client_reconnects(self, cluster):
        """Affinity outlives the client connection: a new transport
        (fresh sockets, fresh pools) reaches the same shard, because
        the session's mediator-side state is on that shard only."""
        with session_scope("sticky-session") as session_id:
            first = TcpTransport(
                endpoints={"mediator": cluster.router_endpoint}, retry=FAST
            )
            try:
                first.register("client")
                first.register("mediator")
                first.send("client", "mediator", "first-half", {"n": 1})
            finally:
                # Close without farewell for this session: simulate an
                # abrupt client reconnect rather than a clean goodbye.
                first._sessions_used.clear()
                first.close()
            label = cluster.router.affinity_of(session_id)
            second = TcpTransport(
                endpoints={"mediator": cluster.router_endpoint}, retry=FAST
            )
            try:
                second.register("client")
                second.register("mediator")
                second.send("client", "mediator", "second-half", {"n": 2})
            finally:
                second._sessions_used.clear()
                second.close()
        assert cluster.router.affinity_of(session_id) == label
        kinds = [
            record.kind for record in cluster.shard_servers[label].records
        ]
        assert kinds == ["first-half", "second-half"]

    def test_close_releases_affinity(self, cluster, transport):
        with session_scope("short-lived") as session_id:
            transport.send("client", "mediator", "only", {})
            assert cluster.router.affinity_of(session_id) is not None
            transport.close_session(session_id, parties=["mediator"])
        assert cluster.router.affinity_of(session_id) is None

    def test_unknown_session_close_is_answered_locally(self, cluster):
        """An idempotent close for a session no shard ever saw gets a
        local OK — no shard connection, no error."""
        host, port = cluster.router_endpoint
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                codec.build_frame(
                    codec.SESSION,
                    codec.encode_value(
                        {"op": "close", "session": "never-opened"}
                    ),
                )
            )
            header = _recv_exactly(sock, codec.FRAME_HEADER_BYTES)
            frame_type, length = codec.parse_frame_header(header)
            payload = codec.decode_value(_recv_exactly(sock, length))
        assert frame_type == codec.OK
        assert payload["session"] == "never-opened"
        stats = cluster.stats()
        assert all(shard["frames"] == 0 for shard in stats["shards"])


class TestDrainFailover:
    def test_busy_on_drain_lands_new_session_on_live_shard(
        self, cluster, transport
    ):
        doomed = cluster.shard_labels[0]
        survivor = cluster.shard_labels[1]
        session_id = session_landing(cluster, "drainee", doomed)
        cluster.drain(doomed)
        with session_scope(session_id):
            transport.send("client", "mediator", "rerouted", {})
        # The router consumed the BUSY and re-placed the session on the
        # ring's next preference shard; the client never saw BUSY.
        assert cluster.router.affinity_of(session_id) == survivor
        assert [
            record.kind for record in cluster.shard_servers[survivor].records
        ] == ["rerouted"]
        stats = {
            shard["label"]: shard for shard in cluster.stats()["shards"]
        }
        assert stats[doomed]["busy_redirects"] == 1
        assert stats[doomed]["sessions"] == 0
        assert stats[survivor]["sessions"] == 1

    def test_draining_shard_finishes_in_flight_sessions(
        self, cluster, transport
    ):
        label = cluster.shard_labels[0]
        session_id = session_landing(cluster, "inflight", label)
        with session_scope(session_id):
            transport.send("client", "mediator", "before-drain", {"n": 1})
            cluster.drain(label)
            # The drained shard still serves its established session.
            transport.send("client", "mediator", "after-drain", {"n": 2})
        assert cluster.router.affinity_of(session_id) == label
        kinds = [
            record.kind for record in cluster.shard_servers[label].records
        ]
        assert kinds == ["before-drain", "after-drain"]
        assert cluster.shard_servers[label].active_sessions() == 1
        transport.close_session(session_id, parties=["mediator"])
        assert cluster.shard_servers[label].active_sessions() == 0

    def test_every_shard_draining_surfaces_busy_to_client(
        self, cluster, transport
    ):
        from repro.errors import ServerBusy

        for label in cluster.shard_labels:
            cluster.drain(label)
        with session_scope("nowhere-to-go"):
            with pytest.raises(ServerBusy):
                transport.send("client", "mediator", "doomed", {})

    def test_killed_shard_fails_over_new_sessions(self, cluster, transport):
        doomed = cluster.shard_labels[0]
        survivor = cluster.shard_labels[1]
        session_id = session_landing(cluster, "killed", doomed)
        cluster.kill(doomed)
        with session_scope(session_id):
            transport.send("client", "mediator", "rehomed", {})
        assert cluster.router.affinity_of(session_id) == survivor

    def test_killed_shard_fails_established_sessions_honestly(
        self, cluster, transport
    ):
        """A session whose shard died loses its shared-nothing state;
        the router surfaces an honest NetworkError instead of silently
        replaying onto a shard that never saw the session."""
        doomed = cluster.shard_labels[0]
        session_id = session_landing(cluster, "orphan", doomed)
        with session_scope(session_id):
            transport.send("client", "mediator", "pre-crash", {})
            cluster.kill(doomed)
            with pytest.raises(NetworkError):
                transport.send("client", "mediator", "post-crash", {})


class TestControlPlane:
    def test_stats_document(self, cluster, transport):
        with session_scope("stats-probe"):
            transport.send("client", "mediator", "probe", {})
        host, port = cluster.router_endpoint
        stats = fetch_router_stats(host, port)
        assert stats["schema"] == "repro-router/1"
        assert stats["party"] == "mediator"
        assert stats["sessions_routed"] == 1
        assert [shard["label"] for shard in stats["shards"]] == \
            cluster.shard_labels
        assert sum(shard["frames"] for shard in stats["shards"]) >= 1

    def test_stats_against_plain_endpoint_raises(self, cluster):
        """A plain PartyServer answers STATS with ERROR; the helper
        turns that into a NetworkError naming the mismatch — how
        ``loadgen --remote --cluster`` detects a router-less mediator."""
        label = cluster.shard_labels[0]
        server = cluster.shard_servers[label]
        with pytest.raises(NetworkError, match="is it a shard router"):
            fetch_router_stats(server.host, server.port)

    def test_global_fetch_concatenates_shard_views(self, cluster, transport):
        wanted = {
            label: session_landing(cluster, "fetch", label)
            for label in cluster.shard_labels
        }
        for label, session_id in wanted.items():
            with session_scope(session_id):
                transport.send("client", "mediator", f"from-{label}", {"x": 1})
        view = transport.remote_view("mediator")
        assert {record.kind for record in view} == {
            f"from-{label}" for label in wanted
        }

    def test_session_scoped_fetch_reaches_the_sessions_shard(
        self, cluster, transport
    ):
        with session_scope("scoped-fetch") as session_id:
            transport.send("client", "mediator", "mine", {})
            view = transport.remote_view("mediator", session=session_id)
        assert [record.kind for record in view] == ["mine"]

    def test_telemetry_aggregates_router_and_shards(
        self, cluster, transport
    ):
        from repro.cluster.router import ROUTER_FRAMES_METRIC

        wanted = {
            label: session_landing(cluster, "telemetry", label)
            for label in cluster.shard_labels
        }
        for session_id in wanted.values():
            with session_scope(session_id):
                transport.send("client", "mediator", "traced", {})
        snapshot = transport.remote_telemetry("mediator")
        assert snapshot["party"] == "mediator"
        assert ROUTER_FRAMES_METRIC in snapshot["metrics"]
        assert ROUTER_FRAMES_METRIC in snapshot["exposition"]

    def test_unexpected_frame_type_is_rejected(self, cluster):
        host, port = cluster.router_endpoint
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                codec.build_frame(codec.VIEW, codec.encode_value([]))
            )
            header = _recv_exactly(sock, codec.FRAME_HEADER_BYTES)
            frame_type, length = codec.parse_frame_header(header)
            payload = codec.decode_value(_recv_exactly(sock, length))
        assert frame_type == codec.ERROR
        assert "unexpected frame type" in payload["error"]


class TestLoneShard:
    def test_single_shard_cluster_relays_everything(self):
        """shards=1 is the byte-compatibility gate: every frame kind a
        single mediator serves must round-trip through the router."""
        with LocalCluster(shards=1) as fleet:
            carrier = TcpTransport(
                endpoints={"mediator": fleet.router_endpoint}, retry=FAST
            )
            try:
                carrier.register("client")
                carrier.register("mediator")
                with session_scope("lone") as session_id:
                    carrier.send("client", "mediator", "one", {"n": 1})
                    carrier.send("client", "mediator", "two", {"n": 2})
                    view = carrier.remote_view("mediator", session=session_id)
                    assert [record.kind for record in view] == ["one", "two"]
                    snapshot = carrier.remote_telemetry("mediator")
                    assert snapshot["party"] == "mediator"
            finally:
                carrier.close()
            [label] = fleet.shard_labels
            assert len(fleet.shard_servers[label].records) == 2


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        data += chunk
    return data
