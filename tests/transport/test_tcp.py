"""Unit tests for the TCP transport runtime: endpoints, faults, retries."""

import socket
import threading
import time

import pytest

from repro.errors import NetworkError
from repro.transport import RetryPolicy, TcpTransport, codec


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise ConnectionError("peer closed early")
        data += chunk
    return data

#: Fast-failing policy so fault tests stay quick.
FAST = RetryPolicy(
    attempts=3, base_delay=0.01, max_delay=0.05, connect_timeout=0.5,
    io_timeout=0.4,
)


@pytest.fixture
def transport():
    carrier = TcpTransport(retry=FAST)
    yield carrier
    carrier.close()


def unused_port() -> int:
    """A port that was just free — nothing listens on it."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class MuteServer:
    """Accepts connections and reads forever without ever answering."""

    def __init__(self) -> None:
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen()
        self.port = self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self) -> None:
        self._listener.settimeout(0.1)
        connections = []
        while not self._stop.is_set():
            try:
                connection, _ = self._listener.accept()
                connections.append(connection)
            except OSError:
                continue
        for connection in connections:
            connection.close()

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
        self._listener.close()


class TestDelivery:
    def test_send_records_both_views_and_wire_bytes(self, transport):
        transport.register("mediator")
        transport.register("S1")
        message = transport.send("S1", "mediator", "kind", {"n": 1 << 64})
        assert message.body == {"n": 1 << 64}
        assert transport.view("S1").sent == [message]
        assert transport.view("mediator").received == [message]
        [record] = transport.remote_view("mediator")
        assert record.wire_bytes == message.size_bytes
        assert (record.sender, record.kind) == ("S1", "kind")

    def test_body_is_decoded_roundtrip_not_the_live_object(self, transport):
        transport.register("a")
        transport.register("b")
        body = {"shared": [1, 2, 3]}
        message = transport.send("a", "b", "kind", body)
        assert message.body == body
        assert message.body is not body  # went through the codec

    def test_unknown_parties_rejected_without_io(self, transport):
        transport.register("a")
        with pytest.raises(NetworkError, match="unknown receiver"):
            transport.send("a", "ghost", "kind", None)
        with pytest.raises(NetworkError, match="unknown sender"):
            transport.send("ghost", "a", "kind", None)

    def test_sequential_sends_share_one_connection(self, transport):
        transport.register("a")
        transport.register("b")
        for index in range(5):
            transport.send("a", "b", f"kind-{index}", index)
        records = transport.remote_view("b")
        assert [r.sequence for r in records] == [1, 2, 3, 4, 5]

    def test_handshake_rejects_wrong_party(self):
        first = TcpTransport(retry=FAST)
        try:
            first.register("mediator")
            address = first.endpoint_of("mediator")
            second = TcpTransport(endpoints={"S1": address}, retry=FAST)
            try:
                with pytest.raises(NetworkError, match="identifies as"):
                    second.register("S1")
            finally:
                second.close()
        finally:
            first.close()

    def test_closed_transport_refuses_work(self):
        carrier = TcpTransport(retry=FAST)
        carrier.register("a")
        carrier.close()
        with pytest.raises(NetworkError, match="closed"):
            carrier.register("b")
        carrier.close()  # idempotent


class TestFaults:
    def test_connection_refused_exhausts_retries(self):
        port = unused_port()
        carrier = TcpTransport(endpoints={"S1": ("127.0.0.1", port)}, retry=FAST)
        try:
            started = time.perf_counter()
            with pytest.raises(NetworkError, match="after 3 attempts"):
                carrier.register("S1")
            elapsed = time.perf_counter() - started
            # Two backoff sleeps happened: 0.01 + 0.02 seconds.
            assert elapsed >= 0.03
        finally:
            carrier.close()

    def test_silent_peer_times_out(self):
        mute = MuteServer()
        carrier = TcpTransport(
            endpoints={"S1": ("127.0.0.1", mute.port)}, retry=FAST
        )
        try:
            started = time.perf_counter()
            with pytest.raises(NetworkError, match="timed out"):
                carrier.register("S1")
            assert time.perf_counter() - started >= FAST.io_timeout
        finally:
            carrier.close()
            mute.close()

    def test_peer_dying_mid_protocol_raises_not_hangs(self, transport):
        transport.register("a")
        transport.register("b")
        transport.send("a", "b", "first", 1)
        server_b = transport.local_server("b")
        # Simulate the party dying: endpoint gone, connections dropped.
        transport._run(server_b.stop())
        with pytest.raises(NetworkError):
            transport.send("a", "b", "second", 2)

    def test_misdelivered_message_reported_by_endpoint(self, transport):
        # Talk to the raw endpoint (past the handshake) and address a
        # message to the wrong party: the endpoint must answer ERROR.
        transport.register("mediator")
        host, port = transport.endpoint_of("mediator")
        payload = codec.encode_envelope(
            1, "x", "NOT-mediator", "kind", None, None, "raw:1", "raw"
        )
        with socket.create_connection((host, port)) as raw:
            raw.sendall(codec.build_frame(codec.DATA, payload))
            header = _recv_exactly(raw, codec.FRAME_HEADER_BYTES)
            frame_type, length = codec.parse_frame_header(header)
            body = codec.decode_value(_recv_exactly(raw, length))
        assert frame_type == codec.ERROR
        assert "misdelivered" in body["error"]
        assert transport.remote_view("mediator") == []
