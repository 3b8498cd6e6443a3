"""The session-affine shard router: one mediator address, N shards.

:class:`ShardRouter` listens where clients expect the mediator and
proxies the existing frame protocol to a fleet of mediator shard
endpoints (each an ordinary :class:`~repro.transport.server.PartyServer`
started with ``repro serve mediator --shard K/N``).  It is a *frame*
router, not a protocol participant:

* **DATA frames are forwarded verbatim.**  The router peeks only the
  envelope's routing slots (:func:`repro.transport.codec.peek_envelope`
  — sequence, sender, receiver, kind, trace, request id, session id)
  and never decodes the body, so the routed byte stream a shard
  receives is byte-for-byte the stream a single mediator would have
  received, and the router learns nothing the network observer does
  not already see (``docs/security.md``).
* **Sessions are sticky.**  The first frame of a session is placed by
  the consistent-hash ring (:class:`~repro.cluster.ring.HashRing` over
  the session id) and every later frame — across client reconnects —
  follows the recorded affinity, because all per-session protocol
  state (views, dedupe windows, telemetry) lives on exactly one shard.
* **BUSY re-maps the ring segment.**  A shard that answers BUSY to a
  *new* session (draining, or at session capacity) is skipped and the
  ring's next preference shard is tried; only when every shard refuses
  does the client see BUSY and back off under its own retry policy.
  This is the whole drain/rebalance protocol: drain a shard, and new
  sessions flow around it while its in-flight sessions finish.
* **Every client is session-affine.**  A client sending outside any
  session scope stamps its transport's own session id, so it talks to
  one consistent shard — exactly the single-mediator contract.

Control frames: HELLO is answered locally (the router *is* the
mediator endpoint as far as handshakes go), session-scoped FETCH and
TELEMETRY go to the session's shard, global FETCH/TELEMETRY aggregate
over every shard (the router adds its own ``route:`` spans, which is
what stitches a distributed trace across router and shards), and the
new STATS frame reports the router's own routing table — per-shard
sessions, forwarded frames, busy redirects, and failures — as a
``repro-router/1`` document (see ``repro loadgen --cluster``).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.errors import NetworkError
from repro.telemetry.exporters import prometheus_exposition
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import SpanContext, Tracer
from repro.transport import codec
from repro.transport.server import requested_session

#: Counter of frames the router forwarded, labelled by shard.
ROUTER_FRAMES_METRIC = "repro_router_frames_total"
#: Counter of new-session placements, labelled by shard.
ROUTER_SESSIONS_METRIC = "repro_router_sessions_total"
#: Counter of BUSY refusals that re-mapped a new session to the ring's
#: next preference shard.
ROUTER_REDIRECTS_METRIC = "repro_router_busy_redirects_total"
#: Counter of shard I/O failures observed while forwarding.
ROUTER_FAILURES_METRIC = "repro_router_failures_total"

#: Seconds the router waits for a shard to answer one forwarded frame.
#: Generous — a frame's answer includes the shard's full protocol step.
DEFAULT_SHARD_TIMEOUT = 60.0
#: Seconds the router waits for a TCP connect to a shard.
DEFAULT_CONNECT_TIMEOUT = 2.0


@dataclass
class RouterStats:
    """Mutable per-shard routing counters (rendered by :meth:`ShardRouter.stats`)."""

    sessions: int = 0
    frames: int = 0
    busy_redirects: int = 0
    failures: int = 0


@dataclass
class _Shard:
    """One downstream mediator shard endpoint."""

    label: str
    host: str
    port: int
    stats: RouterStats = field(default_factory=RouterStats)


class _Channel:
    """Per-downstream-connection state: one upstream socket per shard.

    Dedicated upstream connections per client connection preserve frame
    ordering trivially (a client's frames to one shard travel one
    stream) and make teardown symmetric: the client disconnecting
    closes exactly its own upstream sockets.
    """

    def __init__(self) -> None:
        self.upstreams: dict[
            str, tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = {}

    def drop(self, label: str) -> None:
        connection = self.upstreams.pop(label, None)
        if connection is not None:
            connection[1].close()

    def close(self) -> None:
        for label in list(self.upstreams):
            self.drop(label)


class ShardRouter:
    """Session-affine frame router in front of N mediator shards.

    All coroutines run on one event loop — the ``repro serve router``
    CLI drives it with ``asyncio.run``, the in-process
    :class:`~repro.cluster.harness.LocalCluster` from its background
    loop thread.
    """

    def __init__(
        self,
        shards: dict[str, tuple[str, int]],
        *,
        party: str = "mediator",
        host: str = "127.0.0.1",
        port: int = 0,
        shard_timeout: float = DEFAULT_SHARD_TIMEOUT,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ) -> None:
        if not shards:
            raise NetworkError("a shard router needs at least one shard")
        from repro.cluster.ring import HashRing

        self.party = party
        self.host = host
        self.port = port
        self.shard_timeout = shard_timeout
        self.connect_timeout = connect_timeout
        self._shards: dict[str, _Shard] = {
            label: _Shard(label, endpoint[0], endpoint[1])
            for label, endpoint in shards.items()
        }
        self.ring = HashRing(list(self._shards))
        #: session id -> shard label; the stickiness table.  Lives for
        #: the router's lifetime (entries are dropped on SESSION close),
        #: so affinity survives client reconnects.
        self._affinity: dict[str, str] = {}
        #: Serializes the *first* frame of each session so concurrent
        #: pooled connections cannot race a session onto two shards.
        self._placing: dict[str, asyncio.Lock] = {}
        #: Router-local telemetry, merged into aggregated TELEMETRY
        #: answers so one stitched trace spans router and shards.
        self.tracer = Tracer(service="repro.router")
        self.registry = MetricsRegistry()
        self._server: asyncio.AbstractServer | None = None
        self._channels: set[_Channel] = set()
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        if self._server is not None:
            raise NetworkError("shard router already started")
        try:
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port
            )
        except OSError as exc:
            raise NetworkError(
                f"cannot bind shard router on {self.host}:{self.port}: {exc}"
            ) from exc
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for channel in list(self._channels):
            channel.close()
        self._channels.clear()
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- introspection -----------------------------------------------------

    @property
    def shard_labels(self) -> list[str]:
        return sorted(self._shards)

    def affinity_of(self, session_id: str) -> str | None:
        """The shard a session is pinned to, if placed."""
        return self._affinity.get(session_id)

    def stats(self) -> dict:
        """The ``repro-router/1`` routing-statistics document."""
        placed: dict[str, int] = {}
        for label in self._affinity.values():
            placed[label] = placed.get(label, 0) + 1
        return {
            "schema": "repro-router/1",
            "party": self.party,
            "sessions_routed": len(self._affinity),
            "shards": [
                {
                    "label": shard.label,
                    "endpoint": f"{shard.host}:{shard.port}",
                    "sessions": shard.stats.sessions,
                    "live_sessions": placed.get(shard.label, 0),
                    "frames": shard.stats.frames,
                    "busy_redirects": shard.stats.busy_redirects,
                    "failures": shard.stats.failures,
                }
                for shard in sorted(
                    self._shards.values(), key=lambda shard: shard.label
                )
            ],
        }

    # -- connection handling -----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        channel = _Channel()
        self._channels.add(channel)
        self._writers.add(writer)
        try:
            while True:
                try:
                    frame_type, payload = await codec.read_frame(reader)
                except (NetworkError, ConnectionError, asyncio.TimeoutError):
                    return  # client went away or sent garbage
                try:
                    done = await self._dispatch(
                        frame_type, payload, writer, channel
                    )
                except ConnectionError:
                    return
                if done:
                    return
        except asyncio.CancelledError:
            return  # loop shutdown cancelled this connection mid-read
        finally:
            self._channels.discard(channel)
            self._writers.discard(writer)
            channel.close()
            writer.close()

    async def _dispatch(
        self,
        frame_type: int,
        payload: bytes,
        writer: asyncio.StreamWriter,
        channel: _Channel,
    ) -> bool:
        """Route one frame; returns True when the connection must close."""
        if frame_type == codec.DATA:
            return await self._data(payload, writer, channel)
        if frame_type == codec.HELLO:
            # The router *is* the mediator endpoint for handshakes.
            await codec.write_frame(
                writer, codec.OK, codec.encode_value({"party": self.party})
            )
            return False
        if frame_type == codec.SESSION:
            return await self._session(payload, writer, channel)
        if frame_type in (codec.FETCH, codec.TELEMETRY):
            return await self._query(frame_type, payload, writer, channel)
        if frame_type == codec.STATS:
            await codec.write_frame(
                writer, codec.STATS_DATA, codec.encode_value(self.stats())
            )
            return False
        await codec.write_frame(
            writer,
            codec.ERROR,
            codec.encode_value(
                {"error": f"unexpected frame type 0x{frame_type:02x}"}
            ),
        )
        return False

    # -- forwarding --------------------------------------------------------

    async def _connect(
        self, shard: _Shard
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(shard.host, shard.port),
                self.connect_timeout,
            )
        except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
            raise NetworkError(
                f"cannot reach shard {shard.label!r} at "
                f"{shard.host}:{shard.port}: {exc}"
            ) from exc

    async def _forward(
        self, label: str, frame_type: int, payload: bytes, channel: _Channel
    ) -> tuple[int, bytes]:
        """One frame to one shard, one response back — verbatim bytes.

        A stale pooled upstream (the shard restarted between frames) is
        retried once on a fresh connection; a fresh connection failing
        marks a real shard failure and propagates.
        """
        shard = self._shards[label]
        connection = channel.upstreams.get(label)
        fresh = connection is None
        if connection is None:
            connection = await self._connect(shard)
            channel.upstreams[label] = connection
        reader, upstream_writer = connection
        try:
            await codec.write_frame(upstream_writer, frame_type, payload)
            response = await codec.read_frame(reader, self.shard_timeout)
        except (
            NetworkError, ConnectionError, OSError, asyncio.TimeoutError
        ) as exc:
            channel.drop(label)
            if not fresh:
                return await self._forward(label, frame_type, payload, channel)
            shard.stats.failures += 1
            self.registry.counter(
                ROUTER_FAILURES_METRIC,
                {"shard": label},
                help_text="Shard I/O failures observed by the router",
            ).inc()
            raise NetworkError(
                f"shard {label!r} failed mid-frame: {exc}"
            ) from exc
        shard.stats.frames += 1
        self.registry.counter(
            ROUTER_FRAMES_METRIC,
            {"shard": label},
            help_text="Frames forwarded to a mediator shard",
        ).inc()
        return response

    def _candidates(self, session_key: str) -> list[str]:
        """Shards to try for an unplaced session, in preference order."""
        return self.ring.owners(session_key)

    async def _place(
        self,
        session_key: str,
        frame_type: int,
        payload: bytes,
        channel: _Channel,
    ) -> tuple[int, bytes] | None:
        """Place a new session: walk the ring until a shard accepts.

        Forwards the session's first frame as the placement probe —
        BUSY (draining or full shard) and I/O failures advance to the
        ring's next preference shard.  Returns the accepting shard's
        response, the last BUSY when every shard refused, or ``None``
        when every shard failed outright.
        """
        last_busy: tuple[int, bytes] | None = None
        candidates = self._candidates(session_key)
        for index, label in enumerate(candidates):
            try:
                frame = await self._forward(
                    label, frame_type, payload, channel
                )
            except NetworkError:
                continue
            if frame[0] == codec.BUSY:
                last_busy = frame
                self._shards[label].stats.busy_redirects += 1
                self.registry.counter(
                    ROUTER_REDIRECTS_METRIC,
                    {"shard": label},
                    help_text=(
                        "New sessions redirected off a BUSY (draining or "
                        "full) shard"
                    ),
                ).inc()
                continue
            if frame[0] != codec.ERROR:
                self._affinity[session_key] = label
                self._shards[label].stats.sessions += 1
                self.registry.counter(
                    ROUTER_SESSIONS_METRIC,
                    {"shard": label, "failover": str(index > 0).lower()},
                    help_text="New sessions placed on a shard",
                ).inc()
            return frame
        return last_busy

    def _placement_lock(self, session_key: str) -> asyncio.Lock:
        lock = self._placing.get(session_key)
        if lock is None:
            lock = self._placing[session_key] = asyncio.Lock()
        return lock

    async def _route(
        self,
        session_key: str,
        frame_type: int,
        payload: bytes,
        channel: _Channel,
    ) -> tuple[int, bytes] | None:
        """Sticky-or-place routing for one session-keyed frame."""
        label = self._affinity.get(session_key)
        if label is not None:
            return await self._forward(label, frame_type, payload, channel)
        try:
            async with self._placement_lock(session_key):
                # Re-check: a concurrent frame of the same session may
                # have placed it while we waited on the lock.
                label = self._affinity.get(session_key)
                if label is not None:
                    return await self._forward(
                        label, frame_type, payload, channel
                    )
                return await self._place(
                    session_key, frame_type, payload, channel
                )
        finally:
            # Only retire the lock once the session is actually placed;
            # a failed placement keeps it so concurrent retries of the
            # same session still serialize on one lock object.
            if session_key in self._affinity:
                self._placing.pop(session_key, None)

    # -- frame handlers ----------------------------------------------------

    async def _data(
        self, payload: bytes, writer: asyncio.StreamWriter, channel: _Channel
    ) -> bool:
        try:
            sequence, _sender, _receiver, kind, _body, trace, _request_id, \
                session_id = codec.peek_envelope(payload)
        except Exception as exc:
            await codec.write_frame(
                writer,
                codec.ERROR,
                codec.encode_value({"error": f"undecodable envelope: {exc}"}),
            )
            return False
        span = None
        parent = SpanContext.from_wire(trace)
        if parent is not None:
            span = self.tracer.start_span(
                f"route:{kind}",
                "router",
                parent=parent,
                attributes={
                    "kind": "route",
                    "sequence": sequence,
                    "wire_bytes": codec.FRAME_HEADER_BYTES + len(payload),
                    "session": session_id,
                },
            )
        try:
            response = await self._route(
                session_id, codec.DATA, payload, channel
            )
        except NetworkError:
            # The session's shard is gone; its shared-nothing state
            # went with it.  Drop the connection: an honest failure the
            # client's retry policy surfaces as NetworkError.
            if span is not None:
                span.attributes["error"] = "shard failed"
                self.tracer.end_span(span)
            return True
        if span is not None:
            shard = self._affinity.get(session_id)
            if shard is not None:
                span.attributes["shard"] = shard
            self.tracer.end_span(span)
        if response is None:
            return True  # every shard failed outright
        await codec.write_frame(writer, response[0], response[1])
        return False

    async def _session(
        self, payload: bytes, writer: asyncio.StreamWriter, channel: _Channel
    ) -> bool:
        """SESSION open routes like a first frame; close follows affinity."""
        try:
            request = codec.decode_value(payload)
            operation = request["op"]
            session_id = request["session"]
            if operation not in ("open", "close") or not isinstance(
                session_id, str
            ) or not session_id:
                raise ValueError(f"malformed session request {request!r}")
        except Exception as exc:
            await codec.write_frame(
                writer,
                codec.ERROR,
                codec.encode_value({"error": f"bad SESSION frame: {exc}"}),
            )
            return False
        if operation == "open":
            try:
                response = await self._route(
                    session_id, codec.SESSION, payload, channel
                )
            except NetworkError:
                return True
            if response is None:
                return True
        else:
            label = self._affinity.pop(session_id, None)
            if label is None:
                # Unknown session: answer the idempotent close locally
                # (the shards never saw the session either).
                response = (
                    codec.OK,
                    codec.encode_value(
                        {
                            "party": self.party,
                            "op": "close",
                            "session": session_id,
                        }
                    ),
                )
            else:
                try:
                    response = await self._forward(
                        label, codec.SESSION, payload, channel
                    )
                except NetworkError:
                    return True
        await codec.write_frame(writer, response[0], response[1])
        return False

    async def _query(
        self,
        frame_type: int,
        payload: bytes,
        writer: asyncio.StreamWriter,
        channel: _Channel,
    ) -> bool:
        """FETCH/VIEW and TELEMETRY: session-scoped to the session's
        shard, global aggregated across every shard."""
        session_id = requested_session(payload)
        if session_id is not None:
            label = self._affinity.get(session_id) or self.ring.owner(
                session_id
            )
            try:
                response = await self._forward(
                    label, frame_type, payload, channel
                )
            except NetworkError:
                return True
            if frame_type == codec.TELEMETRY and response[0] == \
                    codec.TELEMETRY_DATA:
                response = self._merge_telemetry([response[1]], session_id)
            await codec.write_frame(writer, response[0], response[1])
            return False
        payloads: list[bytes] = []
        expected = codec.VIEW if frame_type == codec.FETCH else \
            codec.TELEMETRY_DATA
        for label in self.shard_labels:
            try:
                shard_type, shard_payload = await self._forward(
                    label, frame_type, payload, channel
                )
            except NetworkError:
                continue  # a dead shard contributes nothing
            if shard_type == expected:
                payloads.append(shard_payload)
        if frame_type == codec.FETCH:
            view: list = []
            for shard_payload in payloads:
                part = codec.decode_value(shard_payload)
                if isinstance(part, list):
                    view.extend(part)
            await codec.write_frame(
                writer, codec.VIEW, codec.encode_value(view)
            )
            return False
        response = self._merge_telemetry(payloads, None)
        await codec.write_frame(writer, response[0], response[1])
        return False

    def _merge_telemetry(
        self, payloads: list[bytes], session_id: str | None
    ) -> tuple[int, bytes]:
        """Shard snapshots + the router's own spans, as one snapshot.

        This is the cross-shard stitching point: shard ``recv:`` spans
        and router ``route:`` spans share the client's trace ids, so
        the harvested result renders as one distributed trace.
        """
        spans: list[dict] = []
        merged = MetricsRegistry()
        for payload in payloads:
            snapshot = codec.decode_value(payload)
            if not isinstance(snapshot, dict):
                continue
            part = snapshot.get("spans", [])
            if isinstance(part, list):
                spans.extend(part)
            metrics = snapshot.get("metrics")
            if metrics:
                merged.merge(metrics)
        router_spans = [span.to_dict() for span in self.tracer.spans]
        if session_id is not None:
            router_spans = [
                span
                for span in router_spans
                if span.get("attributes", {}).get("session") == session_id
            ]
        spans.extend(router_spans)
        merged.merge(self.registry.snapshot())
        snapshot = {
            "party": self.party,
            "spans": spans,
            "metrics": merged.snapshot(),
            "exposition": prometheus_exposition(merged),
        }
        return codec.TELEMETRY_DATA, codec.encode_value(snapshot)

def fetch_router_stats(host: str, port: int, timeout: float = 10.0) -> dict:
    """One-shot STATS request against a running shard router.

    Used by ``repro loadgen --cluster --remote`` to fold per-shard
    routing statistics into the load report.
    """

    async def _fetch() -> dict:
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout
            )
        except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
            raise NetworkError(
                f"cannot reach router at {host}:{port}: {exc}"
            ) from exc
        try:
            await codec.write_frame(writer, codec.STATS, codec.encode_value({}))
            frame_type, payload = await codec.read_frame(reader, timeout)
        except asyncio.TimeoutError as exc:
            raise NetworkError(
                f"timed out after {timeout}s waiting for router stats from "
                f"{host}:{port}"
            ) from exc
        finally:
            writer.close()
        value = codec.decode_value(payload)
        if frame_type == codec.ERROR:
            detail = value.get("error") if isinstance(value, dict) else value
            raise NetworkError(
                f"endpoint at {host}:{port} reported: {detail} (is it a "
                f"shard router?)"
            )
        if frame_type != codec.STATS_DATA or not isinstance(value, dict):
            raise NetworkError(
                f"endpoint at {host}:{port} answered with unexpected frame "
                f"type 0x{frame_type:02x}"
            )
        return value

    return asyncio.run(_fetch())
