"""The benchmark's workloads and the deployments they run against.

A :class:`Deployment` is one complete set-up: fresh 1024-bit keys, the
generated relations wired into a federation, the TCP endpoint trio or
the SQLite store where the workload has one, and a warm-up query.  One
closed-loop client session then drives it.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro import CertificationAuthority, Federation, setup_client
from repro.core import runner
from repro.core.commutative import CommutativeConfig
from repro.core.das import DASConfig
from repro.core.private_matching import PMConfig
from repro.crypto.engine import CryptoEngine
from repro.errors import ReproError
from repro.mediation.access_control import allow_all
from repro.mediation.client import default_homomorphic_scheme
from repro.mediation.network import Network
from repro.relational.encoding import encode_relation
from repro.storage import SQLiteBackend
from repro.transport import RetryPolicy, TcpTransport

from gen import RelationPair

QUERY = "select * from R1 natural join R2"
#: RSA, Paillier and commutative-group modulus size.
KEY_BITS = 1024
#: A session writes one S1 row before every WRITE_EVERY-th query.
WRITE_EVERY = 4
#: One-row writes per write step, alternating insert and delete; odd, so
#: each step leaves the row toggled once.  A single write takes 0.05-2 ms,
#: too little to time steadily on its own.
WRITE_BURST = 9
TRIO = ("mediator", "S1", "S2")


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    transport: str  # "bus" or "tcp"
    storage: bool
    domain: int
    overlap: int
    rows_per_value: int
    key_type: str

    def config(self):
        if self.protocol == "commutative":
            return CommutativeConfig(group_bits=KEY_BITS)
        if self.protocol == "das":
            return DASConfig(strategy="equi_depth", buckets=4)
        return PMConfig()

    def shape(self) -> str:
        store = "sqlite" if self.storage else "no storage"
        return (f"{self.protocol}, {self.transport}, {store}, {self.key_type} "
                f"join domain {self.domain}/source, overlap {self.overlap}, "
                f"{self.rows_per_value} rows/value, one client session, "
                f"one S1 write before every {WRITE_EVERY}th query")


#: Domains are sized so one query takes 0.1-1 s with 1024-bit keys on a
#: 2-CPU host: 20 or more queries fit a 20 s window, and a full
#: comparison (92 runs of set-up plus window) fits in under an hour.
#: series-sqlite runs about 60 queries, so its tail percentile (about
#: p83) lands on the queries that follow a write, one in four.
WORKLOADS = {w.name: w for w in (
    Workload("comm-bus", "commutative", "bus", False, 32, 16, 2, "string"),
    Workload("das-tcp", "das", "tcp", False, 40, 20, 2, "int"),
    Workload("pm-bus", "private-matching", "bus", False, 8, 4, 1, "int"),
    Workload("series-sqlite", "commutative", "bus", True, 40, 20, 2, "string"),
)}


class Session:
    """One closed-loop client: its federation, transport and expectation."""

    def __init__(self, federation: Federation, engine: CryptoEngine,
                 workload: Workload, pair: RelationPair) -> None:
        self.federation = federation
        self.engine = engine
        self.workload = workload
        self.pair = pair
        self.config = workload.config()
        self.session_id = "bench" if workload.transport == "tcp" else None
        self.row_inserted = False
        self.expected = b""
        self.refresh_reference()

    def refresh_reference(self) -> None:
        self.expected = encode_relation(runner.reference_join(self.federation, QUERY))

    def query(self, recorder=None) -> tuple[float, bool, int, int, str]:
        """Run the query once and check it against the reference.

        Returns (seconds, correct, messages, wire bytes, error); only the
        ``run_join_query`` call is timed, inside ``recorder.root()`` when
        a recorder is given.
        """
        network = self.federation.network
        before = len(network.transcript)
        began = time.perf_counter()
        try:
            with recorder.root() if recorder is not None else nullcontext():
                result = runner.run_join_query(
                    self.federation, QUERY, protocol=self.workload.protocol,
                    config=self.config, engine=self.engine,
                    session_id=self.session_id)
        except ReproError as exc:
            return (time.perf_counter() - began, False, 0, 0,
                    f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - began
        sent = network.transcript[before:]
        ok = encode_relation(result.global_result) == self.expected
        return (seconds, ok, len(sent), sum(m.size_bytes for m in sent),
                "" if ok else "result differs from reference_join")

    def write(self) -> None:
        """Insert the write row into S1, or delete it again (alternating)."""
        source = self.federation.sources["S1"]
        if self.row_inserted:
            source.delete_rows("R1", [self.pair.write_row])
        else:
            source.insert_rows("R1", [self.pair.write_row])
        self.row_inserted = not self.row_inserted


class Deployment:
    """One set-up of a workload; :meth:`close` releases it."""

    def __init__(self, workload: Workload, pair: RelationPair, workdir: str,
                 tag: str) -> None:
        self.workload = workload
        self.hub: TcpTransport | None = None
        self.network: TcpTransport | Network | None = None
        self.storage: SQLiteBackend | None = None
        self.db_path = os.path.join(workdir, f"series-{tag}.db")
        try:
            self.session = self._build(pair)
        except BaseException:
            self.close()
            raise

    def _build(self, pair: RelationPair) -> Session:
        workload = self.workload
        ca = CertificationAuthority(key_bits=KEY_BITS)
        scheme = (default_homomorphic_scheme(KEY_BITS)
                  if workload.protocol == "private-matching" else None)
        client = setup_client(ca, "bench-client", {("role", "analyst")},
                              rsa_bits=KEY_BITS, homomorphic_scheme=scheme)
        if workload.storage:
            self._remove_store()
            self.storage = SQLiteBackend(self.db_path)
        if workload.transport == "tcp":
            retry = RetryPolicy(io_timeout=60.0)
            self.hub = TcpTransport(retry=retry)
            for party in TRIO:
                self.hub.register(party)
            self.network = TcpTransport(
                endpoints={party: self.hub.endpoint_of(party) for party in TRIO},
                retry=retry)
        else:
            self.network = Network()
        federation = Federation(ca=ca, network=self.network, storage=self.storage)
        federation.add_source("S1", [(pair.relation_1, allow_all())])
        federation.add_source("S2", [(pair.relation_2, allow_all())])
        federation.attach_client(client)
        session = Session(federation, CryptoEngine(workers=0), workload, pair)
        _, ok, _, _, error = session.query()
        if not ok:
            raise RuntimeError(f"warm-up query failed: {error}")
        return session

    def cache_stats(self) -> dict[str, int]:
        """Index-cache hits, misses and errors summed over the sources."""
        totals = {"hits": 0, "misses": 0, "errors": 0}
        for source in self.session.federation.sources.values():
            cache = source.index_cache()
            if cache is not None:
                for key in totals:
                    totals[key] += getattr(cache.stats, key)
        return totals

    def stored_bytes(self) -> int:
        return sum(os.path.getsize(self.db_path + suffix)
                   for suffix in ("", "-wal")
                   if os.path.exists(self.db_path + suffix))

    def _remove_store(self) -> None:
        for suffix in ("", "-wal", "-shm", "-journal"):
            if os.path.exists(self.db_path + suffix):
                os.remove(self.db_path + suffix)

    def close(self) -> None:
        for transport in (self.network, self.hub):
            if transport is not None:
                transport.close()
        if self.storage is not None:
            self.storage.close()
            self._remove_store()
