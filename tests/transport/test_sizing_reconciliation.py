"""Reconcile structural size estimates against actual wire encodings.

The in-process bus accounts bytes with :func:`~repro.mediation.sizing
.estimate_size` plus a flat ``ENVELOPE_BYTES`` constant; the TCP
transport counts actual frame bytes.  These tests pin the drift between
the two accountings for every message kind the three protocols produce:

* the structural estimate is a **lower bound** on the codec encoding
  (the codec only adds tags and length prefixes, it never compresses);
* the encoding exceeds the estimate by at most **40% plus 256 bytes**
  (the additive term absorbs small control messages whose fixed framing
  dominates the payload);
* the real per-message envelope overhead (frame header + sequence +
  routing strings + request and session ids, built exactly as
  :meth:`~repro.transport.tcp.TcpTransport.send` builds them) stays
  within **16 bytes** of ``ENVELOPE_BYTES``.

If a codec or sizing change moves outside these bounds, either fix the
regression or re-derive the documented tolerance — consciously.
"""

import pytest

from repro import Federation, run_join_query
from repro.mediation.access_control import allow_all
from repro.mediation.network import ENVELOPE_BYTES
from repro.mediation.sizing import estimate_size
from repro.session import new_session_id
from repro.transport import codec

QUERY = "select * from R1 natural join R2"
PROTOCOLS = ["das", "commutative", "private-matching"]

#: Documented drift bound: estimate <= actual <= RATIO*estimate + SLACK.
RATIO = 1.4
SLACK = 256
#: ENVELOPE_BYTES must sit within this distance of real frame overhead.
ENVELOPE_TOLERANCE = 16


@pytest.fixture(scope="module")
def transcripts(ca, client, workload):
    """One bus transcript per protocol (messages carry live bodies)."""
    runs = {}
    for protocol in PROTOCOLS:
        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        run_join_query(federation, QUERY, protocol=protocol)
        runs[protocol] = list(federation.network.transcript)
    return runs


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_estimate_is_lower_bound_within_tolerance(transcripts, protocol):
    for message in transcripts[protocol]:
        estimate = estimate_size(message.body)
        actual = codec.encoded_size(message.body)
        assert estimate <= actual, (
            f"{message.kind}: structural estimate {estimate} exceeds the "
            f"actual encoding {actual} — estimate_size over-counts"
        )
        bound = RATIO * estimate + SLACK
        assert actual <= bound, (
            f"{message.kind}: actual encoding {actual} exceeds documented "
            f"tolerance {bound:.0f} over estimate {estimate}"
        )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_envelope_constant_matches_frame_overhead(transcripts, protocol):
    # The envelope TcpTransport.send puts on the wire for an untraced
    # run: an "<8 hex>:<sequence>" request id and a 16-hex session id.
    origin, session_id = "0" * 8, new_session_id()
    for message in transcripts[protocol]:
        payload = codec.encode_envelope(
            message.sequence,
            message.sender,
            message.receiver,
            message.kind,
            message.body,
            None,
            f"{origin}:{message.sequence}",
            session_id,
        )
        frame_bytes = codec.FRAME_HEADER_BYTES + len(payload)
        overhead = frame_bytes - codec.encoded_size(message.body)
        assert abs(overhead - ENVELOPE_BYTES) <= ENVELOPE_TOLERANCE, (
            f"{message.kind}: real envelope overhead {overhead} drifted "
            f"from ENVELOPE_BYTES={ENVELOPE_BYTES}"
        )


def test_every_protocol_kind_is_covered(transcripts):
    """The drift bounds above are only meaningful if they actually saw
    every message kind the protocols emit."""
    kinds = {m.kind for run in transcripts.values() for m in run}
    assert {
        "global_query",
        "partial_query",
        "das_encrypted_index_tables",
        "das_server_query",
        "das_server_result",
        "das_encrypted_partial_result",
        "commutative_setup",
        "commutative_exchange",
        "commutative_double",
        "commutative_m_set",
        "commutative_result",
        "pm_homomorphic_key",
        "pm_encrypted_coefficients",
        "pm_evaluations",
        "pm_side_table",
        "pm_side_tables",
    } <= kinds
