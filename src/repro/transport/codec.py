"""Length-prefixed binary codec for protocol messages.

Everything the three delivery protocols put on the bus — ciphertexts,
index tables, tagged message sets, encrypted polynomial coefficients,
credentials — must survive a real wire.  This module defines:

* a **value codec**: a recursive, type-tagged binary encoding of the
  payload trees the protocols exchange (primitives, containers, and a
  registry of domain extension types),
* an **envelope codec**: the ``(sequence, sender, receiver, kind, body,
  trace, request_id, session_id)`` tuple every transmitted message is
  wrapped in — ``trace`` is the ``(trace_id, span_id)`` distributed
  trace context or ``None`` (see ``docs/observability.md``),
  ``request_id`` the token endpoints deduplicate re-deliveries on (see
  ``docs/robustness.md``), and ``session_id`` the id endpoints key
  per-session protocol state by (see ``docs/transport.md``),
* **framing**: an 8-byte frame header (magic, version, frame type,
  payload length) plus asyncio stream helpers.

Wire format (all integers big-endian)::

    frame   := magic(2) version(1) type(1) length(4) payload(length)
    payload := value                      -- one encoded value tree
    value   := tag(1) tag-specific-body

Value tags::

    0x00 None            0x01 False           0x02 True
    0x03 int    u32 length + signed big-endian two's complement
    0x04 float  IEEE-754 double (8 bytes)
    0x05 bytes  u32 length + raw
    0x06 str    u32 length + UTF-8
    0x07 list   u32 count + values       0x08 tuple  (same body)
    0x09 dict   u32 count + key/value value pairs
    0x0A set    u32 count + values       0x0B frozenset (same body)
    0x0C ext    u8 name length + ASCII name + packed value
    0x0D ref    u32 index into the stream's interning table

**Extensions** cover the domain types (hybrid/Paillier/ElGamal/EC
ciphertexts, index tables, DAS relations, credentials, ...).  Public
keys, groups, and curves are **interned**: the first occurrence in a
stream is encoded in full and appended to an interning table that both
encoder and decoder maintain in stream order; later occurrences encode
as a 5-byte ``ref``.  A message carrying a thousand Paillier ciphertexts
therefore ships the public modulus once, not a thousand times — this is
what keeps actual wire bytes close to the structural estimates of
:func:`repro.mediation.sizing.estimate_size`.

The registry is populated lazily on first use so that importing the
codec does not drag in the whole protocol stack.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, Callable

from repro.errors import CodecError, FrameCodecError, ValueCodecError

# -- framing constants --------------------------------------------------------

MAGIC = b"SM"
VERSION = 1
#: magic(2) + version(1) + frame type(1) + payload length(4).
FRAME_HEADER_BYTES = 8
#: Refuse frames above this size instead of exhausting memory.
MAX_FRAME_BYTES = 1 << 30
#: Refuse value trees nested deeper than this instead of recursing into
#: a RecursionError on adversarial input.  Protocol payloads nest a
#: handful of levels; 64 leaves a wide margin.
MAX_VALUE_DEPTH = 64

# Frame types.
DATA = 0x01    # one protocol message envelope
ACK = 0x02     # receipt acknowledgement for a DATA frame
HELLO = 0x03   # endpoint handshake request
OK = 0x04      # handshake / control success
FETCH = 0x05   # request the endpoint's recorded view
VIEW = 0x06    # response to FETCH
TELEMETRY = 0x07       # request the endpoint's spans and metrics
TELEMETRY_DATA = 0x08  # response to TELEMETRY
SESSION = 0x09         # session lifecycle control (open / close)
BUSY = 0x0A    # endpoint at session capacity: back off and retry
STATS = 0x0B           # request a shard router's routing statistics
STATS_DATA = 0x0C      # response to STATS
ERROR = 0x7F   # remote failure report

_FRAME_TYPES = {
    DATA, ACK, HELLO, OK, FETCH, VIEW,
    TELEMETRY, TELEMETRY_DATA, SESSION, BUSY, STATS, STATS_DATA, ERROR,
}

# -- value tags ---------------------------------------------------------------

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_BYTES = 0x05
_T_STR = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_SET = 0x0A
_T_FROZENSET = 0x0B
_T_EXT = 0x0C
_T_REF = 0x0D

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")


class _Extension:
    """One registered domain type: how to take it apart and rebuild it."""

    __slots__ = ("name", "cls", "pack", "unpack", "shareable")

    def __init__(
        self,
        name: str,
        cls: type,
        pack: Callable[[Any], Any],
        unpack: Callable[[Any], Any],
        shareable: bool = False,
    ) -> None:
        self.name = name
        self.cls = cls
        self.pack = pack
        self.unpack = unpack
        self.shareable = shareable


_BY_NAME: dict[str, _Extension] = {}
_BY_CLS: dict[type, _Extension] = {}
_BOOTSTRAPPED = False


def _register(
    name: str,
    cls: type,
    pack: Callable[[Any], Any],
    unpack: Callable[[Any], Any],
    shareable: bool = False,
) -> None:
    extension = _Extension(name, cls, pack, unpack, shareable)
    _BY_NAME[name] = extension
    _BY_CLS[cls] = extension


def _bootstrap() -> None:
    """Register every domain type the protocols put on the wire.

    Imports happen here, not at module load, so the codec stays cheap to
    import and free of circular-import hazards.
    """
    global _BOOTSTRAPPED
    if _BOOTSTRAPPED:
        return
    _BOOTSTRAPPED = True

    from repro.core.commutative import TaggedMessage
    from repro.core.das import (
        EncryptedRelation,
        EncryptedTuple,
        ServerQuery,
        ServerResult,
    )
    from repro.crypto.commutative import CommutativeGroup
    from repro.crypto.ec import Curve, Point
    from repro.crypto.ecelgamal import ECElGamalCiphertext, ECElGamalPublicKey
    from repro.crypto.elgamal import ElGamalCiphertext, ElGamalPublicKey
    from repro.crypto.hybrid import HybridCiphertext
    from repro.crypto.paillier import PaillierCiphertext, PaillierPublicKey
    from repro.crypto.rsa import RSAPublicKey
    from repro.mediation.credentials import Credential
    from repro.relational.encoding import decode_relation, encode_relation
    from repro.relational.partition import IndexTable, Partition
    from repro.relational.relation import Relation

    _register(
        "hybrid-ct",
        HybridCiphertext,
        lambda c: (dict(c.wrapped_keys), c.body),
        lambda t: HybridCiphertext(wrapped_keys=t[0], body=t[1]),
    )
    _register(
        "rsa-pub",
        RSAPublicKey,
        lambda k: (k.n, k.e),
        lambda t: RSAPublicKey(n=t[0], e=t[1]),
        shareable=True,
    )
    _register(
        "paillier-pub",
        PaillierPublicKey,
        lambda k: (k.n,),
        lambda t: PaillierPublicKey(n=t[0]),
        shareable=True,
    )
    _register(
        "paillier-ct",
        PaillierCiphertext,
        lambda c: (c.value, c.public_key),
        lambda t: PaillierCiphertext(value=t[0], public_key=t[1]),
    )
    _register(
        "qr-group",
        CommutativeGroup,
        lambda g: (g.p,),
        lambda t: CommutativeGroup(p=t[0]),
        shareable=True,
    )
    _register(
        "elgamal-pub",
        ElGamalPublicKey,
        lambda k: (k.group, k.g, k.h),
        lambda t: ElGamalPublicKey(group=t[0], g=t[1], h=t[2]),
        shareable=True,
    )
    _register(
        "elgamal-ct",
        ElGamalCiphertext,
        lambda c: (c.c1, c.c2, c.public_key),
        lambda t: ElGamalCiphertext(c1=t[0], c2=t[1], public_key=t[2]),
    )
    _register(
        "curve",
        Curve,
        lambda c: (c.name, c.p, c.a, c.b, c.gx, c.gy, c.n),
        lambda t: Curve(
            name=t[0], p=t[1], a=t[2], b=t[3], gx=t[4], gy=t[5], n=t[6]
        ),
        shareable=True,
    )
    _register(
        "ec-point",
        Point,
        lambda p: (p.curve, p.x, p.y),
        lambda t: Point(t[0], t[1], t[2]),
    )
    _register(
        "ecelgamal-pub",
        ECElGamalPublicKey,
        lambda k: (k.curve, k.h),
        lambda t: ECElGamalPublicKey(curve=t[0], h=t[1]),
        shareable=True,
    )
    _register(
        "ecelgamal-ct",
        ECElGamalCiphertext,
        lambda c: (c.c1, c.c2, c.public_key),
        lambda t: ECElGamalCiphertext(c1=t[0], c2=t[1], public_key=t[2]),
    )
    _register(
        "credential",
        Credential,
        lambda c: (c.properties, c.public_key, c.issuer, c.signature),
        lambda t: Credential(
            properties=t[0], public_key=t[1], issuer=t[2], signature=t[3]
        ),
    )
    _register(
        "partition",
        Partition,
        lambda p: (p.values, p.bounds),
        lambda t: Partition(values=t[0], bounds=t[1]),
    )
    _register(
        "index-table",
        IndexTable,
        lambda i: (i.attribute, i.entries, i.salt),
        lambda t: IndexTable(attribute=t[0], entries=t[1], salt=t[2]),
    )
    _register(
        "das-tuple",
        EncryptedTuple,
        lambda e: (e.etuple, e.index_value, e.plain_values),
        lambda t: EncryptedTuple(
            etuple=t[0], index_value=t[1], plain_values=t[2]
        ),
    )
    _register(
        "das-relation",
        EncryptedRelation,
        lambda r: (r.source, r.relation_name, r.rows),
        lambda t: EncryptedRelation(
            source=t[0], relation_name=t[1], rows=t[2]
        ),
    )
    _register(
        "das-server-query",
        ServerQuery,
        lambda q: (q.pairs,),
        lambda t: ServerQuery(pairs=t[0]),
    )
    _register(
        "das-server-result",
        ServerResult,
        lambda r: (r.pairs,),
        lambda t: ServerResult(pairs=t[0]),
    )
    _register(
        "tagged-message",
        TaggedMessage,
        lambda m: (m.tag, m.payload),
        lambda t: TaggedMessage(tag=t[0], payload=t[1]),
    )
    _register(
        "relation",
        Relation,
        lambda r: encode_relation(r),
        lambda data: decode_relation(data),
    )


class _Encoder:
    """One encoding pass; owns the stream's interning table."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []
        self._interned: dict[int, int] = {}  # id(obj) -> table index
        self._keepalive: list[Any] = []      # ids stay valid while we run
        self._next_index = 0

    def encode(self, value: Any) -> bytes:
        self._value(value)
        return b"".join(self._chunks)

    # -- emit helpers -----------------------------------------------------

    def _tag(self, tag: int) -> None:
        self._chunks.append(bytes((tag,)))

    def _u32(self, value: int) -> None:
        self._chunks.append(_U32.pack(value))

    def _sized(self, tag: int, data: bytes) -> None:
        self._tag(tag)
        self._u32(len(data))
        self._chunks.append(data)

    def _items(self, tag: int, items: Any, count: int) -> None:
        self._tag(tag)
        self._u32(count)
        for item in items:
            self._value(item)

    # -- dispatch ---------------------------------------------------------

    def _value(self, value: Any) -> None:
        if value is None:
            self._tag(_T_NONE)
        elif value is True:
            self._tag(_T_TRUE)
        elif value is False:
            self._tag(_T_FALSE)
        elif type(value) is int:
            length = (value.bit_length() + 8) // 8  # room for the sign bit
            self._sized(_T_INT, value.to_bytes(max(1, length), "big", signed=True))
        elif type(value) is float:
            self._tag(_T_FLOAT)
            self._chunks.append(_F64.pack(value))
        elif isinstance(value, (bytes, bytearray)):
            self._sized(_T_BYTES, bytes(value))
        elif type(value) is str:
            self._sized(_T_STR, value.encode("utf-8"))
        elif type(value) is list:
            self._items(_T_LIST, value, len(value))
        elif type(value) is tuple:
            self._items(_T_TUPLE, value, len(value))
        elif type(value) is dict:
            self._tag(_T_DICT)
            self._u32(len(value))
            for key, item in value.items():
                self._value(key)
                self._value(item)
        elif type(value) is set:
            self._items(_T_SET, _canonical(value), len(value))
        elif type(value) is frozenset:
            self._items(_T_FROZENSET, _canonical(value), len(value))
        else:
            self._extension(value)

    def _extension(self, value: Any) -> None:
        _bootstrap()
        extension = _BY_CLS.get(type(value))
        if extension is None:
            raise ValueCodecError(
                f"no wire encoding registered for {type(value).__name__}"
            )
        if extension.shareable:
            index = self._interned.get(id(value))
            if index is not None:
                self._tag(_T_REF)
                self._u32(index)
                return
            self._interned[id(value)] = self._next_index
            self._keepalive.append(value)
            self._next_index += 1
        name = extension.name.encode("ascii")
        self._tag(_T_EXT)
        self._chunks.append(bytes((len(name),)))
        self._chunks.append(name)
        self._value(extension.pack(value))


def _canonical(items: Any) -> list:
    """Deterministic set ordering, so equal sets encode identically."""
    return sorted(items, key=lambda item: (type(item).__name__, repr(item)))


class _Decoder:
    """One decoding pass over a complete buffer.

    Hardened against adversarial input: every structural implausibility
    (truncation, impossible container counts, over-deep nesting, a
    domain constructor choking on a malformed payload) raises
    :class:`~repro.errors.ValueCodecError` — never a hang, an
    ``assert``, or a raw :class:`RecursionError`.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0
        self._depth = 0
        self._interned: list[Any] = []

    def decode(self) -> Any:
        value = self._value()
        if self._offset != len(self._data):
            raise ValueCodecError(
                f"{len(self._data) - self._offset} trailing bytes after value"
            )
        return value

    # -- read helpers -----------------------------------------------------

    def _take(self, count: int) -> bytes:
        end = self._offset + count
        if end > len(self._data):
            raise ValueCodecError("truncated value encoding")
        chunk = self._data[self._offset:end]
        self._offset = end
        return chunk

    def _u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def _count(self, per_item_bytes: int = 1) -> int:
        """A container count, sanity-checked against the bytes left.

        Every encoded element costs at least one tag byte, so a count
        exceeding the remaining buffer is a corrupt or adversarial
        length — reject it before allocating anything.
        """
        count = self._u32()
        remaining = len(self._data) - self._offset
        if count * per_item_bytes > remaining:
            raise ValueCodecError(
                f"container claims {count} elements but only {remaining} "
                f"bytes remain"
            )
        return count

    # -- dispatch ---------------------------------------------------------

    def _value(self) -> Any:
        self._depth += 1
        if self._depth > MAX_VALUE_DEPTH:
            raise ValueCodecError(
                f"value tree deeper than {MAX_VALUE_DEPTH} levels"
            )
        try:
            return self._dispatch()
        finally:
            self._depth -= 1

    def _dispatch(self) -> Any:
        tag = self._take(1)[0]
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            return int.from_bytes(self._take(self._u32()), "big", signed=True)
        if tag == _T_FLOAT:
            return _F64.unpack(self._take(8))[0]
        if tag == _T_BYTES:
            return self._take(self._u32())
        if tag == _T_STR:
            try:
                return self._take(self._u32()).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueCodecError(f"malformed UTF-8 string: {exc}") from exc
        if tag == _T_LIST:
            return [self._value() for _ in range(self._count())]
        if tag == _T_TUPLE:
            return tuple(self._value() for _ in range(self._count()))
        if tag == _T_DICT:
            count = self._count(per_item_bytes=2)
            result = {}
            try:
                for _ in range(count):
                    key = self._value()
                    result[key] = self._value()
            except TypeError as exc:  # unhashable decoded key
                raise ValueCodecError(f"unhashable dict key: {exc}") from exc
            return result
        if tag == _T_SET:
            try:
                return {self._value() for _ in range(self._count())}
            except TypeError as exc:
                raise ValueCodecError(f"unhashable set element: {exc}") from exc
        if tag == _T_FROZENSET:
            try:
                return frozenset(
                    self._value() for _ in range(self._count())
                )
            except TypeError as exc:
                raise ValueCodecError(f"unhashable set element: {exc}") from exc
        if tag == _T_EXT:
            return self._ext()
        if tag == _T_REF:
            index = self._u32()
            if index >= len(self._interned):
                raise ValueCodecError(f"dangling interning reference {index}")
            return self._interned[index]
        raise ValueCodecError(f"unknown value tag 0x{tag:02x}")

    def _ext(self) -> Any:
        _bootstrap()
        name_length = self._take(1)[0]
        try:
            name = self._take(name_length).decode("ascii")
        except UnicodeDecodeError as exc:
            raise ValueCodecError(f"malformed extension name: {exc}") from exc
        extension = _BY_NAME.get(name)
        if extension is None:
            raise ValueCodecError(f"unknown wire extension {name!r}")
        packed = self._value()
        try:
            value = extension.unpack(packed)
        except CodecError:
            raise
        except Exception as exc:
            # A domain constructor rejecting a malformed payload is a
            # codec failure at this boundary, not a caller bug.
            raise ValueCodecError(
                f"malformed {name!r} extension payload: {exc}"
            ) from exc
        if extension.shareable:
            self._interned.append(value)
        return value


# -- public value/envelope API -----------------------------------------------

def encode_value(value: Any) -> bytes:
    """Encode one payload tree to bytes."""
    return _Encoder().encode(value)


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`.

    Total on arbitrary input: any failure to decode — including
    surprises escaping domain-type constructors — surfaces as a
    :class:`~repro.errors.CodecError` subclass.
    """
    try:
        return _Decoder(data).decode()
    except CodecError:
        raise
    except Exception as exc:
        raise ValueCodecError(f"undecodable value stream: {exc}") from exc


def encoded_size(value: Any) -> int:
    """Actual number of payload bytes :func:`encode_value` produces."""
    return len(encode_value(value))


def encode_envelope(
    sequence: int,
    sender: str,
    receiver: str,
    kind: str,
    body: Any,
    trace: tuple[str, str] | None,
    request_id: str,
    session_id: str,
) -> bytes:
    """Encode one message envelope (the payload of a DATA frame).

    Every envelope has the same eight slots.  ``trace`` is the
    ``(trace_id, span_id)`` pair of the sender-side span this message
    belongs to, or ``None`` outside a traced run.  ``request_id`` is a
    globally unique delivery token: endpoints deduplicate DATA frames on
    it, which is what makes sender-side re-delivery after an ambiguous
    failure safe (see ``docs/robustness.md``).  ``session_id`` names the
    client session the message belongs to; endpoints key all
    per-session protocol state (views, dedupe windows, telemetry) by it
    (see ``docs/transport.md``).
    """
    return encode_value(
        (sequence, sender, receiver, kind, body, trace, request_id, session_id)
    )


def decode_envelope(
    data: bytes,
) -> tuple[int, str, str, str, Any, tuple[str, str] | None, str, str]:
    """Inverse of :func:`encode_envelope`, with shape validation."""
    return _validated_envelope(decode_value(data))


def _validated_envelope(
    envelope: Any,
) -> tuple[int, str, str, str, Any, tuple[str, str] | None, str, str]:
    """Check a decoded envelope: an 8-tuple, each slot its own type."""
    if (
        not isinstance(envelope, tuple)
        or len(envelope) != 8
        or not isinstance(envelope[0], int)
        or not all(isinstance(part, str) for part in envelope[1:4])
    ):
        raise ValueCodecError("malformed message envelope")
    _, _, _, _, _, trace, request_id, session_id = envelope
    if trace is not None and (
        not isinstance(trace, tuple)
        or len(trace) != 2
        or not all(isinstance(part, str) for part in trace)
    ):
        raise ValueCodecError("malformed envelope trace context")
    if not isinstance(request_id, str) or not request_id:
        raise ValueCodecError("malformed envelope request id")
    if not isinstance(session_id, str) or not session_id:
        raise ValueCodecError("malformed envelope session id")
    return envelope


class _Skimmer:
    """Structural skim of an encoded envelope: routing fields only.

    The shard router must read an envelope's addressing slots —
    sequence, sender, receiver, kind, trace, request id, session id —
    without paying for (or depending on) the body: protocol bodies are
    the expensive part of a frame and decoding them would drag the
    whole extension registry (and thus the crypto stack) into the
    router process.  The skimmer decodes only scalar slots and *skips*
    everything else by walking tags and lengths; it never touches the
    extension registry.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0
        self._depth = 0

    # -- read helpers (mirrors _Decoder) ----------------------------------

    def _take(self, count: int) -> bytes:
        end = self._offset + count
        if end > len(self._data):
            raise ValueCodecError("truncated value encoding")
        chunk = self._data[self._offset:end]
        self._offset = end
        return chunk

    def _u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def _count(self, per_item_bytes: int = 1) -> int:
        count = self._u32()
        remaining = len(self._data) - self._offset
        if count * per_item_bytes > remaining:
            raise ValueCodecError(
                f"container claims {count} elements but only {remaining} "
                f"bytes remain"
            )
        return count

    def _skip(self) -> None:
        """Skip one encoded value without materializing it."""
        self._depth += 1
        if self._depth > MAX_VALUE_DEPTH:
            raise ValueCodecError(
                f"value tree deeper than {MAX_VALUE_DEPTH} levels"
            )
        try:
            tag = self._take(1)[0]
            if tag in (_T_NONE, _T_TRUE, _T_FALSE):
                return
            if tag in (_T_INT, _T_BYTES, _T_STR):
                self._take(self._u32())
            elif tag == _T_FLOAT:
                self._take(8)
            elif tag in (_T_LIST, _T_TUPLE, _T_SET, _T_FROZENSET):
                for _ in range(self._count()):
                    self._skip()
            elif tag == _T_DICT:
                for _ in range(self._count(per_item_bytes=2)):
                    self._skip()
                    self._skip()
            elif tag == _T_EXT:
                self._take(self._take(1)[0])  # extension name
                self._skip()                  # packed payload
            elif tag == _T_REF:
                self._take(4)
            else:
                raise ValueCodecError(f"unknown value tag 0x{tag:02x}")
        finally:
            self._depth -= 1

    def _scalar(self) -> Any:
        """Decode one routing-slot value: None, int, str, or a tuple of
        those (the trace pair).  Anything else is a malformed slot."""
        tag = self._take(1)[0]
        if tag == _T_NONE:
            return None
        if tag == _T_INT:
            return int.from_bytes(self._take(self._u32()), "big", signed=True)
        if tag == _T_STR:
            try:
                return self._take(self._u32()).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueCodecError(f"malformed UTF-8 string: {exc}") from exc
        if tag == _T_TUPLE:
            return tuple(self._scalar() for _ in range(self._count()))
        raise ValueCodecError(
            f"unexpected tag 0x{tag:02x} in an envelope routing slot"
        )

    def peek(self) -> tuple:
        """The envelope tuple with the body slot replaced by ``None``."""
        tag = self._take(1)[0]
        if tag != _T_TUPLE:
            raise ValueCodecError("malformed message envelope")
        if self._count() != 8:
            raise ValueCodecError("malformed message envelope")
        slots: list[Any] = []
        for index in range(8):
            if index == 4:
                self._skip()       # the body — never decoded
                slots.append(None)
            else:
                slots.append(self._scalar())
        if self._offset != len(self._data):
            raise ValueCodecError(
                f"{len(self._data) - self._offset} trailing bytes after value"
            )
        return tuple(slots)


def peek_envelope(
    data: bytes,
) -> tuple[int, str, str, str, None, tuple[str, str] | None, str, str]:
    """Routing fields of an encoded envelope, without decoding the body.

    Same 8-tuple as :func:`decode_envelope` — ``(sequence, sender,
    receiver, kind, body, trace, request_id, session_id)`` — except the
    body slot is always ``None``.  The body bytes are length-skipped,
    never decoded, so peeking is cheap on arbitrarily large protocol
    payloads and works without the domain extension registry (the shard
    router routes frames it cannot — and must not — interpret).
    """
    try:
        envelope = _Skimmer(data).peek()
    except CodecError:
        raise
    except Exception as exc:
        raise ValueCodecError(f"undecodable value stream: {exc}") from exc
    return _validated_envelope(envelope)


# -- framing ------------------------------------------------------------------

def build_frame(frame_type: int, payload: bytes) -> bytes:
    """Prepend the 8-byte frame header to an encoded payload."""
    if frame_type not in _FRAME_TYPES:
        raise FrameCodecError(f"unknown frame type 0x{frame_type:02x}")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameCodecError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return MAGIC + bytes((VERSION, frame_type)) + _U32.pack(len(payload)) + payload


def parse_frame_header(header: bytes) -> tuple[int, int]:
    """Validate a frame header; returns ``(frame_type, payload_length)``."""
    if len(header) != FRAME_HEADER_BYTES:
        raise FrameCodecError("short frame header")
    if header[:2] != MAGIC:
        raise FrameCodecError(f"bad frame magic {header[:2]!r}")
    if header[2] != VERSION:
        raise FrameCodecError(f"unsupported wire version {header[2]}")
    frame_type = header[3]
    if frame_type not in _FRAME_TYPES:
        raise FrameCodecError(f"unknown frame type 0x{frame_type:02x}")
    length = _U32.unpack(header[4:8])[0]
    if length > MAX_FRAME_BYTES:
        raise FrameCodecError(f"frame of {length} bytes exceeds the size limit")
    return frame_type, length


async def read_frame(
    reader: asyncio.StreamReader, timeout: float | None = None
) -> tuple[int, bytes]:
    """Read one complete frame; raises :class:`FrameCodecError` on EOF/garbage.

    ``timeout`` bounds each of the two reads; ``asyncio.TimeoutError``
    propagates to the caller, which maps it onto the failure being
    diagnosed (ack timeout, dead peer, ...).
    """
    try:
        header = await asyncio.wait_for(
            reader.readexactly(FRAME_HEADER_BYTES), timeout
        )
        frame_type, length = parse_frame_header(header)
        payload = await asyncio.wait_for(reader.readexactly(length), timeout)
    except asyncio.IncompleteReadError as exc:
        raise FrameCodecError("connection closed mid-frame") from exc
    return frame_type, payload


async def write_frame(
    writer: asyncio.StreamWriter, frame_type: int, payload: bytes
) -> None:
    """Write one frame and flush."""
    writer.write(build_frame(frame_type, payload))
    await writer.drain()
