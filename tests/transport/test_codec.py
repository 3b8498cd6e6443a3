"""Unit tests for the binary wire codec: values, envelopes, framing."""

import pytest
from hypothesis import given, strategies as st

from repro.core.commutative import TaggedMessage
from repro.core.das import (
    EncryptedRelation,
    EncryptedTuple,
    ServerQuery,
    ServerResult,
)
from repro.crypto import hybrid
from repro.crypto.paillier import PaillierCiphertext, PaillierPublicKey
from repro.errors import EncodingError, NetworkError, ValueCodecError
from repro.relational.partition import IndexTable, Partition
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.transport import codec


def roundtrip(value):
    decoded = codec.decode_value(codec.encode_value(value))
    assert decoded == value
    return decoded


class TestPrimitives:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            255,
            -256,
            1 << 4096,
            -(1 << 4096),
            3.25,
            b"",
            b"\x00\xffpayload",
            "",
            "unicode ❤ text",
        ],
    )
    def test_scalar_roundtrip(self, value):
        decoded = roundtrip(value)
        assert type(decoded) is type(value)

    def test_bool_is_not_int(self):
        # bool is an int subclass; the tags must keep them apart.
        assert codec.decode_value(codec.encode_value(True)) is True
        assert codec.decode_value(codec.encode_value(1)) == 1
        assert codec.decode_value(codec.encode_value(1)) is not True

    @pytest.mark.parametrize(
        "value",
        [
            [],
            [1, "two", b"three", None],
            (1, (2, (3,))),
            {"k": [1, 2], b"raw": {"nested": True}},
            {1, 2, 3},
            frozenset({("role", "analyst"), ("clearance", "high")}),
            {b"token": b"ciphertext", b"other": b""},
        ],
    )
    def test_container_roundtrip(self, value):
        decoded = roundtrip(value)
        assert type(decoded) is type(value)

    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.binary(max_size=64),
                st.text(max_size=64),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.tuples(children, children),
                st.dictionaries(st.text(max_size=8), children, max_size=4),
            ),
            max_leaves=25,
        )
    )
    def test_random_trees_roundtrip(self, value):
        roundtrip(value)

    def test_unregistered_type_fails_loudly(self):
        class Strange:
            pass

        with pytest.raises(EncodingError, match="no wire encoding"):
            codec.encode_value(Strange())


class TestDomainExtensions:
    def test_hybrid_ciphertext(self, rsa_key):
        ciphertext = hybrid.encrypt([rsa_key.public_key()], b"tuple bytes")
        roundtrip(ciphertext)

    def test_credentials(self, client):
        roundtrip(client.credentials)

    def test_paillier_ciphertext_and_key(self, paillier_key):
        public = paillier_key.public_key
        from repro.crypto import paillier

        roundtrip(public)
        roundtrip([paillier.encrypt(public, m) for m in (0, 1, 12345)])

    def test_paillier_key_interned_once(self, paillier_key):
        from repro.crypto import paillier

        public = paillier_key.public_key
        one = codec.encode_value(paillier.encrypt(public, 1))
        many = codec.encode_value(
            [paillier.encrypt(public, m) for m in range(8)]
        )
        # Eight ciphertexts must cost far less than eight full keys: the
        # modulus travels once, references afterwards.
        key_bytes = (public.n.bit_length() + 7) // 8
        assert len(many) < 8 * len(one) - 6 * key_bytes

    def test_interned_key_is_shared_after_decode(self, paillier_key):
        from repro.crypto import paillier

        public = paillier_key.public_key
        decoded = codec.decode_value(
            codec.encode_value(
                [paillier.encrypt(public, m) for m in range(4)]
            )
        )
        keys = {id(ciphertext.public_key) for ciphertext in decoded}
        assert len(keys) == 1

    def test_index_table_with_salt_and_bounds(self):
        table = IndexTable(
            attribute="R1.k",
            entries=(
                (Partition(frozenset({1, 2}), bounds=(1, 2)), 7),
                (Partition(frozenset({5}), bounds=(3, 9)), 9),
            ),
            salt=b"\x01\x02salt",
        )
        decoded = roundtrip(table)
        assert decoded.salt == table.salt  # to_bytes() would drop this

    def test_das_structures(self, rsa_key):
        keys = [rsa_key.public_key()]
        row = EncryptedTuple(
            etuple=hybrid.encrypt(keys, b"row"),
            index_value=42,
            plain_values=("visible", 7),
        )
        relation = EncryptedRelation(source="S1", relation_name="R1", rows=(row,))
        roundtrip(relation)
        roundtrip(ServerQuery(pairs=((1, 2), (3, 4))))
        roundtrip(ServerResult(pairs=((row, row),)))

    def test_tagged_messages(self, rsa_key):
        keys = [rsa_key.public_key()]
        roundtrip(
            [
                TaggedMessage(tag=12345, payload=hybrid.encrypt(keys, b"x")),
                TaggedMessage(tag=9, payload=b"id-token"),
            ]
        )

    def test_relation(self):
        relation = Relation(
            schema("R1", k="int", a="string"), [(1, "x"), (2, "y")]
        )
        roundtrip(relation)


#: A well-formed envelope; the rejection tests below break one slot.
GOOD = (3, "S1", "mediator", "kind", {"a": 1}, None, "abcd:3", "feedc0de00000001")


def _rejected_by_both(envelope) -> None:
    """Both envelope readers refuse the encoded tuple with a value error."""
    payload = codec.encode_value(envelope)
    with pytest.raises(ValueCodecError):
        codec.decode_envelope(payload)
    with pytest.raises(ValueCodecError):
        codec.peek_envelope(payload)


class TestEnvelopeAndFraming:
    def test_envelope_roundtrip(self):
        payload = codec.encode_envelope(*GOOD)
        assert codec.decode_envelope(payload) == GOOD
        assert codec.peek_envelope(payload) == GOOD[:4] + (None,) + GOOD[5:]

    def test_envelope_roundtrip_with_request_id(self):
        payload = codec.encode_envelope(
            7, "S1", "mediator", "kind", {"a": 1}, None, "abcd:7", "cafe"
        )
        assert codec.decode_envelope(payload)[6] == "abcd:7"

    def test_envelope_roundtrip_with_session_id(self):
        payload = codec.encode_envelope(
            9, "S1", "mediator", "kind", {"a": 1},
            ("t" * 32, "s" * 16), "abcd:9", "feedc0de00000001",
        )
        assert codec.decode_envelope(payload) == (
            9, "S1", "mediator", "kind", {"a": 1},
            ("t" * 32, "s" * 16), "abcd:9", "feedc0de00000001",
        )

    def test_session_only_envelope_roundtrip(self):
        """Untraced, bodiless: still the full eight-slot shape."""
        payload = codec.encode_envelope(
            2, "S1", "mediator", "kind", None, None, "abcd:2", "cafe"
        )
        assert payload == codec.encode_value(
            (2, "S1", "mediator", "kind", None, None, "abcd:2", "cafe")
        )
        assert codec.decode_envelope(payload) == (
            2, "S1", "mediator", "kind", None, None, "abcd:2", "cafe",
        )

    def test_malformed_session_id_rejected(self):
        bad = codec.encode_value((1, "a", "b", "k", None, None, "r:1", 7))
        with pytest.raises(EncodingError, match="session"):
            codec.decode_envelope(bad)
        empty = codec.encode_value((1, "a", "b", "k", None, None, "r:1", ""))
        with pytest.raises(EncodingError, match="session"):
            codec.decode_envelope(empty)

    def test_malformed_envelope_rejected(self):
        with pytest.raises(EncodingError, match="envelope"):
            codec.decode_envelope(codec.encode_value(("not", "an", "envelope")))

    @pytest.mark.parametrize("length", [5, 6, 7, 9])
    def test_every_other_length_is_rejected(self, length):
        _rejected_by_both((GOOD + ("extra",))[:length])

    @pytest.mark.parametrize("slot", [6, 7], ids=["request_id", "session_id"])
    @pytest.mark.parametrize("value", [None, ""], ids=["none", "empty"])
    def test_missing_ids_are_rejected(self, slot, value):
        envelope = list(GOOD)
        envelope[slot] = value
        _rejected_by_both(tuple(envelope))

    def test_frame_roundtrip(self):
        frame = codec.build_frame(codec.DATA, b"payload")
        assert len(frame) == codec.FRAME_HEADER_BYTES + len(b"payload")
        frame_type, length = codec.parse_frame_header(
            frame[: codec.FRAME_HEADER_BYTES]
        )
        assert (frame_type, length) == (codec.DATA, len(b"payload"))

    @pytest.mark.parametrize(
        "header",
        [
            b"XX\x01\x01\x00\x00\x00\x00",  # bad magic
            b"SM\x02\x01\x00\x00\x00\x00",  # unsupported version
            b"SM\x01\x63\x00\x00\x00\x00",  # unknown frame type
            b"SM\x01\x01\xff\xff\xff\xff",  # absurd length
            b"short",
        ],
    )
    def test_bad_frame_headers_rejected(self, header):
        with pytest.raises(NetworkError):
            codec.parse_frame_header(header)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(EncodingError, match="trailing"):
            codec.decode_value(codec.encode_value(1) + b"\x00")

    def test_truncated_value_rejected(self):
        encoded = codec.encode_value([1, 2, 3])
        with pytest.raises(EncodingError):
            codec.decode_value(encoded[:-1])

    def test_encoded_size_matches_encoding(self):
        value = {"modulus": 1 << 127, "hash_tag": b"tag"}
        assert codec.encoded_size(value) == len(codec.encode_value(value))
