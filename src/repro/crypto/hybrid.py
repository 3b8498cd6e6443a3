"""Hybrid encryption — the paper's ``encrypt(...)`` / ``decrypt(...)``.

Section 2: *"This information is best encrypted with a hybrid encryption
scheme; that is, the information is encrypted with a newly generated
symmetric session key and the session key is encrypted with the public
keys of the client."*

The construction here is KEM/DEM: a fresh 64-byte session key encrypts the
payload with ChaCha20+HMAC (:mod:`repro.crypto.symmetric`) and is wrapped
under each client public key with RSA-OAEP.  A credential may present
several public keys; the session key is wrapped once per key, keyed by key
fingerprint, so the client can unwrap with whichever private key matches.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.crypto import instrumentation, rsa, symmetric
from repro.crypto.hashes import fingerprint
from repro.crypto.numtheory import int_to_bytes
from repro.errors import DecryptionError


def key_fingerprint(public_key: rsa.RSAPublicKey) -> bytes:
    """Stable 16-byte identifier of an RSA public key."""
    material = int_to_bytes(public_key.n) + b"/" + int_to_bytes(public_key.e)
    return fingerprint(material)


def recipient_digest(public_keys: Iterable[rsa.RSAPublicKey]) -> bytes:
    """Order-free 16-byte digest of a recipient key set.

    Index-cache slots of hybrid ciphertexts embed it, so a ciphertext is
    never served to a different credential set.
    """
    fingerprints = sorted(key_fingerprint(key) for key in public_keys)
    return hashlib.sha256(b"".join(fingerprints)).digest()[:16]


@dataclass(frozen=True)
class HybridCiphertext:
    """Session key wrapped per recipient key, plus the DEM body."""

    wrapped_keys: Mapping[bytes, bytes]  # key fingerprint -> OAEP blob
    body: bytes

    def size_bytes(self) -> int:
        """Total serialized size (what travels over the message bus)."""
        wrapped = sum(len(k) + len(v) for k, v in self.wrapped_keys.items())
        return wrapped + len(self.body)


def encrypt(
    public_keys: Iterable[rsa.RSAPublicKey],
    plaintext: bytes,
    associated_data: bytes = b"",
) -> HybridCiphertext:
    """Hybrid-encrypt ``plaintext`` to the holder of any listed key."""
    keys = list(public_keys)
    if not keys:
        raise DecryptionError("hybrid encryption requires at least one key")
    instrumentation.record("hybrid.encrypt")
    session_key = symmetric.generate_key()
    body = symmetric.encrypt(session_key, plaintext, associated_data)
    wrapped = {
        key_fingerprint(key): rsa.oaep_encrypt(key, session_key) for key in keys
    }
    return HybridCiphertext(wrapped_keys=wrapped, body=body)


def decrypt(
    private_key: rsa.RSAPrivateKey,
    ciphertext: HybridCiphertext,
    associated_data: bytes = b"",
    use_crt: bool = True,
) -> bytes:
    """Unwrap the session key with ``private_key`` and decrypt the body."""
    instrumentation.record("hybrid.decrypt")
    fp = key_fingerprint(private_key.public_key())
    wrapped = ciphertext.wrapped_keys.get(fp)
    if wrapped is None:
        raise DecryptionError("no session key wrapped for this private key")
    session_key = rsa.oaep_decrypt(private_key, wrapped, use_crt)
    return symmetric.decrypt(session_key, ciphertext.body, associated_data)


def session_encrypt(session_key: bytes, plaintext: bytes) -> bytes:
    """DEM-only encryption under an explicit session key.

    Used by the footnote-2 variant of the private-matching protocol: the
    session key itself travels inside the homomorphic payload while the
    (possibly large) tuple set is encrypted symmetrically and shipped in
    a side table.
    """
    instrumentation.record("hybrid.session_encrypt")
    return symmetric.encrypt(session_key, plaintext)


def session_decrypt(session_key: bytes, ciphertext: bytes) -> bytes:
    """Inverse of :func:`session_encrypt`."""
    instrumentation.record("hybrid.session_decrypt")
    return symmetric.decrypt(session_key, ciphertext)


def wrapped_key_size(public_key: rsa.RSAPublicKey) -> int:
    """Size in bytes of one wrapped session key under ``public_key``."""
    return public_key.modulus_bytes
