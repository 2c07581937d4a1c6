"""Digital-signature scheme used for client requests and view-change messages.

The paper uses ED25519 for client signatures and for messages that must be
forwarded without tampering (VC-REQUEST).  We provide a functional
stand-in with the same API: every signer holds a private secret; verifiers
hold a registry of *verification keys*.  Internally the verification key
is derived from the signing secret via one-way hashing and the signature
binds the message digest to that key, so signatures can be checked by
anyone holding the registry but not forged without the signing secret
(within the limits of a pure-Python, non-production construction).

The tag is ``HMAC-SHA256(key, signer || digest)``.  A client tags every
transaction it issues, and a replica that checks a client's transactions
tags each under that client's key, so each key's HMAC state is kept:
:class:`HmacSha256` hashes the key's inner and outer padded blocks once
and tags a message by copying those two SHA-256 states (RFC 2104 without
re-deriving the pads per call; ``tests/test_crypto_primitives.py`` holds
it to ``hmac.digest`` over keys on both sides of the 64-byte block).  A
client signs a whole batch's transaction digests in one
:meth:`SignatureScheme.sign_digests` call, which hashes and tags each
digest in one loop.  A
:class:`SignatureScheme` builds the state of a key on its first use, so a
principal that never signs or verifies pays nothing for it, and drops it
when pickled or copied, because a SHA-256 state does not pickle.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence

from repro.crypto.hashing import build_columns, digest, encode_head
from repro.crypto.keys import KeyStore

#: SHA-256's block size, and the byte maps that XOR a padded key with
#: RFC 2104's inner and outer pad bytes.
_BLOCK = 64
_INNER_PAD = bytes(byte ^ 0x36 for byte in range(256))
_OUTER_PAD = bytes(byte ^ 0x5C for byte in range(256))

#: ``digest(value)``'s bytes for one ``bytes`` value, up to its length.
_PAYLOAD_HEAD = encode_head(1) + b"B"


class HmacSha256:
    """HMAC-SHA256 under one key, its padded key blocks hashed once.

    ``HmacSha256(key).tag(message) == hmac.digest(key, message, "sha256")``
    for every key and message: a key longer than the block is hashed
    first, as RFC 2104 says, and the per-call work is two state copies and
    two SHA-256 finalisations.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        if len(key) > _BLOCK:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_BLOCK, b"\0")
        self._inner = hashlib.sha256(key.translate(_INNER_PAD))
        self._outer = hashlib.sha256(key.translate(_OUTER_PAD))

    def tag(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


@dataclass(frozen=True, slots=True)
class Signature:
    """A digital signature over a message digest.

    Attributes:
        signer: identifier of the signing principal.
        payload_digest: digest of the signed values.
        tag: binding of the digest to the signer's verification key.
    """

    signer: str
    payload_digest: bytes
    tag: bytes

    def canonical_bytes(self) -> bytes:
        # Length-prefixed, as ``MacTag``'s, so a ``|`` inside the signer or
        # the digest cannot move a field boundary.
        signer, payload = self.signer.encode(), self.payload_digest
        return b"%d|%b%d|%b%b" % (len(signer), signer, len(payload), payload,
                                   self.tag)


def verification_key(signing_secret: bytes) -> bytes:
    """Derive the public verification key from a signing secret."""
    return hashlib.sha256(b"verification-key" + signing_secret).digest()


class SignatureScheme:
    """Signs values with one principal's secret and verifies any signature.

    Args:
        keystore: key material of the local principal (used for signing).
        registry: map of principal identifier to verification key.  The
            registry is shared by all principals in a deployment; see
            :func:`build_registry`.
    """

    def __init__(self, keystore: KeyStore, registry: Dict[str, bytes]):
        self.owner = keystore.owner
        self._registry = registry
        self._signing_secret = keystore.signing_secret
        self._owner_bytes = keystore.owner.encode()
        #: The HMAC state of this principal's own key and of each key it
        #: verified under (keyed by the key, so a registry entry that
        #: changes is a new key); built on first use.
        self._signer: Optional[HmacSha256] = None
        self._verifiers: Dict[bytes, HmacSha256] = {}

    def __getstate__(self) -> Dict[str, Any]:
        # SHA-256 states do not pickle; the copy rebuilds them on first use.
        return {**self.__dict__, "_signer": None, "_verifiers": {}}

    def _own_hmac(self) -> HmacSha256:
        self._signer = HmacSha256(verification_key(self._signing_secret))
        return self._signer

    def sign(self, *values: Any) -> Signature:
        """Sign *values* with the local principal's secret."""
        payload_digest = digest(*values)
        tag = (self._signer or self._own_hmac()).tag(
            self._owner_bytes + payload_digest)
        return Signature(self.owner, payload_digest, tag)

    def sign_digests(self, values: Sequence[bytes]) -> List[Signature]:
        """:meth:`sign` over each one ``bytes`` value (a client signs its
        transactions' digests), without the generic canonicalisation.

        One loop hashes each payload, ``digest(value)``, from a SHA-256
        state that absorbed its constant head once, and tags it from an
        inner HMAC state that absorbed the signer's name once."""
        hasher = self._signer or self._own_hmac()
        signer_inner = hasher._inner.copy()
        signer_inner.update(self._owner_bytes)
        kept_outer = hasher._outer
        kept_head = hashlib.sha256(_PAYLOAD_HEAD)
        payload_digests: List[bytes] = []
        tags: List[bytes] = []
        add_payload, add_tag = payload_digests.append, tags.append
        for value in values:
            payload = kept_head.copy()
            payload.update(len(value).to_bytes(8, "big") + value)
            payload_digest = payload.digest()
            add_payload(payload_digest)
            inner = signer_inner.copy()
            inner.update(payload_digest)
            outer = kept_outer.copy()
            outer.update(inner.digest())
            add_tag(outer.digest())
        return build_columns(Signature, len(tags), signer=repeat(self.owner),
                             payload_digest=payload_digests, tag=tags)

    def verify(self, signature: Signature, *values: Any) -> bool:
        """Return ``True`` iff *signature* is valid for *values*."""
        key = self._registry.get(signature.signer)
        if key is None:
            return False
        payload_digest = digest(*values)
        if payload_digest != signature.payload_digest:
            return False
        keyed = self._verifiers.get(key)
        if keyed is None:
            keyed = self._verifiers[key] = HmacSha256(key)
        expected = keyed.tag(signature.signer.encode() + payload_digest)
        return hmac.compare_digest(expected, signature.tag)


def build_registry(keystores: Dict[str, KeyStore]) -> Dict[str, bytes]:
    """Build the shared verification-key registry for a set of keystores."""
    return {
        owner: verification_key(store.signing_secret)
        for owner, store in keystores.items()
    }
