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
:meth:`SignatureScheme.sign_digests` call, which hashes the digests and
tags them in one loop each (:meth:`HmacSha256.tags`); signing one value
is the one-element case.  A
:class:`SignatureScheme` builds the state of a key on its first use, so a
principal that never signs or verifies pays nothing for it, and drops it
when pickled: a SHA-256 state does not pickle, and the parallel driver
ships deployments to worker processes.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.crypto.hashing import digest, digests_of_bytes
from repro.crypto.keys import KeyStore

#: SHA-256's block size, and the byte maps that XOR a padded key with
#: RFC 2104's inner and outer pad bytes.
_BLOCK = 64
_INNER_PAD = bytes(byte ^ 0x36 for byte in range(256))
_OUTER_PAD = bytes(byte ^ 0x5C for byte in range(256))


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

    def tags(self, messages: Iterable[bytes]) -> List[bytes]:
        """The tag of each message, the kept states read once."""
        kept_inner, kept_outer = self._inner, self._outer
        tags: List[bytes] = []
        append = tags.append
        for message in messages:
            inner = kept_inner.copy()
            inner.update(message)
            outer = kept_outer.copy()
            outer.update(inner.digest())
            append(outer.digest())
        return tags

    def tag(self, message: bytes) -> bytes:
        return self.tags((message,))[0]


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
        transactions' digests), without the generic canonicalisation and
        with the key's kept HMAC state read once for the whole list."""
        payload_digests = digests_of_bytes(values)
        owner_bytes = self._owner_bytes
        tags = (self._signer or self._own_hmac()).tags(
            [owner_bytes + payload_digest for payload_digest in payload_digests])
        return list(map(Signature, repeat(self.owner), payload_digests, tags))

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
