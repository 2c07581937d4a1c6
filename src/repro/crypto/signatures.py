"""Digital-signature scheme used for client requests and view-change messages.

The paper uses ED25519 for client signatures and for messages that must be
forwarded without tampering (VC-REQUEST).  We provide a functional
stand-in with the same API: every signer holds a private secret; verifiers
hold a registry of *verification keys*.  Internally the verification key
is derived from the signing secret via one-way hashing and the signature
binds the message digest to that key, so signatures can be checked by
anyone holding the registry but not forged without the signing secret
(within the limits of a pure-Python, non-production construction).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Dict

from repro.crypto.hashing import digest, digest_bytes
from repro.crypto.keys import KeyStore


class InvalidSignature(Exception):
    """Raised when strict verification of a signature fails."""


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
        # Derived once: a client signs every transaction it issues.
        self._key = verification_key(keystore.signing_secret)
        self._owner_bytes = keystore.owner.encode()

    def sign(self, *values: Any) -> Signature:
        """Sign *values* with the local principal's secret."""
        payload_digest = digest(*values)
        tag = hmac.digest(self._key, self._owner_bytes + payload_digest, "sha256")
        return Signature(self.owner, payload_digest, tag)

    def sign_digest(self, value: bytes) -> Signature:
        """:meth:`sign` over one ``bytes`` value (a client signs its
        transaction's digest), without the generic canonicalisation."""
        payload_digest = digest_bytes(value)
        tag = hmac.digest(self._key, self._owner_bytes + payload_digest, "sha256")
        return Signature(self.owner, payload_digest, tag)

    def verify(self, signature: Signature, *values: Any) -> bool:
        """Return ``True`` iff *signature* is valid for *values*."""
        key = self._registry.get(signature.signer)
        if key is None:
            return False
        payload_digest = digest(*values)
        if payload_digest != signature.payload_digest:
            return False
        expected = hmac.digest(
            key, signature.signer.encode() + payload_digest, "sha256")
        return hmac.compare_digest(expected, signature.tag)

    def require_valid(self, signature: Signature, *values: Any) -> None:
        """Verify and raise :class:`InvalidSignature` on failure."""
        if not self.verify(signature, *values):
            raise InvalidSignature(
                f"invalid signature from {signature.signer!r} "
                f"verified by {self.owner!r}"
            )


def build_registry(keystores: Dict[str, KeyStore]) -> Dict[str, bytes]:
    """Build the shared verification-key registry for a set of keystores."""
    return {
        owner: verification_key(store.signing_secret)
        for owner, store in keystores.items()
    }
