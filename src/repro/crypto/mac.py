"""Pairwise message authentication codes (MACs).

RESILIENTDB uses CMAC+AES for replica-to-replica authentication
(Section IV-C); here we use HMAC-SHA256 from the standard library, which
offers the same interface semantics: a sender authenticates a message for
one specific receiver using their shared pairwise secret, and only that
receiver can verify it.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any

from repro.crypto.hashing import digest
from repro.crypto.keys import KeyStore


@dataclass(frozen=True)
class MacTag:
    """An authentication tag produced by :class:`MacAuthenticator`.

    Attributes:
        sender: identifier of the authenticating principal.
        receiver: identifier of the intended verifier.
        tag: the raw HMAC bytes.
    """

    sender: str
    receiver: str
    tag: bytes

    def canonical_bytes(self) -> bytes:
        # Length-prefixed, so a ``|`` inside an id cannot move a field
        # boundary: ("a|b", "c") and ("a", "b|c") must encode apart.
        sender, receiver = self.sender.encode(), self.receiver.encode()
        return b"%d|%b%d|%b%b" % (len(sender), sender, len(receiver), receiver,
                                   self.tag)


class MacAuthenticator:
    """Creates and verifies pairwise MAC tags for one principal."""

    def __init__(self, keystore: KeyStore):
        self._keys = keystore

    @property
    def owner(self) -> str:
        return self._keys.owner

    def sign(self, receiver: str, *values: Any) -> MacTag:
        """Authenticate *values* for *receiver*."""
        secret = self._keys.mac_secret_for(receiver)
        tag = hmac.new(secret, digest(*values), hashlib.sha256).digest()
        return MacTag(sender=self._keys.owner, receiver=receiver, tag=tag)

    def verify(self, tag: MacTag, *values: Any) -> bool:
        """Verify a tag addressed to this principal.

        Returns ``False`` for tags addressed to someone else, from unknown
        peers, or whose bytes do not match.
        """
        if tag.receiver != self._keys.owner:
            return False
        try:
            secret = self._keys.mac_secret_for(tag.sender)
        except KeyError:
            return False
        expected = hmac.new(secret, digest(*values), hashlib.sha256).digest()
        return hmac.compare_digest(expected, tag.tag)
