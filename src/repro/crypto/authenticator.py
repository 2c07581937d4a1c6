"""Scheme-agnostic authenticator facade.

PoE's ingredient I3 is that the protocol is *signature agnostic*: small
deployments can run entirely on MACs (one phase of all-to-all
communication), larger ones use threshold signatures to linearise the
communication.  The :class:`Authenticator` bundles the three primitive
schemes behind one object per principal, so protocol code simply asks its
authenticator for the primitive it needs and the deployment decides the
configuration.  Threshold signatures are the scheme's own calls
(``auth.threshold.sign_share(auth.threshold_index, ...)``, ``verify``,
``aggregate``): every principal holds the one system scheme.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional

from repro.crypto.keys import generate_system_keys
from repro.crypto.mac import MacAuthenticator, MacTag
from repro.crypto.signatures import Signature, SignatureScheme, build_registry
from repro.crypto.threshold import ThresholdScheme


class SchemeKind(enum.Enum):
    """Which authentication flavour a protocol deployment uses.

    MACS: replicas authenticate pairwise; PoE then needs one all-to-all
        SUPPORT phase (Appendix A of the paper).
    THRESHOLD: replicas produce threshold shares that the primary
        aggregates; communication stays linear (Section II-B).
    """

    MACS = "macs"
    THRESHOLD = "threshold"


@dataclass
class Authenticator:
    """All authentication primitives held by one principal.

    Attributes:
        owner: principal identifier.
        mac: pairwise MAC authenticator.
        signatures: digital-signature scheme (sign as owner, verify anyone).
        threshold: the system threshold scheme.
        threshold_index: this principal's share index, ``None`` for clients.
    """

    owner: str
    mac: MacAuthenticator
    signatures: SignatureScheme
    threshold: ThresholdScheme
    threshold_index: Optional[int] = None

    # -- digital signatures -------------------------------------------------
    def sign(self, *values: Any) -> Signature:
        """Digitally sign *values* as this principal."""
        return self.signatures.sign(*values)

    def verify(self, signature: Signature, *values: Any) -> bool:
        """Verify a digital signature from any principal."""
        return self.signatures.verify(signature, *values)

    # -- MACs ---------------------------------------------------------------
    def mac_sign(self, receiver: str, *values: Any) -> MacTag:
        """Authenticate *values* for one specific receiver."""
        return self.mac.sign(receiver, *values)

    def mac_verify(self, tag: MacTag, *values: Any) -> bool:
        """Verify a MAC tag addressed to this principal."""
        return self.mac.verify(tag, *values)


def make_authenticators(
    replica_ids: Iterable[str],
    client_ids: Iterable[str] = (),
    threshold: Optional[int] = None,
    seed: bytes = b"poe-repro-system-seed",
) -> Dict[str, Authenticator]:
    """Provision authenticators for every replica and client in a system.

    This is the one-stop trusted setup used by tests, examples and the
    fabric: it generates key material (:func:`generate_system_keys`),
    builds the shared verification-key registry and wraps everything in
    per-principal :class:`Authenticator` objects.
    """
    keystores = generate_system_keys(
        replica_ids=replica_ids,
        client_ids=client_ids,
        threshold=threshold,
        seed=seed,
    )
    registry = build_registry(keystores)
    authenticators: Dict[str, Authenticator] = {}
    for owner, store in keystores.items():
        authenticators[owner] = Authenticator(
            owner=owner,
            mac=MacAuthenticator(store),
            signatures=SignatureScheme(store, registry),
            threshold=store.threshold,
            threshold_index=store.threshold_index,
        )
    return authenticators
