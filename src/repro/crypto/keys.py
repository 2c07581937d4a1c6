"""Key material management for replicas and clients.

A :class:`KeyStore` holds everything one principal (replica or client)
needs to authenticate messages:

* a private signing secret (for the digital-signature scheme),
* pairwise MAC secrets shared with every other principal, each derived
  the first time it is used, so set-up stays O(n) in a deployment of
  O(n²) pairs,
* a threshold-signature share of the system-wide threshold key.

:func:`generate_system_keys` performs the trusted-setup step that the
paper assumes (every BFT system needs some key distribution); it is
deterministic given a seed so simulations are reproducible.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, Optional

from repro.crypto.threshold import ThresholdScheme


def _derive(seed: bytes, *labels: str) -> bytes:
    """Derive a 32-byte secret from *seed* and a label path: an HMAC-SHA256
    chain, one link per label."""
    material = seed
    for label in labels:
        material = hmac.digest(material, label.encode("utf-8"), "sha256")
    return material


class PairSecrets(Dict[str, bytes]):
    """One principal's pairwise MAC secrets, derived on first lookup.

    ``table[peer]`` derives the secret from *seed* and the sorted pair the
    first time *peer* is asked for and keeps it, so both ends of a pair
    hold the same bytes whichever asks first.  The owner and ids outside
    *members* raise :class:`KeyError`.
    """

    def __init__(self, seed: bytes, owner: str, members: AbstractSet[str]):
        super().__init__()
        self.seed = seed
        self.owner = owner
        self.members = members

    def __missing__(self, peer: str) -> bytes:
        if peer == self.owner or peer not in self.members:
            raise KeyError(peer)
        secret = self[peer] = _derive(self.seed, "mac", min(self.owner, peer),
                                      max(self.owner, peer))
        return secret


@dataclass
class KeyStore:
    """Key material held by a single principal.

    Attributes:
        owner: identifier of the principal (e.g. ``"replica:3"``).
        signing_secret: private secret for digital signatures.
        mac_secrets: map of peer identifier to the shared pairwise
            secret, each derived on first lookup.
        threshold: the system threshold scheme (public parameters).
        threshold_index: this principal's share index, or ``None`` for
            principals (clients) that hold no share.
    """

    owner: str
    signing_secret: bytes
    mac_secrets: PairSecrets
    threshold: Optional[ThresholdScheme] = None
    threshold_index: Optional[int] = None

    def mac_secret_for(self, peer: str) -> bytes:
        """Return the pairwise secret shared with *peer*.

        Raises:
            KeyError: if *peer* is this principal or outside the
                deployment.
        """
        return self.mac_secrets[peer]


def generate_system_keys(
    replica_ids: Iterable[str],
    client_ids: Iterable[str] = (),
    threshold: Optional[int] = None,
    seed: bytes = b"poe-repro-system-seed",
) -> Dict[str, KeyStore]:
    """Provision key material for a whole system.

    Signing secrets and threshold shares are derived here; a pairwise
    MAC secret is derived the first time either end of the pair uses it.

    Args:
        replica_ids: identifiers of the replicas; each receives a threshold
            share (index assigned in iteration order, starting at 1).
        client_ids: identifiers of clients; clients get signing and MAC
            secrets but no threshold share.  Every id, replica or client,
            must appear once.
        threshold: number of shares needed to aggregate a threshold
            signature.  Defaults to ``n - f`` with ``f = (n - 1) // 3``,
            which is the paper's ``nf`` quorum.
        seed: deterministic seed for reproducible simulations.

    Returns:
        Mapping from principal identifier to its :class:`KeyStore`.

    Raises:
        ValueError: if there is no replica, or an id is listed twice.
    """
    replicas = list(replica_ids)
    clients = list(client_ids)
    everyone = replicas + clients
    n = len(replicas)
    if n == 0:
        raise ValueError("at least one replica identifier is required")
    seen = set()
    for owner in everyone:
        if owner in seen:
            raise ValueError(f"principal {owner!r} is listed more than once")
        seen.add(owner)
    members = frozenset(seen)
    if threshold is None:
        f = (n - 1) // 3
        threshold = n - f

    scheme = ThresholdScheme.setup(
        num_shares=n, threshold=threshold, seed=_derive(seed, "threshold")
    )

    stores: Dict[str, KeyStore] = {}
    for index, owner in enumerate(everyone):
        stores[owner] = KeyStore(
            owner=owner,
            signing_secret=_derive(seed, "sign", owner),
            mac_secrets=PairSecrets(seed, owner, members),
            threshold=scheme,
            threshold_index=index + 1 if index < n else None,
        )
    return stores
