"""Cryptographic substrate for the PoE reproduction.

The paper (Section IV-C) lets replicas authenticate messages with either
symmetric MACs (CMAC+AES in RESILIENTDB) or asymmetric schemes (ED25519
digital signatures, BLS threshold signatures).  This package provides
functional, pure-Python equivalents with the same API shape:

* :mod:`repro.crypto.hashing` -- SHA-256 digests over structured values.
* :mod:`repro.crypto.mac` -- pairwise HMAC-SHA256 message authentication.
* :mod:`repro.crypto.signatures` -- keyed digital-signature scheme
  (functional stand-in for ED25519: per-signer secret, public verification
  through a registry).
* :mod:`repro.crypto.threshold` -- (t, n) threshold signatures built on
  Shamir secret sharing over a prime field (functional stand-in for BLS:
  `nf` shares from distinct replicas aggregate into one verifiable
  signature).
* :mod:`repro.crypto.authenticator` -- scheme-agnostic facade used by the
  protocols, mirroring PoE's "signature agnostic" design (ingredient I3).
* :mod:`repro.crypto.cost` -- calibratable CPU-cost model so the discrete
  event simulator can charge realistic relative costs per operation
  (calibrated against the paper's Figure 8).
"""

from repro.crypto.hashing import digest
from repro.crypto.keys import KeyStore, generate_system_keys
from repro.crypto.mac import MacAuthenticator, MacTag
from repro.crypto.signatures import SignatureScheme, Signature
from repro.crypto.threshold import (
    ThresholdScheme,
    SignatureShare,
    ThresholdSignature,
    ThresholdError,
)
from repro.crypto.authenticator import (
    Authenticator,
    SchemeKind,
    make_authenticators,
)
from repro.crypto.cost import CryptoCostModel, CryptoOp

__all__ = [
    "digest",
    "KeyStore",
    "generate_system_keys",
    "MacAuthenticator",
    "MacTag",
    "SignatureScheme",
    "Signature",
    "ThresholdScheme",
    "SignatureShare",
    "ThresholdSignature",
    "ThresholdError",
    "Authenticator",
    "SchemeKind",
    "make_authenticators",
    "CryptoCostModel",
    "CryptoOp",
]
