"""(t, n) threshold signatures built on Shamir secret sharing.

The paper's linear communication pattern (ingredient I3) relies on
threshold signatures: each replica produces a *signature share*
``s<v>_i`` and any ``nf`` shares from distinct replicas aggregate into a
single signature ``<v>`` that everyone can verify (Section II-A).
RESILIENTDB uses BLS; here we build a functional equivalent from Shamir
secret sharing over a prime field:

* setup samples a random polynomial ``f`` of degree ``t - 1`` over a
  256-bit prime field; the master secret is ``f(0)`` and replica ``i``
  holds the share ``f(i)``;
* the share of a signature on message ``m`` is ``f(i) * H(m) mod p``;
* since Lagrange interpolation is linear, interpolating ``t`` shares at
  ``x = 0`` yields ``f(0) * H(m) mod p`` — the aggregate signature;
* verification recomputes ``f(0) * H(m)`` from the scheme's public
  parameters.

The construction gives the exact aggregation semantics the protocols
need (fewer than ``t`` shares reveal nothing about the aggregate, shares
from distinct replicas are required, tampered shares break aggregation).
It is *not* a production signature scheme: the scheme object retains the
polynomial so it can verify shares, which a real BLS deployment would do
with public keys.  DESIGN.md documents this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Iterable, Optional, Sequence

from repro.crypto.hashing import digest, shared_digest

# secp256k1's field prime: any 256-bit prime works, this one is well known.
_PRIME = 2**256 - 2**32 - 977


class ThresholdError(Exception):
    """Raised when share aggregation or verification cannot proceed."""


@dataclass(frozen=True)
class SignatureShare:
    """One replica's share of a threshold signature.

    Attributes:
        index: the replica's share index (1-based).
        payload_digest: digest of the signed values.
        value: the share value ``f(index) * H(m) mod p``.
    """

    index: int
    payload_digest: bytes
    value: int

    def canonical_bytes(self) -> bytes:
        return b"|".join(
            [str(self.index).encode(), self.payload_digest, str(self.value).encode()]
        )


@dataclass(frozen=True)
class ThresholdSignature:
    """An aggregated threshold signature.

    Attributes:
        payload_digest: digest of the signed values.
        value: the aggregate value ``f(0) * H(m) mod p``.
        contributors: sorted tuple of share indices that were aggregated.
    """

    payload_digest: bytes
    value: int
    contributors: tuple

    def canonical_bytes(self) -> bytes:
        contributors = ",".join(str(i) for i in self.contributors)
        return b"|".join(
            [self.payload_digest, str(self.value).encode(), contributors.encode()]
        )


@lru_cache(maxsize=8192)
def _field_element(payload_digest: bytes) -> int:
    """Map a digest to a non-zero field element.

    Memoised: signing and verifying the same payload recurs once per
    replica per slot.
    """
    value = int.from_bytes(digest("threshold-message", payload_digest), "big") % _PRIME
    return value or 1


def _lagrange_coefficient_at_zero(index: int, indices: Sequence[int]) -> int:
    """Lagrange basis polynomial ``l_index(0)`` over the prime field."""
    numerator = 1
    denominator = 1
    for other in indices:
        if other == index:
            continue
        numerator = (numerator * (-other)) % _PRIME
        denominator = (denominator * (index - other)) % _PRIME
    return (numerator * pow(denominator, _PRIME - 2, _PRIME)) % _PRIME


@lru_cache(maxsize=4096)
def _lagrange_coefficients_at_zero(indices: tuple) -> tuple:
    """Coefficient vector ``(l_i(0) for i in indices)``, memoised.

    The primary aggregates the same quorum subsets over and over (the
    first ``nf`` responders are stable within a run), and each vector
    otherwise costs one 256-bit modular exponentiation per share.

    Uses Montgomery batch inversion so the whole vector needs a single
    modular exponentiation; the result is identical to calling
    :func:`_lagrange_coefficient_at_zero` per index.
    """
    numerators = []
    denominators = []
    for index in indices:
        numerator = 1
        denominator = 1
        for other in indices:
            if other == index:
                continue
            numerator = (numerator * (-other)) % _PRIME
            denominator = (denominator * (index - other)) % _PRIME
        numerators.append(numerator)
        denominators.append(denominator)
    count = len(denominators)
    prefix = [1] * (count + 1)
    for i in range(count):
        prefix[i + 1] = (prefix[i] * denominators[i]) % _PRIME
    inv_running = pow(prefix[count], _PRIME - 2, _PRIME)
    coefficients = [0] * count
    for i in range(count - 1, -1, -1):
        inv_denominator = (prefix[i] * inv_running) % _PRIME
        inv_running = (inv_running * denominators[i]) % _PRIME
        coefficients[i] = (numerators[i] * inv_denominator) % _PRIME
    return tuple(coefficients)


class ThresholdScheme:
    """System-wide (threshold, num_shares) signing scheme.

    Use :meth:`setup` to create a scheme, then hand each replica its share
    index.  Replicas call :meth:`sign_share`; the aggregator (the primary
    in PoE) calls :meth:`aggregate`; anyone calls :meth:`verify`.
    """

    def __init__(self, num_shares: int, threshold: int, coefficients: Sequence[int]):
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        if num_shares < threshold:
            raise ValueError("num_shares must be at least the threshold")
        if len(coefficients) != threshold:
            raise ValueError("need exactly `threshold` polynomial coefficients")
        self._num_shares = num_shares
        self._threshold = threshold
        self._coefficients = tuple(c % _PRIME for c in coefficients)
        self._shares: Dict[int, int] = {
            index: self._evaluate(index) for index in range(1, num_shares + 1)
        }
        self._secret_at_zero = self._evaluate(0)

    @classmethod
    def setup(cls, num_shares: int, threshold: int, seed: bytes) -> "ThresholdScheme":
        """Deterministically create a scheme from a seed (trusted setup)."""
        coefficients = []
        for degree in range(threshold):
            raw = digest("threshold-coefficient", seed, degree)
            coefficients.append(int.from_bytes(raw, "big") % _PRIME)
        return cls(num_shares=num_shares, threshold=threshold, coefficients=coefficients)

    @property
    def num_shares(self) -> int:
        return self._num_shares

    @property
    def threshold(self) -> int:
        return self._threshold

    def _evaluate(self, x: int) -> int:
        """Evaluate the secret polynomial at *x* (Horner's rule)."""
        result = 0
        for coefficient in reversed(self._coefficients):
            result = (result * x + coefficient) % _PRIME
        return result

    def share_value(self, index: int) -> int:
        """Return the raw secret share of replica *index* (1-based)."""
        if index not in self._shares:
            raise ThresholdError(f"share index {index} out of range 1..{self._num_shares}")
        return self._shares[index]

    def sign_share(self, index: int, *values: Any) -> SignatureShare:
        """Produce replica *index*'s signature share over *values*."""
        payload_digest = shared_digest(*values)
        message_element = _field_element(payload_digest)
        value = (self.share_value(index) * message_element) % _PRIME
        return SignatureShare(index=index, payload_digest=payload_digest, value=value)

    def verify_share(self, share: SignatureShare, *values: Any) -> bool:
        """Check that *share* is a valid share over *values*."""
        if not 1 <= share.index <= self._num_shares:
            return False
        payload_digest = shared_digest(*values)
        if payload_digest != share.payload_digest:
            return False
        message_element = _field_element(payload_digest)
        expected = (self._shares[share.index] * message_element) % _PRIME
        return expected == share.value

    def aggregate(self, shares: Iterable[SignatureShare]) -> ThresholdSignature:
        """Aggregate at least ``threshold`` shares into one signature.

        Raises:
            ThresholdError: if there are too few distinct shares, if shares
                sign different digests, or if any share value is corrupt
                (detected because the aggregate then fails verification).
        """
        share_list = list(shares)
        if not share_list:
            raise ThresholdError("cannot aggregate an empty set of shares")
        payload_digest = share_list[0].payload_digest
        by_index: Dict[int, SignatureShare] = {}
        for share in share_list:
            if share.payload_digest != payload_digest:
                raise ThresholdError("shares sign different payloads")
            by_index[share.index] = share
        if len(by_index) < self._threshold:
            raise ThresholdError(
                f"need {self._threshold} distinct shares, got {len(by_index)}"
            )
        indices = tuple(sorted(by_index)[: self._threshold])
        coefficients = _lagrange_coefficients_at_zero(indices)
        value = 0
        for index, coefficient in zip(indices, coefficients):
            value = (value + coefficient * by_index[index].value) % _PRIME
        signature = ThresholdSignature(
            payload_digest=payload_digest, value=value, contributors=tuple(indices)
        )
        if not self._verify_value(signature):
            raise ThresholdError("aggregation produced an invalid signature "
                                 "(corrupt share detected)")
        return signature

    def _verify_value(self, signature: ThresholdSignature) -> bool:
        message_element = _field_element(signature.payload_digest)
        expected = (self._secret_at_zero * message_element) % _PRIME
        return expected == signature.value

    def verify(self, signature: ThresholdSignature, *values: Any) -> bool:
        """Return ``True`` iff *signature* is a valid aggregate over *values*."""
        if shared_digest(*values) != signature.payload_digest:
            return False
        return self._verify_value(signature)

    def forge_without_quorum(self, indices: Sequence[int], *values: Any) -> Optional[ThresholdSignature]:
        """Best-effort forgery helper used by adversarial tests.

        Simulates what a coalition holding only *indices* (fewer than the
        threshold) could compute by interpolating the shares it has.  The
        result never verifies when ``len(indices) < threshold``, which the
        test suite asserts; returns ``None`` if interpolation is impossible.
        """
        distinct = sorted(set(indices))
        if not distinct:
            return None
        payload_digest = digest(*values)
        message_element = _field_element(payload_digest)
        value = 0
        for index in distinct:
            coefficient = _lagrange_coefficient_at_zero(index, distinct)
            value = (value + coefficient * self._shares[index] * message_element) % _PRIME
        return ThresholdSignature(
            payload_digest=payload_digest, value=value, contributors=tuple(distinct)
        )
