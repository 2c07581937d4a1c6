"""Tests for the Shamir-based threshold signature scheme."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.authenticator import make_authenticators
from repro.crypto.threshold import (
    SignatureShare,
    ThresholdError,
    ThresholdScheme,
)


@pytest.fixture(scope="module")
def scheme():
    return ThresholdScheme.setup(num_shares=7, threshold=5, seed=b"threshold-tests")


class TestSetup:
    def test_setup_is_deterministic(self):
        a = ThresholdScheme.setup(4, 3, seed=b"x")
        b = ThresholdScheme.setup(4, 3, seed=b"x")
        assert a.sign_share(1, "m") == b.sign_share(1, "m")

    def test_different_seeds_give_different_shares(self):
        a = ThresholdScheme.setup(4, 3, seed=b"x")
        b = ThresholdScheme.setup(4, 3, seed=b"y")
        assert a.sign_share(1, "m") != b.sign_share(1, "m")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ThresholdScheme.setup(2, 3, seed=b"x")
        with pytest.raises(ValueError):
            ThresholdScheme.setup(3, 0, seed=b"x")

    def test_share_index_out_of_range(self, scheme):
        with pytest.raises(ThresholdError):
            scheme.sign_share(0, "m")
        with pytest.raises(ThresholdError):
            scheme.sign_share(8, "m")


class TestSignAggregateVerify:
    def test_aggregate_of_threshold_shares_verifies(self, scheme):
        shares = [scheme.sign_share(i, "payload") for i in range(1, 6)]
        signature = scheme.aggregate(shares)
        assert scheme.verify(signature, "payload")

    def test_any_subset_of_threshold_size_gives_same_signature(self, scheme):
        shares_a = [scheme.sign_share(i, "msg") for i in (1, 2, 3, 4, 5)]
        shares_b = [scheme.sign_share(i, "msg") for i in (2, 3, 5, 6, 7)]
        assert scheme.aggregate(shares_a).value == scheme.aggregate(shares_b).value

    def test_verify_rejects_wrong_payload(self, scheme):
        shares = [scheme.sign_share(i, "payload") for i in range(1, 6)]
        signature = scheme.aggregate(shares)
        assert not scheme.verify(signature, "other payload")

    def test_share_verification(self, scheme):
        share = scheme.sign_share(3, "payload")
        assert scheme.verify_share(share, "payload")
        assert not scheme.verify_share(share, "other")

    def test_corrupt_share_detected_at_aggregation(self, scheme):
        shares = [scheme.sign_share(i, "payload") for i in range(1, 5)]
        corrupt = SignatureShare(index=5,
                                 payload_digest=shares[0].payload_digest,
                                 value=12345)
        with pytest.raises(ThresholdError):
            scheme.aggregate(shares + [corrupt])

    def test_too_few_shares_rejected(self, scheme):
        shares = [scheme.sign_share(i, "payload") for i in range(1, 5)]
        with pytest.raises(ThresholdError):
            scheme.aggregate(shares)

    def test_duplicate_shares_do_not_count_twice(self, scheme):
        shares = [scheme.sign_share(1, "payload")] * 5
        with pytest.raises(ThresholdError):
            scheme.aggregate(shares)

    def test_mixed_payload_shares_rejected(self, scheme):
        shares = [scheme.sign_share(i, "payload") for i in range(1, 5)]
        shares.append(scheme.sign_share(5, "other"))
        with pytest.raises(ThresholdError):
            scheme.aggregate(shares)

    def test_empty_aggregation_rejected(self, scheme):
        with pytest.raises(ThresholdError):
            scheme.aggregate([])

    def test_forgery_without_quorum_never_verifies(self, scheme):
        forged = scheme.forge_without_quorum([1, 2, 3], "payload")
        assert forged is not None
        assert not scheme.verify(forged, "payload")


class TestAuthenticatorIntegration:
    def test_replicas_can_aggregate_through_authenticators(self):
        auths = make_authenticators([f"r{i}" for i in range(4)], ["c0"],
                                    seed=b"auth-threshold")
        shares = [auths[f"r{i}"].threshold.sign_share(i + 1, "value") for i in range(3)]
        signature = auths["r0"].threshold.aggregate(shares)
        assert auths["r3"].threshold.verify(signature, "value")
        assert auths["c0"].threshold.verify(signature, "value")

    def test_clients_cannot_produce_shares(self):
        auths = make_authenticators(["r0", "r1", "r2", "r3"], ["c0"],
                                    seed=b"auth-threshold-2")
        assert auths["c0"].threshold_index is None
        with pytest.raises(ThresholdError):
            auths["c0"].threshold.sign_share(auths["c0"].threshold_index, "value")


@settings(max_examples=30, deadline=None)
@given(
    num_shares=st.integers(min_value=2, max_value=10),
    payload=st.text(min_size=0, max_size=40),
    data=st.data(),
)
def test_threshold_property_any_quorum_aggregates(num_shares, payload, data):
    """Property: any subset of >= threshold distinct shares yields a signature
    that verifies, regardless of which replicas contributed."""
    threshold = data.draw(st.integers(min_value=1, max_value=num_shares))
    scheme = ThresholdScheme.setup(num_shares, threshold, seed=b"prop")
    indices = data.draw(
        st.lists(st.integers(min_value=1, max_value=num_shares),
                 min_size=threshold, max_size=num_shares, unique=True)
    )
    shares = [scheme.sign_share(i, payload) for i in indices]
    signature = scheme.aggregate(shares)
    assert scheme.verify(signature, payload)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_threshold_property_below_quorum_fails(data):
    """Property: fewer than `threshold` distinct shares can never produce a
    verifying signature (either aggregation refuses or verification fails)."""
    num_shares = data.draw(st.integers(min_value=3, max_value=8))
    threshold = data.draw(st.integers(min_value=2, max_value=num_shares))
    scheme = ThresholdScheme.setup(num_shares, threshold, seed=b"prop2")
    subset_size = data.draw(st.integers(min_value=1, max_value=threshold - 1))
    indices = data.draw(
        st.lists(st.integers(min_value=1, max_value=num_shares),
                 min_size=subset_size, max_size=subset_size, unique=True)
    )
    shares = [scheme.sign_share(i, "m") for i in indices]
    with pytest.raises(ThresholdError):
        scheme.aggregate(shares)
    forged = scheme.forge_without_quorum(indices, "m")
    if forged is not None and subset_size < threshold:
        assert not scheme.verify(forged, "m")
