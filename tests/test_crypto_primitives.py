"""Tests for MACs, digital signatures, key generation and the cost model."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.cost import CryptoCostModel, CryptoOp
from repro.crypto.hashing import digest
from repro.crypto.keys import generate_system_keys
from repro.crypto.mac import MacAuthenticator
from repro.crypto.signatures import (
    HmacSha256,
    Signature,
    SignatureScheme,
    build_registry,
    verification_key,
)


@pytest.fixture(scope="module")
def keystores():
    return generate_system_keys(
        ["replica:0", "replica:1", "replica:2", "replica:3"],
        ["client:0"],
        seed=b"primitive-tests",
    )


class TestKeyGeneration:
    def test_every_principal_gets_a_store(self, keystores):
        assert set(keystores) == {
            "replica:0", "replica:1", "replica:2", "replica:3", "client:0",
        }

    def test_pairwise_secrets_are_symmetric(self, keystores):
        a = keystores["replica:0"].mac_secret_for("replica:1")
        b = keystores["replica:1"].mac_secret_for("replica:0")
        assert a == b

    def test_pairwise_secrets_differ_between_pairs(self, keystores):
        ab = keystores["replica:0"].mac_secret_for("replica:1")
        ac = keystores["replica:0"].mac_secret_for("replica:2")
        assert ab != ac

    def test_replicas_get_threshold_shares_clients_do_not(self, keystores):
        assert keystores["replica:0"].threshold_index == 1
        assert keystores["replica:3"].threshold_index == 4
        assert keystores["client:0"].threshold_index is None

    def test_deterministic_given_seed(self):
        a = generate_system_keys(["r0", "r1", "r2", "r3"], seed=b"same")
        b = generate_system_keys(["r0", "r1", "r2", "r3"], seed=b"same")
        assert a["r0"].signing_secret == b["r0"].signing_secret

    def test_different_seeds_differ(self):
        a = generate_system_keys(["r0", "r1", "r2", "r3"], seed=b"one")
        b = generate_system_keys(["r0", "r1", "r2", "r3"], seed=b"two")
        assert a["r0"].signing_secret != b["r0"].signing_secret

    def test_requires_at_least_one_replica(self):
        with pytest.raises(ValueError):
            generate_system_keys([])

    def test_default_threshold_is_nf(self, keystores):
        # n = 4, f = 1, so nf = 3 shares are needed.
        assert keystores["replica:0"].threshold.threshold == 3

    def test_a_repeated_id_is_refused_by_name(self):
        with pytest.raises(ValueError, match="'r1'"):
            generate_system_keys(["r0", "r1", "r1", "r2"], ["r2"])
        with pytest.raises(ValueError, match="'r2'"):
            generate_system_keys(["r0", "r1", "r2", "r3"], ["r2"])
        with pytest.raises(ValueError, match="'c'"):
            generate_system_keys(["r0", "r1", "r2", "r3"], ["c", "c"])


def _eager_pair_secrets(everyone, seed):
    """The eager set-up's pair loop, kept as the reference: every pair's
    secret is HMAC-SHA256 chained over ``"mac"``, then the smaller and the
    larger id, starting from the system seed."""
    table = {}
    for i, left in enumerate(everyone):
        for right in everyone[i + 1:]:
            material = seed
            for label in ("mac", min(left, right), max(left, right)):
                material = hmac.new(material, label.encode(), hashlib.sha256).digest()
            table[left, right] = table[right, left] = material
    return table


_ids = st.text(alphabet="abc:0123", min_size=1, max_size=6)


class TestPairSecretsOnFirstUse:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_ids, min_size=2, max_size=8, unique=True), st.data())
    def test_first_use_matches_the_eager_formula(self, everyone, data):
        """Whatever order the pairs are first asked for in, each secret is
        the eager loop's, both ends hold the same bytes, and the owner and
        a non-member are refused as a missing entry is."""
        n = data.draw(st.integers(1, len(everyone)), label="replicas")
        stranger = data.draw(_ids.filter(lambda i: i not in everyone),
                             label="stranger")
        seed = data.draw(st.binary(min_size=1, max_size=16), label="seed")
        keystores = generate_system_keys(everyone[:n], everyone[n:], seed=seed)
        reference = _eager_pair_secrets(everyone, seed)
        order = data.draw(st.permutations(sorted(reference)), label="order")
        for owner, peer in order:
            secret = keystores[owner].mac_secret_for(peer)
            assert secret == reference[owner, peer]
            assert keystores[peer].mac_secret_for(owner) == secret
        for owner, store in keystores.items():
            assert dict(store.mac_secrets) == {
                peer: reference[owner, peer] for peer in everyone if peer != owner}
            for refused in (owner, stranger):
                with pytest.raises(KeyError):
                    store.mac_secret_for(refused)
                assert refused not in store.mac_secrets
        verifier = MacAuthenticator(keystores[everyone[0]])
        tag = MacAuthenticator(keystores[everyone[1]]).sign(everyone[0], "m")
        assert verifier.verify(tag, "m")
        forged = type(tag)(sender=stranger, receiver=everyone[0], tag=tag.tag)
        assert not verifier.verify(forged, "m")

    @pytest.mark.parametrize("copier", ["pickle", "deepcopy"])
    def test_a_copied_store_derives_the_same_secrets(self, copier):
        """A replica may be pickled or deep-copied (tests copy replicas
        so), key store included, whether or not a pair was derived; a copy
        keeps what was derived and derives the rest to the same bytes."""
        import copy
        import pickle

        copy_of = {"pickle": lambda store: pickle.loads(pickle.dumps(store)),
                   "deepcopy": copy.deepcopy}[copier]
        everyone = ["r0", "r1", "r2", "r3", "c"]
        reference = _eager_pair_secrets(everyone, b"copy")
        store = generate_system_keys(everyone[:4], ["c"], seed=b"copy")["r0"]
        before = copy_of(store)
        assert dict(before.mac_secrets) == {}
        assert store.mac_secret_for("r2") == reference["r0", "r2"]
        after = copy_of(store)
        assert dict(after.mac_secrets) == {"r2": reference["r0", "r2"]}
        for copied in (before, after):
            assert copied.signing_secret == store.signing_secret
            for peer in everyone[1:]:
                assert copied.mac_secret_for(peer) == reference["r0", peer]
            with pytest.raises(KeyError):
                copied.mac_secret_for("r0")
            with pytest.raises(KeyError):
                copied.mac_secret_for("stranger")

    def test_building_a_cluster_derives_no_pair_secret(self, monkeypatch):
        """Set-up is linear in n: one signing secret per principal and the
        threshold seed, and not one of the (n + c)(n + c - 1) / 2 pairs."""
        from repro.crypto import keys
        from repro.fabric.cluster import Cluster, ClusterConfig

        derived = []
        derive = keys._derive

        def counted(seed, *labels):
            derived.append(labels)
            return derive(seed, *labels)

        monkeypatch.setattr(keys, "_derive", counted)
        config = ClusterConfig(num_replicas=32, num_clients=2)
        Cluster(config).start()
        principals = config.replica_ids() + config.client_ids()
        assert sorted(derived) == sorted(
            [("sign", owner) for owner in principals] + [("threshold",)])


class TestMacs:
    def test_sign_verify_roundtrip(self, keystores):
        signer = MacAuthenticator(keystores["replica:0"])
        verifier = MacAuthenticator(keystores["replica:1"])
        tag = signer.sign("replica:1", "message", 42)
        assert verifier.verify(tag, "message", 42)

    def test_wrong_message_fails(self, keystores):
        signer = MacAuthenticator(keystores["replica:0"])
        verifier = MacAuthenticator(keystores["replica:1"])
        tag = signer.sign("replica:1", "message")
        assert not verifier.verify(tag, "tampered")

    def test_wrong_receiver_fails(self, keystores):
        signer = MacAuthenticator(keystores["replica:0"])
        other = MacAuthenticator(keystores["replica:2"])
        tag = signer.sign("replica:1", "message")
        assert not other.verify(tag, "message")

    def test_unknown_sender_fails(self, keystores):
        verifier = MacAuthenticator(keystores["replica:1"])
        forged = MacAuthenticator(keystores["replica:0"]).sign("replica:1", "m")
        forged = type(forged)(sender="nobody", receiver="replica:1", tag=forged.tag)
        assert not verifier.verify(forged, "m")


class TestSignatures:
    @pytest.fixture(scope="class")
    def schemes(self, keystores):
        registry = build_registry(keystores)
        return {owner: SignatureScheme(store, registry)
                for owner, store in keystores.items()}

    def test_sign_verify_roundtrip(self, schemes):
        signature = schemes["client:0"].sign("transaction", 7)
        assert schemes["replica:0"].verify(signature, "transaction", 7)

    @given(st.lists(st.binary(max_size=64), max_size=5))
    def test_sign_digests_is_sign_over_each_value(self, schemes, values):
        scheme = schemes["client:0"]
        assert scheme.sign_digests(values) == [scheme.sign(v) for v in values]

    def test_tampered_payload_fails(self, schemes):
        signature = schemes["client:0"].sign("transaction", 7)
        assert not schemes["replica:0"].verify(signature, "transaction", 8)

    def test_impersonation_fails(self, schemes):
        signature = schemes["replica:1"].sign("payload")
        forged = Signature(signer="replica:0",
                           payload_digest=signature.payload_digest,
                           tag=signature.tag)
        assert not schemes["replica:2"].verify(forged, "payload")

    def test_unknown_signer_fails(self, schemes):
        signature = schemes["client:0"].sign("payload")
        forged = Signature(signer="stranger",
                           payload_digest=signature.payload_digest,
                           tag=signature.tag)
        assert not schemes["replica:0"].verify(forged, "payload")

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(["client:0", "replica:1", "replica:3"]),
           st.lists(st.one_of(st.binary(max_size=40), st.text(max_size=20),
                              st.integers()), max_size=4))
    def test_matches_the_written_definition(self, schemes, keystores,
                                            signer, values):
        """``tag = HMAC-SHA256(verification_key(secret), owner || D(values))``:
        the scheme keeps each key's HMAC state, which must stay this
        construction byte for byte."""
        signature = schemes[signer].sign(*values)
        payload_digest = digest(*values)
        tag = hmac.new(verification_key(keystores[signer].signing_secret),
                       signer.encode() + payload_digest, hashlib.sha256).digest()
        assert signature == Signature(signer, payload_digest, tag)
        verifier = schemes["replica:0"]
        assert verifier.verify(signature, *values)
        flipped = bytes([tag[0] ^ 1]) + tag[1:]
        assert not verifier.verify(Signature(signer, payload_digest, flipped),
                                   *values)
        assert not verifier.verify(Signature(signer, digest(*values, 0), tag),
                                   *values)
        assert not verifier.verify(signature, *values, 0)
        assert not verifier.verify(Signature("replica:2", payload_digest, tag),
                                   *values)

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(["client:0", "replica:1"]), st.binary(max_size=48))
    def test_sign_digests_sign_and_verify_agree(self, schemes, signer, value):
        """The client's path, the generic path and the checker's path tag
        through the same kept state: one signature, accepted by every
        verifier, its own signer's included, and rejected with one bit of
        its tag or its digest flipped or under another signer's name."""
        [signature] = schemes[signer].sign_digests([value])
        assert signature == schemes[signer].sign(value)
        for verifier in (schemes[signer], schemes["replica:0"]):
            assert verifier.verify(signature, value)
            tag, payload = signature.tag, signature.payload_digest
            for forged in (
                    Signature(signer, payload, bytes([tag[0] ^ 1]) + tag[1:]),
                    Signature(signer, bytes([payload[0] ^ 1]) + payload[1:], tag),
                    Signature("replica:2", payload, tag)):
                assert not verifier.verify(forged, value)

    def test_a_pickled_scheme_signs_and_verifies_identically(self, keystores):
        """A pickled replica carries its schemes, which may already have
        signed; the copy rebuilds the HMAC state it needs."""
        import pickle

        registry = build_registry(keystores)
        client = SignatureScheme(keystores["client:0"], registry)
        replica = SignatureScheme(keystores["replica:0"], registry)
        [signature] = client.sign_digests([b"txn"])
        assert replica.verify(signature, b"txn")
        client_copy, replica_copy = pickle.loads(pickle.dumps((client, replica)))
        assert client_copy.sign_digests([b"txn"]) == [signature]
        assert client_copy.sign("payload", 1) == client.sign("payload", 1)
        assert replica_copy.verify(signature, b"txn")
        assert not replica_copy.verify(signature, b"other")


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=63) | st.binary(min_size=64, max_size=65)
       | st.binary(min_size=66, max_size=200), st.binary(max_size=300))
def test_kept_hmac_state_is_hmac_sha256(key, message):
    """RFC 2104 over keys shorter than, equal to and longer than SHA-256's
    64-byte block (a longer key is hashed first) and arbitrary messages;
    a state tags many messages without being consumed."""
    keyed = HmacSha256(key)
    expected = hmac.digest(key, message, "sha256")
    reversed_expected = hmac.digest(key, message[::-1], "sha256")
    assert keyed.tag(message) == expected
    assert [keyed.tag(m) for m in (message[::-1], message, b"")] == [
        reversed_expected, expected, hmac.digest(key, b"", "sha256")]
    assert keyed.tag(message) == expected


class TestCostModel:
    def test_default_costs_positive(self):
        model = CryptoCostModel()
        for op in CryptoOp:
            assert model.cost(op) >= 0

    def test_count_multiplies(self):
        model = CryptoCostModel()
        assert model.cost(CryptoOp.MAC_SIGN, 10) == pytest.approx(
            10 * model.cost(CryptoOp.MAC_SIGN))

    def test_none_model_is_free(self):
        model = CryptoCostModel.none()
        assert model.cost(CryptoOp.THRESHOLD_AGGREGATE, 100) == 0.0

    def test_digital_signature_model_prices_macs_as_signatures(self):
        model = CryptoCostModel.digital_signatures()
        assert model.cost(CryptoOp.MAC_SIGN) == model.cost(CryptoOp.SIGN)
        assert model.cost(CryptoOp.MAC_VERIFY) == model.cost(CryptoOp.VERIFY)

    def test_cmac_model_keeps_macs_cheap(self):
        model = CryptoCostModel.cmac()
        assert model.cost(CryptoOp.MAC_SIGN) < model.cost(CryptoOp.SIGN)

    def test_figure8_ordering_none_cheaper_than_cmac_cheaper_than_ed(self):
        """The per-batch crypto bill must reproduce Figure 8's ordering."""
        def batch_cost(model):
            return (model.cost(CryptoOp.MAC_SIGN, 10)
                    + model.cost(CryptoOp.MAC_VERIFY, 10)
                    + model.cost(CryptoOp.VERIFY))

        none = batch_cost(CryptoCostModel.none())
        cmac = batch_cost(CryptoCostModel.cmac())
        ed = batch_cost(CryptoCostModel.digital_signatures())
        assert none < cmac < ed
