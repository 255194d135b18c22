"""Tests for the Σ-protocols: completeness, soundness paths, HVZK shape."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reencrypt import PublicPartial, combine_public
from repro.nizk import (
    MultiplicationProof,
    PartialDecryptionProof,
    PlaintextDlogEqualityProof,
    PlaintextKnowledgeProof,
    ProofParams,
)
from repro.paillier import ThresholdPaillier, generate_keypair
from repro.paillier.threshold import PartialDecryption

PARAMS = ProofParams(challenge_bits=24)


@pytest.fixture(scope="module")
def keys():
    return generate_keypair(64)


@pytest.fixture(scope="module")
def tkeys(threshold_keygen):
    return threshold_keygen(4, 1)


class TestPlaintextKnowledge:
    def test_completeness(self, keys, rng):
        pk = keys.public
        r = pk.random_unit(rng)
        c = pk.encrypt(31337, randomness=r)
        proof = PlaintextKnowledgeProof.prove(pk, c, 31337, r, PARAMS, rng)
        assert proof.verify(pk, c, PARAMS)

    def test_wrong_statement_rejected(self, keys, rng):
        pk = keys.public
        r = pk.random_unit(rng)
        c = pk.encrypt(1, randomness=r)
        proof = PlaintextKnowledgeProof.prove(pk, c, 1, r, PARAMS, rng)
        assert not proof.verify(pk, pk.encrypt(2, rng=rng), PARAMS)

    def test_mutated_proof_rejected(self, keys, rng):
        pk = keys.public
        r = pk.random_unit(rng)
        c = pk.encrypt(5, randomness=r)
        proof = PlaintextKnowledgeProof.prove(pk, c, 5, r, PARAMS, rng)
        for fld in ("commitment", "response_exponent", "response_unit"):
            bad = dataclasses.replace(proof, **{fld: getattr(proof, fld) + 1})
            assert not bad.verify(pk, c, PARAMS)

    def test_out_of_range_fields_rejected(self, keys, rng):
        pk = keys.public
        r = pk.random_unit(rng)
        c = pk.encrypt(5, randomness=r)
        proof = PlaintextKnowledgeProof.prove(pk, c, 5, r, PARAMS, rng)
        assert not dataclasses.replace(proof, response_unit=0).verify(pk, c, PARAMS)
        assert not dataclasses.replace(proof, commitment=0).verify(pk, c, PARAMS)

    def test_context_binding(self, keys, rng):
        pk = keys.public
        r = pk.random_unit(rng)
        c = pk.encrypt(5, randomness=r)
        proof = PlaintextKnowledgeProof.prove(pk, c, 5, r, PARAMS, rng, context="x")
        assert proof.verify(pk, c, PARAMS, context="x")
        assert not proof.verify(pk, c, PARAMS, context="y")
        assert not proof.verify(pk, c, PARAMS)

    def test_simulator_produces_accepting_transcript(self, keys, rng):
        # HVZK: simulated (a, e, z, w) satisfies the verification equation.
        pk = keys.public
        c = pk.encrypt(999, rng=rng)
        e = 12345
        a, z, w = PlaintextKnowledgeProof.simulate(pk, c, e, PARAMS, rng)
        n, n2 = pk.n, pk.n_squared
        lhs = (1 + z % n2 * n) % n2 * pow(w, n, n2) % n2
        assert lhs == a * pow(c.value, e, n2) % n2


class TestMultiplication:
    def _setup(self, keys, rng, a=17, b=23):
        pk = keys.public
        c_a = pk.encrypt(a, rng=rng)
        r = pk.random_unit(rng)
        c_b = pk.encrypt(b, randomness=r)
        c_c = c_a * b
        return pk, c_a, c_b, c_c, b, r

    def test_completeness(self, keys, rng):
        pk, c_a, c_b, c_c, b, r = self._setup(keys, rng)
        proof = MultiplicationProof.prove(pk, c_a, c_b, c_c, b, r, PARAMS, rng)
        assert proof.verify(pk, c_a, c_b, c_c, PARAMS)

    def test_result_actually_decrypts_to_product(self, keys, rng):
        pk, c_a, c_b, c_c, b, r = self._setup(keys, rng)
        assert keys.secret.decrypt(c_c) == 17 * 23

    def test_wrong_product_rejected(self, keys, rng):
        pk, c_a, c_b, c_c, b, r = self._setup(keys, rng)
        proof = MultiplicationProof.prove(pk, c_a, c_b, c_c, b, r, PARAMS, rng)
        assert not proof.verify(pk, c_a, c_b, c_a * (b + 1), PARAMS)

    def test_inconsistent_b_rejected(self, keys, rng):
        # Prover encrypts b but multiplies by b' != b.
        pk = keys.public
        c_a = pk.encrypt(3, rng=rng)
        r = pk.random_unit(rng)
        c_b = pk.encrypt(10, randomness=r)
        c_c = c_a * 11
        proof = MultiplicationProof.prove(pk, c_a, c_b, c_c, 10, r, PARAMS, rng)
        assert not proof.verify(pk, c_a, c_b, c_c, PARAMS)

    def test_mutation_rejected(self, keys, rng):
        pk, c_a, c_b, c_c, b, r = self._setup(keys, rng)
        proof = MultiplicationProof.prove(pk, c_a, c_b, c_c, b, r, PARAMS, rng)
        bad = dataclasses.replace(proof, response_exponent=proof.response_exponent + 1)
        assert not bad.verify(pk, c_a, c_b, c_c, PARAMS)


class TestPartialDecryption:
    def test_completeness(self, tkeys, rng):
        tpk, shares = tkeys
        ct = tpk.encrypt(55, rng=rng)
        partial = ThresholdPaillier.partial_decrypt(tpk, shares[0], ct)
        proof = PartialDecryptionProof.prove(tpk, ct, partial, shares[0], PARAMS, rng)
        assert proof.verify(tpk, ct, partial, shares[0].verification, PARAMS)

    def test_wrong_share_detected(self, tkeys, rng):
        tpk, shares = tkeys
        ct = tpk.encrypt(55, rng=rng)
        # partial computed with share 2, but claimed against share 1's key.
        partial = ThresholdPaillier.partial_decrypt(tpk, shares[1], ct)
        forged = PartialDecryption(1, partial.value, partial.epoch)
        proof = PartialDecryptionProof.prove(tpk, ct, forged, shares[1], PARAMS, rng)
        assert not proof.verify(tpk, ct, forged, shares[0].verification, PARAMS)

    def test_tampered_partial_detected(self, tkeys, rng):
        tpk, shares = tkeys
        ct = tpk.encrypt(55, rng=rng)
        partial = ThresholdPaillier.partial_decrypt(tpk, shares[0], ct)
        proof = PartialDecryptionProof.prove(tpk, ct, partial, shares[0], PARAMS, rng)
        bad = PartialDecryption(
            partial.index, partial.value * 4 % tpk.n_squared, partial.epoch
        )
        assert not proof.verify(tpk, ct, bad, shares[0].verification, PARAMS)

    def test_simulator_accepts(self, tkeys, rng):
        tpk, shares = tkeys
        ct = tpk.encrypt(55, rng=rng)
        partial = ThresholdPaillier.partial_decrypt(tpk, shares[0], ct)
        t1, t2, e, z = PartialDecryptionProof.simulate(
            tpk, ct, partial, shares[0].verification, 777,
            witness_bits=abs(shares[0].value).bit_length() + 1,
            params=PARAMS, rng=rng,
        )
        n2 = tpk.n_squared
        base_c = pow(ct.value, 4 * tpk.delta, n2)
        base_v = pow(tpk.verification_base, tpk.delta, n2)
        assert pow(base_c, z, n2) == t1 * pow(pow(partial.value, 2, n2), e, n2) % n2
        assert pow(base_v, z, n2) == t2 * pow(shares[0].verification, e, n2) % n2


@pytest.fixture(scope="module")
def committee(tkeys):
    """One ciphertext and every member's honest ``(partial, v_i, proof)``."""
    tpk, shares = tkeys
    rng = random.Random(0xBA7C4)
    ct = tpk.encrypt(4242, rng=rng)
    honest = []
    for share in shares:
        partial = ThresholdPaillier.partial_decrypt(tpk, share, ct)
        proof = PartialDecryptionProof.prove(tpk, ct, partial, share, PARAMS, rng)
        honest.append((partial, share.verification, proof))
    return tpk, shares, ct, honest


def _tampered(kind, item, other, salt, tpk, ct, share):
    """``item`` with one field spoiled; ``other`` is another member's item."""
    partial, verification, proof = item
    n2 = tpk.n_squared
    if kind in ("commitment_cipher", "commitment_verif"):
        moved = (getattr(proof, kind) + salt) % n2 or 1
        proof = dataclasses.replace(proof, **{kind: moved})
    elif kind == "response":
        proof = dataclasses.replace(proof, response=proof.response + salt)
    elif kind == "partial_value":
        partial = dataclasses.replace(partial, value=partial.value * (salt + 1) % n2)
    elif kind == "index":
        partial = dataclasses.replace(partial, index=other[0].index)
    elif kind == "epoch":
        partial = dataclasses.replace(partial, epoch=partial.epoch + salt)
    elif kind == "verification_value":
        verification = other[1]
    elif kind == "swapped_proof":
        proof = other[2]
    elif kind == "out_of_range":
        # The same residue, so both equations hold: only the range check objects.
        field = ("commitment_cipher", "commitment_verif")[salt % 2]
        proof = dataclasses.replace(proof, **{field: getattr(proof, field) + n2})
    else:
        assert kind == "wrong_partial_proved_with_the_share"
        # The verification-value equation holds (the prover used its share);
        # only the ciphertext side — the combined check — can object.
        partial = dataclasses.replace(partial, value=partial.value * 4 % n2)
        proof = PartialDecryptionProof.prove(
            tpk, ct, partial, share, PARAMS, random.Random(salt)
        )
    return partial, verification, proof


_TAMPERINGS = (
    "commitment_cipher", "commitment_verif", "response", "partial_value",
    "index", "epoch", "verification_value", "swapped_proof", "out_of_range",
    "wrong_partial_proved_with_the_share",
)


class TestPartialDecryptionBatch:
    """``verify_many`` returns what the per-proof loop returns."""

    @pytest.mark.parametrize("n_bad", [0, 1, 2])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_verdicts_are_the_per_proof_verdicts(self, committee, n_bad, data):
        tpk, shares, ct, honest = committee
        order = data.draw(st.permutations(range(len(honest))))
        size = data.draw(st.integers(max(1, n_bad), len(honest)))
        bad = data.draw(st.sets(
            st.integers(0, size - 1), min_size=n_bad, max_size=n_bad
        ))
        items = []
        for position, sender in enumerate(order[:size]):
            item = honest[sender]
            if position in bad:
                kind = data.draw(st.sampled_from(_TAMPERINGS))
                salt = data.draw(st.integers(1, 1 << 40))
                other = honest[(sender + 1 + salt % (len(honest) - 1)) % len(honest)]
                item = _tampered(kind, item, other, salt, tpk, ct, shares[sender])
            items.append(item)
        verdicts = PartialDecryptionProof.verify_many(tpk, ct, items, PARAMS)
        assert verdicts == [
            proof.verify(tpk, ct, partial, verification, PARAMS)
            for partial, verification, proof in items
        ]
        assert verdicts == [position not in bad for position in range(size)]

    def test_empty_batch(self, committee):
        tpk, _, ct, _ = committee
        assert PartialDecryptionProof.verify_many(tpk, ct, [], PARAMS) == []

    def test_fallback_names_the_culprit(self, committee, monkeypatch):
        tpk, shares, ct, honest = committee
        cheat = _tampered(
            "wrong_partial_proved_with_the_share", honest[2], honest[0], 7,
            tpk, ct, shares[2],
        )
        items = honest[:2] + [cheat] + honest[3:]
        asked = []
        per_proof = PartialDecryptionProof.verify

        def recording(proof, tpk, ciphertext, partial, *rest):
            asked.append(partial.index)
            return per_proof(proof, tpk, ciphertext, partial, *rest)

        monkeypatch.setattr(PartialDecryptionProof, "verify", recording)
        assert PartialDecryptionProof.verify_many(tpk, ct, items, PARAMS) == [
            True, True, False, True
        ]
        assert asked == [1, 2, 3, 4]      # the combined check failed: everyone asked
        del asked[:]
        assert all(PartialDecryptionProof.verify_many(tpk, ct, honest, PARAMS))
        assert asked == []                # an honest batch never gets there

    def test_negated_commitment_cannot_change_the_plaintext(self, committee):
        # The one way a batch verdict can differ from the per-proof one: a
        # prover who knows its share negates t1 before hashing, so its
        # ciphertext-side equation holds up to the order-2 element -1 and the
        # combined check passes whenever its coefficient is even.  Its
        # partial is the right one either way (the proven relation lives in
        # the squares, where -1 is not), so TDec cannot tell.
        tpk, shares, _, _ = committee
        rng = random.Random(0x0DD)
        n2 = tpk.n_squared
        cheater = shares[0]
        seen = set()
        for message in range(100, 112):
            ct = tpk.encrypt(message, rng=rng)
            contributions = []
            for share in shares:
                partial = ThresholdPaillier.partial_decrypt(tpk, share, ct)
                proof = PartialDecryptionProof.prove(tpk, ct, partial, share, PARAMS, rng)
                contributions.append(PublicPartial(partial, proof))
            partial = contributions[0].partial
            base_c, base_v = PartialDecryptionProof._bases(tpk, ct)
            w = rng.getrandbits(abs(cheater.value).bit_length() + 64)
            t1, t2 = n2 - pow(base_c, w, n2), pow(base_v, w, n2)
            e = PartialDecryptionProof._challenge(
                tpk, ct, partial, cheater.verification, t1, t2, PARAMS
            )
            negated = PartialDecryptionProof(t1, t2, w + e * cheater.value)
            contributions[0] = PublicPartial(partial, negated)
            assert not negated.verify(tpk, ct, partial, cheater.verification, PARAMS)
            verifications = {s.index: s.verification for s in shares}
            seen.add(PartialDecryptionProof.verify_many(
                tpk, ct,
                [(c.partial, verifications[c.partial.index], c.proof)
                 for c in contributions],
                PARAMS,
            )[0])
            assert combine_public(
                tpk, ct, contributions, verifications, PARAMS
            ) == message
        assert seen == {True, False}


class TestPlaintextDlogEquality:
    def test_completeness(self, keys, tkeys, rng):
        pk = keys.public
        tpk, _ = tkeys
        n2 = tpk.n_squared
        base = pow(tpk.verification_base, tpk.delta, n2)
        x = 424242
        value = pow(base, x, n2)
        r = pk.random_unit(rng)
        c = pk.encrypt(x, randomness=r)
        proof = PlaintextDlogEqualityProof.prove(
            pk, c, base, n2, value, x, r, PARAMS, rng
        )
        assert proof.verify(pk, c, base, n2, value, PARAMS)

    def test_mismatched_dlog_rejected(self, keys, tkeys, rng):
        pk = keys.public
        tpk, _ = tkeys
        n2 = tpk.n_squared
        base = pow(tpk.verification_base, tpk.delta, n2)
        x = 99
        r = pk.random_unit(rng)
        c = pk.encrypt(x, randomness=r)
        proof = PlaintextDlogEqualityProof.prove(
            pk, c, base, n2, pow(base, x, n2), x, r, PARAMS, rng
        )
        assert not proof.verify(pk, c, base, n2, pow(base, x + 1, n2), PARAMS)

    def test_mismatched_ciphertext_rejected(self, keys, tkeys, rng):
        pk = keys.public
        tpk, _ = tkeys
        n2 = tpk.n_squared
        base = pow(tpk.verification_base, tpk.delta, n2)
        x = 99
        r = pk.random_unit(rng)
        c = pk.encrypt(x, randomness=r)
        proof = PlaintextDlogEqualityProof.prove(
            pk, c, base, n2, pow(base, x, n2), x, r, PARAMS, rng
        )
        assert not proof.verify(
            pk, pk.encrypt(x + 1, rng=rng), base, n2, pow(base, x, n2), PARAMS
        )

    def test_non_canonical_dlog_commitment_rejected(self, keys, tkeys, rng):
        """``commitment_dlog`` must lie in (0, M): a prover who derives the
        challenge from ``a2 + M`` satisfies both equations, and must still
        be refused — like every other out-of-range field."""
        pk = keys.public
        tpk, _ = tkeys
        n, n2 = pk.n, pk.n_squared
        modulus = tpk.n_squared
        base = pow(tpk.verification_base, tpk.delta, modulus)
        x = 31337
        value = pow(base, x, modulus)
        r = pk.random_unit(rng)
        c = pk.encrypt(x, randomness=r)
        s = rng.randrange(n << (PARAMS.challenge_bits + PARAMS.statistical_bits))
        u = pk.random_unit(rng)
        a1 = (1 + s % n2 * n) % n2 * pow(u, n, n2) % n2

        def forged(a2):
            e = PlaintextDlogEqualityProof._challenge(
                pk, c, base, modulus, value, a1, a2, PARAMS
            )
            return PlaintextDlogEqualityProof(
                a1, a2, s + e * x, u * pow(r, e, n) % n
            )

        a2 = pow(base, s, modulus)
        assert forged(a2).verify(pk, c, base, modulus, value, PARAMS)
        assert not forged(a2 + modulus).verify(pk, c, base, modulus, value, PARAMS)
        assert not forged(a2 - modulus).verify(pk, c, base, modulus, value, PARAMS)
        honest = forged(a2)
        for bad in (0, modulus):
            mutated = PlaintextDlogEqualityProof(
                honest.commitment_enc, bad, honest.response_exponent,
                honest.response_unit,
            )
            assert not mutated.verify(pk, c, base, modulus, value, PARAMS)

    def test_witness_range_enforced(self, keys, tkeys, rng):
        pk = keys.public
        tpk, _ = tkeys
        with pytest.raises(Exception):
            PlaintextDlogEqualityProof.prove(
                pk, pk.encrypt(0, rng=rng), 2, tpk.n_squared, 4, pk.n + 1,
                pk.random_unit(rng), PARAMS, rng,
            )
