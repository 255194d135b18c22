"""Tests for the threshold Paillier scheme (TKGen/TPDec/TDec/TEval/TKRes/TKRec)."""


import pytest

from repro.errors import EncryptionError, ParameterError
from repro.paillier import ThresholdPaillier
from repro.paillier.threshold import PartialDecryption, teval


class TestKeygen:
    def test_share_count_and_epoch(self, threshold_setup):
        tpk, shares = threshold_setup
        assert len(shares) == tpk.n_parties == 5
        assert all(s.epoch == 0 for s in shares)

    def test_verification_values_consistent(self, threshold_setup):
        tpk, shares = threshold_setup
        for s in shares:
            assert s.verification == pow(
                tpk.verification_base, tpk.delta * s.value, tpk.n_squared
            )

    def test_correction_factor(self, threshold_setup):
        tpk, _ = threshold_setup
        assert tpk.correction_factor(0) == 4 * pow(tpk.delta, 2, tpk.n) % tpk.n
        assert tpk.correction_factor(2) == 4 * pow(tpk.delta, 4, tpk.n) % tpk.n

    def test_bad_threshold_rejected(self):
        with pytest.raises(ParameterError):
            ThresholdPaillier.keygen(3, 3, bits=64)

    def test_too_many_parties_for_modulus(self):
        with pytest.raises(ParameterError):
            ThresholdPaillier.keygen_from_primes(11, 23, 10, 2)


class TestDecryption:
    def test_full_committee(self, threshold_setup, rng):
        tpk, shares = threshold_setup
        ct = tpk.encrypt(123456, rng=rng)
        assert ThresholdPaillier.decrypt(tpk, shares, ct) == 123456

    def test_any_quorum(self, threshold_setup, rng):
        tpk, shares = threshold_setup
        ct = tpk.encrypt(777, rng=rng)
        assert ThresholdPaillier.decrypt(tpk, shares[:3], ct) == 777
        assert ThresholdPaillier.decrypt(tpk, shares[2:], ct) == 777
        assert ThresholdPaillier.decrypt(tpk, [shares[0], shares[2], shares[4]], ct) == 777

    def test_below_quorum_rejected(self, threshold_setup, rng):
        tpk, shares = threshold_setup
        ct = tpk.encrypt(1, rng=rng)
        partials = [ThresholdPaillier.partial_decrypt(tpk, s, ct) for s in shares[:2]]
        with pytest.raises(EncryptionError):
            ThresholdPaillier.combine(tpk, partials)

    def test_duplicate_partials_rejected(self, threshold_setup, rng):
        tpk, shares = threshold_setup
        ct = tpk.encrypt(1, rng=rng)
        p = ThresholdPaillier.partial_decrypt(tpk, shares[0], ct)
        with pytest.raises(EncryptionError):
            ThresholdPaillier.combine(tpk, [p, p, p])

    def test_mixed_epochs_rejected(self, threshold_setup, rng):
        tpk, shares = threshold_setup
        ct = tpk.encrypt(1, rng=rng)
        partials = [ThresholdPaillier.partial_decrypt(tpk, s, ct) for s in shares[:3]]
        forged = PartialDecryption(partials[0].index, partials[0].value, epoch=1)
        with pytest.raises(EncryptionError):
            ThresholdPaillier.combine(tpk, [forged] + partials[1:])

    def test_foreign_ciphertext_rejected(self, threshold_setup, rng):
        tpk, shares = threshold_setup
        other_tpk, _ = ThresholdPaillier.keygen(3, 1, bits=64, rng=rng, fixture_index=3)
        ct = other_tpk.encrypt(1, rng=rng)
        with pytest.raises(EncryptionError):
            ThresholdPaillier.partial_decrypt(tpk, shares[0], ct)


class TestTEval:
    def test_linear_combination(self, threshold_setup, rng):
        tpk, shares = threshold_setup
        cts = [tpk.encrypt(m, rng=rng) for m in (10, 20, 30)]
        combo = teval(tpk, cts, [1, 2, 3])
        assert ThresholdPaillier.decrypt(tpk, shares[:3], combo) == 10 + 40 + 90

    def test_negative_coefficients(self, threshold_setup, rng):
        tpk, shares = threshold_setup
        cts = [tpk.encrypt(m, rng=rng) for m in (50, 20)]
        combo = teval(tpk, cts, [1, -1])
        assert ThresholdPaillier.decrypt(tpk, shares[:3], combo) == 30

    def test_empty_rejected(self, threshold_setup):
        tpk, _ = threshold_setup
        with pytest.raises(ParameterError):
            teval(tpk, [], [])

    def test_length_mismatch_rejected(self, threshold_setup, rng):
        tpk, _ = threshold_setup
        with pytest.raises(ParameterError):
            teval(tpk, [tpk.encrypt(1, rng=rng)], [1, 2])


class TestResharing:
    def _reshare_once(self, tpk, shares, contributor_set, rng, epoch):
        msgs = {s.index: ThresholdPaillier.reshare(tpk, s, rng=rng) for s in shares}
        new = []
        for j in range(1, tpk.n_parties + 1):
            contrib = {i: msgs[i].subshares[j - 1] for i in contributor_set}
            new.append(
                ThresholdPaillier.recombine(tpk, j, contrib, epoch, contributor_set)
            )
        return msgs, new

    def test_single_epoch(self, threshold_setup_t1, rng):
        tpk, shares = threshold_setup_t1
        ct = tpk.encrypt(42, rng=rng)
        _, new = self._reshare_once(tpk, shares, [1, 2, 3], rng, 0)
        assert all(s.epoch == 1 for s in new)
        assert ThresholdPaillier.decrypt(tpk, new[:2], ct) == 42

    def test_three_epochs(self, threshold_setup_t1, rng):
        tpk, shares = threshold_setup_t1
        ct = tpk.encrypt(2024, rng=rng)
        current = list(shares)
        for epoch in range(3):
            _, current = self._reshare_once(tpk, current, [1, 2, 4], rng, epoch)
            # ``recombine`` alone labels the new shares: a share still on
            # epoch 1 would make ``combine`` apply the wrong correction.
            assert {s.epoch for s in current} == {epoch + 1}
            assert ThresholdPaillier.decrypt(tpk, current[1:3], ct) == 2024

    def test_different_quorums_same_result(self, threshold_setup_t1, rng):
        tpk, shares = threshold_setup_t1
        ct = tpk.encrypt(5, rng=rng)
        _, new = self._reshare_once(tpk, shares, [2, 3, 4], rng, 0)
        a = ThresholdPaillier.decrypt(tpk, new[:2], ct)
        b = ThresholdPaillier.decrypt(tpk, new[2:], ct)
        assert a == b == 5

    def test_verification_evolution(self, threshold_setup_t1, rng):
        tpk, shares = threshold_setup_t1
        cset = [1, 2, 3]
        msgs, new = self._reshare_once(tpk, shares, cset, rng, 0)
        for s in new:
            derived = ThresholdPaillier.derive_verification(
                tpk, s.index, list(msgs.values()), cset
            )
            assert derived == s.verification

    def test_insufficient_contributions_rejected(self, threshold_setup_t1, rng):
        tpk, shares = threshold_setup_t1
        msg = ThresholdPaillier.reshare(tpk, shares[0], rng=rng)
        with pytest.raises(EncryptionError):
            ThresholdPaillier.recombine(tpk, 1, {1: msg.subshares[0]}, 0, [1])

    def test_missing_contribution_rejected(self, threshold_setup_t1, rng):
        tpk, shares = threshold_setup_t1
        msgs = {s.index: ThresholdPaillier.reshare(tpk, s, rng=rng) for s in shares}
        with pytest.raises(EncryptionError):
            ThresholdPaillier.recombine(
                tpk, 1, {1: msgs[1].subshares[0], 2: msgs[2].subshares[0]}, 0,
                [1, 2, 3],
            )


class TestSimTPDec:
    def test_forces_target_message(self, threshold_setup, rng):
        tpk, shares = threshold_setup
        ct = tpk.encrypt(1111, rng=rng)
        corrupt = [ThresholdPaillier.partial_decrypt(tpk, s, ct) for s in shares[:2]]
        simulated = ThresholdPaillier.simulate_partials(
            tpk, ct, 9999, shares[2:], corrupt
        )
        assert ThresholdPaillier.combine(tpk, corrupt + simulated) == 9999

    def test_identity_when_target_matches(self, threshold_setup, rng):
        tpk, shares = threshold_setup
        ct = tpk.encrypt(31337, rng=rng)
        corrupt = [ThresholdPaillier.partial_decrypt(tpk, shares[0], ct)]
        simulated = ThresholdPaillier.simulate_partials(
            tpk, ct, 31337, shares[1:], corrupt
        )
        honest = [ThresholdPaillier.partial_decrypt(tpk, s, ct) for s in shares[1:]]
        assert [p.value for p in simulated] == [p.value for p in honest]

    def test_needs_honest_share(self, threshold_setup, rng):
        tpk, shares = threshold_setup
        ct = tpk.encrypt(0, rng=rng)
        with pytest.raises(EncryptionError):
            ThresholdPaillier.simulate_partials(tpk, ct, 5, [], [])

    def test_works_after_resharing(self, threshold_setup_t1, rng):
        tpk, shares = threshold_setup_t1
        msgs = {s.index: ThresholdPaillier.reshare(tpk, s, rng=rng) for s in shares}
        cset = [1, 2, 3]
        new = [
            ThresholdPaillier.recombine(
                tpk, j, {i: msgs[i].subshares[j - 1] for i in cset}, 0, cset
            )
            for j in range(1, 5)
        ]
        ct = tpk.encrypt(808, rng=rng)
        corrupt = [ThresholdPaillier.partial_decrypt(tpk, new[0], ct)]
        simulated = ThresholdPaillier.simulate_partials(tpk, ct, 111, new[1:], corrupt)
        assert ThresholdPaillier.combine(tpk, corrupt + simulated) == 111
