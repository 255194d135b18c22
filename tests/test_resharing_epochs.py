"""Epoch bookkeeping across resharings: TKRes→TKRec chains and error paths.

The threshold layer scales every share by Δ per hand-off, so an epoch-e
share set decrypts through the correction factor θ_e = 4·Δ^(2+e).  These
tests walk tsk through multiple epochs — both at the threshold layer
(plain subshares) and through the encrypted, publicly verifiable hand-off
of :mod:`repro.core.resharing` — and pin down the TKRec error paths.
"""

import random

import pytest

from repro.core.resharing import (
    build_resharing,
    next_verifications,
    receive_share,
    verified_contributors,
)
from repro.errors import EncryptionError
from repro.nizk import ProofParams
from repro.paillier import ThresholdPaillier
from repro.paillier.paillier import _keypair_from_primes
from repro.paillier.primes import random_prime

PARAMS = ProofParams(challenge_bits=24)


def _fresh_keys(count, bits, rng):
    out = []
    for _ in range(count):
        p = random_prime(bits // 2, rng=rng)
        q = random_prime(bits // 2, rng=rng)
        while q == p:
            q = random_prime(bits // 2, rng=rng)
        out.append(_keypair_from_primes(p, q))
    return out


def _advance_epoch(tpk, shares, rng):
    """One threshold-layer resharing hop over all senders and receivers."""
    messages = {s.index: ThresholdPaillier.reshare(tpk, s, rng=rng) for s in shares}
    cset = sorted(messages)
    previous_epoch = shares[0].epoch
    return [
        ThresholdPaillier.recombine(
            tpk, j,
            {i: messages[i].subshares[j - 1] for i in cset},
            previous_epoch, cset,
        )
        for j in range(1, tpk.n_parties + 1)
    ]


class TestEpochChain:
    def test_two_hops_decrypt_with_growing_epoch(self, threshold_keygen, rng):
        tpk, shares = threshold_keygen(4, 1)
        for expected_epoch, message in ((0, 111), (1, 22222), (2, 3333333)):
            assert all(s.epoch == expected_epoch for s in shares)
            ct = tpk.encrypt(message, rng=rng)
            assert ThresholdPaillier.decrypt(tpk, shares, ct) == message
            shares = _advance_epoch(tpk, shares, rng)

    def test_partials_carry_share_epoch(self, threshold_keygen, rng):
        tpk, shares = threshold_keygen(4, 1)
        later = _advance_epoch(tpk, shares, rng)
        ct = tpk.encrypt(5, rng=rng)
        partial = ThresholdPaillier.partial_decrypt(tpk, later[0], ct)
        assert partial.epoch == 1

    def test_mixed_epoch_partials_rejected(self, threshold_keygen, rng):
        tpk, shares = threshold_keygen(4, 1)
        later = _advance_epoch(tpk, shares, rng)
        ct = tpk.encrypt(5, rng=rng)
        mixed = [
            ThresholdPaillier.partial_decrypt(tpk, shares[0], ct),
            ThresholdPaillier.partial_decrypt(tpk, later[1], ct),
        ]
        with pytest.raises(EncryptionError, match="mixed epochs"):
            ThresholdPaillier.combine(tpk, mixed)

    def test_correction_factor_grows_by_delta_per_epoch(self, threshold_keygen):
        tpk, _ = threshold_keygen(4, 1)
        for epoch in range(3):
            assert (
                tpk.correction_factor(epoch + 1)
                == tpk.correction_factor(epoch) * tpk.delta % tpk.n
            )


class TestRecombineErrorPaths:
    def test_too_few_contributions(self, threshold_keygen, rng):
        tpk, shares = threshold_keygen(4, 1)
        message = ThresholdPaillier.reshare(tpk, shares[0], rng=rng)
        with pytest.raises(EncryptionError, match="need 2 resharing contributions"):
            ThresholdPaillier.recombine(tpk, 1, {1: message.subshares[0]}, 0)

    def test_missing_contribution_from_set(self, threshold_keygen, rng):
        tpk, shares = threshold_keygen(4, 1)
        messages = {
            s.index: ThresholdPaillier.reshare(tpk, s, rng=rng) for s in shares
        }
        contributions = {i: messages[i].subshares[0] for i in (1, 2)}
        with pytest.raises(EncryptionError, match=r"missing contributions from \[3\]"):
            ThresholdPaillier.recombine(tpk, 1, contributions, 0, contributor_set=[1, 2, 3])

    def test_default_contributor_set_is_all_contributions(
        self, threshold_keygen, rng
    ):
        tpk, shares = threshold_keygen(4, 1)
        messages = {
            s.index: ThresholdPaillier.reshare(tpk, s, rng=rng) for s in shares
        }
        contributions = {i: messages[i].subshares[2] for i in sorted(messages)}
        implicit = ThresholdPaillier.recombine(tpk, 3, contributions, 0)
        explicit = ThresholdPaillier.recombine(
            tpk, 3, contributions, 0, contributor_set=sorted(contributions)
        )
        assert implicit == explicit

    def test_epoch_increments_from_previous(self, threshold_keygen, rng):
        tpk, shares = threshold_keygen(4, 1)
        messages = {
            s.index: ThresholdPaillier.reshare(tpk, s, rng=rng) for s in shares
        }
        contributions = {i: messages[i].subshares[0] for i in sorted(messages)}
        share = ThresholdPaillier.recombine(tpk, 1, contributions, previous_epoch=4)
        assert share.epoch == 5


class TestEncryptedHandoffChain:
    """Two encrypted hops through repro.core.resharing, decrypting at each."""

    def test_two_encrypted_hops(self, threshold_keygen):
        rng = random.Random(31337)
        tpk, shares = threshold_keygen(4, 1)
        verifications = {s.index: s.verification for s in shares}

        for hop in (1, 2):
            recipients = _fresh_keys(tpk.n_parties, 80, rng)
            pks = [kp.public for kp in recipients]
            resharings = {
                s.index: build_resharing(tpk, s, pks, PARAMS, rng) for s in shares
            }
            cset = verified_contributors(tpk, resharings, verifications, pks, PARAMS)
            shares = [
                receive_share(
                    tpk, j, recipients[j - 1].secret, resharings, cset,
                    previous_epoch=hop - 1,
                )
                for j in range(1, tpk.n_parties + 1)
            ]
            verifications = next_verifications(tpk, resharings, cset)
            assert all(s.epoch == hop for s in shares)
            ct = tpk.encrypt(40 + hop, rng=rng)
            assert ThresholdPaillier.decrypt(tpk, shares, ct) == 40 + hop
