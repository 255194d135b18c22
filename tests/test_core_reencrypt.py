"""Tests for the Re-encrypt / Decrypt helper protocols (Protocols 1–2)."""

import dataclasses
import random

import pytest

from repro.core.reencrypt import (
    combine_public,
    public_decrypt_contributions,
    recover_reencrypted,
    reencrypt_contributions,
)
from repro.errors import ProtocolAbortError
from repro.nizk import PartialDecryptionProof, ProofParams
from repro.paillier import generate_keypair
from repro.paillier.encoding import safe_chunk_bits, unchunk_integer
from repro.paillier.threshold import PartialDecryption

PARAMS = ProofParams(challenge_bits=24)


def reencrypt_contribution(tpk, share, ct, recipient_pk, params, rng):
    return reencrypt_contributions(tpk, share, [(ct, recipient_pk)], params, rng)[0]


def public_decrypt_contribution(tpk, share, ct, params, rng):
    return public_decrypt_contributions(tpk, share, [ct], params, rng)[0]


@pytest.fixture(scope="module")
def setup(threshold_keygen):
    rng = random.Random(101)
    tpk, shares = threshold_keygen(4, 1)
    recipient = generate_keypair(160, rng=rng, use_fixtures=False)
    verifications = {s.index: s.verification for s in shares}
    return tpk, shares, recipient, verifications


class TestReencrypt:
    def test_roundtrip(self, setup, rng):
        tpk, shares, recipient, verifs = setup
        ct = tpk.encrypt(987654, rng=rng)
        contributions = [
            reencrypt_contribution(tpk, s, ct, recipient.public, PARAMS, rng)
            for s in shares
        ]
        value = recover_reencrypted(
            tpk, ct, contributions, recipient.secret, verifs, PARAMS
        )
        assert value == 987654

    def test_quorum_suffices(self, setup, rng):
        tpk, shares, recipient, verifs = setup
        ct = tpk.encrypt(55, rng=rng)
        contributions = [
            reencrypt_contribution(tpk, s, ct, recipient.public, PARAMS, rng)
            for s in shares[:2]
        ]
        assert recover_reencrypted(
            tpk, ct, contributions, recipient.secret, verifs, PARAMS
        ) == 55

    def test_garbage_contribution_excluded(self, setup, rng):
        tpk, shares, recipient, verifs = setup
        ct = tpk.encrypt(321, rng=rng)
        contributions = [
            reencrypt_contribution(tpk, s, ct, recipient.public, PARAMS, rng)
            for s in shares
        ]
        # Corrupt sender 1: swap in chunks encrypting a wrong partial.
        bad = dataclasses.replace(contributions[0], chunks=contributions[1].chunks)
        assert recover_reencrypted(
            tpk, ct, [bad] + contributions[1:], recipient.secret, verifs, PARAMS
        ) == 321

    def test_unknown_sender_excluded(self, setup, rng):
        tpk, shares, recipient, verifs = setup
        ct = tpk.encrypt(1, rng=rng)
        contributions = [
            reencrypt_contribution(tpk, s, ct, recipient.public, PARAMS, rng)
            for s in shares
        ]
        forged = dataclasses.replace(contributions[0], sender_index=99)
        assert recover_reencrypted(
            tpk, ct, [forged] + contributions[1:], recipient.secret, verifs, PARAMS
        ) == 1

    def test_insufficient_verified_aborts(self, setup, rng):
        tpk, shares, recipient, verifs = setup
        ct = tpk.encrypt(1, rng=rng)
        good = reencrypt_contribution(tpk, shares[0], ct, recipient.public, PARAMS, rng)
        bad = dataclasses.replace(good, sender_index=99)
        with pytest.raises(ProtocolAbortError):
            recover_reencrypted(tpk, ct, [bad], recipient.secret, verifs, PARAMS)

    def test_mismatched_proof_excluded(self, setup, rng):
        tpk, shares, recipient, verifs = setup
        ct = tpk.encrypt(2024, rng=rng)
        contributions = [
            reencrypt_contribution(tpk, s, ct, recipient.public, PARAMS, rng)
            for s in shares
        ]
        # Keep chunks but replace the proof with another sender's.
        bad = dataclasses.replace(contributions[0], proof=contributions[1].proof)
        assert recover_reencrypted(
            tpk, ct, [bad] + contributions[1:], recipient.secret, verifs, PARAMS
        ) == 2024


    def test_copycat_contribution_is_not_an_abort(self, setup, rng):
        # A member posts another member's valid contribution as its own
        # (in place of it, or beside it): one partial per sender index is
        # combined, and the output is still delivered.
        tpk, shares, recipient, verifs = setup
        ct = tpk.encrypt(808, rng=rng)
        contributions = [
            reencrypt_contribution(tpk, s, ct, recipient.public, PARAMS, rng)
            for s in shares
        ]
        for posted in (
            [contributions[0], contributions[0]] + contributions[2:],
            contributions + [contributions[1]],
        ):
            assert recover_reencrypted(
                tpk, ct, posted, recipient.secret, verifs, PARAMS
            ) == 808

    def test_wrong_partial_under_a_wellformed_proof_excluded(self, setup, rng):
        # The cheat only the ciphertext-side equation sees: the sender proves
        # a wrong partial with its real share.
        tpk, shares, recipient, verifs = setup
        ct = tpk.encrypt(99, rng=rng)
        contributions = [
            reencrypt_contribution(tpk, s, ct, recipient.public, PARAMS, rng)
            for s in shares
        ]
        other = tpk.encrypt(100, rng=rng)
        wrong = reencrypt_contribution(
            tpk, shares[0], other, recipient.public, PARAMS, rng
        )
        partial = PartialDecryption(
            1, unchunk_integer(
                [recipient.secret.decrypt(c) for c in wrong.chunks],
                safe_chunk_bits(recipient.public.n),
            ), 0,
        )
        bad = dataclasses.replace(
            wrong, proof=PartialDecryptionProof.prove(
                tpk, ct, partial, shares[0], PARAMS, rng
            ),
        )
        assert recover_reencrypted(
            tpk, ct, [bad] + contributions[1:], recipient.secret, verifs, PARAMS
        ) == 99


class TestPublicDecrypt:
    def test_roundtrip(self, setup, rng):
        tpk, shares, _, verifs = setup
        ct = tpk.encrypt(777, rng=rng)
        contributions = [
            public_decrypt_contribution(tpk, s, ct, PARAMS, rng) for s in shares
        ]
        assert combine_public(tpk, ct, contributions, verifs, PARAMS) == 777

    def test_bad_partial_excluded(self, setup, rng):
        tpk, shares, _, verifs = setup
        ct = tpk.encrypt(777, rng=rng)
        contributions = [
            public_decrypt_contribution(tpk, s, ct, PARAMS, rng) for s in shares
        ]
        bad = dataclasses.replace(
            contributions[0],
            partial=dataclasses.replace(
                contributions[0].partial,
                value=contributions[0].partial.value * 3 % tpk.n_squared,
            ),
        )
        assert combine_public(
            tpk, ct, [bad] + contributions[1:], verifs, PARAMS
        ) == 777

    def test_copycat_contribution_is_not_an_abort(self, setup, rng):
        tpk, shares, _, verifs = setup
        ct = tpk.encrypt(778, rng=rng)
        contributions = [
            public_decrypt_contribution(tpk, s, ct, PARAMS, rng) for s in shares
        ]
        for posted in (
            [contributions[0], contributions[0]] + contributions[2:],
            contributions + [contributions[1]],
        ):
            assert combine_public(tpk, ct, posted, verifs, PARAMS) == 778

    def test_all_bad_aborts(self, setup, rng):
        tpk, shares, _, verifs = setup
        ct = tpk.encrypt(1, rng=rng)
        contributions = [
            dataclasses.replace(
                public_decrypt_contribution(tpk, s, ct, PARAMS, rng),
                partial=dataclasses.replace(
                    public_decrypt_contribution(tpk, s, ct, PARAMS, rng).partial,
                    value=12345,
                ),
            )
            for s in shares
        ]
        with pytest.raises(ProtocolAbortError):
            combine_public(tpk, ct, contributions, verifs, PARAMS)
