"""Tests for the publicly verifiable encrypted tsk hand-off."""

import dataclasses
import random

import pytest

from repro.circuits import dot_product_circuit
from repro.core import ProtocolParams, YosoMpc
from repro.core import resharing as resharing_mod
from repro.core.resharing import (
    build_resharing,
    next_verifications,
    receive_share,
    verified_contributors,
    verify_resharing,
)
from repro.errors import ProtocolAbortError
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


@pytest.fixture(scope="module")
def world(threshold_keygen):
    rng = random.Random(2024)
    tpk, shares = threshold_keygen(4, 1)
    recipients = _fresh_keys(4, 80, rng)
    pks = [kp.public for kp in recipients]
    verifications = {s.index: s.verification for s in shares}
    resharings = {
        s.index: build_resharing(tpk, s, pks, PARAMS, rng) for s in shares
    }
    return tpk, shares, recipients, pks, verifications, resharings


class TestHonestPath:
    def test_all_resharings_verify(self, world):
        tpk, shares, _, pks, verifs, resharings = world
        for s in shares:
            assert verify_resharing(tpk, resharings[s.index], verifs[s.index], pks, PARAMS)

    def test_contributor_set_is_everyone(self, world):
        tpk, _, _, pks, verifs, resharings = world
        assert verified_contributors(tpk, resharings, verifs, pks, PARAMS) == [1, 2, 3, 4]

    def test_received_shares_decrypt(self, world, rng):
        tpk, _, recipients, pks, verifs, resharings = world
        cset = [1, 2, 3, 4]
        new_shares = [
            receive_share(tpk, j, recipients[j - 1].secret, resharings, cset, 0)
            for j in range(1, 5)
        ]
        ct = tpk.encrypt(13579, rng=rng)
        assert ThresholdPaillier.decrypt(tpk, new_shares[:2], ct) == 13579
        assert all(s.epoch == 1 for s in new_shares)

    def test_partial_contributor_set(self, world, rng):
        tpk, _, recipients, pks, verifs, resharings = world
        cset = [1, 3, 4]
        partial_resh = {i: resharings[i] for i in cset}
        new_shares = [
            receive_share(tpk, j, recipients[j - 1].secret, partial_resh, cset, 0)
            for j in range(1, 5)
        ]
        ct = tpk.encrypt(8, rng=rng)
        assert ThresholdPaillier.decrypt(tpk, new_shares[1:3], ct) == 8

    def test_next_verifications_match(self, world):
        tpk, _, recipients, pks, verifs, resharings = world
        cset = [1, 2, 3, 4]
        nv = next_verifications(tpk, resharings, cset)
        new_shares = [
            receive_share(tpk, j, recipients[j - 1].secret, resharings, cset, 0)
            for j in range(1, 5)
        ]
        assert all(nv[s.index] == s.verification for s in new_shares)


class TestAdversarialPath:
    def test_swapped_verifications_rejected(self, world):
        tpk, shares, _, pks, verifs, resharings = world
        bad = dataclasses.replace(
            resharings[1], verifications=resharings[2].verifications
        )
        assert not verify_resharing(tpk, bad, verifs[1], pks, PARAMS)

    def test_tampered_limb_ciphertext_rejected(self, world):
        tpk, _, _, pks, verifs, resharings = world
        target = resharings[1]
        sub = target.subshares[0]
        wrong = dataclasses.replace(
            sub, limbs=(sub.limbs[0] * 2,) + sub.limbs[1:]
        )
        bad = dataclasses.replace(
            target, subshares=(wrong,) + target.subshares[1:]
        )
        assert not verify_resharing(tpk, bad, verifs[1], pks, PARAMS)

    def test_tampered_limb_verification_rejected(self, world):
        tpk, _, _, pks, verifs, resharings = world
        target = resharings[2]
        sub = target.subshares[1]
        wrong = dataclasses.replace(
            sub,
            limb_verifications=(sub.limb_verifications[0] * 2 % tpk.n_squared,)
            + sub.limb_verifications[1:],
        )
        bad = dataclasses.replace(
            target, subshares=target.subshares[:1] + (wrong,) + target.subshares[2:]
        )
        assert not verify_resharing(tpk, bad, verifs[2], pks, PARAMS)

    def test_wrong_offset_rejected(self, world):
        tpk, _, _, pks, verifs, resharings = world
        bad = dataclasses.replace(resharings[3], offset_bits=resharings[3].offset_bits + 1)
        assert not verify_resharing(tpk, bad, verifs[3], pks, PARAMS)

    def test_claiming_other_senders_share_rejected(self, world):
        tpk, _, _, pks, verifs, resharings = world
        # Sender 1's perfectly valid message cannot pass as sender 2's.
        assert not verify_resharing(tpk, resharings[1], verifs[2], pks, PARAMS)

    def test_bad_senders_excluded_from_set(self, world):
        tpk, _, _, pks, verifs, resharings = world
        polluted = dict(resharings)
        polluted[2] = dataclasses.replace(
            resharings[2], verifications=resharings[3].verifications
        )
        assert verified_contributors(tpk, polluted, verifs, pks, PARAMS) == [1, 3, 4]

    def test_too_few_honest_aborts(self, world):
        tpk, _, _, pks, verifs, resharings = world
        polluted = {
            i: dataclasses.replace(r, verifications=resharings[i % 4 + 1].verifications)
            for i, r in resharings.items()
        }
        with pytest.raises(ProtocolAbortError):
            verified_contributors(tpk, polluted, verifs, pks, PARAMS)

    def test_wrong_recipient_count_rejected(self, world):
        tpk, shares, _, pks, verifs, resharings = world
        bad = dataclasses.replace(resharings[1], subshares=resharings[1].subshares[:-1])
        assert not verify_resharing(tpk, bad, verifs[1], pks, PARAMS)


def test_one_run_verifies_each_resharing_once(monkeypatch):
    # Four hand-offs (A → dec → reenc → keys → out), n resharings each: the
    # public verdict is computed where the posts are read and reused by the
    # phase that consumes it.
    calls = []
    real = resharing_mod.verify_resharing

    def counting(*args, **kwargs):
        calls.append(args[1].sender_index)
        return real(*args, **kwargs)

    monkeypatch.setattr(resharing_mod, "verify_resharing", counting)
    params = ProtocolParams.from_gap(4, 0.2)
    result = YosoMpc(params, rng=random.Random(41)).run(
        dot_product_circuit(2), {"alice": [3, 1], "bob": [4, 1]}
    )
    assert result.outputs == {"alice": [13]}
    assert len(calls) == 4 * params.n
