"""Property-based tests (hypothesis) across the cryptographic stack."""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.reencrypt import recover_reencrypted, reencrypt_contributions
from repro.nizk import PlaintextKnowledgeProof, ProofParams
from repro.paillier import ThresholdPaillier, generate_keypair
from repro.paillier.threshold import teval

PARAMS = ProofParams(challenge_bits=24)

# Session-fixed keys: hypothesis shrinks over messages, not keys.
_TPK, _SHARES = ThresholdPaillier.keygen(4, 1, bits=64, rng=random.Random(9))
_KP = generate_keypair(64)
_RECIPIENT = generate_keypair(160, rng=random.Random(10), use_fixtures=False)


@settings(max_examples=20, deadline=None)
@given(message=st.integers(min_value=0))
def test_threshold_roundtrip_property(message):
    ct = _TPK.encrypt(message)
    assert ThresholdPaillier.decrypt(_TPK, _SHARES[:2], ct) == message % _TPK.n


@settings(max_examples=20, deadline=None)
@given(
    m1=st.integers(min_value=0, max_value=1 << 50),
    m2=st.integers(min_value=0, max_value=1 << 50),
    c1=st.integers(min_value=-100, max_value=100),
    c2=st.integers(min_value=-100, max_value=100),
)
def test_teval_linear_combination_property(m1, m2, c1, c2):
    cts = [_TPK.encrypt(m1), _TPK.encrypt(m2)]
    combo = teval(_TPK, cts, [c1, c2])
    expected = (c1 * m1 + c2 * m2) % _TPK.n
    assert ThresholdPaillier.decrypt(_TPK, _SHARES[1:3], combo) == expected


@settings(max_examples=10, deadline=None)
@given(
    message=st.integers(min_value=0, max_value=1 << 60),
    subset=st.sets(st.integers(min_value=1, max_value=4), min_size=2, max_size=4),
    seed=st.integers(min_value=0, max_value=1 << 20),
)
def test_resharing_any_quorum_property(message, subset, seed):
    rng = random.Random(seed)
    cset = sorted(subset)
    msgs = {s.index: ThresholdPaillier.reshare(_TPK, s, rng=rng) for s in _SHARES}
    new_shares = [
        ThresholdPaillier.recombine(
            _TPK, j, {i: msgs[i].subshares[j - 1] for i in cset}, 0, cset
        )
        for j in range(1, 5)
    ]
    ct = _TPK.encrypt(message, rng=rng)
    assert ThresholdPaillier.decrypt(_TPK, new_shares[:2], ct) == message


@settings(max_examples=15, deadline=None)
@given(
    message=st.integers(min_value=0, max_value=1 << 60),
    seed=st.integers(min_value=0, max_value=1 << 20),
)
def test_popk_complete_for_all_messages(message, seed):
    rng = random.Random(seed)
    pk = _KP.public
    r = pk.random_unit(rng)
    ct = pk.encrypt(message, randomness=r)
    proof = PlaintextKnowledgeProof.prove(pk, ct, message, r, PARAMS, rng)
    assert proof.verify(pk, ct, PARAMS)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    message=st.integers(min_value=0, max_value=1 << 60),
    quorum=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=1 << 20),
)
def test_reencrypt_roundtrip_property(message, quorum, seed):
    rng = random.Random(seed)
    ct = _TPK.encrypt(message, rng=rng)
    verifs = {s.index: s.verification for s in _SHARES}
    contributions = [
        reencrypt_contributions(_TPK, s, [(ct, _RECIPIENT.public)], PARAMS, rng)[0]
        for s in _SHARES[:quorum]
    ]
    value = recover_reencrypted(
        _TPK, ct, contributions, _RECIPIENT.secret, verifs, 0, PARAMS
    )
    assert value == message % _TPK.n


@settings(max_examples=15, deadline=None)
@given(
    target=st.integers(min_value=0, max_value=1 << 60),
    actual=st.integers(min_value=0, max_value=1 << 60),
    n_corrupt=st.integers(min_value=0, max_value=1),
    seed=st.integers(min_value=0, max_value=1 << 20),
)
def test_simtpdec_forces_any_target_property(target, actual, n_corrupt, seed):
    rng = random.Random(seed)
    ct = _TPK.encrypt(actual, rng=rng)
    corrupt = [
        ThresholdPaillier.partial_decrypt(_TPK, s, ct)
        for s in _SHARES[:n_corrupt]
    ]
    simulated = ThresholdPaillier.simulate_partials(
        _TPK, ct, target, _SHARES[n_corrupt:], corrupt
    )
    assert ThresholdPaillier.combine(_TPK, corrupt + simulated) == target % _TPK.n
