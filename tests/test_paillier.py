"""Tests for plain Paillier encryption (the PKE of the protocol)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EncryptionError, ParameterError
from repro.paillier import generate_keypair
from repro.paillier.paillier import (
    PaillierCiphertext,
    PaillierPublicKey,
    PaillierSecretKey,
    keypair_from_primes,
)


class TestKeygen:
    def test_fixture_keypair(self, paillier_keypair):
        kp = paillier_keypair
        assert kp.public.n == kp.secret.p * kp.secret.q

    def test_fresh_random_keys(self):
        kp = generate_keypair(48, rng=random.Random(3), use_fixtures=False)
        assert kp.public.n.bit_length() >= 40

    def test_keypair_from_primes_validates(self):
        with pytest.raises(ParameterError):
            keypair_from_primes(15, 17)
        with pytest.raises(ParameterError):
            keypair_from_primes(17, 17)

    def test_secret_key_consistency_checked(self):
        kp = generate_keypair(64)
        with pytest.raises(ParameterError):
            PaillierSecretKey(kp.public, 3, 5)

    def test_tiny_modulus_rejected(self):
        with pytest.raises(ParameterError):
            PaillierPublicKey(4)


class TestEncryptDecrypt:
    def test_roundtrip(self, paillier_keypair, rng):
        pk, sk = paillier_keypair.public, paillier_keypair.secret
        for _ in range(5):
            m = rng.randrange(pk.n)
            assert sk.decrypt(pk.encrypt(m, rng=rng)) == m

    def test_message_reduced_mod_n(self, paillier_keypair):
        pk, sk = paillier_keypair.public, paillier_keypair.secret
        assert sk.decrypt(pk.encrypt(pk.n + 5)) == 5
        assert sk.decrypt(pk.encrypt(-1)) == pk.n - 1

    def test_deterministic_with_fixed_randomness(self, paillier_keypair):
        pk = paillier_keypair.public
        c1 = pk.encrypt(7, randomness=12345)
        c2 = pk.encrypt(7, randomness=12345)
        assert c1 == c2

    def test_probabilistic_by_default(self, paillier_keypair, rng):
        pk = paillier_keypair.public
        assert pk.encrypt(7, rng=rng) != pk.encrypt(7, rng=rng)

    def test_non_unit_randomness_rejected(self, paillier_keypair):
        pk = paillier_keypair.public
        with pytest.raises(EncryptionError):
            pk.encrypt(1, randomness=pk.n)  # gcd(N, N) != 1... use p instead

    def test_decrypt_foreign_ciphertext_rejected(self, paillier_keypair, rng):
        other = generate_keypair(64, fixture_index=5)
        c = other.public.encrypt(1, rng=rng)
        with pytest.raises(EncryptionError):
            paillier_keypair.secret.decrypt(c)

    def test_extract_randomness(self, paillier_keypair, rng):
        pk, sk = paillier_keypair.public, paillier_keypair.secret
        r = pk.random_unit(rng)
        c = pk.encrypt(99, randomness=r)
        assert sk.extract_randomness(c) == r


class TestHomomorphism:
    def test_ciphertext_addition(self, paillier_keypair, rng):
        pk, sk = paillier_keypair.public, paillier_keypair.secret
        c = pk.encrypt(100, rng=rng) + pk.encrypt(23, rng=rng)
        assert sk.decrypt(c) == 123

    def test_constant_addition(self, paillier_keypair, rng):
        pk, sk = paillier_keypair.public, paillier_keypair.secret
        assert sk.decrypt(pk.encrypt(100, rng=rng) + 11) == 111
        assert sk.decrypt(11 + pk.encrypt(100, rng=rng)) == 111

    def test_subtraction(self, paillier_keypair, rng):
        pk, sk = paillier_keypair.public, paillier_keypair.secret
        c = pk.encrypt(100, rng=rng) - pk.encrypt(1, rng=rng)
        assert sk.decrypt(c) == 99
        assert sk.decrypt(pk.encrypt(100, rng=rng) - 30) == 70

    def test_scalar_multiplication(self, paillier_keypair, rng):
        pk, sk = paillier_keypair.public, paillier_keypair.secret
        assert sk.decrypt(pk.encrypt(9, rng=rng) * 11) == 99
        assert sk.decrypt(7 * pk.encrypt(9, rng=rng)) == 63

    def test_negative_scalar(self, paillier_keypair, rng):
        pk, sk = paillier_keypair.public, paillier_keypair.secret
        assert sk.decrypt(pk.encrypt(9, rng=rng) * -2) == pk.n - 18

    def test_cross_key_addition_rejected(self, paillier_keypair, rng):
        other = generate_keypair(64, fixture_index=5)
        with pytest.raises(EncryptionError):
            paillier_keypair.public.encrypt(1, rng=rng) + other.public.encrypt(1, rng=rng)

    def test_rerandomize_preserves_plaintext(self, paillier_keypair, rng):
        pk, sk = paillier_keypair.public, paillier_keypair.secret
        c = pk.encrypt(55, rng=rng)
        c2 = c.rerandomize(rng)
        assert c2 != c
        assert sk.decrypt(c2) == 55


class TestCiphertextObject:
    def test_zero_value_rejected(self, paillier_keypair):
        with pytest.raises(EncryptionError):
            PaillierCiphertext(paillier_keypair.public, 0)

    def test_hash_and_eq(self, paillier_keypair):
        pk = paillier_keypair.public
        a = pk.encrypt(3, randomness=7)
        b = pk.encrypt(3, randomness=7)
        assert a == b and hash(a) == hash(b)

    def test_ciphertext_bytes(self, paillier_keypair):
        pk = paillier_keypair.public
        assert pk.ciphertext_bytes == (pk.n_squared.bit_length() + 7) // 8


@settings(max_examples=20, deadline=None)
@given(
    m1=st.integers(min_value=0, max_value=(1 << 40)),
    m2=st.integers(min_value=0, max_value=(1 << 40)),
    s=st.integers(min_value=0, max_value=1 << 20),
)
def test_homomorphism_property(m1, m2, s):
    kp = generate_keypair(64)
    pk, sk = kp.public, kp.secret
    c = pk.encrypt(m1) * s + pk.encrypt(m2)
    assert sk.decrypt(c) == (m1 * s + m2) % pk.n


def _decrypt_by_lambda(sk, ciphertext):
    """The textbook formula ``L(c^λ mod N²)·λ⁻¹ mod N`` — the oracle the
    CRT decryption is checked against."""
    n, n2 = sk.public.n, sk.public.n_squared
    u = pow(ciphertext.value, sk.lam, n2)
    assert (u - 1) % n == 0
    return (u - 1) // n * pow(sk.lam, -1, n) % n


@settings(max_examples=40, deadline=None)
@given(
    bits=st.sampled_from([64, 128, 256]),
    which=st.integers(min_value=0, max_value=1),
    fraction=st.one_of(
        st.sampled_from([(0, 1), (1, 1)]),            # m = 0 and m = N - 1
        st.tuples(st.integers(0, 1 << 64), st.just(1 << 64)),
    ),
    seed=st.integers(min_value=0, max_value=1 << 32),
)
def test_crt_decryption_matches_the_lambda_formula(bits, which, fraction, seed):
    kp = generate_keypair(bits, fixture_index=which)
    pk, sk = kp.public, kp.secret
    m = (pk.n - 1) * fraction[0] // fraction[1]
    c = pk.encrypt(m, rng=random.Random(seed))
    assert sk.decrypt(c) == _decrypt_by_lambda(sk, c) == m
    # ... and on a ciphertext that is no encryption we made: any unit of
    # Z*_{N²} decrypts to the same plaintext under both formulas.
    shifted = c * 3 + (pk.n - 5)
    assert sk.decrypt(shifted) == _decrypt_by_lambda(sk, shifted) == (3 * m - 5) % pk.n
    assert pk.encrypt(m, randomness=sk.extract_randomness(c)) == c


def test_crt_decryption_with_primes_that_are_not_safe():
    # gcd(p-1, q-1) = 6: λ is a proper divisor of (p-1)(q-1)/2.
    kp = keypair_from_primes(1000003, 1000033)
    pk, sk = kp.public, kp.secret
    for m in (0, 1, 123456789, pk.n - 1):
        c = pk.encrypt(m, randomness=999331)
        assert sk.decrypt(c) == _decrypt_by_lambda(sk, c) == m
    with pytest.raises(EncryptionError):
        sk.decrypt(PaillierCiphertext(pk, 1000003 * 7))   # not a unit mod N
