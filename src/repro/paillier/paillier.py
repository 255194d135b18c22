"""Textbook Paillier public-key encryption (the ``PKE`` of the paper).

Uses the standard ``g = 1 + N`` simplification, under which encryption is
``Enc(m; r) = (1 + mN) · r^N mod N²`` and the scheme is additively
homomorphic over the plaintext ring Z_N:

* ``c1 ⊞ c2`` encrypts ``m1 + m2``           (:meth:`PaillierCiphertext.__add__`)
* ``c ⊠ s`` encrypts ``m · s`` for public s  (:meth:`PaillierCiphertext.__mul__`)

Role keys and Keys-For-Future in the protocol are Paillier keypairs; the
secret key is the factorization, serialized as ``(p, q)``.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from functools import cached_property

from repro.errors import EncryptionError, ParameterError
from repro.observability import hooks as _hooks
from repro.paillier.primes import fixture_safe_prime_pair, is_probable_prime, random_prime


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public key: the modulus N (g = 1 + N implicitly)."""

    n: int

    def __post_init__(self):
        if self.n < 6:
            raise ParameterError(f"modulus too small: {self.n}")

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    @property
    def plaintext_modulus(self) -> int:
        return self.n

    def random_unit(self, rng=None) -> int:
        """A random element of Z*_N (encryption randomness)."""
        randrange = rng.randrange if rng is not None else secrets.SystemRandom().randrange
        while True:
            r = randrange(1, self.n)
            if _gcd(r, self.n) == 1:
                return r

    def encrypt(
        self, message: int, randomness: int | None = None, rng=None
    ) -> "PaillierCiphertext":
        """Encrypt ``message mod N`` with fresh (or supplied) randomness."""
        m = int(message) % self.n
        r = randomness if randomness is not None else self.random_unit(rng)
        if _gcd(r, self.n) != 1:
            raise EncryptionError("encryption randomness not a unit mod N")
        n2 = self.n_squared
        value = (1 + m * self.n) % n2 * pow(r, self.n, n2) % n2
        _hooks.note(_hooks.PAILLIER_ENCRYPT)
        _hooks.note(_hooks.PAILLIER_EXP)
        return PaillierCiphertext(self, value)

    def encrypt_zero_with(self, randomness: int) -> "PaillierCiphertext":
        """Deterministic encryption of 0 (used by rerandomization & proofs)."""
        return self.encrypt(0, randomness=randomness)

    def encrypt_many(
        self, messages, randomizers, engine=None
    ) -> list["PaillierCiphertext"]:
        """Bulk encryption through the active crypto engine.

        Bit-identical to ``[self.encrypt(m, randomness=r) ...]``; the
        ``r^N`` exponentiations run as one (possibly parallel) batch.
        """
        # Imported lazily: repro.engine.batch imports this module.
        from repro.engine.batch import encrypt_many as _encrypt_many

        return _encrypt_many(self, messages, randomizers, engine=engine)

    @property
    def ciphertext_bytes(self) -> int:
        """Serialized size of one ciphertext (element of Z_{N²})."""
        return (self.n_squared.bit_length() + 7) // 8

    def __repr__(self) -> str:
        return f"PaillierPublicKey(bits={self.n.bit_length()})"


@dataclass(frozen=True)
class PaillierSecretKey:
    """Secret key: the factorization N = p·q."""

    public: PaillierPublicKey
    p: int
    q: int

    def __post_init__(self):
        if self.p * self.q != self.public.n:
            raise ParameterError("p*q does not match the public modulus")

    @property
    def lam(self) -> int:
        """Carmichael λ(N) = lcm(p-1, q-1)."""
        g = _gcd(self.p - 1, self.q - 1)
        return (self.p - 1) * (self.q - 1) // g

    @cached_property
    def _crt(self) -> tuple[int, int, int, int, int]:
        """``(p², q², h_p, h_q, p⁻¹ mod q)`` with ``h_p = L_p((1+N)^(p-1))⁻¹``.

        ``(1+N)^(p-1) ≡ 1 + (p-1)·pq (mod p²)``, so ``L_p`` of it is
        ``-q mod p`` — no exponentiation needed (and likewise for q).
        """
        p, q = self.p, self.q
        return p * p, q * q, pow(-q, -1, p), pow(-p, -1, q), pow(p, -1, q)

    def decrypt(self, ciphertext: "PaillierCiphertext") -> int:
        """CRT decryption: the plaintext mod p from ``c^(p-1) mod p²``, mod q
        from ``c^(q-1) mod q²``, recombined — the plaintext of the textbook
        ``L(c^λ mod N²)·λ⁻¹`` formula at about a third of its cost (two
        exponentiations with half the modulus and half the exponent)."""
        if ciphertext.public != self.public:
            raise EncryptionError("ciphertext under a different key")
        p, q = self.p, self.q
        p2, q2, h_p, h_q, p_inv = self._crt
        m_p = _L(pow(ciphertext.value, p - 1, p2), p) * h_p % p
        m_q = _L(pow(ciphertext.value, q - 1, q2), q) * h_q % q
        _hooks.note(_hooks.PAILLIER_DECRYPT)
        _hooks.note(_hooks.PAILLIER_EXP)
        return m_p + p * ((m_q - m_p) * p_inv % q)

    def extract_randomness(self, ciphertext: "PaillierCiphertext") -> int:
        """Recover the encryption randomness r (possible with the sk)."""
        n, n2 = self.public.n, self.public.n_squared
        m = self.decrypt(ciphertext)
        # c·(1+N)^{-m} = r^N mod N²; take N-th root via d = N^{-1} mod λ.
        c0 = ciphertext.value * pow((1 + m * n) % n2, -1, n2) % n2
        d = pow(n, -1, self.lam)
        return pow(c0, d, n2) % n

    def serialize(self) -> tuple[int, int]:
        return (self.p, self.q)


@dataclass(frozen=True)
class PaillierKeyPair:
    public: PaillierPublicKey
    secret: PaillierSecretKey


class PaillierCiphertext:
    """An element of Z*_{N²}; supports the homomorphic operations."""

    __slots__ = ("public", "value")

    def __init__(self, public: PaillierPublicKey, value: int):
        self.public = public
        self.value = int(value) % public.n_squared
        if self.value == 0:
            raise EncryptionError("zero is not a valid ciphertext")

    def _require_same_key(self, other: "PaillierCiphertext") -> None:
        if other.public != self.public:
            raise EncryptionError("homomorphic op across different keys")

    def __add__(self, other):
        """Homomorphic plaintext addition (with a ciphertext or an int)."""
        if isinstance(other, int):
            n2 = self.public.n_squared
            shifted = self.value * (1 + (other % self.public.n) * self.public.n) % n2
            return PaillierCiphertext(self.public, shifted)
        if not isinstance(other, PaillierCiphertext):
            return NotImplemented
        self._require_same_key(other)
        return PaillierCiphertext(
            self.public, self.value * other.value % self.public.n_squared
        )

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return self + (-other)
        if not isinstance(other, PaillierCiphertext):
            return NotImplemented
        return self + (other * -1)

    def __mul__(self, scalar: int):
        """Homomorphic multiplication by a public integer scalar."""
        if not isinstance(scalar, int):
            return NotImplemented
        n2 = self.public.n_squared
        s = scalar % self.public.n
        _hooks.note(_hooks.PAILLIER_EXP)
        return PaillierCiphertext(self.public, pow(self.value, s, n2))

    __rmul__ = __mul__

    def rerandomize(self, rng=None) -> "PaillierCiphertext":
        """Fresh-looking ciphertext of the same plaintext."""
        r = self.public.random_unit(rng)
        n2 = self.public.n_squared
        _hooks.note(_hooks.PAILLIER_EXP)
        return PaillierCiphertext(
            self.public, self.value * pow(r, self.public.n, n2) % n2
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PaillierCiphertext)
            and other.public == self.public
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.public.n, self.value))

    def __repr__(self) -> str:
        return f"PaillierCiphertext({self.value % 10**6}..., bits={self.public.n.bit_length()})"


def generate_keypair(
    bits: int = 64, rng=None, use_fixtures: bool = True, fixture_index: int = 0
) -> PaillierKeyPair:
    """Generate a Paillier keypair with an N of roughly ``bits`` bits.

    With ``use_fixtures`` (default) and a supported size, primes come from
    the deterministic safe-prime fixtures — fast and reproducible for tests.
    Otherwise fresh random primes (not necessarily safe) are generated.
    """
    half = bits // 2
    if use_fixtures:
        try:
            p, q = fixture_safe_prime_pair(half, which=fixture_index)
            return _keypair_from_primes(p, q)
        except ParameterError:
            pass
    p = random_prime(half, rng=rng)
    q = random_prime(half, rng=rng)
    while q == p:
        q = random_prime(half, rng=rng)
    return _keypair_from_primes(p, q)


def keypair_from_primes(p: int, q: int) -> PaillierKeyPair:
    """Build a keypair from caller-supplied primes (validated)."""
    if p == q:
        raise ParameterError("p and q must be distinct")
    if not (is_probable_prime(p) and is_probable_prime(q)):
        raise ParameterError("p and q must both be prime")
    return _keypair_from_primes(p, q)


def _keypair_from_primes(p: int, q: int) -> PaillierKeyPair:
    public = PaillierPublicKey(p * q)
    return PaillierKeyPair(public, PaillierSecretKey(public, p, q))


def _L(u: int, n: int) -> int:
    """The Paillier L function: (u - 1) / n, exact division."""
    if (u - 1) % n != 0:
        raise EncryptionError("L function input not ≡ 1 mod N: invalid ciphertext")
    return (u - 1) // n


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
