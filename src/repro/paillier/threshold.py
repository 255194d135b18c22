"""Linearly homomorphic key-rerandomizable threshold Paillier (paper §4.1).

Implements every algorithm of the paper's TE interface:

====================  =======================================================
``TKGen``             :meth:`ThresholdPaillier.keygen`
``TEnc``              :meth:`ThresholdPublicKey.encrypt`
``TPDec``             :meth:`ThresholdPaillier.partial_decrypt`
``TDec``              :meth:`ThresholdPaillier.combine`
``TEval``             :func:`teval`
``TKRes``             :meth:`ThresholdPaillier.reshare`
``TKRec``             :meth:`ThresholdPaillier.recombine`
``SimTPDec``          :meth:`ThresholdPaillier.simulate_partials`
====================  =======================================================

Construction (Damgård–Jurik / CDN / Shoup):

* Safe primes p = 2p'+1, q = 2q'+1; N = pq, m = p'q'.
* Decryption exponent ``d`` with ``d ≡ 1 (mod N)`` and ``d ≡ 0 (mod m)``,
  Shamir-shared by a degree-``t`` *integer* polynomial (coefficients
  statistically mask the secret; no reduction modulo the unknown order).
* Partial decryption of ciphertext ``c``: ``c_i = c^(2Δ·d_i) mod N²`` with
  Δ = n!.
* Combination over any verified set S with |S| > t:
  ``c' = Π c_i^(2Δλ_i^S)`` where ``Δλ_i^S`` are the integer-scaled Lagrange
  coefficients; then ``m = L(c') · θ_e^{-1} mod N``.
* **Epoch-tracked resharing**: TKRes deals integer sub-sharings of each
  share; TKRec recombines with Δ-scaled Lagrange coefficients, so the
  implicit secret grows by a factor Δ per epoch.  The public correction
  factor ``θ_e = 4·Δ^(2+e)`` absorbs this at decryption — resharing is exact
  and unbounded-depth without knowing the secret order m.
* Verification values ``v_i = v^(Δ·d_i) mod N²`` ride along with shares and
  evolve through resharing publicly; the NIZK layer's partial-decryption
  proof (Chaum–Pedersen in an unknown-order group) binds partials to them.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from repro.engine.engine import active as _active_engine
from repro.errors import EncryptionError, ParameterError
from repro.fields.lagrange import falling_factorial_delta, integer_lagrange_scaled
from repro.observability import hooks as _hooks
from repro.paillier.paillier import (
    _L,
    PaillierCiphertext,
    PaillierPublicKey,
)
from repro.paillier.primes import fixture_safe_prime_pair, random_safe_prime

#: Statistical hiding parameter for integer secret sharing.
STATISTICAL_SECURITY = 40

ThresholdCiphertext = PaillierCiphertext


@dataclass(frozen=True)
class ThresholdPublicKey:
    """Public portion of the threshold key: modulus plus sharing geometry."""

    paillier: PaillierPublicKey
    n_parties: int
    threshold: int
    verification_base: int

    def __post_init__(self):
        if not 0 < self.threshold + 1 <= self.n_parties:
            raise ParameterError(
                f"threshold {self.threshold} invalid for {self.n_parties} parties"
            )

    @property
    def n(self) -> int:
        return self.paillier.n

    @property
    def n_squared(self) -> int:
        return self.paillier.n_squared

    @property
    def delta(self) -> int:
        """Δ = n!, the Lagrange denominator-clearing factor."""
        return falling_factorial_delta(self.n_parties)

    @cached_property
    def exponent_check_base(self) -> int:
        """``v^Δ mod N²``, the base of every exponent check against a
        verification value ``v_i = (v^Δ)^{d_i}``: the partial-decryption
        proofs and the resharing checks all raise it.

        A constant of the key, derived on first use and kept with the key
        object (not a field: equality, hashing and the wire form are those
        of the four fields).  That one derivation is what ``paillier.exp``
        counts — once per key, not once per proof.
        """
        _hooks.note(_hooks.PAILLIER_EXP)
        return pow(self.verification_base, self.delta, self.n_squared)

    @property
    def plaintext_modulus(self) -> int:
        return self.paillier.n

    @property
    def ciphertext_bytes(self) -> int:
        return self.paillier.ciphertext_bytes

    def encrypt(
        self, message: int, randomness: int | None = None, rng=None
    ) -> ThresholdCiphertext:
        """TEnc: ordinary Paillier encryption under the shared key."""
        return self.paillier.encrypt(message, randomness=randomness, rng=rng)

    def correction_factor(self, epoch: int) -> int:
        """θ_e = 4·Δ^(2+e) mod N — undoes Δ-growth from ``epoch`` resharings."""
        return 4 * pow(self.delta, 2 + epoch, self.n) % self.n

    def __repr__(self) -> str:
        return (
            f"ThresholdPublicKey(bits={self.n.bit_length()}, "
            f"n={self.n_parties}, t={self.threshold})"
        )


@dataclass(frozen=True)
class ThresholdKeyShare:
    """Party ``index``'s integer share of the decryption exponent."""

    index: int
    value: int
    epoch: int
    verification: int  # v_i = v^(Δ·value) mod N²

    def __post_init__(self):
        if self.index < 1:
            raise ParameterError(f"share index must be >= 1, got {self.index}")
        if self.epoch < 0:
            raise ParameterError(f"epoch must be >= 0, got {self.epoch}")

    @property
    def byte_length(self) -> int:
        return (abs(self.value).bit_length() + 7) // 8 + 1


@dataclass(frozen=True)
class PartialDecryption:
    """``c_i = c^(2Δ·d_i) mod N²`` from party ``index`` at ``epoch``."""

    index: int
    value: int
    epoch: int


@dataclass(frozen=True)
class ResharingMessage:
    """TKRes output of one party: integer subshares + verification values.

    ``subshares[j-1]`` is destined for the next committee's party ``j``; in
    the protocol it is transmitted encrypted under j's public key, while the
    ``verifications`` are broadcast so everyone can derive the next epoch's
    verification keys.
    """

    sender: int
    epoch: int
    subshares: tuple[int, ...]
    verifications: tuple[int, ...]


class ThresholdPaillier:
    """Namespace for the threshold operations (all stateless)."""

    # -- TKGen ----------------------------------------------------------------

    @staticmethod
    def keygen(
        n_parties: int,
        threshold: int,
        bits: int = 64,
        rng=None,
        use_fixtures: bool = True,
        fixture_index: int = 0,
    ) -> tuple[ThresholdPublicKey, list[ThresholdKeyShare]]:
        """TKGen: generate tpk and shares tsk_1..tsk_n of the decryption key.

        ``bits`` is the size of N; with ``use_fixtures`` the safe primes come
        from the deterministic fixtures (fast, test-friendly).
        """
        half = bits // 2
        if use_fixtures:
            try:
                p, q = fixture_safe_prime_pair(half, which=fixture_index)
            except ParameterError:
                p = random_safe_prime(half, rng=rng)
                q = random_safe_prime(half, rng=rng)
        else:
            p = random_safe_prime(half, rng=rng)
            q = random_safe_prime(half, rng=rng)
            while q == p:
                q = random_safe_prime(half, rng=rng)
        return ThresholdPaillier.keygen_from_primes(
            p, q, n_parties, threshold, rng=rng
        )

    @staticmethod
    def keygen_from_primes(
        p: int, q: int, n_parties: int, threshold: int, rng=None
    ) -> tuple[ThresholdPublicKey, list[ThresholdKeyShare]]:
        if p == q:
            raise ParameterError("safe primes must be distinct")
        n = p * q
        m = (p - 1) // 2 * ((q - 1) // 2)
        if n_parties >= min((p - 1) // 2, (q - 1) // 2):
            raise ParameterError("modulus too small for this many parties")
        # d ≡ 0 (mod m), d ≡ 1 (mod N); gcd(m, N) = 1 for safe primes.
        d = m * pow(m, -1, n)
        randrange = _randrange(rng)
        n2 = n * n
        # Verification base: a random square (generator of QR_{N²} w.h.p.).
        v = pow(randrange(2, n2), 2, n2)
        public = PaillierPublicKey(n)
        tpk = ThresholdPublicKey(public, n_parties, threshold, v)
        # Integer Shamir sharing of d with statistically hiding coefficients.
        bound = (n * n) << STATISTICAL_SECURITY
        coefficients = [d] + [randrange(0, bound) for _ in range(threshold)]
        delta = tpk.delta
        values = [
            _eval_int_poly(coefficients, i) for i in range(1, n_parties + 1)
        ]
        # Same base v for every verification value: one engine batch.
        verifications = _active_engine().pow_many(
            [(v, delta * value, n2) for value in values]
        )
        shares = [
            ThresholdKeyShare(
                index=i, value=value, epoch=0, verification=verification
            )
            for i, (value, verification) in enumerate(
                zip(values, verifications), start=1
            )
        ]
        return tpk, shares

    # -- TPDec ---------------------------------------------------------------

    @staticmethod
    def partial_decrypt(
        tpk: ThresholdPublicKey,
        share: ThresholdKeyShare,
        ciphertext: ThresholdCiphertext,
    ) -> PartialDecryption:
        """TPDec: party's contribution ``c^(2Δ·d_i) mod N²``."""
        if ciphertext.public != tpk.paillier:
            raise EncryptionError("ciphertext under a different threshold key")
        value = pow(ciphertext.value, 2 * tpk.delta * share.value, tpk.n_squared)
        _hooks.note(_hooks.PAILLIER_PARTIAL_DECRYPT)
        _hooks.note(_hooks.PAILLIER_EXP)
        return PartialDecryption(share.index, value, share.epoch)

    # -- TDec ------------------------------------------------------------------

    @staticmethod
    def combine(
        tpk: ThresholdPublicKey,
        partials: Iterable[PartialDecryption],
    ) -> int:
        """TDec: recover the plaintext from > t partial decryptions.

        All supplied partials are used (the Lagrange set is the full input
        set), so callers must pass a consistent verified set.
        """
        plist = sorted(partials, key=lambda p: p.index)
        if len({p.index for p in plist}) != len(plist):
            raise EncryptionError("duplicate partial decryptions")
        if len(plist) < tpk.threshold + 1:
            raise EncryptionError(
                f"need {tpk.threshold + 1} partials, got {len(plist)}"
            )
        epochs = {p.epoch for p in plist}
        if len(epochs) != 1:
            raise EncryptionError(f"partials from mixed epochs: {sorted(epochs)}")
        epoch = plist[0].epoch
        xs = [p.index for p in plist]
        scaled, _ = integer_lagrange_scaled(xs, at=0, delta=tpk.delta)
        n2 = tpk.n_squared
        powers = _active_engine().pow_many(
            [(p.value, 2 * lam, n2) for p, lam in zip(plist, scaled)]
        )
        combined = 1
        for value in powers:
            combined = combined * value % n2
        _hooks.note(_hooks.PAILLIER_COMBINE)
        _hooks.note(_hooks.PAILLIER_EXP, len(plist))
        ell = _L(combined, tpk.n)
        theta = tpk.correction_factor(epoch)
        return ell * pow(theta, -1, tpk.n) % tpk.n

    @staticmethod
    def decrypt(
        tpk: ThresholdPublicKey,
        shares: Sequence[ThresholdKeyShare],
        ciphertext: ThresholdCiphertext,
    ) -> int:
        """Convenience: partial-decrypt with each share, then combine."""
        partials = [
            ThresholdPaillier.partial_decrypt(tpk, s, ciphertext) for s in shares
        ]
        return ThresholdPaillier.combine(tpk, partials)

    # -- TKRes / TKRec -----------------------------------------------------------

    @staticmethod
    def reshare(
        tpk: ThresholdPublicKey, share: ThresholdKeyShare, rng=None
    ) -> ResharingMessage:
        """TKRes: deal an integer sub-sharing of this share to the next committee."""
        randrange = _randrange(rng)
        bound = (abs(share.value) + 1) << STATISTICAL_SECURITY
        coefficients = [share.value] + [
            randrange(0, bound) for _ in range(tpk.threshold)
        ]
        subshares = tuple(
            _eval_int_poly(coefficients, j) for j in range(1, tpk.n_parties + 1)
        )
        n2 = tpk.n_squared
        delta = tpk.delta
        verifications = tuple(
            _active_engine().pow_many(
                [(tpk.verification_base, delta * s, n2) for s in subshares]
            )
        )
        _hooks.note(_hooks.THRESHOLD_RESHARE)
        _hooks.note(_hooks.PAILLIER_EXP, len(verifications))
        return ResharingMessage(share.index, share.epoch, subshares, verifications)

    @staticmethod
    def recombine(
        tpk: ThresholdPublicKey,
        receiver: int,
        contributions: Mapping[int, int],
        previous_epoch: int,
        contributor_set: Sequence[int] | None = None,
    ) -> ThresholdKeyShare:
        """TKRec: combine received subshares into the next epoch's key share.

        ``contributions[i]`` is the subshare sent by previous-committee
        member ``i`` to ``receiver``.  *Every* receiver must use the same
        ``contributor_set`` (defaults to all contributors, sorted) or the
        resulting shares lie on different polynomials.  ``previous_epoch``
        is the epoch of the shares that were reshared: the raw subshares
        do not carry it, and ``combine`` corrects by the new share's epoch.
        """
        cset = sorted(contributor_set if contributor_set is not None else contributions)
        if len(cset) < tpk.threshold + 1:
            raise EncryptionError(
                f"need {tpk.threshold + 1} resharing contributions, got {len(cset)}"
            )
        missing = [i for i in cset if i not in contributions]
        if missing:
            raise EncryptionError(f"missing contributions from {missing}")
        scaled, _ = integer_lagrange_scaled(cset, at=0, delta=tpk.delta)
        value = sum(lam * contributions[i] for i, lam in zip(cset, scaled))
        n2 = tpk.n_squared
        verification = pow(tpk.verification_base, tpk.delta * value, n2)
        _hooks.note(_hooks.THRESHOLD_RECOMBINE)
        _hooks.note(_hooks.PAILLIER_EXP)
        return ThresholdKeyShare(receiver, value, previous_epoch + 1, verification)

    @staticmethod
    def derive_verification(
        tpk: ThresholdPublicKey,
        receiver: int,
        messages: Sequence[ResharingMessage],
        contributor_set: Sequence[int],
    ) -> int:
        """Publicly derive the next-epoch verification key for ``receiver``.

        ``v'_j = Π v_{i,j}^(Δλ_i)`` over the agreed contributor set — anyone
        can compute this from the broadcast resharing messages.
        """
        cset = sorted(contributor_set)
        by_sender = {msg.sender: msg for msg in messages}
        scaled, _ = integer_lagrange_scaled(cset, at=0, delta=tpk.delta)
        n2 = tpk.n_squared
        acc = 1
        for i, lam in zip(cset, scaled):
            vij = by_sender[i].verifications[receiver - 1]
            acc = acc * pow(vij, lam, n2) % n2
        return acc

    # -- SimTPDec ------------------------------------------------------------

    @staticmethod
    def simulate_partials(
        tpk: ThresholdPublicKey,
        ciphertext: ThresholdCiphertext,
        target_message: int,
        honest_shares: Sequence[ThresholdKeyShare],
        corrupt_partials: Sequence[PartialDecryption],
    ) -> list[PartialDecryption]:
        """SimTPDec: honest partials forcing TDec (over the full set) to
        output ``target_message``.

        Standard CDN simulation: compute honest partials honestly, recover
        the actual plaintext, then shift a single honest partial by
        ``(1+N)^x`` with ``x = (2Δλ_i)^{-1}·θ_e·(target - actual) mod N``.
        The returned partials combine with ``corrupt_partials`` (the full
        index set) to the target.
        """
        if not honest_shares:
            raise EncryptionError("need at least one honest share to simulate")
        honest = [
            ThresholdPaillier.partial_decrypt(tpk, s, ciphertext)
            for s in honest_shares
        ]
        all_partials = list(corrupt_partials) + honest
        actual = ThresholdPaillier.combine(tpk, all_partials)
        shift = (target_message - actual) % tpk.n
        if shift == 0:
            return honest
        # Lagrange coefficient of the adjusted party over the full set.
        xs = sorted(p.index for p in all_partials)
        scaled, _ = integer_lagrange_scaled(xs, at=0, delta=tpk.delta)
        lam_by_index = dict(zip(xs, scaled))
        adjusted_index = honest[0].index
        lam = 2 * lam_by_index[adjusted_index]
        theta = tpk.correction_factor(honest[0].epoch)
        x = pow(lam, -1, tpk.n) * theta * shift % tpk.n
        n2 = tpk.n_squared
        adjusted_value = honest[0].value * ((1 + x * tpk.n) % n2) % n2
        honest[0] = PartialDecryption(adjusted_index, adjusted_value, honest[0].epoch)
        return honest


def teval(
    tpk: ThresholdPublicKey,
    ciphertexts: Sequence[ThresholdCiphertext],
    coefficients: Sequence[int],
) -> ThresholdCiphertext:
    """TEval: deterministic homomorphic linear combination ``Σ λ_i·m_i``."""
    if len(ciphertexts) != len(coefficients):
        raise ParameterError(
            f"{len(ciphertexts)} ciphertexts vs {len(coefficients)} coefficients"
        )
    if not ciphertexts:
        raise ParameterError("TEval of an empty combination")
    n2 = tpk.n_squared
    for c in ciphertexts:
        if c.public != tpk.paillier:
            raise EncryptionError("ciphertext under a different key in TEval")
    powers = _active_engine().pow_many(
        [
            (c.value, int(lam) % tpk.n, n2)
            for c, lam in zip(ciphertexts, coefficients)
        ]
    )
    acc = 1
    for value in powers:
        acc = acc * value % n2
    _hooks.note(_hooks.PAILLIER_EXP, len(ciphertexts))
    return ThresholdCiphertext(tpk.paillier, acc)


def _randrange(rng):
    """A ``randrange(a, b)`` callable from an optional RNG (CSPRNG default)."""
    if rng is None:
        return secrets.SystemRandom().randrange
    return rng.randrange


def _eval_int_poly(coefficients: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc
