"""Fiat–Shamir Σ-protocols over Paillier groups.

All four proofs share the same skeleton: commitments, a transcript-derived
challenge, and *integer* responses ``z = mask + e·witness`` with masks drawn
``challenge_bits + statistical_bits`` bits above the witness — the standard
unknown-order-group technique giving statistical HVZK without knowing the
group order.  Each class also exposes ``simulate`` (the HVZK simulator for a
given challenge), which the tests use to check the zero-knowledge shape of
the protocol, mirroring the paper's Definition 3 game.

Every modular exponentiation here is issued through
:func:`repro.engine.engine.exp_many` — one small engine batch per group of
powers that do not depend on each other — so it is counted under
``paillier.exp`` and served by the engine kernel's fixed-base tables: the
exponent-check base ``v^Δ`` (:attr:`ThresholdPublicKey.exponent_check_base`)
recurs in every partial-decryption and resharing proof of a run.  The
values are those of ``builtins.pow``.

A committee's partial-decryption proofs against one ciphertext are checked
together: :meth:`PartialDecryptionProof.verify_many` collapses their
ciphertext-side equations into one by a hash-derived small-exponent random
linear combination, and its right side is one simultaneous
multi-exponentiation (:func:`repro.engine.engine.multi_exp`).  The other
three relations are verified proof by proof (docs/PROTOCOL.md says why).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Sequence

from repro.engine.engine import exp_many, multi_exp
from repro.errors import ParameterError
from repro.nizk.params import DEFAULT_PARAMS, ProofParams
from repro.nizk.transcript import FiatShamirTranscript
from repro.paillier.paillier import PaillierCiphertext, PaillierPublicKey
from repro.paillier.threshold import PartialDecryption, ThresholdKeyShare, ThresholdPublicKey


def _randbelow(bound: int, rng=None) -> int:
    if bound < 1:
        raise ParameterError(f"empty sampling range [0, {bound})")
    if rng is None:
        return secrets.randbelow(bound)
    return rng.randrange(bound)


@dataclass(frozen=True)
class PlaintextKnowledgeProof:
    """Proof of knowledge of (m, r) with ``c = (1+N)^m · r^N mod N²``.

    Uses the identity ``(1+N)^N ≡ 1 (mod N²)``, so the exponent response can
    be taken over the integers without wraparound bookkeeping.
    """

    commitment: int
    response_exponent: int
    response_unit: int

    LABEL = "paillier-plaintext-knowledge"

    @classmethod
    def prove(
        cls,
        public: PaillierPublicKey,
        ciphertext: PaillierCiphertext,
        message: int,
        randomness: int,
        params: ProofParams = DEFAULT_PARAMS,
        rng=None,
        context: str = "",
    ) -> "PlaintextKnowledgeProof":
        n, n2 = public.n, public.n_squared
        mask_bound = n << (params.challenge_bits + params.statistical_bits)
        s = _randbelow(mask_bound, rng)
        u = public.random_unit(rng)
        (u_pow,) = exp_many([(u, n, n2)])
        commitment = (1 + s % n2 * n) % n2 * u_pow % n2
        e = cls._challenge(public, ciphertext, commitment, params, context)
        z = s + e * (message % n)
        (r_pow,) = exp_many([(randomness, e, n)])
        w = u * r_pow % n
        return cls(commitment, z, w)

    def verify(
        self,
        public: PaillierPublicKey,
        ciphertext: PaillierCiphertext,
        params: ProofParams = DEFAULT_PARAMS,
        context: str = "",
    ) -> bool:
        n, n2 = public.n, public.n_squared
        if not (0 < self.commitment < n2 and 0 < self.response_unit < n):
            return False
        e = self._challenge(public, ciphertext, self.commitment, params, context)
        w_pow, c_pow = exp_many([
            (self.response_unit, n, n2), (ciphertext.value, e, n2),
        ])
        lhs = (1 + self.response_exponent % n2 * n) % n2 * w_pow % n2
        rhs = self.commitment * c_pow % n2
        return lhs == rhs

    @classmethod
    def simulate(
        cls,
        public: PaillierPublicKey,
        ciphertext: PaillierCiphertext,
        challenge: int,
        params: ProofParams = DEFAULT_PARAMS,
        rng=None,
    ) -> tuple[int, int, int]:
        """HVZK simulator: a transcript (commitment, challenge, responses)
        with the same distribution as an honest run on the given challenge."""
        n, n2 = public.n, public.n_squared
        z = _randbelow(n << (params.challenge_bits + params.statistical_bits), rng)
        w = public.random_unit(rng)
        w_pow, c_pow = exp_many([(w, n, n2), (ciphertext.value, -challenge, n2)])
        commitment = (1 + z % n2 * n) % n2 * w_pow % n2 * c_pow % n2
        return commitment, z, w

    @classmethod
    def _challenge(cls, public, ciphertext, commitment, params, context="") -> int:
        t = FiatShamirTranscript(cls.LABEL)
        t.absorb(context, public.n, ciphertext.value, commitment)
        return t.challenge(params.challenge_bits)


@dataclass(frozen=True)
class MultiplicationProof:
    """Beaver-step proof: ``c_b = Enc(b; r)`` and ``c_c = c_a^b`` share ``b``.

    This is exactly the relation the paper's Π_YOSO-Beaver-Triples requires
    from the second committee (§5.2, Protocol 3).
    """

    commitment_enc: int
    commitment_mult: int
    response_exponent: int
    response_unit: int

    LABEL = "paillier-multiplication"

    @classmethod
    def prove(
        cls,
        public: PaillierPublicKey,
        c_a: PaillierCiphertext,
        c_b: PaillierCiphertext,
        c_c: PaillierCiphertext,
        b: int,
        randomness: int,
        params: ProofParams = DEFAULT_PARAMS,
        rng=None,
        context: str = "",
    ) -> "MultiplicationProof":
        n, n2 = public.n, public.n_squared
        mask_bound = n << (params.challenge_bits + params.statistical_bits)
        s = _randbelow(mask_bound, rng)
        u = public.random_unit(rng)
        u_pow, a2 = exp_many([(u, n, n2), (c_a.value, s, n2)])
        a1 = (1 + s % n2 * n) % n2 * u_pow % n2
        e = cls._challenge(public, c_a, c_b, c_c, a1, a2, params, context)
        z = s + e * (b % n)
        (r_pow,) = exp_many([(randomness, e, n)])
        w = u * r_pow % n
        return cls(a1, a2, z, w)

    def verify(
        self,
        public: PaillierPublicKey,
        c_a: PaillierCiphertext,
        c_b: PaillierCiphertext,
        c_c: PaillierCiphertext,
        params: ProofParams = DEFAULT_PARAMS,
        context: str = "",
    ) -> bool:
        n, n2 = public.n, public.n_squared
        if not (0 < self.commitment_enc < n2 and 0 < self.commitment_mult < n2):
            return False
        if not 0 < self.response_unit < n:
            return False
        e = self._challenge(
            public, c_a, c_b, c_c, self.commitment_enc, self.commitment_mult,
            params, context,
        )
        z, w = self.response_exponent, self.response_unit
        w_pow, b_pow, lhs2, c_pow = exp_many([
            (w, n, n2), (c_b.value, e, n2), (c_a.value, z, n2), (c_c.value, e, n2),
        ])
        lhs1 = (1 + z % n2 * n) % n2 * w_pow % n2
        rhs1 = self.commitment_enc * b_pow % n2
        rhs2 = self.commitment_mult * c_pow % n2
        return lhs1 == rhs1 and lhs2 == rhs2

    @classmethod
    def _challenge(cls, public, c_a, c_b, c_c, a1, a2, params, context="") -> int:
        t = FiatShamirTranscript(cls.LABEL)
        t.absorb(context, public.n, c_a.value, c_b.value, c_c.value, a1, a2)
        return t.challenge(params.challenge_bits)


@dataclass(frozen=True)
class PartialDecryptionProof:
    """Shoup-style proof that a partial decryption used the committed share.

    Proves knowledge of ``d_i`` with ``c_i² = (c^{4Δ})^{d_i}`` and
    ``v_i = (v^Δ)^{d_i}``, binding the published partial to the public
    verification value carried by the key share.
    """

    commitment_cipher: int
    commitment_verif: int
    response: int

    LABEL = "threshold-partial-decryption"
    BATCH_LABEL = "threshold-partial-decryption-batch"

    @classmethod
    def prove(
        cls,
        tpk: ThresholdPublicKey,
        ciphertext: PaillierCiphertext,
        partial: PartialDecryption,
        share: ThresholdKeyShare,
        params: ProofParams = DEFAULT_PARAMS,
        rng=None,
    ) -> "PartialDecryptionProof":
        n2 = tpk.n_squared
        base_c, base_v = cls._bases(tpk, ciphertext)
        witness_bits = abs(share.value).bit_length() + 1
        mask_bound = 1 << (witness_bits + params.challenge_bits + params.statistical_bits)
        w = _randbelow(mask_bound, rng)
        t1, t2 = exp_many([(base_c, w, n2), (base_v, w, n2)])
        e = cls._challenge(tpk, ciphertext, partial, share.verification, t1, t2, params)
        z = w + e * share.value
        return cls(t1, t2, z)

    def verify(
        self,
        tpk: ThresholdPublicKey,
        ciphertext: PaillierCiphertext,
        partial: PartialDecryption,
        verification_value: int,
        params: ProofParams = DEFAULT_PARAMS,
    ) -> bool:
        n2 = tpk.n_squared
        if not (0 < self.commitment_cipher < n2 and 0 < self.commitment_verif < n2):
            return False
        base_c, base_v = self._bases(tpk, ciphertext)
        e = self._challenge(
            tpk, ciphertext, partial, verification_value,
            self.commitment_cipher, self.commitment_verif, params,
        )
        z = self.response
        lhs1, p_pow, lhs2, v_pow = exp_many([
            (base_c, z, n2), (partial.value * partial.value % n2, e, n2),
            (base_v, z, n2), (verification_value, e, n2),
        ])
        rhs1 = self.commitment_cipher * p_pow % n2
        rhs2 = self.commitment_verif * v_pow % n2
        return lhs1 == rhs1 and lhs2 == rhs2

    @classmethod
    def verify_many(
        cls,
        tpk: ThresholdPublicKey,
        ciphertext: PaillierCiphertext,
        items: Sequence[tuple[PartialDecryption, int, "PartialDecryptionProof"]],
        params: ProofParams = DEFAULT_PARAMS,
    ) -> list[bool]:
        """The verdicts of ``proof.verify(tpk, ciphertext, partial, v_i, params)``
        for every ``(partial, v_i, proof)`` of ``items``, checked as one batch.

        Range checks and challenges are per proof, as in :meth:`verify`, and
        so is the verification-value equation ``(v^Δ)^z = t2·v_i^e``: its base
        has a fixed-base table, and checking it exactly names a wrong share
        at once.  The ciphertext-side equations ``(c^{4Δ})^z = t1·(c_i²)^e``
        of the proofs that got this far — whose base changes with every
        ciphertext — are checked as one (Bellare–Garay–Rabin):

            (c^{4Δ})^{Σ ρ_i·z_i}  ==  Π t1_i^{ρ_i} · (c_i²)^{e_i·ρ_i}

        one long power and one multi-exponentiation instead of two powers per
        proof.  The ``challenge_bits``-bit coefficients ``ρ_i`` are squeezed
        from a transcript that has absorbed the statement and *every* item, so
        the verdicts are a function of the batch alone and no coefficient is
        known before the last proof is.  If the combined equation fails, each
        remaining proof is put to :meth:`verify`, so the culprit is still
        named.  A passing batch can differ from the per-proof verdicts only by
        accepting a ``t1`` that is off by the order-2 element −1, which leaves
        the proven relation intact (docs/PROTOCOL.md, "Batch verification").
        """
        n2 = tpk.n_squared
        base_c, base_v = cls._bases(tpk, ciphertext)
        batch = FiatShamirTranscript(cls.BATCH_LABEL)
        batch.absorb(tpk.n, tpk.verification_base, ciphertext.value)
        in_range: list[tuple[int, int]] = []   # (position in items, challenge)
        jobs = []
        for position, (partial, verification_value, proof) in enumerate(items):
            t1, t2 = proof.commitment_cipher, proof.commitment_verif
            batch.absorb(
                partial.index, partial.value, partial.epoch,
                verification_value, t1, t2, proof.response,
            )
            if not (0 < t1 < n2 and 0 < t2 < n2):
                continue
            e = cls._challenge(
                tpk, ciphertext, partial, verification_value, t1, t2, params
            )
            jobs += [(base_v, proof.response, n2), (verification_value, e, n2)]
            in_range.append((position, e))
        powers = exp_many(jobs)
        combined_exponent = 0
        bases: list[int] = []
        exponents: list[int] = []
        pending = []
        for slot, (position, e) in enumerate(in_range):
            partial, _, proof = items[position]
            if powers[2 * slot] != proof.commitment_verif * powers[2 * slot + 1] % n2:
                continue
            rho = batch.challenge(params.challenge_bits)
            combined_exponent += rho * proof.response
            bases += [proof.commitment_cipher, partial.value * partial.value % n2]
            exponents += [rho, e * rho]
            pending.append(position)
        verdicts = [False] * len(items)
        if not pending:
            return verdicts
        (lhs,) = exp_many([(base_c, combined_exponent, n2)])
        if lhs == multi_exp(bases, exponents, n2):
            for position in pending:
                verdicts[position] = True
        else:
            for position in pending:
                partial, verification_value, proof = items[position]
                verdicts[position] = proof.verify(
                    tpk, ciphertext, partial, verification_value, params
                )
        return verdicts

    @classmethod
    def simulate(
        cls,
        tpk: ThresholdPublicKey,
        ciphertext: PaillierCiphertext,
        partial: PartialDecryption,
        verification_value: int,
        challenge: int,
        witness_bits: int,
        params: ProofParams = DEFAULT_PARAMS,
        rng=None,
    ) -> tuple[int, int, int, int]:
        n2 = tpk.n_squared
        base_c, base_v = cls._bases(tpk, ciphertext)
        z = _randbelow(
            1 << (witness_bits + params.challenge_bits + params.statistical_bits), rng
        )
        c_pow, p_pow, v_pow, k_pow = exp_many([
            (base_c, z, n2), (partial.value * partial.value % n2, -challenge, n2),
            (base_v, z, n2), (verification_value, -challenge, n2),
        ])
        return c_pow * p_pow % n2, v_pow * k_pow % n2, challenge, z

    @staticmethod
    def _bases(tpk, ciphertext) -> tuple[int, int]:
        """``(c^{4Δ}, v^Δ)``, the two bases of the discrete-log equality."""
        (base_c,) = exp_many([(ciphertext.value, 4 * tpk.delta, tpk.n_squared)])
        return base_c, tpk.exponent_check_base

    @classmethod
    def _challenge(cls, tpk, ciphertext, partial, verification_value, t1, t2, params):
        t = FiatShamirTranscript(cls.LABEL)
        t.absorb(
            tpk.n, tpk.verification_base, ciphertext.value,
            partial.index, partial.value, partial.epoch,
            verification_value, t1, t2,
        )
        return t.challenge(params.challenge_bits)


@dataclass(frozen=True)
class PlaintextDlogEqualityProof:
    """Cross-group equality: ``c = Enc_pk(x; r)`` and ``V = B^x mod M``.

    Binds an *encrypted* resharing subshare limb to its *public*
    verification value, making the resharing step publicly verifiable
    without revealing the limb (the key consistency check of the
    Re-encrypt/Decrypt protocols; see composite.py for the polynomial-level
    checks layered on top).  Requires ``0 <= x < N_pk``.
    """

    commitment_enc: int
    commitment_dlog: int
    response_exponent: int
    response_unit: int

    LABEL = "plaintext-dlog-equality"

    @classmethod
    def prove(
        cls,
        public: PaillierPublicKey,
        ciphertext: PaillierCiphertext,
        base: int,
        dlog_modulus: int,
        dlog_value: int,
        x: int,
        randomness: int,
        params: ProofParams = DEFAULT_PARAMS,
        rng=None,
    ) -> "PlaintextDlogEqualityProof":
        if not 0 <= x < public.n:
            raise ParameterError("witness out of range for the plaintext space")
        n, n2 = public.n, public.n_squared
        mask_bound = n << (params.challenge_bits + params.statistical_bits)
        s = _randbelow(mask_bound, rng)
        u = public.random_unit(rng)
        u_pow, a2 = exp_many([(u, n, n2), (base, s, dlog_modulus)])
        a1 = (1 + s % n2 * n) % n2 * u_pow % n2
        e = cls._challenge(
            public, ciphertext, base, dlog_modulus, dlog_value, a1, a2, params
        )
        z = s + e * x
        (r_pow,) = exp_many([(randomness, e, n)])
        w = u * r_pow % n
        return cls(a1, a2, z, w)

    def verify(
        self,
        public: PaillierPublicKey,
        ciphertext: PaillierCiphertext,
        base: int,
        dlog_modulus: int,
        dlog_value: int,
        params: ProofParams = DEFAULT_PARAMS,
    ) -> bool:
        n, n2 = public.n, public.n_squared
        if not (0 < self.commitment_enc < n2 and 0 < self.response_unit < n):
            return False
        if not 0 < self.commitment_dlog < dlog_modulus:
            return False
        e = self._challenge(
            public, ciphertext, base, dlog_modulus, dlog_value,
            self.commitment_enc, self.commitment_dlog, params,
        )
        z, w = self.response_exponent, self.response_unit
        w_pow, c_pow, lhs2, v_pow = exp_many([
            (w, n, n2), (ciphertext.value, e, n2),
            (base, z, dlog_modulus), (dlog_value, e, dlog_modulus),
        ])
        lhs1 = (1 + z % n2 * n) % n2 * w_pow % n2
        rhs1 = self.commitment_enc * c_pow % n2
        rhs2 = self.commitment_dlog * v_pow % dlog_modulus
        return lhs1 == rhs1 and lhs2 == rhs2

    @classmethod
    def _challenge(
        cls, public, ciphertext, base, dlog_modulus, dlog_value, a1, a2, params
    ):
        t = FiatShamirTranscript(cls.LABEL)
        t.absorb(
            public.n, ciphertext.value, base, dlog_modulus, dlog_value, a1, a2
        )
        return t.challenge(params.challenge_bits)
