"""Publicly verifiable, encrypted hand-off of tsk between committees.

Each holder of a key share deals an integer sub-sharing of it to the next
committee (``TKRes``); the protocol transmits the subshares encrypted under
the recipients' public keys and makes the whole resharing *publicly
verifiable* through a chain of checks (DESIGN.md §5):

1. encrypted limb  ↔  limb verification value ``(v^Δ)^limb``
   (:class:`~repro.nizk.sigma.PlaintextDlogEqualityProof`, per limb);
2. limb verifications  ↔  subshare verification ``v_{i,j} = (v^Δ)^{s_{i,j}}``
   (public product check with the published offset);
3. subshare verifications lie on a degree-t exponent polynomial whose
   constant term is the sender's committed share
   (:func:`~repro.nizk.composite.verify_exponent_polynomial` /
   :func:`~repro.nizk.composite.verify_exponent_interpolates_share`).

Everyone therefore agrees on the verified contributor set S, so all
receivers recombine over the *same* set — the agreement the threshold layer
requires (``TKRec``).

Subshares at later epochs may be negative; a per-message public
``offset_bits`` shifts them into chunkable non-negative range (the shift is
undone in the exponent during verification and after decryption).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.engine.engine import exp_many
from repro.errors import ProtocolAbortError
from repro.nizk.composite import (
    verify_exponent_interpolates_share,
    verify_exponent_polynomial,
)
from repro.nizk.params import ProofParams
from repro.nizk.sigma import PlaintextDlogEqualityProof
from repro.observability import hooks as _hooks
from repro.paillier.encoding import chunk_integer, safe_chunk_bits, unchunk_integer
from repro.paillier.paillier import (
    PaillierCiphertext,
    PaillierPublicKey,
    PaillierSecretKey,
)
from repro.paillier.threshold import (
    ThresholdKeyShare,
    ThresholdPaillier,
    ThresholdPublicKey,
)
from repro.wire.codec import register_wire_dataclass


@dataclass(frozen=True)
class EncryptedSubshare:
    """One recipient's encrypted subshare with its limb-level evidence."""

    recipient_index: int
    limbs: tuple[PaillierCiphertext, ...]
    limb_verifications: tuple[int, ...]
    limb_proofs: tuple[PlaintextDlogEqualityProof, ...]


register_wire_dataclass(18, EncryptedSubshare)


@dataclass(frozen=True)
class EncryptedResharing:
    """A sender's complete (encrypted, provable) TKRes message."""

    sender_index: int
    epoch: int
    offset_bits: int
    verifications: tuple[int, ...]          # v^(Δ·s_{i,j}) per recipient j
    subshares: tuple[EncryptedSubshare, ...]


register_wire_dataclass(19, EncryptedResharing)


def build_resharing(
    tpk: ThresholdPublicKey,
    share: ThresholdKeyShare,
    recipient_pks: list[PaillierPublicKey],
    params: ProofParams,
    rng=None,
) -> EncryptedResharing:
    """One role's resharing message: deal, encrypt, and prove."""
    if len(recipient_pks) != tpk.n_parties:
        raise ProtocolAbortError(
            f"resharing needs {tpk.n_parties} recipient keys, got {len(recipient_pks)}"
        )
    raw = ThresholdPaillier.reshare(tpk, share, rng=rng)
    offset_bits = max(abs(s).bit_length() for s in raw.subshares) + 1
    offset = 1 << offset_bits
    base = tpk.exponent_check_base
    n2 = tpk.n_squared
    # Chunk every subshare and draw every limb randomizer first (fixed order),
    # so the two heavy exponentiation families — limb encryptions and the
    # shared-base limb verifications — each run as one engine batch.  The
    # verification batch repeats ``base`` per limb: the engine kernel's
    # fixed-base table for ``v^Δ`` serves it.
    limbs_per_recipient: list[list[int]] = []
    limb_rand: list[list[int]] = []
    for subshare, pk in zip(raw.subshares, recipient_pks):
        limbs_int = chunk_integer(subshare + offset, safe_chunk_bits(pk.n))
        limbs_per_recipient.append(limbs_int)
        limb_rand.append([pk.random_unit(rng) for _ in limbs_int])
    enc_values = exp_many([
        (r, pk.n, pk.n_squared)
        for pk, rands in zip(recipient_pks, limb_rand)
        for r in rands
    ])
    verif_values = exp_many([
        (base, limb, n2) for limbs_int in limbs_per_recipient for limb in limbs_int
    ])
    _hooks.note(_hooks.PAILLIER_ENCRYPT, len(enc_values))
    encrypted: list[EncryptedSubshare] = []
    flat = 0
    for j, (pk, limbs_int, rands) in enumerate(
        zip(recipient_pks, limbs_per_recipient, limb_rand), start=1
    ):
        limbs, limb_verifs, limb_proofs = [], [], []
        for limb, randomness in zip(limbs_int, rands):
            n, pk_n2 = pk.n, pk.n_squared
            value = (1 + (limb % n) * n) % pk_n2 * enc_values[flat] % pk_n2
            ciphertext = PaillierCiphertext(pk, value)
            verification = verif_values[flat]
            proof = PlaintextDlogEqualityProof.prove(
                pk, ciphertext, base, n2, verification, limb, randomness,
                params, rng,
            )
            limbs.append(ciphertext)
            limb_verifs.append(verification)
            limb_proofs.append(proof)
            flat += 1
        encrypted.append(
            EncryptedSubshare(j, tuple(limbs), tuple(limb_verifs), tuple(limb_proofs))
        )
    return EncryptedResharing(
        sender_index=share.index,
        epoch=share.epoch,
        offset_bits=offset_bits,
        verifications=raw.verifications,
        subshares=tuple(encrypted),
    )


def verify_resharing(
    tpk: ThresholdPublicKey,
    resharing: EncryptedResharing,
    sender_verification: int,
    recipient_pks: list[PaillierPublicKey],
    params: ProofParams,
) -> bool:
    """Public verification of one sender's resharing (anyone can run this)."""
    if len(resharing.subshares) != tpk.n_parties:
        return False
    if not verify_exponent_polynomial(tpk, resharing.verifications):
        return False
    if not verify_exponent_interpolates_share(
        tpk, resharing.verifications, sender_verification
    ):
        return False
    base = tpk.exponent_check_base
    n2 = tpk.n_squared
    (offset_term,) = exp_many([(base, 1 << resharing.offset_bits, n2)])
    for sub in resharing.subshares:
        if not 1 <= sub.recipient_index <= tpk.n_parties:
            return False
        pk = recipient_pks[sub.recipient_index - 1]
        chunk_bits = safe_chunk_bits(pk.n)
        if not (len(sub.limbs) == len(sub.limb_verifications) == len(sub.limb_proofs)):
            return False
        # Limb combination must equal shifted subshare in the exponent.
        combined = 1
        for power in exp_many([
            (verification, 1 << (m * chunk_bits), n2)
            for m, verification in enumerate(sub.limb_verifications)
        ]):
            combined = combined * power % n2
        expected = (
            resharing.verifications[sub.recipient_index - 1] * offset_term % n2
        )
        if combined != expected:
            return False
        for ciphertext, verification, proof in zip(
            sub.limbs, sub.limb_verifications, sub.limb_proofs
        ):
            if not proof.verify(pk, ciphertext, base, n2, verification, params):
                return False
    return True


def verified_contributors(
    tpk: ThresholdPublicKey,
    resharings: dict[int, EncryptedResharing],
    sender_verifications: dict[int, int],
    recipient_pks: list[PaillierPublicKey],
    params: ProofParams,
) -> list[int]:
    """The publicly agreed contributor set S (sorted sender indices)."""
    good = [
        sender
        for sender, resharing in sorted(resharings.items())
        if sender in sender_verifications
        and resharing.sender_index == sender
        and verify_resharing(
            tpk, resharing, sender_verifications[sender], recipient_pks, params
        )
    ]
    if len(good) < tpk.threshold + 1:
        raise ProtocolAbortError(
            f"only {len(good)} resharings verified, need {tpk.threshold + 1}"
        )
    return good


def receive_share(
    tpk: ThresholdPublicKey,
    receiver_index: int,
    receiver_sk: PaillierSecretKey,
    resharings: dict[int, EncryptedResharing],
    contributor_set: list[int],
    previous_epoch: int,
) -> ThresholdKeyShare:
    """Recipient side: decrypt its subshares and recombine the next share."""
    contributions: dict[int, int] = {}
    for sender in contributor_set:
        resharing = resharings[sender]
        sub = resharing.subshares[receiver_index - 1]
        chunk_bits = safe_chunk_bits(receiver_sk.public.n)
        limbs = [receiver_sk.decrypt(c) for c in sub.limbs]
        shifted = unchunk_integer(limbs, chunk_bits)
        contributions[sender] = shifted - (1 << resharing.offset_bits)
    return ThresholdPaillier.recombine(
        tpk, receiver_index, contributions, previous_epoch, contributor_set
    )


def next_verifications(
    tpk: ThresholdPublicKey,
    resharings: dict[int, EncryptedResharing],
    contributor_set: list[int],
) -> dict[int, int]:
    """Publicly derive every next-epoch verification key ``v'_j``."""
    from repro.fields.lagrange import integer_lagrange_scaled

    scaled, _ = integer_lagrange_scaled(sorted(contributor_set), at=0, delta=tpk.delta)
    n2 = tpk.n_squared
    senders = sorted(contributor_set)
    powers = exp_many([
        (resharings[sender].verifications[j - 1], lam, n2)
        for j in range(1, tpk.n_parties + 1)
        for sender, lam in zip(senders, scaled)
    ])
    out: dict[int, int] = {}
    for j in range(1, tpk.n_parties + 1):
        acc = 1
        for offset in range(len(senders)):
            acc = acc * powers[(j - 1) * len(senders) + offset] % n2
        out[j] = acc
    return out


@dataclass(frozen=True)
class Handoff:
    """One committee's tsk hand-off, as everyone reads it off the board.

    Built once from the sending committee's posts: the resharings found
    under ``"tsk"``, the publicly verified contributor set S, and the
    verification keys of the shares the recipients will hold.  Every
    resharing is verified exactly once, here; each recipient then calls
    :meth:`receive`.
    """

    resharings: dict[int, EncryptedResharing]
    contributors: list[int]
    #: Next-epoch verification keys ``v'_j`` by recipient index.
    verifications: dict[int, int]
    previous_epoch: int

    @classmethod
    def from_posts(
        cls,
        tpk: ThresholdPublicKey,
        posts: Mapping[int, Mapping],
        sender_verifications: dict[int, int],
        recipient_pks: list[PaillierPublicKey],
        params: ProofParams,
        previous_epoch: int,
    ) -> "Handoff":
        """Read ``posts`` (payload by sender index) and verify publicly; a
        resharing labelled with another epoch is dropped like a failed one."""
        resharings = {
            sender: payload["tsk"]
            for sender, payload in posts.items()
            if isinstance(payload.get("tsk"), EncryptedResharing)
            and payload["tsk"].epoch == previous_epoch
        }
        contributors = verified_contributors(
            tpk, resharings, sender_verifications, recipient_pks, params
        )
        return cls(
            resharings,
            contributors,
            next_verifications(tpk, resharings, contributors),
            previous_epoch,
        )

    @property
    def epoch(self) -> int:
        """The epoch of the shares handed over (``verifications``' epoch)."""
        return self.previous_epoch + 1

    def receive(
        self,
        tpk: ThresholdPublicKey,
        receiver_index: int,
        receiver_sk: PaillierSecretKey,
    ) -> ThresholdKeyShare:
        """Recipient side: the next committee member's key share."""
        return receive_share(
            tpk, receiver_index, receiver_sk, self.resharings,
            self.contributors, self.previous_epoch,
        )
