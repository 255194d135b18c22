"""Protocols 1 & 2: Re-encrypt and Decrypt (the CDN-style helpers).

``Re-encrypt_{C_l}(pk, c)`` lets the committee holding tsk hand the
*plaintext* of a tpk-ciphertext to whoever holds ``sk``: each member posts
its partial decryption of ``c`` encrypted under ``pk`` (chunked — partials
live in Z_{N²}, larger than one plaintext) plus a partial-decryption proof;
the recipient decrypts, verifies each contribution against the sender's
public verification value, and combines any t+1 verified partials.

``Decrypt_{C_l}(c)`` is the same with partials posted in clear, verified
publicly by everyone.

On top of the two protocols sit the two uses every tsk-holding evaluator
makes of them: opening a Beaver triple's masked operands ε/δ
(:func:`beaver_openings` → :func:`decrypt_openings` →
:func:`combine_openings`) and delivering output wires to clients
(:func:`reencrypt_outputs` → :func:`recover_outputs`).

The tsk resharing that accompanies both in the paper's Protocols 1–2 is
factored out into :mod:`repro.core.resharing` (it happens once per
committee, not once per re-encrypted value).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.engine.batch import partial_decrypt_many, teval_many
from repro.engine.engine import CryptoEngine, active as active_engine
from repro.errors import ProtocolAbortError
from repro.nizk.params import ProofParams
from repro.nizk.sigma import PartialDecryptionProof
from repro.observability import hooks as _hooks
from repro.paillier.encoding import (
    chunk_integer,
    safe_chunk_bits,
    unchunk_integer,
)
from repro.paillier.paillier import (
    PaillierCiphertext,
    PaillierPublicKey,
    PaillierSecretKey,
)
from repro.paillier.threshold import (
    PartialDecryption,
    ThresholdKeyShare,
    ThresholdPaillier,
    ThresholdPublicKey,
)
from repro.wire.codec import register_wire_dataclass


@dataclass(frozen=True)
class EncryptedPartial:
    """One committee member's Re-encrypt contribution for one target value.

    The partial decryption (an element of Z_{N²}) is chunked and encrypted
    under the recipient key; the proof binds it to the sender's public
    verification value and is checkable only by the recipient (who alone
    sees the partial) — exactly the designated-verifier flavour the
    bulletin-board model gives us.
    """

    sender_index: int
    epoch: int
    chunks: tuple[PaillierCiphertext, ...]
    proof: PartialDecryptionProof


register_wire_dataclass(16, EncryptedPartial)


@dataclass(frozen=True)
class PublicPartial:
    """One member's Decrypt contribution: partial in clear + public proof."""

    partial: PartialDecryption
    proof: PartialDecryptionProof


register_wire_dataclass(17, PublicPartial)


def reencrypt_contributions(
    tpk: ThresholdPublicKey,
    share: ThresholdKeyShare,
    items: Sequence[tuple[PaillierCiphertext, PaillierPublicKey]],
    params: ProofParams,
    rng=None,
    engine: CryptoEngine | None = None,
) -> list[EncryptedPartial]:
    """What one role computes in Re-encrypt, for many targets at once.

    Per ``(ciphertext, recipient_pk)`` item: the partial decryption, its
    proof, and the partial chunked and encrypted under the recipient key.
    The TPDec exponentiations and all limb encryptions run as two engine
    batches.  Randomness is drawn per item in input order (proof first,
    then limb randomizers), so seeded transcripts stay identical whatever
    engine executes the batch.
    """
    if engine is None:
        engine = active_engine()
    partials = partial_decrypt_many(
        tpk, share, [ciphertext for ciphertext, _ in items], engine=engine
    )
    proofs = []
    jobs = []
    limbs_per_item: list[list[int]] = []
    for (ciphertext, recipient_pk), partial in zip(items, partials):
        proofs.append(
            PartialDecryptionProof.prove(tpk, ciphertext, partial, share, params, rng)
        )
        chunk_bits = safe_chunk_bits(recipient_pk.n)
        limbs = chunk_integer(partial.value, chunk_bits)
        limbs_per_item.append(limbs)
        for _ in limbs:
            r = recipient_pk.random_unit(rng)
            jobs.append((r, recipient_pk.n, recipient_pk.n_squared))
    masked = engine.pow_many(jobs)
    out = []
    index = 0
    for (ciphertext, recipient_pk), proof, limbs in zip(items, proofs, limbs_per_item):
        n, n2 = recipient_pk.n, recipient_pk.n_squared
        chunks = []
        for limb in limbs:
            value = (1 + (limb % n) * n) % n2 * masked[index] % n2
            chunks.append(PaillierCiphertext(recipient_pk, value))
            index += 1
        out.append(EncryptedPartial(share.index, share.epoch, tuple(chunks), proof))
    _hooks.note(_hooks.PAILLIER_ENCRYPT, len(jobs))
    _hooks.note(_hooks.PAILLIER_EXP, len(jobs))
    _hooks.note(_hooks.REENCRYPT_CONTRIBUTION, len(items))
    return out


def _combine_verified(
    tpk: ThresholdPublicKey,
    ciphertext: PaillierCiphertext,
    candidates: Sequence[tuple[PartialDecryption, PartialDecryptionProof]],
    sender_verifications: dict[int, int],
    params: ProofParams,
    what: str,
) -> int:
    """TDec over the candidates whose proofs verify, checked as one batch.

    A candidate claiming an unknown sender is dropped; of several verified
    ones under one sender index (a member re-posting another's valid
    contribution) the first is kept, so a copycat cannot abort the
    combination.  Raises :class:`ProtocolAbortError` if fewer than t+1
    senders are left — which the corruption bound rules out.
    """
    items = [
        (partial, sender_verifications[partial.index], proof)
        for partial, proof in candidates
        if partial.index in sender_verifications
    ]
    verdicts = PartialDecryptionProof.verify_many(tpk, ciphertext, items, params)
    verified: dict[int, PartialDecryption] = {}
    for (partial, _, _), ok in zip(items, verdicts):
        if ok:
            verified.setdefault(partial.index, partial)
    if len(verified) < tpk.threshold + 1:
        raise ProtocolAbortError(
            f"only {len(verified)} of the required {tpk.threshold + 1} "
            f"{what} partials verified — corruption bound exceeded?"
        )
    return ThresholdPaillier.combine(tpk, verified.values())


def recover_reencrypted(
    tpk: ThresholdPublicKey,
    ciphertext: PaillierCiphertext,
    contributions: list[EncryptedPartial],
    recipient_sk: PaillierSecretKey,
    sender_verifications: dict[int, int],
    params: ProofParams,
) -> int:
    """Recipient side of Re-encrypt: decrypt, verify, combine -> plaintext.

    Contributions failing proof verification (or claiming unknown senders)
    are silently dropped; with an honest majority at least t+1 survive.
    Raises :class:`ProtocolAbortError` only if fewer than t+1 verify —
    which the corruption bound rules out.
    """
    chunk_bits = safe_chunk_bits(recipient_sk.public.n)
    candidates = []
    for contribution in contributions:
        if contribution.sender_index not in sender_verifications:
            continue
        limbs = [recipient_sk.decrypt(c) for c in contribution.chunks]
        value = unchunk_integer(limbs, chunk_bits)
        if value >= tpk.n_squared or value <= 0:
            continue
        partial = PartialDecryption(
            contribution.sender_index, value, contribution.epoch
        )
        candidates.append((partial, contribution.proof))
    plaintext = _combine_verified(
        tpk, ciphertext, candidates, sender_verifications, params, "re-encryption"
    )
    _hooks.note(_hooks.REENCRYPT_RECOVERY)
    return plaintext


def public_decrypt_contributions(
    tpk: ThresholdPublicKey,
    share: ThresholdKeyShare,
    ciphertexts: Sequence[PaillierCiphertext],
    params: ProofParams,
    rng=None,
    engine: CryptoEngine | None = None,
) -> list[PublicPartial]:
    """What one role computes in Decrypt: partials in one TPDec batch, each proved."""
    partials = partial_decrypt_many(tpk, share, ciphertexts, engine=engine)
    return [
        PublicPartial(
            partial,
            PartialDecryptionProof.prove(tpk, ciphertext, partial, share, params, rng),
        )
        for ciphertext, partial in zip(ciphertexts, partials)
    ]


def combine_public(
    tpk: ThresholdPublicKey,
    ciphertext: PaillierCiphertext,
    contributions: list[PublicPartial],
    sender_verifications: dict[int, int],
    params: ProofParams,
) -> int:
    """Anyone's side of Decrypt: verify proofs publicly, combine -> plaintext."""
    return _combine_verified(
        tpk, ciphertext, [(c.partial, c.proof) for c in contributions],
        sender_verifications, params, "public",
    )


# ---------------------------------------------------------------------------
# Beaver openings and output delivery (shared by the core protocol and CDN)
# ---------------------------------------------------------------------------


def posted(posts: Mapping[int, Mapping], section: str, key: Any, kind: type) -> list:
    """Every member's well-typed ``payload[section][key]`` entry."""
    return [
        p[section][key]
        for p in posts.values()
        if isinstance(p.get(section, {}).get(key), kind)
    ]


def beaver_openings(
    tpk: ThresholdPublicKey,
    gates: Sequence[Any],
    wires: Sequence[int],
    wire_cipher: Mapping[int, PaillierCiphertext],
    beaver_a: Mapping[int, PaillierCiphertext],
    beaver_b: Mapping[int, PaillierCiphertext],
) -> dict[int, tuple[PaillierCiphertext, PaillierCiphertext]]:
    """``(c^ε, c^δ)`` per multiplication wire: left ⊞ a and right ⊞ b.

    One engine batch per opening kind across all of ``wires``.
    """
    eps = teval_many(tpk, [
        ([wire_cipher[gates[w].inputs[0]], beaver_a[w]], [1, 1]) for w in wires
    ])
    delta = teval_many(tpk, [
        ([wire_cipher[gates[w].inputs[1]], beaver_b[w]], [1, 1]) for w in wires
    ])
    return dict(zip(wires, zip(eps, delta)))


def decrypt_openings(
    tpk: ThresholdPublicKey,
    share: ThresholdKeyShare,
    openings: Mapping[int, tuple[PaillierCiphertext, PaillierCiphertext]],
    params: ProofParams,
    rng=None,
) -> dict[int, dict[str, PublicPartial]]:
    """A member's ``"partials"`` section: Decrypt contributions to every ε, δ.

    All partial decryptions share one TPDec batch; the
    ``[ε_0, δ_0, ε_1, δ_1, ...]`` order fixes the rng stream.
    """
    opened = public_decrypt_contributions(
        tpk, share, [ct for pair in openings.values() for ct in pair], params, rng
    )
    return {
        wire: {"eps": opened[2 * i], "delta": opened[2 * i + 1]}
        for i, wire in enumerate(openings)
    }


def combine_openings(
    tpk: ThresholdPublicKey,
    openings: Mapping[int, tuple[PaillierCiphertext, PaillierCiphertext]],
    posts: Mapping[int, Mapping],
    sender_verifications: dict[int, int],
    params: ProofParams,
) -> dict[int, tuple[int, int]]:
    """Anyone's side: ``(ε, δ)`` per wire from the committee's posts."""
    out = {}
    for wire, ciphertexts in openings.items():
        eps, delta = (
            combine_public(
                tpk, ciphertext,
                [
                    partials[name]
                    for partials in posted(posts, "partials", wire, dict)
                    if isinstance(partials.get(name), PublicPartial)
                ],
                sender_verifications, params,
            )
            for name, ciphertext in zip(("eps", "delta"), ciphertexts)
        )
        out[wire] = (eps, delta)
    return out


def reencrypt_outputs(
    tpk: ThresholdPublicKey,
    share: ThresholdKeyShare,
    wire_cipher: Mapping[int, PaillierCiphertext],
    recipients: Mapping[int, Any],
    params: ProofParams,
    rng=None,
) -> dict[int, EncryptedPartial]:
    """A member's ``"output"`` section (Re-encrypt*, one batch).

    ``recipients`` maps each output wire to the role receiving it; the
    wire's ciphertext is re-encrypted to that role's public key.
    """
    bundles = reencrypt_contributions(
        tpk, share,
        [(wire_cipher[w], role.public_key) for w, role in recipients.items()],
        params, rng,
    )
    return dict(zip(recipients, bundles))


def recover_outputs(
    tpk: ThresholdPublicKey,
    posts: Mapping[int, Mapping],
    wire_cipher: Mapping[int, PaillierCiphertext],
    recipients: Mapping[int, Any],
    sender_verifications: dict[int, int],
    params: ProofParams,
) -> dict[int, int]:
    """Each receiving role's side: the plaintext behind every output wire."""
    return {
        w: recover_reencrypted(
            tpk, wire_cipher[w], posted(posts, "output", w, EncryptedPartial),
            role.secret_key, sender_verifications, params,
        )
        for w, role in recipients.items()
    }
