"""Π_YOSO-Offline: circuit-dependent preprocessing (paper §5.2, Protocol 4).

Five steps across four speaking committees plus public local computation:

1. **Beaver triples** — committees Coff-A and Coff-B jointly produce an
   encrypted triple ``(c^a, c^b, c^c)`` per multiplication gate
   (Protocol 3), with plaintext-knowledge / multiplication proofs.
2. **Random wire masks** — committee Coff-R posts encrypted contributions
   to ``λ^α`` for every input/multiplication output wire, plus the helper
   randomness used by the packing step; sums over the verified sets give
   uniformly random masks.
3. **Dependent wire masks** — the compiled program's linear walk over
   ciphertexts (mask rule, one TEval batch per run), then for each
   multiplication gate the
   committee Coff-dec threshold-decrypts ``ε = λ^α + a`` and
   ``δ = λ^β + b`` (Protocol 2) and everyone computes the encryption of
   ``Γ^γ = λ^α·λ^β − λ^γ`` homomorphically.
4. **Packing** — public: for every batch of k gates, homomorphic Lagrange
   evaluation turns the k per-wire ciphertexts (+ t helpers at points
   1..t) into n encrypted *packed shares* of degree t+k−1 (§5.2 Step 4).
5. **Re-encryption to the future** — committee Coff-reenc re-encrypts each
   packed share to the Key-For-Future of the online role that will consume
   it, and each input-wire mask to the input client's KFF (Steps 5–6).
   This is the step that moves the O(n)-per-value cost *offline* so the
   online phase stays O(1) per gate.

The tsk hand-off chain (Coff-A → Coff-dec → Coff-reenc → Con-keys) rides
along inside each committee's single message; each link is one
:class:`repro.core.resharing.Handoff`, verified where its posts are read
and kept in :attr:`OfflineState.handoffs` for the phase that consumes it.
Coff-reenc is sampled during the offline phase but *speaks at the online
boundary* — its resharing targets the first online committee, whose role
keys exist only then (its other outputs target KFFs and never needed
online identities; that is the whole point of KFF).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.circuits.program import CircuitProgram
from repro.core.params import ProtocolParams
from repro.core.reencrypt import (
    EncryptedPartial,
    beaver_openings,
    combine_openings,
    decrypt_openings,
    posted,
    reencrypt_contributions,
)
from repro.core.resharing import Handoff, build_resharing
from repro.core.setup import (
    OFFLINE_A,
    OFFLINE_B,
    OFFLINE_DEC,
    OFFLINE_R,
    OFFLINE_REENC,
    SetupArtifacts,
    client_tag,
    mul_committee_name,
    role_tag,
    trivial_zero_ciphertext,
)
from repro.engine.batch import encrypt_many, scalar_mul_many, teval_many
from repro.errors import ProtocolAbortError
from repro.fields.ring import Zmod
from repro.nizk.params import ProofParams
from repro.nizk.sigma import MultiplicationProof, PlaintextKnowledgeProof
from repro.observability.tracer import KIND_BATCH, maybe_span
from repro.paillier.paillier import PaillierCiphertext, PaillierPublicKey
from repro.paillier.threshold import ThresholdPublicKey
from repro.sharing.packed import packed_scheme, secret_slots
from repro.wire.registry import register_kind
from repro.yoso.committees import Committee
from repro.yoso.network import ProtocolEnvironment

#: Envelope kinds of the offline committees' single bundled messages.
register_kind(
    "offline.beaver_a", 2, tag=OFFLINE_A,
    description="Beaver a-contributions with PoPK, plus the tsk resharing",
)
register_kind(
    "offline.beaver_b", 3, tag=OFFLINE_B,
    description="Beaver b- and c-contributions with multiplication proofs",
)
register_kind(
    "offline.masks", 4, tag=OFFLINE_R,
    description="encrypted wire-mask and packing-helper contributions",
)
register_kind(
    "offline.partials", 5, tag=OFFLINE_DEC,
    description="public partial decryptions of ε/δ, plus the tsk resharing",
)
register_kind(
    "offline.reencrypt", 6, tag=OFFLINE_REENC,
    description="packed shares re-encrypted to KFFs, plus the tsk resharing",
)

PACK_KINDS = ("left", "right", "gamma")


@dataclass
class OfflineState:
    """Everything the preprocessing leaves behind for the online phase."""

    committees: dict[str, Committee]
    wire_cipher: dict[int, PaillierCiphertext] = field(default_factory=dict)
    gamma_cipher: dict[int, PaillierCiphertext] = field(default_factory=dict)
    epsilon_delta: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: (batch_id, kind) -> n encrypted packed shares, index order 1..n
    packed_cipher: dict[tuple[int, str], list[PaillierCiphertext]] = field(
        default_factory=dict
    )
    #: input wire -> Re-encrypt contributions (target: client KFF)
    input_bundles: dict[int, list[EncryptedPartial]] = field(default_factory=dict)
    #: (batch_id, member index, kind) -> contributions (target: role KFF)
    packed_bundles: dict[tuple[int, int, str], list[EncryptedPartial]] = field(
        default_factory=dict
    )
    #: tsk hand-offs by sending epoch: 0 Coff-A → Coff-dec, 1 Coff-dec →
    #: Coff-reenc, 2 Coff-reenc → Con-keys
    handoffs: dict[int, Handoff] = field(default_factory=dict)
    #: verification keys by epoch: 0 Coff-A, 1 Coff-dec, 2 Coff-reenc, 3 Con-keys
    verifications: dict[int, dict[int, int]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Aggregation helpers (public computations over bulletin posts)
# ---------------------------------------------------------------------------


def proved_encryptions(
    tpk: ThresholdPublicKey,
    ring: Zmod,
    proof_params: ProofParams,
    view,
    keys: Sequence,
    context_of: Callable[[Any], str],
) -> dict[Any, dict]:
    """One member's contributions: a fresh random value per key with its PoPK.

    Draws all values, then all randomizers (fixed order), encrypts as one
    engine batch; proofs follow in key order under
    ``context_of(key)|member`` — the shape :func:`sum_contributions` reads.
    """
    values = [ring.random(view.rng) for _ in keys]
    randomizers = [tpk.paillier.random_unit(view.rng) for _ in keys]
    cts = encrypt_many(tpk.paillier, [int(v) for v in values], randomizers)
    contributions = {}
    for key, value, randomness, ct in zip(keys, values, randomizers, cts):
        proof = PlaintextKnowledgeProof.prove(
            tpk.paillier, ct, int(value), randomness, proof_params, view.rng,
            context=f"{context_of(key)}|{view.index}",
        )
        contributions[key] = {"ct": ct, "proof": proof}
    return contributions


def proved_products(
    tpk: ThresholdPublicKey,
    ring: Zmod,
    proof_params: ProofParams,
    view,
    beaver_a: Mapping[int, PaillierCiphertext],
    wires: Sequence[int],
    context: str,
) -> dict[int, dict]:
    """One member's Beaver ``b``/``c`` contributions against ``beaver_a``.

    Same draw order as :func:`proved_encryptions`; per wire ``c = b·a``
    homomorphically with a multiplication proof under
    ``context|wire|member`` — the shape :func:`sum_products` reads.
    """
    b_values = [ring.random(view.rng) for _ in wires]
    randomizers = [tpk.paillier.random_unit(view.rng) for _ in wires]
    b_cts = encrypt_many(tpk.paillier, [int(b) for b in b_values], randomizers)
    c_cts = scalar_mul_many(
        [beaver_a[wire] for wire in wires], [int(b) for b in b_values]
    )
    contributions = {}
    for wire, b, randomness, b_ct, c_ct in zip(
        wires, b_values, randomizers, b_cts, c_cts
    ):
        proof = MultiplicationProof.prove(
            tpk.paillier, beaver_a[wire], b_ct, c_ct, int(b), randomness,
            proof_params, view.rng,
            context=f"{context}|{wire}|{view.index}",
        )
        contributions[wire] = {"b_ct": b_ct, "c_ct": c_ct, "proof": proof}
    return contributions


def sum_contributions(
    tpk: ThresholdPublicKey,
    proof_params: ProofParams,
    posts: Mapping[int, Mapping],
    section: str,
    keys: Sequence,
    context_of: Callable[[Any], str],
) -> dict[Any, PaillierCiphertext]:
    """Per key, the TEval sum of the contributions with valid PoPKs.

    ``posts[sender][section][key]`` must be ``{"ct": ciphertext, "proof":
    PlaintextKnowledgeProof}``, proved under ``context_of(key)|sender``;
    a sum over the verified set of a committee with one honest member is
    uniformly random.  All keys' sums go through the engine as one batch.
    """
    groups = []
    for key in keys:
        verified = []
        for sender, payload in sorted(posts.items()):
            entry = payload.get(section, {}).get(key)
            if not isinstance(entry, Mapping):
                continue
            ct, proof = entry.get("ct"), entry.get("proof")
            if (
                isinstance(ct, PaillierCiphertext)
                and isinstance(proof, PlaintextKnowledgeProof)
                and proof.verify(
                    tpk.paillier, ct, proof_params,
                    context=f"{context_of(key)}|{sender}",
                )
            ):
                verified.append(ct)
        if not verified:
            raise ProtocolAbortError(f"no verified {section} contribution for {key}")
        groups.append((verified, [1] * len(verified)))
    return dict(zip(keys, teval_many(tpk, groups)))


def sum_products(
    tpk: ThresholdPublicKey,
    proof_params: ProofParams,
    posts: Mapping[int, Mapping],
    beaver_a: Mapping[int, PaillierCiphertext],
    wires: Sequence[int],
    context: str,
) -> tuple[dict[int, PaillierCiphertext], dict[int, PaillierCiphertext]]:
    """``(c^b, c^c)`` per wire from the verified ``"beaver_b"`` contributions.

    An entry ``{"b_ct", "c_ct", "proof": MultiplicationProof}`` counts when
    its proof shows c = a·b against ``beaver_a[wire]`` under
    ``context|wire|sender``; one TEval batch sums everything.
    """
    groups = []
    for wire in wires:
        verified_b, verified_c = [], []
        for sender, payload in sorted(posts.items()):
            entry = payload.get("beaver_b", {}).get(wire)
            if not isinstance(entry, Mapping):
                continue
            b_ct, c_ct, proof = entry.get("b_ct"), entry.get("c_ct"), entry.get("proof")
            if (
                isinstance(b_ct, PaillierCiphertext)
                and isinstance(c_ct, PaillierCiphertext)
                and isinstance(proof, MultiplicationProof)
                and proof.verify(
                    tpk.paillier, beaver_a[wire], b_ct, c_ct, proof_params,
                    context=f"{context}|{wire}|{sender}",
                )
            ):
                verified_b.append(b_ct)
                verified_c.append(c_ct)
        if not verified_b:
            raise ProtocolAbortError(f"no verified beaver_b contribution for {wire}")
        groups.append((verified_b, [1] * len(verified_b)))
        groups.append((verified_c, [1] * len(verified_c)))
    sums = teval_many(tpk, groups)
    return dict(zip(wires, sums[0::2])), dict(zip(wires, sums[1::2]))


# ---------------------------------------------------------------------------
# The offline phase proper
# ---------------------------------------------------------------------------


def sample_offline_committees(
    env: ProtocolEnvironment, params: ProtocolParams
) -> dict[str, Committee]:
    """Sample the five offline committees (keys known within the phase)."""
    return {
        name: env.sample_committee(name, params.n)
        for name in (OFFLINE_A, OFFLINE_B, OFFLINE_R, OFFLINE_DEC, OFFLINE_REENC)
    }


def run_offline(
    env: ProtocolEnvironment,
    setup: SetupArtifacts,
    program: CircuitProgram,
    committees: dict[str, Committee],
) -> OfflineState:
    """Execute Steps 1–4 (Beaver, masks, Γ, packing).

    ``program`` is the compiled circuit (:func:`compile_circuit`); its
    flattened ``mul_wires``/``mask_wires`` views fix the committees' RNG
    draw orders.
    """
    env.set_phase("offline")
    params = setup.params
    tpk = setup.tpk
    ring = setup.ring
    proof_params = setup.proof_params
    gates = program.circuit.gates

    state = OfflineState(committees=committees)
    state.verifications[0] = dict(setup.tsk_verifications)

    # Hand the setup's tsk shares to the first offline committee as gifts.
    for share in setup.tsk_shares:
        committees[OFFLINE_A].role(share.index).add_gift("tsk_share", share)

    mul_wires = list(program.mul_wires)
    mask_wires = list(program.mask_wires)
    dec_pks = committees[OFFLINE_DEC].public_keys()
    reenc_pks = committees[OFFLINE_REENC].public_keys()

    # -- Step 1a: committee A — Beaver `a` contributions + tsk resharing -----

    def a_context(wire: int) -> str:
        return f"beaver-a|{wire}"

    def program_a(view) -> None:
        contributions = proved_encryptions(
            tpk, ring, proof_params, view, mul_wires, a_context
        )
        resharing = build_resharing(
            tpk, view.gift("tsk_share"), dec_pks, proof_params, view.rng
        )
        view.speak(OFFLINE_A, {"beaver_a": contributions, "tsk": resharing})

    env.run_committee(committees[OFFLINE_A], program_a)
    posts_a = env.posts_by_index(committees[OFFLINE_A])

    beaver_a = sum_contributions(
        tpk, proof_params, posts_a, "beaver_a", mul_wires, a_context
    )

    handoff_a = state.handoffs[0] = Handoff.from_posts(
        tpk, posts_a, state.verifications[0], dec_pks, proof_params, previous_epoch=0
    )
    state.verifications[1] = handoff_a.verifications

    # -- Step 1b: committee B — Beaver `b`/`c` contributions ------------------

    def program_b(view) -> None:
        contributions = proved_products(
            tpk, ring, proof_params, view, beaver_a, mul_wires, "beaver-b"
        )
        view.speak(OFFLINE_B, {"beaver_b": contributions})

    env.run_committee(committees[OFFLINE_B], program_b)
    posts_b = env.posts_by_index(committees[OFFLINE_B])

    beaver_b, beaver_c = sum_products(
        tpk, proof_params, posts_b, beaver_a, mul_wires, "beaver-b"
    )

    # -- Step 2: committee R — wire masks + packing helpers -------------------

    n_helpers = params.t  # helpers per pack; one pack per kind per batch

    helper_keys = [
        (batch.batch_id, kind, h)
        for batch in program.plan.mul_batches
        for kind in PACK_KINDS
        for h in range(n_helpers)
    ]

    def mask_context(wire: int) -> str:
        return f"mask|{wire}"

    def helper_context(key: tuple[int, str, int]) -> str:
        return "helper|%d|%s|%d" % key

    def program_r(view) -> None:
        masks = proved_encryptions(
            tpk, ring, proof_params, view, mask_wires, mask_context
        )
        helpers = proved_encryptions(
            tpk, ring, proof_params, view, helper_keys, helper_context
        )
        view.speak(OFFLINE_R, {"masks": masks, "helpers": helpers})

    env.run_committee(committees[OFFLINE_R], program_r)
    posts_r = env.posts_by_index(committees[OFFLINE_R])

    state.wire_cipher.update(sum_contributions(
        tpk, proof_params, posts_r, "masks", mask_wires, mask_context
    ))
    helper_cipher = sum_contributions(
        tpk, proof_params, posts_r, "helpers", helper_keys, helper_context
    )

    # -- Step 3a: public mask propagation through linear gates ----------------

    # One TEval batch per (layer, kind) run; masks, so CADD changes nothing.
    program.propagate_linear_batched(
        state.wire_cipher, lambda groups: teval_many(tpk, groups), None
    )

    # -- Step 3b: committee dec — open ε, δ for every multiplication ----------

    openings = beaver_openings(
        tpk, gates, mul_wires, state.wire_cipher, beaver_a, beaver_b
    )

    def program_dec(view) -> None:
        share = handoff_a.receive(tpk, view.index, view.secret_key)
        partials = decrypt_openings(tpk, share, openings, proof_params, view.rng)
        resharing = build_resharing(tpk, share, reenc_pks, proof_params, view.rng)
        view.speak(OFFLINE_DEC, {"partials": partials, "tsk": resharing})

    env.run_committee(committees[OFFLINE_DEC], program_dec)
    posts_dec = env.posts_by_index(committees[OFFLINE_DEC])

    state.handoffs[1] = Handoff.from_posts(
        tpk, posts_dec, state.verifications[1], reenc_pks, proof_params,
        previous_epoch=1,
    )
    state.verifications[2] = state.handoffs[1].verifications
    state.epsilon_delta = combine_openings(
        tpk, openings, posts_dec, state.verifications[1], 1, proof_params
    )

    # c^Γ = TEval((c^β, c^a, c^c, c^γ), (ε, −δ, 1, −1)), all gates batched.
    gamma_groups = []
    for wire in mul_wires:
        eps, delta = state.epsilon_delta[wire]
        right = gates[wire].inputs[1]
        gamma_groups.append((
            [state.wire_cipher[right], beaver_a[wire], beaver_c[wire],
             state.wire_cipher[wire]],
            [eps, -delta, 1, -1],
        ))
    for wire, ct in zip(mul_wires, teval_many(tpk, gamma_groups)):
        state.gamma_cipher[wire] = ct

    # -- Step 4: public packing into encrypted packed shares ------------------

    _pack_batches(setup, program, state, helper_cipher, tracer=env.tracer)

    return state


def run_reencryption_bridge(
    env: ProtocolEnvironment,
    setup: SetupArtifacts,
    state: OfflineState,
    program: CircuitProgram,
    online_keys_pks: Sequence[PaillierPublicKey],
) -> None:
    """Steps 5–6 + tsk hand-off to the online phase (committee Coff-reenc).

    Runs at the offline/online boundary: the re-encryptions target KFFs
    (chosen at setup), while the tsk resharing targets the first online
    committee's role keys, which exist only now.
    """
    env.set_phase("offline")
    tpk = setup.tpk
    proof_params = setup.proof_params
    circuit = program.circuit
    committee = state.committees[OFFLINE_REENC]

    input_targets = {
        wire: setup.kff_for(client_tag(circuit.gates[wire].client)).public_key
        for wire in circuit.input_wires
    }
    packed_targets = {}
    for batch in program.plan.mul_batches:
        name = mul_committee_name(batch.depth)
        for i in range(1, setup.params.n + 1):
            for kind in PACK_KINDS:
                packed_targets[(batch.batch_id, i, kind)] = setup.kff_for(
                    role_tag(name, i)
                ).public_key

    input_wires = list(input_targets)
    packed_keys = list(packed_targets)

    def program_reenc(view) -> None:
        share = state.handoffs[1].receive(tpk, view.index, view.secret_key)
        # One batched Re-encrypt over every target (inputs first, then the
        # packed shares); per-item rng order matches the single-op loop.
        items = [
            (state.wire_cipher[wire], input_targets[wire]) for wire in input_wires
        ] + [
            (state.packed_cipher[(key[0], key[2])][key[1] - 1], packed_targets[key])
            for key in packed_keys
        ]
        bundles = reencrypt_contributions(
            tpk, share, items, proof_params, view.rng
        )
        input_shares = dict(zip(input_wires, bundles[: len(input_wires)]))
        packed_shares = dict(zip(packed_keys, bundles[len(input_wires):]))
        resharing = build_resharing(
            tpk, share, list(online_keys_pks), proof_params, view.rng
        )
        view.speak(
            OFFLINE_REENC,
            {
                "input_shares": input_shares,
                "packed_shares": packed_shares,
                "tsk": resharing,
            },
        )

    env.run_committee(committee, program_reenc)
    posts = env.posts_by_index(committee)

    for wire in circuit.input_wires:
        state.input_bundles[wire] = posted(
            posts, "input_shares", wire, EncryptedPartial
        )
    for key in packed_targets:
        state.packed_bundles[key] = posted(
            posts, "packed_shares", key, EncryptedPartial
        )
    state.handoffs[2] = Handoff.from_posts(
        tpk, posts, state.verifications[2], list(online_keys_pks), proof_params,
        previous_epoch=2,
    )
    state.verifications[3] = state.handoffs[2].verifications


# ---------------------------------------------------------------------------
# Public local computation helpers
# ---------------------------------------------------------------------------


def _pack_batches(
    setup: SetupArtifacts,
    program: CircuitProgram,
    state: OfflineState,
    helper_cipher: Mapping[tuple[int, str, int], PaillierCiphertext],
    tracer=None,
) -> None:
    """Step 4: homomorphic Lagrange packing of masks and Γ.

    One engine batch per (depth layer, pack kind): every batch at a depth
    contributes its n Lagrange rows to a single ``teval_many`` call of
    ``batches·n`` groups — n·(k+t) exponentiations per batch, flattened.
    The per-group values and coefficient rows are exactly the historical
    per-batch ones, so the packed ciphertexts are bit-identical.
    """
    params = setup.params
    tpk = setup.tpk
    k, t, n = params.k, params.t, params.n
    points = tuple(secret_slots(k) + list(range(1, t + 1)))
    # The packing rows are the sharing kernel's evaluation matrix for this
    # geometry — cached on the shared scheme, so repeated runs (the
    # service's epochs) skip the Lagrange pass entirely.
    rows = packed_scheme(setup.ring, n, k).evaluation_rows(
        points, tuple(range(1, n + 1))
    )
    coeff_rows = [list(row) for row in rows]
    zero = trivial_zero_ciphertext(tpk)

    for depth in program.mul_depths:
        batches = program.depth_batches[depth]
        with maybe_span(
            tracer, f"pack-depth-{depth}", kind=KIND_BATCH,
            phase="offline", depth=depth, stage="pack",
            batches=len(batches),
            gates=len(program.muls_by_depth[depth]),
        ):
            for kind in PACK_KINDS:
                groups = []
                for batch in batches:
                    if kind == "left":
                        values = [state.wire_cipher[w] for w in batch.left_wires]
                    elif kind == "right":
                        values = [state.wire_cipher[w] for w in batch.right_wires]
                    else:
                        values = [state.gamma_cipher[w] for w in batch.gate_wires]
                    values += [zero] * (k - len(values))  # pad short batches
                    values += [
                        helper_cipher[(batch.batch_id, kind, h)] for h in range(t)
                    ]
                    groups.extend((values, row) for row in coeff_rows)
                packed = teval_many(tpk, groups)
                for i, batch in enumerate(batches):
                    state.packed_cipher[(batch.batch_id, kind)] = packed[
                        i * n : (i + 1) * n
                    ]
