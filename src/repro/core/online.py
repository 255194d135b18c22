"""Π_YOSO-Online: input, evaluation, and output (paper §5.3, Protocol 5).

The μ algebra itself is :mod:`repro.packed_online`; this module is the
committee schedule around it (Con-keys, one Con-mul-d per multiplicative
depth, Con-out) and the cryptography of each step:

* **Future key distribution** — the first online committee (Con-keys) uses
  its tsk shares to re-encrypt every Key-For-Future secret key to the
  now-known YOSO role key of its owner, and passes tsk on to the output
  committee.  After this, tsk is never needed for multiplications.
* **Input** — each client recovers its KFF, decrypts its wire masks
  ``λ^α``, and broadcasts ``μ^α = v^α − λ^α``.
* **Multiplication** — each member of the depth's committee *obtains* its
  preprocessed packed shares (λ^α, λ^β, Γ^γ) by KFF decryption and posts
  one μ^γ share per batch with a constant-size correctness token; shares
  are *authenticated* by that token, or — in proof-free mode — not at
  all, and error-corrected at opening.  GOD with O(1) amortized
  communication per gate.
* **Output** — the last committee re-encrypts each output-wire mask to the
  receiving client (Re-encrypt*, no further tsk resharing); the client
  computes ``v = μ + λ``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.circuits.program import CircuitProgram
from repro.core.offline import PACK_KINDS, OfflineState
from repro.core.oracle import MuShareOracle
from repro.core.reencrypt import (
    EncryptedPartial,
    recover_outputs,
    recover_reencrypted,
    reencrypt_contributions,
    reencrypt_outputs,
)
from repro.core.resharing import Handoff, build_resharing
from repro.core.setup import (
    ONLINE_KEYS,
    ONLINE_OUT,
    SetupArtifacts,
    client_tag,
    mul_committee_name,
    role_tag,
)
from repro.errors import ProtocolAbortError
from repro.observability.tracer import KIND_BATCH, maybe_span
from repro.packed_online import MuTracker, mu_gamma_share
from repro.paillier.encoding import safe_chunk_bits, unchunk_integer
from repro.paillier.paillier import PaillierSecretKey
from repro.rng import fork_rng
from repro.sharing.packed import PackedShare, packed_scheme
from repro.wire.registry import register_kind
from repro.yoso.committees import Committee
from repro.yoso.network import ProtocolEnvironment
from repro.yoso.roles import Role

#: Envelope kinds of the online phase's posts.
register_kind(
    "online.keys", 7, tag=ONLINE_KEYS,
    description="KFF secrets re-encrypted to role keys, plus the tsk resharing",
)
register_kind(
    "online.input", 8, tag_prefix="input:",
    description="a client's broadcast μ = v − λ per input wire",
)
register_kind(
    "online.mu_shares", 9, tag_prefix="Con-mul-",
    description="one member's μ^γ canonical shares with correctness proofs",
)
register_kind(
    "online.output", 10, tag=ONLINE_OUT,
    description="output-wire masks re-encrypted to the receiving clients",
)


@dataclass
class OnlineState:
    """Committees and intermediate results of one online execution.

    Input and output client roles are distinct (the paper's Role^In vs
    Role^Out): an input role erases its state after speaking, so output
    delivery must target a fresh role of the same machine.
    """

    committees: dict[str, Committee]
    client_roles: dict[str, Role]
    output_client_roles: dict[str, Role]
    tracker: MuTracker
    oracle: MuShareOracle
    kff_bundles: dict[str, list[list[EncryptedPartial]]] = field(default_factory=dict)
    #: tsk hand-off Con-keys → Con-out
    out_handoff: Handoff | None = None
    outputs: dict[str, list[int]] = field(default_factory=dict)


def sample_online_committees(
    env: ProtocolEnvironment,
    setup: SetupArtifacts,
    program: CircuitProgram,
) -> OnlineState:
    """Sample every online committee and client role (keys now known)."""
    committees = {ONLINE_KEYS: env.sample_committee(ONLINE_KEYS, setup.params.n)}
    for depth in setup.mul_depths:
        name = mul_committee_name(depth)
        committees[name] = env.sample_committee(name, setup.params.n)
    committees[ONLINE_OUT] = env.sample_committee(ONLINE_OUT, setup.params.n)
    clients = {
        segment.client: env.client(client_tag(segment.client))
        for segment in program.input_segments
    }
    out_clients = {
        segment.client: env.client(f"client-out:{segment.client}")
        for segment in program.output_segments
    }
    return OnlineState(
        committees=committees,
        client_roles=clients,
        output_client_roles=out_clients,
        tracker=MuTracker(program, setup.ring),
        # Keyed from a fork of the run's generator: same seed, same tokens,
        # and no other draw of the run moves.
        oracle=MuShareOracle(key=fork_rng(env.rng).randbytes(32)),
    )


def run_online(
    env: ProtocolEnvironment,
    setup: SetupArtifacts,
    offline: OfflineState,
    online: OnlineState,
    program: CircuitProgram,
    inputs: Mapping[str, Sequence[int]],
) -> dict[str, list[int]]:
    """Execute the full online phase; returns outputs per client."""
    env.set_phase("online")
    params = setup.params
    tpk = setup.tpk
    proof_params = setup.proof_params
    circuit = program.circuit

    # ---- Future key distribution (committee Con-keys) -----------------------

    keys_committee = online.committees[ONLINE_KEYS]
    out_pks = online.committees[ONLINE_OUT].public_keys()

    kff_targets: dict[str, object] = {}
    for depth in setup.mul_depths:
        name = mul_committee_name(depth)
        for i in range(1, params.n + 1):
            kff_targets[role_tag(name, i)] = online.committees[name].role(i).public_key
    for segment in program.input_segments:
        kff_targets[client_tag(segment.client)] = online.client_roles[
            segment.client
        ].public_key

    def program_keys(view) -> None:
        share = offline.handoffs[2].receive(tpk, view.index, view.secret_key)
        # Flatten every KFF chunk of every tag into one batched Re-encrypt,
        # then reassemble the per-tag chunk lists in order.
        items = [
            (chunk_ct, target_pk)
            for tag, target_pk in kff_targets.items()
            for chunk_ct in setup.kff_for(tag).encrypted_prime
        ]
        bundles = reencrypt_contributions(
            tpk, share, items, proof_params, view.rng
        )
        kff = {}
        index = 0
        for tag in kff_targets:
            n_chunks = len(setup.kff_for(tag).encrypted_prime)
            kff[tag] = bundles[index:index + n_chunks]
            index += n_chunks
        resharing = build_resharing(tpk, share, out_pks, proof_params, view.rng)
        view.speak(ONLINE_KEYS, {"kff": kff, "tsk": resharing})

    env.run_committee(keys_committee, program_keys)
    posts_keys = env.posts_by_index(keys_committee)

    for tag in kff_targets:
        n_chunks = len(setup.kff_for(tag).encrypted_prime)
        online.kff_bundles[tag] = [
            [
                p["kff"][tag][chunk]
                for p in posts_keys.values()
                if isinstance(p.get("kff", {}).get(tag), list)
                and len(p["kff"][tag]) == n_chunks
                and isinstance(p["kff"][tag][chunk], EncryptedPartial)
            ]
            for chunk in range(n_chunks)
        ]
    online.out_handoff = Handoff.from_posts(
        tpk, posts_keys, offline.verifications[3], out_pks, proof_params,
        previous_epoch=3,
    )

    # ---- Input step (clients broadcast μ for their wires) --------------------

    def recover_kff_secret(tag: str, sk: PaillierSecretKey) -> PaillierSecretKey:
        entry = setup.kff_for(tag)
        chunk_bits = safe_chunk_bits(tpk.n)
        limbs = [
            recover_reencrypted(
                tpk, chunk_ct, online.kff_bundles[tag][idx], sk,
                offline.verifications[3], proof_params,
            )
            for idx, chunk_ct in enumerate(entry.encrypted_prime)
        ]
        return entry.recover_secret(unchunk_integer(limbs, chunk_bits))

    for client, wires, supplied in program.client_inputs(inputs):
        def program_client(view, client=client, wires=wires, supplied=supplied):
            kff_sk = recover_kff_secret(client_tag(client), view.secret_key)
            mu = {}
            for wire, value in zip(wires, supplied):
                lam = recover_reencrypted(
                    tpk, offline.wire_cipher[wire], offline.input_bundles[wire],
                    kff_sk, offline.verifications[2], proof_params,
                )
                mu[wire] = (int(value) - lam) % tpk.n
            view.speak(f"input:{client}", {"mu": mu})

        env.run_role(online.client_roles[client], program_client)
        posts = env.bulletin.payloads(f"input:{client}")
        online.tracker.publish_inputs(client, wires, posts[-1] if posts else None)

    online.tracker.propagate()

    # ---- Multiplication committees, one per depth -----------------------------

    # Memoized per (modulus, n, k): the service's epoch loop reuses the
    # precomputed sharing matrices across inner MPC runs.
    scheme = packed_scheme(setup.ring, params.n, params.k)

    for depth in setup.mul_depths:
        name = mul_committee_name(depth)
        committee = online.committees[name]
        batches = program.depth_batches[depth]

        def program_mul(view, name=name, batches=batches, depth=depth):
            kff_sk = recover_kff_secret(
                role_tag(name, view.index), view.secret_key
            )
            shares = {}
            for batch in batches:
                # The per-gate online work (recover packed λ/Γ shares, form
                # the single μ^γ scalar) gets its own "online.mul" span so
                # traces separate it from one-time key distribution.
                with maybe_span(
                    env.tracer, f"mul-batch-{batch.batch_id}", kind=KIND_BATCH,
                    phase="online.mul", batch=batch.batch_id, depth=depth,
                    member=view.index, gates=len(batch.gate_wires),
                ):
                    lam = {}
                    for kind in PACK_KINDS:
                        key = (batch.batch_id, view.index, kind)
                        ciphertext = offline.packed_cipher[(batch.batch_id, kind)][
                            view.index - 1
                        ]
                        lam[kind] = recover_reencrypted(
                            tpk, ciphertext, offline.packed_bundles[key], kff_sk,
                            offline.verifications[2], proof_params,
                        )
                    ((mu_left, mu_right),) = online.tracker.canonical_shares(
                        scheme, [batch], view.index
                    )
                    value = mu_gamma_share(
                        mu_left, mu_right, lam["left"], lam["right"],
                        lam["gamma"], setup.ring.modulus,
                    )
                    if params.robust_reconstruction:
                        # Proof-free mode: bad shares are *corrected*, not
                        # excluded, so no token rides along.
                        shares[batch.batch_id] = {"value": value}
                    else:
                        token = online.oracle.attest(
                            batch.batch_id, view.index, value
                        )
                        shares[batch.batch_id] = {"value": value, "proof": token}
            view.speak(name, {"mu_shares": shares})

        env.run_committee(committee, program_mul)
        posts = env.posts_by_index(committee)

        for batch in batches:
            with maybe_span(
                env.tracer, f"mul-reconstruct-{batch.batch_id}", kind=KIND_BATCH,
                phase="online.mul", batch=batch.batch_id, depth=depth,
                stage="reconstruct", gates=len(batch.gate_wires),
            ):
                # Authentication is this evaluator's: an oracle token per
                # share, or none in proof-free mode (errors get corrected).
                collected: list[tuple[int, int]] = []
                for sender, payload in sorted(posts.items()):
                    entry = payload.get("mu_shares", {}).get(batch.batch_id)
                    if not isinstance(entry, Mapping):
                        continue
                    value = entry.get("value")
                    if isinstance(value, int) and (
                        params.robust_reconstruction
                        or online.oracle.verify(
                            batch.batch_id, sender, value, entry.get("proof")
                        )
                    ):
                        collected.append((sender, value))
                if params.robust_reconstruction:
                    if len(collected) < params.reconstruction_threshold + 2 * params.t:
                        raise ProtocolAbortError(
                            f"batch {batch.batch_id}: {len(collected)} shares "
                            f"cannot correct {params.t} errors at degree "
                            f"{params.product_degree}"
                        )
                    online.tracker.set_batch(batch, scheme.robust_reconstruct(
                        [
                            PackedShare(
                                sender, setup.ring.element(value),
                                params.product_degree, params.k,
                            )
                            for sender, value in collected
                        ],
                        degree=params.product_degree, max_errors=params.t,
                    ))
                else:
                    online.tracker.open_batches(
                        scheme, [batch], [collected], params.product_degree
                    )
        online.tracker.propagate()

    # ---- Output step -----------------------------------------------------------

    out_committee = online.committees[ONLINE_OUT]
    out_handoff = online.out_handoff
    recipients = {
        wire: online.output_client_roles[circuit.gates[wire].client]
        for wire in circuit.output_wires
    }

    def program_out(view) -> None:
        share = out_handoff.receive(tpk, view.index, view.secret_key)
        bundle = reencrypt_outputs(
            tpk, share, offline.wire_cipher, recipients, proof_params, view.rng
        )
        view.speak(ONLINE_OUT, {"output": bundle})

    env.run_committee(out_committee, program_out)
    masks = recover_outputs(
        tpk, env.posts_by_index(out_committee), offline.wire_cipher, recipients,
        out_handoff.verifications, proof_params,
    )

    online.outputs = program.outputs_by_client({
        wire: (int(online.tracker.get(wire)) + lam) % tpk.n
        for wire, lam in masks.items()
    })
    return online.outputs
