"""Π_YOSO-Online: input, evaluation, and output (paper §5.3, Protocol 5).

Per-depth flow once inputs are known:

* **Future key distribution** — the first online committee (Con-keys) uses
  its tsk shares to re-encrypt every Key-For-Future secret key to the
  now-known YOSO role key of its owner, and passes tsk on to the output
  committee.  After this, tsk is never needed for multiplications.
* **Input** — each client recovers its KFF, decrypts its wire masks
  ``λ^α``, and broadcasts ``μ^α = v^α − λ^α``.
* **Addition/linear gates** — public local computation on μ values.
* **Multiplication** — for each batch of k gates, each member of the
  depth's committee decrypts its preprocessed packed shares
  (λ^α, λ^β, Γ^γ), forms its degree-(k−1) canonical shares of the public
  μ vectors, and broadcasts the single scalar
  ``μ^γ_i = μ^α_i·μ^β_i + μ^α_i·λ^β_i + μ^β_i·λ^α_i + Γ^γ_i``
  with a constant-size correctness proof.  Anyone reconstructs μ^γ from
  any ``t + 2(k−1) + 1`` verified shares — GOD with O(1) amortized
  communication per gate.
* **Output** — the last committee re-encrypts each output-wire mask to the
  receiving client (Re-encrypt*, no further tsk resharing); the client
  computes ``v = μ + λ``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.circuits.circuit import Circuit, GateType
from repro.circuits.program import CircuitProgram, compile_circuit
from repro.core.offline import PACK_KINDS, OfflineState, _posts_by_index
from repro.core.oracle import MuShareOracle
from repro.core.reencrypt import (
    EncryptedPartial,
    recover_reencrypted,
    reencrypt_contributions,
)
from repro.core.resharing import (
    EncryptedResharing,
    build_resharing,
    next_verifications,
    receive_share,
    verified_contributors,
)
from repro.core.setup import (
    ONLINE_KEYS,
    ONLINE_OUT,
    SetupArtifacts,
    client_tag,
    mul_committee_name,
    role_tag,
)
from repro.errors import ProtocolAbortError
from repro.fields.ring import ZmodElement
from repro.observability.tracer import KIND_BATCH, maybe_span
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


class MuTracker:
    """Public μ bookkeeping: every observer can maintain this identically.

    Backed by a wire-indexed array driven by the compiled program's
    layer/run structure, so :meth:`propagate` is one tight loop per
    (layer, kind) run rather than a per-gate dict walk.  Accepts a bare
    :class:`Circuit` (compiled at k=1) for unit tests and tooling.
    """

    def __init__(self, setup: SetupArtifacts, circuit: Circuit | CircuitProgram):
        self.ring = setup.ring
        program = (
            circuit if isinstance(circuit, CircuitProgram)
            else compile_circuit(circuit, 1)
        )
        self.program = program
        self.circuit = program.circuit
        self._mu: list[ZmodElement | None] = [None] * program.n_gates
        self._constants = [self.ring.element(c) for c in program.constants]

    def set(self, wire: int, value: int | ZmodElement) -> None:
        self._mu[wire] = self.ring.element(value)

    def known(self, wire: int) -> bool:
        return self._mu[wire] is not None

    def get(self, wire: int) -> ZmodElement:
        value = self._mu[wire]
        if value is None:
            raise ProtocolAbortError(f"μ for wire {wire} not yet public")
        return value

    def propagate(self) -> None:
        """Push μ through linear gates as far as currently possible."""
        mu = self._mu
        constants = self._constants
        for layer in self.program.layers:
            for run in layer.runs:
                kind = run.kind
                if kind is GateType.ADD:
                    for w, a, b in zip(run.wires, run.src0, run.src1):
                        if mu[w] is None:
                            va, vb = mu[a], mu[b]
                            if va is not None and vb is not None:
                                mu[w] = va + vb
                elif kind is GateType.SUB:
                    for w, a, b in zip(run.wires, run.src0, run.src1):
                        if mu[w] is None:
                            va, vb = mu[a], mu[b]
                            if va is not None and vb is not None:
                                mu[w] = va - vb
                elif kind is GateType.CADD:
                    # v+c − λ = μ + c: constants land in μ, λ is unchanged.
                    for w, a, ci in zip(run.wires, run.src0, run.const_index):
                        if mu[w] is None and mu[a] is not None:
                            mu[w] = mu[a] + constants[ci]
                elif kind is GateType.CMUL:
                    for w, a, ci in zip(run.wires, run.src0, run.const_index):
                        if mu[w] is None and mu[a] is not None:
                            mu[w] = mu[a] * constants[ci]
                elif kind is GateType.OUTPUT:
                    for w, a in zip(run.wires, run.src0):
                        if mu[w] is None and mu[a] is not None:
                            mu[w] = mu[a]


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
    out_resharings: dict[int, EncryptedResharing] = field(default_factory=dict)
    verifications_out: dict[int, int] = field(default_factory=dict)
    outputs: dict[str, list[int]] = field(default_factory=dict)


def sample_online_committees(
    env: ProtocolEnvironment,
    setup: SetupArtifacts,
    program: Circuit | CircuitProgram,
) -> OnlineState:
    """Sample every online committee and client role (keys now known)."""
    if isinstance(program, Circuit):
        program = compile_circuit(program, setup.params.k)
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
        tracker=MuTracker(setup, program),
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
    rng: random.Random,
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

    bridge_set = verified_contributors(
        tpk, offline.bridge_resharings, offline.verifications[2],
        keys_committee.public_keys(), proof_params,
    )

    def program_keys(view) -> None:
        share = receive_share(
            tpk, view.index, view.secret_key, offline.bridge_resharings,
            bridge_set, previous_epoch=2,
        )
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
    posts_keys = _posts_by_index(env, keys_committee)

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
    online.out_resharings = {
        i: p["tsk"]
        for i, p in posts_keys.items()
        if isinstance(p.get("tsk"), EncryptedResharing)
    }
    out_set = verified_contributors(
        tpk, online.out_resharings, offline.verifications[3], out_pks, proof_params
    )
    online.verifications_out = next_verifications(
        tpk, online.out_resharings, out_set
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

    for segment in program.input_segments:
        client = segment.client
        wires = list(segment.wires)
        supplied = list(inputs.get(client, []))
        if len(supplied) != len(wires):
            raise ProtocolAbortError(
                f"client {client!r} supplied {len(supplied)} inputs, "
                f"circuit needs {len(wires)}"
            )

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
        if posts and isinstance(posts[-1], dict):
            for wire, value in posts[-1].get("mu", {}).items():
                if wire in wires and isinstance(value, int):
                    online.tracker.set(wire, value)
        # A crashed/silent client's inputs default to the ⊥-style default 0:
        # μ = −λ is unknowable publicly, so the functionality's default-input
        # rule is approximated by aborting only that client's wires.
        for wire in wires:
            if not online.tracker.known(wire):
                raise ProtocolAbortError(
                    f"input client {client!r} failed to publish μ for wire {wire}"
                )

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
                        lam[kind] = setup.ring.element(
                            recover_reencrypted(
                                tpk, ciphertext, offline.packed_bundles[key], kff_sk,
                                offline.verifications[2], proof_params,
                            )
                        )
                    mu_left = _padded_mu(online.tracker, batch.left_wires, params.k)
                    mu_right = _padded_mu(online.tracker, batch.right_wires, params.k)
                    # Cached canonical matrix row: no re-interpolation over
                    # the 2048-bit ring per batch.
                    mu_l_i, mu_r_i = (
                        s.value
                        for s in scheme.canonical_many(
                            [mu_left, mu_right], index=view.index
                        )
                    )
                    value = (
                        mu_l_i * mu_r_i
                        + mu_l_i * lam["right"]
                        + mu_r_i * lam["left"]
                        + lam["gamma"]
                    )
                    if params.robust_reconstruction:
                        # Proof-free mode: bad shares are *corrected*, not
                        # excluded, so no token rides along.
                        shares[batch.batch_id] = {"value": int(value)}
                    else:
                        token = online.oracle.attest(
                            batch.batch_id, view.index, int(value)
                        )
                        shares[batch.batch_id] = {"value": int(value), "proof": token}
            view.speak(name, {"mu_shares": shares})

        env.run_committee(committee, program_mul)
        posts = _posts_by_index(env, committee)

        for batch in batches:
            with maybe_span(
                env.tracer, f"mul-reconstruct-{batch.batch_id}", kind=KIND_BATCH,
                phase="online.mul", batch=batch.batch_id, depth=depth,
                stage="reconstruct", gates=len(batch.gate_wires),
            ):
                collected: list[PackedShare] = []
                for sender, payload in sorted(posts.items()):
                    entry = payload.get("mu_shares", {}).get(batch.batch_id)
                    if not isinstance(entry, Mapping):
                        continue
                    value = entry.get("value")
                    if not isinstance(value, int):
                        continue
                    if params.robust_reconstruction:
                        collected.append(
                            PackedShare(
                                sender, setup.ring.element(value),
                                params.product_degree, params.k,
                            )
                        )
                    elif online.oracle.verify(
                        batch.batch_id, sender, value, entry.get("proof")
                    ):
                        collected.append(
                            PackedShare(
                                sender, setup.ring.element(value),
                                params.product_degree, params.k,
                            )
                        )
                if params.robust_reconstruction:
                    if len(collected) < params.reconstruction_threshold + 2 * params.t:
                        raise ProtocolAbortError(
                            f"batch {batch.batch_id}: {len(collected)} shares "
                            f"cannot correct {params.t} errors at degree "
                            f"{params.product_degree}"
                        )
                    mu_gamma = scheme.robust_reconstruct(
                        collected, degree=params.product_degree,
                        max_errors=params.t,
                    )
                else:
                    if len(collected) < params.reconstruction_threshold:
                        raise ProtocolAbortError(
                            f"batch {batch.batch_id}: only {len(collected)} "
                            f"verified μ shares, need "
                            f"{params.reconstruction_threshold}"
                        )
                    mu_gamma = scheme.reconstruct_many(
                        [collected[: params.reconstruction_threshold]],
                        degree=params.product_degree,
                    )[0]
                for slot, wire in enumerate(batch.gate_wires):
                    online.tracker.set(wire, mu_gamma[slot])
        online.tracker.propagate()

    # ---- Output step -----------------------------------------------------------

    out_committee = online.committees[ONLINE_OUT]
    output_wires = list(circuit.output_wires)

    def program_out(view) -> None:
        share = receive_share(
            tpk, view.index, view.secret_key, online.out_resharings,
            out_set, previous_epoch=3,
        )
        items = [
            (
                offline.wire_cipher[wire],
                online.output_client_roles[circuit.gates[wire].client].public_key,
            )
            for wire in output_wires
        ]
        bundles = reencrypt_contributions(
            tpk, share, items, proof_params, view.rng
        )
        view.speak(ONLINE_OUT, {"output": dict(zip(output_wires, bundles))})

    env.run_committee(out_committee, program_out)
    posts_out = _posts_by_index(env, out_committee)

    outputs: dict[str, list[int]] = {}
    for wire in output_wires:
        client = circuit.gates[wire].client
        contributions = [
            p["output"][wire]
            for p in posts_out.values()
            if isinstance(p.get("output", {}).get(wire), EncryptedPartial)
        ]
        lam = recover_reencrypted(
            tpk, offline.wire_cipher[wire], contributions,
            online.output_client_roles[client].secret_key,
            online.verifications_out, proof_params,
        )
        value = (int(online.tracker.get(wire)) + lam) % tpk.n
        outputs.setdefault(client, []).append(value)
    online.outputs = outputs
    return outputs


def _padded_mu(
    tracker: MuTracker, wires: Sequence[int], k: int
) -> list[ZmodElement]:
    """Public μ vector of a batch, zero-padded to the packing width."""
    values = [tracker.get(w) for w in wires]
    values += [tracker.ring.zero] * (k - len(values))
    return values
