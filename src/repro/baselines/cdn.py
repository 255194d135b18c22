"""CDN-style YOSO MPC baseline (Gentry et al. [29] / Braun et al. [10]).

The circuit is evaluated **gate by gate over ciphertexts** under the global
threshold key: clients broadcast encryptions of their inputs; linear gates
are free (the compiled program's linear walk over ciphertexts, value
rule); every multiplication consumes an encrypted Beaver
triple by *threshold-decrypting* the two masked openings ε = x + a and
δ = y + b — so every gate costs ~2n partial decryptions **online**, the
Θ(n)-per-gate bottleneck the paper's packing construction removes (§1, §3).

What is here is the schedule — triple-A, triple-B, one eval committee per
depth, out.  Every step the baseline shares with the main protocol *is*
the main protocol's code (Beaver draw-encrypt-prove, verified
contribution sums, ε/δ opening, output delivery, the
:class:`~repro.core.resharing.Handoff` chain), so the comparison in
claim ``E3`` (``benchmarks/claims.py``) is apples-to-apples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.accounting.comm import CommMeter
from repro.accounting.symbolic import check_run_costs
from repro.circuits.circuit import Circuit
from repro.circuits.program import compile_circuit
from repro.core.offline import (
    proved_encryptions,
    proved_products,
    sum_contributions,
    sum_products,
)
from repro.core.reencrypt import (
    beaver_openings,
    combine_openings,
    decrypt_openings,
    recover_outputs,
    reencrypt_outputs,
)
from repro.core.resharing import Handoff, build_resharing
from repro.engine.batch import teval_many
from repro.errors import ProtocolAbortError
from repro.fields.ring import Zmod
from repro.nizk.params import ProofParams
from repro.nizk.sigma import PlaintextKnowledgeProof
from repro.paillier.paillier import PaillierCiphertext
from repro.paillier.threshold import ThresholdPaillier
from repro.rng import fresh_rng
from repro.wire.codec import KeyAnnouncement
from repro.wire.registry import register_kind
from repro.yoso.assignment import IdealRoleAssignment
from repro.yoso.network import ProtocolEnvironment

#: Envelope kinds of the CDN baseline's posts ("Cdn-" committee messages
#: and the lowercase "cdn-" setup/input tags).
register_kind(
    "baseline.cdn", 22, tag_prefix="Cdn-",
    description="CDN committee messages (triples, eval partials, output)",
)
register_kind(
    "baseline.cdn_aux", 23, tag_prefix="cdn-",
    description="CDN setup parameters and client input broadcasts",
)


@dataclass
class CdnResult:
    """Outputs and metering of one CDN baseline run."""

    outputs: dict[str, list[int]]
    n: int
    t: int
    circuit: Circuit
    meter: CommMeter
    modulus: int = 0  # the plaintext ring Z_N the outputs live in
    te_bits: int = 0
    role_key_bits: int = 0
    #: The run's bulletin board, for the symbolic cost cross-check.
    bulletin: Any = None

    def online_mul_bytes(self) -> int:
        """Online bytes attributable to multiplication evaluation."""
        return sum(
            v for tag, v in self.meter.by_tag("online").items()
            if tag.startswith("Cdn-eval")
        )


class CdnYosoMpc:
    """One configured CDN baseline instance (honest execution)."""

    def __init__(
        self,
        n: int,
        t: int,
        te_bits: int = 64,
        role_key_bits: int = 64,
        rng: random.Random | None = None,
    ):
        if t >= n / 2:
            raise ProtocolAbortError("CDN baseline needs honest majority")
        self.n = n
        self.t = t
        self.te_bits = te_bits
        self.role_key_bits = role_key_bits
        self.rng = rng if rng is not None else fresh_rng()

    def run(
        self, circuit: Circuit, inputs: Mapping[str, Sequence[int]]
    ) -> CdnResult:
        rng = self.rng
        assignment = IdealRoleAssignment(key_bits=self.role_key_bits, rng=rng)
        env = ProtocolEnvironment(assignment=assignment, rng=rng)
        proof_params = ProofParams.for_modulus_bits(
            min(self.te_bits, self.role_key_bits)
        )

        env.set_phase("setup")
        tpk, tsk_shares = ThresholdPaillier.keygen(
            self.n, self.t, bits=self.te_bits, rng=rng
        )
        ring = Zmod(tpk.n, assume_prime=False)
        # Verification keys of whichever committee holds tsk right now.
        verifications = {s.index: s.verification for s in tsk_shares}
        # Announce tpk in-band so cross-process decoders can resolve every
        # later Cdn-* ciphertext compressed against it.
        env.bulletin.post(
            "setup", "F-setup", "cdn-setup", {"tpk": KeyAnnouncement(tpk.n)}
        )
        env.bulletin.advance_round()

        # The baseline is unpacked (k = 1), but the same compiled program
        # drives its gate-by-gate evaluation: depth schedule, per-client
        # segments, and the linear walk.
        program = compile_circuit(circuit, 1)
        mul_wires = list(program.mul_wires)
        mul_depths = program.mul_depths

        # Committee chain: triple-A (holds tsk) -> eval committees -> out.
        chain = ["Cdn-triple-A"] + [f"Cdn-eval-{d}" for d in mul_depths] + ["Cdn-out"]
        committees = {
            name: env.sample_committee(name, self.n) for name in chain
        }
        committees["Cdn-triple-B"] = env.sample_committee(
            "Cdn-triple-B", self.n
        )
        for share in tsk_shares:
            committees[chain[0]].role(share.index).add_gift("tsk_share", share)

        # ---- Offline: Beaver triples (same two-committee protocol) ----------

        env.set_phase("offline")
        next_pks = committees[chain[1]].public_keys()

        def a_context(wire: int) -> str:
            return f"cdn-a|{wire}"

        def program_a(view):
            contributions = proved_encryptions(
                tpk, ring, proof_params, view, mul_wires, a_context
            )
            resharing = build_resharing(
                tpk, view.gift("tsk_share"), next_pks, proof_params, view.rng
            )
            view.speak("Cdn-triple-A", {"beaver_a": contributions, "tsk": resharing})

        env.run_committee(committees[chain[0]], program_a)
        # The tsk resharings ride in the same posts; the next committee's
        # hand-off is verified when that committee is about to speak.
        tsk_posts = env.posts_by_index(committees[chain[0]])

        beaver_a = sum_contributions(
            tpk, proof_params, tsk_posts, "beaver_a", mul_wires, a_context
        )

        def program_b(view):
            contributions = proved_products(
                tpk, ring, proof_params, view, beaver_a, mul_wires, "cdn-b"
            )
            view.speak("Cdn-triple-B", {"beaver_b": contributions})

        env.run_committee(committees["Cdn-triple-B"], program_b)
        beaver_b, beaver_c = sum_products(
            tpk, proof_params, env.posts_by_index(committees["Cdn-triple-B"]),
            beaver_a, mul_wires, "cdn-b",
        )

        # ---- Online: inputs, per-depth decryption committees, output --------

        env.set_phase("online")
        wire_cipher: dict[int, PaillierCiphertext] = {}

        # Clients broadcast encrypted inputs with plaintext-knowledge proofs.
        client_roles = {
            segment.client: env.client(f"cdn-client:{segment.client}")
            for segment in program.input_segments
        }
        out_client_roles = {
            segment.client: env.client(f"cdn-client-out:{segment.client}")
            for segment in program.output_segments
        }
        for client, wires, supplied in program.client_inputs(inputs):
            def program_client(view, wires=wires, supplied=supplied, client=client):
                encs = {}
                for wire, value in zip(wires, supplied):
                    randomness = tpk.paillier.random_unit(view.rng)
                    ct = tpk.encrypt(int(value) % tpk.n, randomness=randomness)
                    proof = PlaintextKnowledgeProof.prove(
                        tpk.paillier, ct, int(value) % tpk.n, randomness,
                        proof_params, view.rng,
                        context=f"cdn-input|{wire}|{client}",
                    )
                    encs[wire] = {"ct": ct, "proof": proof}
                view.speak(f"cdn-input:{client}", {"inputs": encs})

            env.run_role(client_roles[client], program_client)
            posts = env.bulletin.payloads(f"cdn-input:{client}")
            payload = posts[-1] if posts else {}
            for wire in wires:
                entry = payload.get("inputs", {}).get(wire)
                ok = (
                    isinstance(entry, dict)
                    and isinstance(entry.get("ct"), PaillierCiphertext)
                    and isinstance(entry.get("proof"), PlaintextKnowledgeProof)
                    and entry["proof"].verify(
                        tpk.paillier, entry["ct"], proof_params,
                        context=f"cdn-input|{wire}|{client}",
                    )
                )
                # Default input 0 when the proof fails (the F_MPC default rule).
                wire_cipher[wire] = (
                    entry["ct"] if ok else tpk.encrypt(0, randomness=1)
                )

        def propagate_linear() -> None:
            # Values, so CADD shifts: ct + const is one modular multiply.
            program.propagate_linear_batched(
                wire_cipher,
                lambda groups: teval_many(tpk, groups),
                lambda ct, constant: ct + constant,
            )

        propagate_linear()

        for epoch, depth in enumerate(mul_depths):
            name = f"Cdn-eval-{depth}"
            committee = committees[name]
            handoff = Handoff.from_posts(
                tpk, tsk_posts, verifications, committee.public_keys(),
                proof_params, previous_epoch=epoch,
            )
            verifications = handoff.verifications
            openings = beaver_openings(
                tpk, circuit.gates, program.muls_by_depth[depth], wire_cipher,
                beaver_a, beaver_b,
            )
            hop_pks = committees[chain[chain.index(name) + 1]].public_keys()

            def program_eval(view):
                share = handoff.receive(tpk, view.index, view.secret_key)
                partials = decrypt_openings(
                    tpk, share, openings, proof_params, view.rng
                )
                resharing = build_resharing(
                    tpk, share, hop_pks, proof_params, view.rng
                )
                view.speak(name, {"partials": partials, "tsk": resharing})

            env.run_committee(committee, program_eval)
            tsk_posts = env.posts_by_index(committee)

            opened = combine_openings(
                tpk, openings, tsk_posts, verifications, proof_params
            )
            # z = εδ − ε·b − δ·a + c, one engine batch across the depth.
            z_cts = teval_many(tpk, [
                ([tpk.encrypt(eps * delta % tpk.n, randomness=1),
                  beaver_b[w], beaver_a[w], beaver_c[w]],
                 [1, -eps, -delta, 1])
                for w, (eps, delta) in opened.items()
            ])
            wire_cipher.update(zip(opened, z_cts))
            propagate_linear()

        # ---- Output: Re-encrypt* each output ciphertext to its client -------

        out_committee = committees["Cdn-out"]
        handoff = Handoff.from_posts(
            tpk, tsk_posts, verifications, out_committee.public_keys(),
            proof_params, previous_epoch=len(mul_depths),
        )
        recipients = {
            w: out_client_roles[circuit.gates[w].client]
            for w in circuit.output_wires
        }

        def program_out(view):
            share = handoff.receive(tpk, view.index, view.secret_key)
            bundle = reencrypt_outputs(
                tpk, share, wire_cipher, recipients, proof_params, view.rng
            )
            view.speak("Cdn-out", {"output": bundle})

        env.run_committee(out_committee, program_out)
        outputs = program.outputs_by_client(recover_outputs(
            tpk, env.posts_by_index(out_committee), wire_cipher, recipients,
            handoff.verifications, proof_params,
        ))

        result = CdnResult(
            outputs=outputs, n=self.n, t=self.t, circuit=circuit,
            meter=env.meter, modulus=tpk.n,
            te_bits=self.te_bits, role_key_bits=self.role_key_bits,
            bulletin=env.bulletin,
        )
        # The baseline runs honestly, so every metered envelope must
        # match its closed-form size formula (repro.accounting.symbolic).
        check_run_costs(result)
        return result
