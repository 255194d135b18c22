"""Information-theoretic YOSO MPC with packed sharing (paper §7, bullet 3).

The paper leaves open "what the impact of the gap is in the context of
information-theoretic security".  This module is that feasibility
prototype: a *statistically secure, semi-honest* YOSO protocol with the
same packed-sharing online phase as the main construction, but **no
computational assumptions at the protocol level** — no encryption, no
proofs.  Corrupted roles follow the protocol; privacy holds against any t
of them per committee with the same gap arithmetic (degree d = t+k−1,
online reconstruction from t+2(k−1)+1 shares, n > 2(t+k−1)).

Structure (each committee speaks once):

* **P1 (contribution committee).**  Every member picks an additive
  contribution ``m_i^w`` to the mask of each input/multiplication wire and
  *locally* extends its contributions through linear gates (the compiled
  program's mask walk; the rules are linear, so λ^w = Σ_i m_i^w holds on
  every wire).  It then deals, to
  P2, degree-d packed sharings of its contribution vectors for each batch
  (left, right, output masks at degrees d and 2d) — and sends its raw
  contributions for input/output wires privately to the owning clients.
* **P2 (multiplication committee).**  Summing the received deals gives P2
  packed sharings of the true batch masks.  Each member locally computes
  its degree-2d share of ``Γ = λ^α*λ^β − λ^γ`` and *transfers* the
  sharings to the online committees with the Lagrange-recombination trick:
  a member holding share σ_i of a degree-D sharing deals a fresh degree-d
  packed sharing of the public-vector multiple ``σ_i·L_i`` (L_i = the
  Lagrange basis row evaluating point i at the secret slots); the
  receiving committee sums any D+1 such deals and holds a fresh degree-d
  sharing of the same secrets.  One message, degree reduction included —
  the IT analogue of "re-encrypt to the future".
* **Online committees** (one per multiplicative depth) and clients run
  :mod:`repro.packed_online`, the very code the main protocol runs: one
  broadcast scalar per member per batch of k gates — O(1) communication
  per gate, so the gap's online benefit carries over unchanged.  A member
  *obtains* its λ/Γ shares as sums of the P2 transfers; nothing is
  *authenticated* (semi-honest).

Fail-stop tolerance carries over too (reconstruction needs t+2(k−1)+1 of
the n posted shares).  Active security would additionally need
error-corrected reconstruction — exactly the open question the paper
points at; see ``tests/test_it_yoso.py`` for the boundary.

Private point-to-point messages are modelled as bulletin posts addressed
to a recipient (the YOSO P2P functionality); the meter counts their field
elements like everything else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.accounting.comm import CommMeter
from repro.accounting.symbolic import check_run_costs
from repro.circuits.circuit import Circuit
from repro.circuits.program import compile_circuit
from repro.errors import ParameterError, ProtocolAbortError
from repro.fields.ring import Zmod, ZmodElement
from repro.packed_online import MuTracker, mu_gamma_share
from repro.rng import fresh_rng
from repro.sharing.packed import packed_scheme, secret_slots
from repro.wire.registry import register_kind
from repro.yoso.adversary import Adversary, honest_adversary
from repro.yoso.assignment import IdealRoleAssignment
from repro.yoso.network import ProtocolEnvironment

#: Envelope kind of every IT-YOSO post ("It-P1", "It-P2", "It-input",
#: and the "It-mul-{depth}" committee tags).
register_kind(
    "it.messages", 24, tag_prefix="It-",
    description="information-theoretic prototype messages (field elements)",
)


@dataclass
class ItYosoResult:
    outputs: dict[str, list[int]]
    n: int
    t: int
    k: int
    meter: CommMeter
    field_bits: int = 0
    #: The run's bulletin board, for the symbolic cost cross-check.
    bulletin: Any = None

    def online_mul_bytes(self) -> int:
        """Delivered μ-share bytes including per-post envelope framing."""
        return sum(
            v for tag, v in self.meter.by_tag("online").items()
            if tag.startswith("It-mul")
        )

    def online_mul_payload_bytes(self) -> int:
        """μ-share section bytes only — the paper's O(1)-per-gate quantity.

        Envelope framing is a constant per member per depth, independent of
        the batch payload; it amortizes away on wide circuits but dominates
        tiny test instances, so flatness claims compare payload bytes.
        """
        return sum(
            v for tag, v in self.meter.by_tag("online").items()
            if tag.startswith("It-mul") and tag.endswith(".mu_shares")
        )


class ItYosoMpc:
    """Semi-honest, statistically secure YOSO MPC over a prime field."""

    def __init__(
        self,
        n: int,
        t: int,
        k: int,
        modulus: int = (1 << 61) - 1,
        rng: random.Random | None = None,
        adversary: Adversary | None = None,
    ):
        if 2 * (t + k - 1) >= n:
            raise ParameterError(
                f"need n > 2(t+k-1) for the degree-2d products, got "
                f"n={n}, t={t}, k={k}"
            )
        self.n = n
        self.t = t
        self.k = k
        self.d = t + k - 1
        self.ring = Zmod(modulus)
        self.rng = rng if rng is not None else fresh_rng()
        self._honest = adversary is None
        self.adversary = adversary if adversary is not None else honest_adversary()
        # Memoized per geometry: the kernel matrices survive across runs.
        self.scheme = packed_scheme(self.ring, n, k)

    # -- share-transfer helper (the IT re-encrypt-to-the-future) -----------

    def _transfer_row(self, source_degree: int, index: int) -> list[int]:
        """L_i: the public vector a share at ``index`` contributes per slot.

        For a degree-``source_degree`` sharing known at points 1..D+1, the
        secret at slot s is Σ_i λ_i(s)·σ_i; member ``index`` contributes
        σ_i·(λ_i(slot_0), ..., λ_i(slot_{k-1})).  The λ rows come from the
        scheme's cached evaluation matrices (one Lagrange pass per degree,
        shared by every member and every batch).
        """
        points = tuple(range(1, source_degree + 2))
        rows = self.scheme.evaluation_rows(points, tuple(secret_slots(self.k)))
        return [row[index - 1] for row in rows]

    # -- main entry ----------------------------------------------------------

    def run(
        self, circuit: Circuit, inputs: Mapping[str, Sequence[int]]
    ) -> ItYosoResult:
        program = compile_circuit(circuit, self.k)
        env = ProtocolEnvironment(
            assignment=IdealRoleAssignment(key_bits=32, rng=self.rng),
            adversary=self.adversary,
            rng=self.rng,
        )
        ring, scheme, n, k, d = self.ring, self.scheme, self.n, self.k, self.d
        q = ring.modulus
        batches = list(program.plan.mul_batches)
        depths = list(program.mul_depths)

        p1 = env.sample_committee("It-P1", n)
        p2 = env.sample_committee("It-P2", n)
        mul_committees = {
            depth: env.sample_committee(f"It-mul-{depth}", n)
            for depth in depths
        }

        # ---- P1: mask contributions ------------------------------------------

        env.set_phase("offline")
        mask_wires = list(program.mask_wires)

        def program_p1(view) -> None:
            # Additive contributions to the input/mul wire masks, extended
            # through the linear gates by the mask rule (λ^w = Σ_i m_i^w
            # holds on every wire because the rules are linear).
            contrib: list[ZmodElement | None] = [None] * program.n_gates
            for w in mask_wires:
                contrib[w] = ring.random(view.rng)
            program.propagate_linear(ring, contrib, masks=True)
            # One batched dealing for all (batch, kind) vectors: the rng
            # stream and the share values match the historical per-sharing
            # loop exactly (degrees d, d, 2d interleave per batch).
            keys: list[tuple[int, str]] = []
            vectors: list[list[int]] = []
            degrees: list[int] = []
            for batch in batches:
                for kind, wires in (
                    ("left", batch.left_wires),
                    ("right", batch.right_wires),
                    ("out_2d", batch.gate_wires),
                ):
                    keys.append((batch.batch_id, kind))
                    vectors.append(
                        [contrib[w].value for w in wires] + [0] * (k - len(wires))
                    )
                    degrees.append(2 * d if kind == "out_2d" else d)
            # The kernel's share rows are posted as they come.
            deals: dict[tuple[int, str], list[int]] = dict(zip(
                keys, scheme.share_many(vectors, degree=degrees, rng=view.rng)
            ))
            client_masks = {
                w: contrib[w].value
                for w in list(circuit.input_wires) + list(circuit.output_wires)
            }
            view.speak("It-P1", {"deals": deals, "client_masks": client_masks})

        env.run_committee(p1, program_p1)
        p1_payloads = [p for _, p in sorted(env.posts_by_index(p1).items())]
        if len(p1_payloads) < n:
            raise ProtocolAbortError("semi-honest IT protocol lost a P1 message")

        # λ^w for client-facing wires (the functionality delivers privately).
        client_lambda = {
            w: sum(p["client_masks"][w] for p in p1_payloads) % q
            for w in list(circuit.input_wires) + list(circuit.output_wires)
        }

        # P2 member shares of each batch sharing: sums of the P1 deals.
        def p2_share(batch_id: int, kind: str, index: int) -> int:
            key = (batch_id, kind)
            return sum(p["deals"][key][index - 1] for p in p1_payloads) % q

        # ---- P2: multiply and transfer to the online committees ---------------

        def program_p2(view) -> None:
            i = view.index
            # The member's λ rows depend only on (degree, i): hoist them out
            # of the batch loop.
            rows = {
                deg: self._transfer_row(deg, i) if i <= deg + 1 else None
                for deg in (d, 2 * d)
            }
            keys: list[tuple[int, str]] = []
            vectors: list[list[int]] = []
            for batch in batches:
                left = p2_share(batch.batch_id, "left", i)
                right = p2_share(batch.batch_id, "right", i)
                out2d = p2_share(batch.batch_id, "out_2d", i)
                gamma_share = (left * right - out2d) % q  # degree-2d share of Γ
                for kind, sigma, source_degree in (
                    ("left", left, d),
                    ("right", right, d),
                    ("gamma", gamma_share, 2 * d),
                ):
                    row = rows[source_degree]
                    if row is None:
                        continue  # only D+1 contributors are needed
                    keys.append((batch.batch_id, kind))
                    vectors.append([sigma * c % q for c in row])
            transfers: dict[tuple[int, str], list[int]] = dict(zip(
                keys, scheme.share_many(vectors, degree=d, rng=view.rng)
            ))
            view.speak("It-P2", {"transfers": transfers})

        env.run_committee(p2, program_p2)
        p2_payloads = env.posts_by_index(p2)

        def online_share(batch_id: int, kind: str, index: int) -> int:
            source_degree = 2 * d if kind == "gamma" else d
            key = (batch_id, kind)
            total = 0
            for i in range(1, source_degree + 2):
                payload = p2_payloads.get(i)
                if payload is None:
                    raise ProtocolAbortError(
                        "semi-honest IT protocol lost a P2 transfer"
                    )
                total += payload["transfers"][key][index - 1]
            return total % q

        # ---- Online: inputs, μ evaluation, outputs ---------------------------

        env.set_phase("online")
        tracker = MuTracker(program, ring)

        for client, wires, supplied in program.client_inputs(inputs):
            role = env.client(f"it-client:{client}")

            def program_client(view, wires=wires, supplied=supplied):
                view.speak(
                    "It-input",
                    {
                        "mu": {
                            w: (int(v) - client_lambda[w]) % q
                            for w, v in zip(wires, supplied)
                        }
                    },
                )

            env.run_role(role, program_client)
            # Every client posts under the one tag: read this client's own.
            tracker.publish_inputs(
                client, wires, env.bulletin.by_sender("It-input").get(str(role.id))
            )
        tracker.propagate()

        product_degree = self.t + 2 * (self.k - 1)
        by_depth = program.depth_batches

        for depth in depths:
            committee = mul_committees[depth]

            def program_mul(view, depth=depth) -> None:
                i = view.index
                # Both canonical μ shares of every batch at this depth come
                # out of one cached-matrix product.
                shares_out = {
                    batch.batch_id: mu_gamma_share(
                        mu_left, mu_right,
                        online_share(batch.batch_id, "left", i),
                        online_share(batch.batch_id, "right", i),
                        online_share(batch.batch_id, "gamma", i),
                        q,
                    )
                    for batch, (mu_left, mu_right) in zip(
                        by_depth[depth],
                        tracker.canonical_shares(scheme, by_depth[depth], i),
                    )
                }
                view.speak(committee.name, {"mu_shares": shares_out})

            env.run_committee(committee, program_mul)
            # Semi-honest: posted shares are taken as they are.
            posts = sorted(env.posts_by_index(committee).items())
            tracker.open_batches(
                scheme,
                by_depth[depth],
                [
                    [
                        (index, payload["mu_shares"][batch.batch_id])
                        for index, payload in posts
                        if isinstance(payload["mu_shares"].get(batch.batch_id), int)
                    ]
                    for batch in by_depth[depth]
                ],
                product_degree,
            )
            tracker.propagate()

        outputs = program.outputs_by_client({
            w: int(tracker.get(w) + client_lambda[w]) for w in circuit.output_wires
        })

        result = ItYosoResult(
            outputs=outputs, n=n, t=self.t, k=k, meter=env.meter,
            field_bits=self.ring.modulus.bit_length(),
            bulletin=env.bulletin,
        )
        # Honest runs double as validation oracles for the symbolic
        # cost model; adversarial transforms void the structural contract.
        if self._honest:
            check_run_costs(result)
        return result
