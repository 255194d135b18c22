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

import numpy as np

from repro.accounting.comm import CommMeter
from repro.accounting.symbolic import check_run_costs
from repro.circuits.circuit import Circuit
from repro.circuits.program import compile_circuit
from repro.errors import ParameterError, ProtocolAbortError
from repro.fields.ring import Zmod
from repro.packed_online import MuTracker, mu_gamma_share, slot_values
from repro.rng import fresh_rng
from repro.sharing.kernel import add_mod, mul_mod, resolve_backend, sum_mod
from repro.sharing.packed import packed_scheme, secret_slots
from repro.wire.registry import register_kind
from repro.yoso.adversary import Adversary, honest_adversary
from repro.yoso.assignment import IdealRoleAssignment
from repro.yoso.network import ProtocolEnvironment

#: Envelope kind of every IT-YOSO post ("It-P1", "It-P2", "It-input",
#: and the "It-mul-{depth}" committee tags).
register_kind(
    "it.messages", 24, version=2, tag_prefix="It-",
    description="information-theoretic prototype messages (field elements)",
)

#: A P1 deal's rows, in the dealing order of each batch.
DEALT = ("left", "right", "out_2d")


def _checked_row(payload: Any, tag: str, index: int, kind: str, n: int,
                 length: int, q: int) -> np.ndarray:
    """Member ``index``'s ``kind`` row of a P1 deal or P2 transfer as a
    batch × member table, if it is ``length`` uint64 entries below ``q``:
    a named abort, not a wrong sum."""
    section = "deals" if tag == "It-P1" else "transfers"
    row = payload[section].get(kind)
    if not (isinstance(row, np.ndarray) and row.dtype == np.uint64
            and row.shape == (length,) and (not length or int(row.max()) < q)):
        raise ProtocolAbortError(f"{tag} {section} row {kind!r} from {tag}[{index}] "
                                 f"is not {length} field elements below q")
    return row.reshape(-1, n)


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
        if resolve_backend(modulus, n) != "numpy":
            raise ParameterError("the IT rows are uint64 words: modulus or n too large")
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
        mask_wires = np.array(program.mask_wires, dtype=np.intp)
        client_wires = list(circuit.input_wires) + list(circuit.output_wires)
        # One (left, right, out_2d) vector per batch, batch-major: the rng
        # stream and the share values of the historical per-sharing loop
        # (degrees d, d, 2d interleave per batch).
        deal_slots = program.batch_wires.reshape(-1, k)
        deal_degrees = [d, d, 2 * d] * len(batches)
        row_length = len(batches) * n

        def program_p1(view) -> None:
            # Additive contributions to the input/mul wire masks, extended
            # through the linear gates by the mask rule (λ^w = Σ_i m_i^w
            # holds on every wire because the rules are linear).
            contrib = np.zeros(program.n_gates, dtype=np.uint64)
            known = np.zeros(program.n_gates, dtype=bool)
            contrib[mask_wires] = [
                ring.random_value(view.rng) for _ in range(len(mask_wires))
            ]
            known[mask_wires] = True
            program.propagate_linear(contrib, known, q, masks=True)
            deals = scheme.share_many(
                slot_values(contrib, deal_slots), degree=deal_degrees, rng=view.rng
            )
            client_masks = dict(zip(client_wires, contrib[client_wires].tolist()))
            # One row per kind: its batches' share vectors end to end.
            view.speak("It-P1", {
                "deals": {kind: deals[j::3].ravel() for j, kind in enumerate(DEALT)},
                "client_masks": client_masks,
            })

        env.run_committee(p1, program_p1)
        p1_payloads = [p for _, p in sorted(env.posts_by_index(p1).items())]
        if len(p1_payloads) < n:
            raise ProtocolAbortError("semi-honest IT protocol lost a P1 message")

        # λ^w for client-facing wires (the functionality delivers privately).
        client_lambda = {
            w: sum(p["client_masks"][w] for p in p1_payloads) % q
            for w in client_wires
        }

        # P2 member shares of every batch sharing: sums of the P1 deals
        # (batch × member per kind), each row read off the board once.
        p2_shares = {
            kind: sum_mod(
                (
                    _checked_row(p, "It-P1", i, kind, n, row_length, q)
                    for i, p in enumerate(p1_payloads, 1)
                ),
                q,
            )
            for kind in DEALT
        }

        # ---- P2: multiply and transfer to the online committees ---------------

        def program_p2(view) -> None:
            i = view.index
            left, right, out2d = (p2_shares[kind][:, i - 1] for kind in DEALT)
            # The degree-2d share of Γ = λ^α·λ^β − λ^γ.
            gamma_share = add_mod(mul_mod(left, right, q), q - out2d, q)
            # The member's λ rows depend only on (degree, i), and only D+1
            # contributors are needed per degree.
            rows = {
                deg: self._transfer_row(deg, i)
                for deg in (d, 2 * d) if i <= deg + 1
            }
            sent = [
                (kind, sigma, rows[source_degree])
                for kind, sigma, source_degree in (
                    ("left", left, d),
                    ("right", right, d),
                    ("gamma", gamma_share, 2 * d),
                )
                if source_degree in rows
            ]
            # σ_i·L_i per batch and kind, batch-major.
            sigmas = np.array([sigma for _, sigma, _ in sent], dtype=np.uint64)
            lagrange = np.array([row for _, _, row in sent], dtype=np.uint64)
            vectors = mul_mod(
                sigmas.reshape(len(sent), len(batches)).T[:, :, None],
                lagrange.reshape(len(sent), k)[None],
                q,
            ).reshape(-1, k)
            transfers = scheme.share_many(vectors, degree=d, rng=view.rng)
            view.speak("It-P2", {"transfers": {
                kind: transfers[j::len(sent)].ravel() for j, (kind, _, _) in enumerate(sent)
            }})

        env.run_committee(p2, program_p2)
        p2_payloads = env.posts_by_index(p2)

        def transferred(kind: str, source_degree: int) -> np.ndarray:
            """Every online member's share of every batch's ``kind`` sharing:
            the sum of the first D+1 P2 transfers (batch × member)."""
            senders = range(1, source_degree + 2)
            if any(i not in p2_payloads for i in senders):
                raise ProtocolAbortError("semi-honest IT protocol lost a P2 transfer")
            return sum_mod(
                (
                    _checked_row(p2_payloads[i], "It-P2", i, kind, n, row_length, q)
                    for i in senders
                ),
                q,
            )

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
        if depths:
            lam_left, lam_right, gamma = (
                transferred("left", d), transferred("right", d),
                transferred("gamma", 2 * d),
            )

        for depth in depths:
            committee = mul_committees[depth]
            ids = [batch.batch_id for batch in by_depth[depth]]

            def program_mul(view, depth=depth, ids=ids) -> None:
                i = view.index
                # Both canonical μ shares of every batch at this depth come
                # out of one cached-matrix product, and every μ^γ share out
                # of one element-wise evaluation.
                mu_left, mu_right = tracker.canonical_shares(scheme, by_depth[depth], i)
                shares = mu_gamma_share(
                    mu_left, mu_right,
                    lam_left[ids, i - 1], lam_right[ids, i - 1], gamma[ids, i - 1],
                    q,
                )
                view.speak(
                    committee.name, {"mu_shares": dict(zip(ids, shares.tolist()))}
                )

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
            w: (tracker.get(w) + client_lambda[w]) % q for w in circuit.output_wires
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
