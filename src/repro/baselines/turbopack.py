"""Plain (non-YOSO) Turbopack reference evaluator [25].

The construction the paper starts from (§3.1): a trusted dealer performs
the circuit-dependent preprocessing (wire masks λ, packed sharings of the
batch masks and of Γ = λ^α * λ^β − λ^γ), and the online phase is
:mod:`repro.packed_online` with no committees at all: each party sends its
μ-share *to a single party P1* who reconstructs and broadcasts — the
trick that gives Turbopack constant online communication but only
security-with-abort (a single corruption of P1 kills liveness, which is
why the paper's YOSO version broadcasts instead; §3.3).

Used as (a) the ground-truth reference for the packing algebra, entirely
free of encryption, and (b) the non-YOSO communication baseline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.accounting.comm import CommMeter
from repro.circuits.circuit import Circuit, GateType
from repro.circuits.program import CircuitProgram, compile_circuit
from repro.errors import ParameterError
from repro.fields.ring import Zmod, ZmodElement
from repro.packed_online import MuTracker, mu_gamma_share
from repro.rng import fresh_rng
from repro.sharing.packed import packed_scheme


@dataclass
class TurbopackResult:
    outputs: dict[str, list[int]]
    n: int
    t: int
    k: int
    meter: CommMeter

    def online_bytes(self) -> int:
        return self.meter.total_bytes("online")


KINDS = ("left", "right", "gamma")


@dataclass
class _Preprocessing:
    """What the trusted dealer hands out."""

    #: wire-indexed masks λ
    lambdas: list[ZmodElement | None]
    #: (batch, kind) -> packed sharing (row of one int share per party)
    packed: dict[tuple[int, str], list[int]] = field(default_factory=dict)


class TurbopackSimulator:
    """Honest-but-curious Turbopack with a trusted dealer, for reference."""

    def __init__(
        self,
        n: int,
        t: int,
        k: int,
        modulus: int = (1 << 61) - 1,
        rng: random.Random | None = None,
    ):
        if t + 2 * (k - 1) >= n:
            raise ParameterError(
                f"need n > t + 2(k-1) for degree-{t + 2 * (k - 1)} products"
            )
        self.n = n
        self.t = t
        self.k = k
        self.ring = Zmod(modulus)
        self.rng = rng if rng is not None else fresh_rng()
        self.scheme = packed_scheme(self.ring, n, k)

    # -- dealer -------------------------------------------------------------

    def _deal(self, program: CircuitProgram) -> _Preprocessing:
        prep = _Preprocessing(lambdas=[None] * program.n_gates)
        ring, rng = self.ring, self.rng
        # Draw the fresh masks in wire order (the dealer's historical rng
        # stream: linear gates never draw), then extend them by the mask rule.
        for w, gate in enumerate(program.circuit.gates):
            if gate.kind in (GateType.INPUT, GateType.MUL):
                prep.lambdas[w] = ring.random(rng)
        program.propagate_linear(ring, prep.lambdas, masks=True)
        degree = self.t + self.k - 1
        # All (batch, kind) vectors share one batched dealing; the rng
        # stream matches the historical left/right/gamma per-batch order.
        keys: list[tuple[int, str]] = []
        vectors: list[list[int]] = []
        lam = [None if v is None else v.value for v in prep.lambdas]
        for batch in program.plan.mul_batches:
            pad = [0] * (self.k - len(batch.gate_wires))
            left = [lam[w] for w in batch.left_wires] + pad
            right = [lam[w] for w in batch.right_wires] + pad
            gamma = [
                (lam[a] * lam[b] - lam[g]) % ring.modulus
                for a, b, g in zip(
                    batch.left_wires, batch.right_wires, batch.gate_wires
                )
            ] + pad
            for kind, vector in zip(KINDS, (left, right, gamma)):
                keys.append((batch.batch_id, kind))
                vectors.append(vector)
        prep.packed.update(
            zip(keys, self.scheme.share_many(vectors, degree=degree, rng=rng))
        )
        return prep

    # -- online -------------------------------------------------------------

    def run(
        self, circuit: Circuit, inputs: Mapping[str, Sequence[int]]
    ) -> TurbopackResult:
        program = compile_circuit(circuit, self.k)
        prep = self._deal(program)
        meter = CommMeter()
        ring = self.ring
        # No board here: a message is metered as its ring elements.
        element_bytes = (ring.modulus.bit_length() + 7) // 8
        tracker = MuTracker(program, ring)

        # Input: each client learns λ (from the dealer) and broadcasts μ.
        values = program.evaluate(ring, inputs).wire_values
        for w in circuit.input_wires:
            tracker.set(w, values[w] - prep.lambdas[w])
            meter.record_exact(
                "online", f"client:{circuit.gates[w].client}", "input-mu",
                element_bytes,
            )
        tracker.propagate()

        product_degree = self.t + 2 * (self.k - 1)
        for depth in program.mul_depths:
            batches = program.depth_batches[depth]
            shares: list[list[tuple[int, int]]] = []
            for batch in batches:
                # One cached-matrix product gives every party's canonical
                # μ shares at once.
                ((mu_left, mu_right),) = tracker.canonical_shares(
                    self.scheme, [batch]
                )
                packed = [prep.packed[(batch.batch_id, kind)] for kind in KINDS]
                posted = []
                for i, (ml, mr, ll, rr, gg) in enumerate(
                    zip(mu_left, mu_right, *packed), start=1
                ):
                    # Each party sends exactly one share to P1 (the
                    # Turbopack single-receiver trick).
                    meter.record_exact(
                        "online", f"party{i}", "mu-share-to-p1", element_bytes
                    )
                    posted.append(
                        (i, mu_gamma_share(ml, mr, ll, rr, gg, ring.modulus))
                    )
                shares.append(posted)
            tracker.open_batches(self.scheme, batches, shares, product_degree)
            for _ in batches:
                # P1 broadcasts the k reconstructed μ values.
                meter.record_exact(
                    "online", "party1", "mu-broadcast", self.k * element_bytes
                )
            tracker.propagate()

        outputs: dict[str, list[int]] = {}
        for w in circuit.output_wires:
            client = circuit.gates[w].client
            value = tracker.get(w) + prep.lambdas[w]
            meter.record_exact("online", "dealer", "output-lambda", element_bytes)
            outputs.setdefault(client, []).append(int(value))
        return TurbopackResult(
            outputs=outputs, n=self.n, t=self.t, k=self.k, meter=meter
        )
