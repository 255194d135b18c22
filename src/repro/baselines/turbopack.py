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
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.accounting.comm import CommMeter
from repro.circuits.circuit import Circuit, GateType
from repro.circuits.program import CircuitProgram, compile_circuit
from repro.errors import ParameterError
from repro.fields.ring import Zmod
from repro.packed_online import MuTracker, mu_gamma_share, slot_values
from repro.rng import fresh_rng
from repro.sharing.kernel import add_mod, mul_mod, row_dtype
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

    #: wire-indexed masks λ (a table of ring values)
    lambdas: np.ndarray
    #: kind -> every batch's packed sharing (batch × party shares)
    packed: dict[str, np.ndarray]


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
        ring, rng, q = self.ring, self.rng, self.ring.modulus
        dtype = row_dtype(q)
        # Draw the fresh masks in wire order (the dealer's historical rng
        # stream: linear gates never draw), then extend them by the mask rule.
        fresh = [
            w for w, gate in enumerate(program.circuit.gates)
            if gate.kind in (GateType.INPUT, GateType.MUL)
        ]
        lambdas = np.zeros(program.n_gates, dtype=dtype)
        known = np.zeros(program.n_gates, dtype=bool)
        lambdas[fresh] = [ring.random_value(rng) for _ in fresh]
        known[fresh] = True
        program.propagate_linear(lambdas, known, q, masks=True)
        left, right, out = (
            slot_values(lambdas, program.batch_wires[:, side]) for side in range(3)
        )
        # Γ = λ^α·λ^β − λ^γ, zero on the padding slots.
        gamma = add_mod(mul_mod(left, right, q), q - out, q)
        # All (batch, kind) vectors share one batched dealing; the rng
        # stream matches the historical left/right/gamma per-batch order.
        shares = np.asarray(self.scheme.share_many(
            np.stack([left, right, gamma], axis=1).reshape(-1, self.k),
            degree=self.t + self.k - 1, rng=rng,
        ), dtype=dtype)
        return _Preprocessing(
            lambdas, {kind: shares[j::3] for j, kind in enumerate(KINDS)}
        )

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
            tracker.set(w, int(values[w]) - int(prep.lambdas[w]))
            meter.record_exact(
                "online", f"client:{circuit.gates[w].client}", "input-mu",
                element_bytes,
            )
        tracker.propagate()

        product_degree = self.t + 2 * (self.k - 1)
        for depth in program.mul_depths:
            batches = program.depth_batches[depth]
            ids = [batch.batch_id for batch in batches]
            # One cached-matrix product gives every party's canonical μ
            # shares of the whole depth, one element-wise evaluation every
            # party's μ^γ share.
            mu_left, mu_right = tracker.canonical_shares(self.scheme, batches)
            values_out = mu_gamma_share(
                mu_left, mu_right,
                *(prep.packed[kind][ids] for kind in KINDS), ring.modulus,
            )
            shares: list[list[tuple[int, int]]] = []
            for row in values_out.tolist():
                # Each party sends exactly one share to P1 (the Turbopack
                # single-receiver trick).
                for i in range(1, self.n + 1):
                    meter.record_exact(
                        "online", f"party{i}", "mu-share-to-p1", element_bytes
                    )
                shares.append(list(enumerate(row, start=1)))
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
            value = (tracker.get(w) + int(prep.lambdas[w])) % ring.modulus
            meter.record_exact("online", "dealer", "output-lambda", element_bytes)
            outputs.setdefault(client, []).append(value)
        return TurbopackResult(
            outputs=outputs, n=self.n, t=self.t, k=self.k, meter=meter
        )
