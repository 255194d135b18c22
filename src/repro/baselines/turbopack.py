"""Plain (non-YOSO) Turbopack reference evaluator [25].

The construction the paper starts from (§3.1): a trusted dealer performs
the circuit-dependent preprocessing (wire masks λ, packed sharings of the
batch masks and of Γ = λ^α * λ^β − λ^γ), and in the online phase the
parties compute μ = v − λ publicly, batch by batch, with each party sending
its μ-share *to a single party P1* who reconstructs and broadcasts — the
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
from repro.errors import ParameterError, ProtocolAbortError
from repro.fields.ring import Zmod, ZmodElement
from repro.rng import fresh_rng
from repro.sharing.packed import PackedShare, packed_scheme


@dataclass
class TurbopackResult:
    outputs: dict[str, list[int]]
    n: int
    t: int
    k: int
    meter: CommMeter

    def online_bytes(self) -> int:
        return self.meter.total_bytes("online")


@dataclass
class _Preprocessing:
    """What the trusted dealer hands out."""

    lambdas: dict[int, ZmodElement] = field(default_factory=dict)
    #: (batch, kind) -> packed sharing (one share per party)
    packed: dict[tuple[int, str], list[PackedShare]] = field(default_factory=dict)


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
        prep = _Preprocessing()
        ring, rng = self.ring, self.rng
        # Draw the fresh masks in wire order (the dealer's historical rng
        # stream: linear gates never draw), then propagate layer by layer.
        for w, gate in enumerate(program.circuit.gates):
            if gate.kind in (GateType.INPUT, GateType.MUL):
                prep.lambdas[w] = ring.random(rng)
        lambdas = prep.lambdas
        const_cache = [ring.element(c) for c in program.constants]
        for layer in program.layers:
            for run in layer.runs:
                kind = run.kind
                if kind is GateType.ADD:
                    for w, a, b in zip(run.wires, run.src0, run.src1):
                        lambdas[w] = lambdas[a] + lambdas[b]
                elif kind is GateType.SUB:
                    for w, a, b in zip(run.wires, run.src0, run.src1):
                        lambdas[w] = lambdas[a] - lambdas[b]
                elif kind is GateType.CMUL:
                    for w, a, ci in zip(run.wires, run.src0, run.const_index):
                        lambdas[w] = lambdas[a] * const_cache[ci]
                elif kind is GateType.CADD or kind is GateType.OUTPUT:
                    for w, a in zip(run.wires, run.src0):
                        lambdas[w] = lambdas[a]
        degree = self.t + self.k - 1
        # All (batch, kind) vectors share one batched dealing; the rng
        # stream matches the historical left/right/gamma per-batch order.
        keys: list[tuple[int, str]] = []
        vectors: list[list[ZmodElement]] = []
        for batch in program.plan.mul_batches:
            pad = self.k - len(batch.gate_wires)
            left = [prep.lambdas[w] for w in batch.left_wires] + [ring.zero] * pad
            right = [prep.lambdas[w] for w in batch.right_wires] + [ring.zero] * pad
            gamma = [
                prep.lambdas[a] * prep.lambdas[b] - prep.lambdas[g]
                for a, b, g in zip(
                    batch.left_wires, batch.right_wires, batch.gate_wires
                )
            ] + [ring.zero] * pad
            for kind, vector in (("left", left), ("right", right), ("gamma", gamma)):
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
        mu: dict[int, ZmodElement] = {}
        const_cache = [ring.element(c) for c in program.constants]

        # Input: each client learns λ (from the dealer) and broadcasts μ.
        values = program.evaluate(ring, inputs).wire_values
        for w in circuit.input_wires:
            mu[w] = values[w] - prep.lambdas[w]
            meter.record_exact(
                "online", f"client:{circuit.gates[w].client}", "input-mu",
                element_bytes,
            )

        def propagate() -> None:
            for layer in program.layers:
                for run in layer.runs:
                    kind = run.kind
                    if kind is GateType.ADD:
                        for w, a, b in zip(run.wires, run.src0, run.src1):
                            if w not in mu and a in mu and b in mu:
                                mu[w] = mu[a] + mu[b]
                    elif kind is GateType.SUB:
                        for w, a, b in zip(run.wires, run.src0, run.src1):
                            if w not in mu and a in mu and b in mu:
                                mu[w] = mu[a] - mu[b]
                    elif kind is GateType.CADD:
                        for w, a, ci in zip(run.wires, run.src0, run.const_index):
                            if w not in mu and a in mu:
                                mu[w] = mu[a] + const_cache[ci]
                    elif kind is GateType.CMUL:
                        for w, a, ci in zip(run.wires, run.src0, run.const_index):
                            if w not in mu and a in mu:
                                mu[w] = mu[a] * const_cache[ci]
                    elif kind is GateType.OUTPUT:
                        for w, a in zip(run.wires, run.src0):
                            if w not in mu and a in mu:
                                mu[w] = mu[a]

        propagate()

        product_degree = self.t + 2 * (self.k - 1)
        for depth in program.mul_depths:
            batches = program.depth_batches[depth]
            bases: list[list[PackedShare]] = []
            for batch in batches:
                pad = self.k - len(batch.gate_wires)
                mu_left = [mu[w] for w in batch.left_wires] + [ring.zero] * pad
                mu_right = [mu[w] for w in batch.right_wires] + [ring.zero] * pad
                # One cached-matrix product gives every party's canonical
                # μ shares at once (this used to interpolate 2n times).
                ml_sharing, mr_sharing = self.scheme.canonical_many(
                    [mu_left, mu_right]
                )
                shares = []
                for i in range(1, self.n + 1):
                    ml = ml_sharing[i - 1]
                    mr = mr_sharing[i - 1]
                    ll = prep.packed[(batch.batch_id, "left")][i - 1]
                    rr = prep.packed[(batch.batch_id, "right")][i - 1]
                    gg = prep.packed[(batch.batch_id, "gamma")][i - 1]
                    value = (
                        ml.value * mr.value
                        + ml.value * rr.value
                        + mr.value * ll.value
                        + gg.value
                    )
                    # Each party sends exactly one share to P1 (the
                    # Turbopack single-receiver trick).
                    meter.record_exact(
                        "online", f"party{i}", "mu-share-to-p1", element_bytes
                    )
                    shares.append(
                        PackedShare(i, value, product_degree, self.k)
                    )
                bases.append(shares[: product_degree + 1])
            for batch, reconstructed in zip(
                batches,
                self.scheme.reconstruct_many(bases, degree=product_degree),
            ):
                # P1 broadcasts the k reconstructed μ values.
                meter.record_exact(
                    "online", "party1", "mu-broadcast",
                    len(reconstructed) * element_bytes,
                )
                for slot, w in enumerate(batch.gate_wires):
                    mu[w] = reconstructed[slot]
            propagate()

        outputs: dict[str, list[int]] = {}
        for w in circuit.output_wires:
            client = circuit.gates[w].client
            if w not in mu:
                raise ProtocolAbortError(f"μ for output wire {w} never resolved")
            value = mu[w] + prep.lambdas[w]
            meter.record_exact("online", "dealer", "output-lambda", element_bytes)
            outputs.setdefault(client, []).append(int(value))
        return TurbopackResult(
            outputs=outputs, n=self.n, t=self.t, k=self.k, meter=meter
        )
