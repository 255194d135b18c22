"""Circuit statistics and protocol-cost estimation for user circuits.

Answers the questions a deployer asks before running: how wide is the
circuit per multiplicative depth (does it fill batches of k?), how many
online committees will run, and what will each phase roughly cost — wired
into the :mod:`repro.accounting.symbolic` predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.circuits.circuit import Circuit, GateType
from repro.circuits.program import compile_circuit

if TYPE_CHECKING:
    from repro.core.params import ProtocolParams


@dataclass(frozen=True)
class CircuitStats:
    """Shape summary of a circuit."""

    n_gates: int
    n_inputs: int
    n_outputs: int
    n_multiplications: int
    n_linear: int
    multiplicative_depth: int
    width_per_depth: dict[int, int]      # depth -> mul gates at that depth
    input_clients: tuple[str, ...]
    output_clients: tuple[str, ...]

    @property
    def max_width(self) -> int:
        return max(self.width_per_depth.values(), default=0)

    @property
    def min_width(self) -> int:
        return min(self.width_per_depth.values(), default=0)


def circuit_stats(circuit: Circuit) -> CircuitStats:
    """Compute the shape summary."""
    depths = circuit.depths()
    width: dict[int, int] = {}
    for w in circuit.multiplication_wires:
        width[depths[w]] = width.get(depths[w], 0) + 1
    linear = sum(
        1 for g in circuit.gates
        if g.kind in (GateType.ADD, GateType.SUB, GateType.CADD, GateType.CMUL)
    )
    return CircuitStats(
        n_gates=len(circuit.gates),
        n_inputs=circuit.n_inputs,
        n_outputs=circuit.n_outputs,
        n_multiplications=circuit.n_multiplications,
        n_linear=linear,
        multiplicative_depth=max(width, default=0),
        width_per_depth=width,
        input_clients=tuple(circuit.input_clients()),
        output_clients=tuple(circuit.output_clients()),
    )


@dataclass(frozen=True)
class BatchEfficiency:
    """How well a circuit fills batches of k at each depth."""

    k: int
    n_batches: int
    n_slots: int             # n_batches * k
    fill_ratio: float        # multiplications / slots
    underfull_batches: int   # batches with padding

    @property
    def wasted_slots(self) -> int:
        return self.n_slots - int(self.fill_ratio * self.n_slots + 0.5)


def batch_efficiency(circuit: Circuit, k: int) -> BatchEfficiency:
    """Measure padding waste for a packing factor (the width assumption).

    Uses the memoized compiled program, so repeated queries (e.g. the
    ``best_packing_factor`` sweep followed by a run at the chosen k) plan
    each (circuit, k) pair once.
    """
    program = compile_circuit(circuit, k)
    plan = program.plan
    n_batches = len(plan.mul_batches)
    slots = n_batches * k
    underfull = sum(1 for b in plan.mul_batches if len(b.gate_wires) < k)
    fill = program.slot_utilization() if slots else 1.0
    return BatchEfficiency(
        k=k, n_batches=n_batches, n_slots=slots,
        fill_ratio=fill, underfull_batches=underfull,
    )


def best_packing_factor(circuit: Circuit, params: "ProtocolParams") -> int:
    """The k <= params.k with the least padding waste for this circuit.

    A narrow circuit can waste most of a large k on padding; shrinking k
    (still within the gap budget) trades per-gate cost for fill ratio.
    Returns the k in [1, params.k] minimizing online slots per real gate.
    """
    best_k, best_cost = 1, float("inf")
    for k in range(1, params.k + 1):
        eff = batch_efficiency(circuit, k)
        if eff.n_batches == 0:
            return params.k
        # Online cost ∝ n_batches (each batch costs n shares).
        cost = eff.n_batches / max(circuit.n_multiplications, 1)
        if cost < best_cost:
            best_k, best_cost = k, cost
    return best_k


def estimate_phase_bytes(
    circuit: Circuit, params: "ProtocolParams"
) -> dict[str, int]:
    """Predicted offline/online bytes for running this circuit (cost model)."""
    from repro.accounting.symbolic import CircuitShape, SymbolicCostModel

    program = compile_circuit(circuit, params.k)
    model = SymbolicCostModel(params, CircuitShape.of_program(program))
    return {
        "offline": model.predict_offline().n_bytes,
        "online": model.predict_online().n_bytes,
    }
