"""Compiled circuit IR: flat, layer-indexed arrays for vectorized evaluation.

A :class:`Circuit` is a per-gate record list; every evaluator used to
re-walk it gate by gate with dict lookups, which does not survive tens of
thousands of gates.  :func:`compile_circuit` lowers a circuit (plus its
:class:`~repro.circuits.layering.BatchPlan`) into a
:class:`CircuitProgram` — the batch-friendly layout the evaluators
actually execute:

* **Topological layers** — every gate is assigned a level (``0`` for
  inputs, ``1 + max(level of operands)`` otherwise), so all gates within
  a layer depend only on earlier layers and are mutually independent.
* **Gate-kind runs** — within a layer, gates are grouped by kind into
  :class:`GateRun` records holding parallel wire/operand arrays, so an
  evaluator issues *one* batched engine call per (layer, kind) run
  instead of one dispatch per gate.
* **Constant table** — CADD/CMUL constants are deduplicated into
  :attr:`CircuitProgram.constants`; runs index into it.
* **Per-client input/output segments** — each client's wires in circuit
  order, replacing repeated ``inputs_of_client`` scans.
* **Packing layout** — the `BatchPlan` (input batches, multiplication
  batches per depth, slot maps) rides along, plus flattened views the
  protocol phases consume: ``mul_wires``, ``mask_wires`` (the offline
  committees' RNG draw order), ``muls_by_depth`` and ``depth_batches``.

Compilation is deterministic and cached on the circuit instance keyed by
``k`` (circuits are immutable; the cache re-validates the gate tuple's
identity, so a mutated-in-place circuit recompiles instead of serving a
stale program).  ``CircuitProgram.evaluate`` is the vectorized plaintext
path — bit-identical to :meth:`Circuit.evaluate` by construction, which
the property tests pin on random circuits.  The linear-gate rules the
protocols apply between multiplications are written once, here
(``propagate_linear`` / ``propagate_linear_batched``).
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterator, Mapping, MutableMapping, Sequence
from dataclasses import dataclass, field
from typing import TypeVar, Union

from repro.circuits.circuit import (
    Circuit,
    CircuitEvaluation,
    GateType,
)
from repro.circuits.layering import (
    BatchPlan,
    MultiplicationBatch,
    plan_batches,
)
from repro.errors import CircuitError, ProtocolAbortError
from repro.fields import Zmod, ZmodElement
from repro.observability import hooks as _hooks

__all__ = [
    "CircuitProgram",
    "GateRun",
    "InputSegment",
    "Layer",
    "OutputSegment",
    "compile_circuit",
]

#: A homomorphic element the batched walk moves around (a ciphertext).
T = TypeVar("T")
#: An output value (a ring element in plaintext, an int off a protocol run).
V = TypeVar("V")

_BINARY_KINDS = frozenset((GateType.ADD, GateType.SUB, GateType.MUL))
_CONST_KINDS = frozenset((GateType.CADD, GateType.CMUL))
_CLIENT_KINDS = frozenset((GateType.INPUT, GateType.OUTPUT))


@dataclass(frozen=True)
class GateRun:
    """All gates of one kind within one layer, as parallel arrays.

    ``wires[i]`` is gate i's output wire; ``src0``/``src1`` its operand
    wires (``src1`` empty for unary kinds, both empty for INPUT);
    ``const_index[i]`` indexes :attr:`CircuitProgram.constants` for
    CADD/CMUL; ``clients[i]`` names the owner for INPUT/OUTPUT.
    """

    kind: GateType
    wires: tuple[int, ...]
    src0: tuple[int, ...] = ()
    src1: tuple[int, ...] = ()
    const_index: tuple[int, ...] = ()
    clients: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.wires)


@dataclass(frozen=True)
class Layer:
    """One topological level: mutually independent gates, grouped in runs."""

    index: int
    runs: tuple[GateRun, ...]

    @property
    def n_gates(self) -> int:
        return sum(len(run) for run in self.runs)


@dataclass(frozen=True)
class InputSegment:
    """One client's input wires, in circuit (= consumption) order."""

    client: str
    wires: tuple[int, ...]


@dataclass(frozen=True)
class OutputSegment:
    """One client's output wires, in circuit (= delivery) order."""

    client: str
    wires: tuple[int, ...]


@dataclass(frozen=True)
class CircuitProgram:
    """A circuit lowered to flat layer-indexed arrays (see module doc)."""

    circuit: Circuit
    k: int
    plan: BatchPlan
    layers: tuple[Layer, ...]
    #: Topological level of every wire (parallel to ``circuit.gates``).
    level_of_wire: tuple[int, ...]
    #: Deduplicated CADD/CMUL constants, first-use order.
    constants: tuple[int, ...]
    input_segments: tuple[InputSegment, ...]
    output_segments: tuple[OutputSegment, ...]
    #: Multiplication wires in circuit order (committee iteration order).
    mul_wires: tuple[int, ...]
    #: Input wires followed by multiplication wires — the exact order the
    #: offline mask committee draws its per-wire randomness in.
    mask_wires: tuple[int, ...]
    #: Distinct multiplicative depths, ascending (the committee schedule).
    mul_depths: tuple[int, ...]
    #: depth -> multiplication wires at that depth, circuit order.
    muls_by_depth: Mapping[int, tuple[int, ...]] = field(repr=False)
    #: depth -> multiplication batches at that depth, batch-id order.
    depth_batches: Mapping[int, tuple[MultiplicationBatch, ...]] = field(
        repr=False
    )

    # -- shape queries -------------------------------------------------------

    @property
    def n_gates(self) -> int:
        return len(self.circuit.gates)

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def n_runs(self) -> int:
        return sum(len(layer.runs) for layer in self.layers)

    @property
    def n_batches(self) -> int:
        return self.plan.n_batches

    def slot_utilization(self) -> float:
        """Fraction of multiplication-batch slots carrying a real gate."""
        slots = len(self.plan.mul_batches) * self.k
        if slots == 0:
            return 1.0
        return len(self.mul_wires) / slots

    def utilization_by_depth(self) -> dict[int, float]:
        """Per-depth slot utilization (1.0 when every batch is full)."""
        out: dict[int, float] = {}
        for depth in self.mul_depths:
            slots = len(self.depth_batches[depth]) * self.k
            out[depth] = len(self.muls_by_depth[depth]) / slots if slots else 1.0
        return out

    def constants_of(self, run: GateRun) -> list[int]:
        """Materialize a CADD/CMUL run's per-gate constants."""
        table = self.constants
        return [table[i] for i in run.const_index]

    # -- vectorized plaintext evaluation ------------------------------------

    def evaluate(
        self, ring: Zmod, inputs: Mapping[str, Sequence[Union[int, ZmodElement]]]
    ) -> CircuitEvaluation:
        """Run-at-a-time plaintext evaluation, ≡ :meth:`Circuit.evaluate`."""
        values: list[ZmodElement] = [ring.zero] * self.n_gates
        cursors = {client: 0 for client in inputs}
        const_cache = [ring.element(c) for c in self.constants]
        for layer in self.layers:
            for run in layer.runs:
                kind = run.kind
                if kind is GateType.INPUT:
                    for w, client in zip(run.wires, run.clients):
                        if client not in inputs:
                            raise CircuitError(
                                f"no inputs supplied for client {client!r}"
                            )
                        idx = cursors[client]
                        supplied = inputs[client]
                        if idx >= len(supplied):
                            raise CircuitError(
                                f"client {client!r} supplied {len(supplied)} "
                                f"inputs, needs more"
                            )
                        values[w] = ring.element(supplied[idx])
                        cursors[client] = idx + 1
                elif kind is GateType.ADD:
                    for w, a, b in zip(run.wires, run.src0, run.src1):
                        values[w] = values[a] + values[b]
                elif kind is GateType.SUB:
                    for w, a, b in zip(run.wires, run.src0, run.src1):
                        values[w] = values[a] - values[b]
                elif kind is GateType.CADD:
                    for w, a, ci in zip(run.wires, run.src0, run.const_index):
                        values[w] = values[a] + const_cache[ci]
                elif kind is GateType.CMUL:
                    for w, a, ci in zip(run.wires, run.src0, run.const_index):
                        values[w] = values[a] * const_cache[ci]
                elif kind is GateType.MUL:
                    for w, a, b in zip(run.wires, run.src0, run.src1):
                        values[w] = values[a] * values[b]
                else:  # OUTPUT
                    for w, a in zip(run.wires, run.src0):
                        values[w] = values[a]
        for client, supplied in inputs.items():
            if cursors.get(client, 0) != len(supplied):
                raise CircuitError(
                    f"client {client!r} supplied {len(supplied)} inputs, "
                    f"circuit consumed {cursors.get(client, 0)}"
                )
        outputs = self.outputs_by_client(values)
        return CircuitEvaluation(
            tuple(values), {c: tuple(v) for c, v in outputs.items()}
        )

    # -- the client-facing ends of a protocol run ----------------------------

    def client_inputs(
        self, inputs: Mapping[str, Sequence[int]]
    ) -> Iterator[tuple[str, tuple[int, ...], list[int]]]:
        """Each input client with its wires and the values supplied for them."""
        for segment in self.input_segments:
            supplied = list(inputs.get(segment.client, []))
            if len(supplied) != len(segment.wires):
                raise ProtocolAbortError(
                    f"client {segment.client!r} supplied {len(supplied)} "
                    f"inputs, circuit needs {len(segment.wires)}"
                )
            yield segment.client, segment.wires, supplied

    def outputs_by_client(
        self, values: Sequence[V] | Mapping[int, V]
    ) -> dict[str, list[V]]:
        """Per-client output lists, delivery order, from per-wire values."""
        return {
            segment.client: [values[w] for w in segment.wires]
            for segment in self.output_segments
        }

    # -- linear-gate propagation --------------------------------------------
    #
    # The rules every evaluator applies between multiplications: ADD/SUB
    # combine, CMUL scales, OUTPUT exposes its source, and CADD shifts a
    # *value* (v, or the public μ = v − λ) but leaves a *mask* λ unchanged
    # — the constant lands in μ.  Both walks are availability-checked: a
    # wire whose operands sit behind an unopened multiplication stays
    # unknown until a later pass.

    def propagate_linear(
        self, ring: Zmod, wires: list[ZmodElement | None], *, masks: bool
    ) -> None:
        """Fill every linear wire of ``wires`` (wire-indexed, None = unknown).

        ``masks`` says what the entries are: masks skip constant additions.
        """
        constants = [ring.element(c) for c in self.constants]
        for layer in self.layers:
            for run in layer.runs:
                kind = run.kind
                if kind is GateType.ADD or kind is GateType.SUB:
                    op = operator.add if kind is GateType.ADD else operator.sub
                    for w, a, b in zip(run.wires, run.src0, run.src1):
                        if wires[w] is None:
                            va, vb = wires[a], wires[b]
                            if va is not None and vb is not None:
                                wires[w] = op(va, vb)
                elif kind is GateType.CMUL or (kind is GateType.CADD and not masks):
                    op = operator.mul if kind is GateType.CMUL else operator.add
                    for w, a, ci in zip(run.wires, run.src0, run.const_index):
                        va = wires[a]
                        if wires[w] is None and va is not None:
                            wires[w] = op(va, constants[ci])
                elif kind is GateType.CADD or kind is GateType.OUTPUT:
                    for w, a in zip(run.wires, run.src0):
                        if wires[w] is None:
                            wires[w] = wires[a]

    def propagate_linear_batched(
        self,
        wires: MutableMapping[int, T],
        combine: Callable[[list[tuple[list[T], list[int]]]], list[T]],
        add_constant: Callable[[T, int], T] | None,
    ) -> None:
        """The same rules over homomorphic elements, one batch per run.

        ``combine`` evaluates many (operands, integer coefficients) linear
        combinations at once — the (layer, kind) run's whole workload in
        one engine call.  ``add_constant`` is the value rule for CADD;
        None means the elements are masks.
        """
        constants = self.constants
        for layer in self.layers:
            for run in layer.runs:
                kind = run.kind
                if kind is GateType.ADD or kind is GateType.SUB:
                    coeffs = [1, 1] if kind is GateType.ADD else [1, -1]
                    ready = [
                        (w, [a, b], coeffs)
                        for w, a, b in zip(run.wires, run.src0, run.src1)
                        if w not in wires and a in wires and b in wires
                    ]
                elif kind is GateType.CMUL:
                    ready = [
                        (w, [a], [constants[ci]])
                        for w, a, ci in zip(run.wires, run.src0, run.const_index)
                        if w not in wires and a in wires
                    ]
                elif kind is GateType.CADD and add_constant is not None:
                    for w, a, ci in zip(run.wires, run.src0, run.const_index):
                        if w not in wires and a in wires:
                            wires[w] = add_constant(wires[a], constants[ci])
                    continue
                elif kind is GateType.CADD or kind is GateType.OUTPUT:
                    for w, a in zip(run.wires, run.src0):
                        if w not in wires and a in wires:
                            wires[w] = wires[a]
                    continue
                else:  # INPUT/MUL wires are the protocol's to fill
                    continue
                results = combine(
                    [([wires[s] for s in srcs], cs) for _, srcs, cs in ready]
                )
                for (w, _, _), result in zip(ready, results):
                    wires[w] = result


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

#: Per-circuit cache attribute: {k: (gates tuple at compile time, program)}.
_CACHE_ATTR = "_compiled_programs"


def compile_circuit(circuit: Circuit, k: int) -> CircuitProgram:
    """Lower ``circuit`` to a :class:`CircuitProgram` for packing factor ``k``.

    Memoized per circuit instance and ``k``.  The cache entry records the
    gate tuple it was compiled from; if the circuit's gates were replaced
    (the only possible mutation of the otherwise-immutable class), the
    stale program is discarded and recompiled.
    """
    cache: dict[int, tuple[tuple[object, ...], CircuitProgram]]
    cache = circuit.__dict__.setdefault(_CACHE_ATTR, {})
    entry = cache.get(k)
    if entry is not None and entry[0] is circuit.gates:
        _hooks.note(_hooks.CIRCUIT_COMPILE_CACHE_HITS)
        return entry[1]

    program = _compile(circuit, k)
    cache[k] = (circuit.gates, program)
    _hooks.note(_hooks.CIRCUIT_COMPILES)
    _hooks.note(_hooks.CIRCUIT_COMPILED_GATES, len(circuit.gates))
    return program


def _compile(circuit: Circuit, k: int) -> CircuitProgram:
    plan = plan_batches(circuit, k)
    gates = circuit.gates
    n = len(gates)

    # One pass: topological levels + per-level wire lists (wire order).
    level = [0] * n
    max_level = 0
    for w, gate in enumerate(gates):
        if gate.inputs:
            lvl = 1 + max(level[s] for s in gate.inputs)
            level[w] = lvl
            if lvl > max_level:
                max_level = lvl
    per_level: list[list[int]] = [[] for _ in range(max_level + 1)]
    for w in range(n):
        per_level[level[w]].append(w)

    # Constant table: dedup CADD/CMUL constants in first-use order.
    constants: list[int] = []
    const_index_of: dict[int, int] = {}

    def const_index(value: int) -> int:
        idx = const_index_of.get(value)
        if idx is None:
            idx = len(constants)
            const_index_of[value] = idx
            constants.append(value)
        return idx

    layers: list[Layer] = []
    for layer_index, wires_here in enumerate(per_level):
        groups: dict[GateType, list[int]] = {}
        for w in wires_here:
            groups.setdefault(gates[w].kind, []).append(w)
        runs: list[GateRun] = []
        for kind, ws in groups.items():
            src0: tuple[int, ...] = ()
            src1: tuple[int, ...] = ()
            const_idx: tuple[int, ...] = ()
            clients: tuple[str, ...] = ()
            if kind is not GateType.INPUT:
                src0 = tuple(gates[w].inputs[0] for w in ws)
            if kind in _BINARY_KINDS:
                src1 = tuple(gates[w].inputs[1] for w in ws)
            if kind in _CONST_KINDS:
                const_idx = tuple(
                    const_index(int(gates[w].constant or 0)) for w in ws
                )
            if kind in _CLIENT_KINDS:
                clients = tuple(gates[w].client or "" for w in ws)
            runs.append(
                GateRun(
                    kind=kind,
                    wires=tuple(ws),
                    src0=src0,
                    src1=src1,
                    const_index=const_idx,
                    clients=clients,
                )
            )
        layers.append(Layer(index=layer_index, runs=tuple(runs)))

    # Per-client segments, first-appearance order (one pass each).
    in_segments: dict[str, list[int]] = {}
    for w in circuit.input_wires:
        in_segments.setdefault(gates[w].client or "", []).append(w)
    out_segments: dict[str, list[int]] = {}
    for w in circuit.output_wires:
        out_segments.setdefault(gates[w].client or "", []).append(w)

    # Protocol-facing flattened views.
    mul_wires = circuit.multiplication_wires
    mask_wires = circuit.input_wires + mul_wires
    muls_by_depth: dict[int, list[int]] = {}
    depth_batches: dict[int, list[MultiplicationBatch]] = {}
    for batch in plan.mul_batches:
        depth_batches.setdefault(batch.depth, []).append(batch)
        muls_by_depth.setdefault(batch.depth, []).extend(batch.gate_wires)
    mul_depths = tuple(sorted(depth_batches))

    return CircuitProgram(
        circuit=circuit,
        k=k,
        plan=plan,
        layers=tuple(layers),
        level_of_wire=tuple(level),
        constants=tuple(constants),
        input_segments=tuple(
            InputSegment(c, tuple(ws)) for c, ws in in_segments.items()
        ),
        output_segments=tuple(
            OutputSegment(c, tuple(ws)) for c, ws in out_segments.items()
        ),
        mul_wires=mul_wires,
        mask_wires=mask_wires,
        mul_depths=mul_depths,
        muls_by_depth={d: tuple(ws) for d, ws in muls_by_depth.items()},
        depth_batches={d: tuple(bs) for d, bs in depth_batches.items()},
    )
