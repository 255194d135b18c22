"""Tests for the compiled circuit IR (repro.circuits.program)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (
    Circuit,
    CircuitBuilder,
    Gate,
    GateType,
    compile_circuit,
    dot_product_circuit,
    random_circuit,
    second_price_auction_circuit,
)
from repro.circuits.program import _CACHE_ATTR
from repro.errors import CircuitError
from repro.fields import Zmod

F = Zmod((1 << 61) - 1)


def deep_chain_circuit(n_muls: int) -> Circuit:
    """A maximally deep circuit: x·y·y·…·y, one MUL per depth."""
    b = CircuitBuilder()
    x = b.input("alice")
    y = b.input("bob")
    acc = x
    for _ in range(n_muls):
        acc = b.mul(acc, y)
    b.output(acc, "alice")
    return b.build()


class TestLowering:
    def test_layers_cover_every_gate_once(self):
        circuit = second_price_auction_circuit(6, ["a", "b", "c"])
        program = compile_circuit(circuit, 3)
        seen = sorted(
            w for layer in program.layers for run in layer.runs for w in run.wires
        )
        assert seen == list(range(len(circuit.gates)))

    def test_layers_respect_dependencies(self):
        circuit = second_price_auction_circuit(6, ["a", "b", "c"])
        program = compile_circuit(circuit, 3)
        level = program.level_of_wire
        for w, gate in enumerate(circuit.gates):
            for src in gate.inputs:
                assert level[src] < level[w]

    def test_runs_are_kind_homogeneous(self):
        circuit = second_price_auction_circuit(6, ["a", "b", "c"])
        program = compile_circuit(circuit, 3)
        for layer in program.layers:
            for run in layer.runs:
                for w in run.wires:
                    assert circuit.gates[w].kind is run.kind

    def test_constant_table_deduplicates(self):
        b = CircuitBuilder()
        x = b.input("a")
        y = b.cadd(7, b.cadd(7, b.cmul(7, b.cmul(-1, x))))
        b.output(y, "a")
        program = compile_circuit(b.build(), 1)
        assert sorted(program.constants) == [-1, 7]

    def test_mask_wires_are_inputs_then_muls_in_circuit_order(self):
        circuit = dot_product_circuit(4)
        program = compile_circuit(circuit, 2)
        assert program.mask_wires == (
            circuit.input_wires + circuit.multiplication_wires
        )
        assert program.mul_wires == circuit.multiplication_wires

    def test_input_segments_consumption_order(self):
        circuit = dot_product_circuit(3, client_x="alice", client_y="bob")
        program = compile_circuit(circuit, 2)
        by_client = {s.client: s.wires for s in program.input_segments}
        assert set(by_client) == {"alice", "bob"}
        for client, wires in by_client.items():
            assert list(wires) == list(circuit.inputs_of_client(client))


class TestShapes:
    def test_k1_one_gate_per_batch(self):
        circuit = dot_product_circuit(5)
        program = compile_circuit(circuit, 1)
        assert all(len(b.gate_wires) == 1 for b in program.plan.mul_batches)
        assert program.slot_utilization() == 1.0

    def test_add_only_circuit_has_no_batches(self):
        b = CircuitBuilder()
        xs = b.inputs("a", 6)
        b.output(b.sum(xs), "a")
        program = compile_circuit(b.build(), 4)
        assert program.plan.mul_batches == ()
        assert program.mul_depths == ()
        assert program.slot_utilization() == 1.0
        ev = program.evaluate(F, {"a": [1, 2, 3, 4, 5, 6]})
        assert int(ev.outputs["a"][0]) == 21

    def test_ragged_final_batch(self):
        # 7 same-depth muls at k=3: batches of 3, 3, 1.
        circuit = dot_product_circuit(7)
        program = compile_circuit(circuit, 3)
        sizes = [len(b.gate_wires) for b in program.plan.mul_batches]
        assert sizes == [3, 3, 1]
        assert program.slot_utilization() == pytest.approx(7 / 9)
        assert program.utilization_by_depth()[1] == pytest.approx(7 / 9)

    def test_deep_10k_gate_circuit_compiles(self):
        n_muls = 10_000
        circuit = deep_chain_circuit(n_muls)
        program = compile_circuit(circuit, 4)
        assert program.n_gates == n_muls + 3
        # One mul per depth: depth count equals the chain length, and each
        # batch holds a single gate no matter the packing factor.
        assert len(program.mul_depths) == n_muls
        assert len(program.plan.mul_batches) == n_muls
        assert program.n_layers == n_muls + 2  # inputs, chain, output
        ev = program.evaluate(F, {"alice": [3], "bob": [1]})
        assert int(ev.outputs["alice"][0]) == 3

    def test_invalid_k_rejected(self):
        with pytest.raises(CircuitError):
            compile_circuit(dot_product_circuit(2), 0)


class TestCache:
    def test_compile_is_memoized_per_k(self):
        circuit = dot_product_circuit(3)
        assert compile_circuit(circuit, 2) is compile_circuit(circuit, 2)
        assert compile_circuit(circuit, 2) is not compile_circuit(circuit, 3)

    def test_cache_invalidated_when_gates_replaced(self):
        circuit = dot_product_circuit(3)
        stale = compile_circuit(circuit, 2)
        # The only possible mutation of the immutable class: swapping the
        # gate tuple out from under the cache.
        other = dot_product_circuit(3)
        object.__setattr__(circuit, "gates", other.gates)
        fresh = compile_circuit(circuit, 2)
        assert fresh is not stale
        assert circuit.__dict__[_CACHE_ATTR][2][0] is circuit.gates

    def test_circuit_program_method_delegates_to_cache(self):
        circuit = dot_product_circuit(3)
        assert circuit.program(2) is compile_circuit(circuit, 2)


class TestEvaluate:
    def test_matches_circuit_evaluate_on_auction(self):
        circuit = second_price_auction_circuit(5, ["a", "b", "c"])
        program = compile_circuit(circuit, 4)
        rng = random.Random(9)
        for _ in range(5):
            inputs = {
                c: [rng.randrange(2) for _ in range(5)] for c in ("a", "b", "c")
            }
            assert (
                program.evaluate(F, inputs).outputs
                == circuit.evaluate(F, inputs).outputs
            )

    def test_missing_client_rejected(self):
        program = compile_circuit(dot_product_circuit(2), 1)
        with pytest.raises(CircuitError):
            program.evaluate(F, {"alice": [1, 2]})

    def test_input_count_mismatch_rejected(self):
        program = compile_circuit(dot_product_circuit(2), 1)
        with pytest.raises(CircuitError):
            program.evaluate(F, {"alice": [1], "bob": [3, 4]})
        with pytest.raises(CircuitError):
            program.evaluate(F, {"alice": [1, 2, 5], "bob": [3, 4]})


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1 << 30),
    k=st.integers(min_value=1, max_value=5),
)
def test_compiled_evaluation_matches_plaintext_property(seed, k):
    rng = random.Random(seed)
    circuit = random_circuit(rng, n_inputs=3, n_gates=25, n_clients=2)
    program = compile_circuit(circuit, k)
    inputs = {
        f"client{i}": [
            rng.randrange(100) for _ in circuit.inputs_of_client(f"client{i}")
        ]
        for i in range(2)
    }
    expected = circuit.evaluate(F, inputs)
    got = program.evaluate(F, inputs)
    assert got.wire_values == expected.wire_values
    assert got.outputs == expected.outputs

    # The shared linear walks.  Seeded with the input and multiplication
    # wires, the value rule fills in exactly what evaluate computes...
    gates = circuit.gates
    seeded = set(circuit.input_wires) | set(program.mul_wires)
    values = [v if w in seeded else None for w, v in enumerate(expected.wire_values)]
    program.propagate_linear(F, values, masks=False)
    assert tuple(values) == expected.wire_values

    def combine(groups):
        return [sum((x * c for x, c in zip(xs, cs)), F.zero) for xs, cs in groups]

    batched = {w: expected.wire_values[w] for w in seeded}
    program.propagate_linear_batched(batched, combine, lambda x, c: x + c)
    assert tuple(batched[w] for w in range(len(gates))) == expected.wire_values

    # ...the mask rule is the value rule with every constant-add dropped...
    dropped = compile_circuit(Circuit([
        Gate(g.kind, g.inputs, constant=0) if g.kind is GateType.CADD else g
        for g in gates
    ]), k)
    masks = [v if w in seeded else None for w, v in enumerate(expected.wire_values)]
    reference = list(masks)
    program.propagate_linear(F, masks, masks=True)
    dropped.propagate_linear(F, reference, masks=False)
    assert masks == reference
    batched = {w: expected.wire_values[w] for w in seeded}
    program.propagate_linear_batched(batched, combine, None)
    assert [batched[w] for w in range(len(gates))] == reference

    # ...and a wire behind an unknown multiplication stays unknown.
    behind_mul = []
    for g in gates:
        behind_mul.append(
            g.kind is GateType.MUL or any(behind_mul[s] for s in g.inputs)
        )
    partial = [
        v if w in circuit.input_wires else None
        for w, v in enumerate(expected.wire_values)
    ]
    program.propagate_linear(F, partial, masks=False)
    assert partial == [
        None if behind else v
        for behind, v in zip(behind_mul, expected.wire_values)
    ]


def test_gate_kind_coverage_random_circuits():
    # The lowering handles every gate kind the builder can emit.
    kinds = set()
    for seed in range(20):
        circuit = random_circuit(
            random.Random(seed), n_inputs=3, n_gates=30, n_clients=2
        )
        compile_circuit(circuit, 3)
        kinds |= {g.kind for g in circuit.gates}
    assert GateType.MUL in kinds and GateType.INPUT in kinds
