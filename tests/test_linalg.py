"""Tests for the linear-algebra circuit combinators (repro.circuits.linalg)."""

import random

import pytest

from repro.circuits import (
    CircuitBuilder,
    bias_add,
    compile_circuit,
    flatten_model,
    matmul,
    matmul_circuit,
    matvec,
    mlp_circuit,
    relu_from_bits,
    square_activation,
)
from repro.circuits.workloads import run_private_inference
from repro.errors import CircuitError
from repro.fields import Zmod

F = Zmod((1 << 61) - 1)


def _plain_matmul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a
    ]


class TestCombinators:
    def test_matmul_matches_plain_arithmetic(self):
        rng = random.Random(5)
        m, p, q = 3, 4, 2
        a = [[rng.randrange(20) for _ in range(p)] for _ in range(m)]
        x = [[rng.randrange(20) for _ in range(q)] for _ in range(p)]
        circuit = matmul_circuit(m, p, q)
        ev = circuit.evaluate(F, {
            "alice": [v for row in a for v in row],
            "bob": [v for row in x for v in row],
        })
        want = [v for row in _plain_matmul(a, x) for v in row]
        assert [int(v) for v in ev.outputs["bob"]] == want

    def test_matmul_single_depth(self):
        # All m·q·p products land at one multiplicative depth, so k-wide
        # batches fill completely — the shape the paper's packing targets.
        program = compile_circuit(matmul_circuit(4, 4, 4), 8)
        assert len(program.mul_depths) == 1
        assert program.slot_utilization() == 1.0

    def test_matvec_and_bias(self):
        b = CircuitBuilder()
        m = [b.inputs("w", 3) for _ in range(2)]
        x = b.inputs("x", 3)
        bias = b.inputs("w", 2)
        for wire in bias_add(b, matvec(b, m, x), bias):
            b.output(wire, "x")
        ev = b.build().evaluate(F, {
            "w": [1, 2, 3, 4, 5, 6, 10, 20], "x": [7, 8, 9],
        })
        assert [int(v) for v in ev.outputs["x"]] == [
            1 * 7 + 2 * 8 + 3 * 9 + 10,
            4 * 7 + 5 * 8 + 6 * 9 + 20,
        ]

    def test_square_activation(self):
        b = CircuitBuilder()
        xs = b.inputs("a", 3)
        for wire in square_activation(b, xs):
            b.output(wire, "a")
        ev = b.build().evaluate(F, {"a": [2, 3, 4]})
        assert [int(v) for v in ev.outputs["a"]] == [4, 9, 16]

    def test_relu_from_bits(self):
        b = CircuitBuilder()
        bits = b.inputs("a", 5)  # sign + 4 magnitude bits, MSB first
        b.output(relu_from_bits(b, bits), "a")
        circuit = b.build()
        assert int(circuit.evaluate(F, {"a": [0, 1, 0, 1, 1]}).outputs["a"][0]) == 11
        assert int(circuit.evaluate(F, {"a": [1, 1, 0, 1, 1]}).outputs["a"][0]) == 0
        assert int(circuit.evaluate(F, {"a": [0, 0, 0, 0, 0]}).outputs["a"][0]) == 0

    def test_shape_validation(self):
        b = CircuitBuilder()
        xs = b.inputs("a", 3)
        with pytest.raises(CircuitError):
            matvec(b, [xs, xs[:2]], xs)
        with pytest.raises(CircuitError):
            matvec(b, [xs], xs[:2])
        with pytest.raises(CircuitError):
            matmul(b, [xs], [xs, xs])
        with pytest.raises(CircuitError):
            bias_add(b, xs, xs[:1])
        with pytest.raises(CircuitError):
            relu_from_bits(b, xs[:1])
        with pytest.raises(CircuitError):
            matmul_circuit(0, 2, 2)
        with pytest.raises(CircuitError):
            mlp_circuit([4])


class TestMlp:
    def _reference(self, weights, biases, x):
        act = list(x)
        for i, (w, bias) in enumerate(zip(weights, biases)):
            act = [
                sum(wi * ai for wi, ai in zip(row, act)) + bb
                for row, bb in zip(w, bias)
            ]
            if i != len(weights) - 1:
                act = [v * v for v in act]
        return act

    def test_mlp_matches_reference(self):
        rng = random.Random(17)
        sizes = [4, 5, 3]
        weights = [
            [[rng.randrange(8) for _ in range(fi)] for _ in range(fo)]
            for fi, fo in zip(sizes, sizes[1:])
        ]
        biases = [[rng.randrange(8) for _ in range(fo)] for fo in sizes[1:]]
        x = [rng.randrange(8) for _ in range(sizes[0])]
        circuit = mlp_circuit(sizes)
        ev = circuit.evaluate(F, {
            "model": flatten_model(weights, biases), "subject": x,
        })
        assert [int(v) for v in ev.outputs["subject"]] == self._reference(
            weights, biases, x
        )

    def test_inference_layers_fill_their_batches(self):
        # Every layer's products share a depth and 16·16, 16·10 divide by k.
        assert compile_circuit(mlp_circuit([16, 16, 10]), 8).slot_utilization() == 1.0

    def test_flatten_model_validation(self):
        with pytest.raises(CircuitError):
            flatten_model([[[1, 2]]], [])
        with pytest.raises(CircuitError):
            flatten_model([[[1, 2], [3]]], [[1, 2]])
        with pytest.raises(CircuitError):
            flatten_model([[[1, 2]]], [[1, 2]])

    def test_private_inference_end_to_end(self):
        rng = random.Random(23)
        weights = [[[rng.randrange(5) for _ in range(3)] for _ in range(4)],
                   [[rng.randrange(5) for _ in range(4)] for _ in range(2)]]
        biases = [[rng.randrange(5) for _ in range(4)],
                  [rng.randrange(5) for _ in range(2)]]
        x = [rng.randrange(5) for _ in range(3)]
        outcome = run_private_inference(
            weights, biases, x, n=5, epsilon=0.25, seed=3
        )
        want = self._reference(weights, biases, x)
        assert list(outcome.scores) == want
        assert outcome.argmax == max(range(len(want)), key=want.__getitem__)
