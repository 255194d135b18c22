"""Tests for the analytic communication model (cross-validated vs meter)."""

import pytest

from repro.accounting.symbolic import (
    CircuitShape,
    SymbolicCostModel,
    extrapolated_mu_bytes_per_gate,
)
from repro.circuits import compile_circuit, dot_product_circuit
from repro.core import ProtocolParams, run_mpc
from repro.errors import ParameterError


@pytest.fixture(scope="module")
def validated_run():
    circuit = dot_product_circuit(8)
    result = run_mpc(
        circuit, {"alice": list(range(1, 9)), "bob": [2] * 8},
        n=6, epsilon=0.25, seed=31,
    )
    model = SymbolicCostModel(
        result.params, CircuitShape.of_program(result.program),
        result.setup.proof_params,
    )
    return circuit, result, model


class TestShape:
    def test_circuit_shape_extraction(self):
        shape = CircuitShape.of_program(
            compile_circuit(dot_product_circuit(5), 2)
        )
        assert shape.n_inputs == 10
        assert shape.n_multiplications == 5
        assert shape.n_outputs == 1
        assert shape.n_batches == 3
        assert shape.n_depths == 1
        assert shape.n_input_clients == 2


class TestCrossValidation:
    def test_offline_prediction_within_tolerance(self, validated_run):
        _, result, model = validated_run
        predicted = model.predict_offline().n_bytes
        measured = result.phase_bytes("offline")
        assert 0.80 <= predicted / measured <= 1.20

    def test_online_prediction_within_tolerance(self, validated_run):
        _, result, model = validated_run
        predicted = model.predict_online().n_bytes
        measured = result.phase_bytes("online")
        assert 0.70 <= predicted / measured <= 1.25

    def test_mu_per_gate_prediction_tight(self, validated_run):
        circuit, result, model = validated_run
        predicted = model.online_mul_bytes_per_gate()
        measured = result.online_mul_bytes() / circuit.n_multiplications
        assert measured == pytest.approx(predicted, rel=0.02)

    def test_offline_message_count_exact(self, validated_run):
        _, result, model = validated_run
        # 5 offline committees × n members, each speaking once.
        senders = result.meter.senders("offline")
        assert len(senders) == model.predict_offline().messages


class TestModelStructure:
    def _model(self, n, epsilon, length=8, **kw):
        params = ProtocolParams.from_gap(n, epsilon, **kw)
        program = compile_circuit(dot_product_circuit(length), params.k)
        return SymbolicCostModel(params, CircuitShape.of_program(program))

    def test_online_per_gate_flat_in_n(self):
        # With k ∝ n and a circuit wide enough for full batches (the
        # paper's width assumption), the model's per-gate online cost is
        # bounded by (1/ε)·|share| at every n — it does not grow with n.
        values = []
        for n in (8, 16, 32):
            model = self._model(n, 0.25, length=45)  # 45 = lcm-ish: full batches
            per_gate = model.online_mul_bytes_per_gate()
            # One batch's μ-share entry, from the formula itself: what a
            # one-batch envelope costs over an empty one (headers cancel).
            one, none = (
                model._eval("online.mu_shares", Nb=nb, Ls=0, Lt=0)
                for nb in (1, 0)
            )
            bound = (1 / 0.25) * (one - none)
            assert per_gate <= bound
            values.append(per_gate)
        assert max(values) <= min(values) * 1.5  # k-flooring wobble only

    def test_offline_per_gate_linear_in_n(self):
        small = self._model(8, 0.25).offline_bytes_per_gate()
        large = self._model(16, 0.25).offline_bytes_per_gate()
        assert 1.5 <= large / small <= 3.5

    def test_empty_circuit_edge(self):
        from repro.circuits import CircuitBuilder

        b = CircuitBuilder()
        x = b.input("a")
        b.output(x, "a")
        circuit = b.build()
        params = ProtocolParams.from_gap(6, 0.2)
        model = SymbolicCostModel(
            params, CircuitShape.of_program(compile_circuit(circuit, params.k))
        )
        assert model.online_mul_bytes_per_gate() == 0.0
        assert model.offline_bytes_per_gate() == 0.0


class TestExtrapolation:
    @staticmethod
    def _per_gate(n, epsilon, k=None):
        if k is None:
            k = max(1, int(n * epsilon))
        return extrapolated_mu_bytes_per_gate(n, epsilon, k)

    def test_flat_at_deployment_scale(self):
        # n = 1000 vs n = 20000 at the same gap: per-gate cost identical
        # (both are entry_bytes/ε up to k-flooring).
        a = self._per_gate(1000, 0.05)
        b = self._per_gate(20000, 0.05)
        assert 0.9 <= a / b <= 1.1

    def test_tracks_one_over_epsilon(self):
        wide = self._per_gate(20000, 0.25)
        narrow = self._per_gate(20000, 0.05)
        assert 4 <= narrow / wide <= 6  # ≈ 0.25/0.05

    def test_explicit_packing_override(self):
        # A batch costs the committee n envelopes whatever k is, so half
        # the packing costs twice as much per gate.
        base = self._per_gate(20000, 0.05)
        halved = self._per_gate(20000, 0.05, k=500)
        assert halved == pytest.approx(2 * base)

    def test_epsilon_validated(self):
        with pytest.raises(ParameterError):
            self._per_gate(1000, 0.5)
        with pytest.raises(ParameterError):
            self._per_gate(1000, 0.9)
