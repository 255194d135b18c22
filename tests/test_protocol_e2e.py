"""End-to-end honest executions of the full YOSO MPC protocol.

One dot-product run is shared session-wide for the structural assertions;
circuit-variety runs are per-test (they are the expensive part, kept small).
"""

import random

import pytest

from repro.accounting import report_from_mpc_result
from repro.circuits import (
    CircuitBuilder,
    dot_product_circuit,
    linear_model_circuit,
    masked_membership_circuit,
    random_circuit,
    statistics_circuit,
)
from repro.core import ProtocolParams, YosoMpc, run_mpc
from repro.errors import ProtocolAbortError


@pytest.fixture(scope="module")
def dot_result():
    circuit = dot_product_circuit(4)
    return run_mpc(
        circuit, {"alice": [1, 2, 3, 4], "bob": [5, 6, 7, 8]},
        n=6, epsilon=0.2, seed=99,
    )


class TestHonestExecution:
    def test_correct_output(self, dot_result):
        assert dot_result.outputs == {"alice": [70]}

    def test_phases_all_metered(self, dot_result):
        phases = dot_result.meter.by_phase()
        assert set(phases) == {"setup", "offline", "online"}
        assert all(v > 0 for v in phases.values())

    def test_offline_dominates_online(self, dot_result):
        # The whole point of the paper: pay offline, save online.
        assert dot_result.phase_bytes("offline") > dot_result.phase_bytes("online")

    def test_every_committee_spoke_once(self, dot_result):
        committees = dict(dot_result.offline.committees)
        committees.update(dot_result.online.committees)
        for committee in committees.values():
            assert all(role.spoken for role in committee)

    def test_epsilon_delta_openings_recorded(self, dot_result):
        assert set(dot_result.offline.epsilon_delta) == set(
            dot_result.circuit.multiplication_wires
        )

    def test_packed_ciphertexts_cover_batches(self, dot_result):
        for batch in dot_result.program.plan.mul_batches:
            for kind in ("left", "right", "gamma"):
                shares = dot_result.offline.packed_cipher[(batch.batch_id, kind)]
                assert len(shares) == dot_result.params.n

    def test_verification_chain_epochs(self, dot_result):
        # tsk travels Coff-A(0) -> Coff-dec(1) -> Coff-reenc(2) -> Con-keys(3).
        assert set(dot_result.offline.verifications) == {0, 1, 2, 3}

    def test_mu_values_consistent_with_plaintext(self, dot_result):
        # μ + λ = v must hold for every output wire (already implied by the
        # correct output, but check the tracker state is complete).
        tracker = dot_result.online.tracker
        for w in dot_result.circuit.output_wires:
            assert tracker.known(w)


class TestCircuitVariety:
    def test_linear_only_circuit(self):
        b = CircuitBuilder()
        x, y = b.input("a"), b.input("b")
        b.output(b.cadd(7, b.cmul(3, b.add(x, y))), "a")
        result = run_mpc(b.build(), {"a": [10], "b": [20]}, n=4, epsilon=0.2, seed=5)
        assert result.outputs["a"] == [3 * 30 + 7]

    def test_single_multiplication(self):
        b = CircuitBuilder()
        x, y = b.input("a"), b.input("b")
        b.output(b.mul(x, y), "a")
        result = run_mpc(b.build(), {"a": [111], "b": [222]}, n=4, epsilon=0.2, seed=6)
        assert result.outputs["a"] == [111 * 222]

    def test_deep_circuit(self):
        # x^8 via three sequential squarings: three online mul committees.
        b = CircuitBuilder()
        x = b.input("a")
        b.output(b.power(x, 8), "a")
        result = run_mpc(b.build(), {"a": [3]}, n=4, epsilon=0.2, seed=7)
        assert result.outputs["a"] == [3 ** 8]
        assert len(result.setup.mul_depths) == 3

    def test_statistics_workload(self):
        circuit = statistics_circuit(3)
        result = run_mpc(
            circuit, {f"party{i}": [v] for i, v in enumerate([5, 7, 9])},
            n=4, epsilon=0.2, seed=8,
        )
        s, q = result.outputs["analyst"]
        assert s == 21 and q == 3 * (25 + 49 + 81)

    def test_membership_workload(self):
        circuit = masked_membership_circuit(3)
        result = run_mpc(
            circuit, {"alice": [10, 20, 30, 777], "bob": [20]},
            n=4, epsilon=0.2, seed=9,
        )
        assert result.outputs["bob"] == [0]

    def test_linear_model_workload(self):
        circuit = linear_model_circuit(2)
        result = run_mpc(
            circuit, {"model": [3, 4, 5], "subject": [10, 20]},
            n=4, epsilon=0.2, seed=10,
        )
        assert result.outputs["subject"] == [3 * 10 + 4 * 20 + 5]

    def test_multi_output_multi_client(self):
        b = CircuitBuilder()
        x, y = b.input("a"), b.input("b")
        p = b.mul(x, y)
        b.output(p, "a")
        b.output(b.add(p, x), "b")
        result = run_mpc(b.build(), {"a": [6], "b": [7]}, n=4, epsilon=0.2, seed=11)
        assert result.outputs == {"a": [42], "b": [48]}

    def test_negative_intermediate_values(self):
        b = CircuitBuilder()
        x, y = b.input("a"), b.input("b")
        b.output(b.mul(b.sub(x, y), b.sub(x, y)), "a")  # (x-y)^2
        result = run_mpc(b.build(), {"a": [3], "b": [10]}, n=4, epsilon=0.2, seed=12)
        assert result.outputs["a"] == [49]

    def test_differential_against_plaintext_evaluation(self):
        rng = random.Random(77)
        circuit = random_circuit(rng, n_inputs=3, n_gates=10, n_clients=2,
                                 value_bound=50)
        inputs = {
            f"client{i}": [rng.randrange(50) for _ in circuit.inputs_of_client(f"client{i}")]
            for i in range(2)
        }
        result = run_mpc(circuit, inputs, n=4, epsilon=0.2, seed=13)
        ring = result.setup.ring
        expected = circuit.evaluate(ring, inputs).outputs
        for client, values in result.outputs.items():
            assert values == [int(v) for v in expected[client]]


class TestInputValidation:
    def test_wrong_input_count_aborts(self):
        circuit = dot_product_circuit(2)
        params = ProtocolParams.from_gap(4, 0.2)
        with pytest.raises(ProtocolAbortError):
            YosoMpc(params, rng=random.Random(1)).run(
                circuit, {"alice": [1], "bob": [1, 2]}
            )

    def test_values_reduced_modulo_ring(self):
        b = CircuitBuilder()
        x = b.input("a")
        b.output(b.cmul(1, x), "a")
        result = run_mpc(b.build(), {"a": [-5]}, n=4, epsilon=0.2, seed=14)
        assert result.outputs["a"] == [result.setup.ring.modulus - 5]


class TestResultApi:
    def test_report_shape(self, dot_result):
        report = report_from_mpc_result(dot_result)
        assert report["parameters"]["n"] == 6
        assert report["totals"]["bytes"] == dot_result.meter.total_bytes()

    def test_online_mul_bytes_subset_of_online(self, dot_result):
        assert 0 < dot_result.online_mul_bytes() <= dot_result.phase_bytes("online")
