"""Unit tests for online-phase internals: μ tracking and state objects."""


import pytest

from repro.circuits import CircuitBuilder, compile_circuit, dot_product_circuit
from repro.core import run_mpc
from repro.core.setup import SetupArtifacts
from repro.errors import ProtocolAbortError
from repro.fields import Zmod
from repro.packed_online import MuTracker


class TestMuTracker:
    def _tracker(self):
        b = CircuitBuilder()
        x, y = b.input("a"), b.input("b")
        s = b.add(x, y)            # 2
        d = b.sub(x, y)            # 3
        ca = b.cadd(10, s)         # 4
        cm = b.cmul(3, d)          # 5
        m = b.mul(ca, cm)          # 6
        out = b.output(m, "a")     # 7
        tracker = MuTracker(compile_circuit(b.build(), 1), Zmod(10007))
        return tracker, (x, y, s, d, ca, cm, m, out)

    def test_linear_propagation(self):
        tracker, (x, y, s, d, ca, cm, m, out) = self._tracker()
        tracker.set(x, 100)
        tracker.set(y, 30)
        tracker.propagate()
        assert int(tracker.get(s)) == 130
        assert int(tracker.get(d)) == 70
        assert int(tracker.get(ca)) == 140   # constants land in μ
        assert int(tracker.get(cm)) == 210
        assert not tracker.known(m)          # mul waits for its committee

    def test_mul_resolution_unblocks_output(self):
        tracker, (x, y, s, d, ca, cm, m, out) = self._tracker()
        tracker.set(x, 1)
        tracker.set(y, 1)
        tracker.propagate()
        assert not tracker.known(out)
        tracker.set(m, 999)
        tracker.propagate()
        assert int(tracker.get(out)) == 999

    def test_partial_knowledge_does_not_propagate(self):
        tracker, (x, y, s, *_rest) = self._tracker()
        tracker.set(x, 5)
        tracker.propagate()
        assert not tracker.known(s)

    def test_get_unknown_raises(self):
        tracker, wires = self._tracker()
        with pytest.raises(ProtocolAbortError):
            tracker.get(wires[2])

    def test_values_reduced_into_ring(self):
        tracker, (x, *_rest) = self._tracker()
        tracker.set(x, -1)
        assert int(tracker.get(x)) == tracker.ring.modulus - 1


class TestStateObjects:
    @pytest.fixture(scope="class")
    def result(self):
        return run_mpc(
            dot_product_circuit(3), {"alice": [1, 2, 3], "bob": [4, 5, 6]},
            n=5, epsilon=0.25, seed=202,
        )

    def test_setup_artifacts_shape(self, result):
        setup = result.setup
        assert isinstance(setup, SetupArtifacts)
        assert setup.ring.modulus == setup.tpk.n
        assert setup.mul_depths == (1,)
        # One KFF per online mul role plus one per input client.
        expected = len(setup.mul_depths) * setup.params.n + 2
        assert len(setup.kff) == expected

    def test_kff_lookup_validates(self, result):
        with pytest.raises(Exception):
            result.setup.kff_for("nonexistent-role")

    def test_offline_state_coverage(self, result):
        offline = result.offline
        circuit = result.circuit
        # Every wire has a mask ciphertext, every mul wire a Γ ciphertext.
        assert set(range(len(circuit.gates))) == set(offline.wire_cipher)
        assert set(circuit.multiplication_wires) == set(offline.gamma_cipher)
        # Every batch/member/kind bundle was re-encrypted.
        n = result.params.n
        for batch in result.program.plan.mul_batches:
            for i in range(1, n + 1):
                for kind in ("left", "right", "gamma"):
                    bundle = offline.packed_bundles[(batch.batch_id, i, kind)]
                    assert len(bundle) >= result.params.t + 1

    def test_online_state_outputs_match(self, result):
        assert result.online.outputs == result.outputs

    def test_mu_of_output_wire_consistent(self, result):
        # v = μ + λ was verified by correctness; check μ is in the tracker.
        for w in result.circuit.output_wires:
            assert result.online.tracker.known(w)


class TestLargerCommittee:
    def test_n10_t3_k2_run(self):
        # A bigger committee with t = 3 corruptions tolerated and packing.
        result = run_mpc(
            dot_product_circuit(4), {"alice": [1, 2, 3, 4], "bob": [9, 8, 7, 6]},
            n=10, epsilon=0.15, seed=203,
        )
        assert result.params.t == 3
        assert result.outputs["alice"] == [1 * 9 + 2 * 8 + 3 * 7 + 4 * 6]
