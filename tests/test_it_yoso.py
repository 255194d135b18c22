"""Tests for the information-theoretic YOSO extension (paper §7)."""

import random

import pytest

from repro.circuits import (
    CircuitBuilder,
    dot_product_circuit,
    random_circuit,
    statistics_circuit,
)
from repro.errors import ParameterError, ProtocolAbortError
from repro.extensions import ItYosoMpc
from repro.fields import Zmod
from repro.yoso.adversary import Adversary, CrashSpec
from repro.yoso.network import ProtocolEnvironment
from repro.yoso.roles import RoleId

F = Zmod((1 << 61) - 1)


class TestParameters:
    def test_degree_constraint(self):
        with pytest.raises(ParameterError):
            ItYosoMpc(n=8, t=2, k=3)  # 2(t+k-1) = 8 >= n

    def test_boundary_accepted(self):
        ItYosoMpc(n=9, t=2, k=3)


class TestCorrectness:
    def test_dot_product(self):
        it = ItYosoMpc(n=9, t=2, k=2, rng=random.Random(1))
        result = it.run(
            dot_product_circuit(4), {"alice": [1, 2, 3, 4], "bob": [5, 6, 7, 8]}
        )
        assert result.outputs["alice"] == [70]

    def test_deep_circuit(self):
        b = CircuitBuilder()
        x = b.input("a")
        b.output(b.power(x, 5), "a")
        it = ItYosoMpc(n=9, t=2, k=2, rng=random.Random(2))
        assert it.run(b.build(), {"a": [3]}).outputs["a"] == [243]

    def test_linear_only(self):
        b = CircuitBuilder()
        x, y = b.input("a"), b.input("b")
        b.output(b.cadd(5, b.cmul(3, b.sub(x, y))), "a")
        it = ItYosoMpc(n=7, t=1, k=2, rng=random.Random(3))
        assert it.run(b.build(), {"a": [10], "b": [4]}).outputs["a"] == [23]

    def test_statistics_workload(self):
        it = ItYosoMpc(n=9, t=2, k=2, rng=random.Random(4))
        result = it.run(
            statistics_circuit(3),
            {f"party{i}": [v] for i, v in enumerate([2, 4, 6])},
        )
        s, q = result.outputs["analyst"]
        assert s == 12 and q == 3 * (4 + 16 + 36)

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_differential_random_circuits(self, seed):
        rng = random.Random(seed)
        circuit = random_circuit(rng, n_inputs=4, n_gates=14, n_clients=2,
                                 value_bound=40)
        inputs = {
            f"client{i}": [rng.randrange(80) for _ in circuit.inputs_of_client(f"client{i}")]
            for i in range(2)
        }
        expected = circuit.evaluate(F, inputs).outputs
        got = ItYosoMpc(n=11, t=2, k=3, rng=rng).run(circuit, inputs).outputs
        assert got == {c: [int(v) for v in vs] for c, vs in expected.items()}

    def test_wrong_input_count(self):
        it = ItYosoMpc(n=7, t=1, k=2, rng=random.Random(5))
        with pytest.raises(ProtocolAbortError):
            it.run(dot_product_circuit(2), {"alice": [1], "bob": [1, 2]})


class TestFailStop:
    def test_online_crashes_within_margin_tolerated(self):
        # n - (t + 2(k-1) + 1) members of an online committee may vanish.
        n, t, k = 11, 2, 2
        margin = n - (t + 2 * (k - 1) + 1)
        assert margin > 0

        def factory_crash(seed):
            rng = random.Random(seed)
            ids = frozenset(
                RoleId("It-mul-1", i)
                for i in rng.sample(range(1, n + 1), margin)
            )
            return Adversary(crash_spec=CrashSpec(ids, phase="online"))

        it = ItYosoMpc(n=n, t=t, k=k, rng=random.Random(6),
                       adversary=factory_crash(7))
        result = it.run(
            dot_product_circuit(3), {"alice": [1, 2, 3], "bob": [4, 5, 6]}
        )
        assert result.outputs["alice"] == [32]

    def test_too_many_crashes_abort(self):
        n, t, k = 9, 2, 2
        threshold = t + 2 * (k - 1) + 1
        ids = frozenset(RoleId("It-mul-1", i) for i in range(1, n - threshold + 2))
        it = ItYosoMpc(n=n, t=t, k=k, rng=random.Random(8),
                       adversary=Adversary(crash_spec=CrashSpec(ids, phase="online")))
        with pytest.raises(ProtocolAbortError):
            it.run(dot_product_circuit(3), {"alice": [1, 2, 3], "bob": [4, 5, 6]})

    @pytest.mark.parametrize("client", ["alice", "bob"])
    def test_silent_input_client_is_a_named_abort(self, client):
        # First and a later client: neither an IndexError on an empty tag nor
        # a re-read of the previous client's post.
        crashed = CrashSpec({RoleId(f"it-client:{client}", 1)}, phase="online")
        it = ItYosoMpc(n=11, t=1, k=5, rng=random.Random(9),
                       adversary=Adversary(crash_spec=crashed))
        with pytest.raises(ProtocolAbortError, match=f"input client '{client}'"):
            it.run(dot_product_circuit(2), {"alice": [1, 2], "bob": [3, 4]})


def _with_entry(value):
    def mutate(row):
        row = row.copy()
        row[0] = value
        return row
    return mutate


class TestMalformedRows:
    """A deal or transfer row that is not B·n uint64 entries below q is a
    ``ProtocolAbortError`` naming the tag and the sender.

    Member 2 of P1 or P2 corrupts its ``left`` row.  At the parent commit,
    where a deal was a dict of ``(batch, kind) → list`` entries and the
    same mutations hit the first entry, the run ended as follows:

    * entry = q: a wrong output (727935547532836420 via P1,
      1210791086610002241 via P2; the right one is 70);
    * entry = 2^64 − 1: a wrong output (956000852170178996 via P1,
      1210791086610002221 via P2);
    * one entry short: a bare numpy ``ValueError`` ("setting an array
      element with a sequence … inhomogeneous shape");
    * a list in place of the row: the right output, since a list was then
      the row's wire form.
    """

    @pytest.mark.parametrize("tag", ["It-P1", "It-P2"])
    @pytest.mark.parametrize("mutate", [
        _with_entry((1 << 61) - 1),
        _with_entry((1 << 64) - 1),
        lambda row: row[:-1],
        lambda row: row.tolist(),
    ], ids=["entry-q", "entry-2^64-1", "one-short", "list"])
    def test_bad_row_is_a_named_abort(self, monkeypatch, tag, mutate):
        sample = ProtocolEnvironment.sample_committee

        def corrupting(env, name, size):
            committee = sample(env, name, size)
            if name == tag:
                committee.role(2).corrupted = True
            return committee

        section = "deals" if tag == "It-P1" else "transfers"

        def transform(role_id, phase, posted_tag, payload):
            payload[section]["left"] = mutate(payload[section]["left"])
            return payload

        monkeypatch.setattr(ProtocolEnvironment, "sample_committee", corrupting)
        it = ItYosoMpc(n=9, t=2, k=2, rng=random.Random(1),
                       adversary=Adversary(transform=transform))
        with pytest.raises(
            ProtocolAbortError,
            match=rf"^{tag} {section} row 'left' from {tag}\[2\] is not 18 field "
            rf"elements below q$",
        ):
            it.run(dot_product_circuit(4), {"alice": [1, 2, 3, 4], "bob": [5, 6, 7, 8]})

    def test_wide_modulus_is_refused(self):
        with pytest.raises(ParameterError, match="uint64 words"):
            ItYosoMpc(n=9, t=2, k=2, modulus=(1 << 89) - 1)


class TestCommunication:
    def test_online_per_gate_flat_in_n(self):
        circuit = dot_product_circuit(8)
        inputs = {"alice": [1] * 8, "bob": [2] * 8}
        per_gate = {}
        for n, k in ((9, 2), (13, 3), (17, 4)):
            it = ItYosoMpc(n=n, t=2, k=k, rng=random.Random(9))
            result = it.run(circuit, inputs)
            # Payload bytes: per-post envelope framing is a constant per
            # member that only amortizes on circuits wider than this one.
            per_gate[n] = (
                result.online_mul_payload_bytes() / circuit.n_multiplications
            )
        values = list(per_gate.values())
        # n/k is 4.5, 4.33, 4.25: essentially flat.
        assert max(values) <= min(values) * 1.25

    def test_no_ciphertext_sized_messages(self):
        # IT variant sends field elements, not Paillier ciphertexts: its
        # online bytes per gate are far below the computational protocol's.
        from repro.core import run_mpc

        circuit = dot_product_circuit(6)
        inputs = {"alice": [1] * 6, "bob": [2] * 6}
        it = ItYosoMpc(n=9, t=2, k=2, rng=random.Random(10)).run(circuit, inputs)
        comp = run_mpc(circuit, inputs, n=9, epsilon=0.25, seed=10)
        it_per_gate = it.online_mul_bytes() / circuit.n_multiplications
        comp_per_gate = comp.online_mul_bytes() / circuit.n_multiplications
        assert it_per_gate < comp_per_gate / 5
