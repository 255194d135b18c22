"""Transport layer tests: parity, seeded loss, and §5.4 fail-stop silence.

The contract under test: a zero-loss :class:`SimTransport` is byte-identical
to :class:`InMemoryTransport` at the same protocol seed, and transport drops
surface exactly like honest crashes — tolerated up to the fail-stop budget,
a loud ``ProtocolAbortError`` beyond it.
"""

import random

import pytest

from repro.circuits import dot_product_circuit
from repro.core import run_mpc
from repro.core.params import ProtocolParams
from repro.core.protocol import YosoMpc
from repro.errors import ParameterError, ProtocolAbortError
from repro.wire import (
    DropSpec,
    Envelope,
    InMemoryTransport,
    SimTransport,
    make_transport,
)

CIRCUIT = dot_product_circuit(3)
INPUTS = {"alice": [2, 3, 5], "bob": [7, 11, 13]}
EXPECTED = [2 * 7 + 3 * 11 + 5 * 13]


def _envelope(sender="Con-mul-1[1]", phase="online"):
    return Envelope("generic", sender, 0, phase, "Con-mul-1", b"x")


class TestMakeTransport:
    def test_default_is_memory(self):
        assert isinstance(make_transport(None), InMemoryTransport)
        assert isinstance(make_transport("memory"), InMemoryTransport)

    def test_instance_passes_through(self):
        transport = SimTransport(seed=3)
        assert make_transport(transport) is transport

    def test_sim_spec_parses(self):
        t = make_transport(
            "sim:drop=0.1,seed=3,latency=0.05,jitter=0.01,"
            "bandwidth=1000000,phase=online,max-drops=2"
        )
        assert isinstance(t, SimTransport)
        assert t.seed == 3
        assert t.latency_s == 0.05
        assert t.jitter_s == 0.01
        assert t.bandwidth_bytes_per_s == 1_000_000
        assert t.drop == DropSpec(rate=0.1, phase="online", max_drops=2)

    def test_bare_sim_is_zero_loss(self):
        t = make_transport("sim")
        assert isinstance(t, SimTransport)
        assert t.drop == DropSpec()

    @pytest.mark.parametrize("spec", [
        "memory:opts",          # memory takes no options
        "tcp",                  # unknown transport
        "sim:turbo=1",          # unknown option
        "sim:drop",             # malformed option (no '=')
        "sim:drop=1.5",         # rate outside [0, 1]
        "sim:latency=-1",       # negative latency
        "sim:bandwidth=0",      # non-positive bandwidth
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ParameterError):
            make_transport(spec)


class TestDropSpec:
    def test_explicit_sender_dropped(self):
        spec = DropSpec(senders=frozenset({"Con-mul-1[1]"}), phase="online")
        rng = random.Random(0)
        assert spec.wants_drop(_envelope("Con-mul-1[1]"), rng, 0)
        assert not spec.wants_drop(_envelope("Con-mul-1[2]"), rng, 0)

    def test_phase_filter(self):
        spec = DropSpec(senders=frozenset({"Coff-A[1]"}), phase="online")
        assert not spec.wants_drop(_envelope("Coff-A[1]", phase="offline"),
                                   random.Random(0), 0)

    def test_max_drops_budget(self):
        spec = DropSpec(rate=1.0, max_drops=2)
        rng = random.Random(0)
        assert spec.wants_drop(_envelope(), rng, 0)
        assert spec.wants_drop(_envelope(), rng, 1)
        assert not spec.wants_drop(_envelope(), rng, 2)

    def test_rate_extremes(self):
        rng = random.Random(0)
        assert not DropSpec(rate=0.0).wants_drop(_envelope(), rng, 0)
        assert DropSpec(rate=1.0).wants_drop(_envelope(), rng, 0)

    def test_seeded_drops_count(self):
        # The schedule is the transport's own rng: deterministic per seed.
        transport = SimTransport(seed=5, drop=DropSpec(rate=0.5))
        kept = [transport.deliver(_envelope(), b"abc") for _ in range(40)]
        again = SimTransport(seed=5, drop=DropSpec(rate=0.5))
        kept2 = [again.deliver(_envelope(), b"abc") for _ in range(40)]
        assert kept == kept2
        assert 0 < transport.stats.dropped < 40
        assert transport.stats.delivered + transport.stats.dropped == 40


class TestSimClock:
    def test_latency_and_bandwidth_accrue(self):
        transport = SimTransport(seed=0, latency_s=0.5,
                                 bandwidth_bytes_per_s=100.0)
        transport.deliver(_envelope(), b"x" * 50)
        assert transport.stats.sim_clock_s == pytest.approx(1.0)

    def test_clock_never_affects_delivery(self):
        # Latency models waiting, not loss: everything still arrives.
        transport = SimTransport(seed=0, latency_s=1.0, jitter_s=0.3)
        for _ in range(10):
            assert transport.deliver(_envelope(), b"abc") == b"abc"
        assert transport.stats.dropped == 0


class TestParity:
    def test_zero_loss_sim_byte_identical_to_memory(self):
        runs = {
            spec: run_mpc(CIRCUIT, INPUTS, n=6, epsilon=0.25, seed=7,
                          transport=spec)
            for spec in ("memory", "sim")
        }
        mem, sim = runs["memory"], runs["sim"]
        assert mem.outputs == sim.outputs == {"alice": EXPECTED}

        def fingerprint(result):
            return [
                (r.phase, r.sender, r.tag, r.n_bytes)
                for r in result.meter.records
            ]

        assert fingerprint(mem) == fingerprint(sim)
        assert mem.meter.total_bytes() == sim.meter.total_bytes()

    def test_meter_equals_delivered_wire_bytes(self):
        result = run_mpc(CIRCUIT, INPUTS, n=6, epsilon=0.25, seed=7,
                         transport="sim")
        stats = result.transport.stats
        assert stats.dropped == 0
        assert result.meter.total_bytes() == stats.delivered_bytes
        assert result.meter.total_bytes() == result.bulletin.encoded_total_bytes()


class TestFailStopUnderSimTransport:
    def _run(self, drop_senders, n=8, epsilon=0.25, seed=21):
        params = ProtocolParams.from_gap(n, epsilon, fail_stop=True)
        transport = SimTransport(
            seed=1,
            drop=DropSpec(senders=frozenset(drop_senders), phase="online"),
        )
        mpc = YosoMpc(params, rng=random.Random(seed), transport=transport)
        return params, transport, mpc.run(CIRCUIT, INPUTS)

    def test_drops_within_crash_budget_tolerated(self):
        params = ProtocolParams.from_gap(8, 0.25, fail_stop=True)
        assert params.fail_stop_budget == 2
        victims = {"Con-mul-1[1]", "Con-mul-1[2]"}
        _, transport, result = self._run(victims)
        assert result.outputs["alice"] == EXPECTED
        assert transport.stats.dropped == len(victims)
        # To every observer the dropped roles simply never spoke (§5.4).
        mul = result.online.committees["Con-mul-1"]
        crashed = {str(r.id) for r in mul if r.crashed}
        assert crashed == victims

    def test_drops_beyond_budget_abort_loudly(self):
        victims = {f"Con-mul-1[{i}]" for i in range(1, 7)}
        with pytest.raises(ProtocolAbortError):
            self._run(victims)

    def test_random_loss_beyond_budget_aborts(self):
        transport = SimTransport(seed=2, drop=DropSpec(rate=1.0, phase="online"))
        params = ProtocolParams.from_gap(8, 0.25, fail_stop=True)
        mpc = YosoMpc(params, rng=random.Random(22), transport=transport)
        with pytest.raises(ProtocolAbortError):
            mpc.run(CIRCUIT, INPUTS)
