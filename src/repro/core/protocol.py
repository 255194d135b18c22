"""Top-level protocol driver: the library's main entry point.

:class:`YosoMpc` wires the phases together:

    params   = ProtocolParams.from_gap(n=8, epsilon=0.2)
    protocol = YosoMpc(params, rng=random.Random(0))
    result   = protocol.run(circuit, {"alice": [3, 5], "bob": [7]})
    result.outputs      # {"alice": [...]}
    result.meter        # per-phase communication

Corruption is configured through ``adversary_factory``, which receives the
sampled committees (so tests can corrupt specific roles) and returns the
:class:`~repro.yoso.adversary.Adversary` driving the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.accounting.comm import CommMeter
from repro.accounting.symbolic import check_run_costs
from repro.circuits.circuit import Circuit
from repro.circuits.program import CircuitProgram, compile_circuit
from repro.core.offline import (
    OfflineState,
    run_offline,
    run_reencryption_bridge,
    sample_offline_committees,
)
from repro.core.online import OnlineState, run_online, sample_online_committees
from repro.core.params import ProtocolParams
from repro.core.setup import ONLINE_KEYS, SetupArtifacts, run_setup
from repro.engine import engine as _engine_mod
from repro.engine.engine import CryptoEngine, make_engine
from repro.observability import hooks as _hooks
from repro.observability.tracer import KIND_PHASE, Tracer, maybe_span
from repro.rng import fresh_rng
from repro.wire.transport import Transport, make_transport
from repro.yoso.adversary import Adversary
from repro.yoso.assignment import IdealRoleAssignment
from repro.yoso.committees import Committee
from repro.yoso.network import ProtocolEnvironment

#: Hook: receives (offline committees, online committees) after sampling and
#: returns the adversary for the run (None = honest execution).
AdversaryFactory = Callable[
    [Mapping[str, Committee], Mapping[str, Committee]], Adversary
]


@dataclass
class MpcResult:
    """Outputs plus everything needed to analyse the run."""

    outputs: dict[str, list[int]]
    params: ProtocolParams
    circuit: Circuit
    #: The compiled program the evaluators executed (its ``plan`` is the
    #: packing layout).
    program: CircuitProgram
    meter: CommMeter
    setup: SetupArtifacts
    offline: OfflineState
    online: OnlineState
    trace: Tracer | None = None
    transport: Transport | None = None
    #: The run's bulletin board — the delivered envelopes the symbolic
    #: cost model cross-checks byte-for-byte (repro.accounting.symbolic).
    bulletin: Any = None

    def phase_bytes(self, phase: str) -> int:
        return self.meter.total_bytes(phase)

    def online_mul_bytes(self) -> int:
        """Online bytes attributable to multiplication batches (μ shares).

        This is the quantity the paper's O(1)-per-gate claim concerns; key
        distribution and output delivery are one-time / per-output costs
        (§5.3's communication analysis).
        """
        return sum(
            n for tag, n in self.meter.by_tag("online").items()
            if tag.startswith("Con-mul")
        )


class YosoMpc:
    """One configured instance of the paper's protocol."""

    def __init__(
        self,
        params: ProtocolParams,
        rng: random.Random | None = None,
        adversary_factory: AdversaryFactory | None = None,
        tracer: Tracer | None = None,
        engine: CryptoEngine | None = None,
        transport: Transport | str | None = None,
        quorum_timeout_s: float | None = None,
    ):
        self.params = params
        self.rng = rng if rng is not None else fresh_rng()
        self.adversary_factory = adversary_factory
        self.tracer = tracer
        #: Transport selection: an instance, a spec string ("memory",
        #: "sim:drop=0.1,seed=3", "socket:workers=2", ...), or None for
        #: in-memory delivery.  Resolved per run — a fresh transport every
        #: execution so seeded drop/latency schedules replay identically.
        self.transport = transport
        #: Per-round deadline for asynchronous transports; None = default.
        self.quorum_timeout_s = quorum_timeout_s
        #: Crypto engine override; None = build one from ``params.workers``
        #: per run (and close it afterwards).  A supplied engine is shared
        #: across runs and stays open — the caller owns its lifecycle.
        self.engine = engine

    def run(
        self,
        circuit: Circuit,
        inputs: Mapping[str, Sequence[int]],
    ) -> MpcResult:
        """Execute setup + offline + online on ``circuit`` with ``inputs``."""
        program = compile_circuit(circuit, self.params.k)
        assignment = IdealRoleAssignment(
            key_bits=self.params.role_key_bits, rng=self.rng
        )
        tracer = self.tracer
        transport = make_transport(self.transport)
        # A spec string resolves to a transport this run owns (and must
        # close); a caller-supplied instance stays the caller's to manage.
        owns_transport = transport is not self.transport
        env = ProtocolEnvironment(
            assignment=assignment, rng=self.rng, tracer=tracer,
            transport=transport, quorum_timeout_s=self.quorum_timeout_s,
        )
        env.quorum_margin = self.params.fail_stop_budget

        owns_engine = self.engine is None
        engine = make_engine(self.params.workers) if owns_engine else self.engine
        try:
            with _hooks.activated(tracer), _engine_mod.activated(engine):
                with maybe_span(tracer, "setup", kind=KIND_PHASE, phase="setup"):
                    setup = run_setup(env, self.params, program, self.rng)
                    offline_committees = sample_offline_committees(env, self.params)
                    online = sample_online_committees(env, setup, program)

                if self.adversary_factory is not None:
                    env.adversary = self.adversary_factory(
                        offline_committees, online.committees
                    )

                with maybe_span(tracer, "offline", kind=KIND_PHASE, phase="offline"):
                    offline = run_offline(env, setup, program, offline_committees)
                with maybe_span(
                    tracer, "reencryption-bridge", kind=KIND_PHASE, phase="offline"
                ):
                    run_reencryption_bridge(
                        env, setup, offline, program,
                        online.committees[ONLINE_KEYS].public_keys(),
                    )
                with maybe_span(tracer, "online", kind=KIND_PHASE, phase="online"):
                    outputs = run_online(
                        env, setup, offline, online, program, inputs
                    )
        finally:
            if owns_engine:
                engine.close()
            if owns_transport:
                transport.close()
        result = MpcResult(
            outputs=outputs,
            params=self.params,
            circuit=circuit,
            program=program,
            meter=env.meter,
            setup=setup,
            offline=offline,
            online=online,
            trace=tracer,
            transport=transport,
            bulletin=env.bulletin,
        )
        # Honest metered runs double as validation oracles: every envelope
        # on the board must match its closed-form size formula exactly.
        # (Adversarial transforms rewrite payloads arbitrarily, so the
        # structural contract only binds honest executions.)
        if self.adversary_factory is None:
            check_run_costs(result)
        return result


def run_mpc(
    circuit: Circuit,
    inputs: Mapping[str, Sequence[int]],
    n: int = 8,
    epsilon: float = 0.2,
    seed: int | None = None,
    fail_stop: bool = False,
    te_bits: int = 64,
    role_key_bits: int = 64,
    tracer: Tracer | None = None,
    workers: int = 0,
    transport: Transport | str | None = None,
    quorum_timeout_s: float | None = None,
) -> MpcResult:
    """One-call convenience wrapper (the quickstart entry point)."""
    params = ProtocolParams.from_gap(
        n, epsilon, fail_stop=fail_stop,
        te_bits=te_bits, role_key_bits=role_key_bits,
        workers=workers,
    )
    rng = random.Random(seed)
    return YosoMpc(
        params, rng=rng, tracer=tracer, transport=transport,
        quorum_timeout_s=quorum_timeout_s,
    ).run(circuit, inputs)
