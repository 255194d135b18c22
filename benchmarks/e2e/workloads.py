"""The four benchmark workloads: inputs from a seed, one operation, its check.

Every workload exposes ``op(marks, tracer=None) -> dict``: run one
operation, check its outputs against a plaintext reference, and return
the facts the end-to-end metrics are computed from.  ``marks`` is the
list the phase-mark wrappers append ``(label, timestamp)`` to (see
``child.phase_marks``); ``tracer`` is a ``repro.observability.Tracer``
on the traced operation only.

Why these four (the README has the long form):

* ``core_dot_256``  — the paper's protocol at the smallest modulus where
  ``builtins.pow`` is the wall: Paillier / engine / Σ-proofs do the work.
* ``it_mlp_10k``    — no Paillier at all: cost check, codec, sharing
  kernel and the evaluator's own walk.  A Paillier change must not move it.
* ``cdn_mlp_128``   — the same crypto layers used unpacked and online.
* ``service_stats_9k`` — request serving: decode, screen, batched proof
  verification, a queue that overflows, threshold decryption, resharing.

The evaluator workloads re-seed the protocol RNG identically for every
operation, so every operation of one run does the same work and the byte
counts repeat exactly; service epochs are successive states of one
service (the board grows), so its samples are ordered, not i.i.d.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

from repro.baselines import CdnYosoMpc
from repro.circuits import (
    compile_circuit,
    dot_product_circuit,
    flatten_model,
    mlp_circuit,
)
from repro.core import ProtocolParams, YosoMpc
from repro.errors import ServiceOverloaded
from repro.extensions import ItYosoMpc
from repro.fields.ring import Zmod
from repro.paillier.paillier import generate_keypair
from repro.service import MpcService, ServiceClient, ServiceConfig
from repro.sharing import kernel
from repro.wire.codec import KeyAnnouncement

#: Zero loss, so the board is bit-identical to the in-memory transport;
#: latency and bandwidth only feed the simulated clock the trace reports.
CORE_TRANSPORT = "sim:latency=0.05,bandwidth=12500000"

#: Reference ring: every workload's true outputs are far below 2^61.
REFERENCE_MODULUS = (1 << 61) - 1

_clock = time.perf_counter


def phase_walls(marks) -> tuple[float, float]:
    """(offline, online) wall from the first mark of each label.

    offline: first ``set_phase("offline")`` -> ``set_phase("online")``;
    online: ``set_phase("online")`` -> entry of ``verify_cost_exactness``.
    """
    first: dict[str, float] = {}
    for label, stamp in marks:
        first.setdefault(label, stamp)
    return (
        first["online"] - first["offline"],
        first["cost_check"] - first["online"],
    )


class EvaluatorWorkload:
    """One ``run(circuit, inputs)`` of an evaluator, checked against the
    compiled program's plaintext evaluation."""

    ordered = False  # every operation does the same work

    def __init__(self, seed, circuit, k, inputs, modulus_bits, make_runner):
        self.seed = seed
        self.circuit = circuit
        self.inputs = inputs
        self.make_runner = make_runner
        program = compile_circuit(circuit, k)
        self.mul_gates = len(program.mul_wires)
        self.gates = program.n_gates
        reference = program.evaluate(Zmod(REFERENCE_MODULUS), inputs)
        self.expected = {
            client: [int(v) for v in values]
            for client, values in reference.outputs.items()
        }
        self.backend = kernel.resolve_backend((1 << modulus_bits) - 1, k)

    def corrupt_reference(self) -> None:
        client = next(iter(self.expected))
        self.expected[client][0] += 1

    def op(self, marks, tracer=None) -> dict:
        runner = self.make_runner(random.Random(self.seed), tracer)
        del marks[:]
        started = _clock()
        result = runner.run(self.circuit, self.inputs)
        wall = _clock() - started
        offline, online = phase_walls(marks)
        transport = getattr(result, "transport", None) or result.bulletin.transport
        stats = transport.stats
        return {
            "ok": result.outputs == self.expected,
            "run_wall_s": wall,
            "offline_wall_s": offline,
            "online_wall_s": online,
            "ingest_per_s": len(result.bulletin) / wall,
            "online_mul_bytes_per_gate": result.online_mul_bytes() / self.mul_gates,
            "offline_bytes_per_gate":
                result.meter.total_bytes("offline") / self.mul_gates,
            "board_bytes": result.bulletin.encoded_total_bytes(),
            "transport": (stats.delivered, stats.dropped, stats.sim_clock_s),
        }


def _random_model(sizes, rng):
    weights = [
        [[rng.randrange(7) for _ in range(fan_in)] for _ in range(fan_out)]
        for fan_in, fan_out in zip(sizes, sizes[1:])
    ]
    biases = [[rng.randrange(7) for _ in range(fan_out)] for fan_out in sizes[1:]]
    x = [rng.randrange(7) for _ in range(sizes[0])]
    return {"model": flatten_model(weights, biases), "subject": x}


def core_dot(seed, smoke):
    length, bits = (4, 64) if smoke else (8, 256)
    rng = random.Random(seed)
    inputs = {
        "alice": [rng.randrange(100) for _ in range(length)],
        "bob": [rng.randrange(100) for _ in range(length)],
    }
    params = ProtocolParams.from_gap(6, 0.2, te_bits=bits, role_key_bits=bits)
    return EvaluatorWorkload(
        seed, dot_product_circuit(length), params.k, inputs, bits,
        lambda run_rng, tracer: YosoMpc(
            params, rng=run_rng, tracer=tracer, transport=CORE_TRANSPORT
        ),
    )


def it_mlp(seed, smoke):
    sizes = [12, 12, 8] if smoke else [64, 48, 10]
    return EvaluatorWorkload(
        seed, mlp_circuit(sizes), 5,
        _random_model(sizes, random.Random(seed)), 61,
        lambda run_rng, tracer: ItYosoMpc(n=11, t=1, k=5, rng=run_rng),
    )


def cdn_mlp(seed, smoke):
    sizes = [4, 4, 2] if smoke else [8, 8, 4]
    return EvaluatorWorkload(
        seed, mlp_circuit(sizes), 1,
        _random_model(sizes, random.Random(seed)), 128,
        lambda run_rng, tracer: CdnYosoMpc(n=9, t=2, te_bits=128, rng=run_rng),
    )


class ServiceWorkload:
    """One epoch of one long-lived statistics service per operation."""

    ordered = True  # epochs are successive states: the board grows
    churn = 0.1
    #: Rejection class each injected submission kind must land in.
    adversarial = (
        "MalformedSubmissionError",    # truncated bytes
        "EpochMismatchError",          # built for the next epoch
        "ReplayedClientError",         # an honest client's bytes, again
        "OversizedCiphertextError",    # ciphertexts under a foreign modulus
        "InvalidProofError",           # tampered proof response
    )

    def __init__(self, seed, smoke):
        self.seed = seed
        self.clients, self.per_class = (300, 2) if smoke else (9000, 36)
        self.svc = MpcService(ServiceConfig(
            workload="statistics", te_bits=128, role_key_bits=128, seed=seed,
            # The full shape overflows the default queue once per epoch
            # (9,180 > 8,192); the smoke shape needs a smaller one to.
            queue_capacity=256 if smoke else 8192,
        ))
        self.foreign_modulus = generate_keypair(128, fixture_index=1).public.n
        self.epochs_run = 0
        self.corrupt = False
        self.mul_gates = 1  # grouped_statistics_circuit: the single S·S
        self.gates = None
        self.backend = kernel.resolve_backend(
            self.svc.coordinator.tpk.n, self.svc.config.n
        )
        self._transport_seen = (0, 0, 0.0)

    def corrupt_reference(self) -> None:
        self.corrupt = True

    def _submissions(self, announcement, epoch):
        """The epoch's wire-byte stream and the honest clients' values."""
        rng = random.Random(f"{self.seed}:{epoch}")
        encode = self.svc.board.codec.encode
        offset = round(epoch * self.churn * self.clients)
        values = {
            f"client-{i:07d}": rng.randrange(100)
            for i in range(offset, offset + self.clients)
        }
        honest = [
            encode(ServiceClient(cid, announcement, rng=rng).build_input(x))
            for cid, x in values.items()
        ]
        next_epoch = replace(announcement, epoch=announcement.epoch + 1)
        foreign = replace(announcement, key=KeyAnnouncement(self.foreign_modulus))
        hostile = []
        for j in range(self.per_class):
            def built(tag, ann=announcement):
                return ServiceClient(f"mallory-{tag}-{j}", ann, rng=rng).build_input(7)

            whole = encode(built("cut"))
            hostile.append(whole[: len(whole) // 2])
            hostile.append(encode(built("epoch", next_epoch)))
            hostile.append(encode(built("key", foreign)))
            forged = built("proof")
            proof = forged.proofs[0]
            hostile.append(encode(replace(forged, proofs=(
                replace(proof, response_exponent=proof.response_exponent + 1),
            ) + forged.proofs[1:])))
        stream = honest + hostile
        rng.shuffle(stream)
        # Replays go after their originals, which sit in the first half.
        originals = set(honest)
        half = len(stream) // 2
        for _ in range(self.per_class):
            source = rng.randrange(half)
            while stream[source] not in originals:
                source = rng.randrange(half)
            stream.insert(rng.randrange(half + 1, len(stream) + 1), stream[source])
        return stream, values

    def op(self, marks, tracer=None) -> dict:
        svc = self.svc
        epoch = self.epochs_run
        self.epochs_run += 1
        bytes_before = svc.board.encoded_total_bytes()
        del marks[:]

        started = _clock()
        announcement = svc.open_epoch()
        open_s = _clock() - started

        started = _clock()
        stream, values = self._submissions(announcement, epoch)
        build_s = _clock() - started

        started = _clock()
        for item in stream:
            try:
                svc.submit(item)
            except ServiceOverloaded:
                svc.ingest()
                svc.submit(item)
        svc.ingest()
        ingest_s = _clock() - started

        started = _clock()
        # A fail-stop crash of the last member, in the cold epoch only.
        summary = svc.close_epoch(crash=svc.config.n if epoch == 0 else None)
        close_s = _clock() - started

        total = sum(values.values())
        scaled = len(values) * sum(x * x for x in values.values())
        expected = (total + self.corrupt, scaled, scaled - total * total)
        ledger = svc.ledger(summary.epoch)
        ok = (
            summary.result.outputs == expected
            and summary.population == self.clients
            and set(ledger.accepted) == set(values)
            and summary.rejections == dict.fromkeys(self.adversarial, self.per_class)
        )
        inner = summary.inner_result
        stats = svc.board.transport.stats
        seen = (stats.delivered, stats.dropped, stats.sim_clock_s)
        transport = tuple(now - before for now, before in zip(seen, self._transport_seen))
        self._transport_seen = seen
        return {
            "ok": ok,
            "run_wall_s": open_s + ingest_s + close_s,
            "offline_wall_s": phase_walls(marks)[0],
            "online_wall_s": close_s,
            "ingest_per_s": len(stream) / ingest_s,
            "online_mul_bytes_per_gate": summary.online_bytes_per_gate,
            "offline_bytes_per_gate": inner.meter.total_bytes("offline")
            / inner.circuit.n_multiplications,
            "board_bytes": summary.board_bytes - bytes_before,
            "build_s": build_s,
            "transport": transport,
            "rejections": summary.rejections,
        }


BUILDERS = {
    "core_dot_256": core_dot,
    "it_mlp_10k": it_mlp,
    "cdn_mlp_128": cdn_mlp,
    "service_stats_9k": ServiceWorkload,
}


def build(name, seed, smoke=False):
    """The named workload with its inputs generated from ``seed``."""
    if name not in BUILDERS:
        raise SystemExit(f"unknown workload {name!r}; known: {', '.join(BUILDERS)}")
    return BUILDERS[name](seed, smoke)
