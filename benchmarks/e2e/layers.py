"""Which public calls of each layer the traced operation wraps, and how the
per-layer metrics are computed from the spans and counters.

Layer = module name under ``repro``.  A span is named after the metric
stem it feeds (``engine.pow_many`` -> ``engine.pow_many.busy_s``), so the
trace file reads in the same vocabulary as ``BENCHMARK.json``.

Counts come from the repo's own ``repro.observability.hooks`` counters
(collected by a ``Tracer``; they are warm/cold invariant by design) or,
where no counter exists, from the wrapper's own call count.
"""

from __future__ import annotations

import statistics

from repro.accounting import symbolic
from repro.baselines.cdn import CdnYosoMpc
from repro.circuits import program as circuits_program
from repro.core import offline as core_offline
from repro.core import online as core_online
from repro.core import protocol as core_protocol
from repro.core import setup as core_setup
from repro.engine import batch as engine_batch
from repro.engine.engine import SerialEngine
from repro.extensions.it_yoso import ItYosoMpc
from repro.nizk import sigma
from repro.paillier import paillier
from repro.paillier.threshold import ThresholdPaillier
from repro.service.client import ServiceClient
from repro.service.epoch import EpochCoordinator
from repro.service.ingest import IngestPipeline
from repro.service.service import MpcService
from repro.sharing import kernel
from repro.sharing.packed import PackedShamirScheme
from repro.wire.codec import WireCodec
from repro.wire.transport import InMemoryTransport, SimTransport
from repro.yoso.bulletin import BulletinBoard
from repro.yoso.network import ProtocolEnvironment

#: Layers, in the order a span name is matched against them.
LAYERS = (
    "circuits", "core", "extensions.it_yoso", "baselines.cdn", "yoso", "wire",
    "sharing", "engine", "paillier", "nizk", "accounting", "service",
)

SIGMA_PROOFS = (
    sigma.PlaintextKnowledgeProof,
    sigma.MultiplicationProof,
    sigma.PartialDecryptionProof,
    sigma.PlaintextDlogEqualityProof,
)


def layer_of(span_name: str) -> str:
    for layer in LAYERS:
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    raise KeyError(span_name)


def install(patches, rec, tracer) -> None:
    """Wrap every layer's public entry points with spans of ``rec``."""

    def fn(module, attr, name, **kw):
        patches.function(module, attr, lambda f: rec.wrap(name, f, **kw))

    def method(cls, attr, name, **kw):
        patches.method(cls, attr, lambda f: rec.wrap(name, f, **kw))

    fn(circuits_program, "compile_circuit", "circuits.compile")

    fn(core_setup, "run_setup", "core.setup")
    fn(core_offline, "run_offline", "core.offline")
    fn(core_offline, "run_reencryption_bridge", "core.bridge")
    fn(core_online, "run_online", "core.online")
    method(ItYosoMpc, "run", "extensions.it_yoso")
    method(CdnYosoMpc, "run", "baselines.cdn")

    def role_program_span(args, kwargs):
        # A role program is a closure of the evaluator that runs inside
        # ``activate``; give it a span of the evaluator's layer so its
        # ring arithmetic is not booked as yoso runtime.
        env, role, program = args
        module = program.__module__.removeprefix("repro.")
        layer = "core" if module.startswith("core.") else module
        return (env, role, rec.wrap(layer + ".role_program", program)), kwargs

    method(ProtocolEnvironment, "run_committee", "yoso.run_committee")
    method(ProtocolEnvironment, "activate", "yoso.activate", adapt=role_program_span)
    method(BulletinBoard, "post", "yoso.bulletin.post")
    for reader in ("by_sender", "payloads", "latest"):
        method(BulletinBoard, reader, "yoso.bulletin.read")

    method(WireCodec, "encode_payload", "wire.encode")
    method(WireCodec, "encode", "wire.encode")
    method(WireCodec, "decode", "wire.decode")
    method(InMemoryTransport, "deliver", "wire.transport")
    method(SimTransport, "deliver", "wire.transport")

    for bulk in ("share_many", "reconstruct_many", "canonical_many"):
        method(PackedShamirScheme, bulk, "sharing." + bulk)
    fn(kernel, "matmul_mod", "sharing.kernel.matmul")

    method(SerialEngine, "pow_many", "engine.pow_many")

    fn(paillier, "generate_keypair", "paillier.keygen")
    method(ThresholdPaillier, "keygen", "paillier.keygen")
    method(paillier.PaillierPublicKey, "encrypt", "paillier.encrypt")
    fn(engine_batch, "encrypt_many", "paillier.encrypt")
    method(paillier.PaillierSecretKey, "decrypt", "paillier.decrypt")
    method(ThresholdPaillier, "partial_decrypt", "paillier.threshold.partial_decrypt")
    fn(engine_batch, "partial_decrypt_many", "paillier.threshold.partial_decrypt")
    method(ThresholdPaillier, "combine", "paillier.threshold.combine")
    method(ThresholdPaillier, "reshare", "paillier.threshold.reshare")

    for proof in SIGMA_PROOFS:
        method(proof, "prove", "nizk.prove")
        method(proof, "verify", "nizk.verify",
               on_return=lambda a, k, ok: {"nizk.rejected": not ok})
    fn(engine_batch, "verify_plaintext_knowledge_many", "nizk.verify_many",
       on_return=lambda a, k, verdicts: {
           "nizk.batch_items": len(verdicts),
           "nizk.rejected": verdicts.count(False),
       })

    fn(symbolic, "verify_cost_exactness", "accounting.cost_check",
       on_return=lambda a, k, report: {"accounting.envelopes": report.envelopes})

    method(ServiceClient, "build_input", "service.client.build")
    method(MpcService, "submit", "service.submit")
    method(IngestPipeline, "process", "service.ingest",
           on_return=lambda a, k, accepted: {
               "service.accepted": len(accepted),
               "service.rejected": len(a[1]) - len(accepted),
           })
    method(EpochCoordinator, "evaluate", "service.evaluate")
    method(EpochCoordinator, "reshare", "service.reshare",
           on_return=lambda a, k, who: {"service.contributors": len(who)})
    # The coordinator calls run_mpc without a tracer, and YosoMpc.run
    # installs its own (None) counter sink: hand it ours so the inner
    # MPC's counters are not lost.
    fn(core_protocol, "run_mpc", "service.inner_mpc",
       adapt=lambda a, k: (a, {"tracer": tracer, **k}))


def self_s_by_layer(rec) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for name, own in rec.self_s_by_name().items():
        out[layer_of(name)] += own
    return out


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(rec, counters, facts, elapsed_s, untraced_wall_s) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` for one traced op.

    ``counters`` are the hook counter totals of the op's ``Tracer``;
    ``facts`` is what the workload's ``op`` returned; ``elapsed_s`` is the
    whole traced call (for the service it includes the client build the
    operation's own wall leaves out), which is what the spans must cover.
    """
    durations = rec.durations_by_name()
    own = rec.self_s_by_name()
    count, wrapped = counters.get, rec.counts
    delivered, dropped, sim_clock_s = facts["transport"]
    ingest_ms = [1e3 * d for d in durations.get("service.ingest", ())]
    explained = sum(own.values())

    def busy(name):
        return sum(durations.get(name, ()))

    def calls(name):
        return len(durations.get(name, ()))

    def self_s(*names):
        return sum(own.get(name, 0.0) for name in names)

    out = {
        "circuits.compile.busy_s": busy("circuits.compile"),
        "circuits.compile.calls": calls("circuits.compile"),
        "circuits.compile.cache_hits": count("circuit.compile_cache_hits", 0),
        "circuits.compiled_gates": count("circuit.compiled_gates", 0),

        "core.setup.busy_s": busy("core.setup"),
        "core.offline.busy_s": busy("core.offline"),
        "core.bridge.busy_s": busy("core.bridge"),
        "core.online.busy_s": busy("core.online"),
        "core.reencrypt.contributions": count("reencrypt.contribution", 0),
        "core.reencrypt.recoveries": count("reencrypt.recovery", 0),

        "extensions.it_yoso.self_s":
            self_s("extensions.it_yoso", "extensions.it_yoso.role_program"),
        "baselines.cdn.self_s":
            self_s("baselines.cdn", "baselines.cdn.role_program"),

        "yoso.run_committee.busy_s": busy("yoso.run_committee"),
        "yoso.committees_run": calls("yoso.run_committee"),
        "yoso.roles_activated": calls("yoso.activate"),
        "yoso.bulletin.post.self_s": self_s("yoso.bulletin.post"),
        "yoso.bulletin.read.self_s": self_s("yoso.bulletin.read"),
        "yoso.bulletin.posts": count("bulletin.posts", 0),

        "wire.encode.busy_s": busy("wire.encode"),
        "wire.decode.busy_s": busy("wire.decode"),
        "wire.posts": count("wire.posts", 0),
        "wire.decodes": count("wire.decodes", 0),
        "wire.encoded_bytes": count("wire.encoded_bytes", 0),
        "wire.decode_failures": wrapped["wire.decode.errors"],
        "wire.encode_fallbacks": count("wire.encode_fallbacks", 0),
        "wire.transport.busy_s": busy("wire.transport"),
        "wire.transport.delivered": delivered,
        "wire.transport.dropped": dropped,
        "wire.transport.sim_clock_s": sim_clock_s,

        "sharing.share_many.busy_s": busy("sharing.share_many"),
        "sharing.reconstruct_many.busy_s": busy("sharing.reconstruct_many"),
        "sharing.canonical_many.busy_s": busy("sharing.canonical_many"),
        "sharing.kernel.matmul.busy_s": busy("sharing.kernel.matmul"),
        "sharing.kernel.matmul.calls": calls("sharing.kernel.matmul"),
        "sharing.sharings_dealt": count("sharing.sharings_dealt", 0),
        "sharing.reconstructions": count("sharing.reconstructions", 0),
        "sharing.canonical_shares": count("sharing.canonical_shares", 0),
        "fields.lagrange.interpolations": count("lagrange.interpolations", 0),
        "fields.lagrange.integer_interpolations":
            count("lagrange.integer_interpolations", 0),

        "engine.pow_many.busy_s": busy("engine.pow_many"),
        "engine.batches": count("engine.batches", 0),
        "engine.jobs": count("engine.jobs", 0),
        "engine.jobs_per_batch":
            _ratio(count("engine.jobs", 0), count("engine.batches", 0)),
        "engine.batched_share":
            _ratio(count("engine.jobs", 0), count("paillier.exp", 0)),
        "engine.fallbacks": count("engine.fallbacks", 0),

        "paillier.keygen.busy_s": busy("paillier.keygen"),
        "paillier.encrypt.busy_s": busy("paillier.encrypt"),
        "paillier.decrypt.busy_s": busy("paillier.decrypt"),
        "paillier.threshold.partial_decrypt.busy_s":
            busy("paillier.threshold.partial_decrypt"),
        "paillier.threshold.combine.busy_s": busy("paillier.threshold.combine"),
        "paillier.threshold.reshare.busy_s": busy("paillier.threshold.reshare"),
        "paillier.exp": count("paillier.exp", 0),
        "paillier.encrypt": count("paillier.encrypt", 0),
        "paillier.decrypt": count("paillier.decrypt", 0),
        "paillier.partial_decrypt": count("paillier.partial_decrypt", 0),
        "paillier.combine": count("paillier.combine", 0),
        "paillier.threshold.reshares": count("threshold.reshare", 0),
        "paillier.threshold.recombines": count("threshold.recombine", 0),

        "nizk.prove.busy_s": busy("nizk.prove"),
        "nizk.verify.busy_s": busy("nizk.verify"),
        "nizk.proofs_proved": calls("nizk.prove"),
        "nizk.proofs_verified": calls("nizk.verify") + wrapped["nizk.batch_items"],
        "nizk.proofs_rejected": wrapped["nizk.rejected"],
        "nizk.verify_many.busy_s": busy("nizk.verify_many"),
        "nizk.verify_many.batch_size":
            _ratio(wrapped["nizk.batch_items"], calls("nizk.verify_many")),

        "accounting.cost_check.busy_s": busy("accounting.cost_check"),
        "accounting.cost_check.envelopes": wrapped["accounting.envelopes"],

        "service.client.build_per_s":
            _ratio(calls("service.client.build"), busy("service.client.build")),
        "service.ingest.busy_s": busy("service.ingest"),
        "service.ingest.batches": calls("service.ingest"),
        "service.ingest.batch_p50_ms": statistics.median(ingest_ms) if ingest_ms else 0.0,
        "service.ingest.batch_max_ms": max(ingest_ms, default=0.0),
        "service.ingest.accepted": wrapped["service.accepted"],
        "service.ingest.rejected": wrapped["service.rejected"],
        "service.queue.overloads": wrapped["service.submit.errors"],
        "service.evaluate.busy_s": busy("service.evaluate"),
        "service.inner_mpc.busy_s": busy("service.inner_mpc"),
        "service.reshare.busy_s": busy("service.reshare"),
        "service.reshare.contributors": wrapped["service.contributors"],

        "trace.coverage_share": explained / elapsed_s,
        "trace.unexplained_s": elapsed_s - explained,
        "trace.overhead_share": (facts["run_wall_s"] - untraced_wall_s) / untraced_wall_s,
    }
    return {name: float(value) for name, value in out.items()}
