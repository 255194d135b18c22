"""The long-lived MPC service: one façade over queue, board, and epochs.

:class:`MpcService` wires the pieces together the way ``repro serve``
runs them: a bounded ingest queue feeding the validation pipeline, a
byte-real bulletin board over a pluggable transport, and an
:class:`~repro.service.epoch.EpochCoordinator` holding the threshold key
and its committees.  Committee parameters (n, t) come from the sortition
planner via :meth:`ProtocolParams.from_gap`, exactly as the core
protocol sizes its own committees.

At every epoch close the service cross-checks the posts that epoch added
to its board against the symbolic cost model (``verify_cost_exactness``
with :func:`~repro.accounting.symbolic.space_for_service`): every
``ClientInput``, announcement, result, and resharing envelope must match
its closed-form byte formula exactly.  The inner MPC run performs the
same check on its own board.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.accounting.symbolic import (
    ExactnessReport,
    space_for_service,
    verify_cost_exactness,
)
from repro.core.params import ProtocolParams
from repro.errors import ServiceError
from repro.service.epoch import EpochCoordinator
from repro.service.ingest import EpochLedger, IngestPipeline, IngestQueue
from repro.service.wire import ClientInput, EpochAnnouncement, EpochResult
from repro.service.workloads import make_workload
from repro.wire.transport import Transport, make_transport
from repro.yoso.bulletin import BulletinBoard

__all__ = ["EpochSummary", "MpcService", "ServiceConfig"]


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` needs to stand the service up."""

    workload: str = "statistics"
    n: int = 5                      # committee size (inner MPC uses it too)
    epsilon: float = 0.25           # sortition corruption gap -> (t, k)
    te_bits: int = 64
    role_key_bits: int = 64
    statistics_groups: int = 4
    auction_levels: int = 8
    queue_capacity: int = 8192
    batch_size: int = 512
    input_window: int = 1
    seed: int = 2026
    transport: Any = "memory"       # spec string or a Transport instance


@dataclass
class EpochSummary:
    """What one closed epoch produced, and what it cost."""

    epoch: int
    workload: str
    population: int
    rejections: dict[str, int]
    result: EpochResult
    decoded: dict[str, Any]
    contributors: tuple[int, ...]
    reshare_contributors: tuple[int, ...]
    ingest_seconds: float
    ingest_rate: float              # processed submissions per second
    evaluate_seconds: float
    reshare_seconds: float
    online_bytes_per_gate: float
    board_bytes: int
    #: The cost check's verdict on the posts this epoch added to the board.
    cost_report: ExactnessReport = field(repr=False)
    inner_result: Any = field(repr=False, default=None)


class MpcService:
    """A client-aided MPC service with epoch lifecycle and resharing."""

    def __init__(self, config: ServiceConfig | None = None, **overrides):
        cfg = config if config is not None else ServiceConfig()
        for key, value in overrides.items():
            if not hasattr(cfg, key):
                raise ServiceError(f"unknown service option {key!r}")
            setattr(cfg, key, value)
        self.config = cfg

        planned = ProtocolParams.from_gap(
            cfg.n, cfg.epsilon,
            te_bits=cfg.te_bits, role_key_bits=cfg.role_key_bits,
        )
        self.t = planned.t

        self._owns_transport = not isinstance(cfg.transport, Transport)
        transport = (
            make_transport(cfg.transport)
            if self._owns_transport
            else cfg.transport
        )
        self.board = BulletinBoard(transport=transport)
        self.rng = random.Random(cfg.seed)
        self.workload = make_workload(
            cfg.workload,
            statistics_groups=cfg.statistics_groups,
            auction_levels=cfg.auction_levels,
        )
        self.coordinator = EpochCoordinator(
            self.board,
            self.workload,
            n=cfg.n,
            t=self.t,
            te_bits=cfg.te_bits,
            role_key_bits=cfg.role_key_bits,
            rng=self.rng,
            input_window=cfg.input_window,
            inner_kwargs={
                "n": cfg.n,
                "epsilon": cfg.epsilon,
                "te_bits": cfg.te_bits,
                "role_key_bits": cfg.role_key_bits,
            },
        )
        self.queue = IngestQueue(cfg.queue_capacity)
        self.ledgers: dict[int, EpochLedger] = {}
        self._pipeline: IngestPipeline | None = None
        self._ingest_seconds = 0.0
        self._ingest_processed = 0
        self._costs_verified = 0  # board posts already cost-checked

    # -- plumbing -------------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.coordinator.epoch

    @property
    def announcement(self) -> EpochAnnouncement | None:
        return self.coordinator.announcement

    def ledger(self, epoch: int | None = None) -> EpochLedger:
        epoch = self.epoch if epoch is None else epoch
        if epoch not in self.ledgers:
            raise ServiceError(f"no ledger for epoch {epoch}")
        return self.ledgers[epoch]

    def _open_pipeline(self) -> IngestPipeline:
        if self._pipeline is None:
            raise ServiceError("no open epoch; call open_epoch() first")
        return self._pipeline

    def close(self) -> None:
        if self._owns_transport:
            self.board.transport.close()

    def __enter__(self) -> "MpcService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- lifecycle ------------------------------------------------------------

    def open_epoch(self) -> EpochAnnouncement:
        announcement = self.coordinator.open_epoch()
        ledger = EpochLedger(announcement.epoch)
        self.ledgers[announcement.epoch] = ledger
        self._pipeline = IngestPipeline(
            self.board,
            announcement,
            ledger,
            params=self.coordinator.proof_params,
        )
        self._ingest_seconds = 0.0
        self._ingest_processed = 0
        return announcement

    def submit(self, item: ClientInput | bytes) -> None:
        """Enqueue one submission; raises ``ServiceOverloaded`` when full."""
        self._open_pipeline()
        self.queue.submit(item)

    def ingest(self) -> int:
        """Drain and validate everything queued; returns accepted count."""
        pipeline = self._open_pipeline()
        pending = len(self.queue)
        started = time.perf_counter()  # repro-lint: disable=DET002 -- ingest-rate metric
        accepted = pipeline.drain(self.queue, self.config.batch_size)
        # repro-lint: disable=DET002 -- ingest-rate metric, never on the wire
        self._ingest_seconds += time.perf_counter() - started
        self._ingest_processed += pending
        return accepted

    def close_epoch(self, *, crash: int | None = None, seed: int | None = None) -> EpochSummary:
        """Seal, evaluate, publish, and reshare the current epoch.

        ``crash`` fail-stops that committee member before evaluation: it
        contributes neither partial decryptions nor a resharing.
        """
        coordinator = self.coordinator
        epoch = self.epoch
        pipeline = self._open_pipeline()
        self.ingest()
        ledger = self.ledger(epoch)
        coordinator.seal()
        if crash is not None:
            coordinator.crash(crash)

        started = time.perf_counter()  # repro-lint: disable=DET002 -- phase timing metric
        result, inner = coordinator.evaluate(pipeline.payloads, seed=seed)
        # repro-lint: disable=DET002 -- phase timing metric, never on the wire
        evaluate_seconds = time.perf_counter() - started

        started = time.perf_counter()  # repro-lint: disable=DET002 -- phase timing metric
        reshare_contributors = coordinator.reshare()
        # repro-lint: disable=DET002 -- phase timing metric, never on the wire
        reshare_seconds = time.perf_counter() - started

        self._pipeline = None
        cost_report = self.verify_costs()

        circuit = inner.circuit
        processed = self._ingest_processed
        return EpochSummary(
            epoch=epoch,
            workload=self.workload.name,
            population=ledger.population,
            rejections=ledger.rejection_counts(),
            result=result,
            decoded=self.workload.decode_outputs(result.outputs, ledger.population),
            contributors=result.contributors,
            reshare_contributors=tuple(reshare_contributors),
            ingest_seconds=self._ingest_seconds,
            ingest_rate=(
                processed / self._ingest_seconds
                if self._ingest_seconds > 0
                else 0.0
            ),
            evaluate_seconds=evaluate_seconds,
            reshare_seconds=reshare_seconds,
            online_bytes_per_gate=(
                inner.online_mul_bytes() / circuit.n_multiplications
                if circuit.n_multiplications
                else 0.0
            ),
            board_bytes=self.board.encoded_total_bytes(),
            cost_report=cost_report,
            inner_result=inner,
        )

    def verify_costs(self) -> ExactnessReport:
        """Byte-exactness of every envelope posted since the last check
        (each post is walked once, however long the service lives)."""
        report = verify_cost_exactness(
            bulletin=self.board,
            space=space_for_service(
                n=self.config.n,
                t=self.t,
                te_bits=self.config.te_bits,
                role_key_bits=self.config.role_key_bits,
                proof_params=self.coordinator.proof_params,
            ),
            start=self._costs_verified,
        )
        self._costs_verified += report.envelopes
        return report
