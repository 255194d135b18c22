"""Batched, backpressured ingest: queue → validation ladder → bulletin.

Submissions (in-process :class:`~repro.service.wire.ClientInput` objects
or raw codec bytes from another process) land in a bounded
:class:`IngestQueue`; when it is full the service *sheds* the submission
with an explicit :class:`~repro.errors.ServiceOverloaded` instead of
growing without bound.  The :class:`IngestPipeline` then drains the
queue in batches and walks each candidate down a ladder of checks, each
failure mapped to a distinct :class:`~repro.errors.SubmissionRejected`
subclass (the adversarial-ingest tests pin these down one by one):

1. undecodable / wrong shape        → ``MalformedSubmissionError``
2. ciphertext under a foreign key   → ``OversizedCiphertextError``
3. wrong epoch tag                  → ``EpochMismatchError``
4. duplicate client id              → ``ReplayedClientError``
5. Σ-proof fails                    → ``InvalidProofError``

Only survivors are posted to the bulletin board — a rejected submission
never reaches evaluation, and never costs wire bytes.  The proof check
(the only expensive step) runs through the engine's batched verifier, so
one ingest batch costs one ``pow_many`` sweep.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.engine.batch import verify_plaintext_knowledge_many
from repro.errors import (
    EpochMismatchError,
    InvalidProofError,
    MalformedSubmissionError,
    OversizedCiphertextError,
    ParameterError,
    ReplayedClientError,
    ReproError,
    ServiceOverloaded,
    SubmissionRejected,
)
from repro.nizk.params import ProofParams
from repro.service.wire import (
    ClientInput,
    EpochAnnouncement,
    client_input_tag,
    proof_context,
)

__all__ = ["EpochLedger", "IngestPipeline", "IngestQueue", "Rejection"]


@dataclass(frozen=True)
class Rejection:
    """One rejected submission: who, which rung of the ladder, and why."""

    client_id: str | None
    error: str
    detail: str


@dataclass
class EpochLedger:
    """The per-epoch record of who got in and what was turned away: ids,
    not submissions — the service keeps every ledger, the decoded inputs
    go with the epoch's :class:`IngestPipeline` at close."""

    epoch: int
    accepted: set[str] = field(default_factory=set)
    rejections: list[Rejection] = field(default_factory=list)

    @property
    def population(self) -> int:
        return len(self.accepted)

    def reject(self, client_id: str | None, exc: SubmissionRejected) -> None:
        self.rejections.append(
            Rejection(client_id, type(exc).__name__, str(exc))
        )

    def rejection_counts(self) -> dict[str, int]:
        return dict(Counter(r.error for r in self.rejections))


class IngestQueue:
    """Bounded FIFO of pending submissions; full means shed, not queued."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ParameterError("ingest queue needs capacity >= 1")
        self.capacity = capacity
        self._items: deque = deque()

    def __len__(self) -> int:
        return len(self._items)

    def submit(self, item: Any) -> None:
        if len(self._items) >= self.capacity:
            raise ServiceOverloaded(
                f"ingest queue at capacity ({self.capacity}); "
                "submission shed — retry after the next drain"
            )
        self._items.append(item)

    def drain(self, limit: int | None = None) -> list:
        count = len(self._items) if limit is None else min(limit, len(self._items))
        return [self._items.popleft() for _ in range(count)]


class IngestPipeline:
    """Validates submission batches for one epoch and posts survivors."""

    def __init__(
        self,
        board,
        announcement: EpochAnnouncement,
        ledger: EpochLedger,
        *,
        params: ProofParams | None = None,
        engine=None,
        phase: str = "ingest",
    ):
        self.board = board
        self.announcement = announcement
        self.ledger = ledger
        self.public = announcement.key.public_key()
        self.params = (
            params
            if params is not None
            else ProofParams.for_modulus_bits(self.public.n.bit_length())
        )
        self.engine = engine
        self.phase = phase
        #: Every accepted submission of the epoch, in acceptance order.
        self.payloads: list[ClientInput] = []

    # -- the validation ladder ------------------------------------------------

    def _decode(self, item: Any) -> ClientInput:
        if isinstance(item, (bytes, bytearray)):
            try:
                item = self.board.codec.decode(bytes(item))
            except SubmissionRejected:
                raise
            except (ReproError, ValueError) as exc:
                raise MalformedSubmissionError(
                    f"undecodable submission: {exc}"
                ) from exc
        if not isinstance(item, ClientInput):
            raise MalformedSubmissionError(
                f"expected a ClientInput payload, got {type(item).__name__}"
            )
        return item

    def _screen(self, payload: ClientInput, seen: set) -> None:
        ann = self.announcement
        if len(payload.ciphertexts) != ann.slots:
            raise MalformedSubmissionError(
                f"workload {ann.workload!r} expects {ann.slots} slots, "
                f"got {len(payload.ciphertexts)}"
            )
        for ciphertext in payload.ciphertexts:
            if ciphertext.public != self.public:
                raise OversizedCiphertextError(
                    "ciphertext under a foreign modulus "
                    f"({ciphertext.public.n.bit_length()} bits, epoch key is "
                    f"{self.public.n.bit_length()}); refusing oversized or "
                    "misdirected ciphertexts"
                )
        if payload.epoch != ann.epoch:
            raise EpochMismatchError(
                f"submission tagged for epoch {payload.epoch} "
                f"during epoch {ann.epoch}"
            )
        if payload.client_id in self.ledger.accepted or payload.client_id in seen:
            raise ReplayedClientError(
                f"client {payload.client_id!r} already submitted this epoch"
            )

    def process(self, items: Iterable[Any]) -> list[ClientInput]:
        """Run one batch down the ladder; returns the accepted payloads."""
        candidates: list[ClientInput] = []
        seen: set[str] = set()
        for item in items:
            client_id = getattr(item, "client_id", None)
            try:
                payload = self._decode(item)
                client_id = payload.client_id
                self._screen(payload, seen)
            except SubmissionRejected as exc:
                self.ledger.reject(client_id, exc)
                continue
            seen.add(payload.client_id)
            candidates.append(payload)

        triples = [
            (
                ciphertext,
                proof,
                proof_context(payload.epoch, payload.client_id, slot),
            )
            for payload in candidates
            for slot, (ciphertext, proof) in enumerate(
                zip(payload.ciphertexts, payload.proofs)
            )
        ]
        verdicts = verify_plaintext_knowledge_many(
            self.public, triples, self.params, engine=self.engine
        )

        accepted: list[ClientInput] = []
        cursor = 0
        for payload in candidates:
            width = len(payload.ciphertexts)
            ok = all(verdicts[cursor:cursor + width])
            cursor += width
            if not ok:
                self.ledger.reject(
                    payload.client_id,
                    InvalidProofError(
                        "plaintext-knowledge proof failed for "
                        f"client {payload.client_id!r}"
                    ),
                )
                continue
            self.ledger.accepted.add(payload.client_id)
            self.payloads.append(payload)
            self.board.post(
                self.phase,
                payload.client_id,
                client_input_tag(payload.epoch, payload.client_id),
                payload,
            )
            accepted.append(payload)
        return accepted

    def drain(self, queue: IngestQueue, batch_size: int = 512) -> int:
        """Drain the queue in batches; returns how many were accepted."""
        total = 0
        while len(queue):
            total += len(self.process(queue.drain(batch_size)))
        return total
