"""The epoch state machine: announce, seal, evaluate, publish, reshare.

One :class:`EpochCoordinator` drives the whole service lifetime on a
single bulletin board::

    open_epoch() ── OPEN ──► seal() ── SEALED ──► evaluate() ── PUBLISHED
         ▲                                                          │
         └────────────────── RESHARED ◄── reshare() ◄───────────────┘

Every epoch has its own committee of ``n`` freshly sampled parties (the
YOSO discipline: nobody serves twice), each holding a Shamir share of
the *same* long-lived threshold Paillier key.  ``reshare()`` moves the
key to the next committee through the core protocol's proven resharing
path — :func:`repro.core.resharing.build_resharing` messages posted on
the board under ``svc-reshare-*`` tags, publicly verified once and
recombined by each recipient through a
:class:`repro.core.resharing.Handoff`.  A fail-stop crash (:meth:`crash`)
simply means that member posts nothing: as long as at least ``t+1``
resharings verify, the key survives; its partial decryptions are likewise
just absent from the combine set.

Committee sizing comes from the sortition planner via
:meth:`repro.core.params.ProtocolParams.from_gap` — the service reuses
the exact (n, t) the paper's analysis assigns to a corruption gap ε.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from repro.core.resharing import Handoff, build_resharing
from repro.engine.batch import partial_decrypt_many
from repro.errors import ParameterError, ServiceError
from repro.nizk.params import ProofParams
from repro.paillier.paillier import PaillierKeyPair, _keypair_from_primes
from repro.paillier.primes import random_prime
from repro.paillier.threshold import ThresholdPaillier
from repro.rng import fresh_rng
from repro.service.wire import (
    ClientInput,
    EpochAnnouncement,
    EpochResult,
    epoch_tag,
    reshare_tag,
    result_tag,
)
from repro.service.workloads import ServiceWorkload
from repro.wire.codec import KeyAnnouncement

__all__ = [
    "CommitteeMember",
    "EpochCoordinator",
    "EpochState",
    "ServiceCommittee",
]


class EpochState(str, Enum):
    OPEN = "open"
    SEALED = "sealed"
    PUBLISHED = "published"
    RESHARED = "reshared"


@dataclass
class CommitteeMember:
    """One epoch-committee seat: an index, a role keypair, a liveness bit."""

    index: int
    keypair: PaillierKeyPair
    crashed: bool = False


@dataclass
class ServiceCommittee:
    """The n parties holding this epoch's threshold-key shares."""

    epoch: int
    members: list[CommitteeMember]

    def public_keys(self):
        return [m.keypair.public for m in self.members]

    def member(self, index: int) -> CommitteeMember:
        for m in self.members:
            if m.index == index:
                return m
        raise ParameterError(f"no committee member with index {index}")

    def surviving(self) -> list[CommitteeMember]:
        return [m for m in self.members if not m.crashed]


class EpochCoordinator:
    """Drives epochs of one workload over one board and one threshold key."""

    def __init__(
        self,
        board,
        workload: ServiceWorkload,
        *,
        n: int,
        t: int,
        te_bits: int = 64,
        role_key_bits: int = 64,
        rng: random.Random | None = None,
        input_window: int = 1,
        inner_kwargs: dict | None = None,
        sender: str = "coordinator",
    ):
        if t + 1 > n:
            raise ParameterError(f"t+1={t + 1} shares cannot come from n={n}")
        self.board = board
        self.workload = workload
        self.n = n
        self.t = t
        self.role_key_bits = role_key_bits
        self.rng = rng if rng is not None else fresh_rng()
        self.input_window = input_window
        self.inner_kwargs = dict(inner_kwargs or {})
        self.sender = sender

        self.tpk, shares = ThresholdPaillier.keygen(
            n, t, bits=te_bits, rng=self.rng
        )
        # Both sides of every Σ-proof (client submissions here, resharing
        # proofs below) derive challenge sizes from the announced modulus
        # itself, so clients need no out-of-band parameter channel.
        self.proof_params = ProofParams.for_modulus_bits(
            self.tpk.n.bit_length()
        )
        self.shares = {s.index: s for s in shares}
        self.verifications = {s.index: s.verification for s in shares}
        self.committee = self._fresh_committee(0)
        self.epoch = 0
        self.state: EpochState | None = None
        self.announcement: EpochAnnouncement | None = None
        # Workload circuits depend only on the population size; successive
        # epochs with the same head-count reuse the built circuit (the
        # inner MPC's compiled program and packed-sharing matrices are
        # likewise reused via their own caches keyed on the circuit and
        # the scheme geometry).
        self._circuit_cache: dict[int, object] = {}

    # -- committee sampling ---------------------------------------------------

    def _fresh_keypair(self) -> PaillierKeyPair:
        half = self.role_key_bits // 2
        p = random_prime(half, rng=self.rng)
        q = random_prime(half, rng=self.rng)
        while q == p:
            q = random_prime(half, rng=self.rng)
        return _keypair_from_primes(p, q)

    def _fresh_committee(self, epoch: int) -> ServiceCommittee:
        return ServiceCommittee(
            epoch,
            [
                CommitteeMember(i, self._fresh_keypair())
                for i in range(1, self.n + 1)
            ],
        )

    def _require(self, *states) -> None:
        if self.state not in states:
            wanted = " or ".join(str(s) for s in states)
            raise ServiceError(
                f"epoch {self.epoch} is in state {self.state}, need {wanted}"
            )

    # -- lifecycle ------------------------------------------------------------

    def open_epoch(self) -> EpochAnnouncement:
        """Announce the epoch: workload, window, and the epoch key."""
        self._require(None, EpochState.RESHARED)
        announcement = EpochAnnouncement(
            epoch=self.epoch,
            workload=self.workload.name,
            slots=self.workload.slots(),
            input_window=self.input_window,
            key=KeyAnnouncement(self.tpk.n),
            verification_base=self.tpk.verification_base,
        )
        self.board.advance_round()
        # Cross-process decoders learn the epoch key both ways: in-stream
        # (decoding the KeyAnnouncement registers it) and via the
        # transport's own key broadcast (a no-op in memory/sim).
        self.board.transport.announce_keys([self.tpk.n])
        self.board.post(
            "epoch", self.sender, epoch_tag(self.epoch), announcement
        )
        self.board.advance_round()  # all ingest posts share this round
        self.state = EpochState.OPEN
        self.announcement = announcement
        return announcement

    def seal(self) -> None:
        """Close the input window; late submissions miss this epoch."""
        self._require(EpochState.OPEN)
        self.board.advance_round()
        self.state = EpochState.SEALED

    def crash(self, index: int) -> None:
        """Fail-stop one committee member (it posts nothing from now on)."""
        member = self.committee.member(index)
        if member.crashed:
            return
        if len(self.committee.surviving()) - 1 < self.t + 1:
            raise ServiceError(
                f"crashing member {index} would leave fewer than "
                f"t+1={self.t + 1} live shares"
            )
        member.crashed = True

    def evaluate(self, accepted: Sequence[ClientInput], seed: int | None = None):
        """Aggregate, threshold-decrypt, run the committee MPC, publish.

        Returns ``(EpochResult, inner MpcResult)``; the result is also
        posted on the board under the epoch's ``svc-result-*`` tag.
        """
        from repro.core import run_mpc

        self._require(EpochState.SEALED)
        if not accepted:
            raise ServiceError(
                f"epoch {self.epoch} sealed with no accepted submissions"
            )
        columns = [
            [payload.ciphertexts[slot] for payload in accepted]
            for slot in range(self.workload.slots())
        ]
        aggregates = self.workload.aggregate(self.tpk, columns)
        contributors, totals = self._threshold_decrypt(aggregates)

        population = len(accepted)
        circuit = self._circuit_cache.get(population)
        if circuit is None:
            circuit = self.workload.circuit(population)
            self._circuit_cache[population] = circuit
        inner = run_mpc(
            circuit,
            self.workload.panel_inputs(totals, population),
            seed=seed if seed is not None else self.rng.randrange(1 << 30),
            **self.inner_kwargs,
        )
        outputs = inner.outputs[self.workload.recipient]

        result = EpochResult(
            epoch=self.epoch,
            workload=self.workload.name,
            outputs=tuple(int(v) for v in outputs),
            contributors=tuple(contributors),
        )
        self.board.advance_round()
        self.board.post(
            "publish", self.sender, result_tag(self.epoch), result
        )
        self.state = EpochState.PUBLISHED
        return result, inner

    def _threshold_decrypt(self, aggregates):
        """TDec of the aggregate vector by the surviving committee."""
        survivors = self.committee.surviving()
        if len(survivors) < self.t + 1:
            raise ServiceError(
                f"only {len(survivors)} live members, need t+1={self.t + 1}"
            )
        by_member = {
            m.index: partial_decrypt_many(
                self.tpk, self.shares[m.index], aggregates
            )
            for m in survivors
        }
        contributors = sorted(by_member)
        totals = [
            ThresholdPaillier.combine(
                self.tpk, [by_member[i][j] for i in contributors]
            )
            for j in range(len(aggregates))
        ]
        return contributors, totals

    def reshare(self) -> list[int]:
        """Hand the key to a fresh committee; returns the contributor set.

        Crashed members contribute nothing; the handoff succeeds from any
        ``t+1`` publicly verified resharings.  Afterwards the coordinator
        holds the next epoch's committee, shares, and verification keys,
        and the epoch counter advances.
        """
        self._require(EpochState.PUBLISHED)
        next_committee = self._fresh_committee(self.epoch + 1)
        recipient_pks = next_committee.public_keys()
        # Cross-process decoders must know the recipient role keys before
        # the first resharing envelope arrives — the same contract as
        # YosoNetwork.sample_committee for the core protocol's committees.
        self.board.transport.announce_keys([pk.n for pk in recipient_pks])
        previous_epoch = next(iter(self.shares.values())).epoch

        self.board.advance_round()
        for member in self.committee.surviving():
            message = build_resharing(
                self.tpk,
                self.shares[member.index],
                recipient_pks,
                self.proof_params,
                rng=self.rng,
            )
            self.board.post(
                "reshare",
                f"member-{member.index}",
                reshare_tag(self.epoch, member.index),
                {"tsk": message},
            )

        # Read back from the board (the byte-real record is authoritative).
        handoff = Handoff.from_posts(
            self.tpk,
            {
                member.index: self.board.latest(
                    reshare_tag(self.epoch, member.index)
                )
                for member in self.committee.surviving()
            },
            self.verifications,
            recipient_pks,
            self.proof_params,
            previous_epoch,
        )
        self.shares = {
            member.index: handoff.receive(
                self.tpk, member.index, member.keypair.secret
            )
            for member in next_committee.members
        }
        self.verifications = handoff.verifications
        self.committee = next_committee
        self.epoch += 1
        self.state = EpochState.RESHARED
        self.announcement = None
        return handoff.contributors
