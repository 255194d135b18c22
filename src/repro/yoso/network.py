"""The synchronous protocol environment.

Drives committees round by round: each activation hands the role a
:class:`~repro.yoso.roles.RoleView`, collects its single queued message,
applies the adversary (corrupted roles may rewrite or withhold; crashed
roles never post), posts to the bulletin, and kills the role (Spoke).

Rushing order: honest members of a committee are activated before corrupted
ones, so malicious transforms can depend on all honest messages of the
round — the strongest scheduling the model allows (§2).

Over an asynchronous transport (``transport.is_async``) the environment
routes posts through an :class:`~repro.yoso.scheduler.AsyncRoundScheduler`
instead: activations launch deliveries, and the round is finalized — a
quorum of arrivals committed, stragglers fail-stop crashed — before the
board advances.  The rushing guarantee (corrupted roles reading honest
same-round posts) holds only under synchronous transports; adversarial
transform tests therefore run over ``memory``.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.accounting.comm import CommMeter
from repro.errors import YosoError
from repro.observability.tracer import KIND_ROUND, Tracer, maybe_span
from repro.rng import fresh_rng
from repro.wire.transport import Transport
from repro.yoso.adversary import Adversary, honest_adversary
from repro.yoso.assignment import IdealRoleAssignment
from repro.yoso.bulletin import BulletinBoard
from repro.yoso.committees import Committee
from repro.yoso.roles import Role, RoleView

#: A role program: inspects its view, optionally calls view.speak(...) once.
RoleProgram = Callable[[RoleView], None]


class ProtocolEnvironment:
    """Owns the bulletin, the adversary, and the round schedule."""

    def __init__(
        self,
        assignment: IdealRoleAssignment | None = None,
        adversary: Adversary | None = None,
        rng: random.Random | None = None,
        meter: CommMeter | None = None,
        tracer: Tracer | None = None,
        transport: Transport | None = None,
        quorum_timeout_s: float | None = None,
    ):
        self.rng = rng if rng is not None else fresh_rng()
        self.assignment = (
            assignment if assignment is not None else IdealRoleAssignment(rng=self.rng)
        )
        self.adversary = adversary if adversary is not None else honest_adversary()
        self.bulletin = BulletinBoard(meter, transport=transport)
        self.phase = "setup"
        self.tracer = tracer
        #: How many silent parties a round may close without (§5.4 budget);
        #: the runtime sets this from ``params.fail_stop_budget``.
        self.quorum_margin = 0
        self.scheduler = None
        if getattr(self.bulletin.transport, "is_async", False):
            from repro.yoso.scheduler import AsyncRoundScheduler

            self.scheduler = AsyncRoundScheduler(
                self.bulletin,
                quorum_timeout_s=(
                    quorum_timeout_s if quorum_timeout_s is not None else 30.0
                ),
            )

    @property
    def transport(self) -> Transport:
        return self.bulletin.transport

    @property
    def meter(self) -> CommMeter:
        return self.bulletin.meter

    def set_phase(self, phase: str) -> None:
        self.phase = phase

    # -- role-key publication ------------------------------------------------

    def sample_committee(self, name: str, size: int) -> Committee:
        """Sample a committee and announce its public role keys.

        Role keys are the ideal assignment's public output; announcing
        their moduli lets cross-process decoders resolve ciphertexts
        compressed against them without sharing encode-time state.
        """
        committee = self.assignment.sample_committee(name, size)
        self.transport.announce_keys(
            [public.n for public in committee.public_keys()]
        )
        return committee

    def client(self, name: str) -> Role:
        """Create a client role and announce its public key."""
        role = self.assignment.client(name)
        self.transport.announce_keys([role.public_key.n])
        return role

    def posts_by_index(self, committee: Committee) -> dict[int, dict]:
        """Latest payload of each committee member, keyed by member index."""
        index_of = {str(role.id): role.id.index for role in committee}
        return {
            index_of[sender]: payload
            for sender, payload in self.bulletin.by_sender(committee.name).items()
            if sender in index_of and isinstance(payload, dict)
        }

    # -- activation ---------------------------------------------------------

    def activate(self, role: Role, program: RoleProgram) -> None:
        """Run one role's program; post its message; kill the role."""
        if role.spoken:
            raise YosoError(f"role {role.id} was already activated")
        if role.crashed or self.adversary.crashes(role.id, self.phase):
            role.crashed = True
            role.mark_spoken()  # a crashed role still dies silently
            return
        view = RoleView(role, self.bulletin, self.rng)
        if role.corrupted:
            self.adversary.observe(role)
        program(view)
        message = view.queued_message()
        if message is not None:
            tag, payload = message
            if role.corrupted:
                payload = self.adversary.apply(role.id, self.phase, tag, payload)
            if payload is not None:
                if self.scheduler is not None:
                    # Launch now, resolve at round finalization — a reply
                    # that never arrives crashes the role there.
                    self.scheduler.submit(
                        role, self.phase, str(role.id), tag, payload
                    )
                else:
                    post = self.bulletin.post(
                        self.phase, str(role.id), tag, payload
                    )
                    if post is None:
                        # The transport lost the role's single utterance: to
                        # every observer the role simply never spoke — exactly
                        # the fail-stop silence of §5.4.
                        role.crashed = True
        role.mark_spoken()

    def _finalize_round(self) -> None:
        """Close the round on an asynchronous transport (quorum + grace)."""
        if self.scheduler is None or not self.scheduler.has_pending:
            return
        quorum = max(1, self.scheduler.pending_count - self.quorum_margin)
        self.scheduler.finalize_round(quorum=quorum)

    def run_committee(self, committee: Committee, program: RoleProgram) -> None:
        """Activate a whole committee in one round, honest-first (rushing)."""
        with maybe_span(
            self.tracer, committee.name, kind=KIND_ROUND,
            phase=self.phase, committee=committee.name, members=committee.size,
        ):
            honest = [r for r in committee if not r.corrupted]
            corrupt = [r for r in committee if r.corrupted]
            for role in honest + corrupt:
                self.activate(role, program)
            self._finalize_round()
            self.bulletin.advance_round()

    def run_role(self, role: Role, program: RoleProgram) -> None:
        """Activate a single role (e.g. a client) as its own round."""
        with maybe_span(
            self.tracer, str(role.id), kind=KIND_ROUND,
            phase=self.phase, committee=None, members=1,
        ):
            self.activate(role, program)
            self._finalize_round()
            self.bulletin.advance_round()
