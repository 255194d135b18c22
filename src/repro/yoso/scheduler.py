"""Quorum-driven round finalization for asynchronous transports.

The synchronous driver posts, delivers, and meters inside each role
activation.  Over a cross-process transport that would serialize on every
post's network round trip, so asynchronous transports split the round:
:meth:`AsyncRoundScheduler.submit` encodes and *launches* each post
during activation, and :meth:`AsyncRoundScheduler.finalize_round` waits —
until a committee quorum of replies has arrived, plus a short straggler
grace — before committing the round to the board.

Posts are committed in submission (activation) order, so the board's
contents are byte- and order-identical to a synchronous run at the same
seed.  A post whose reply never arrives inside the window is a silent
party: the scheduler marks the submitting role crashed, exactly the §5.4
fail-stop event, and the existing crash-budget accounting decides whether
the protocol survives it.

The quorum itself comes from the runtime: ``pending - fail_stop_budget``
(at least 1), i.e. the round can close as soon as enough contributions
arrived that reconstruction could succeed even if every straggler turns
out to be crashed.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ParameterError
from repro.observability import hooks as _hooks
from repro.yoso.bulletin import BulletinBoard, EncodedPost, Post


class AsyncRoundScheduler:
    """Advance a phase once a quorum of posts has arrived.

    ``quorum_timeout_s`` is the hard per-round deadline: a role whose
    post is unresolved when it expires is fail-stop crashed.
    ``straggler_grace_s`` (default ``max(0.05, timeout/10)``) is how long
    the round lingers after quorum for late but live parties.
    """

    def __init__(
        self,
        bulletin: BulletinBoard,
        quorum_timeout_s: float = 30.0,
        straggler_grace_s: float | None = None,
    ):
        if quorum_timeout_s <= 0:
            raise ParameterError("quorum timeout must be positive")
        if straggler_grace_s is not None and straggler_grace_s < 0:
            raise ParameterError("straggler grace must be non-negative")
        self.bulletin = bulletin
        self.quorum_timeout_s = quorum_timeout_s
        self.straggler_grace_s = (
            straggler_grace_s
            if straggler_grace_s is not None
            else max(0.05, quorum_timeout_s / 10.0)
        )
        self._pending: list[tuple[Any, int, EncodedPost]] = []

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def submit(
        self, role: Any, phase: str, sender: str, tag: str, payload: Any
    ) -> None:
        """Encode and launch one post; resolution waits for finalize.

        Raises :class:`~repro.errors.WireEncodeError` for a codec-foreign
        payload, before anything is launched.
        """
        prepared = self.bulletin.encode_post(phase, sender, tag, payload)
        handle = self.bulletin.transport.begin_deliver(
            prepared.envelope, prepared.encoded
        )
        self._pending.append((role, handle, prepared))

    def finalize_round(self, quorum: int | None = None) -> list[Any]:
        """Resolve every launched post; commit arrivals, crash the silent.

        Commits in submission order (board parity with the synchronous
        driver).  Returns the roles crashed this round.
        """
        if not self._pending:
            return []
        pending, self._pending = self._pending, []
        handles = [handle for _, handle, _ in pending]
        results = self.bulletin.transport.collect(
            handles,
            quorum=quorum,
            timeout_s=self.quorum_timeout_s,
            grace_s=self.straggler_grace_s,
        )
        crashed: list[Any] = []
        for role, handle, prepared in pending:
            delivered = results.get(handle)
            if delivered is None:
                _hooks.note(_hooks.WIRE_DROPS)
                if role is not None:
                    role.crashed = True
                crashed.append(role)
            else:
                self.bulletin.commit_delivered(prepared, delivered)
        return crashed

    def committed_posts(self) -> list[Post]:
        """The board so far (convenience for tests)."""
        return list(self.bulletin)
