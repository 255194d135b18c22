"""The public bulletin board.

All YOSO communication is posting to (and reading from) a public
append-only board: broadcast and point-to-point messages cost the same
(paper §3.3), point-to-point privacy comes from encrypting to the
recipient's role key.

The board is *byte-real*: every post is canonically encoded into a
:class:`~repro.wire.envelope.Envelope`, handed to the configured
:class:`~repro.wire.transport.Transport`, and stored as the delivered
bytes — readers decode on access.  The meter records the exact encoded
spans (per payload section plus the envelope framing), so reported totals
equal ``sum(len(envelope))`` over the board.  A payload the codec cannot
encode raises :class:`~repro.errors.WireEncodeError` and leaves the board,
the meter and the round untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.accounting.comm import CommMeter
from repro.errors import YosoError
from repro.observability import hooks as _hooks
from repro.wire.codec import WireCodec
from repro.wire.envelope import Envelope, decode_envelope, encode_envelope
from repro.wire.registry import kind_for_tag
from repro.wire.transport import InMemoryTransport, Transport


class Post:
    """One append-only board entry: envelope bytes plus lazy decode.

    ``encoded`` holds the full delivered envelope.  ``payload`` decodes
    the body on first access and caches the result — the decode-on-read
    semantics a real byte transport forces.
    """

    __slots__ = (
        "seq", "round", "phase", "sender", "tag", "kind",
        "encoded", "n_bytes", "_codec", "_payload", "_decoded",
    )

    def __init__(
        self,
        seq: int,
        round: int,
        phase: str,
        sender: str,
        tag: str,
        kind: str,
        encoded: bytes,
        codec: WireCodec,
    ):
        self.seq = seq
        self.round = round
        self.phase = phase
        self.sender = sender
        self.tag = tag
        self.kind = kind
        self.encoded = encoded
        self.n_bytes = len(encoded)
        self._codec = codec
        self._payload: Any = None
        self._decoded = False

    @property
    def payload(self) -> Any:
        if not self._decoded:
            self._payload = self.peek()[1]
            self._decoded = True
        return self._payload

    def peek(self) -> tuple[Envelope, Any]:
        """The parsed frame and the payload, caching neither: a walker of
        the whole board (the cost check) must not leave every post holding
        its decoded form, and parses each frame once."""
        if self._decoded:
            return self.envelope(), self._payload
        try:
            envelope = decode_envelope(self.encoded)
            payload = self._codec.decode(envelope.body)
        except Exception:
            _hooks.note(_hooks.WIRE_DECODE_FAILURES)
            raise
        _hooks.note(_hooks.WIRE_DECODES)
        return envelope, payload

    def envelope(self) -> Envelope:
        """Re-parse the stored envelope frame."""
        return decode_envelope(self.encoded)

    def __repr__(self) -> str:
        return (
            f"Post(#{self.seq} r{self.round} {self.phase} "
            f"{self.sender} {self.tag!r} {self.n_bytes}B)"
        )


@dataclass(frozen=True)
class EncodedPost:
    """A post encoded and ready for delivery, but not yet on the board.

    The asynchronous path splits :meth:`BulletinBoard.post` in two:
    :meth:`BulletinBoard.encode_post` produces this, the transport
    resolves delivery out of band, and
    :meth:`BulletinBoard.commit_delivered` meters and appends whatever
    bytes actually arrived.  ``sections`` carries the per-section encoded
    spans so the commit meters exactly like the synchronous path.
    """

    phase: str
    sender: str
    tag: str
    kind: str
    envelope: Envelope
    encoded: bytes
    sections: tuple[tuple[str, int], ...] | None


class BulletinBoard:
    """Append-only, publicly readable message board with exact metering."""

    def __init__(
        self,
        meter: CommMeter | None = None,
        transport: Transport | None = None,
        codec: WireCodec | None = None,
    ):
        self.meter = meter if meter is not None else CommMeter()
        self.transport = transport if transport is not None else InMemoryTransport()
        self.codec = codec if codec is not None else WireCodec()
        self._posts: list[Post] = []
        self._by_tag: dict[str, list[Post]] = {}
        self.round = 0

    def advance_round(self) -> int:
        self.round += 1
        return self.round

    def post(self, phase: str, sender: str, tag: str, payload: Any) -> Post | None:
        """Encode, deliver, meter, and append one message.

        A dict payload with string keys is a *sectioned* message (the
        standard shape of a role's single bundled utterance); each
        section's exact encoded span is metered under ``tag.section`` and
        the envelope framing under the bare ``tag``, so benchmarks can
        slice one committee's bytes by message kind while the totals stay
        equal to the delivered wire bytes.

        Returns ``None`` when the transport drops the message — the
        runtime treats that as the sender falling silent (fail-stop).
        Raises :class:`~repro.errors.WireEncodeError` for a payload the
        codec cannot encode, before anything is delivered or metered.
        """
        prepared = self.encode_post(phase, sender, tag, payload)
        delivered = self.transport.deliver(prepared.envelope, prepared.encoded)
        if delivered is None:
            _hooks.note(_hooks.WIRE_DROPS)
            return None
        return self.commit_delivered(prepared, delivered)

    def encode_post(
        self, phase: str, sender: str, tag: str, payload: Any
    ) -> EncodedPost:
        """Encode one message without delivering it.

        Raises :class:`~repro.errors.WireEncodeError` for codec-foreign
        payloads.
        """
        kind = kind_for_tag(tag)
        body, sections = self.codec.encode_payload(payload)
        envelope = Envelope(kind.name, sender, self.round, phase, tag, body)
        encoded = encode_envelope(envelope, kind=kind)
        _hooks.note(_hooks.WIRE_POSTS)
        _hooks.note(_hooks.WIRE_ENCODED_BYTES, len(encoded))
        return EncodedPost(
            phase, sender, tag, kind.name, envelope, encoded,
            tuple(sections) if sections is not None else None,
        )

    def commit_delivered(self, prepared: EncodedPost, delivered: bytes) -> Post:
        """Meter and append the delivered bytes of an encoded post."""
        if prepared.sections is not None:
            for key, span in prepared.sections:
                self.meter.record_exact(
                    prepared.phase, prepared.sender,
                    f"{prepared.tag}.{key}", span,
                )
            framing = len(delivered) - sum(span for _, span in prepared.sections)
            self.meter.record_exact(
                prepared.phase, prepared.sender, prepared.tag, framing
            )
        else:
            self.meter.record_exact(
                prepared.phase, prepared.sender, prepared.tag, len(delivered)
            )
        _hooks.note(_hooks.BULLETIN_POSTS)
        post = Post(
            len(self._posts), prepared.envelope.round, prepared.phase,
            prepared.sender, prepared.tag,
            kind=prepared.kind, encoded=delivered, codec=self.codec,
        )
        self._append(post)
        return post

    def _append(self, post: Post) -> None:
        self._posts.append(post)
        self._by_tag.setdefault(post.tag, []).append(post)

    # -- reading (free, public) ------------------------------------------------

    def __len__(self) -> int:
        return len(self._posts)

    def __iter__(self) -> Iterator[Post]:
        return iter(self._posts)

    def with_tag(self, tag: str) -> list[Post]:
        return list(self._by_tag.get(tag, []))

    def payloads(self, tag: str) -> list[Any]:
        return [p.payload for p in self._by_tag.get(tag, [])]

    def latest(self, tag: str) -> Any:
        posts = self._by_tag.get(tag)
        if not posts:
            raise YosoError(f"no post with tag {tag!r}")
        return posts[-1].payload

    def exists(self, tag: str) -> bool:
        return bool(self._by_tag.get(tag))

    def by_sender(self, tag: str) -> dict[str, Any]:
        """Latest payload per sender for a tag (a round's contributions)."""
        out: dict[str, Any] = {}
        for p in self._by_tag.get(tag, []):
            out[p.sender] = p.payload
        return out

    def encoded_total_bytes(self) -> int:
        """Sum of delivered envelope lengths (ground truth for the meter)."""
        return sum(p.n_bytes for p in self._posts)
