"""The communication meter.

YOSO communication is bulletin-board posts (broadcast and point-to-point
cost the same — paper §3.3), so a single meter on the bulletin captures the
protocol's entire communication.  Each post arrives already encoded by
:mod:`repro.wire` and the meter records the encoded byte spans
(:meth:`CommMeter.record_exact`).  Every record is tagged with its phase
and sender, enabling the per-phase / per-gate breakdowns the benchmarks
report.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class MessageRecord:
    """One span of delivered wire bytes, as seen by the meter."""

    phase: str
    sender: str
    tag: str
    n_bytes: int


@dataclass
class CommMeter:
    """Accumulates :class:`MessageRecord`s and serves aggregates."""

    records: list[MessageRecord] = field(default_factory=list)

    def record_exact(self, phase: str, sender: str, tag: str, n_bytes: int) -> int:
        """Record a span of encoded wire bytes."""
        self.records.append(MessageRecord(phase, sender, tag, int(n_bytes)))
        return int(n_bytes)

    # -- aggregates ------------------------------------------------------------

    def total_bytes(self, phase: str | None = None) -> int:
        return sum(
            r.n_bytes for r in self.records if phase is None or r.phase == phase
        )

    def total_messages(self, phase: str | None = None) -> int:
        return sum(1 for r in self.records if phase is None or r.phase == phase)

    def by_phase(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for r in self.records:
            out[r.phase] += r.n_bytes
        return dict(out)

    def by_tag(self, phase: str | None = None) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for r in self.records:
            if phase is None or r.phase == phase:
                out[r.tag] += r.n_bytes
        return dict(out)

    def messages_by_tag(self, phase: str | None = None) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for r in self.records:
            if phase is None or r.phase == phase:
                out[r.tag] += 1
        return dict(out)

    def senders(self, phase: str | None = None) -> set[str]:
        return {r.sender for r in self.records if phase is None or r.phase == phase}

    def merge(self, other: "CommMeter") -> None:
        self.records.extend(other.records)

    def reset(self) -> None:
        self.records.clear()
