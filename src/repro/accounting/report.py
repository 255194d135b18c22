"""Report formatting for the benchmark harness.

Turns raw :class:`~repro.accounting.comm.CommMeter` aggregates into the
per-gate series and ASCII tables the benchmarks print, matching the shape
of the paper's claims (who wins, by what factor, where crossovers fall).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.accounting.comm import CommMeter


@dataclass(frozen=True)
class CommReport:
    """Per-phase communication of one protocol execution."""

    label: str
    n_parties: int
    n_gates: int
    phase_bytes: Mapping[str, int]
    phase_messages: Mapping[str, int]

    @classmethod
    def from_meter(
        cls, label: str, n_parties: int, n_gates: int, meter: CommMeter
    ) -> "CommReport":
        phases = sorted(meter.by_phase())
        return cls(
            label=label,
            n_parties=n_parties,
            n_gates=n_gates,
            phase_bytes=meter.by_phase(),
            phase_messages={p: meter.total_messages(p) for p in phases},
        )

    def bytes_per_gate(self, phase: str) -> float:
        if self.n_gates == 0:
            return 0.0
        return self.phase_bytes.get(phase, 0) / self.n_gates

    @property
    def total_bytes(self) -> int:
        return sum(self.phase_bytes.values())


def per_gate_series(
    reports: Sequence[CommReport], phase: str
) -> list[tuple[int, float]]:
    """(n_parties, bytes per gate) series over a sweep — the E1/E2 output."""
    return [(r.n_parties, r.bytes_per_gate(phase)) for r in reports]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Plain monospace table (the benches print these next to paper values)."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def comparison_table(
    reports: Sequence[CommReport], phase: str
) -> str:
    """Tabulate per-gate bytes for a sweep, flagging growth vs flatness."""
    rows = []
    baseline: float | None = None
    for r in sorted(reports, key=lambda r: r.n_parties):
        per_gate = r.bytes_per_gate(phase)
        if baseline is None:
            baseline = per_gate or 1.0
        rows.append(
            (r.label, r.n_parties, r.n_gates,
             round(per_gate, 1), round(per_gate / baseline, 2))
        )
    return format_table(
        ["protocol", "n", "gates", f"{phase} B/gate", "vs smallest n"], rows
    )


def key_usage_matrix(meter: CommMeter) -> dict[str, dict[str, int]]:
    """Phase × message-kind byte matrix (the Figure 1 reconstruction).

    Message kinds are the dot-suffixed tag components the protocol posts
    (``Coff-A.beaver_a``, ``Con-keys.kff`` ...), grouped per phase — a
    structural fingerprint of which key material moves when.
    """
    matrix: dict[str, dict[str, int]] = {}
    for record in meter.records:
        matrix.setdefault(record.phase, {})
        matrix[record.phase][record.tag] = (
            matrix[record.phase].get(record.tag, 0) + record.n_bytes
        )
    return matrix


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:,.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)
