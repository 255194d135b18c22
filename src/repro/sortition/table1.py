"""Table 1 of the paper: sample sortition parameters, and our regeneration.

:data:`TABLE1_PAPER` transcribes the published table verbatim (None = ⊥);
:func:`generate_table1` recomputes every cell from the Section 6 analysis.
Claim ``T1`` of ``benchmarks/claims.py`` prints both side by side and
EXPERIMENTS.md records the deltas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import SortitionError
from repro.sortition.analysis import DEFAULT_SECURITY, SecurityParameters, analyze

#: The C values and f values spanning the published table.
TABLE1_C_VALUES = (1000, 5000, 10000, 20000, 40000)
TABLE1_F_VALUES = (0.05, 0.10, 0.15, 0.20, 0.25)


@dataclass(frozen=True)
class Table1Row:
    """One row: (C, f) -> (t, c, c', ε, k); None fields mean ⊥."""

    c_param: int
    f: float
    t: int | None
    committee_size: int | None
    committee_size_no_gap: int | None
    epsilon: float | None
    packing_factor: int | None

    @property
    def feasible(self) -> bool:
        return self.t is not None


#: Verbatim transcription of the published Table 1.
TABLE1_PAPER: tuple[Table1Row, ...] = (
    Table1Row(1000, 0.05, 446, 949, 893, 0.03, 28),
    Table1Row(1000, 0.10, None, None, None, None, None),
    Table1Row(1000, 0.15, None, None, None, None, None),
    Table1Row(1000, 0.20, None, None, None, None, None),
    Table1Row(1000, 0.25, None, None, None, None, None),
    Table1Row(5000, 0.05, 1078, 4699, 2157, 0.27, 1271),
    Table1Row(5000, 0.10, 1721, 4925, 3444, 0.15, 741),
    Table1Row(5000, 0.15, 2293, 5106, 4588, 0.05, 259),
    Table1Row(5000, 0.20, None, None, None, None, None),
    Table1Row(5000, 0.25, None, None, None, None, None),
    Table1Row(10000, 0.05, 1754, 9518, 3509, 0.32, 3004),
    Table1Row(10000, 0.10, 2937, 9841, 5876, 0.20, 1982),
    Table1Row(10000, 0.15, 4004, 10098, 8009, 0.10, 1045),
    Table1Row(10000, 0.20, 4983, 10319, 9968, 0.02, 175),
    Table1Row(10000, 0.25, None, None, None, None, None),
    Table1Row(20000, 0.05, 2998, 19264, 5998, 0.34, 6633),
    Table1Row(20000, 0.10, 5216, 19723, 10433, 0.24, 4645),
    Table1Row(20000, 0.15, 7237, 20088, 14476, 0.14, 2806),
    Table1Row(20000, 0.20, 9107, 20401, 18215, 0.05, 1093),
    Table1Row(20000, 0.25, None, None, None, None, None),
    Table1Row(40000, 0.05, 5331, 38907, 10664, 0.36, 14121),
    Table1Row(40000, 0.10, 9552, 39558, 19106, 0.26, 10226),
    Table1Row(40000, 0.15, 13437, 40074, 26875, 0.16, 6600),
    Table1Row(40000, 0.20, 17047, 40517, 34096, 0.08, 3211),
    Table1Row(40000, 0.25, 20408, 40911, 40818, 0.01, 47),
)


def generate_table1(
    sec: SecurityParameters = DEFAULT_SECURITY,
) -> list[Table1Row]:
    """Recompute every (C, f) cell of Table 1 from the analysis."""
    rows: list[Table1Row] = []
    for c_param in TABLE1_C_VALUES:
        for f in TABLE1_F_VALUES:
            try:
                g = analyze(c_param, f, sec)
            except SortitionError:
                rows.append(Table1Row(c_param, f, None, None, None, None, None))
                continue
            # Display conventions matching the published table: t is floored
            # (it matches all 17 feasible cells exactly); c and c' round the
            # un-floored values.
            rows.append(
                Table1Row(
                    c_param=c_param,
                    f=f,
                    t=math.floor(g.t),
                    committee_size=round(g.committee_size),
                    committee_size_no_gap=round(g.committee_size_no_gap),
                    epsilon=round(g.epsilon, 2),
                    packing_factor=g.packing_factor,
                )
            )
    return rows


def paper_row(c_param: int, f: float) -> Table1Row:
    """Look up the published row for (C, f)."""
    for row in TABLE1_PAPER:
        if row.c_param == c_param and abs(row.f - f) < 1e-9:
            return row
    raise KeyError(f"no published row for C={c_param}, f={f}")
