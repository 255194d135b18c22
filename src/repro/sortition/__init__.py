"""Role assignment with a gap: the Section 6 committee-size analysis.

Generalizes Benhamouda et al.'s cryptographic-sortition tail bounds from
corruption ratio 1/2 to ``1/2 − ε``, computes the paper's Table 1, and
cross-checks the bounds by Monte-Carlo simulation at observable security
levels.
"""

from repro.sortition.analysis import (
    GapParameters,
    SecurityParameters,
    analyze,
    epsilon_one,
    epsilon_two,
    epsilon_three_bounds,
    max_gap,
)
from repro.sortition.table1 import TABLE1_PAPER, Table1Row, generate_table1
from repro.sortition.sortition import SortitionOutcome, sample_committee_sizes, simulate_sortition

__all__ = [
    "GapParameters",
    "SecurityParameters",
    "analyze",
    "epsilon_one",
    "epsilon_two",
    "epsilon_three_bounds",
    "max_gap",
    "TABLE1_PAPER",
    "Table1Row",
    "generate_table1",
    "SortitionOutcome",
    "sample_committee_sizes",
    "simulate_sortition",
]
