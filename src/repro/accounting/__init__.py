"""Communication metering and reporting.

Every bulletin-board post is measured here; the benchmark harness reads the
aggregates to reproduce the paper's communication claims (online O(1) per
gate, offline O(n) per gate — DESIGN.md experiment rows E1–E3).
"""

from repro.accounting.comm import CommMeter, MessageRecord
from repro.accounting.report import format_table
from repro.accounting.export import (
    dumps_report,
    loads_report,
    report_from_mpc_result,
    run_report,
)


def __getattr__(name):
    """Lazy re-exports of the symbolic cost model (requires sympy)."""
    _symbolic_names = {
        "CircuitShape",
        "CostExactnessError",
        "EnvelopeMeasurement",
        "ExactnessReport",
        "SymbolicCostModel",
        "envelope_formula",
        "formula_catalog",
        "measure_post",
        "verify_cost_exactness",
    }
    if name in _symbolic_names:
        from repro.accounting import symbolic

        return getattr(symbolic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CommMeter",
    "MessageRecord",
    "format_table",
    "dumps_report",
    "loads_report",
    "report_from_mpc_result",
    "run_report",
    # Symbolic cost model (lazy; see __getattr__).
    "CircuitShape",
    "CostExactnessError",
    "EnvelopeMeasurement",
    "ExactnessReport",
    "SymbolicCostModel",
    "envelope_formula",
    "formula_catalog",
    "measure_post",
    "verify_cost_exactness",
]
