"""Machine-readable run reports.

Serializes a protocol execution's communication profile (per-phase and
per-tag bytes/messages, parameters, circuit shape) to a stable JSON
document — the artifact a CI pipeline or a paper-plotting script consumes.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.accounting.comm import CommMeter
from repro.errors import ParameterError

EXPORT_VERSION = 2


def run_report(
    label: str,
    meter: CommMeter,
    parameters: Mapping[str, Any] | None = None,
    circuit_stats: Mapping[str, int] | None = None,
    transport=None,
) -> dict[str, Any]:
    """A JSON-ready report of one metered execution.

    ``transport`` (a :class:`repro.wire.transport.Transport`, optional)
    adds a delivery section: counters plus the simulated and the measured
    wall time per phase side by side.
    """
    phases = sorted(meter.by_phase())
    report = {
        "version": EXPORT_VERSION,
        "label": label,
        "parameters": dict(parameters or {}),
        "circuit": dict(circuit_stats or {}),
        "totals": {
            "bytes": meter.total_bytes(),
            "messages": meter.total_messages(),
        },
        "phases": {
            phase: {
                "bytes": meter.total_bytes(phase),
                "messages": meter.total_messages(phase),
                "by_tag": meter.by_tag(phase),
            }
            for phase in phases
        },
    }
    if transport is not None:
        stats = transport.stats
        wall_phases = sorted(
            set(stats.sim_s_by_phase) | set(stats.real_s_by_phase)
        )
        report["transport"] = {
            "name": transport.name,
            "description": transport.describe(),
            "delivered": stats.delivered,
            "dropped": stats.dropped,
            "delivered_bytes": stats.delivered_bytes,
            "sim_clock_s": stats.sim_clock_s,
            "real_wait_s": stats.real_wait_s,
            "wall_s_by_phase": {
                phase: {
                    "simulated": stats.sim_s_by_phase.get(phase, 0.0),
                    "real": stats.real_s_by_phase.get(phase, 0.0),
                }
                for phase in wall_phases
            },
        }
    return report


def report_from_mpc_result(result) -> dict[str, Any]:
    """Convenience: a report straight from a :class:`repro.core.MpcResult`."""
    params = result.params
    return run_report(
        label="yoso-mpc",
        meter=result.meter,
        parameters={
            "n": params.n,
            "t": params.t,
            "k": params.k,
            "epsilon": params.epsilon,
            "te_bits": params.te_bits,
            "role_key_bits": params.role_key_bits,
            "fail_stop_budget": params.fail_stop_budget,
        },
        circuit_stats={
            "gates": len(result.circuit.gates),
            "inputs": result.circuit.n_inputs,
            "multiplications": result.circuit.n_multiplications,
            "outputs": result.circuit.n_outputs,
            "batches": len(result.plan.mul_batches),
        },
        transport=result.transport,
    )


def dumps_report(report: Mapping[str, Any]) -> str:
    """Canonical JSON text for a report."""
    return json.dumps(report, sort_keys=True, indent=2)


def loads_report(text: str) -> dict[str, Any]:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"invalid report JSON: {exc}") from exc
    if report.get("version") != EXPORT_VERSION:
        raise ParameterError(
            f"unsupported report version {report.get('version')!r}"
        )
    return report
