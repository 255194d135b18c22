"""The run document: one JSON record of one protocol execution.

:func:`run_report` is the only writer and :func:`loads_report` the only
reader.  The document carries the communication profile (per-phase and
per-tag bytes/messages, parameters, circuit shape), a ``transport``
section when the run had a transport, and a ``trace`` section when it had
a tracer: op counters in total and per phase, wall-clock per phase, and
every span, pre-order, with its *own* counters.  Field by field:
docs/OBSERVABILITY.md, "The run document".
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Mapping

from repro.accounting.comm import CommMeter
from repro.errors import ParameterError

if TYPE_CHECKING:
    from repro.core.protocol import MpcResult
    from repro.observability.tracer import Span, Tracer
    from repro.wire.transport import Transport

EXPORT_VERSION = 3

#: field -> allowed types, per level of the document (bool never passes).
_DOCUMENT: dict[str, tuple[type, ...]] = {
    "label": (str,),
    "parameters": (dict,),
    "circuit": (dict,),
    "totals": (dict,),
    "phases": (dict,),
}
_TRACE: dict[str, tuple[type, ...]] = {
    "counters": (dict,),
    "counters_by_phase": (dict,),
    "wall_s_by_phase": (dict,),
    "spans": (list,),
}
_SPAN: dict[str, tuple[type, ...]] = {
    "id": (int,),
    "parent": (int, type(None)),
    "name": (str,),
    "kind": (str,),
    "phase": (str,),
    "attrs": (dict,),
    "start_s": (int, float),
    "duration_s": (int, float),
    "counters": (dict,),
}


def run_report(
    label: str,
    meter: CommMeter,
    parameters: Mapping[str, Any] | None = None,
    circuit_stats: Mapping[str, int] | None = None,
    transport: Transport | None = None,
    tracer: Tracer | None = None,
) -> dict[str, Any]:
    """A JSON-ready report of one metered execution.

    ``transport`` adds a delivery section: counters plus the simulated and
    the measured wall time per phase side by side.  ``tracer`` adds the
    ``trace`` section.
    """
    phases = sorted(meter.by_phase())
    report: dict[str, Any] = {
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
    if tracer is not None:
        report["trace"] = {
            "counters": tracer.counter_totals(),
            "counters_by_phase": tracer.counters_by_phase(),
            "wall_s_by_phase": {
                phase: round(s, 9)
                for phase, s in tracer.wall_s_by_phase().items()
            },
            "spans": [_span_record(span) for span in tracer.spans()],
        }
    return report


def _span_record(span: Span) -> dict[str, Any]:
    """One span as the document stores it (own counters, not rolled up)."""
    return {
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "kind": span.kind,
        "phase": span.phase,
        "attrs": {k: v for k, v in span.attrs.items() if k != "phase"},
        "start_s": round(span.start_s, 9),
        "duration_s": round(span.duration_s, 9),
        "counters": dict(span.counters),
    }


def report_from_mpc_result(result: MpcResult) -> dict[str, Any]:
    """The run document of a :class:`repro.core.MpcResult` (with its
    ``trace`` section when the run was traced)."""
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
            "batches": len(result.program.plan.mul_batches),
        },
        transport=result.transport,
        tracer=result.trace,
    )


def dumps_report(report: Mapping[str, Any]) -> str:
    """Canonical JSON text for a report."""
    return json.dumps(report, sort_keys=True, indent=2)


def loads_report(text: str) -> dict[str, Any]:
    """Parse and validate a run document.

    Raises :class:`~repro.errors.ParameterError` unless ``text`` is a JSON
    object of this version whose required fields have their types, whose
    span ids are unique, and whose every non-null span ``parent`` names a
    span of the same document.
    """
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"invalid report JSON: {exc}") from exc
    if not isinstance(report, dict):
        raise ParameterError("report is not a JSON object")
    if report.get("version") != EXPORT_VERSION:
        raise ParameterError(
            f"unsupported report version {report.get('version')!r}"
        )
    _check_fields(report, _DOCUMENT, "report")
    if "trace" in report:
        trace = report["trace"]
        _check_fields(trace, _TRACE, "trace")
        ids: set[int] = set()
        for position, span in enumerate(trace["spans"]):
            _check_fields(span, _SPAN, f"span #{position}")
            if span["id"] in ids:
                raise ParameterError(f"duplicate span id {span['id']}")
            ids.add(span["id"])
        for span in trace["spans"]:
            if span["parent"] is not None and span["parent"] not in ids:
                raise ParameterError(
                    f"span {span['id']} references unknown parent {span['parent']}"
                )
    return report


def _check_fields(
    record: Any, schema: Mapping[str, tuple[type, ...]], where: str
) -> None:
    if not isinstance(record, dict):
        raise ParameterError(f"{where} is not an object")
    for name, types in schema.items():
        if name not in record:
            raise ParameterError(f"{where} is missing {name!r}")
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ParameterError(
                f"{where}.{name} has type {type(value).__name__}"
            )
