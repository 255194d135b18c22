"""Structured tracing & metrics for the YOSO pipeline.

The communication meter (:mod:`repro.accounting`) answers *how many bytes*;
this package answers *which operations, where, and how long*:

* :class:`Tracer` — nested spans (phase → committee round → gate batch)
  with wall-clock intervals and monotonic op counters;
* :mod:`repro.observability.hooks` — the global counter sink the crypto
  layers emit into (no-op unless a tracer is installed);
* export lives with the rest of the run document: a traced result's
  :func:`repro.accounting.report_from_mpc_result` carries a ``trace``
  section (counters, per-phase wall-clock, every span).

Entry points::

    from repro.observability import Tracer
    result = run_mpc(circuit, inputs, n=6, seed=1, tracer=Tracer())
    result.trace.counters_by_phase()    # deterministic op counts
    repro.accounting.report_from_mpc_result(result)   # run document + trace

See docs/OBSERVABILITY.md for the span/counter model and how to read a
trace against the paper's O(1)-online / O(n)-offline claims.
"""

from repro.observability.hooks import activated, active, install, note
from repro.observability.tracer import (
    KIND_BATCH,
    KIND_PHASE,
    KIND_ROUND,
    KIND_SPAN,
    Span,
    Tracer,
    maybe_span,
)

__all__ = [
    "Tracer",
    "Span",
    "maybe_span",
    "KIND_PHASE",
    "KIND_ROUND",
    "KIND_BATCH",
    "KIND_SPAN",
    "activated",
    "active",
    "install",
    "note",
]
