"""Picklable job specs and the worker kernel for bulk modular arithmetic.

A *job* is the smallest unit the execution engine understands: one modular
exponentiation ``(base, exponent, modulus)`` as a plain tuple of ints.
Tuples of ints pickle cheaply and unambiguously, which is what lets
:class:`~repro.engine.engine.ProcessPoolEngine` ship chunks of them to
worker processes without dragging any protocol object graph along.

:func:`compute_pows` is the shared kernel: both the serial engine and the
pool workers run it, so serial and parallel execution are bit-identical by
construction.  It evaluates every job through this process's
:class:`~repro.engine.fixedbase.FixedBaseStore`, which answers from a
windowed fixed-base table once a base has repeated often enough to pay
for one and from ``builtins.pow`` otherwise — the same integer either way.

The store is the one piece of state the kernel keeps between batches.  It
is bounded (a few hundred sighting counts, a fixed byte budget of tables,
least-recently-used eviction), it is per process (a pool worker has its
own), and :func:`repro.engine.engine.activated` — the scope of one
``YosoMpc.run`` — starts from an empty one, so a run's speed never depends
on what ran before it.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.fixedbase import FixedBaseStore

#: One modular exponentiation: (base, exponent, modulus).
PowJob = tuple  # tuple[int, int, int]

_TABLES = FixedBaseStore()


def compute_pows(jobs: Sequence[PowJob]) -> list[int]:
    """Evaluate every job in order; results match ``pow(b, e, m)`` exactly."""
    table_pow = _TABLES.pow
    return [table_pow(base, exponent, modulus) for base, exponent, modulus in jobs]


def clear_tables() -> None:
    """Forget every sighting and table of this process's store."""
    _TABLES.clear()


def run_pow_chunk(jobs: Sequence[PowJob]) -> list[int]:
    """The pool worker entry point (module-level, hence picklable)."""
    return compute_pows(jobs)


def chunk_jobs(jobs: Sequence[PowJob], n_chunks: int) -> list[list[PowJob]]:
    """Split ``jobs`` into ``n_chunks`` contiguous, size-balanced chunks.

    Contiguity + the fixed chunk count make the parallel result order
    deterministic for a given job list.
    """
    jobs = list(jobs)
    n = len(jobs)
    if n == 0:
        return []
    n_chunks = max(1, min(n_chunks, n))
    size, extra = divmod(n, n_chunks)
    chunks: list[list[PowJob]] = []
    start = 0
    for i in range(n_chunks):
        end = start + size + (1 if i < extra else 0)
        chunks.append(jobs[start:end])
        start = end
    return chunks
