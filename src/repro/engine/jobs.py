"""Picklable job specs and the worker kernel for bulk modular arithmetic.

A *job* is the smallest unit the execution engine understands: one modular
exponentiation ``(base, exponent, modulus)`` as a plain tuple of ints, or
one *simultaneous multi-exponentiation* ``((base, ...), (exponent, ...),
modulus)`` worth ``Π base_i^exponent_i mod modulus`` — the same triple with
tuples where the single power has ints, told apart by that alone.
Tuples of ints pickle cheaply and unambiguously, which is what lets
:class:`~repro.engine.engine.ProcessPoolEngine` ship chunks of them to
worker processes without dragging any protocol object graph along.

:func:`compute_pows` is the shared kernel: both the serial engine and the
pool workers run it, so serial and parallel execution are bit-identical by
construction.  It evaluates every job through this process's
:class:`~repro.engine.fixedbase.FixedBaseStore`, which answers from a
windowed fixed-base table once a base has repeated often enough to pay
for one and from ``builtins.pow`` otherwise — the same integer either way.
A multi-exponentiation goes to :func:`multi_pow` instead: its bases are a
batch verifier's commitments, which nobody sees twice, so its tables are
built for the call and die with it.

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

#: One modular exponentiation: (base, exponent, modulus) — or, with tuples
#: of ints for base and exponent, one multi-exponentiation (see above).
PowJob = tuple  # tuple[int, int, int] | tuple[tuple[int, ...], tuple[int, ...], int]

#: Digit width of :func:`multi_pow`.  A base's table costs ``2^w - 2``
#: multiplications; on the 126- and 252-bit exponents of a batch
#: verification 4 bits measured 6–9 % faster than 3 or 5.
STRAUS_WINDOW = 4

_TABLES = FixedBaseStore()


def multi_pow(bases: Sequence[int], exponents: Sequence[int], modulus: int) -> int:
    """``Π pow(b, e, modulus) mod modulus`` in one interleaved pass (Straus).

    One chain of squarings is shared by every base: per ``STRAUS_WINDOW``-bit
    digit position, the accumulator is raised to ``2^w`` once and multiplied
    by ``b^digit`` for each base whose exponent has a non-zero digit there.
    n bases with ``L``-bit exponents cost ``L`` squarings instead of ``n·L``.
    A negative exponent inverts its base first and raises the builtin's
    ``ValueError`` when there is no inverse; so does a zero modulus.
    """
    if modulus == 0:
        raise ValueError("pow() 3rd argument cannot be 0")
    size = 1 << STRAUS_WINDOW
    mask = size - 1
    # columns[i]: the table entries to multiply in at digit position i.
    columns: list[list[int]] = []
    for base, exponent in zip(bases, exponents, strict=True):
        if exponent < 0:
            base, exponent = pow(base, -1, modulus), -exponent
        power = base = base % modulus
        row = [1, base]
        for _ in range(size - 2):
            power = power * base % modulus
            row.append(power)
        position = 0
        while exponent:
            if position == len(columns):
                columns.append([])
            digit = exponent & mask
            if digit:
                columns[position].append(row[digit])
            exponent >>= STRAUS_WINDOW
            position += 1
    acc = 1
    for column in reversed(columns):
        acc = pow(acc, size, modulus)
        for entry in column:
            acc = acc * entry % modulus
    return acc % modulus


def compute_pows(jobs: Sequence[PowJob]) -> list[int]:
    """Evaluate every job in order; results match ``pow(b, e, m)`` exactly
    (a multi-exponentiation's: the product of its powers, reduced)."""
    table_pow = _TABLES.pow
    return [
        multi_pow(base, exponent, modulus) if isinstance(base, tuple)
        else table_pow(base, exponent, modulus)
        for base, exponent, modulus in jobs
    ]


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
