"""The crypto execution engine: serial and process-pool backends.

The offline phase of the protocol spends essentially all of its wall-clock
in big-integer modular exponentiation (threshold-Paillier encryptions,
partial decryptions, TEval products, verification values).  These are
*independent* operations produced in bulk, so they parallelize perfectly —
what this module provides is the machinery to do that without giving up
the repo's determinism guarantees:

* :class:`SerialEngine` evaluates jobs in order in-process (the default —
  zero new failure modes, zero IPC).
* :class:`ProcessPoolEngine` chunks a batch across a ``multiprocessing``
  pool.  Chunks are contiguous and results are flattened back in input
  order, so the output is bit-identical to the serial engine's.  Pool
  construction or dispatch failure degrades gracefully to the serial
  kernel (counted under ``engine.fallbacks``).

Engine selection is process-global, mirroring
:mod:`repro.observability.hooks`: deep crypto layers call :func:`active`
rather than threading an engine argument through every signature, and
:class:`~repro.core.protocol.YosoMpc` scopes its engine with
:func:`activated` for the duration of a run.

Determinism: engines never draw randomness — they evaluate exponentiations
whose operands the caller already fixed.  A seeded run therefore produces
byte-identical transcripts whatever the engine or worker count, and
whatever the kernel's fixed-base table store (see
:mod:`repro.engine.fixedbase`) happens to hold: a table changes how fast a
power arrives, never its value.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.engine.jobs import (
    PowJob,
    chunk_jobs,
    clear_tables,
    compute_pows,
    run_pow_chunk,
)
from repro.observability import hooks as _hooks
from repro.observability.tracer import KIND_BATCH, maybe_span

#: Batches smaller than this stay in-process even on a pool engine: the
#: pickle + dispatch round-trip costs more than the exponentiations.
MIN_PARALLEL_JOBS = 32

#: Chunks per worker when no explicit chunk size is configured.  Mild
#: oversubscription smooths out uneven chunk costs (exponent sizes vary).
CHUNKS_PER_WORKER = 4


class CryptoEngine:
    """Interface: evaluate a batch of independent modular exponentiations.

    Implementations must return results in job order and must be
    bit-identical to ``[pow(b, e, m) for b, e, m in jobs]`` — for a
    multi-exponentiation job (see :mod:`repro.engine.jobs`), to the product
    of its powers reduced modulo ``m``.
    """

    name = "abstract"
    workers = 0

    def pow_many(self, jobs: Sequence[PowJob]) -> list[int]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (idempotent)."""

    def __enter__(self) -> "CryptoEngine":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def describe(self) -> str:
        return self.name


class SerialEngine(CryptoEngine):
    """Current behaviour: evaluate in-process, in order (the default)."""

    name = "serial"

    def pow_many(self, jobs: Sequence[PowJob]) -> list[int]:
        jobs = list(jobs)
        _note_batch(len(jobs))
        return compute_pows(jobs)


class ProcessPoolEngine(CryptoEngine):
    """Chunk batches across a ``multiprocessing`` pool, order-preserving.

    The pool is created lazily on the first batch large enough to ship;
    any failure to create it (sandboxes without semaphores, exotic
    platforms) or to dispatch to it permanently degrades this engine to
    the serial kernel — correctness is never at stake, only speed.
    """

    name = "pool"

    def __init__(
        self,
        workers: int,
        chunk_size: int | None = None,
        min_parallel: int = MIN_PARALLEL_JOBS,
        start_method: str | None = None,
    ):
        self.workers = max(1, int(workers))
        self.chunk_size = chunk_size
        self.min_parallel = min_parallel
        self.start_method = start_method
        self._pool = None
        self._broken = False

    # -- pool lifecycle -----------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None and not self._broken:
            try:
                import multiprocessing

                context = multiprocessing.get_context(self.start_method)
                self._pool = context.Pool(processes=self.workers)
            except Exception:
                self._broken = True
                _hooks.note(_hooks.ENGINE_FALLBACKS)
        return self._pool

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    # -- execution ----------------------------------------------------------

    def _n_chunks(self, n_jobs: int) -> int:
        if self.chunk_size is not None and self.chunk_size > 0:
            return -(-n_jobs // self.chunk_size)
        return self.workers * CHUNKS_PER_WORKER

    def pow_many(self, jobs: Sequence[PowJob]) -> list[int]:
        jobs = list(jobs)
        _note_batch(len(jobs))
        if len(jobs) < self.min_parallel:
            return compute_pows(jobs)
        pool = self._ensure_pool()
        if pool is None:
            return compute_pows(jobs)
        chunks = chunk_jobs(jobs, self._n_chunks(len(jobs)))
        _hooks.note(_hooks.ENGINE_POOL_BATCHES)
        _hooks.note(_hooks.ENGINE_POOL_JOBS, len(jobs))
        _hooks.note(_hooks.ENGINE_CHUNKS, len(chunks))
        tracer = _hooks.active()
        with maybe_span(
            tracer, "engine-batch", kind=KIND_BATCH, engine=self.name,
            jobs=len(jobs), chunks=len(chunks), workers=self.workers,
        ):
            try:
                results = pool.map(run_pow_chunk, chunks)
            except Exception:
                self._broken = True
                self.close()
                _hooks.note(_hooks.ENGINE_FALLBACKS)
                return compute_pows(jobs)
        return [value for chunk in results for value in chunk]

    def describe(self) -> str:
        state = "broken" if self._broken else "ok"
        return f"pool(workers={self.workers}, {state})"


def _note_batch(n_jobs: int) -> None:
    _hooks.note(_hooks.ENGINE_BATCHES)
    _hooks.note(_hooks.ENGINE_JOBS, n_jobs)


# -- the process-global active engine ---------------------------------------

_DEFAULT = SerialEngine()
_active: CryptoEngine = _DEFAULT


def active() -> CryptoEngine:
    """The engine the crypto layers currently route bulk work through."""
    return _active


def install(engine: CryptoEngine | None) -> None:
    """Make ``engine`` the global engine (None restores the serial default)."""
    global _active
    _active = engine if engine is not None else _DEFAULT


@contextmanager
def activated(engine: CryptoEngine | None) -> Iterator[CryptoEngine]:
    """Install ``engine`` for the block, restoring the previous one after.

    The block is one run: it starts with an empty fixed-base table store,
    so its speed does not depend on tables a previous run left behind.
    """
    global _active
    previous = _active
    _active = engine if engine is not None else _DEFAULT
    clear_tables()
    try:
        yield _active
    finally:
        _active = previous


def exp_many(jobs: Sequence[PowJob]) -> list[int]:
    """``active().pow_many(jobs)``, each job counted under ``paillier.exp``.

    For call sites that issue a handful of exponentiations at a time (one
    Σ-proof, one public resharing check): the work reaches the engine's
    kernel, and the ledger sees it, in one line.
    """
    _hooks.note(_hooks.PAILLIER_EXP, len(jobs))
    return _active.pow_many(jobs)


def multi_exp(bases: Sequence[int], exponents: Sequence[int], modulus: int) -> int:
    """``Π base_i^exponent_i mod modulus`` as one multi-exponentiation job.

    Every base is counted under ``paillier.exp``: the counter keeps
    meaning "exponentiations asked for", whatever pass serves them.
    """
    _hooks.note(_hooks.PAILLIER_EXP, len(bases))
    (value,) = _active.pow_many([(tuple(bases), tuple(exponents), modulus)])
    return value


def make_engine(
    workers: int = 0, chunk_size: int | None = None
) -> CryptoEngine:
    """Engine for a worker count: 0 → serial, N > 0 → N-process pool."""
    if workers and workers > 0:
        return ProcessPoolEngine(workers, chunk_size=chunk_size)
    return SerialEngine()
