"""repro.engine — the parallel crypto execution engine.

A job-based bulk-arithmetic layer for the Paillier-heavy offline path:

* :class:`~repro.engine.engine.CryptoEngine` — the interface (ordered,
  bit-deterministic ``pow_many`` over picklable ``(base, exp, mod)`` jobs,
  a job being one power or one simultaneous multi-exponentiation);
* :class:`~repro.engine.engine.SerialEngine` — in-process, the default;
* :class:`~repro.engine.engine.ProcessPoolEngine` — chunks batches across
  a ``multiprocessing`` pool with graceful serial fallback;
* batch APIs (:func:`~repro.engine.batch.encrypt_many`,
  :func:`~repro.engine.batch.partial_decrypt_many`,
  :func:`~repro.engine.batch.teval_many`,
  :func:`~repro.engine.batch.scalar_mul_many`) adopted by the protocol's
  offline / re-encryption / threshold-combine layers;
* :class:`~repro.engine.fixedbase.FixedBaseStore` — the kernel's bounded
  store of windowed :class:`~repro.engine.fixedbase.FixedBaseTable` s for
  the bases that repeat across batches, roles and epochs.

See docs/PERFORMANCE.md for the execution model and when the pool wins.

The batch APIs import the Paillier layer, which itself routes through
:mod:`repro.engine.engine` — they are exposed lazily here (PEP 562) so
``repro.paillier.threshold`` can import this package without a cycle.
"""

from repro.engine.engine import (
    CryptoEngine,
    ProcessPoolEngine,
    SerialEngine,
    activated,
    active,
    exp_many,
    install,
    make_engine,
    multi_exp,
)
from repro.engine.fixedbase import FixedBaseStore, FixedBaseTable
from repro.engine.jobs import PowJob, chunk_jobs, compute_pows, run_pow_chunk

_BATCH_EXPORTS = (
    "encrypt_many",
    "partial_decrypt_many",
    "teval_many",
    "scalar_mul_many",
)

__all__ = [
    "CryptoEngine",
    "SerialEngine",
    "ProcessPoolEngine",
    "FixedBaseStore",
    "FixedBaseTable",
    "PowJob",
    "chunk_jobs",
    "compute_pows",
    "run_pow_chunk",
    "activated",
    "active",
    "exp_many",
    "multi_exp",
    "install",
    "make_engine",
    *_BATCH_EXPORTS,
]


def __getattr__(name: str):
    if name in _BATCH_EXPORTS:
        from repro.engine import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
