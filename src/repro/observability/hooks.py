"""Global counter hooks for the crypto layers.

The crypto packages (``repro.paillier``, ``repro.sharing``,
``repro.fields``) call :func:`note` at their operation sites.  With no
tracer installed — the default — a ``note`` is a single global load and an
``is None`` test, so untraced executions pay ~zero cost.

:class:`~repro.observability.tracer.Tracer` installation is process-global
(the simulation is single-threaded); :func:`activated` scopes it to a
``with`` block so concurrent/untraced callers are never polluted by a
traced run's leftovers.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.observability.tracer import Tracer

# Counter names, grouped by the layer that emits them. ----------------------

PAILLIER_ENCRYPT = "paillier.encrypt"
PAILLIER_DECRYPT = "paillier.decrypt"
PAILLIER_PARTIAL_DECRYPT = "paillier.partial_decrypt"
PAILLIER_COMBINE = "paillier.combine"
PAILLIER_EXP = "paillier.exp"  # modular exponentiations in Z_{N²}

THRESHOLD_RESHARE = "threshold.reshare"
THRESHOLD_RECOMBINE = "threshold.recombine"

REENCRYPT_CONTRIBUTION = "reencrypt.contribution"
REENCRYPT_RECOVERY = "reencrypt.recovery"  # values handed across the bridge

SHARING_DEALT = "sharing.sharings_dealt"
SHARING_RECONSTRUCTED = "sharing.reconstructions"
SHARING_ROBUST_RECONSTRUCTED = "sharing.robust_reconstructions"
SHARING_CANONICAL = "sharing.canonical_shares"

LAGRANGE_INTERPOLATION = "lagrange.interpolations"
LAGRANGE_INTEGER = "lagrange.integer_interpolations"

BULLETIN_POSTS = "bulletin.posts"

WIRE_POSTS = "wire.posts"                      # envelopes encoded for posting
WIRE_ENCODED_BYTES = "wire.encoded_bytes"      # total envelope bytes produced
WIRE_DECODES = "wire.decodes"                  # envelope bodies decoded on read
WIRE_DECODE_FAILURES = "wire.decode_failures"  # rejected (garbled) envelopes
WIRE_DROPS = "wire.drops"                      # posts lost by the transport

WIRE_SOCKET_FRAMES_OUT = "wire.socket.frames_out"  # frames sent to workers
WIRE_SOCKET_FRAMES_IN = "wire.socket.frames_in"    # frames received back
WIRE_SOCKET_BYTES_OUT = "wire.socket.bytes_out"    # bytes sent to workers
WIRE_SOCKET_BYTES_IN = "wire.socket.bytes_in"      # bytes received back
WIRE_SOCKET_TIMEOUTS = "wire.socket.timeouts"      # posts unresolved at deadline
WIRE_SOCKET_WORKERS = "wire.socket.workers"        # worker processes started

CIRCUIT_COMPILES = "circuit.compiles"              # programs lowered from circuits
CIRCUIT_COMPILED_GATES = "circuit.compiled_gates"  # gates across those compiles
CIRCUIT_COMPILE_CACHE_HITS = "circuit.compile_cache_hits"  # memoized programs served

ENGINE_BATCHES = "engine.batches"          # pow_many calls, any engine
ENGINE_JOBS = "engine.jobs"                # exponentiations routed through it
ENGINE_POOL_BATCHES = "engine.pool_batches"  # batches dispatched to the pool
ENGINE_POOL_JOBS = "engine.pool_jobs"      # jobs inside pooled batches
ENGINE_CHUNKS = "engine.chunks"            # pickled chunks shipped to workers
ENGINE_FALLBACKS = "engine.fallbacks"      # pool failures degraded to serial

_active: Tracer | None = None


def install(tracer: Tracer | None) -> None:
    """Make ``tracer`` the global counter sink (None disables)."""
    global _active
    _active = tracer


def active() -> Tracer | None:
    return _active


@contextmanager
def activated(tracer: Tracer | None):
    """Install ``tracer`` for the block, restoring the previous sink after."""
    global _active
    previous = _active
    _active = tracer
    try:
        yield tracer
    finally:
        _active = previous


def note(name: str, n: int = 1) -> None:
    """Record ``n`` occurrences of ``name`` if a tracer is installed."""
    if _active is not None:
        _active.count(name, n)
