"""Batched packed-sharing kernel: exact modular matrix products.

Every packed-Shamir operation over a fixed ``(n, degree, k)`` geometry is
a linear map: dealing is "evaluate the interpolant through the slot
constraints and the random extra points at the party points 1..n",
reconstruction is "evaluate the interpolant through ``degree+1`` shares at
the secret slots".  Once the evaluation points are fixed, both maps are
matrices whose rows are Lagrange coefficient vectors — and those matrices
only depend on the geometry, not on the secrets.  This module provides the
matrix-vector engine behind
:meth:`~repro.sharing.packed.PackedShamirScheme.share_many` /
``reconstruct_many`` / ``canonical_many``:

* **numpy backend** — exact Z_p arithmetic for moduli up to 63 bits (the
  IT variant's Mersenne field): operands are split into three 26-bit
  limbs, the nine limb-pair products run as ``uint64`` matmuls (safe for
  inner dimensions up to 4096 because ``4096 · (2^26)^2 ≤ 2^64``), the
  partial sums are reduced mod p, and the limb weights are folded back in
  with exact Python-int (object-dtype) arithmetic.
* **int backend** — pure-int rows for 2048-bit moduli (the core
  protocol's Z_N): one big-int accumulation per output element with a
  single final reduction.

The backend follows from the modulus width and the inner dimension alone
(:func:`resolve_backend`).  Both must match the single-sharing
polynomial path (``share`` / ``reconstruct`` / ``canonical_sharing``)
bit for bit, which ``tests/test_sharing_batched.py`` pins.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ParameterError

try:  # numpy ships with the repo, but the kernel must degrade gracefully
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]

#: Largest modulus bit-length the uint64 limb kernel handles exactly.
NUMPY_MODULUS_BITS = 63

#: Largest inner dimension for which the limb matmul cannot overflow:
#: every limb product is < 2^52, and uint64 holds 4096 of them.
NUMPY_MAX_INNER = 4096

_LIMB_BITS = 26
_LIMB_MASK = (1 << _LIMB_BITS) - 1

IntMatrix = tuple[tuple[int, ...], ...]


def numpy_available() -> bool:
    return _np is not None


def numpy_supports(modulus: int, inner: int) -> bool:
    """Whether the uint64 limb kernel is exact for this modulus/shape."""
    return (
        _np is not None
        and modulus.bit_length() <= NUMPY_MODULUS_BITS
        and inner <= NUMPY_MAX_INNER
    )


def resolve_backend(modulus: int, inner: int) -> str:
    """Concrete backend (``numpy`` / ``int``) for one shape."""
    return "numpy" if numpy_supports(modulus, inner) else "int"


def matmul_mod(
    rows: IntMatrix,
    vectors: Sequence[Sequence[int]],
    modulus: int,
    backend: str,
) -> list[list[int]]:
    """``[rows @ v mod modulus for v in vectors]`` on the chosen backend.

    ``rows`` is an ``r × c`` integer matrix with entries already reduced
    mod ``modulus``; every vector has length ``c`` with entries in
    ``[0, modulus)``.  Returns one length-``r`` list per input vector.
    """
    if not vectors:
        return []
    if backend == "numpy":
        inner = len(vectors[0])
        if not numpy_supports(modulus, inner):
            raise ParameterError(
                "the numpy kernel cannot run exactly: "
                f"modulus has {modulus.bit_length()} bits "
                f"(limit {NUMPY_MODULUS_BITS}), inner dimension {inner} "
                f"(limit {NUMPY_MAX_INNER})"
                + ("" if _np is not None else ", numpy not importable")
            )
        return _matmul_numpy(rows, vectors, modulus)
    if backend == "int":
        return _matmul_int(rows, vectors, modulus)
    raise ParameterError(f"matmul_mod got non-matrix backend {backend!r}")


def _matmul_int(
    rows: IntMatrix, vectors: Sequence[Sequence[int]], modulus: int
) -> list[list[int]]:
    """Big-int path: exact for any modulus (2048-bit Z_N included)."""
    return [
        [sum(m * v for m, v in zip(row, vec) if v) % modulus for row in rows]
        for vec in vectors
    ]


def _matmul_numpy(
    rows: IntMatrix, vectors: Sequence[Sequence[int]], modulus: int
) -> list[list[int]]:
    """Exact Z_p matmul via 26-bit limb decomposition over uint64."""
    assert _np is not None
    matrix = _np.array(rows, dtype=_np.uint64)  # r × c
    stack = _np.array(vectors, dtype=_np.uint64).T  # c × B
    # Partial products grouped by limb weight t = i + j, reduced mod p so
    # every intermediate stays strictly below 2^63 (sums below 2^64).
    partials: dict[int, object] = {}
    for i in range(3):
        m_limb = (matrix >> _np.uint64(_LIMB_BITS * i)) & _np.uint64(_LIMB_MASK)
        if not m_limb.any():
            continue
        for j in range(3):
            v_limb = (stack >> _np.uint64(_LIMB_BITS * j)) & _np.uint64(_LIMB_MASK)
            if not v_limb.any():
                continue
            part = (m_limb @ v_limb) % _np.uint64(modulus)
            t = i + j
            if t in partials:
                partials[t] = (partials[t] + part) % _np.uint64(modulus)
            else:
                partials[t] = part
    if not partials:
        return [[0] * len(rows) for _ in vectors]
    # Fold the 2^(26t) limb weights back in with exact Python-int
    # arithmetic (object dtype): the heavy O(r·c·B) work already happened
    # in uint64, this is O(r·B·len(partials)).
    total = None
    for t, arr in partials.items():
        term = arr.astype(object) * ((1 << (_LIMB_BITS * t)) % modulus)
        total = term if total is None else total + term
    reduced = total % modulus
    return [[int(v) for v in col] for col in reduced.T.tolist()]
