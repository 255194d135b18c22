"""Batched packed-sharing kernel: exact modular arithmetic on rows of shares.

Every packed-Shamir operation over a fixed ``(n, degree, k)`` geometry is
a linear map: dealing is "evaluate the interpolant through the slot
constraints and the random extra points at the party points 1..n",
reconstruction is "evaluate the interpolant through ``degree+1`` shares at
the secret slots".  Once the evaluation points are fixed, both maps are
matrices whose rows are Lagrange coefficient vectors — and those matrices
only depend on the geometry, not on the secrets.  This module provides the
matrix-vector engine behind
:meth:`~repro.sharing.packed.PackedShamirScheme.share_many` /
``reconstruct_many`` / ``canonical_many``, and the element-wise ring
arithmetic the packed evaluators run on the rows it returns:

* **numpy backend** — moduli up to 63 bits (the IT and Turbopack field):
  a row is a ``uint64`` array and every operation is exact mod p, with no
  intermediate above 2^64, no object dtype and no float (the argument is
  in docs/PERFORMANCE.md, "Rows in, rows out").
* **int backend** — Python-int rows (lists) for the Paillier rings: one
  big-int accumulation per output element, one final reduction.

The backend follows from the modulus width and the inner dimension alone
(:func:`resolve_backend`).  Both must match the single-sharing
polynomial path (``share`` / ``reconstruct`` / ``canonical_sharing``)
bit for bit, which ``tests/test_sharing_batched.py`` pins.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import ParameterError

#: Largest modulus bit-length the uint64 kernel handles exactly: a sum of
#: two residues and Shoup's remainder (< 2p) must fit in 64 bits.
NUMPY_MODULUS_BITS = 63

#: Largest inner dimension of a numpy product (the limb sums, 3·c·2^42,
#: would allow far more; this is the committee size the kernel is tested to).
NUMPY_MAX_INNER = 4096

_LIMB_BITS = 21
_LIMB_MASK = np.uint64((1 << _LIMB_BITS) - 1)
_HALF_BITS = np.uint64(32)
_HALF_MASK = np.uint64((1 << 32) - 1)

IntMatrix = tuple[tuple[int, ...], ...]


def numpy_supports(modulus: int, inner: int) -> bool:
    """Whether the uint64 kernel is exact for this modulus/shape."""
    return modulus.bit_length() <= NUMPY_MODULUS_BITS and inner <= NUMPY_MAX_INNER


def resolve_backend(modulus: int, inner: int) -> str:
    """Concrete backend (``numpy`` / ``int``) for one shape."""
    return "numpy" if numpy_supports(modulus, inner) else "int"


def row_dtype(modulus: int) -> type:
    """Element type of a table of ring values: ``uint64`` where the numpy
    backend runs ``modulus`` (element-wise work has no inner dimension),
    Python ints otherwise — one fancy-indexed algorithm serves every ring."""
    return np.uint64 if resolve_backend(modulus, 1) == "numpy" else object


# -- matrix products ------------------------------------------------------------

def matmul_mod(
    rows: IntMatrix,
    vectors: Any,
    modulus: int,
    backend: str,
) -> Any:
    """``[rows @ v mod modulus for v in vectors]`` on the chosen backend.

    ``rows`` is an ``r × c`` integer matrix with entries already reduced
    mod ``modulus``; ``vectors`` is ``B`` vectors of length ``c`` with
    entries in ``[0, modulus)``.  numpy: a ``B × c`` array-like in, a
    ``B × r`` ``uint64`` array out; int: lists of int rows in and out.
    """
    if backend == "numpy":
        inner = len(rows[0])
        if not numpy_supports(modulus, inner):
            raise ParameterError(
                "the numpy kernel cannot run exactly: "
                f"modulus has {modulus.bit_length()} bits "
                f"(limit {NUMPY_MODULUS_BITS}), inner dimension {inner} "
                f"(limit {NUMPY_MAX_INNER})"
            )
        stack = np.asarray(vectors, dtype=np.uint64).reshape(-1, inner)
        return _matmul_numpy(rows, stack, modulus)
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


def _matmul_numpy(rows: IntMatrix, stack: np.ndarray, modulus: int) -> np.ndarray:
    """Exact Z_p product via 21-bit limbs over uint64.

    With ``v = Σ_j v_j·2^(21j)``, ``M·v = Σ_j (M·2^(21j) mod p)·v_j``: the
    three vector limbs sit side by side along the inner dimension against
    the three weighted copies of ``M``.  Each copy is itself split into
    limbs ``A_i``, so every product is below 2^42 and one matmul per
    ``i`` sums them exactly; ``Σ_i 2^(21i)·(A_i·v mod p)`` folds the
    three partial results back with two constant multiplications.
    """
    weighted = np.array(
        [
            [(entry << (_LIMB_BITS * j)) % modulus for j in range(3) for entry in row]
            for row in rows
        ],
        dtype=np.uint64,
    )  # r × 3c
    limbs = np.concatenate(
        [(stack >> np.uint64(_LIMB_BITS * j)) & _LIMB_MASK for j in range(3)],
        axis=1,
    )  # B × 3c
    p = np.uint64(modulus)
    total = (limbs @ (weighted & _LIMB_MASK).T) % p
    for i in (1, 2):
        part = (limbs @ ((weighted >> np.uint64(_LIMB_BITS * i)) & _LIMB_MASK).T) % p
        total = add_mod(
            total, _times_constant(part, (1 << (_LIMB_BITS * i)) % modulus, modulus),
            modulus,
        )
    return total


# -- element-wise ring arithmetic ---------------------------------------------------
#
# Operands are the rows the kernel produces: ``uint64`` arrays with entries
# in [0, p) on the numpy backend; Python ints (or object arrays of them) on
# the int backend, where plain big-int arithmetic is already exact.

def _is_row(*operands: Any) -> bool:
    return any(
        isinstance(x, np.ndarray) and x.dtype == np.uint64 for x in operands
    )


def add_mod(a: Any, b: Any, modulus: int) -> Any:
    """``(a + b) mod modulus`` element-wise for ``a < p``, ``b ≤ p``
    (``a + b < 2p ≤ 2^64``; ``add_mod(a, p − b, p)`` subtracts)."""
    if not _is_row(a, b):
        return (a + b) % modulus
    p = np.uint64(modulus)
    total = np.asarray(a, dtype=np.uint64) + np.asarray(b, dtype=np.uint64)
    return np.where(total >= p, total - p, total)


def mul_mod(a: Any, b: Any, modulus: int) -> Any:
    """``a·b mod modulus`` element-wise, exact for every modulus ≤ 63 bits.

    The 128-bit product ``hi·2^64 + lo`` is reduced as
    ``hi·(2^64 mod p) + (lo mod p)``: ``hi < 2^62`` times a constant is
    one Shoup multiplication, ``lo mod p`` is native.
    """
    if not _is_row(a, b):
        return a * b % modulus
    high, low = _wide_product(
        np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64)
    )
    return add_mod(
        _times_constant(high, (1 << 64) % modulus, modulus),
        low % np.uint64(modulus),
        modulus,
    )


def sum_mod(tables: Any, modulus: int) -> Any:
    """``Σ tables mod modulus`` (an array's first axis, or any non-empty
    iterable of equal-shape tables): one modular addition per table, so
    no partial sum leaves ``[0, p)`` however many there are (eleven
    residues near 2^61 would already overflow a plain ``uint64`` sum)."""
    tables = iter(tables)
    total = next(tables)
    for table in tables:
        total = add_mod(total, table, modulus)
    return total


def _wide_product(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo)`` with ``x·y = hi·2^64 + lo``, from 32-bit halves."""
    x_lo, x_hi = x & _HALF_MASK, x >> _HALF_BITS
    y_lo, y_hi = y & _HALF_MASK, y >> _HALF_BITS
    cross_a, cross_b = x_lo * y_hi, x_hi * y_lo  # each < 2^64
    carry = (
        ((x_lo * y_lo) >> _HALF_BITS) + (cross_a & _HALF_MASK) + (cross_b & _HALF_MASK)
    ) >> _HALF_BITS
    high = x_hi * y_hi + (cross_a >> _HALF_BITS) + (cross_b >> _HALF_BITS) + carry
    return high, x * y  # the low word wraps mod 2^64, as wanted


def _times_constant(x: np.ndarray, w: int, modulus: int) -> np.ndarray:
    """``x·w mod p`` for ``x < 2^64`` and a constant ``w < p`` (Shoup).

    With ``w' = ⌊w·2^64/p⌋`` and ``q = ⌊x·w'/2^64⌋``, the true value
    ``x·w − q·p`` lies in ``[0, 2p)``, so its wrapped uint64 difference
    is exact and one conditional subtraction finishes the reduction.
    """
    quotient, _ = _wide_product(x, np.asarray((w << 64) // modulus, dtype=np.uint64))
    p = np.uint64(modulus)
    rest = x * np.uint64(w) - quotient * p
    return np.where(rest >= p, rest - p, rest)
