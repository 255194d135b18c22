"""Shamir and packed-Shamir secret sharing over a ring.

Packed Shamir (Franklin–Yung) stores a vector of ``k`` secrets at the
evaluation points ``0, -1, ..., -(k-1)`` of a single degree-``d`` polynomial
with shares at points ``1..n``; it is the communication-saving engine of the
paper (DESIGN.md §3).
"""

from repro.sharing.decoding import berlekamp_welch, gaussian_solve
from repro.sharing.shamir import Share, ShamirScheme
from repro.sharing.kernel import (
    NUMPY_MODULUS_BITS,
    matmul_mod,
    resolve_backend,
)
from repro.sharing.packed import (
    PackedShare,
    PackedSharing,
    PackedShamirScheme,
    packed_scheme,
    secret_slots,
)

__all__ = [
    "berlekamp_welch",
    "gaussian_solve",
    "Share",
    "ShamirScheme",
    "PackedShare",
    "PackedSharing",
    "PackedShamirScheme",
    "packed_scheme",
    "secret_slots",
    "NUMPY_MODULUS_BITS",
    "matmul_mod",
    "resolve_backend",
]
