"""Per-kind size arithmetic for the canonical wire format.

Every byte the codec (:mod:`repro.wire.codec`) and the envelope framing
(:mod:`repro.wire.envelope`) emit is a deterministic function of the value
being encoded.  This module states that function *next to the encoders*,
in two interchangeable forms:

* **exact** helpers (``varint_len``, ``ints_wire_len``, ``ct_wire_len``,
  ``envelope_wire_len``) compute the encoded length of a concrete value
  without encoding it — pure integer arithmetic, used by the byte-walker
  that validates metered runs;
* **nominal** helpers (``int_nominal``, ``ct_nominal``, ``seq_nominal``)
  compute the length of a value declared only by its *bit width*.  They
  accept plain ints or sympy expressions, so the same arithmetic yields
  the closed-form formulas of :mod:`repro.accounting.symbolic`.

The difference ``nominal − exact`` is the *value slack*: minimal integer
encodings drop leading zero bytes, so an encoded run sits a few bytes
under the structural nominal.  The symbolic cost model carries that slack
as an explicit per-kind symbol and the cross-check recomputes it from the
decoded values — see docs/COSTMODEL.md for the exactness contract.

Sympy is imported lazily, on the first symbolic use: the import costs
more than a small metered run, and the exact helpers never need it.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, ge, rshift
from typing import Any, Sequence

from repro.wire.codec import KEY_ID_BYTES, row_width

#: magic(2) + version(1) + crc32(4): the fixed envelope framing bytes.
ENVELOPE_FIXED_BYTES = 7


def _is_number(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# -- exact sizes of concrete values ------------------------------------------

def varint_len(value: int) -> int:
    """Bytes of the LEB128 varint of ``value`` (mirrors ``write_varint``)."""
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    length = 1
    value >>= 7
    while value:
        length += 1
        value >>= 7
    return length


def ints_wire_len(values: Sequence[int]) -> int:
    """Exact wire bytes of many ints (mirrors ``WireCodec._encode_int``),
    as one expression over the whole sequence.

    The byte lengths ``L = ⌈bit_length/8⌉`` (the magnitude's, for a
    negative value) come out of ``map`` chains that run at C speed, with
    no Python call per value; a nonzero value takes its tag byte, the
    varint of ``L`` — one byte, plus one for each ``L ≥ 128^j`` — and
    ``L`` bytes, a zero a single tag byte.
    """
    lengths = list(map(rshift, map(add, map(int.bit_length, values), repeat(7)), repeat(3)))
    total = 2 * len(lengths) + sum(lengths) - lengths.count(0)
    floor = 128
    while lengths and max(lengths) >= floor:
        total += sum(map(ge, lengths, repeat(floor)))
        floor <<= 7
    return total


def row_wire_len(row: Any) -> int:
    """Exact wire bytes of a field row (mirrors ``WireCodec._encode_row``)."""
    return 2 + varint_len(len(row)) + len(row) * row_width(row)


def str_wire_len(value: str) -> int:
    raw = len(value.encode("utf-8"))
    return 1 + varint_len(raw) + raw


def bytes_wire_len(value: bytes) -> int:
    return 1 + varint_len(len(value)) + len(value)


def ct_wire_len(ct: Any) -> int:
    """Exact wire bytes of a PaillierCiphertext (key id + fixed width)."""
    width = (ct.public.n_squared.bit_length() + 7) // 8
    return 1 + KEY_ID_BYTES + width


def envelope_wire_len(
    kind_id: int,
    kind_version: int,
    round_: int,
    sender: str,
    phase: str,
    tag: str,
    body_len: int,
) -> int:
    """Exact framing bytes around a body (mirrors ``encode_envelope``)."""
    total = ENVELOPE_FIXED_BYTES
    total += varint_len(kind_id) + varint_len(kind_version) + varint_len(round_)
    for text in (sender, phase, tag):
        raw = len(text.encode("utf-8"))
        total += varint_len(raw) + raw
    total += varint_len(body_len)
    return total


# -- dual-mode (int | sympy) arithmetic --------------------------------------

def cdiv(a: Any, b: Any) -> Any:
    """``ceil(a / b)`` for ints or sympy expressions."""
    if _is_number(a) and _is_number(b):
        return -(-a // b)
    import sympy

    return sympy.ceiling(sympy.Rational(1, 1) * a / b)


def vlen(x: Any) -> Any:
    """Varint length of ``x``: exact for ints, ``Vlen(x)`` symbolically."""
    if _is_number(x):
        return varint_len(x)
    return vlen_function()(x)


_VLEN_FN = None


def vlen_function() -> Any:
    """The sympy ``Vlen`` function (evaluates on integer arguments)."""
    global _VLEN_FN
    if _VLEN_FN is None:
        import sympy

        class Vlen(sympy.Function):
            """LEB128 varint byte length of a non-negative integer."""

            nargs = (1,)

            @classmethod
            def eval(cls, x: Any) -> Any:
                if getattr(x, "is_Integer", False):
                    return sympy.Integer(varint_len(int(x)))
                return None

        _VLEN_FN = Vlen
    return _VLEN_FN


def digit_sum(n: int) -> int:
    """``Σ_{i=1}^{n} len(str(i))`` — decimal digits of committee indices."""
    total = 0
    low = 1
    digits = 1
    while low <= n:
        high = min(n, low * 10 - 1)
        total += (high - low + 1) * digits
        low *= 10
        digits += 1
    return total


# -- nominal sizes from declared bit widths ----------------------------------

def int_nominal(bits: Any) -> Any:
    """Nominal wire bytes of an integer of at most ``bits`` bits."""
    raw = cdiv(bits, 8)
    return 1 + vlen(raw) + raw


def ct_nominal(modulus_bits: Any) -> Any:
    """Nominal wire bytes of a ciphertext under a ``modulus_bits`` key.

    The Z_{N²} element has fixed width ``ceil(bitlen(N²)/8)``; for the
    byte-aligned moduli the protocol uses (64/128/.../2048 bits) that
    width equals ``ceil(2·bits/8)`` whatever the concrete modulus, so the
    nominal is exact, not a bound.
    """
    return 1 + KEY_ID_BYTES + cdiv(2 * modulus_bits, 8)


def bytes_nominal(length: Any) -> Any:
    """Nominal wire bytes of a byte string of ``length`` bytes."""
    return 1 + vlen(length) + length


def seq_nominal(count: Any) -> Any:
    """List/tuple/dict header: tag byte + count varint."""
    return 1 + vlen(count)


def envelope_nominal(
    kind_id: Any,
    kind_version: Any,
    round_: Any,
    sender_len: Any,
    phase_len: Any,
    tag_len: Any,
    body_len: Any,
) -> Any:
    """Nominal framing bytes (header strings given by their lengths)."""
    return (
        ENVELOPE_FIXED_BYTES
        + vlen(kind_id)
        + vlen(kind_version)
        + vlen(round_)
        + vlen(sender_len) + sender_len
        + vlen(phase_len) + phase_len
        + vlen(tag_len) + tag_len
        + vlen(body_len)
    )
