"""Windowed fixed-base tables for the bases that repeat.

Most exponentiations of a run have a base nobody sees twice (an
encryption randomizer, a ciphertext).  A few have a base everybody uses:
the exponent-check base ``v^Δ mod N²`` appears in every partial-decryption
proof, every resharing proof and every verification of either, whichever
role, committee or epoch issues it.  For such a base the squarings of
square-and-multiply — four fifths of the work — can be done once:

* :class:`FixedBaseTable` holds ``rows[i][d] = base^(d·2^(w·i))`` for a
  window of ``w`` bits.  An exponentiation is then one table entry per
  ``w``-bit digit of the exponent multiplied together: no squarings, and
  ``bits(e)/w`` multiplications instead of ``~1.2·bits(e)``.  Rows are
  built lazily up to the longest exponent seen.
* :class:`FixedBaseStore` decides which bases get a table.  It counts
  sightings of each ``(base, modulus)`` and builds a table only once the
  reuse it has *observed* pays for the build, widens it once the reuse
  pays for the wider build, and evicts least-recently-used tables to stay
  under a fixed byte budget.

Everything here is arithmetic on the caller's operands: every result is
bit-identical to ``pow(base, exponent, modulus)``, for every integer
exponent (a negative one requires an invertible base and raises the same
``ValueError`` as the builtin otherwise) and every non-zero modulus.

What is bounded: the store keeps at most :data:`SIGHTING_KEYS` sighting
counts and at most :data:`TABLE_BUDGET_BYTES` of table entries, whatever
the number of batches, roles or epochs it serves.  Which operands it has
*seen* does outlive a batch — but only as a cache of public-by-construction
powers that can change how fast a later result arrives, never its value.
"""

from __future__ import annotations

from collections import OrderedDict

#: Moduli shorter than this are left to ``builtins.pow``: its loop runs in
#: C, and below ~192 bits a Python-level multiply costs about as much as
#: the squarings it would save.
MIN_MODULUS_BITS = 192

#: Exponents shorter than this are left to ``builtins.pow``: Lagrange
#: coefficients, Δ-powers and challenges are a handful of multiplications
#: natively and are raised to bases that seldom repeat.
MIN_EXPONENT_BITS = 96

#: Sightings of one ``(base, modulus)`` before it gets a table, and the
#: window of that first table.  A ``w=5`` build costs ~6 native
#: exponentiations and breaks even after ~8 uses (claims.py row M3b);
#: promoting at 32 keeps per-ciphertext bases (12–18 uses each, thousands
#: of them per run) out of the store, where they would cost more memory
#: churn than they save.
PROMOTE_SIGHTINGS = 32
PROMOTE_WINDOW = 5

#: Sightings before the table is rebuilt at the wide window.  A ``w=8``
#: build costs ~31 native exponentiations; over ``w=5`` it saves about a
#: third of each lookup, which pays the build back after ~480 more uses.
WIDEN_SIGHTINGS = 512
WIDEN_WINDOW = 8

#: Sighting counts kept (least recently seen dropped first).
SIGHTING_KEYS = 512

#: Upper bound on the estimated bytes of all tables together.  One table
#: may take at most half of it: it is built at the widest window that
#: fits, and an exponent whose rows would not fit goes to ``builtins.pow``.
TABLE_BUDGET_BYTES = 8 << 20


def table_bytes(exponent_bits: int, window: int, modulus: int) -> int:
    """Estimated bytes of a table covering ``exponent_bits``-bit exponents.

    One entry is a CPython int below ``modulus`` (30-bit digits after a
    24-byte header) plus its 8-byte slot in the row list.
    """
    entry = 24 + 4 * -(-modulus.bit_length() // 30) + 8
    return -(-exponent_bits // window) * (entry << window)


class FixedBaseTable:
    """``rows[i][d] = base^(d·2^(window·i)) mod modulus`` for one base."""

    __slots__ = ("modulus", "window", "rows", "nbytes", "_next")

    def __init__(self, base: int, modulus: int, window: int):
        if modulus == 0:
            raise ValueError("pow() 3rd argument cannot be 0")
        if window < 1:
            raise ValueError(f"window must be at least 1 bit, got {window}")
        self.modulus = modulus
        self.window = window
        self.rows: list[list[int]] = []
        self.nbytes = 0
        self._next = base % modulus       # base^(2^(window·len(rows)))

    @property
    def bits(self) -> int:
        """Longest exponent the rows built so far cover."""
        return len(self.rows) * self.window

    def grow(self, bits: int) -> None:
        """Build rows until exponents of ``bits`` bits are covered."""
        rows, m, size = self.rows, self.modulus, 1 << self.window
        step = self._next
        while len(rows) * self.window < bits:
            row = [1 % m, step]
            acc = step
            for _ in range(size - 2):
                acc = acc * step % m
                row.append(acc)
            rows.append(row)
            step = acc * step % m
        self._next = step
        self.nbytes = table_bytes(self.bits, self.window, m)

    def pow(self, exponent: int) -> int:
        """``base**exponent mod modulus`` by table lookups alone."""
        m = self.modulus
        if exponent < 0:
            return pow(self.pow(-exponent), -1, m)
        if exponent.bit_length() > self.bits:
            self.grow(exponent.bit_length())
        window = self.window
        mask = (1 << window) - 1
        acc = 1 % m
        for row in self.rows:
            if not exponent:
                break
            digit = exponent & mask
            if digit:
                acc = acc * row[digit] % m
            exponent >>= window
        return acc

    def __repr__(self) -> str:
        return (
            f"FixedBaseTable(bits={self.modulus.bit_length()}, "
            f"window={self.window}, rows={len(self.rows)}, bytes={self.nbytes})"
        )


def fitting_window(window: int, exponent_bits: int, modulus: int) -> int:
    """The widest window ≤ ``window`` whose table for ``exponent_bits``-bit
    exponents fits half of :data:`TABLE_BUDGET_BYTES`; 0 if none does."""
    while window and (
        table_bytes(exponent_bits, window, modulus) > TABLE_BUDGET_BYTES // 2
    ):
        window -= 1
    return window


class FixedBaseStore:
    """The bounded set of tables one process keeps, and who gets one."""

    def __init__(self) -> None:
        self._sightings: OrderedDict[tuple[int, int], int] = OrderedDict()
        self._tables: OrderedDict[tuple[int, int], FixedBaseTable] = OrderedDict()
        self._bytes = 0

    @property
    def table_bytes(self) -> int:
        """Estimated bytes of every table held (≤ the budget)."""
        return self._bytes

    def table(self, base: int, modulus: int) -> FixedBaseTable | None:
        """The table currently held for ``(base, modulus)``, if any."""
        return self._tables.get((base, modulus))

    def sightings(self, base: int, modulus: int) -> int:
        return self._sightings.get((base, modulus), 0)

    def clear(self) -> None:
        self._sightings.clear()
        self._tables.clear()
        self._bytes = 0

    def pow(self, base: int, exponent: int, modulus: int) -> int:
        """``pow(base, exponent, modulus)`` — through a table when this
        base has earned one, natively otherwise; the value is the same."""
        bits = exponent.bit_length()
        if bits < MIN_EXPONENT_BITS or modulus.bit_length() < MIN_MODULUS_BITS:
            return pow(base, exponent, modulus)
        key = (base, modulus)
        sightings = self._sightings
        count = sightings.get(key)
        if count is None:
            count = sightings[key] = 1
            if len(sightings) > SIGHTING_KEYS:
                sightings.popitem(last=False)
        else:
            count = sightings[key] = count + 1
            sightings.move_to_end(key)
        table = self._tables.get(key)
        if count == PROMOTE_SIGHTINGS:
            table = self._build(key, table, PROMOTE_WINDOW, bits)
        elif count == WIDEN_SIGHTINGS:
            table = self._build(key, table, WIDEN_WINDOW, bits)
        if table is None or (
            bits > table.bits
            and table_bytes(bits, table.window, modulus) > TABLE_BUDGET_BYTES // 2
        ):
            # No table yet, or an exponent so long that its rows would push
            # the table past its share of the budget.
            return pow(base, exponent, modulus)
        self._tables.move_to_end(key)
        before = table.nbytes
        try:
            return table.pow(exponent)
        finally:
            # Also on the builtin's "base is not invertible" ValueError: the
            # rows grown before it was raised are held all the same.
            if table.nbytes != before:
                self._bytes += table.nbytes - before
                self._evict()

    def _build(
        self, key: tuple[int, int], table: FixedBaseTable | None, window: int,
        bits: int,
    ) -> FixedBaseTable | None:
        """Replace ``table`` by one of the widest window ≤ ``window`` that
        covers ``bits``-bit exponents (and all ``table`` covers) in half the
        budget; keep ``table`` if that is no wider than what it has."""
        if table is not None:
            bits = max(bits, table.bits)
        window = fitting_window(window, bits, key[1])
        if window <= (table.window if table is not None else 0):
            return table
        if table is not None:
            self._bytes -= table.nbytes
        table = self._tables[key] = FixedBaseTable(*key, window)
        return table

    def _evict(self) -> None:
        """Drop least-recently-used tables until the budget holds.  An
        evicted base starts counting again: it must re-earn its table."""
        while self._bytes > TABLE_BUDGET_BYTES:
            key, table = self._tables.popitem(last=False)
            self._bytes -= table.nbytes
            self._sightings.pop(key, None)
