"""The ring Z_m and its elements.

:class:`Zmod` is a lightweight context object describing the ring; elements
are :class:`ZmodElement` instances holding a canonical representative in
``[0, modulus)``.  When the modulus is prime the ring is the field GF(p) and
every nonzero element is invertible; when it is an RSA modulus N = pq the
sharing layers only ever invert integers far smaller than p and q, so
division still succeeds (a failure would expose a factor of N and raises
:class:`~repro.errors.NonInvertibleError`).

Elements are immutable and hashable; arithmetic between elements of
different rings raises :class:`~repro.errors.RingMismatchError` rather than
silently coercing.
"""

from __future__ import annotations

import math
import secrets
from typing import Iterable, Iterator, Sequence

from repro.errors import NonInvertibleError, ParameterError, RingMismatchError


class Zmod:
    """The ring of integers modulo ``modulus``.

    Parameters
    ----------
    modulus:
        Any integer >= 2.
    assume_prime:
        Optional hint.  ``True`` marks the ring as a field without running a
        primality test (used for RSA moduli where we *know* it is composite,
        pass ``False``).  ``None`` performs a cheap deterministic check for
        small moduli and otherwise leaves the flag unknown.
    """

    __slots__ = ("modulus", "_is_prime")

    def __init__(self, modulus: int, assume_prime: bool | None = None):
        if modulus < 2:
            raise ParameterError(f"modulus must be >= 2, got {modulus}")
        self.modulus = int(modulus)
        if assume_prime is None and modulus < 1 << 20:
            assume_prime = _is_small_prime(modulus)
        self._is_prime = assume_prime

    # -- construction -----------------------------------------------------

    def __call__(self, value: int | ZmodElement) -> ZmodElement:
        """Coerce ``value`` into this ring (alias for :meth:`element`)."""
        return self.element(value)

    def element(self, value: int | ZmodElement) -> ZmodElement:
        """Return the element with representative ``value mod modulus``."""
        if isinstance(value, ZmodElement):
            if value.ring is not self and value.ring != self:
                raise RingMismatchError(
                    f"cannot coerce element of {value.ring} into {self}"
                )
            return value
        return ZmodElement(self, int(value) % self.modulus)

    def elements(self, values: Iterable[int]) -> list[ZmodElement]:
        """Vector version of :meth:`element`."""
        return [self.element(v) for v in values]

    @property
    def zero(self) -> ZmodElement:
        return ZmodElement(self, 0)

    @property
    def one(self) -> ZmodElement:
        return ZmodElement(self, 1)

    def random(self, rng: secrets.SystemRandom | None = None) -> ZmodElement:
        """Sample a uniformly random element.

        ``rng`` may be any object with ``randrange`` (e.g. ``random.Random``
        for reproducible tests); defaults to a CSPRNG.
        """
        return ZmodElement(self, self.random_value(rng))

    def random_value(self, rng: secrets.SystemRandom | None = None) -> int:
        """:meth:`random` as a plain int (the same single draw from ``rng``)."""
        if rng is None:
            return secrets.randbelow(self.modulus)
        return rng.randrange(self.modulus)

    def random_vector(self, length: int, rng=None) -> list[ZmodElement]:
        return [self.random(rng) for _ in range(length)]

    # -- arithmetic helpers ------------------------------------------------

    def inverse(self, value: int | ZmodElement) -> ZmodElement:
        """Multiplicative inverse; raises NonInvertibleError if none exists."""
        v = int(value) % self.modulus
        g = math.gcd(v, self.modulus)
        if g != 1:
            raise NonInvertibleError(v, self.modulus, g)
        return ZmodElement(self, pow(v, -1, self.modulus))

    def is_field(self) -> bool:
        """Best-effort: True iff the modulus is known to be prime."""
        return bool(self._is_prime)

    @property
    def bit_length(self) -> int:
        return self.modulus.bit_length()

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Zmod) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("Zmod", self.modulus))

    def __repr__(self) -> str:
        kind = "GF" if self._is_prime else "Z"
        return f"{kind}({self.modulus})"

    def __iter__(self) -> Iterator[ZmodElement]:
        """Iterate all elements (only sensible for tiny rings in tests)."""
        if self.modulus > 1 << 16:
            raise ParameterError("refusing to iterate a large ring")
        return (ZmodElement(self, v) for v in range(self.modulus))


class ZmodElement:
    """An immutable element of a :class:`Zmod` ring."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: Zmod, value: int):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("ZmodElement is immutable")

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other) -> "ZmodElement":
        if isinstance(other, ZmodElement):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"operands from different rings: {self.ring} vs {other.ring}"
                )
            return other
        if isinstance(other, int):
            return self.ring.element(other)
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ZmodElement(self.ring, (self.value + o.value) % self.ring.modulus)

    __radd__ = __add__

    def __neg__(self):
        return ZmodElement(self.ring, (-self.value) % self.ring.modulus)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ZmodElement(self.ring, (self.value - o.value) % self.ring.modulus)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ZmodElement(self.ring, (self.value * o.value) % self.ring.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * self.ring.inverse(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.ring.inverse(self) ** (-exponent)
        return ZmodElement(
            self.ring, pow(self.value, exponent, self.ring.modulus)
        )

    def inverse(self) -> "ZmodElement":
        return self.ring.inverse(self)

    # -- predicates & protocol ----------------------------------------------

    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ZmodElement):
            return other.ring == self.ring and other.value == self.value
        if isinstance(other, int):
            return self.value == other % self.ring.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ring.modulus, self.value))

    def __repr__(self) -> str:
        return f"{self.value}"


def dot(xs: Sequence[ZmodElement], ys: Sequence[ZmodElement]) -> ZmodElement:
    """Inner product of two equal-length element vectors."""
    if len(xs) != len(ys):
        raise ParameterError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if not xs:
        raise ParameterError("dot product of empty vectors is undefined")
    ring = xs[0].ring
    total = 0
    for x, y in zip(xs, ys):
        if x.ring != ring or y.ring != ring:
            raise RingMismatchError("dot product operands from different rings")
        total += x.value * y.value
    return ring.element(total)


def _is_small_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True
