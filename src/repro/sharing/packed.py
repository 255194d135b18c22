"""Packed Shamir secret sharing (Franklin–Yung), as used by the paper.

A degree-``d`` packed sharing ``[[x]]_d`` of a vector ``x ∈ R^k`` is a
polynomial ``f`` with ``f(-(j)) = x_j`` for slot ``j ∈ 0..k-1`` and shares
``f(i)`` for parties ``i ∈ 1..n``, where ``k-1 <= d <= n-1``:

* ``d+1`` shares reconstruct the whole sharing;
* any ``d-k+1`` shares are independent of the secrets;
* sharings are linear: ``[[x+y]]_d = [[x]]_d + [[y]]_d``;
* share-wise products multiply secrets slot-wise and add degrees:
  ``[[x*y]]_{d1+d2} = [[x]]_{d1} * [[y]]_{d2}`` for ``d1+d2 < n``;
* *multiplication-friendliness*: a public vector ``c`` can be multiplied in
  locally via the canonical degree-(k-1) sharing of ``c``
  (:meth:`PackedShamirScheme.public_product`).

The packing factor ``k ≈ nε`` is exactly the online-communication saving the
paper claims (DESIGN.md §1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ParameterError, ReconstructionError, SharingError
from repro.fields import Zmod, ZmodElement, random_polynomial
from repro.fields.lagrange import lagrange_coefficients
from repro.fields.polynomial import evaluate_from_points, interpolate
from repro.observability import hooks as _hooks
from repro.sharing.kernel import matmul_mod, resolve_backend


def secret_slots(k: int) -> list[int]:
    """Evaluation points ``0, -1, ..., -(k-1)`` holding the k packed secrets."""
    if k < 1:
        raise ParameterError(f"packing factor must be >= 1, got {k}")
    return [-j for j in range(k)]


@dataclass(frozen=True)
class PackedShare:
    """Party ``index``'s share of a packed sharing, tagged with its degree.

    Tagging shares with ``(degree, k)`` lets the scheme enforce the degree
    discipline (``d1 + d2 < n`` for products) at the type level instead of
    silently producing garbage.
    """

    index: int
    value: ZmodElement
    degree: int
    k: int

    def __post_init__(self):
        if self.index < 1:
            raise ParameterError(f"share index must be >= 1, got {self.index}")
        if self.degree < self.k - 1:
            raise ParameterError(
                f"degree {self.degree} below minimum {self.k - 1} for k={self.k}"
            )

    def _require_compatible(self, other: "PackedShare") -> None:
        if other.index != self.index:
            raise SharingError(
                f"shares of different parties: {self.index} vs {other.index}"
            )
        if other.k != self.k:
            raise SharingError(f"packing mismatch: k={self.k} vs k={other.k}")

    def __add__(self, other: "PackedShare") -> "PackedShare":
        if not isinstance(other, PackedShare):
            return NotImplemented
        self._require_compatible(other)
        if other.degree != self.degree:
            raise SharingError(
                f"cannot add sharings of degree {self.degree} and {other.degree}"
            )
        return PackedShare(self.index, self.value + other.value, self.degree, self.k)

    def __sub__(self, other: "PackedShare") -> "PackedShare":
        if not isinstance(other, PackedShare):
            return NotImplemented
        self._require_compatible(other)
        if other.degree != self.degree:
            raise SharingError(
                f"cannot subtract sharings of degree {self.degree} and {other.degree}"
            )
        return PackedShare(self.index, self.value - other.value, self.degree, self.k)

    def __mul__(self, other: "PackedShare") -> "PackedShare":
        """Share-wise product; degrees add (caller must keep d1+d2 < n)."""
        if not isinstance(other, PackedShare):
            return NotImplemented
        self._require_compatible(other)
        return PackedShare(
            self.index, self.value * other.value, self.degree + other.degree, self.k
        )

    def scale(self, scalar: int | ZmodElement) -> "PackedShare":
        return PackedShare(self.index, self.value * scalar, self.degree, self.k)


PackedSharing = list[PackedShare]

#: Precomputed Lagrange rows as plain ints (reduced mod the scheme modulus).
_IntRows = tuple[tuple[int, ...], ...]


class PackedShamirScheme:
    """Packed Shamir sharing for ``n`` parties, packing factor ``k``.

    ``default_degree`` is the degree used by :meth:`share` when none is
    given; the paper's protocol uses ``d = t + k - 1`` for preprocessing
    sharings (``t`` privacy against ``t`` corruptions) and ``k - 1`` for
    canonical public-vector sharings.
    """

    def __init__(self, ring: Zmod, n: int, k: int, default_degree: int | None = None):
        if k < 1:
            raise ParameterError(f"packing factor must be >= 1, got {k}")
        if n < k:
            raise ParameterError(f"need n >= k, got n={n}, k={k}")
        if n + k >= ring.modulus:
            raise ParameterError("modulus too small for n+k distinct points")
        self.ring = ring
        self.n = n
        self.k = k
        # Default to the largest multiplication-friendly degree (n−k), but
        # never below the minimum valid degree k−1 (possible when n < 2k−1).
        self.default_degree = (
            default_degree if default_degree is not None else max(n - k, k - 1)
        )
        if not (k - 1 <= self.default_degree <= n - 1):
            raise ParameterError(
                f"default degree {self.default_degree} outside [{k-1}, {n-1}]"
            )
        # Batched-kernel matrix caches (instance-level on purpose: a fresh
        # scheme for a different (n, d, k) geometry starts empty, so stale
        # matrices can never leak across geometries).
        self._dealing_cache: dict[int, tuple[tuple[int, ...], "_IntRows"]] = {}
        self._eval_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], "_IntRows"] = {}

    # -- dealing --------------------------------------------------------------

    def share(
        self,
        secrets: Sequence[int | ZmodElement],
        degree: int | None = None,
        rng=None,
    ) -> PackedSharing:
        """Deal a fresh degree-``degree`` packed sharing of ``secrets``."""
        d = self.default_degree if degree is None else degree
        self._check_degree(d)
        vec = self._check_secrets(secrets)
        constraints = list(zip(secret_slots(self.k), vec))
        poly = random_polynomial(self.ring, d, constraints, rng=rng)
        _hooks.note(_hooks.SHARING_DEALT)
        return [PackedShare(i, poly(i), d, self.k) for i in range(1, self.n + 1)]

    def canonical_sharing(self, secrets: Sequence[int | ZmodElement]) -> PackedSharing:
        """The unique degree-(k-1) sharing of ``secrets`` (no randomness).

        Every share is a deterministic public function of the secrets; this
        is the "all shares are determined by the secrets" sharing used for
        multiplying in public vectors (paper §3.2).
        """
        vec = self._check_secrets(secrets)
        points = list(zip(secret_slots(self.k), vec))
        poly = interpolate(self.ring, points)
        return [PackedShare(i, poly(i), self.k - 1, self.k) for i in range(1, self.n + 1)]

    def canonical_share_for(
        self, secrets: Sequence[int | ZmodElement], index: int
    ) -> PackedShare:
        """A single party's canonical degree-(k-1) share (local computation)."""
        vec = self._check_secrets(secrets)
        points = list(zip(secret_slots(self.k), vec))
        value = evaluate_from_points(self.ring, points, at=index)
        _hooks.note(_hooks.SHARING_CANONICAL)
        return PackedShare(index, value, self.k - 1, self.k)

    # -- batched kernel APIs: int rows in, int rows out ------------------------

    def share_many(
        self,
        secret_vectors: Sequence[Sequence[int | ZmodElement]],
        degree: int | Sequence[int] | None = None,
        rng=None,
    ) -> list[list[int]]:
        """Deal many packed sharings through one cached dealing matrix.

        Row ``j`` holds the shares of parties ``1..n`` of vector ``j`` as
        plain ints.  ``degree`` is a single degree for every vector or one
        degree per vector (protocols interleave degrees d and 2d in a
        single rng stream, so per-vector degrees are needed to keep the
        stream identical to sequential :meth:`share` calls).  The values of
        ``[self.share(v, d, rng) for v, d in ...]`` on every backend: the
        random coefficients are drawn per vector in dealing order, then
        the shares come out of one matrix product per degree.
        """
        columns = [self._check_row(v) for v in secret_vectors]
        degrees = self._check_degrees(degree, len(columns))
        backend = self._backend()
        # Draw the random values first, in vector order: this is exactly
        # the rng consumption of sequential share() calls.
        draw = self.ring.random_value
        for column, d in zip(columns, degrees):
            column.extend([draw(rng) for _ in range(d + 1 - self.k)])
        out: list[list[int] | None] = [None] * len(columns)
        by_degree: dict[int, list[int]] = {}
        for pos, d in enumerate(degrees):
            by_degree.setdefault(d, []).append(pos)
        for d, positions in by_degree.items():
            _, rows = self._dealing_matrix(d)
            shares = matmul_mod(
                rows, [columns[p] for p in positions], self.ring.modulus, backend
            )
            _hooks.note(_hooks.SHARING_DEALT, len(positions))
            for pos, values in zip(positions, shares):
                out[pos] = values
        return [row for row in out if row is not None]

    def canonical_many(
        self,
        public_vectors: Sequence[Sequence[int | ZmodElement]],
        index: int | None = None,
    ) -> list[list[int]] | list[int]:
        """Canonical degree-(k-1) sharings of many public vectors at once.

        With ``index`` the result is one int per vector (party ``index``'s
        canonical share, the value :meth:`canonical_share_for` returns);
        without it, one row of all ``n`` shares per vector.  One cached
        k-column matrix serves every call on this geometry.
        """
        columns = [self._check_row(v) for v in public_vectors]
        backend = self._backend()
        _, rows = self._dealing_matrix(self.k - 1)
        if index is None:
            return matmul_mod(rows, columns, self.ring.modulus, backend)
        if not 1 <= index <= self.n:
            raise ParameterError(f"party index {index} outside 1..{self.n}")
        values = matmul_mod(
            (rows[index - 1],), columns, self.ring.modulus, backend
        )
        # Mirror canonical_share_for's per-share counter (the full-sharing
        # path mirrors canonical_sharing, which notes nothing).
        _hooks.note(_hooks.SHARING_CANONICAL, len(columns))
        return [vals[0] for vals in values]

    # -- reconstruction ---------------------------------------------------------

    def reconstruct(
        self, shares: Iterable[PackedShare], degree: int | None = None
    ) -> list[ZmodElement]:
        """Recover the packed secret vector from ``degree+1`` shares.

        With more shares than needed, the extras are checked against the
        interpolant (error detection).  The shares' own degree tags must
        agree; ``degree`` overrides for callers reconstructing raw points.
        """
        share_list = _dedupe(shares)
        if not share_list:
            raise ReconstructionError("no shares supplied")
        d = degree if degree is not None else share_list[0].degree
        for s in share_list:
            if s.degree != d:
                raise ReconstructionError(
                    f"mixed degrees in reconstruction: {s.degree} vs {d}"
                )
            if s.k != self.k:
                raise ReconstructionError(f"share with k={s.k} in k={self.k} scheme")
        if len(share_list) < d + 1:
            raise ReconstructionError(
                f"need {d + 1} shares for degree {d}, got {len(share_list)}"
            )
        base = share_list[: d + 1]
        points = [(s.index, s.value) for s in base]
        if len(share_list) > d + 1:
            poly = interpolate(self.ring, points)
            for s in share_list[d + 1 :]:
                if poly(s.index) != s.value:
                    raise ReconstructionError(
                        f"share of party {s.index} inconsistent with the others"
                    )
        _hooks.note(_hooks.SHARING_RECONSTRUCTED)
        return [
            evaluate_from_points(self.ring, points, at=slot)
            for slot in secret_slots(self.k)
        ]

    def robust_reconstruct(
        self,
        shares: Iterable[PackedShare],
        degree: int | None = None,
        max_errors: int = 0,
    ) -> list[ZmodElement]:
        """Error-corrected reconstruction: tolerates ``max_errors`` *wrong*
        shares outright (Berlekamp–Welch), given
        ``len(shares) >= degree + 1 + 2·max_errors``.

        This is the proof-free route to robustness: no verification of who
        lied is needed, the code corrects them silently.
        """
        from repro.sharing.decoding import berlekamp_welch

        share_list = _dedupe(shares)
        if not share_list:
            raise ReconstructionError("no shares supplied")
        d = degree if degree is not None else share_list[0].degree
        points = [(s.index, s.value) for s in share_list]
        poly = berlekamp_welch(self.ring, points, d, max_errors)
        _hooks.note(_hooks.SHARING_RECONSTRUCTED)
        _hooks.note(_hooks.SHARING_ROBUST_RECONSTRUCTED)
        return [poly(slot) for slot in secret_slots(self.k)]

    def reconstruct_many(
        self,
        sharings: Sequence[Iterable[tuple[int, int]]],
        degree: int,
    ) -> list[list[int]]:
        """Reconstruct many sharings through cached slot-evaluation matrices.

        Each sharing is ``(party index, share value)`` int pairs of a
        degree-``degree`` sharing; row ``j`` of the result is the secret
        vector of ``sharings[j]``.  Semantics per sharing are those of
        :meth:`reconstruct` — deduplication with conflict detection,
        redundant shares verified against the interpolant of the first
        ``degree+1`` — but the Lagrange rows are computed once per distinct
        base-point tuple and applied as one matrix product per group.
        All sharings are deduped and length-checked before any consistency
        check fires, so when several are bad, which one raises first can
        differ from a sequential loop; error types and messages do not.
        """
        backend = self._backend()
        modulus = self.ring.modulus
        prepared: list[list[tuple[int, int]]] = []
        # Group by base-point tuple: committees post in a fixed order, so
        # in practice every sharing of a batch shares one matrix.
        by_points: dict[tuple[int, ...], list[int]] = {}
        for pos, sharing in enumerate(sharings):
            points = _dedupe_points(sharing, modulus)
            if not points:
                raise ReconstructionError("no shares supplied")
            if len(points) < degree + 1:
                raise ReconstructionError(
                    f"need {degree + 1} shares for degree {degree}, "
                    f"got {len(points)}"
                )
            prepared.append(points)
            xs = tuple(x for x, _ in points[: degree + 1])
            by_points.setdefault(xs, []).append(pos)
        results: list[list[int] | None] = [None] * len(prepared)
        slots = tuple(secret_slots(self.k))
        for xs, positions in by_points.items():
            columns = [
                [v for _, v in prepared[pos][: degree + 1]] for pos in positions
            ]
            # Redundant shares: evaluate the base interpolant at the extra
            # indices and compare (the matrix analogue of poly(s.index)).
            extra_targets = sorted(
                {x for pos in positions for x, _ in prepared[pos][degree + 1 :]}
            )
            if extra_targets:
                check_rows = self.evaluation_rows(xs, tuple(extra_targets))
                predicted = matmul_mod(check_rows, columns, modulus, backend)
                at_index = {x: r for r, x in enumerate(extra_targets)}
                for pos, values in zip(positions, predicted):
                    for x, v in prepared[pos][degree + 1 :]:
                        if values[at_index[x]] != v:
                            raise ReconstructionError(
                                f"share of party {x} inconsistent "
                                f"with the others"
                            )
            opened = matmul_mod(
                self.evaluation_rows(xs, slots), columns, modulus, backend
            )
            _hooks.note(_hooks.SHARING_RECONSTRUCTED, len(positions))
            for pos, values in zip(positions, opened):
                results[pos] = values
        return [r for r in results if r is not None]

    # -- local operations ----------------------------------------------------

    def add(self, a: PackedSharing, b: PackedSharing) -> PackedSharing:
        return [x + y for x, y in _zip_by_index(a, b)]

    def sub(self, a: PackedSharing, b: PackedSharing) -> PackedSharing:
        return [x - y for x, y in _zip_by_index(a, b)]

    def multiply(self, a: PackedSharing, b: PackedSharing) -> PackedSharing:
        """Share-wise product ``[[x*y]]_{d1+d2}``; requires ``d1+d2 < n``."""
        out = [x * y for x, y in _zip_by_index(a, b)]
        if out and out[0].degree >= self.n:
            raise SharingError(
                f"product degree {out[0].degree} >= n={self.n}: unreconstructable"
            )
        return out

    def public_product(
        self, public: Sequence[int | ZmodElement], sharing: PackedSharing
    ) -> PackedSharing:
        """Multiplication-friendly product ``c * [[x]]_d -> [[c*x]]_{d+k-1}``.

        Each party locally multiplies its share by its canonical share of
        the public vector ``c`` (paper §3.2: requires ``d <= n-k``).
        """
        if not sharing:
            raise SharingError("empty sharing")
        if sharing[0].degree > self.n - self.k:
            raise SharingError(
                f"public_product needs degree <= n-k={self.n - self.k}, "
                f"got {sharing[0].degree}"
            )
        return [self.canonical_share_for(public, s.index) * s for s in sharing]

    def scale(self, sharing: PackedSharing, scalar) -> PackedSharing:
        return [s.scale(scalar) for s in sharing]

    # -- kernel matrices ------------------------------------------------------

    def dealing_points(self, degree: int) -> list[int]:
        """Interpolation points of a degree-``degree`` dealing, in ``share`` order.

        The ``k`` secret slots first, then the ``degree+1-k`` extra points
        where :func:`~repro.fields.polynomial.random_polynomial` places the
        random values — reproducing its candidate scan exactly, so the
        matrix path consumes and positions randomness identically.
        """
        slots = secret_slots(self.k)
        used = set(slots)
        extras: list[int] = []
        candidate = 1
        while len(extras) < degree + 1 - self.k:
            while candidate in used or -candidate in used:
                candidate += 1
            extras.append(candidate)
            used.add(candidate)
            candidate += 1
        return slots + extras

    def _dealing_matrix(self, degree: int) -> tuple[tuple[int, ...], "_IntRows"]:
        """``(points, rows)``: share_i = Σ_c rows[i-1][c] · column[c].

        ``column`` is the k secrets followed by the random extra values;
        the rows are Lagrange basis evaluations at the party points 1..n,
        built once per degree and cached on the scheme instance.
        """
        cached = self._dealing_cache.get(degree)
        if cached is None:
            points = tuple(self.dealing_points(degree))
            rows = self.evaluation_rows(points, tuple(range(1, self.n + 1)))
            cached = (points, rows)
            self._dealing_cache[degree] = cached
        else:
            # Count the interpolations this matrix stands in for, so traced
            # counter totals do not depend on whether the process-wide
            # scheme cache happens to be warm (cross-run determinism).
            _hooks.note(_hooks.LAGRANGE_INTERPOLATION, self.n)
        return cached

    def evaluation_rows(
        self, points: tuple[int, ...], targets: tuple[int, ...]
    ) -> "_IntRows":
        """Cached matrix evaluating the interpolant of ``points`` at ``targets``.

        Row ``r`` holds the Lagrange coefficients λ_i(targets[r]) as plain
        ints — the shared currency of the dealing, reconstruction and
        canonical kernels (and of the offline phase's homomorphic packing).
        """
        key = (points, targets)
        rows = self._eval_cache.get(key)
        if rows is None:
            rows = tuple(
                tuple(
                    int(c)
                    for c in lagrange_coefficients(self.ring, points, at=target)
                )
                for target in targets
            )
            self._eval_cache[key] = rows
        else:
            # Cache hits stand in for one coefficient vector per target;
            # note them so counters are identical on warm and cold caches.
            _hooks.note(_hooks.LAGRANGE_INTERPOLATION, len(targets))
        return rows

    # -- internals -----------------------------------------------------------

    def _backend(self) -> str:
        # The widest matrix product on this geometry has inner dimension n
        # (a degree-(n-1) dealing column, or a full reconstruction base).
        return resolve_backend(self.ring.modulus, self.n)

    def _check_degree(self, d: int) -> None:
        if not (self.k - 1 <= d <= self.n - 1):
            raise ParameterError(
                f"degree {d} outside valid range [{self.k - 1}, {self.n - 1}]"
            )

    def _check_degrees(
        self, degree: int | Sequence[int] | None, count: int
    ) -> list[int]:
        if degree is None:
            degrees = [self.default_degree] * count
        elif isinstance(degree, int):
            degrees = [degree] * count
        else:
            degrees = [int(d) for d in degree]
            if len(degrees) != count:
                raise ParameterError(
                    f"{len(degrees)} degrees for {count} secret vectors"
                )
        for d in degrees:
            self._check_degree(d)
        return degrees

    def _check_row(self, secrets: Sequence[int | ZmodElement]) -> list[int]:
        """``secrets`` as a fresh row of ints reduced mod the ring modulus."""
        if len(secrets) != self.k:
            raise ParameterError(
                f"expected {self.k} packed secrets, got {len(secrets)}"
            )
        modulus, element = self.ring.modulus, self.ring.element
        return [
            v % modulus if type(v) is int else element(v).value for v in secrets
        ]

    def _check_secrets(self, secrets: Sequence[int | ZmodElement]) -> list[ZmodElement]:
        return [ZmodElement(self.ring, v) for v in self._check_row(secrets)]


_SCHEME_CACHE: dict[tuple[int, int, int, int], PackedShamirScheme] = {}


def packed_scheme(
    ring: Zmod, n: int, k: int, default_degree: int | None = None
) -> PackedShamirScheme:
    """A process-wide memoized scheme for ``(modulus, n, k)``.

    Schemes are stateless apart from their precomputed-matrix caches, so
    repeated runs over the same geometry — every epoch of the client-aided
    service, every resharing hop — reuse the kernels instead of rebuilding
    them.  Distinct geometries get distinct instances (and therefore
    distinct caches).
    """
    key = (ring.modulus, n, k, -1 if default_degree is None else default_degree)
    scheme = _SCHEME_CACHE.get(key)
    if scheme is None:
        scheme = PackedShamirScheme(ring, n, k, default_degree)
        _SCHEME_CACHE[key] = scheme
    return scheme


def _dedupe(shares: Iterable[PackedShare]) -> list[PackedShare]:
    seen: dict[int, PackedShare] = {}
    for s in shares:
        if s.index in seen and seen[s.index].value != s.value:
            raise ReconstructionError(f"conflicting shares for party {s.index}")
        seen[s.index] = s
    return list(seen.values())


def _dedupe_points(
    sharing: Iterable[tuple[int, int]], modulus: int
) -> list[tuple[int, int]]:
    """:func:`_dedupe` for ``(index, value)`` int pairs, values reduced."""
    seen: dict[int, int] = {}
    for index, value in sharing:
        value %= modulus
        if seen.setdefault(index, value) != value:
            raise ReconstructionError(f"conflicting shares for party {index}")
    return list(seen.items())


def _zip_by_index(a: PackedSharing, b: PackedSharing):
    bmap = {s.index: s for s in b}
    for s in a:
        if s.index not in bmap:
            raise SharingError(f"missing counterpart share for party {s.index}")
        yield s, bmap[s.index]
