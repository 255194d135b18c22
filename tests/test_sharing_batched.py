"""Cross-path equivalence suite for the batched sharing kernel.

Pins the rows of :meth:`share_many` / :meth:`canonical_many` /
:meth:`reconstruct_many` on both backends (numpy ``uint64`` kernel,
pure-int) to the single-sharing polynomial path — a loop of :meth:`share` /
:meth:`canonical_sharing` / :meth:`reconstruct` with the ``PackedShare``
values unboxed: identical share values for identical RNG streams, with the
RNG left in the identical end state.  Geometries cover k=1, n<2k−1,
minimum and maximum degrees; moduli straddle the 63-bit numpy cutover and
reach the core protocol's 256-bit test width.  Where the numpy backend
runs, the input vectors are also given as one ``uint64`` table, and the
rows must come back as ``uint64`` arrays; the int backend returns lists.
The element-wise arithmetic the evaluators run on those arrays is checked
against Python ints at the ``uint64`` overflow edges.
"""

import random
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError, ReconstructionError
from repro.fields import Zmod
from repro.sharing import (
    NUMPY_MODULUS_BITS,
    PackedShamirScheme,
    PackedShare,
    kernel,
    matmul_mod,
    packed_scheme,
    resolve_backend,
)
from repro.sharing.kernel import (
    NUMPY_MAX_INNER,
    add_mod,
    mul_mod,
    numpy_supports,
    sum_mod,
)

P61 = (1 << 61) - 1  # the IT/Turbopack evaluators' Mersenne prime
P63 = (1 << 63) - 25  # largest prime below 2**63: exactly at the cutover
P127 = (1 << 127) - 1  # above the cutover: must resolve to int
P256 = (1 << 256) - 189  # a core-width modulus: int kernel only
PSMALL = 10**6 + 3

MODULI = [P61, P63, P127, P256, PSMALL]

#: (n, k) including k=1, n<2k−1, and the degenerate single-degree n=k.
GEOMETRIES = [(11, 5), (9, 2), (5, 1), (4, 3), (7, 7)]


def int_path():
    """numpy declared unsupported: the int path at any modulus."""
    return mock.patch.object(kernel, "numpy_supports", lambda modulus, inner: False)


#: Scheme-level tests run on the backend the shape resolves to, then on int.
BACKEND_MODES = [nullcontext, int_path]


def sample_case(n: int, k: int, modulus: int, seed: int):
    """Derive a deterministic (degrees, vectors) workload from one seed."""
    src = random.Random(seed)
    count = src.randrange(1, 6)
    # Min and max degree always present so the boundary cases never rotate
    # out of a shrunk example.
    degrees = [k - 1, n - 1] + [src.randrange(k - 1, n) for _ in range(count)]
    vectors = [
        [src.randrange(modulus) for _ in range(k)] for _ in degrees
    ]
    return degrees, vectors


def unboxed(sharings):
    """Single-sharing API results as the rows the batched API trades in."""
    return [[int(s.value) for s in sharing] for sharing in sharings]


def pairs(sharing):
    return [(s.index, int(s.value)) for s in sharing]


def given_forms(vectors, modulus):
    """The vectors as int lists and, where numpy runs the modulus, as one
    ``uint64`` table too."""
    if numpy_supports(modulus, 1):
        return [vectors, np.array(vectors, dtype=np.uint64)]
    return [vectors]


def as_lists(rows, scheme):
    """The batched result as int lists, after checking its form: ``uint64``
    arrays where the geometry resolves to numpy, Python-int lists otherwise
    (call inside the backend mode the result was computed under)."""
    if resolve_backend(scheme.ring.modulus, scheme.n) == "numpy":
        assert isinstance(rows, np.ndarray) and rows.dtype == np.uint64
        return rows.tolist()
    assert isinstance(rows, list)
    assert all(type(v) is int for row in rows for v in (row if isinstance(row, list) else [row]))
    return rows


@settings(max_examples=40, deadline=None)
@given(
    geom=st.sampled_from(GEOMETRIES),
    modulus=st.sampled_from(MODULI),
    seed=st.integers(min_value=0, max_value=1 << 30),
)
def test_share_many_matches_legacy(geom, modulus, seed):
    n, k = geom
    ring = Zmod(modulus)
    degrees, vectors = sample_case(n, k, modulus, seed)
    scheme = PackedShamirScheme(ring, n, k)
    rng_loop = random.Random(seed ^ 0x5EED)
    expected = [
        scheme.share(v, degree=d, rng=rng_loop) for v, d in zip(vectors, degrees)
    ]
    for mode in BACKEND_MODES:
        for secrets in given_forms(vectors, modulus):
            rng_batched = random.Random(seed ^ 0x5EED)
            with mode():
                got = scheme.share_many(secrets, degree=degrees, rng=rng_batched)
                assert as_lists(got, scheme) == unboxed(expected)
            # Same values is not enough: the batched path must consume the
            # RNG stream identically, or every downstream draw diverges.
            assert rng_batched.getstate() == rng_loop.getstate()


@settings(max_examples=40, deadline=None)
@given(
    geom=st.sampled_from(GEOMETRIES),
    modulus=st.sampled_from(MODULI),
    seed=st.integers(min_value=0, max_value=1 << 30),
)
def test_canonical_many_matches_legacy(geom, modulus, seed):
    n, k = geom
    ring = Zmod(modulus)
    _, vectors = sample_case(n, k, modulus, seed)
    scheme = PackedShamirScheme(ring, n, k)
    index = random.Random(seed).randrange(1, n + 1)
    expected_full = [scheme.canonical_sharing(v) for v in vectors]
    expected_one = [scheme.canonical_share_for(v, index) for v in vectors]
    for mode in BACKEND_MODES:
        for public in given_forms(vectors, modulus):
            with mode():
                got_full = as_lists(scheme.canonical_many(public), scheme)
                got_one = as_lists(scheme.canonical_many(public, index=index), scheme)
            assert got_full == unboxed(expected_full)
            assert got_one == [int(s.value) for s in expected_one]


@settings(max_examples=40, deadline=None)
@given(
    geom=st.sampled_from(GEOMETRIES),
    modulus=st.sampled_from(MODULI),
    seed=st.integers(min_value=0, max_value=1 << 30),
)
def test_reconstruct_many_matches_legacy(geom, modulus, seed):
    n, k = geom
    ring = Zmod(modulus)
    degrees, vectors = sample_case(n, k, modulus, seed)
    scheme = PackedShamirScheme(ring, n, k)
    rng = random.Random(seed)
    sharings = [scheme.share(v, degree=d, rng=rng) for v, d in zip(vectors, degrees)]
    expected = [[int(v) for v in scheme.reconstruct(s)] for s in sharings]
    assert expected == [[v % modulus for v in vec] for vec in vectors]
    for mode in BACKEND_MODES:
        with mode():
            # Rows carry no degree tag: one call per degree.
            got = [
                as_lists(scheme.reconstruct_many([pairs(s)], d), scheme)[0]
                for s, d in zip(sharings, degrees)
            ]
        assert got == expected


@pytest.mark.parametrize("modulus", [P61, P256], ids=["numpy-61", "int-256"])
def test_rows_of_interleaved_degrees(modulus):
    """The IT committees' shape: degrees d, d, 2d interleaved in one call."""
    n, k, d = 11, 5, 5
    scheme = PackedShamirScheme(Zmod(modulus), n, k)
    assert resolve_backend(modulus, n) == ("numpy" if modulus == P61 else "int")
    src = random.Random(16)
    degrees = [d, d, 2 * d] * 4
    vectors = [[src.randrange(modulus) for _ in range(k)] for _ in degrees]
    rng_loop, rng_batched = random.Random(7), random.Random(7)
    expected = unboxed(
        scheme.share(v, degree=deg, rng=rng_loop) for v, deg in zip(vectors, degrees)
    )
    rows = scheme.share_many(vectors, degree=degrees, rng=rng_batched)
    # A P61 row is a uint64 array until the wire; a P256 scheme keeps lists.
    assert as_lists(rows, scheme) == expected
    assert rng_batched.getstate() == rng_loop.getstate()
    for deg in (d, 2 * d):
        picked = [r for r, x in zip(rows, degrees) if x == deg]
        opened = scheme.reconstruct_many(
            [list(enumerate(row, start=1)) for row in picked], deg
        )
        assert as_lists(opened, scheme) == [
            [v % modulus for v in vec]
            for vec, x in zip(vectors, degrees) if x == deg
        ]
    index = 4
    assert as_lists(scheme.canonical_many(vectors, index=index), scheme) == [
        int(scheme.canonical_share_for(v, index).value) for v in vectors
    ]


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=6),
    inner=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1 << 30),
    modulus=st.sampled_from([P61, P63, PSMALL]),
)
def test_matmul_mod_numpy_matches_int(rows, inner, cols, seed, modulus):
    """The limb-split numpy product is exact right up to the 63-bit cutover."""
    src = random.Random(seed)
    # p − 1 everywhere in the first row and vector: every limb at its maximum.
    matrix = ((modulus - 1,) * inner,) + tuple(
        tuple(src.randrange(modulus) for _ in range(inner)) for _ in range(rows - 1)
    )
    vectors = [[modulus - 1] * inner] + [
        [src.randrange(modulus) for _ in range(inner)] for _ in range(cols - 1)
    ]
    expected = matmul_mod(matrix, vectors, modulus, "int")
    got = matmul_mod(matrix, np.array(vectors, dtype=np.uint64), modulus, "numpy")
    assert got.dtype == np.uint64
    assert got.tolist() == expected


@settings(max_examples=40, deadline=None)
@given(
    modulus=st.sampled_from([P61, P63]),
    count=st.integers(min_value=11, max_value=64),
    seed=st.integers(min_value=0, max_value=1 << 30),
)
def test_elementwise_mod_matches_python_ints(modulus, count, seed):
    """mul_mod / add_mod (a sum, and a difference as a + (p − b)) and the
    chunked sum against the loop
    versions: products of residues near p (128-bit), sums of 11 to 64
    residues p − 1 (past what uint64 holds), at 2^61 − 1 and just under 2^63."""
    src = random.Random(seed)
    edge = [0, 1, modulus - 2, modulus - 1, (1 << 62) % modulus, (1 << 32) - 1]
    a = edge + [src.randrange(modulus) for _ in range(count)]
    b = list(reversed(edge)) + [
        modulus - 1 - src.randrange(1 << 20) for _ in range(count)
    ]
    ua, ub = np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64)
    assert mul_mod(ua, ub, modulus).tolist() == [x * y % modulus for x, y in zip(a, b)]
    assert add_mod(ua, ub, modulus).tolist() == [(x + y) % modulus for x, y in zip(a, b)]
    assert add_mod(ua, modulus - ub, modulus).tolist() == [
        (x - y) % modulus for x, y in zip(a, b)
    ]
    table = [[modulus - 1] * 3 + [src.randrange(modulus)] for _ in range(count)]
    assert sum_mod(np.array(table, dtype=np.uint64), modulus).tolist() == [
        sum(column) % modulus for column in zip(*table)
    ]
    # Python ints (the int backend's operands) take the plain path.
    assert mul_mod(a[-1], b[-1], modulus) == a[-1] * b[-1] % modulus


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError):
            matmul_mod(((1, 2),), [[3, 4]], P61, "vectorised")

    def test_numpy_forced_above_cutover_raises(self):
        # The uint64 limbs would silently wrap: refuse instead.
        wide = (1 << 63) + 9
        with pytest.raises(ParameterError, match="64 bits"):
            matmul_mod(((1, 2),), [[3, 4]], wide, "numpy")
        inner = NUMPY_MAX_INNER + 1
        with pytest.raises(ParameterError, match=f"inner dimension {inner}"):
            matmul_mod(((1,) * inner,), [[1] * inner], P61, "numpy")
        assert matmul_mod(((1, 2),), [[3, 4]], wide, "int") == [[11]]

    def test_cutover_rule(self):
        # <= 63 bits and inner <= 4096: numpy; otherwise the int path.
        assert P63.bit_length() == NUMPY_MODULUS_BITS
        assert resolve_backend(P61, 4096) == "numpy"
        assert resolve_backend(P63, 4096) == "numpy"
        assert resolve_backend(P61, 4097) == "int"
        assert resolve_backend(P63, 4097) == "int"
        assert resolve_backend(P127, 64) == "int"
        assert not numpy_supports(P127, 64)


class TestBatchedErrors:
    """Bad rows raise what :meth:`reconstruct` raises on the same shares."""

    @staticmethod
    def single_path_message(scheme, shares):
        with pytest.raises(ReconstructionError) as caught:
            scheme.reconstruct(shares)
        return str(caught.value)

    @pytest.fixture
    def dealt(self, rng):
        scheme = PackedShamirScheme(Zmod(P61), 8, 2, default_degree=3)
        return scheme, scheme.share([5, 6], rng=rng)

    @staticmethod
    def bumped(share):
        return PackedShare(share.index, share.value + 1, share.degree, share.k)

    def test_conflicting_duplicate_detected(self, dealt):
        scheme, sharing = dealt
        forged = sharing + [self.bumped(sharing[0])]
        message = self.single_path_message(scheme, forged)
        assert message == "conflicting shares for party 1"
        with pytest.raises(ReconstructionError) as caught:
            scheme.reconstruct_many([pairs(forged)], 3)
        assert str(caught.value) == message

    def test_redundant_share_checked(self, dealt):
        scheme, sharing = dealt
        bad_last = sharing[:-1] + [self.bumped(sharing[-1])]
        message = self.single_path_message(scheme, bad_last)
        assert message == "share of party 8 inconsistent with the others"
        with pytest.raises(ReconstructionError) as caught:
            scheme.reconstruct_many([pairs(bad_last)], 3)
        assert str(caught.value) == message

    def test_short_sharing_rejected(self, dealt):
        scheme, sharing = dealt
        # A duplicate does not count towards the degree+1 shares needed.
        short = sharing[:3] + sharing[:1]
        message = self.single_path_message(scheme, short)
        assert message == "need 4 shares for degree 3, got 3"
        with pytest.raises(ReconstructionError) as caught:
            scheme.reconstruct_many([pairs(short)], 3)
        assert str(caught.value) == message
        with pytest.raises(ReconstructionError, match="no shares supplied"):
            scheme.reconstruct_many([[]], 3)

    def test_degree_list_length_checked(self, rng):
        scheme = PackedShamirScheme(Zmod(P61), 8, 2)
        with pytest.raises(ParameterError):
            scheme.share_many([[1, 2], [3, 4]], degree=[3], rng=rng)


class TestMatrixCaches:
    """Fresh geometry ⇒ fresh matrices — no stale-cache reuse across shapes.

    Mirrors tests/test_program.py's cache-revalidation test: the thing that
    must never happen is an (n, d, k) change silently served by matrices of
    the old shape.
    """

    def test_fresh_scheme_has_empty_caches(self, rng):
        ring = Zmod(P61)
        a = PackedShamirScheme(ring, 8, 3)
        a.share_many([[1, 2, 3]], rng=rng)
        assert a._dealing_cache and a._eval_cache
        b = PackedShamirScheme(ring, 9, 3)
        assert not b._dealing_cache and not b._eval_cache

    def test_new_geometry_matrices_have_new_shape(self, rng):
        ring = Zmod(P61)
        a = PackedShamirScheme(ring, 8, 3)
        b = PackedShamirScheme(ring, 9, 3)
        _, rows_a = a._dealing_matrix(a.default_degree)
        _, rows_b = b._dealing_matrix(b.default_degree)
        assert len(rows_a) == 8 and len(rows_b) == 9
        # Both geometries still round-trip correctly.
        for scheme in (a, b):
            [row] = scheme.share_many([[7, 8, 9]], rng=rng)
            assert scheme.reconstruct_many(
                [list(enumerate(row, start=1))], scheme.default_degree
            ).tolist() == [[7, 8, 9]]

    def test_packed_scheme_memoizes_per_geometry(self):
        ring = Zmod(P61)
        s1 = packed_scheme(ring, 8, 3)
        assert packed_scheme(ring, 8, 3) is s1
        assert packed_scheme(ring, 9, 3) is not s1
        assert packed_scheme(ring, 8, 2) is not s1
        assert packed_scheme(Zmod(P63), 8, 3) is not s1
        assert packed_scheme(ring, 8, 3, default_degree=4) is not s1
