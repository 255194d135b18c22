"""Tests for packed Shamir sharing — the paper's core primitive."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError, ReconstructionError, SharingError
from repro.fields import Zmod
from repro.sharing import PackedShamirScheme, PackedShare, secret_slots

F = Zmod((1 << 61) - 1)


class TestSlots:
    def test_slots_are_nonpositive_descending(self):
        assert secret_slots(4) == [0, -1, -2, -3]

    def test_bad_k(self):
        with pytest.raises(ParameterError):
            secret_slots(0)


class TestShareReconstruct:
    def test_roundtrip_default_degree(self, rng):
        scheme = PackedShamirScheme(F, 10, 3)
        secrets = F.elements([11, 22, 33])
        sharing = scheme.share(secrets, rng=rng)
        assert scheme.reconstruct(sharing) == secrets

    def test_roundtrip_all_valid_degrees(self, rng):
        n, k = 8, 3
        scheme = PackedShamirScheme(F, n, k)
        secrets = F.elements([5, 6, 7])
        for degree in range(k - 1, n):
            sharing = scheme.share(secrets, degree=degree, rng=rng)
            assert scheme.reconstruct(sharing[: degree + 1]) == secrets

    def test_degree_bounds_enforced(self, rng):
        scheme = PackedShamirScheme(F, 8, 3)
        with pytest.raises(ParameterError):
            scheme.share(F.elements([1, 2, 3]), degree=1, rng=rng)
        with pytest.raises(ParameterError):
            scheme.share(F.elements([1, 2, 3]), degree=8, rng=rng)

    def test_wrong_secret_count(self, rng):
        scheme = PackedShamirScheme(F, 8, 3)
        with pytest.raises(ParameterError):
            scheme.share(F.elements([1, 2]), rng=rng)

    def test_too_few_shares(self, rng):
        scheme = PackedShamirScheme(F, 8, 3)
        sharing = scheme.share(F.elements([1, 2, 3]), degree=5, rng=rng)
        with pytest.raises(ReconstructionError):
            scheme.reconstruct(sharing[:5])

    def test_privacy_margin(self, rng):
        # d − k + 1 shares are independent of the secrets: two sharings of
        # different vectors can agree on that many shares.
        n, k, d = 8, 2, 4
        scheme = PackedShamirScheme(F, n, k, default_degree=d)
        margin = d - k + 1
        s1 = scheme.share(F.elements([1, 2]), rng=random.Random(1))
        from repro.fields import interpolate
        points = list(zip(secret_slots(k), F.elements([7, 9])))
        points += [(s.index, s.value) for s in s1[:margin]]
        poly = interpolate(F, points)
        s2 = [PackedShare(i, poly(i), poly.degree if poly.degree >= k - 1 else d, k)
              for i in range(1, n + 1)]
        assert [x.value for x in s2[:margin]] == [x.value for x in s1[:margin]]

    def test_inconsistent_share_detected(self, rng):
        scheme = PackedShamirScheme(F, 8, 2, default_degree=3)
        sharing = scheme.share(F.elements([1, 2]), rng=rng)
        bad = sharing[:-1] + [
            PackedShare(8, sharing[-1].value + F(1), sharing[-1].degree, 2)
        ]
        with pytest.raises(ReconstructionError):
            scheme.reconstruct(bad)

    def test_mixed_degrees_rejected(self, rng):
        scheme = PackedShamirScheme(F, 8, 2)
        a = scheme.share(F.elements([1, 2]), degree=3, rng=rng)
        b = scheme.share(F.elements([1, 2]), degree=4, rng=rng)
        with pytest.raises(ReconstructionError):
            scheme.reconstruct(a[:3] + b[3:])

    def test_mismatched_k_rejected(self, rng):
        scheme3 = PackedShamirScheme(F, 8, 3)
        scheme2 = PackedShamirScheme(F, 8, 2)
        sharing = scheme3.share(F.elements([1, 2, 3]), rng=rng)
        with pytest.raises(ReconstructionError):
            scheme2.reconstruct(sharing)


class TestLinearOps:
    def test_addition(self, rng):
        scheme = PackedShamirScheme(F, 9, 3)
        a = scheme.share(F.elements([1, 2, 3]), rng=rng)
        b = scheme.share(F.elements([10, 20, 30]), rng=rng)
        assert scheme.reconstruct(scheme.add(a, b)) == F.elements([11, 22, 33])

    def test_subtraction(self, rng):
        scheme = PackedShamirScheme(F, 9, 3)
        a = scheme.share(F.elements([5, 5, 5]), rng=rng)
        b = scheme.share(F.elements([1, 2, 3]), rng=rng)
        assert scheme.reconstruct(scheme.sub(a, b)) == F.elements([4, 3, 2])

    def test_scaling(self, rng):
        scheme = PackedShamirScheme(F, 9, 3)
        a = scheme.share(F.elements([1, 2, 3]), rng=rng)
        assert scheme.reconstruct(scheme.scale(a, 5)) == F.elements([5, 10, 15])

    def test_degree_mismatch_add_rejected(self, rng):
        scheme = PackedShamirScheme(F, 9, 3)
        a = scheme.share(F.elements([1, 2, 3]), degree=4, rng=rng)
        b = scheme.share(F.elements([1, 2, 3]), degree=5, rng=rng)
        with pytest.raises(SharingError):
            scheme.add(a, b)


class TestMultiplication:
    def test_sharewise_product(self, rng):
        scheme = PackedShamirScheme(F, 11, 3)
        a = scheme.share(F.elements([2, 3, 4]), degree=4, rng=rng)
        b = scheme.share(F.elements([5, 6, 7]), degree=4, rng=rng)
        product = scheme.multiply(a, b)
        assert product[0].degree == 8
        assert scheme.reconstruct(product) == F.elements([10, 18, 28])

    def test_product_degree_overflow_rejected(self, rng):
        scheme = PackedShamirScheme(F, 8, 3)
        a = scheme.share(F.elements([1, 1, 1]), degree=4, rng=rng)
        b = scheme.share(F.elements([1, 1, 1]), degree=4, rng=rng)
        with pytest.raises(SharingError):
            scheme.multiply(a, b)

    def test_public_product(self, rng):
        n, k = 10, 3
        scheme = PackedShamirScheme(F, n, k)
        sharing = scheme.share(F.elements([1, 2, 3]), degree=n - k, rng=rng)
        result = scheme.public_product([4, 5, 6], sharing)
        assert result[0].degree == (n - k) + (k - 1)
        assert scheme.reconstruct(result) == F.elements([4, 10, 18])

    def test_public_product_degree_guard(self, rng):
        n, k = 8, 3
        scheme = PackedShamirScheme(F, n, k)
        sharing = scheme.share(F.elements([1, 2, 3]), degree=n - k + 1, rng=rng)
        with pytest.raises(SharingError):
            scheme.public_product([1, 1, 1], sharing)


class TestRobustReconstruct:
    def test_duplicate_but_consistent_shares_accepted(self, rng):
        # A party's share posted twice (e.g. relayed on two channels) must
        # dedupe silently — only *conflicting* duplicates are an error.
        n, k, d = 9, 2, 3
        scheme = PackedShamirScheme(F, n, k, default_degree=d)
        sharing = scheme.share(F.elements([3, 4]), rng=rng)
        doubled = sharing + sharing[:3]
        assert scheme.robust_reconstruct(doubled, max_errors=2) == F.elements([3, 4])
        assert scheme.reconstruct(doubled) == F.elements([3, 4])
        pairs = [(s.index, int(s.value)) for s in doubled]
        assert scheme.reconstruct_many([pairs], d).tolist() == [[3, 4]]

    def test_duplicate_conflicting_share_rejected(self, rng):
        scheme = PackedShamirScheme(F, 9, 2, default_degree=3)
        sharing = scheme.share(F.elements([3, 4]), rng=rng)
        forged = sharing + [
            PackedShare(1, sharing[0].value + F(1), sharing[0].degree, 2)
        ]
        with pytest.raises(ReconstructionError, match="conflicting"):
            scheme.robust_reconstruct(forged, max_errors=2)
        with pytest.raises(ReconstructionError, match="conflicting"):
            scheme.reconstruct_many(
                [[(s.index, int(s.value)) for s in forged]], 3
            )


class TestPublicProductBoundary:
    def test_exactly_degree_n_minus_k_accepted(self, rng):
        # d = n−k is the edge of multiplication-friendliness: the product
        # has degree n−1, still reconstructable from all n shares.
        n, k = 9, 3
        scheme = PackedShamirScheme(F, n, k)
        sharing = scheme.share(F.elements([2, 3, 4]), degree=n - k, rng=rng)
        result = scheme.public_product([5, 6, 7], sharing)
        assert result[0].degree == n - 1
        assert scheme.reconstruct(result) == F.elements([10, 18, 28])

    def test_product_matches_per_party_canonical(self, rng):
        # The batched canonical sharing inside public_product must agree
        # with the per-party interpolation it replaced.
        n, k = 10, 3
        scheme = PackedShamirScheme(F, n, k)
        public = [4, 5, 6]
        sharing = scheme.share(F.elements([1, 2, 3]), degree=n - k, rng=rng)
        result = scheme.public_product(public, sharing)
        for share, original in zip(result, sharing):
            expected = scheme.canonical_share_for(public, share.index) * original
            assert share.value == expected.value
            assert share.degree == expected.degree


class TestCanonicalSharing:
    def test_canonical_is_deterministic(self):
        scheme = PackedShamirScheme(F, 8, 3)
        a = scheme.canonical_sharing(F.elements([7, 8, 9]))
        b = scheme.canonical_sharing(F.elements([7, 8, 9]))
        assert [x.value for x in a] == [x.value for x in b]
        assert a[0].degree == 2

    def test_canonical_share_for_matches_full(self):
        scheme = PackedShamirScheme(F, 8, 3)
        full = scheme.canonical_sharing(F.elements([7, 8, 9]))
        for i in (1, 4, 8):
            assert scheme.canonical_share_for(F.elements([7, 8, 9]), i).value == full[i - 1].value

    def test_canonical_reconstructs(self):
        scheme = PackedShamirScheme(F, 8, 3)
        sharing = scheme.canonical_sharing(F.elements([7, 8, 9]))
        assert scheme.reconstruct(sharing[:3]) == F.elements([7, 8, 9])


class TestShareAlgebra:
    def test_share_tag_validation(self):
        with pytest.raises(ParameterError):
            PackedShare(0, F(1), 2, 2)
        with pytest.raises(ParameterError):
            PackedShare(1, F(1), 0, 2)

    def test_cross_party_ops_rejected(self):
        a = PackedShare(1, F(1), 2, 2)
        b = PackedShare(2, F(1), 2, 2)
        with pytest.raises(SharingError):
            a + b

    def test_cross_k_ops_rejected(self):
        a = PackedShare(1, F(1), 2, 2)
        b = PackedShare(1, F(1), 2, 3)
        with pytest.raises(SharingError):
            a * b


@settings(max_examples=25, deadline=None)
@given(
    secrets=st.lists(st.integers(min_value=0, max_value=1 << 60), min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=1 << 30),
    extra=st.integers(min_value=0, max_value=5),
)
def test_packed_roundtrip_property(secrets, seed, extra):
    k = len(secrets)
    degree = k - 1 + extra
    n = degree + 1 + 2
    scheme = PackedShamirScheme(F, n, k)
    sharing = scheme.share(F.elements(secrets), degree=degree, rng=random.Random(seed))
    assert scheme.reconstruct(sharing) == F.elements(secrets)


@settings(max_examples=25, deadline=None)
@given(
    xs=st.lists(st.integers(min_value=0, max_value=1 << 40), min_size=3, max_size=3),
    ys=st.lists(st.integers(min_value=0, max_value=1 << 40), min_size=3, max_size=3),
    seed=st.integers(min_value=0, max_value=1 << 30),
)
def test_packed_multiplication_property(xs, ys, seed):
    rng = random.Random(seed)
    scheme = PackedShamirScheme(F, 11, 3)
    a = scheme.share(F.elements(xs), degree=4, rng=rng)
    b = scheme.share(F.elements(ys), degree=4, rng=rng)
    expected = [F(x) * F(y) for x, y in zip(xs, ys)]
    assert scheme.reconstruct(scheme.multiply(a, b)) == expected
