"""Tests for the deployment-planning layer over the §6 analysis."""

import pytest

from repro.errors import ParameterError, SortitionError
from repro.sortition import (
    analyze,
    feasible_region,
    gap_series,
    max_tolerable_corruption,
    min_committee_for_gap,
    min_committee_for_packing,
    packing_series,
)


class TestInverseSearch:
    def test_min_committee_reaches_target_gap(self):
        g = min_committee_for_gap(0.10, target_epsilon=0.15)
        assert g.epsilon >= 0.15
        # Tightness: a committee 20% smaller must miss the target.
        with pytest.raises(SortitionError):
            min_committee_for_gap(0.10, 0.15, c_max=int(g.c_param * 0.8))

    def test_consistent_with_table1(self):
        # The published (C=5000, f=0.1) row has eps=0.15, so the minimal C
        # for that gap must be at most 5000.
        g = min_committee_for_gap(0.10, target_epsilon=0.15)
        assert g.c_param <= 5000

    def test_min_committee_for_packing(self):
        g = min_committee_for_packing(0.10, target_k=500)
        assert g.packing_factor >= 500
        smaller = analyze(g.c_param * 0.7, 0.10)
        assert smaller.packing_factor < 500

    def test_unreachable_targets_raise(self):
        with pytest.raises(SortitionError):
            min_committee_for_gap(0.25, 0.45, c_max=100000)
        with pytest.raises(SortitionError):
            min_committee_for_packing(0.25, 10**9, c_max=100000)

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            min_committee_for_gap(0.1, 0.0)
        with pytest.raises(ParameterError):
            min_committee_for_packing(0.1, 0)

    def test_conservative_needs_bigger_committee(self):
        loose = min_committee_for_gap(0.10, 0.10)
        strict = min_committee_for_gap(0.10, 0.10, conservative=True)
        assert strict.c_param > loose.c_param


class TestSeries:
    def test_gap_series_monotone_in_f(self):
        points = gap_series(20000)
        feasible = [p for p in points if p.feasible]
        assert len(feasible) >= 4
        gaps = [p.epsilon for p in feasible]
        assert gaps == sorted(gaps, reverse=True)  # more corruption, less gap
        assert not points[-1].feasible  # f = 0.30 is beyond reach at C = 20000

    def test_gap_series_marks_infeasible_tail(self):
        points = gap_series(1000)
        assert points[0].feasible         # f = 0.05
        assert not points[-1].feasible    # f = 0.30

    def test_packing_series_monotone_in_c(self):
        series = packing_series(0.10)
        ks = [k for _, k in series if k is not None]
        assert ks == sorted(ks)
        assert ks[-1] > 100 * 1  # large committees, large savings
        assert ks[-1] > 5 * ks[0]  # ... and they compound with scale

    def test_feasible_region_shape(self):
        region = feasible_region((1000, 20000), (0.05, 0.25))
        assert region[(1000, 0.05)] is True
        assert region[(1000, 0.25)] is False
        assert region[(20000, 0.05)] is True

    def test_max_tolerable_corruption(self):
        f_max = max_tolerable_corruption(20000)
        assert 0.20 < f_max < 0.25  # Table 1: 0.20 feasible, 0.25 is ⊥
        assert analyze(20000, f_max).epsilon > 0

    def test_max_tolerable_grows_with_committee(self):
        frontier = [max_tolerable_corruption(c) for c in (1000, 5000, 20000, 40000)]
        assert frontier == sorted(frontier)
        assert 0.05 < frontier[0] < 0.10    # Table 1: f = 0.05 feasible, f = 0.10 is ⊥
        assert 0.20 < frontier[-1] < 0.30   # f = 0.25 is the last feasible row

    def test_tiny_committee_infeasible(self):
        with pytest.raises(SortitionError):
            max_tolerable_corruption(50)
