import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skbeta.errors import (
    DegenerateSampleError,
    EmptyInputError,
    EmptyResultError,
    UndefinedShapeError,
    ZeroVarianceError,
)
from skbeta.moments import (
    REL_STD_FLOOR,
    central_moments,
    detect_outliers,
    group_sk_points,
    histogram,
    segment_moments,
    shape_moments,
    sk_points_to_csv,
    summarize,
    summary_block,
)

samples = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=60,
)


def _nondegenerate(xs):
    return max(xs) - min(xs) > 1e-6


class TestCentralMoments:
    def test_hand_example(self):
        mus = central_moments([1, 2, 3], order=4)
        assert mus[0] == pytest.approx(0.0, abs=1e-15)
        assert mus[1] == pytest.approx(2 / 3, rel=1e-15)
        assert mus[2] == 0.0
        assert mus[3] == pytest.approx(2 / 3, rel=1e-15)

    def test_two_point(self):
        assert central_moments([0, 1], order=2)[1] == pytest.approx(0.25, rel=1e-15)

    def test_constant_sample_signals(self):
        with pytest.raises(ZeroVarianceError):
            central_moments([3.5, 3.5, 3.5])

    def test_single_value_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            central_moments([1.0])

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            central_moments([])

    def test_bad_order(self):
        with pytest.raises(ValueError):
            central_moments([1, 2, 3], order=5)

    @given(samples)
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_reference(self, xs):
        assume(_nondegenerate(xs))
        mus = central_moments(xs, order=4)
        arr = np.asarray(xs, dtype=np.longdouble)
        mean = arr.mean()
        mu2_ref = float(((arr - mean) ** 2).mean())
        for i in (2, 3, 4):
            ref = float(((arr - mean) ** i).mean())
            # odd moments can cancel to ~0, where a pure relative bound is
            # meaningless; floor the tolerance at the moment's natural scale
            tol = max(1e-10 * abs(ref), 1e-10 * mu2_ref ** (i / 2))
            assert abs(mus[i - 1] - ref) <= tol

    def test_large_sample_reference(self):
        rng = np.random.default_rng(11)
        xs = list(rng.lognormal(20.0, 1.0, 10_000))  # EUR-scale magnitudes
        mus = central_moments(xs, order=4)
        arr = np.asarray(xs, dtype=np.longdouble)
        mean = arr.mean()
        for i in (2, 3, 4):
            ref = float(((arr - mean) ** i).mean())
            assert mus[i - 1] == pytest.approx(ref, rel=1e-10)


class TestShapeMoments:
    def test_symmetric_three_point(self):
        s, k = shape_moments([1, 2, 3])
        assert s == 0.0
        assert k == pytest.approx(1.5, rel=1e-14)

    def test_asymmetric_three_point(self):
        s, _ = shape_moments([0, 0, 1])
        assert s == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_two_point_pearson_equality(self):
        s, k = shape_moments([0, 1])
        assert s == 0.0
        assert k == 1.0

    def test_zero_variance(self):
        with pytest.raises(UndefinedShapeError):
            shape_moments([2, 2, 2])
        with pytest.raises(ZeroVarianceError):  # subclass relationship
            shape_moments([2, 2, 2])

    @given(samples)
    @settings(max_examples=200, deadline=None)
    def test_pearson_bound(self, xs):
        assume(_nondegenerate(xs))
        s, k = shape_moments(xs)
        assert k >= s * s + 1.0 - 1e-12

    @given(samples, st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_translation_invariance_property(self, xs, c):
        # shifted inputs round to ~(|c|+|x|)*eps before any arithmetic, so
        # badly conditioned samples (spread tiny against the shift) cannot
        # meet a fixed tolerance; requiring unit-order spread bounds the
        # conditioning while still catching any centering bug
        assume(max(xs) - min(xs) > 0.5)
        s0, k0 = shape_moments(xs)
        s1, k1 = shape_moments([x + c for x in xs])
        assert s1 == pytest.approx(s0, rel=2e-9, abs=2e-9)
        assert k1 == pytest.approx(k0, rel=2e-9, abs=2e-9)

    def test_translation_invariance_well_conditioned(self):
        rng = np.random.default_rng(3)
        xs = list(rng.normal(0.0, 10.0, 40))
        s0, k0 = shape_moments(xs)
        for c in (1.0, -17.25, 1e3, -1e3):
            s1, k1 = shape_moments([x + c for x in xs])
            assert s1 == pytest.approx(s0, abs=1e-12)
            assert k1 == pytest.approx(k0, abs=1e-12)
        # at |c| = 1e6 representation rounding dominates
        for c in (1e6, -1e6):
            s1, k1 = shape_moments([x + c for x in xs])
            assert s1 == pytest.approx(s0, abs=1e-9)
            assert k1 == pytest.approx(k0, abs=1e-9)

    @given(samples, st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_scale_invariance(self, xs, lam):
        assume(_nondegenerate(xs))
        s0, k0 = shape_moments(xs)
        s_pos, k_pos = shape_moments([lam * x for x in xs])
        assert s_pos == pytest.approx(s0, abs=1e-12)
        assert k_pos == pytest.approx(k0, abs=1e-12)
        s_neg, k_neg = shape_moments([-lam * x for x in xs])
        assert s_neg == pytest.approx(-s0, abs=1e-12)
        assert k_neg == pytest.approx(k0, abs=1e-12)


class TestSummarize:
    def test_hand_example(self):
        s = summarize([1, 2, 3])
        assert s.mean == 2.0
        assert s.median == 2.0
        assert s.std_dev == pytest.approx(math.sqrt(2 / 3), rel=1e-14)
        assert s.rms == pytest.approx(math.sqrt(14 / 3), rel=1e-14)
        assert s.cv == pytest.approx(math.sqrt(2 / 3) / 2.0, rel=1e-14)
        assert s.variance == pytest.approx(s.std_dev**2, rel=1e-14)
        assert s.std_err == pytest.approx(s.std_dev / math.sqrt(3), rel=1e-14)
        assert s.outlier_high - s.outlier_low == pytest.approx(4 * s.std_dev, rel=1e-12)

    def test_symmetric_nonparam_skew(self):
        assert summarize([-1, 0, 1]).nonparam_skew == 0.0

    def test_two_point_rho_boundary(self):
        # (S, K) = (0, 1): help-variable numerator is 0 over a positive
        # denominator, so rho is populated as exactly 0 (not a valid Beta sum)
        assert summarize([0, 1]).rho == 0.0

    def test_rho_undefined_beyond_pole(self):
        # symmetric heavy tails push K past the pole 6 + 3 S^2 - 2 K = 0
        xs = [-1000.0] + [0.0] * 50 + [1000.0]
        s, k = shape_moments(xs)
        assert 6 + 3 * s * s - 2 * k < 0
        assert summarize(xs).rho is None

    def test_even_median_is_midpoint(self):
        assert summarize([1, 2, 3, 10]).median == 2.5

    @given(samples)
    @settings(max_examples=150, deadline=None)
    def test_rms_identity(self, xs):
        assume(_nondegenerate(xs))
        s = summarize(xs)
        assert s.rms**2 == pytest.approx(s.variance + s.mean**2, rel=1e-10, abs=1e-12)


class TestGroupSKPoints:
    def test_single_group(self):
        res = group_sk_points({"g": [1, 2, 3]}, min_n=3)
        assert len(res.points) == 1
        p = res.points[0]
        assert (p.s, p.k, p.n) == (0.0, pytest.approx(1.5), 3)

    def test_small_group_skipped(self):
        res = group_sk_points({"big": [1, 2, 3, 4, 9], "tiny": [1, 2]}, min_n=4)
        assert [p.group_key for p in res.points] == ["big"]
        assert [g.group_key for g in res.skipped] == ["tiny"]
        assert res.skipped[0].n == 2

    def test_constant_group_skipped_with_reason(self):
        res = group_sk_points({"ok": [1, 2, 3, 4], "flat": [5, 5, 5, 5]}, min_n=4)
        assert res.skipped[0].reason == "zero variance"

    @pytest.mark.parametrize("min_n", [0, 1, 2])
    def test_single_value_group_skipped_below_any_min_n(self, min_n):
        res = group_sk_points({"ok": [1, 2, 3, 4], "one": [5], "none": []}, min_n=min_n)
        assert [p.group_key for p in res.points] == ["ok"]
        assert [(g.group_key, g.n, g.reason) for g in res.skipped] == [
            ("one", 1, "fewer than 2 values"),
            ("none", 0, "fewer than 2 values"),
        ]

    def test_identical_groups_identical_points(self):
        res = group_sk_points({"a": [1, 2, 3, 7], "b": [1, 2, 3, 7]}, min_n=4)
        pa, pb = res.points
        assert (pa.s, pa.k) == (pb.s, pb.k)

    def test_all_skipped_raises(self):
        with pytest.raises(EmptyResultError) as ei:
            group_sk_points({"a": [1, 2]}, min_n=4)
        assert len(ei.value.skipped) == 1


class TestDetectOutliers:
    def test_basic(self):
        assert detect_outliers([0, 10], 0.0, 1.0) == [1]

    def test_boundary_not_flagged(self):
        assert detect_outliers([2.0], 0.0, 1.0) == []

    def test_interval_matches_reference_rounding(self):
        mu, sigma = 45.292, 42.902
        lo, hi = mu - 2 * sigma, mu + 2 * sigma
        assert lo == pytest.approx(-40.511, abs=2e-3)
        assert hi == pytest.approx(131.09, abs=1e-2)
        assert detect_outliers([lo + 1e-9, hi - 1e-9, hi + 1.0], mu, sigma) == [2]

    def test_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            detect_outliers([1.0], 0.0, 0.0)


class TestHistogram:
    def test_two_bins(self):
        assert histogram([0, 1, 2, 3], 2) == [(0.0, 1.5, 2), (1.5, 3.0, 2)]

    def test_constant_values(self):
        assert histogram([5, 5, 5], 4) == [(5.0, 5.0, 3)]

    @given(samples, st.integers(min_value=1, max_value=25))
    @settings(max_examples=150, deadline=None)
    def test_counts_sum_to_n(self, xs, bins):
        out = histogram(xs, bins)
        assert sum(c for _, _, c in out) == len(xs)

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            histogram([1, 2], 0)

    @given(samples, st.integers(min_value=1, max_value=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_value_loop(self, xs, bins):
        # the bin of each value by the same float operations, one value at a time
        lo, hi = min(xs), max(xs)
        assume(lo != hi)
        counts = [0] * bins
        for x in xs:
            counts[min(int((x - lo) / (hi - lo) * bins), bins - 1)] += 1
        out = histogram(xs, bins)
        assert [c for _, _, c in out] == counts
        assert all(type(c) is int for _, _, c in out)


def test_sk_points_csv_roundtrip_shape():
    res = group_sk_points({"a": [1, 2, 3, 9]}, min_n=4)
    text = sk_points_to_csv(res.points)
    header, row = text.strip().splitlines()
    assert header == "group,s,k,n"
    assert row.startswith("a,")


def test_summary_block_has_expected_rows():
    block = summary_block({"S": summarize([1, 2, 3, 4, 9])})
    for name in (
        "Min.", "Max.", "Sum", "N_p", "Mean (μ)", "Median (m)", "RMS",
        "St. Dev. (σ)", "Variance", "Std Err.", "Skewn.", "Kurt.",
        "μ/σ", "CV (σ/μ)", "3(μ−m)/σ",
        "ρ", "μ−2σ", "μ+2σ",
    ):
        assert name in block


def _longdouble_shape(xs):
    x = np.asarray(xs, dtype=np.longdouble)
    d = x - x.mean()
    m2, m3, m4 = ((d**i).mean() for i in (2, 3, 4))
    return float(m3 / m2**1.5), float(m4 / (m2 * m2))


class TestSegmentMoments:
    def test_segments_match_reference(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(2, 40, size=50)
        values = rng.lognormal(3.0, 1.2, size=int(counts.sum()))
        m = segment_moments(values, counts)
        s, k = m.shape()
        assert not m.flat.any()
        for i, seg in enumerate(np.split(values, np.cumsum(counts)[:-1])):
            s_ref, k_ref = _longdouble_shape(seg)
            assert s[i] == pytest.approx(s_ref, rel=1e-12, abs=1e-12)
            assert k[i] == pytest.approx(k_ref, rel=1e-12)
            assert m.mean[i] == pytest.approx(float(np.mean(seg, dtype=np.longdouble)), rel=1e-15)
            assert m.central(2)[i] == pytest.approx(float(np.var(seg, dtype=np.longdouble)), rel=1e-13)

    def test_one_value_segment_is_flat(self):
        m = segment_moments(np.array([4.0, 1.0, 2.0, 3.0]), [1, 3])
        assert m.flat.tolist() == [True, False]
        assert m.n.tolist() == [1, 3]

    XS = [1.0, 2.0, 3.0, 4.0, 9.0, 2.5]

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e80, 1e200, 1e300])
    def test_shape_is_scale_free(self, scale):
        s0, k0 = shape_moments(self.XS)
        s1, k1 = shape_moments([x * scale for x in self.XS])
        assert s1 == pytest.approx(s0, rel=1e-13)
        assert k1 == pytest.approx(k0, rel=1e-13)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e80, 1e150])
    def test_summary_within_float_range(self, scale):
        summary = summarize([x * scale for x in self.XS])
        assert math.isfinite(summary.std_dev) and summary.std_dev > 0.0
        assert summary.rms == pytest.approx(scale * summarize(self.XS).rms, rel=1e-14)

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_variance_beyond_float_range_raises(self, scale):
        xs = [x * scale for x in self.XS]
        with pytest.raises(OverflowError, match="variance"):
            summarize(xs)
        with pytest.raises(OverflowError, match="mu2, mu3, mu4"):
            central_moments(xs)

    def test_sums_beyond_float_range(self):
        xs = [1.7e308, 1.0e308, 1.2e308, 0.5e308]  # their sum overflows
        s, k = shape_moments(xs)
        s_ref, k_ref = shape_moments([x / 1e308 for x in xs])
        assert (s, k) == (pytest.approx(s_ref, rel=1e-13), pytest.approx(k_ref, rel=1e-13))
        assert segment_moments(np.array(xs), [4]).mean[0] == pytest.approx(1.1e308, rel=1e-15)
        with pytest.raises(OverflowError, match="sum"):
            summarize(xs)

    def test_rounding_noise_is_zero_variance(self):
        xs = [1.0, 1.0 + 1e-15, 1.0, 1.0]
        with pytest.raises(UndefinedShapeError, match="equal to rounding"):
            shape_moments(xs)
        res = group_sk_points({"noise": xs, "ok": [1.0, 2.0, 3.0, 7.0]}, min_n=4)
        assert [(g.group_key, g.reason) for g in res.skipped] == [("noise", "zero variance")]

    def test_floor_is_relative_to_the_mean(self):
        spread = 4 * REL_STD_FLOOR
        assert shape_moments([1.0 - spread, 1.0 + spread, 1.0, 1.0])
        assert shape_moments([-spread, spread, 0.0, 0.0])  # mean 0: any spread counts
        with pytest.raises(UndefinedShapeError):
            shape_moments([1.0 - spread / 8, 1.0 + spread / 8, 1.0, 1.0])
